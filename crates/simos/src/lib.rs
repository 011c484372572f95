//! # simos — simulated operating-system substrate
//!
//! The SOVIA paper's design is shaped by operating-system mechanics: the
//! cost of syscalls and interrupts (what the kernel TCP/IP baseline pays),
//! memory registration and pinning (what VIA's zero-copy requires), and
//! fork()'s copy-on-write pages (the Figure 5 bug SOVIA works around with
//! shared segments). This crate models those mechanics on top of the
//! [`dsim`] virtual-time executor, at page granularity and carrying real
//! bytes so corruption is observable, with every operation charging an
//! explicit CPU cost from [`HostCosts`].
//!
//! * [`Machine`] — a host: physical memory, ramdisk FS, cost model,
//!   extension registry for upper layers.
//! * [`Process`] — address space (COW on fork), descriptor table, pipes.
//! * [`mem`] — frames, address spaces, pinning, DMA.
//! * [`HostCosts`] — the calibrated Pentium III-500 cost preset.

#![warn(missing_docs)]

pub mod cpu;
mod costs;
mod error;
mod ext;
mod machine;
mod process;

pub mod fs;
pub mod mem;
pub mod pipe;

pub use costs::HostCosts;
pub use cpu::KernelCpu;
pub use error::{OsError, OsResult};
pub use ext::Extensions;
pub use machine::{HostId, Machine, WeakMachine};
pub use process::{Fd, FdEntry, Process};
