//! # simnic — simulated network hardware
//!
//! Wire/link models and NIC engines for the SOVIA reproduction:
//!
//! * [`link`] — point-to-point links with propagation latency; the sending
//!   NIC charges serialization (ns/byte), so link bandwidth is a genuine
//!   bottleneck, not an afterthought.
//! * [`eth`] — a store-and-forward Ethernet NIC (Fast Ethernet baseline),
//!   with an interrupt-style receive handler.
//! * [`platform`] — calibrated presets for the paper's testbed: Giganet
//!   cLAN1000 (VIA-aware, 1.25 Gb/s) and Fast Ethernet.
//! * [`faults`] — seeded, deterministic fault injection (drop /
//!   duplicate / reorder / delay plus scripted one-shots) for links and
//!   NICs; a strict no-op when the plan is empty.
//!
//! The VIA-specific NIC *engine* (descriptor processing, pre-posting
//! constraint, completion queues) lives in the `via` crate next to the
//! VIPL that drives it; this crate supplies the wires and cost presets.

#![warn(missing_docs)]

pub mod eth;
pub mod faults;
pub mod link;
pub mod platform;

pub use eth::{EthFrame, EthNicCosts, EthPort, ETH_MTU, ETH_OVERHEAD};
pub use faults::{FaultAction, FaultHandle, FaultLane, FaultPlan, FaultStats, ScriptedFault};
pub use link::{Link, LinkParams};
pub use platform::{clan1000_nic, clan_link, fast_ethernet_link, fast_ethernet_nic, ViaNicCosts};
