//! # sockets — the BSD sockets front-end
//!
//! A Berkeley-sockets API whose descriptors dispatch at run time to
//! whichever transport provider backs them: the kernel TCP/IP stack
//! (`SOCK_STREAM`, crate `tcpip`) or SOVIA (`SOCK_VIA`, crate `sovia`).
//! This reproduces the paper's portability layer (Section 4.2): SOVIA
//! sockets occupy real (dummy) kernel descriptors, `read`/`write`/`close`
//! wrappers check the per-process socket table first, and TCP and SOVIA
//! sockets coexist in one process.
//!
//! * [`api`] — `socket`/`bind`/`listen`/`accept`/`connect`/`send`/`recv`/
//!   `close` plus the interposed `read`/`write`.
//! * [`provider`] — the [`Socket`] and [`SocketProvider`] traits
//!   transports implement, and the per-machine registry.
//! * [`stdio`] — a buffered `fdopen`-style wrapper.

#![warn(missing_docs)]

pub mod api;
pub mod provider;
pub mod stdio;
mod types;

pub use provider::{ProviderRegistry, Socket, SocketProvider};
pub use types::{Shutdown, SockAddr, SockError, SockOption, SockResult, SockType};
