//! # sovia — SOVIA: a user-level Sockets layer over the Virtual Interface
//! Architecture
//!
//! Reproduction of Kim, Kim & Jung, *"SOVIA: A User-level Sockets Layer
//! Over Virtual Interface Architecture"*, IEEE CLUSTER 2001. SOVIA
//! emulates the Berkeley Sockets API entirely at user level on top of the
//! VIPL (crate [`via`]), eliminating the kernel from the data path while
//! keeping Sockets semantics:
//!
//! * **Latency** (Section 3.1): a two-way handshake that satisfies VIA's
//!   pre-posting constraint with receiver-side bounce buffering; a
//!   single-threaded receive path (the handler-thread variant exists as a
//!   config for comparison); hybrid copy-vs-register with a 2 KB
//!   threshold.
//! * **Bandwidth** (Section 3.2): sliding-window flow control (w = 32),
//!   delayed acknowledgments with piggybacking (t = 16, carried in the
//!   VIA immediate-data field), and Nagle-style small-message combining
//!   (100 ms timer, 32 KB chunks).
//! * **Compatibility** (Section 4): DATA/ACK/WAKEUP/FIN/FINACK packets, a
//!   connection thread per listen port, a close thread that drains the
//!   final handshakes, descriptor-table interposition via the [`sockets`]
//!   crate, and shared-memory-segment buffers so `fork()` works (the
//!   Figure 5 copy-on-write hazard).
//!
//! ## Quick start
//!
//! Attach a [`via::ViaNic`] to each machine, call
//! [`register_sovia`], then use the plain sockets API with
//! [`sockets::SockType::Via`].

#![warn(missing_docs)]

mod buffers;
pub mod config;
mod conn;
mod library;
mod packet;
mod socket;

pub use buffers::SlotPool;
pub use config::{ReceiveMode, SoviaConfig};
pub use conn::{ConnStats, SovConn};
pub use library::SoviaLib;
pub use packet::{decode, encode, PacketType, WakeupInfo};
pub use socket::{nic_of_host, register_sovia, SovSocket, SoviaProvider};
