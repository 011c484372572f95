//! # tcpip — the kernel TCP/IP baseline
//!
//! A miniature but behaviorally faithful TCP/IP stack: sliding-window
//! transport with Nagle, delayed ACKs, slow start, go-back-N
//! retransmission, real 40-byte headers; an IP layer over either a Fast
//! Ethernet device or the **LANE** driver (IP-over-VIA — the kernel path
//! Giganet shipped for cLAN, Figure 2(b) of the SOVIA paper). Every
//! packet pays syscall/interrupt/copy/protocol costs — the overheads the
//! paper's measurements hold against SOVIA.

#![warn(missing_docs)]

mod costs;
mod device;
mod packet;
mod socket;
mod stack;
mod tcb;

pub use costs::TcpCosts;
pub use device::{EthDevice, LaneDevice, NetDevice};
pub use packet::{IpPacket, PacketHeader, TcpFlags, IP_HDR, TCP_HDR};
pub use socket::{TcpProvider, TcpSocket};
pub use stack::TcpStack;
pub use tcb::{mss_for, Tcb, TcpState, DEFAULT_SOCKBUF};
