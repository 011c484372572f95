//! Socket addressing, types, options, and errors.

use std::fmt;

use simos::{HostId, OsError};

/// An `AF_INET`-style address: host + port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SockAddr {
    /// Host ("IP address").
    pub host: HostId,
    /// Port number.
    pub port: u16,
}

impl SockAddr {
    /// Convenience constructor.
    pub fn new(host: HostId, port: u16) -> SockAddr {
        SockAddr { host, port }
    }
}

impl fmt::Display for SockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.host, self.port)
    }
}

/// Socket types: `SOCK_STREAM` (kernel TCP) or the paper's new `SOCK_VIA`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SockType {
    /// Kernel TCP/IP stream socket.
    Stream,
    /// SOVIA user-level socket over VIA.
    Via,
}

/// `shutdown(2)` directions (only the write half carries protocol
/// meaning for these stream transports; the read half is a local matter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shutdown {
    /// Half-close: send EOF to the peer, keep receiving.
    Write,
}

/// Options settable with `setsockopt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SockOption {
    /// `TCP_NODELAY`: disable Nagle (TCP) / small-message combining (SOVIA).
    NoDelay(bool),
    /// Send buffer size (`SO_SNDBUF`).
    SendBuf(usize),
    /// Receive buffer size (`SO_RCVBUF`).
    RecvBuf(usize),
}

/// Socket-layer errors (an errno-flavored set shared by all providers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SockError {
    /// Descriptor is not a socket or not open.
    BadFd,
    /// Address already bound.
    AddrInUse,
    /// No listener at the remote address.
    ConnectionRefused,
    /// The peer reset/broke the connection.
    ConnectionReset,
    /// Operation requires a connected socket.
    NotConnected,
    /// Operation requires a bound/listening socket.
    InvalidState,
    /// The connection was closed locally.
    Closed,
    /// No provider registered for the requested socket type.
    NoProvider,
    /// The provider's configuration failed validation.
    InvalidConfig,
    /// Underlying OS error.
    Os(OsError),
}

impl fmt::Display for SockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SockError::BadFd => f.write_str("bad socket descriptor"),
            SockError::AddrInUse => f.write_str("address in use"),
            SockError::ConnectionRefused => f.write_str("connection refused"),
            SockError::ConnectionReset => f.write_str("connection reset by peer"),
            SockError::NotConnected => f.write_str("not connected"),
            SockError::InvalidState => f.write_str("invalid socket state"),
            SockError::Closed => f.write_str("socket closed"),
            SockError::NoProvider => f.write_str("no provider for socket type"),
            SockError::InvalidConfig => f.write_str("invalid provider configuration"),
            SockError::Os(e) => write!(f, "os error: {e}"),
        }
    }
}

impl std::error::Error for SockError {}

impl From<OsError> for SockError {
    fn from(e: OsError) -> SockError {
        SockError::Os(e)
    }
}

/// Result alias for socket calls.
pub type SockResult<T> = Result<T, SockError>;
