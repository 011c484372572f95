//! VIPL status/error codes (a condensed `VIP_*` status set).

use std::fmt;

/// Errors returned by VIPL calls and recorded in descriptor status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VipError {
    /// The VI is not in the state required for the operation.
    InvalidState,
    /// The VI is not connected.
    NotConnected,
    /// Connection request was rejected or no listener existed.
    ConnectionRefused,
    /// The remote end disconnected.
    Disconnected,
    /// Transfer length exceeds the NIC's maximum transfer size.
    TooLarge,
    /// The descriptor completed in error.
    DescriptorError,
    /// Arriving data found no pre-posted descriptor on a reliable VI:
    /// the connection is broken (the pre-posting constraint, Section 3.1).
    NoDescriptor,
    /// The receive buffer was smaller than the arriving message.
    BufferTooSmall,
}

impl fmt::Display for VipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VipError::InvalidState => "invalid VI state",
            VipError::NotConnected => "VI not connected",
            VipError::ConnectionRefused => "connection refused",
            VipError::Disconnected => "remote disconnected",
            VipError::TooLarge => "transfer exceeds NIC maximum",
            VipError::DescriptorError => "descriptor completed in error",
            VipError::NoDescriptor => "no pre-posted descriptor",
            VipError::BufferTooSmall => "receive buffer too small",
        };
        f.write_str(s)
    }
}

impl std::error::Error for VipError {}

/// Result alias for VIPL calls.
pub type VipResult<T> = Result<T, VipError>;
