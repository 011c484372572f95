//! VIA descriptors: the work requests posted to send/receive queues.

use std::sync::Arc;

use crate::error::VipError;
use crate::mem::MemRegion;

/// Completion state of a descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DescState {
    /// Posted, not yet processed by the NIC.
    #[default]
    Pending,
    /// Completed successfully.
    Done,
    /// Completed in error.
    Error(VipError),
}

/// Mutable status block the NIC fills at completion (the default: pending).
#[derive(Debug, Clone, Copy, Default)]
pub struct DescStatus {
    /// Current state.
    pub state: DescState,
    /// Bytes actually transferred (receives: arriving message length).
    pub xfer_len: usize,
    /// Immediate data delivered with the message (receives only).
    pub immediate: Option<u32>,
}

/// A send or receive descriptor: one data segment plus optional 32-bit
/// immediate data (SOVIA uses the immediate field for packet type and
/// delayed-ACK counts).
///
/// A plain value: posting moves it into its VI's work queue, the NIC
/// writes its status in place, and the completion calls hand it back.
/// Posting it again (a receive ring's re-post) resets its status.
pub struct Descriptor {
    /// The registered region the NIC will DMA from/to.
    pub region: Arc<MemRegion>,
    // (no Debug derive: regions hold machine handles; see `fmt` impl below)
    /// Byte offset of the segment within the region.
    pub offset: usize,
    /// Segment length: bytes to send, or buffer capacity for a receive.
    pub len: usize,
    /// Immediate data to carry (sends only).
    pub immediate: Option<u32>,
    status: DescStatus,
}

impl std::fmt::Debug for Descriptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Descriptor")
            .field("offset", &self.offset)
            .field("len", &self.len)
            .field("immediate", &self.immediate)
            .field("status", &self.status)
            .finish()
    }
}

impl Descriptor {
    /// Build a send descriptor over `region[offset .. offset+len]`.
    pub fn send(
        region: Arc<MemRegion>,
        offset: usize,
        len: usize,
        immediate: Option<u32>,
    ) -> Descriptor {
        assert!(offset + len <= region.len(), "segment outside region");
        Descriptor {
            region,
            offset,
            len,
            immediate,
            status: DescStatus::default(),
        }
    }

    /// Build a receive descriptor with `len` bytes of buffer capacity.
    pub fn recv(region: Arc<MemRegion>, offset: usize, len: usize) -> Descriptor {
        Descriptor::send(region, offset, len, None)
    }

    /// Current status snapshot.
    pub fn status(&self) -> DescStatus {
        self.status
    }

    /// True once the NIC has completed this descriptor (successfully).
    pub fn is_done(&self) -> bool {
        matches!(self.status.state, DescState::Done)
    }

    /// Posting side: start over as a freshly posted descriptor.
    pub(crate) fn reset(&mut self) {
        self.status = DescStatus::default();
    }

    /// NIC side: mark complete.
    pub(crate) fn complete(&mut self, xfer_len: usize, immediate: Option<u32>) {
        debug_assert_eq!(self.status.state, DescState::Pending, "double completion");
        self.status = DescStatus {
            state: DescState::Done,
            xfer_len,
            immediate,
        };
    }

    /// NIC side: mark failed.
    pub(crate) fn fail(&mut self, err: VipError) {
        self.status.state = DescState::Error(err);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsim::Simulation;
    use parking_lot::Mutex;
    use simos::{HostCosts, HostId, Machine};

    fn region(len: usize) -> Arc<MemRegion> {
        let mut sim = Simulation::new();
        let m = Machine::new(&sim.handle(), HostId(0), "m", HostCosts::free());
        let p = m.spawn_process("p");
        let out: Arc<Mutex<Option<Arc<MemRegion>>>> = Arc::new(Mutex::new(None));
        let out2 = Arc::clone(&out);
        sim.spawn("main", move |ctx| {
            let va = p.alloc(ctx, len);
            *out2.lock() = Some(MemRegion::register(ctx, &p, va, len));
        });
        sim.run().unwrap();
        let r = out.lock().take().unwrap();
        r
    }

    #[test]
    fn lifecycle() {
        let r = region(4096);
        let mut d = Descriptor::send(Arc::clone(&r), 0, 100, Some(7));
        assert_eq!(d.status().state, DescState::Pending);
        assert!(!d.is_done());
        d.complete(100, None);
        assert!(d.is_done());
        assert_eq!(d.status().xfer_len, 100);
        d.reset();
        assert_eq!(d.status().state, DescState::Pending);
    }

    #[test]
    fn failure_records_error() {
        let r = region(4096);
        let mut d = Descriptor::recv(Arc::clone(&r), 0, 64);
        d.fail(VipError::Disconnected);
        assert_eq!(d.status().state, DescState::Error(VipError::Disconnected));
    }

    #[test]
    #[should_panic(expected = "segment outside region")]
    fn oversized_segment_panics() {
        let r = region(4096);
        let _ = Descriptor::send(r, 4000, 200, None);
    }
}
