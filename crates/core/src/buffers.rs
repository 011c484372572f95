//! Pre-registered buffer pools.
//!
//! SOVIA pre-registers all internal buffers once at connection setup:
//! receive bounce buffers (the "intermediate buffering at the receiving
//! side" of Section 3.1), sender-side copy slots, and a small pool for
//! zero-payload control packets. Following Section 4.3, the pools live in
//! **shared-memory segments** by default so fork() cannot separate the
//! pinned frames from the mapping (Figure 5).
//!
//! A [`SlotPool`] is only the registered region and its geometry, fixed
//! for the connection's life. Which slots are free changes with every
//! send, so the free lists ([`FreeSlots`]) live in the connection's state,
//! under its library's one lock: the reap that returns a slot and the send
//! that takes one already hold it.

use std::sync::Arc;

use dsim::SimCtx;
use simos::mem::VAddr;
use simos::Process;
use via::MemRegion;

/// A registered region divided into equal slots.
pub struct SlotPool {
    region: Arc<MemRegion>,
    base: VAddr,
    slot_size: usize,
    count: usize,
    process: Process,
}

impl SlotPool {
    /// Allocate and register a pool of `count` slots of `slot_size` bytes.
    pub fn new(
        ctx: &SimCtx,
        process: &Process,
        count: usize,
        slot_size: usize,
        shared: bool,
    ) -> SlotPool {
        assert!(count > 0 && slot_size > 0);
        let total = count * slot_size;
        let base = if shared {
            process.alloc_shared(ctx, total)
        } else {
            process.alloc(ctx, total)
        };
        let region = MemRegion::register(ctx, process, base, total);
        SlotPool {
            region,
            base,
            slot_size,
            count,
            process: process.clone(),
        }
    }

    /// The registered region backing all slots.
    pub fn region(&self) -> &Arc<MemRegion> {
        &self.region
    }

    /// Slot size in bytes.
    pub fn slot_size(&self) -> usize {
        self.slot_size
    }

    /// Byte offset of slot `i` within the region.
    pub fn offset_of(&self, i: usize) -> usize {
        assert!(i < self.count);
        i * self.slot_size
    }

    /// Fill `slot` starting at `within` with `data` (host-side store into
    /// the mapped buffer; the *memcpy* cost is charged by the caller, which
    /// knows whether this models a copy or data that already existed).
    pub fn write_slot(&self, ctx: &SimCtx, slot: usize, within: usize, data: &[u8]) {
        let faults = self.store_slot(slot, within, data);
        simos::mem::charge_cow_faults(ctx, self.process.costs(), faults);
    }

    /// [`SlotPool::write_slot`] without the COW-fault charge, which it
    /// returns as a fault count instead: safe under a lock guard.
    pub fn store_slot(&self, slot: usize, within: usize, data: &[u8]) -> usize {
        assert!(within + data.len() <= self.slot_size, "slot overflow");
        let va = self.base.add((self.offset_of(slot) + within) as u64);
        self.process.store_mem(va, data)
    }

    /// Deregister the pool's region (connection teardown).
    pub fn deregister(&self, ctx: &SimCtx) {
        self.region.deregister(ctx);
    }
}

/// The free slots of one pool, taken and returned LIFO (the slot freed
/// last is the warmest). A plain value: its owner's lock guards it.
#[derive(Default)]
pub(crate) struct FreeSlots(Vec<usize>);

impl FreeSlots {
    /// All `count` slots of a pool free, slot 0 taken first.
    pub(crate) fn new(count: usize) -> FreeSlots {
        FreeSlots((0..count).rev().collect())
    }

    /// Take a free slot, if any.
    pub(crate) fn take(&mut self) -> Option<usize> {
        self.0.pop()
    }

    /// Return slot `i`.
    pub(crate) fn put(&mut self, i: usize) {
        debug_assert!(!self.0.contains(&i), "double release of slot {i}");
        self.0.push(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsim::Simulation;
    use simos::{HostCosts, HostId, Machine};

    fn with_pool(f: impl FnOnce(&dsim::SimCtx, SlotPool) + Send + 'static) {
        let mut sim = Simulation::new();
        let m = Machine::new(&sim.handle(), HostId(0), "m", HostCosts::free());
        let p = m.spawn_process("p");
        sim.spawn("main", move |ctx| {
            let pool = SlotPool::new(ctx, &p, 4, 1024, true);
            f(ctx, pool);
        });
        sim.run().unwrap();
    }

    #[test]
    fn acquire_release_cycle() {
        let mut free = FreeSlots::new(4);
        let a = free.take().unwrap();
        let b = free.take().unwrap();
        assert_eq!((a, b), (0, 1), "slots are taken in order at first");
        free.put(a);
        let c = free.take().unwrap();
        assert_eq!(c, a, "LIFO reuse");
        assert_eq!([free.take(), free.take()], [Some(2), Some(3)]);
        assert!(free.take().is_none(), "a and b are still out");
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut free = FreeSlots::new(4);
        for _ in 0..4 {
            free.take().unwrap();
        }
        assert!(free.take().is_none());
        free.put(2);
        assert_eq!(free.take(), Some(2));
        assert!(free.take().is_none());
    }

    #[test]
    fn slot_addressing() {
        with_pool(|_ctx, pool| {
            assert_eq!(pool.offset_of(0), 0);
            assert_eq!(pool.offset_of(3), 3 * 1024);
        });
    }

    #[test]
    fn write_slot_lands_in_region() {
        with_pool(|ctx, pool| {
            pool.write_slot(ctx, 2, 10, b"payload");
            let got = pool.region().dma_read(pool.offset_of(2) + 10, 7);
            assert_eq!(got, b"payload");
        });
    }

    #[test]
    #[should_panic(expected = "slot overflow")]
    fn overflow_panics() {
        with_pool(|ctx, pool| {
            pool.write_slot(ctx, 0, 1000, &[0u8; 100]);
        });
    }
}
