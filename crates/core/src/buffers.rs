//! Pre-registered buffer pools.
//!
//! SOVIA pre-registers all internal buffers once at connection setup:
//! receive bounce buffers (the "intermediate buffering at the receiving
//! side" of Section 3.1), sender-side copy slots, and a small pool for
//! zero-payload control packets. Following Section 4.3, the pools live in
//! **shared-memory segments** by default so fork() cannot separate the
//! pinned frames from the mapping (Figure 5).

use std::sync::Arc;

use dsim::SimCtx;
use parking_lot::Mutex;
use simos::mem::VAddr;
use simos::Process;
use via::MemRegion;

/// A registered region divided into equal slots, with a free list.
pub struct SlotPool {
    region: Arc<MemRegion>,
    base: VAddr,
    slot_size: usize,
    count: usize,
    free: Mutex<Vec<usize>>,
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
    ) -> Arc<SlotPool> {
        assert!(count > 0 && slot_size > 0);
        let total = count * slot_size;
        let base = if shared {
            process.alloc_shared(ctx, total)
        } else {
            process.alloc(ctx, total)
        };
        let region = MemRegion::register(ctx, process, base, total);
        Arc::new(SlotPool {
            region,
            base,
            slot_size,
            count,
            free: Mutex::new((0..count).rev().collect()),
            process: process.clone(),
        })
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

    /// Take a free slot, if any.
    pub fn try_acquire(&self) -> Option<usize> {
        self.free.lock().pop()
    }

    /// Return a slot to the pool.
    pub fn release(&self, i: usize) {
        assert!(i < self.count);
        let mut free = self.free.lock();
        debug_assert!(!free.contains(&i), "double release of slot {i}");
        free.push(i);
    }

    /// Free-slot count (diagnostics).
    pub fn available(&self) -> usize {
        self.free.lock().len()
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

#[cfg(test)]
mod tests {
    use super::*;
    use dsim::Simulation;
    use simos::{HostCosts, HostId, Machine};

    fn with_pool(f: impl FnOnce(&dsim::SimCtx, Arc<SlotPool>) + Send + 'static) {
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
        with_pool(|_ctx, pool| {
            assert_eq!(pool.available(), 4);
            let a = pool.try_acquire().unwrap();
            let b = pool.try_acquire().unwrap();
            assert_ne!(a, b);
            assert_eq!(pool.available(), 2);
            pool.release(a);
            assert_eq!(pool.available(), 3);
            let c = pool.try_acquire().unwrap();
            assert_eq!(c, a, "LIFO reuse");
        });
    }

    #[test]
    fn exhaustion_returns_none() {
        with_pool(|_ctx, pool| {
            for _ in 0..4 {
                pool.try_acquire().unwrap();
            }
            assert!(pool.try_acquire().is_none());
        });
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
