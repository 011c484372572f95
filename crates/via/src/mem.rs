//! Memory registration (`VipRegisterMem` / `VipDeregisterMem`).
//!
//! Registration is the kernel agent translating and pinning the pages of a
//! virtual range so the NIC can DMA directly to/from user memory — the
//! mechanism enabling VIA's zero-copy protocol, and (per the paper) "a
//! relatively expensive operation for small messages", which is why SOVIA
//! copies small sends into pre-registered buffers instead.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dsim::SimCtx;
use simos::mem::{PinnedRegion, VAddr, PAGE_SIZE};
use simos::{Machine, Process};

/// A registered (pinned) memory region, addressable by the NIC.
pub struct MemRegion {
    machine: Machine,
    pinned: PinnedRegion,
    deregistered: AtomicBool,
}

impl MemRegion {
    /// `VipRegisterMem`: pin `len` bytes at `va` in `process`, charging the
    /// registration cost (base + per page).
    pub fn register(ctx: &SimCtx, process: &Process, va: VAddr, len: usize) -> Arc<MemRegion> {
        let pages = (va.page_offset() + len).div_ceil(PAGE_SIZE);
        ctx.charge(
            dsim::TraceLayer::Via,
            dsim::TraceKind::MemRegister,
            process.costs().mem_register(pages),
            dsim::TraceTag::bytes(len).msg(pages as u64),
        );
        let pinned = process.pin(va, len);
        Arc::new(MemRegion {
            machine: process.machine().clone(),
            pinned,
            deregistered: AtomicBool::new(false),
        })
    }

    /// `VipDeregisterMem`: unpin, releasing the frames for reuse.
    pub fn deregister(&self, ctx: &SimCtx) {
        let was = self.deregistered.swap(true, Ordering::Relaxed);
        assert!(!was, "double deregister");
        ctx.sleep(self.machine.costs().mem_deregister);
        let mut phys = self.machine.phys();
        simos::mem::unpin(&mut phys, &self.pinned);
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.pinned.len
    }

    /// Whether the region is empty (it never is; pins require len > 0).
    pub fn is_empty(&self) -> bool {
        self.pinned.len == 0
    }

    /// Number of pinned pages.
    pub fn page_count(&self) -> usize {
        self.pinned.page_count()
    }

    /// NIC-side DMA read (no CPU cost; the NIC engine charges DMA time).
    pub fn dma_read(&self, offset: usize, len: usize) -> Vec<u8> {
        assert!(
            !self.deregistered.load(Ordering::Relaxed),
            "DMA from deregistered region"
        );
        let phys = self.machine.phys();
        simos::mem::dma_read(&phys, &self.pinned, offset, len)
    }

    /// NIC-side DMA write.
    pub fn dma_write(&self, offset: usize, data: &[u8]) {
        assert!(
            !self.deregistered.load(Ordering::Relaxed),
            "DMA into deregistered region"
        );
        let mut phys = self.machine.phys();
        simos::mem::dma_write(&mut phys, &self.pinned, offset, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsim::Simulation;
    use simos::{HostCosts, HostId};

    #[test]
    fn register_charges_per_page_and_pins() {
        let mut sim = Simulation::new();
        let m = Machine::new(
            &sim.handle(),
            HostId(0),
            "m",
            HostCosts::pentium3_500(),
        );
        let p = m.spawn_process("p");
        sim.spawn("main", move |ctx| {
            let va = p.alloc(ctx, 3 * PAGE_SIZE);
            let t0 = ctx.now();
            let region = MemRegion::register(ctx, &p, va, 3 * PAGE_SIZE);
            // base 3us + 3 pages * 1.5us = 7.5us.
            assert_eq!(ctx.now().since(t0).as_nanos(), 7_500);
            assert_eq!(region.page_count(), 3);
            assert_eq!(region.len(), 3 * PAGE_SIZE);

            p.write_mem(ctx, va, b"through the mapping");
            assert_eq!(region.dma_read(0, 7), b"through");
            region.dma_write(0, b"THROUGH");
            assert_eq!(&p.read_mem(va, 7), b"THROUGH");
            region.deregister(ctx);
        });
        sim.run().unwrap();
    }

    #[test]
    fn unaligned_registration_counts_spanned_pages() {
        let mut sim = Simulation::new();
        let m = Machine::new(&sim.handle(), HostId(0), "m", HostCosts::free());
        let p = m.spawn_process("p");
        sim.spawn("main", move |ctx| {
            let va = p.alloc(ctx, 2 * PAGE_SIZE);
            // 100 bytes straddling a page boundary -> 2 pages.
            let region =
                MemRegion::register(ctx, &p, va.add(PAGE_SIZE as u64 - 50), 100);
            assert_eq!(region.page_count(), 2);
        });
        sim.run().unwrap();
    }
}
