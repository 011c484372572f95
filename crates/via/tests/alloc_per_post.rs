//! A posted descriptor is a value moved into its VI's work queue, so
//! posting costs no host allocation per descriptor: only the queue's own
//! growth allocates, and re-posting a completed descriptor allocates
//! nothing.
//!
//! The counting allocator counts per thread. A simulation runs its
//! processes as coroutines on the thread that calls `Simulation::run`, so
//! the counts below see only their own simulation, whatever other tests
//! run alongside.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use dsim::{SimDuration, Simulation};
use simnic::{clan1000_nic, clan_link};
use simos::{HostCosts, HostId, Machine};
use via::{Descriptor, MemRegion, ViAttributes, ViaNic, ViaNicId, WaitMode};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made on this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter only
// observes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The LANE driver's ring depth.
const RING: usize = 256;
const SLOT: usize = 64;

#[test]
fn prepost_ring_allocates_for_queue_growth_only() {
    let mut sim = Simulation::new();
    let m = Machine::new(&sim.handle(), HostId(0), "m", HostCosts::pentium3_500());
    let nic = ViaNic::attach(&m, ViaNicId(0), clan1000_nic());
    sim.spawn("prepost", move |ctx| {
        let p = m.spawn_process("ring");
        let va = p.alloc(ctx, RING * SLOT);
        let region = MemRegion::register(ctx, &p, va, RING * SLOT);
        let vi = nic.create_vi(ViAttributes::default());
        let before = allocs();
        for i in 0..RING {
            vi.post_recv(ctx, Descriptor::recv(Arc::clone(&region), i * SLOT, SLOT))
                .unwrap();
        }
        let n = allocs() - before;
        // One per doubling of the pending queue (4, 8, ..., 256 slots),
        // not one per descriptor.
        assert!(n <= 8, "{n} allocations to pre-post {RING} descriptors");
        assert_eq!(vi.recv_pending(), RING);
    });
    sim.run().unwrap();
}

#[test]
fn reposting_a_completed_descriptor_allocates_nothing() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let m0 = Machine::new(&h, HostId(0), "m0", HostCosts::pentium3_500());
    let m1 = Machine::new(&h, HostId(1), "m1", HostCosts::pentium3_500());
    let n0 = ViaNic::attach(&m0, ViaNicId(0), clan1000_nic());
    let n1 = ViaNic::attach(&m1, ViaNicId(1), clan1000_nic());
    ViaNic::connect_pair(&n0, &n1, clan_link());
    sim.spawn("server", move |ctx| {
        let p = m1.spawn_process("server");
        let va = p.alloc(ctx, 4 * SLOT);
        let region = MemRegion::register(ctx, &p, va, 4 * SLOT);
        let vi = n1.create_vi(ViAttributes::default());
        for i in 0..4 {
            vi.post_recv(ctx, Descriptor::recv(Arc::clone(&region), i * SLOT, SLOT))
                .unwrap();
        }
        n1.listen(7);
        let pending = n1.connect_wait(ctx, 7);
        n1.connect_accept(ctx, &pending, &vi).unwrap();
        for _ in 0..2 {
            let done = vi.recv_wait(ctx, WaitMode::Block).unwrap();
            assert_eq!(done.status().xfer_len, 8);
            // Let the client and both NICs go idle, so only the re-post
            // runs while it is counted.
            ctx.sleep(SimDuration::from_micros(100));
            let before = allocs();
            vi.post_recv(ctx, done).unwrap();
            assert_eq!(allocs() - before, 0, "re-posting allocated");
            assert_eq!(vi.recv_pending(), 4);
        }
    });
    sim.spawn("client", move |ctx| {
        let p = m0.spawn_process("client");
        let va = p.alloc(ctx, SLOT);
        let region = MemRegion::register(ctx, &p, va, SLOT);
        let vi = n0.create_vi(ViAttributes::default());
        ctx.sleep(SimDuration::from_micros(50));
        n0.connect_request(ctx, &vi, ViaNicId(1), 7).unwrap();
        for _ in 0..2 {
            vi.post_send(ctx, Descriptor::send(Arc::clone(&region), 0, 8, None))
                .unwrap();
            vi.send_wait(ctx, WaitMode::Block).unwrap();
            ctx.sleep(SimDuration::from_micros(200));
        }
    });
    sim.run().unwrap();
}
