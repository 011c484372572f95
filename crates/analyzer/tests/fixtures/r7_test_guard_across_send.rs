//! Fixture: an integration test holding a lock guard across a socket call
//! (R7). The test's processes are coroutines on one thread, so the guard
//! hangs the simulation as surely as it would in a sim crate. The same
//! text breaks R1, R5 and R6 in sim code; in a test only R7 applies.

use std::time::Instant;

#[test]
fn guard_across_send() {
    let mut sim = Simulation::new();
    let (m0, _m1) = testbed::sovia_pair(&sim.handle(), SoviaConfig::default());
    let log = Arc::new(Mutex::new(Vec::new()));
    let p = m0.spawn_process("client");
    sim.spawn("client", move |ctx| {
        let s = api::socket(ctx, &p, SockType::Via).unwrap();
        let mut log = log.lock();
        log.push(api::send(ctx, &p, s, b"x")); // R7
    });
    let start = Instant::now();
    sim.run().unwrap();
    assert!(start.elapsed().as_secs() < 1);
}

/// Fine: the right-hand side runs before the place is locked.
fn record(ctx: &SimCtx, p: &Process, s: Fd, seen: &Mutex<Option<SockResult<usize>>>) {
    let r = api::send(ctx, p, s, b"x");
    *seen.lock() = Some(r);
}

/// Opposite acquisition orders: a cycle in sim code, no edge from a test.
fn ab(alpha: &Mutex<u32>, beta: &Mutex<u32>) {
    let _a = alpha.lock();
    let _b = beta.lock();
}

fn ba(alpha: &Mutex<u32>, beta: &Mutex<u32>) {
    let _b = beta.lock();
    let _a = alpha.lock();
}
