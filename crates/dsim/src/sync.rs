//! Virtual-time synchronization primitives.
//!
//! Because exactly one simulation process runs at a time, shared state needs
//! no real locking for correctness (the `Mutex`es below are always
//! uncontended); these primitives exist to *block and wake processes on the
//! virtual clock*, optionally charging a wake-up latency — which is how the
//! paper's "thread synchronization cost is expensive in Linux, sometimes up
//! to tens of microseconds" is modeled.
//!
//! # Discipline
//!
//! As with real condition variables: **mutate shared state first, then
//! notify; waiters must re-check their predicate in a loop.**
//!
//! A daemon blocks between jobs in an *idle wait* ([`SimQueue::pop_idle`],
//! [`SimCondvar::wait_idle`]): at teardown it returns [`Shutdown`], for the
//! daemon's loop to end on, where any other wait unwinds the process.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::sched::{unwind, ProcId, Shutdown, SimCtx, SimHandle, WakeReason};
use crate::time::SimDuration;

/// A condition variable on the virtual clock.
pub struct SimCondvar {
    handle: SimHandle,
    waiters: Mutex<VecDeque<(ProcId, u64)>>,
}

impl SimCondvar {
    /// Create a condvar bound to a simulation.
    pub fn new(handle: &SimHandle) -> SimCondvar {
        SimCondvar {
            handle: handle.clone(),
            waiters: Mutex::new(VecDeque::new()),
        }
    }

    /// Block the calling process until notified.
    pub fn wait(&self, ctx: &SimCtx) {
        self.wait_idle(ctx).unwrap_or_else(|Shutdown| unwind())
    }

    /// [`SimCondvar::wait`] as an idle wait (see the module docs):
    /// `Err(Shutdown)` when the simulation is torn down.
    pub fn wait_idle(&self, ctx: &SimCtx) -> Result<(), Shutdown> {
        let token = self.handle.park_token(ctx);
        self.waiters.lock().push_back(token);
        let r = ctx.park_idle()?;
        debug_assert_eq!(r, WakeReason::Notify);
        Ok(())
    }

    /// Wake one waiter after `delay` of virtual time — the modeled cost of a
    /// cross-thread signal (context switch + scheduler latency).
    pub fn notify_one_after(&self, delay: SimDuration) {
        let mut w = self.waiters.lock();
        while let Some(token) = w.pop_front() {
            if self.handle.token_is_current(token) {
                self.handle
                    .schedule_wake(token.0, token.1, delay, WakeReason::Notify);
                if !delay.is_zero() {
                    self.handle.trace_thread_wake(token.0, delay);
                }
                return;
            }
        }
    }

    /// Wake all waiters immediately.
    pub fn notify_all(&self) {
        self.notify_all_after(SimDuration::ZERO);
    }

    /// Wake all waiters after `delay` of virtual time.
    pub fn notify_all_after(&self, delay: SimDuration) {
        let mut w = self.waiters.lock();
        for token in w.drain(..) {
            if self.handle.token_is_current(token) {
                self.handle
                    .schedule_wake(token.0, token.1, delay, WakeReason::Notify);
                if !delay.is_zero() {
                    self.handle.trace_thread_wake(token.0, delay);
                }
            }
        }
    }
}

/// An unbounded FIFO queue in virtual time (MPMC).
pub struct SimQueue<T> {
    items: Mutex<VecDeque<T>>,
    cv: SimCondvar,
}

impl<T> SimQueue<T> {
    /// Create an empty queue bound to a simulation.
    pub fn new(handle: &SimHandle) -> Arc<SimQueue<T>> {
        Arc::new(SimQueue {
            items: Mutex::new(VecDeque::new()),
            cv: SimCondvar::new(handle),
        })
    }

    /// Append an item and wake one blocked consumer at the current instant.
    pub fn push(&self, item: T) {
        self.push_wake_after(item, SimDuration::ZERO);
    }

    /// Append an item; a blocked consumer resumes after `wake_delay`.
    pub fn push_wake_after(&self, item: T, wake_delay: SimDuration) {
        self.items.lock().push_back(item);
        self.cv.notify_one_after(wake_delay);
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<T> {
        self.items.lock().pop_front()
    }

    /// Blocking pop.
    pub fn pop(&self, ctx: &SimCtx) -> T {
        self.pop_idle(ctx).unwrap_or_else(|Shutdown| unwind())
    }

    /// [`SimQueue::pop`] as an idle wait (see the module docs):
    /// `Err(Shutdown)` when the simulation is torn down, even with items
    /// still queued.
    pub fn pop_idle(&self, ctx: &SimCtx) -> Result<T, Shutdown> {
        loop {
            if let Some(item) = self.items.lock().pop_front() {
                return Ok(item);
            }
            self.cv.wait_idle(ctx)?;
        }
    }

    /// Current queue length.
    pub fn len(&self) -> usize {
        self.items.lock().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.lock().is_empty()
    }
}

/// A counting semaphore in virtual time.
pub struct SimSemaphore {
    permits: Mutex<u64>,
    cv: SimCondvar,
}

impl SimSemaphore {
    /// Create a semaphore with `initial` permits.
    pub fn new(handle: &SimHandle, initial: u64) -> Arc<SimSemaphore> {
        Arc::new(SimSemaphore {
            permits: Mutex::new(initial),
            cv: SimCondvar::new(handle),
        })
    }

    /// Take one permit, blocking until available.
    pub fn acquire(&self, ctx: &SimCtx) {
        loop {
            {
                let mut p = self.permits.lock();
                if *p > 0 {
                    *p -= 1;
                    return;
                }
            }
            self.cv.wait(ctx);
        }
    }

    /// Return one permit, waking the blocked acquirers.
    pub fn release(&self) {
        *self.permits.lock() += 1;
        // All waiters re-check; first-woken (deterministic order) win.
        self.cv.notify_all();
    }

    /// Current available permits.
    pub fn available(&self) -> u64 {
        *self.permits.lock()
    }
}

/// A one-shot latch: starts unset, can be set exactly once, waiters block
/// until it is set. Setting is idempotent.
pub struct SimFlag {
    set: Mutex<bool>,
    cv: SimCondvar,
}

impl SimFlag {
    /// Create an unset flag.
    pub fn new(handle: &SimHandle) -> Arc<SimFlag> {
        Arc::new(SimFlag {
            set: Mutex::new(false),
            cv: SimCondvar::new(handle),
        })
    }

    /// Set the flag and wake all waiters.
    pub fn set(&self) {
        *self.set.lock() = true;
        self.cv.notify_all();
    }

    /// Block until the flag is set (returns immediately if already set).
    pub fn wait(&self, ctx: &SimCtx) {
        loop {
            if *self.set.lock() {
                return;
            }
            self.cv.wait(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Simulation;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn queue_ping_pong() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let q_ab = SimQueue::<u64>::new(&h);
        let q_ba = SimQueue::<u64>::new(&h);
        let rounds = 10u64;

        {
            let (q_ab, q_ba) = (Arc::clone(&q_ab), Arc::clone(&q_ba));
            sim.spawn("a", move |ctx| {
                for i in 0..rounds {
                    q_ab.push(i);
                    let echo = q_ba.pop(ctx);
                    assert_eq!(echo, i);
                }
            });
        }
        {
            let (q_ab, q_ba) = (Arc::clone(&q_ab), Arc::clone(&q_ba));
            sim.spawn("b", move |ctx| {
                for _ in 0..rounds {
                    let v = q_ab.pop(ctx);
                    ctx.sleep(SimDuration::from_micros(1));
                    q_ba.push(v);
                }
            });
        }
        let end = sim.run().unwrap();
        assert_eq!(end.as_nanos(), rounds * 1_000);
    }

    #[test]
    fn queue_wake_delay_models_thread_sync_cost() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let q = SimQueue::<()>::new(&h);
        let woke_at = Arc::new(AtomicU64::new(0));

        {
            let q = Arc::clone(&q);
            let woke_at = Arc::clone(&woke_at);
            sim.spawn("consumer", move |ctx| {
                q.pop(ctx);
                woke_at.store(ctx.now().as_nanos(), Ordering::Relaxed);
            });
        }
        {
            let q = Arc::clone(&q);
            sim.spawn("producer", move |ctx| {
                ctx.sleep(SimDuration::from_micros(5));
                q.push_wake_after((), SimDuration::from_micros(15));
            });
        }
        sim.run().unwrap();
        assert_eq!(woke_at.load(Ordering::Relaxed), 20_000);
    }

    #[test]
    fn semaphore_limits_concurrency() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let sem = SimSemaphore::new(&h, 2);
        let in_flight = Arc::new(AtomicU64::new(0));
        let max_seen = Arc::new(AtomicU64::new(0));
        for i in 0..6 {
            let sem = Arc::clone(&sem);
            let in_flight = Arc::clone(&in_flight);
            let max_seen = Arc::clone(&max_seen);
            sim.spawn(format!("w{i}"), move |ctx| {
                sem.acquire(ctx);
                let n = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                max_seen.fetch_max(n, Ordering::Relaxed);
                ctx.sleep(SimDuration::from_micros(10));
                in_flight.fetch_sub(1, Ordering::Relaxed);
                sem.release();
            });
        }
        sim.run().unwrap();
        assert_eq!(max_seen.load(Ordering::Relaxed), 2);
        assert_eq!(sem.available(), 2);
    }

    #[test]
    fn flag_is_idempotent_and_latching() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let flag = SimFlag::new(&h);
        let done = Arc::new(AtomicU64::new(0));
        for i in 0..3 {
            let flag = Arc::clone(&flag);
            let done = Arc::clone(&done);
            sim.spawn(format!("waiter{i}"), move |ctx| {
                flag.wait(ctx);
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        {
            let flag = Arc::clone(&flag);
            sim.spawn("setter", move |ctx| {
                ctx.sleep(SimDuration::from_micros(7));
                flag.set();
                flag.set(); // idempotent
            });
        }
        sim.run().unwrap();
        assert_eq!(done.load(Ordering::Relaxed), 3);
    }
}
