//! Completion queues (`VipCQDone` / `VipCQWait`).

use std::collections::VecDeque;
use std::sync::Arc;

use dsim::sync::SimCondvar;
use dsim::{Shutdown, SimCtx, SimHandle};
use parking_lot::Mutex;
use simos::HostCosts;

/// Which work queue of a VI produced a completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WqKind {
    /// The send queue.
    Send,
    /// The receive queue.
    Recv,
}

/// How a caller waits for completions.
///
/// The cost model differs: a *polling* waiter pays one queue-head check per
/// wake-up (SOVIA's single-threaded mode), while a *blocking* waiter pays a
/// kernel reschedule (`context_switch`) to be woken — plus, in SOVIA's
/// handler-thread mode, the `thread_wake` cost of signalling the
/// application thread afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitMode {
    /// Busy-poll the completion (user-level check, cheap).
    Poll,
    /// Block in the kernel and be woken (expensive).
    Block,
}

/// One completion notice: VI id + which work queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CqEntry {
    /// Id of the VI whose descriptor completed.
    pub vi_id: u32,
    /// Send or receive side.
    pub kind: WqKind,
}

/// A completion queue coalescing notifications from many work queues.
pub struct CompletionQueue {
    entries: Mutex<VecDeque<CqEntry>>,
    cv: SimCondvar,
    on_push: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl CompletionQueue {
    /// `VipCreateCQ`.
    pub fn new(sim: &SimHandle) -> Arc<CompletionQueue> {
        Arc::new(CompletionQueue {
            entries: Mutex::new(VecDeque::new()),
            cv: SimCondvar::new(sim),
            on_push: Mutex::new(None),
        })
    }

    /// Install a hook that runs on every completion push — the "notify
    /// function" of the VIA spec (which the paper notes cLAN lacks; SOVIA
    /// uses it here only to wake its own progress waiters).
    pub fn set_notify(&self, f: impl Fn() + Send + Sync + 'static) {
        *self.on_push.lock() = Some(Box::new(f));
    }

    /// NIC side: record a completion and wake waiters.
    pub(crate) fn push(&self, entry: CqEntry) {
        self.entries.lock().push_back(entry);
        self.cv.notify_all();
        if let Some(f) = self.on_push.lock().as_ref() {
            f();
        }
    }

    /// `VipCQDone`: non-blocking poll. Charges one poll check.
    pub fn poll(&self, ctx: &SimCtx, costs: &HostCosts) -> Option<CqEntry> {
        ctx.sleep(costs.poll_check);
        self.entries.lock().pop_front()
    }

    /// `VipCQWait`: block until a completion is available. An idle wait
    /// (see `dsim::sync`): `Err(Shutdown)` at teardown.
    pub fn wait(
        &self,
        ctx: &SimCtx,
        costs: &HostCosts,
        mode: WaitMode,
    ) -> Result<CqEntry, Shutdown> {
        loop {
            if let Some(e) = self.entries.lock().pop_front() {
                return Ok(e);
            }
            self.cv.wait_idle(ctx)?;
            match mode {
                WaitMode::Poll => ctx.sleep(costs.poll_check),
                WaitMode::Block => ctx.sleep(costs.context_switch),
            }
        }
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether no completions are queued.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsim::{SimDuration, Simulation};

    #[test]
    fn poll_and_wait() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let cq = CompletionQueue::new(&h);
        let costs = HostCosts::pentium3_500();
        {
            let cq = Arc::clone(&cq);
            let costs = costs.clone();
            sim.spawn("consumer", move |ctx| {
                assert!(cq.poll(ctx, &costs).is_none());
                let e = cq.wait(ctx, &costs, WaitMode::Block).expect("a completion");
                assert_eq!(e.vi_id, 3);
                assert_eq!(e.kind, WqKind::Recv);
                // Waking from a blocking wait costs a context switch; the
                // entry was pushed at t = 10us.
                assert_eq!(
                    ctx.now().as_nanos(),
                    10_000 + costs.context_switch.as_nanos()
                );
            });
        }
        {
            let cq = Arc::clone(&cq);
            sim.spawn("producer", move |ctx| {
                ctx.sleep(SimDuration::from_micros(10));
                cq.push(CqEntry {
                    vi_id: 3,
                    kind: WqKind::Recv,
                });
            });
        }
        sim.run().unwrap();
    }

    #[test]
    fn fifo_order() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let cq = CompletionQueue::new(&h);
        for i in 0..4 {
            cq.push(CqEntry {
                vi_id: i,
                kind: WqKind::Send,
            });
        }
        let costs = HostCosts::free();
        sim.spawn("c", move |ctx| {
            for i in 0..4 {
                assert_eq!(cq.poll(ctx, &costs).unwrap().vi_id, i);
            }
            assert!(cq.is_empty());
        });
        sim.run().unwrap();
    }
}
