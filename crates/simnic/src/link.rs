//! Point-to-point wire model.
//!
//! A [`Link`] is one *direction* of a cable: it delivers items into a
//! destination queue after a fixed propagation latency. Serialization time
//! (bytes × ns/byte) is charged by the *sending NIC engine* — the NIC is
//! busy while bits leave it — so the link itself only models propagation.

use std::sync::Arc;

use dsim::sync::SimQueue;
use dsim::{SimDuration, SimHandle};

use crate::faults::{FaultAction, FaultHandle, FaultLane, FaultPlan};

/// Wire parameters of one link direction.
#[derive(Debug, Clone, Copy)]
pub struct LinkParams {
    /// Propagation + fixed per-hop latency.
    pub latency: SimDuration,
    /// Serialization rate in ns per byte (charged by the sending NIC).
    pub ns_per_byte: f64,
}

impl LinkParams {
    /// Serialization time for a payload of `bytes`.
    pub fn serialize(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos_f64(self.ns_per_byte * bytes as f64)
    }
}

/// One direction of a cable, delivering `T` frames.
///
/// With a non-empty [`FaultPlan`] the link consults a [`FaultLane`]
/// before each delivery; with the empty plan (the default,
/// [`Link::new`]) `faults` is `None` and `transmit` takes the exact
/// fault-free path — no RNG draw, no extra scheduling.
pub struct Link<T> {
    sim: SimHandle,
    params: LinkParams,
    dest: Arc<SimQueue<T>>,
    faults: Option<Arc<FaultLane>>,
}

impl<T: Clone + Send + 'static> Link<T> {
    /// Create a link that feeds `dest`.
    pub fn new(sim: &SimHandle, params: LinkParams, dest: Arc<SimQueue<T>>) -> Link<T> {
        Link {
            sim: sim.clone(),
            params,
            dest,
            faults: None,
        }
    }

    /// Create a link with a fault plan. An empty plan yields a link
    /// identical to [`Link::new`] and a disabled handle.
    pub fn with_faults(
        sim: &SimHandle,
        params: LinkParams,
        dest: Arc<SimQueue<T>>,
        plan: &FaultPlan,
    ) -> (Link<T>, FaultHandle) {
        let faults = FaultLane::new(plan);
        let handle = faults
            .as_ref()
            .map(|l| l.handle())
            .unwrap_or_else(FaultHandle::disabled);
        (
            Link {
                sim: sim.clone(),
                params,
                dest,
                faults,
            },
            handle,
        )
    }

    /// Wire parameters.
    pub fn params(&self) -> LinkParams {
        self.params
    }

    /// Hand a fully serialized frame to the wire; it arrives at the far end
    /// after the propagation latency (unless the fault lane intervenes).
    pub fn transmit(&self, item: T) {
        self.trace_wire(self.params.latency);
        let Some(lane) = &self.faults else {
            self.deliver(item, self.params.latency);
            return;
        };
        let action = lane.next_frame();
        if let Some(act) = action {
            self.trace_fault(lane, act);
        }
        match action {
            None => self.deliver(item, self.params.latency),
            Some(FaultAction::Drop) => {}
            Some(FaultAction::Duplicate) => {
                self.deliver(item.clone(), self.params.latency);
                self.deliver(item, self.params.latency);
            }
            // Reorder pushes the frame `delay_extra` past its nominal
            // arrival, so it lands behind frames sent after it. Nothing is
            // held indefinitely, so a faulted link can never deadlock the
            // simulation.
            Some(FaultAction::Reorder) => {
                let after = SimDuration::from_nanos(
                    self.params.latency.as_nanos() + lane.delay_extra().as_nanos(),
                );
                self.deliver(item, after);
            }
        }
    }

    /// Wire-propagation span on the no-process track (pid = MAX): one
    /// frame crossing this link direction.
    fn trace_wire(&self, latency: SimDuration) {
        let tracer = self.sim.tracer();
        if tracer.is_enabled() {
            tracer.span_start(
                self.sim.now(),
                u64::MAX,
                dsim::TraceLayer::Link,
                dsim::TraceKind::Serialize,
                latency,
                dsim::TraceTag::default(),
            );
        }
    }

    /// Instant recording which frame on this lane a fault hit (the lane's
    /// odometer was just advanced by `next_frame`, so frames - 1 is the
    /// 0-based index of the judged frame).
    fn trace_fault(&self, lane: &FaultLane, act: FaultAction) {
        let tracer = self.sim.tracer();
        if tracer.is_enabled() {
            let frame_idx = lane.handle().stats().frames - 1;
            let kind = match act {
                FaultAction::Drop => dsim::TraceKind::FaultDrop,
                FaultAction::Duplicate => dsim::TraceKind::FaultDuplicate,
                FaultAction::Reorder => dsim::TraceKind::FaultReorder,
            };
            tracer.instant(
                self.sim.now(),
                u64::MAX,
                dsim::TraceLayer::Link,
                kind,
                dsim::TraceTag::default().msg(frame_idx),
            );
        }
    }

    /// Schedule `item` into the destination queue `after` from now.
    fn deliver(&self, item: T, after: SimDuration) {
        let dest = Arc::clone(&self.dest);
        // The item must cross the closure boundary; wrap in Option for the
        // FnOnce -> schedule.
        let mut slot = Some(item);
        self.sim.schedule_in(after, move |_| {
            if let Some(v) = slot.take() {
                dest.push(v);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsim::Simulation;
    use parking_lot::Mutex;

    #[test]
    fn delivers_after_latency_in_order() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let q = SimQueue::<u32>::new(&h);
        let link = Link::new(
            &h,
            LinkParams {
                latency: SimDuration::from_micros(4),
                ns_per_byte: 6.4,
            },
            Arc::clone(&q),
        );
        let got = Arc::new(Mutex::new(Vec::new()));
        {
            let got = Arc::clone(&got);
            sim.spawn("rx", move |ctx| {
                for _ in 0..3 {
                    let v = q.pop(ctx);
                    got.lock().push((v, ctx.now().as_nanos()));
                }
            });
        }
        sim.spawn("tx", move |ctx| {
            link.transmit(1);
            ctx.sleep(SimDuration::from_micros(1));
            link.transmit(2);
            link.transmit(3);
        });
        sim.run().unwrap();
        assert_eq!(
            got.lock().clone(),
            vec![(1, 4_000), (2, 5_000), (3, 5_000)]
        );
    }

    #[test]
    fn empty_plan_link_matches_plain_link() {
        let run = |faulty: bool| {
            let mut sim = Simulation::new();
            let h = sim.handle();
            let q = SimQueue::<u32>::new(&h);
            let params = LinkParams {
                latency: SimDuration::from_micros(4),
                ns_per_byte: 6.4,
            };
            let link = if faulty {
                let (l, handle) = Link::with_faults(&h, params, Arc::clone(&q), &FaultPlan::empty());
                assert!(!handle.is_active());
                l
            } else {
                Link::new(&h, params, Arc::clone(&q))
            };
            let got = Arc::new(Mutex::new(Vec::new()));
            {
                let got = Arc::clone(&got);
                sim.spawn("rx", move |ctx| {
                    for _ in 0..2 {
                        let v = q.pop(ctx);
                        got.lock().push((v, ctx.now().as_nanos()));
                    }
                });
            }
            sim.spawn("tx", move |_ctx| {
                link.transmit(1);
                link.transmit(2);
            });
            sim.run().unwrap();
            let out = got.lock().clone();
            (out, sim.sched_stats().events_processed)
        };
        assert_eq!(run(false), run(true), "empty plan must be a strict no-op");
    }

    #[test]
    fn scripted_drop_loses_exactly_that_frame() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let q = SimQueue::<u32>::new(&h);
        let plan = FaultPlan::empty().with_scripted(crate::faults::ScriptedFault::AtFrame {
            frame: 1,
            action: FaultAction::Drop,
        });
        let (link, handle) = Link::with_faults(
            &h,
            LinkParams {
                latency: SimDuration::from_micros(1),
                ns_per_byte: 0.0,
            },
            Arc::clone(&q),
            &plan,
        );
        let got = Arc::new(Mutex::new(Vec::new()));
        {
            let got = Arc::clone(&got);
            sim.spawn("rx", move |ctx| {
                for _ in 0..2 {
                    got.lock().push(q.pop(ctx));
                }
            });
        }
        sim.spawn("tx", move |_| {
            link.transmit(10);
            link.transmit(11); // scripted casualty
            link.transmit(12);
        });
        sim.run().unwrap();
        assert_eq!(got.lock().clone(), vec![10, 12]);
        let stats = handle.stats();
        assert_eq!(stats.frames, 3);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.scripted_fired, 1);
        assert_eq!(stats.injected(), 1);
    }

    #[test]
    fn duplicate_delivers_twice_and_reorder_overtakes() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let q = SimQueue::<u32>::new(&h);
        let plan = FaultPlan::empty()
            .with_scripted(crate::faults::ScriptedFault::AtFrame {
                frame: 0,
                action: FaultAction::Reorder,
            })
            .with_scripted(crate::faults::ScriptedFault::AtFrame {
                frame: 1,
                action: FaultAction::Duplicate,
            })
            .with_reorder(0.0, SimDuration::from_micros(10));
        let (link, handle) = Link::with_faults(
            &h,
            LinkParams {
                latency: SimDuration::from_micros(1),
                ns_per_byte: 0.0,
            },
            Arc::clone(&q),
            &plan,
        );
        let got = Arc::new(Mutex::new(Vec::new()));
        {
            let got = Arc::clone(&got);
            sim.spawn("rx", move |ctx| {
                for _ in 0..4 {
                    got.lock().push(q.pop(ctx));
                }
            });
        }
        sim.spawn("tx", move |_| {
            link.transmit(1); // reordered: arrives at 11 µs
            link.transmit(2); // duplicated: arrives twice at 1 µs
            link.transmit(3); // normal: arrives at 1 µs
        });
        sim.run().unwrap();
        assert_eq!(got.lock().clone(), vec![2, 2, 3, 1]);
        let stats = handle.stats();
        assert_eq!(stats.duplicated, 1);
        assert_eq!(stats.reordered, 1);
    }

    #[test]
    fn serialization_time() {
        let p = LinkParams {
            latency: SimDuration::ZERO,
            ns_per_byte: 6.4,
        };
        assert_eq!(p.serialize(1000).as_nanos(), 6_400);
        assert_eq!(p.serialize(0).as_nanos(), 0);
    }
}
