//! Seeded, virtual-time fault injection for the simulated substrate.
//!
//! A [`FaultPlan`] describes *what can go wrong* on one direction of a
//! wire (or inside a NIC): per-frame drop/duplicate/reorder
//! probabilities plus scripted one-shot events ("drop frame #N",
//! "disconnect the peer at t=X", "complete the next descriptor in
//! error"). A [`FaultLane`] turns a plan into decisions, drawing every
//! random bit from [`dsim::rng::SimRng`] seeded by the plan — so a given
//! `(seed, plan)` pair produces the same fault schedule on every run at
//! any `--threads` count.
//!
//! **The empty plan is a strict no-op.** [`FaultLane::new`] returns
//! `None` for an empty plan, and every wrapper in this workspace treats
//! `None` as "take the exact fault-free code path": no RNG draw, no extra
//! event, no counter bump. The committed `results/*.txt` gate relies on
//! this invariant.
//!
//! Every fault that fires is counted in [`FaultStats`] so tests can
//! assert "exactly K faults injected, stream still intact".

use std::ops::{Add, AddAssign};
use std::sync::Arc;

use dsim::rng::SimRng;
use dsim::SimDuration;
use parking_lot::Mutex;

/// What to do with one frame, as decided by a [`FaultLane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Discard the frame silently: the wire ate it, or it arrived with a
    /// bad FCS and the receiving NIC discarded it.
    Drop,
    /// Deliver the frame twice.
    Duplicate,
    /// Hold the frame back by the lane's extra delay so that frames sent
    /// after it can arrive first.
    Reorder,
}

/// A scripted one-shot event inside a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptedFault {
    /// Apply `action` to the `frame`-th frame (0-based) crossing this
    /// lane, overriding the probabilistic draw for that frame.
    AtFrame {
        /// 0-based index of the victim frame.
        frame: u64,
        /// What to do to it.
        action: FaultAction,
    },
    /// Forcibly disconnect every connected VI on the faulted NIC at the
    /// given virtual time (ignored by plain frame lanes).
    DisconnectAt {
        /// Virtual time of the forced disconnect.
        at: SimDuration,
    },
    /// Complete the `nth` (0-based) receive descriptor the NIC would
    /// otherwise complete successfully in error instead (ignored by
    /// plain frame lanes).
    RxDescriptorError {
        /// 0-based index of the victim receive descriptor.
        nth: u64,
    },
    /// Complete the `nth` (0-based) send descriptor in error instead of
    /// transmitting it (ignored by plain frame lanes).
    TxDescriptorError {
        /// 0-based index of the victim send descriptor.
        nth: u64,
    },
}

/// A declarative description of the faults to inject on one lane.
///
/// All probabilities are per-frame in `[0, 1]` and mutually exclusive:
/// one uniform draw per frame is matched against the cumulative bands in
/// the fixed order drop → duplicate → reorder.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the lane's private RNG stream.
    pub seed: u64,
    /// Per-frame probability of a silent drop.
    pub drop_p: f64,
    /// Per-frame probability of duplicate delivery.
    pub duplicate_p: f64,
    /// Per-frame probability of reordering (held back `delay_extra`).
    pub reorder_p: f64,
    /// Extra latency applied by `Reorder`.
    pub delay_extra: SimDuration,
    /// Scripted one-shot events.
    pub scripted: Vec<ScriptedFault>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_p: 0.0,
            duplicate_p: 0.0,
            reorder_p: 0.0,
            delay_extra: SimDuration::ZERO,
            scripted: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// The empty plan: injects nothing, and every wrapper treats it as
    /// "use the fault-free code path unchanged".
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// True if this plan can never fire a fault.
    pub fn is_empty(&self) -> bool {
        self.drop_p == 0.0
            && self.duplicate_p == 0.0
            && self.reorder_p == 0.0
            && self.scripted.is_empty()
    }

    /// A plan that drops each frame with probability `p`.
    pub fn drops(seed: u64, p: f64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_p: p,
            ..FaultPlan::default()
        }
    }

    /// Builder: set the drop probability.
    pub fn with_drop(mut self, p: f64) -> FaultPlan {
        self.drop_p = p;
        self
    }

    /// Builder: set the duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> FaultPlan {
        self.duplicate_p = p;
        self
    }

    /// Builder: set the reorder probability and its hold-back delay.
    pub fn with_reorder(mut self, p: f64, extra: SimDuration) -> FaultPlan {
        self.reorder_p = p;
        self.delay_extra = extra;
        self
    }

    /// Builder: append a scripted one-shot event.
    pub fn with_scripted(mut self, ev: ScriptedFault) -> FaultPlan {
        self.scripted.push(ev);
        self
    }

    /// Sum of the probabilistic bands (sanity-checked by [`FaultLane`]).
    fn total_p(&self) -> f64 {
        self.drop_p + self.duplicate_p + self.reorder_p
    }
}

/// Counters for every fault fired on a lane (or NIC). `SchedStats`-style:
/// `Copy`, comparable, and summable across lanes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames that crossed the lane (faulted or not).
    pub frames: u64,
    /// Frames silently dropped.
    pub dropped: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames held back past later frames.
    pub reordered: u64,
    /// Scripted one-shot events that fired (frame-level and NIC-level).
    pub scripted_fired: u64,
    /// Descriptors forced to complete in error.
    pub descriptor_errors: u64,
    /// VIs forcibly disconnected by a scripted event.
    pub forced_disconnects: u64,
}

impl FaultStats {
    /// Total faults injected (everything except the `frames` odometer).
    pub fn injected(&self) -> u64 {
        self.dropped
            + self.duplicated
            + self.reordered
            + self.descriptor_errors
            + self.forced_disconnects
    }
}

impl Add for FaultStats {
    type Output = FaultStats;
    fn add(self, rhs: FaultStats) -> FaultStats {
        FaultStats {
            frames: self.frames + rhs.frames,
            dropped: self.dropped + rhs.dropped,
            duplicated: self.duplicated + rhs.duplicated,
            reordered: self.reordered + rhs.reordered,
            scripted_fired: self.scripted_fired + rhs.scripted_fired,
            descriptor_errors: self.descriptor_errors + rhs.descriptor_errors,
            forced_disconnects: self.forced_disconnects + rhs.forced_disconnects,
        }
    }
}

impl AddAssign for FaultStats {
    fn add_assign(&mut self, rhs: FaultStats) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for FaultStats {
    fn sum<I: Iterator<Item = FaultStats>>(iter: I) -> FaultStats {
        iter.fold(FaultStats::default(), Add::add)
    }
}

struct LaneState {
    rng: SimRng,
    frame: u64,
}

/// The live decision engine for one direction of a wire.
///
/// All mutable state (RNG stream, frame counter, stats) lives behind a
/// mutex so the lane is shared freely between the transmitting daemon and
/// observers; decisions are made in frame-transmit order, which the
/// executor already serializes deterministically.
pub struct FaultLane {
    plan: FaultPlan,
    state: Mutex<LaneState>,
    stats: Arc<Mutex<FaultStats>>,
}

impl FaultLane {
    /// Build a lane for `plan`; `None` if the plan is empty (the caller
    /// must then use the unwrapped fault-free path).
    pub fn new(plan: &FaultPlan) -> Option<Arc<FaultLane>> {
        if plan.is_empty() {
            return None;
        }
        assert!(
            plan.total_p() <= 1.0 + 1e-12,
            "fault probabilities must sum to at most 1"
        );
        Some(Arc::new(FaultLane {
            plan: plan.clone(),
            state: Mutex::new(LaneState {
                rng: SimRng::seed_from(plan.seed),
                frame: 0,
            }),
            stats: Arc::new(Mutex::new(FaultStats::default())),
        }))
    }

    /// Decide the fate of the next frame. `None` = deliver normally.
    ///
    /// Exactly one uniform draw is consumed per frame with no scripted
    /// override, zero for overridden frames — the draw sequence (and so
    /// the schedule) depends only on `(seed, plan)` and the frame order.
    pub fn next_frame(&self) -> Option<FaultAction> {
        let mut st = self.state.lock();
        let idx = st.frame;
        st.frame += 1;
        // A scripted per-frame event overrides the probabilistic draw.
        let scripted = self.plan.scripted.iter().find_map(|ev| match ev {
            ScriptedFault::AtFrame { frame, action } if *frame == idx => Some(*action),
            _ => None,
        });
        let action = if let Some(a) = scripted {
            self.stats.lock().scripted_fired += 1;
            Some(a)
        } else {
            let u = st.rng.unit_f64();
            let p = &self.plan;
            let mut edge = p.drop_p;
            if u < edge {
                Some(FaultAction::Drop)
            } else if u < {
                edge += p.duplicate_p;
                edge
            } {
                Some(FaultAction::Duplicate)
            } else if u < {
                edge += p.reorder_p;
                edge
            } {
                Some(FaultAction::Reorder)
            } else {
                None
            }
        };
        drop(st);
        let mut stats = self.stats.lock();
        stats.frames += 1;
        match action {
            Some(FaultAction::Drop) => stats.dropped += 1,
            Some(FaultAction::Duplicate) => stats.duplicated += 1,
            Some(FaultAction::Reorder) => stats.reordered += 1,
            None => {}
        }
        action
    }

    /// Extra latency applied by `Reorder` decisions.
    pub fn delay_extra(&self) -> SimDuration {
        self.plan.delay_extra
    }

    /// The plan this lane executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// A cloneable observer handle onto this lane's counters.
    pub fn handle(&self) -> FaultHandle {
        FaultHandle {
            stats: Some(Arc::clone(&self.stats)),
        }
    }

    /// Record a scripted NIC-level event (descriptor error, disconnect)
    /// against this lane's counters.
    pub fn count_scripted(&self, f: impl FnOnce(&mut FaultStats)) {
        let mut stats = self.stats.lock();
        stats.scripted_fired += 1;
        f(&mut stats);
    }
}

/// Observer handle for a fault lane's counters; `disabled()` for the
/// empty-plan case so callers get a uniform return type.
#[derive(Clone)]
pub struct FaultHandle {
    stats: Option<Arc<Mutex<FaultStats>>>,
}

impl FaultHandle {
    /// A handle with no lane behind it — all stats stay zero.
    pub fn disabled() -> FaultHandle {
        FaultHandle { stats: None }
    }

    /// True if a live lane is attached (the plan was non-empty).
    pub fn is_active(&self) -> bool {
        self.stats.is_some()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> FaultStats {
        match &self.stats {
            Some(s) => *s.lock(),
            None => FaultStats::default(),
        }
    }
}

impl std::fmt::Debug for FaultHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultHandle")
            .field("active", &self.is_active())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_yields_no_lane() {
        assert!(FaultLane::new(&FaultPlan::empty()).is_none());
        assert!(FaultPlan::default().is_empty());
        let handle = FaultHandle::disabled();
        assert!(!handle.is_active());
        assert_eq!(handle.stats(), FaultStats::default());
    }

    #[test]
    fn schedule_is_reproducible_for_fixed_seed() {
        let plan = FaultPlan::drops(42, 0.3).with_duplicate(0.2);
        let decide = || {
            let lane = FaultLane::new(&plan).unwrap();
            (0..200).map(|_| lane.next_frame()).collect::<Vec<_>>()
        };
        let a = decide();
        let b = decide();
        assert_eq!(a, b, "same (seed, plan) must give the same schedule");
        assert!(a.contains(&Some(FaultAction::Drop)));
        assert!(a.contains(&Some(FaultAction::Duplicate)));
        assert!(a.iter().any(|d| d.is_none()));
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let mk = |seed| {
            let lane = FaultLane::new(&FaultPlan::drops(seed, 0.5)).unwrap();
            (0..64).map(|_| lane.next_frame()).collect::<Vec<_>>()
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn stats_count_every_decision() {
        let plan = FaultPlan::drops(7, 0.25).with_reorder(0.25, SimDuration::from_micros(50));
        let lane = FaultLane::new(&plan).unwrap();
        let mut dropped = 0;
        let mut reordered = 0;
        for _ in 0..400 {
            match lane.next_frame() {
                Some(FaultAction::Drop) => dropped += 1,
                Some(FaultAction::Reorder) => reordered += 1,
                _ => {}
            }
        }
        let stats = lane.handle().stats();
        assert_eq!(stats.frames, 400);
        assert_eq!(stats.dropped, dropped);
        assert_eq!(stats.reordered, reordered);
        assert!(dropped > 0 && reordered > 0);
        assert_eq!(stats.injected(), dropped + reordered);
    }

    #[test]
    fn scripted_frame_overrides_draw_without_consuming_randomness() {
        let base = FaultPlan::drops(11, 0.5);
        let scripted = base.clone().with_scripted(ScriptedFault::AtFrame {
            frame: 0,
            action: FaultAction::Drop,
        });
        let base_lane = FaultLane::new(&base).unwrap();
        let s_lane = FaultLane::new(&scripted).unwrap();
        // Frame 0 is forced on the scripted lane (no draw), so its frame-1
        // draw equals the base lane's frame-0 draw.
        let base0 = base_lane.next_frame();
        assert_eq!(s_lane.next_frame(), Some(FaultAction::Drop));
        assert_eq!(s_lane.next_frame(), base0);
        assert_eq!(s_lane.handle().stats().scripted_fired, 1);
    }

    #[test]
    fn stats_sum_across_lanes() {
        let a = FaultStats {
            frames: 10,
            dropped: 2,
            ..FaultStats::default()
        };
        let b = FaultStats {
            frames: 5,
            duplicated: 1,
            ..FaultStats::default()
        };
        let sum: FaultStats = [a, b].into_iter().sum();
        assert_eq!(sum.frames, 15);
        assert_eq!(sum.dropped, 2);
        assert_eq!(sum.duplicated, 1);
        assert_eq!(sum.injected(), 3);
    }

    #[test]
    #[should_panic(expected = "at most 1")]
    fn overfull_probabilities_rejected() {
        let plan = FaultPlan::drops(0, 0.7).with_duplicate(0.7);
        FaultLane::new(&plan);
    }
}
