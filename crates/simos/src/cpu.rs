//! The kernel-CPU account: serializes kernel-side processing per machine.
//!
//! The testbed machines have a single Pentium III: interrupt handlers,
//! protocol processing, and the application all compete for it. User-level
//! protocols (SOVIA) run on the application thread and are inherently
//! serialized; *kernel* protocol work (TCP/IP, the LANE driver) runs on
//! separate simulation threads for modularity, so without this account it
//! would execute "in parallel" with the application — free CPU the real
//! hardware never had. Charging kernel work through [`KernelCpu`] restores
//! the serialization (this is what makes FTP-over-TCP land near the
//! paper's ~260 Mb/s instead of the raw socket peak).
//!
//! The account is a virtual-time mutex: `charge` (or the untraced `sleep`)
//! waits for the CPU, holds it for the charged duration, and releases.
//! Holders never block on anything else, so it cannot deadlock.

use std::sync::Arc;

use dsim::sync::SimSemaphore;
use dsim::{SimCtx, SimDuration, TraceKind, TraceLayer, TraceTag};

use crate::machine::Machine;

/// A machine's kernel CPU.
pub struct KernelCpu {
    sem: Arc<SimSemaphore>,
}

impl KernelCpu {
    /// Fetch (or create) the kernel CPU of a machine.
    pub fn of(machine: &Machine) -> Arc<KernelCpu> {
        let sim = machine.sim().clone();
        machine.ext().get_or_init(move || {
            Arc::new(KernelCpu {
                sem: SimSemaphore::new(&sim, 1),
            })
        })
    }

    /// Occupy the CPU for `d` of kernel work (queueing behind any other
    /// kernel work in progress) and record it: the [`SimCtx::charge`] of
    /// this account. The span covers the held interval, not the wait in
    /// the queue, and a zero `d` records a zero-width span.
    pub fn charge(
        &self,
        ctx: &SimCtx,
        layer: TraceLayer,
        kind: TraceKind,
        d: SimDuration,
        tag: TraceTag,
    ) {
        self.hold(ctx, d, || ctx.charge(layer, kind, d, tag));
    }

    /// [`KernelCpu::charge`] untraced: the [`SimCtx::sleep`] of this account.
    pub fn sleep(&self, ctx: &SimCtx, d: SimDuration) {
        self.hold(ctx, d, || ctx.sleep(d));
    }

    /// Run `charge` (which advances time by `d`) holding the CPU; a zero
    /// `d` neither waits for it nor holds it.
    fn hold(&self, ctx: &SimCtx, d: SimDuration, charge: impl FnOnce()) {
        if d.is_zero() {
            charge();
        } else {
            self.sem.acquire(ctx);
            charge();
            self.sem.release();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HostCosts, HostId};
    use dsim::Simulation;
    use parking_lot::Mutex;

    #[test]
    fn kernel_work_serializes() {
        let mut sim = Simulation::new();
        let m = Machine::new(&sim.handle(), HostId(0), "m", HostCosts::free());
        let cpu = KernelCpu::of(&m);
        let ends = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let cpu = Arc::clone(&cpu);
            let ends = Arc::clone(&ends);
            sim.spawn(format!("w{i}"), move |ctx| {
                cpu.sleep(ctx, SimDuration::from_micros(10));
                ends.lock().push(ctx.now().as_nanos());
            });
        }
        sim.run().unwrap();
        let mut ends = ends.lock().clone();
        ends.sort_unstable();
        // Three 10us charges from t=0 must finish at 10, 20, 30us.
        assert_eq!(ends, vec![10_000, 20_000, 30_000]);
    }

    #[test]
    fn zero_charge_is_free_and_nonblocking() {
        let mut sim = Simulation::new();
        let m = Machine::new(&sim.handle(), HostId(0), "m", HostCosts::free());
        let cpu = KernelCpu::of(&m);
        sim.spawn("w", move |ctx| {
            cpu.sleep(ctx, SimDuration::ZERO);
            assert_eq!(ctx.now().as_nanos(), 0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn charge_spans_cover_the_held_interval() {
        let mut sim = Simulation::with_trace(Some(dsim::TraceConfig::default()));
        let m = Machine::new(&sim.handle(), HostId(0), "m", HostCosts::free());
        let cpu = KernelCpu::of(&m);
        for i in 0..2 {
            let cpu = Arc::clone(&cpu);
            sim.spawn(format!("w{i}"), move |ctx| {
                let (kind, d) = (TraceKind::Driver, SimDuration::from_micros(10));
                cpu.charge(ctx, TraceLayer::Kernel, kind, d, TraceTag::bytes(i));
            });
        }
        sim.run().unwrap();
        let data = sim.take_trace().expect("tracing was enabled");
        let mut spans: Vec<_> = data
            .events
            .iter()
            .map(|e| (e.start_ns, e.start_ns + e.dur_ns, e.tag.value))
            .collect();
        spans.sort_unstable();
        // The second charge waits 10us in the queue; its span starts when
        // it takes the CPU.
        assert_eq!(spans, vec![(0, 10_000, 0), (10_000, 20_000, 1)]);
    }

    #[test]
    fn same_instance_per_machine() {
        let sim = Simulation::new();
        let m = Machine::new(&sim.handle(), HostId(0), "m", HostCosts::free());
        let a = KernelCpu::of(&m);
        let b = KernelCpu::of(&m);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
