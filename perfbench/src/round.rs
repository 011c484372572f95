//! One round: every simulation of a workload once, in an order the seed
//! picks, and for the per-layer run once more with tracing on. A round
//! runs in a process of its own, because the simulator does not free a
//! finished simulation's machines; a fresh process per round keeps memory
//! bounded and the rounds independent.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use sovia_repro::dsim::{TraceClass, TraceConfig, TraceData, TraceKind, TraceLayer};

use crate::sys;
use crate::workloads::{self, Call, Mode, Outcome, Shape, Spec};

/// Trace ring slots per scheduler event of the same simulation. The
/// most any simulation records is 2.0 (SOVIA_COMBINE streams); the ring
/// is preallocated, so headroom costs memory. A traced simulation that
/// still drops events fails.
const TRACE_SLOTS_PER_EVENT: f64 = 2.5;

/// Spec id → (simulated result, events processed).
pub type Results = BTreeMap<String, (f64, u64)>;

/// Parse an expected-results table: `<spec id> <result> <events>` lines,
/// `#` comments.
pub fn parse_results(text: &str) -> Results {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let id = f.next()?.to_owned();
            let result = f.next()?.parse().ok()?;
            let events = f.next()?.parse().ok()?;
            Some((id, (result, events)))
        })
        .collect()
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// An exact count, which must repeat in every round, run and seed,
    /// rather than a host measurement.
    pub exact: bool,
}

fn measured(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        exact: false,
    }
}

fn exact(name: &'static str, value: u64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: value as f64,
        unit,
        exact: true,
    }
}

/// Per-layer counts read from the simulations' scheduler counters,
/// process tables and traces.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    events: u64,
    direct_handoffs: u64,
    self_wakes: u64,
    coordinator_wakes: u64,
    procs: u64,
    via_nic_spans: u64,
    via_descriptors_posted: u64,
    via_nic_wakeups: u64,
    link_spans: u64,
    eth_spans: u64,
    tcpip_spans: u64,
    tcpip_bytes_copied: u64,
    tcpip_acks_delayed: u64,
    tcpip_retransmits: u64,
    tcpip_daemon_wakeups: u64,
    core_spans: u64,
    core_bytes_copied: u64,
    core_bytes_zero_copy: u64,
    core_combined_sends: u64,
    core_acks_delayed: u64,
    core_conn_wakeups: u64,
    trace_dropped: u64,
}

impl Counts {
    fn add(&mut self, o: &Outcome) {
        self.events += o.sched.events_processed;
        self.direct_handoffs += o.sched.direct_handoffs;
        self.self_wakes += o.sched.self_wakes;
        self.coordinator_wakes += o.sched.coordinator_wakes;
        self.procs += o.procs.len() as u64;
        for p in &o.procs {
            let n = p.name.as_str();
            if n.starts_with("vianic-") {
                self.via_nic_wakeups += p.wakeups;
            } else if n.starts_with("tcp-tx-") || n.starts_with("lane-rx-") {
                self.tcpip_daemon_wakeups += p.wakeups;
            } else if n.starts_with("sovia-conn-") {
                self.core_conn_wakeups += p.wakeups;
            }
        }
        if let Some(t) = &o.trace {
            self.add_trace(t);
        }
    }

    fn add_trace(&mut self, t: &TraceData) {
        self.trace_dropped += t.dropped;
        // NIC-layer spans come from both NIC models; the Ethernet ones are
        // emitted by its `ethtx-*` / `ethrx-*` engine processes.
        let eth_pids: Vec<u64> = t
            .names
            .iter()
            .filter(|(_, n)| n.starts_with("eth"))
            .map(|(pid, _)| *pid)
            .collect();
        for e in &t.events {
            let v = e.tag.value;
            if e.kind.class() == TraceClass::Span {
                match e.layer {
                    TraceLayer::Nic if eth_pids.contains(&e.pid) => self.eth_spans += 1,
                    TraceLayer::Nic => self.via_nic_spans += 1,
                    TraceLayer::Link => self.link_spans += 1,
                    TraceLayer::Kernel => self.tcpip_spans += 1,
                    TraceLayer::Sovia => self.core_spans += 1,
                    _ => {}
                }
                continue;
            }
            match (e.layer, e.kind) {
                (TraceLayer::Via, TraceKind::DescriptorsPosted) => self.via_descriptors_posted += v,
                (TraceLayer::Kernel, TraceKind::BytesCopied) => self.tcpip_bytes_copied += v,
                (TraceLayer::Kernel, TraceKind::AcksDelayed) => self.tcpip_acks_delayed += v,
                (TraceLayer::Kernel, TraceKind::Retransmits) => self.tcpip_retransmits += v,
                (TraceLayer::Sovia, TraceKind::BytesCopied) => self.core_bytes_copied += v,
                (TraceLayer::Sovia, TraceKind::BytesZeroCopy) => self.core_bytes_zero_copy += v,
                (TraceLayer::Sovia, TraceKind::CombinedSends) => self.core_combined_sends += v,
                (TraceLayer::Sovia, TraceKind::AcksDelayed) => self.core_acks_delayed += v,
                _ => {}
            }
        }
    }
}

/// One pass over a round's simulations.
#[derive(Default)]
pub struct Pass {
    wall: Duration,
    /// Inside `workloads::run`: the simulations without the benchmark's
    /// result checks and trace scans.
    simulating: Duration,
    /// The part of `simulating` spent checking delivered payloads.
    payload_check: Duration,
    setup: Duration,
    run: Duration,
    teardown: Duration,
    usage: sys::Usage,
    counts: Counts,
    pub attempted: u64,
    pub failed: u64,
    pub results: Results,
    /// Host ns per timed operation.
    ops: Vec<u64>,
    /// Host ns per round trip of each 4-byte ping-pong, by transport.
    rt_by_net: BTreeMap<&'static str, Vec<u64>>,
    /// Host ns per timed call, by [`Call`].
    calls: [Vec<u64>; workloads::CALLS],
    testbed: Vec<u64>,
}

impl Pass {
    /// Run every simulation of `order` once. `untraced` holds the results
    /// of the untraced pass of the same round when this is the traced one.
    pub fn run(
        order: &[(Spec, u64)],
        time_calls: bool,
        untraced: Option<&Results>,
        expected: &Results,
    ) -> Pass {
        let mut pass = Pass::default();
        let u0 = sys::usage();
        let t0 = Instant::now();
        for &(spec, tag) in order {
            let id = spec.id();
            let trace = untraced.map(|u| {
                let events = u.get(&id).map_or(0, |r| r.1);
                TraceConfig {
                    capacity: ((events as f64 * TRACE_SLOTS_PER_EVENT) as usize).max(1 << 12),
                }
            });
            let mode = Mode {
                trace,
                time_calls,
                tag,
            };
            pass.attempted += 1;
            let t = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| workloads::run(&spec, mode)))
                .unwrap_or_else(|p| Err(panic_message(p.as_ref())));
            pass.simulating += t.elapsed();
            let problem = match &outcome {
                Err(e) => Some(e.clone()),
                Ok(o) => check(&id, o, expected, untraced),
            };
            if let Some(p) = problem {
                eprintln!("perfbench: FAILED {id}: {p}");
                pass.failed += 1;
            }
            if let Ok(o) = outcome {
                pass.add(&spec, id, o);
            }
        }
        pass.wall = t0.elapsed();
        pass.usage = sys::usage().since(&u0);
        pass
    }

    fn add(&mut self, spec: &Spec, id: String, o: Outcome) {
        self.setup += o.setup;
        self.run += o.run;
        self.teardown += o.teardown;
        self.payload_check += Duration::from_nanos(o.probe.check_ns);
        self.counts.add(&o);
        self.results
            .insert(id, (o.result, o.sched.events_processed));
        self.testbed.push(o.testbed.as_nanos() as u64);
        if spec.shape == Shape::PingPong && spec.size == 4 {
            self.rt_by_net
                .entry(spec.net.label())
                .or_default()
                .extend(&o.probe.op_ns);
        }
        for (all, these) in self.calls.iter_mut().zip(&o.probe.calls) {
            all.extend_from_slice(these);
        }
        self.ops.extend_from_slice(&o.probe.op_ns);
    }

    /// Host ns of every timed operation.
    pub fn op_samples(&self) -> &[u64] {
        &self.ops
    }

    /// End-to-end metrics of this round, except the operation quantiles,
    /// which the parent takes over the operations of all rounds.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let timed: u64 = self.ops.iter().sum();
        vec![
            measured("wall_s", self.wall.as_secs_f64(), "s"),
            measured("setup_s", self.setup.as_secs_f64(), "s"),
            measured(
                "ops_per_s",
                self.ops.len() as f64 / (timed as f64 / 1e9),
                "1/s",
            ),
            measured(
                "cpu_s",
                (self.usage.user + self.usage.sys).as_secs_f64(),
                "s",
            ),
            measured("peak_rss_mb", self.usage.max_rss_kib as f64 / 1024.0, "MB"),
        ]
    }

    /// Per-layer metrics: host times from this (untraced, call-timed)
    /// pass, trace-derived counts from `traced`. Both passes time the same
    /// calls, so `trace.overhead_pct` differs only by tracing once the
    /// traced pass's payload checks are taken out.
    pub fn per_layer(&self, traced: &Pass) -> Vec<Metric> {
        let traced_simulating = traced.simulating.saturating_sub(traced.payload_check);
        let c = &self.counts;
        let t = &traced.counts;
        let u = &self.usage;
        let events = c.events.max(1) as f64;
        let p50 = |call: Call| quantile_us(&self.calls[call as usize], 0.5);
        let rt = |net: &str| self.rt_by_net.get(net).map_or(0.0, |v| quantile_us(v, 0.5));
        let over_native = |net: &str| match (rt(net), rt("NATIVE_VIA")) {
            (a, b) if a > 0.0 && b > 0.0 => a - b,
            _ => 0.0,
        };
        let socket_calls: usize = [Call::Send, Call::Recv, Call::Connect, Call::Accept]
            .iter()
            .map(|&c| self.calls[c as usize].len())
            .sum();
        vec![
            exact("dsim.events", c.events, "count"),
            exact("dsim.direct_handoffs", c.direct_handoffs, "count"),
            exact("dsim.self_wakes", c.self_wakes, "count"),
            exact("dsim.coordinator_wakes", c.coordinator_wakes, "count"),
            exact("dsim.procs", c.procs, "count"),
            measured("dsim.run_s", self.run.as_secs_f64(), "s"),
            measured(
                "dsim.host_ns_per_event",
                self.run.as_nanos() as f64 / events,
                "ns",
            ),
            measured("dsim.teardown_s", self.teardown.as_secs_f64(), "s"),
            measured("os.user_s", u.user.as_secs_f64(), "s"),
            measured("os.sys_s", u.sys.as_secs_f64(), "s"),
            measured("os.vol_csw", u.vol_csw as f64, "count"),
            measured("os.invol_csw", u.invol_csw as f64, "count"),
            measured(
                "os.csw_per_event",
                (u.vol_csw + u.invol_csw) as f64 / events,
                "count/event",
            ),
            measured("alloc.count", u.allocs as f64, "count"),
            measured("alloc.bytes", u.alloc_bytes as f64, "B"),
            measured(
                "alloc.per_op",
                u.allocs as f64 / self.ops.len().max(1) as f64,
                "count/op",
            ),
            measured("testbed.build_us", quantile_us(&self.testbed, 0.5), "us"),
            exact("sockets.calls", socket_calls as u64, "count"),
            measured("sockets.send_us_p50", p50(Call::Send), "us"),
            measured("sockets.recv_us_p50", p50(Call::Recv), "us"),
            measured("sockets.connect_us_p50", p50(Call::Connect), "us"),
            measured("sockets.accept_us_p50", p50(Call::Accept), "us"),
            measured("via.post_send_us_p50", p50(Call::PostSend), "us"),
            measured("via.recv_wait_us_p50", p50(Call::RecvWait), "us"),
            measured("via.register_us_p50", p50(Call::Register), "us"),
            exact("via.nic_spans", t.via_nic_spans, "count"),
            exact("via.descriptors_posted", t.via_descriptors_posted, "count"),
            exact("via.nic_wakeups", c.via_nic_wakeups, "count"),
            exact("simnic.link_spans", t.link_spans, "count"),
            exact("simnic.eth_spans", t.eth_spans, "count"),
            exact("tcpip.spans", t.tcpip_spans, "count"),
            exact("tcpip.bytes_copied", t.tcpip_bytes_copied, "B"),
            exact("tcpip.acks_delayed", t.tcpip_acks_delayed, "count"),
            exact("tcpip.retransmits", t.tcpip_retransmits, "count"),
            exact("tcpip.daemon_wakeups", c.tcpip_daemon_wakeups, "count"),
            measured(
                "tcpip.rt_host_us_over_native",
                over_native("TCP_LANE"),
                "us",
            ),
            exact("core.spans", t.core_spans, "count"),
            exact("core.bytes_copied", t.core_bytes_copied, "B"),
            exact("core.bytes_zero_copy", t.core_bytes_zero_copy, "B"),
            exact("core.combined_sends", t.core_combined_sends, "count"),
            exact("core.acks_delayed", t.core_acks_delayed, "count"),
            exact("core.conn_wakeups", c.core_conn_wakeups, "count"),
            measured(
                "core.rt_host_us_over_native",
                over_native("SOVIA_SINGLE"),
                "us",
            ),
            measured("apps.call_us_p50", p50(Call::Rpc), "us"),
            measured("apps.client_create_us", p50(Call::ClientCreate), "us"),
            exact("trace.dropped", t.trace_dropped, "count"),
            measured(
                "trace.overhead_pct",
                (traced_simulating.as_secs_f64() / self.simulating.as_secs_f64() - 1.0) * 100.0,
                "%",
            ),
        ]
    }
}

/// Why a finished simulation counts as failed, if it does.
fn check(id: &str, o: &Outcome, expected: &Results, untraced: Option<&Results>) -> Option<String> {
    let got = (o.result, o.sched.events_processed);
    let same = |a: (f64, u64), b: (f64, u64)| a.0.to_bits() == b.0.to_bits() && a.1 == b.1;
    let Some(&want) = expected.get(id) else {
        return Some("no expected result recorded".into());
    };
    if !same(got, want) {
        return Some(format!("(result, events) {got:?} != expected {want:?}"));
    }
    if let Some(&plain) = untraced.and_then(|u| u.get(id)) {
        if !same(got, plain) {
            return Some(format!(
                "traced (result, events) {got:?} != untraced {plain:?}"
            ));
        }
    }
    if o.probe.bad_payloads > 0 {
        return Some(format!(
            "{} delivered payloads corrupted",
            o.probe.bad_payloads
        ));
    }
    match &o.trace {
        Some(t) if t.dropped > 0 => Some(format!("trace ring dropped {} events", t.dropped)),
        _ => None,
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

/// Linear-interpolated `q`-quantile of `v` (0 for no samples).
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `q`-quantile of host-ns samples, in µs.
fn quantile_us(ns: &[u64], q: f64) -> f64 {
    let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    quantile(&mut v, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Net;

    #[test]
    fn wrong_expected_value_counts_as_a_failure() {
        // Two tiny-scale ping-pongs; only the first one's recorded event
        // count is wrong.
        let spec = |size| Spec {
            shape: Shape::PingPong,
            net: Net::NativeVia,
            size,
            ops: 32,
            batch: 1,
        };
        let order = [(spec(4), 1), (spec(4096), 2)];
        let mut expected = parse_results(include_str!("../expected.txt"));
        expected
            .get_mut(&spec(4).id())
            .expect("tiny NATIVE_VIA ping-pong recorded")
            .1 += 1;
        let pass = Pass::run(&order, false, None, &expected);
        assert_eq!((pass.attempted, pass.failed), (2, 1));
        assert_eq!(pass.results.len(), 2, "both simulations still ran");
    }
}
