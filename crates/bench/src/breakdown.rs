//! Per-layer decomposition of the headline numbers, computed from
//! `dsim::trace` spans (the `latency_breakdown` binary, whose output is
//! the `results/latency_breakdown.txt` golden).
//!
//! Each variant (TCP over LANE, native VIA, SOVIA) is re-run once with
//! tracing enabled; the spans that fall inside the measurement window
//! (the `MarkStart`/`MarkEnd` instants around the timed loop) are then
//! attributed to components by a priority sweep:
//!
//! * every nanosecond of the window is attributed to **exactly one**
//!   component (overlapping spans go to the highest-priority one), and
//! * whatever no span covers lands in the residual *idle/wait* bucket,
//!
//! so the per-component times **sum exactly to the window** — i.e. to
//! the end-to-end latency/throughput numbers in `results/`. This is the
//! paper's Section 5 cost accounting made mechanical: SOVIA's point is
//! that the syscall + copy share of TCP time disappears at user level.

use dsim::{
    ProcStats, TraceClass, TraceConfig, TraceData, TraceEvent, TraceKind, TraceLayer,
};
use sovia::SoviaConfig;

use crate::micro::{self, Variant};
use crate::runner::RunOutput;

/// The attribution buckets, in priority order (overlap goes to the
/// earlier bucket). [`Component::Idle`] is the residual and always last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// Kernel entry/exit on the socket API path (TCP only, by design).
    Syscall,
    /// Memory copies: user↔kernel, bounce buffers, combine appends.
    Copy,
    /// In-kernel TCP/IP segment and ACK processing.
    KernelProto,
    /// Kernel driver work (LANE descriptor handling).
    Driver,
    /// Interrupt dispatch.
    Interrupt,
    /// SOVIA protocol work (descriptor setup, combine timer).
    SoviaProto,
    /// VIPL descriptor posting + doorbells.
    ViplPost,
    /// VIA memory registration.
    MemRegister,
    /// Context switches and cross-thread wake costs.
    SchedWake,
    /// Completion polling.
    Poll,
    /// NIC engine occupancy (descriptor fetch, DMA, store-and-forward).
    Nic,
    /// Wire time: serialization + propagation.
    Wire,
    /// Nothing charged: protocol waits, pipeline bubbles.
    Idle,
}

/// Every bucket, priority order (the sweep iterates this).
pub const COMPONENTS: [Component; 13] = [
    Component::Syscall,
    Component::Copy,
    Component::KernelProto,
    Component::Driver,
    Component::Interrupt,
    Component::SoviaProto,
    Component::ViplPost,
    Component::MemRegister,
    Component::SchedWake,
    Component::Poll,
    Component::Nic,
    Component::Wire,
    Component::Idle,
];

impl Component {
    /// Table row label.
    pub fn name(self) -> &'static str {
        match self {
            Component::Syscall => "syscall",
            Component::Copy => "memcpy",
            Component::KernelProto => "tcp/ip protocol",
            Component::Driver => "kernel driver",
            Component::Interrupt => "interrupt",
            Component::SoviaProto => "sovia protocol",
            Component::ViplPost => "vipl post+doorbell",
            Component::MemRegister => "mem register",
            Component::SchedWake => "ctx switch/wake",
            Component::Poll => "poll",
            Component::Nic => "nic engine",
            Component::Wire => "wire",
            Component::Idle => "idle/wait",
        }
    }
}

/// Map a span to its bucket (None = not attributed, e.g. App marks).
fn classify(e: &TraceEvent) -> Option<Component> {
    use TraceKind::*;
    use TraceLayer::*;
    Some(match (e.layer, e.kind) {
        (_, Syscall) => Component::Syscall,
        (_, Copy) => Component::Copy,
        (Kernel, TxSegment | RxSegment | AckTx | Timer) => Component::KernelProto,
        (Kernel, Driver | DescriptorPost) => Component::Driver,
        (_, Interrupt) => Component::Interrupt,
        (Sovia, DescriptorPost | Timer) => Component::SoviaProto,
        (Via, DescriptorPost) => Component::ViplPost,
        (_, MemRegister) => Component::MemRegister,
        (_, ContextSwitch | ThreadWake) => Component::SchedWake,
        (_, Poll) => Component::Poll,
        (Nic, TxDesc | RxDesc | Dma) => Component::Nic,
        (Link, Serialize) => Component::Wire,
        _ => return None,
    })
}

/// Merge possibly-overlapping `(start, end)` intervals into a sorted
/// disjoint set.
fn union(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some((_, le)) if s <= *le => *le = (*le).max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// `a \ b` for sorted disjoint interval sets.
fn subtract(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut bi = 0;
    for &(s, e) in a {
        let mut s = s;
        while s < e {
            while bi < b.len() && b[bi].1 <= s {
                bi += 1;
            }
            match b.get(bi) {
                Some(&(bs, be)) if bs < e => {
                    if s < bs {
                        out.push((s, bs));
                    }
                    s = be.max(s);
                }
                _ => {
                    out.push((s, e));
                    break;
                }
            }
        }
        // `bi` may have advanced past intervals the next `a` entry still
        // overlaps; rewind is unnecessary because both sets are sorted
        // and we only skipped intervals ending before `s <= next start`.
    }
    out
}

fn total(iv: &[(u64, u64)]) -> u64 {
    iv.iter().map(|(s, e)| e - s).sum()
}

/// One trace's attributed measurement window.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Window length, ns.
    pub window_ns: u64,
    /// Per-component attributed time, [`COMPONENTS`] order. Sums to
    /// `window_ns` exactly (the last entry is the idle residual).
    pub by_component: Vec<(Component, u64)>,
}

impl Attribution {
    /// Attributed ns of one component.
    pub fn ns(&self, c: Component) -> u64 {
        self.by_component
            .iter()
            .find(|(k, _)| *k == c)
            .map_or(0, |(_, v)| *v)
    }
}

/// Attribute a trace's measurement window (None if no window marks).
pub fn attribute(trace: &TraceData) -> Option<Attribution> {
    let (w0, w1) = trace.window()?;
    let mut per: Vec<Vec<(u64, u64)>> = vec![Vec::new(); COMPONENTS.len()];
    for e in &trace.events {
        if e.kind.class() != TraceClass::Span || e.dur_ns == 0 {
            continue;
        }
        let Some(c) = classify(e) else { continue };
        let s = e.start_ns.max(w0);
        let t = (e.start_ns + e.dur_ns).min(w1);
        if s < t {
            per[COMPONENTS.iter().position(|k| *k == c).unwrap()].push((s, t));
        }
    }
    let mut claimed: Vec<(u64, u64)> = Vec::new();
    let mut by_component = Vec::with_capacity(COMPONENTS.len());
    let mut accounted = 0u64;
    for (ci, comp) in COMPONENTS.iter().enumerate() {
        if *comp == Component::Idle {
            by_component.push((Component::Idle, (w1 - w0) - accounted));
            break;
        }
        let mine = union(std::mem::take(&mut per[ci]));
        let fresh = subtract(&mine, &claimed);
        let len = total(&fresh);
        accounted += len;
        by_component.push((*comp, len));
        claimed = union([claimed, mine].concat());
    }
    Some(Attribution {
        window_ns: w1 - w0,
        by_component,
    })
}

/// One variant's traced, attributed measurement.
#[derive(Debug, Clone)]
pub struct VariantBreakdown {
    /// Series label (TCP / NATIVE_VIA / SOVIA_*).
    pub label: String,
    /// The headline metric of the run (µs one-way for latency runs,
    /// Mb/s for bandwidth runs) — identical to the untraced number.
    pub value: f64,
    /// The attributed window.
    pub attribution: Attribution,
    /// Per-process run-time / wakeup accounting of the simulation.
    pub procs: Vec<ProcStats>,
    /// The full trace (for `--trace` export).
    pub trace: TraceData,
}

/// The three platforms the breakdown compares for latency.
pub fn latency_variants() -> Vec<Variant> {
    vec![
        Variant::TcpLane,
        Variant::NativeVia,
        Variant::Sovia(SoviaConfig::single()),
    ]
}

/// The three platforms the breakdown compares for bandwidth (SOVIA in
/// its best, COMBINE configuration).
pub fn bandwidth_variants() -> Vec<Variant> {
    vec![
        Variant::TcpLane,
        Variant::NativeVia,
        Variant::Sovia(SoviaConfig::combine()),
    ]
}

fn run_one(v: &Variant, run: impl Fn(&Variant) -> RunOutput) -> VariantBreakdown {
    let out = run(v);
    let trace = out.trace.expect("tracing was enabled");
    let attribution = attribute(&trace).expect("measurement window marks missing");
    VariantBreakdown {
        label: v.label().to_string(),
        value: out.value,
        attribution,
        procs: out.procs,
        trace,
    }
}

/// Decompose the `size`-byte round-trip for every latency variant. Runs
/// sequentially: traces must be byte-stable regardless of `--threads`.
pub fn latency_breakdown(size: usize, rounds: u32) -> Vec<VariantBreakdown> {
    latency_variants()
        .iter()
        .map(|v| {
            run_one(v, |v| {
                micro::latency_traced(
                    v,
                    size,
                    rounds,
                    Some(TraceConfig::default()),
                )
            })
        })
        .collect()
}

/// Decompose the `size`-byte stream for every bandwidth variant.
pub fn bandwidth_breakdown(size: usize, total_bytes: usize) -> Vec<VariantBreakdown> {
    bandwidth_variants()
        .iter()
        .map(|v| {
            run_one(v, |v| {
                micro::bandwidth_traced(
                    v,
                    size,
                    total_bytes,
                    Some(TraceConfig::default()),
                )
            })
        })
        .collect()
}

/// Render the latency decomposition: per-layer µs **per one-way
/// message** (window / 2·rounds), so the `total` row reproduces the
/// Figure 6(a) numbers in `results/fig6a.txt`.
pub fn render_latency(size: usize, rounds: u32, rows: &[VariantBreakdown]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Latency breakdown: {size}-byte message (usec per one-way message)"
    );
    let _ = write!(out, "{:<20}", "component");
    for r in rows {
        let _ = write!(out, "{:>20}", r.label);
    }
    let _ = writeln!(out);
    let per_msg = |ns: u64| ns as f64 / f64::from(rounds) / 2.0 / 1e3;
    for (ci, comp) in COMPONENTS.iter().enumerate() {
        let _ = write!(out, "{:<20}", comp.name());
        for r in rows {
            let ns = r.attribution.by_component[ci].1;
            let pct = ns as f64 * 100.0 / r.attribution.window_ns as f64;
            let _ = write!(out, "{:>12.2} {:>5.1}%", per_msg(ns), pct);
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "{:<20}", "total (one-way)");
    for r in rows {
        let _ = write!(out, "{:>12.2} {:>6}", per_msg(r.attribution.window_ns), "");
    }
    let _ = writeln!(out);
    out
}

/// Render the bandwidth decomposition: per-layer share of the
/// steady-state window, plus the achieved Mb/s.
pub fn render_bandwidth(size: usize, rows: &[VariantBreakdown]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Bandwidth breakdown: {size}-byte stream (share of steady-state window)"
    );
    let _ = write!(out, "{:<20}", "component");
    for r in rows {
        let _ = write!(out, "{:>20}", r.label);
    }
    let _ = writeln!(out);
    for (ci, comp) in COMPONENTS.iter().enumerate() {
        let _ = write!(out, "{:<20}", comp.name());
        for r in rows {
            let ns = r.attribution.by_component[ci].1;
            let pct = ns as f64 * 100.0 / r.attribution.window_ns as f64;
            let _ = write!(out, "{:>18.1}%", pct);
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "{:<20}", "achieved Mb/s");
    for r in rows {
        let _ = write!(out, "{:>19.1}", r.value);
    }
    let _ = writeln!(out);
    out
}

/// Render the per-process accounting of each variant's simulation
/// (virtual run time + wakeups; the `SchedStats`/`ProcStats` satellite
/// surfaced next to the numbers they explain).
pub fn render_procs(rows: &[VariantBreakdown]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# Per-process accounting (virtual runtime, wakeups)");
    for r in rows {
        let _ = writeln!(out, "  [{}]", r.label);
        let mut procs = r.procs.clone();
        procs.sort_by(|a, b| b.runtime.cmp(&a.runtime).then(a.pid.cmp(&b.pid)));
        for p in procs.iter().take(8) {
            let _ = writeln!(
                out,
                "    {:<18} {:>12.1} us {:>10} wakeups{}",
                p.name,
                p.runtime.as_micros_f64(),
                p.wakeups,
                if p.daemon { "  (daemon)" } else { "" },
            );
        }
    }
    out
}

/// `(label, trace)` pairs for the `--trace` Chrome export.
pub fn trace_parts(prefix: &str, rows: &[VariantBreakdown]) -> Vec<(String, TraceData)> {
    rows.iter()
        .map(|r| (format!("{prefix} {}", r.label), r.trace.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_union_and_subtract() {
        let u = union(vec![(5, 9), (1, 3), (2, 6)]);
        assert_eq!(u, vec![(1, 9)]);
        let d = subtract(&[(0, 10)], &[(2, 4), (6, 8)]);
        assert_eq!(d, vec![(0, 2), (4, 6), (8, 10)]);
        assert_eq!(total(&d), 6);
        assert_eq!(subtract(&[(2, 4)], &[(0, 10)]), Vec::<(u64, u64)>::new());
    }

    #[test]
    fn attribution_sums_to_window_and_respects_priority() {
        use dsim::{TraceEvent, TraceTag};
        let ev = |kind, layer, start, dur| TraceEvent {
            start_ns: start,
            dur_ns: dur,
            pid: 1,
            layer,
            kind,
            tag: TraceTag::default(),
        };
        let trace = TraceData {
            events: vec![
                ev(TraceKind::MarkStart, TraceLayer::App, 100, 0),
                // syscall [100,200) overlapping copy [150,250): the
                // overlap goes to syscall (higher priority).
                ev(TraceKind::Syscall, TraceLayer::Socket, 100, 100),
                ev(TraceKind::Copy, TraceLayer::Kernel, 150, 100),
                // span straddling the window end is clipped.
                ev(TraceKind::Dma, TraceLayer::Nic, 280, 100),
                ev(TraceKind::MarkEnd, TraceLayer::App, 300, 0),
            ],
            names: vec![],
            dropped: 0,
        };
        let a = attribute(&trace).unwrap();
        assert_eq!(a.window_ns, 200);
        assert_eq!(a.ns(Component::Syscall), 100);
        assert_eq!(a.ns(Component::Copy), 50);
        assert_eq!(a.ns(Component::Nic), 20);
        assert_eq!(a.ns(Component::Idle), 30);
        let sum: u64 = a.by_component.iter().map(|(_, v)| v).sum();
        assert_eq!(sum, a.window_ns);
    }
}
