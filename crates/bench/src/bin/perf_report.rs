//! Host-performance report for the simulation substrate.
//!
//! Report sections, all written to `BENCH_substrate.json`:
//!
//! * **`handoff_pingpong`, `sovia_stream_fig6b`** — two fixed workloads
//!   (a two-process queue ping-pong, where every event switches process,
//!   and a Figure 6(b) SOVIA stream), recording wall-clock time, event
//!   throughput, and the wake breakdown ([`dsim::SchedStats`]).
//! * **`fault_sweep`** — the goodput-vs-loss-rate sweep of
//!   [`bench::fault_sweep`]: kernel TCP streaming over a lossy Fast
//!   Ethernet link, with per-point goodput, recovery latency, and fault
//!   counters (bit-reproducible for a fixed (seed, plan)).
//! * **`suite_fig6_sweep`** — the full Figure 6(a)+6(b) point set run
//!   through the parallel runner at `threads = 1` and `threads = N`
//!   (default: available parallelism), recording suite wall-clock,
//!   speedup, and aggregate event throughput. The rendered tables and
//!   per-simulation event counts are asserted byte-identical across the
//!   two thread counts: parallelism is host-side only (DESIGN.md §7).
//! * **`latency_breakdown`** — the traced per-layer decomposition of the
//!   4-byte round-trip ([`bench::breakdown`]): per-component µs that sum
//!   exactly to the Figure 6(a) one-way latency, plus per-process
//!   virtual-runtime / wakeup accounting ([`dsim::ProcStats`]) for each
//!   variant's simulation.
//!
//!   cargo run -p bench --release --bin perf_report -- \
//!   [--out PATH] [--threads N] [--trace out.json]
//!
//! `scripts/bench.sh` wraps this and compares against the committed
//! baseline, matching scenarios by name (`gate_wall_ms` fields are the
//! regression-gated handles). `--trace` additionally writes the
//! breakdown runs as a Chrome trace-event (Perfetto) JSON file.

use std::sync::Arc;
use std::time::Instant;

use bench::figures::{self, SweepOutcome};
use bench::micro::{self, Variant};
use bench::{breakdown, cli};
use dsim::sync::SimQueue;
use dsim::{SchedStats, Simulation};
use sovia::SoviaConfig;

/// Ping-pong rounds for the handoff microbenchmark.
const PINGPONG_ROUNDS: u32 = 20_000;
/// Message size / total bytes for the Figure 6(b)-style stream workload.
const STREAM_MSG: usize = 32 * 1024;
const STREAM_TOTAL: usize = 32 * 1024 * 1024;
/// Timed repetitions per workload measurement (minimum taken). The suite
/// sweep runs once per thread count: at a couple of minutes per pass it
/// is long enough to be stable.
const REPS: usize = 3;

/// One timed workload.
struct Measured {
    wall_ms: f64,
    stats: SchedStats,
    /// Scenario-specific virtual-time result.
    result: f64,
}

impl Measured {
    fn events_per_sec(&self) -> f64 {
        self.stats.events_processed as f64 / (self.wall_ms / 1e3)
    }

    /// The scenario's JSON block; `gate_wall_ms` is the handle
    /// `scripts/bench.sh` gates on.
    fn json(&self, name: &str, extra: &[(&str, f64)]) -> String {
        let s = &self.stats;
        let mut out = format!("    {{\n      \"name\": \"{name}\",\n");
        let mut push = |k: &str, v: String| {
            out.push_str(&format!("      \"{k}\": {v},\n"));
        };
        push("gate_wall_ms", format!("{:.3}", self.wall_ms));
        push("events_processed", s.events_processed.to_string());
        push("events_per_sec", format!("{:.0}", self.events_per_sec()));
        push("self_wakes", s.self_wakes.to_string());
        push("dispatched_wakes", s.coordinator_wakes.to_string());
        for (k, v) in extra {
            push(k, format!("{v:.3}"));
        }
        // Trim the trailing comma.
        out.truncate(out.len() - 2);
        out.push_str("\n    }");
        eprintln!(
            "{name}: wall {:.1} ms, {:.0} events/s",
            self.wall_ms,
            self.events_per_sec()
        );
        out
    }
}

/// Run `workload` `REPS` times, keeping the fastest run.
fn measure(workload: impl Fn() -> (f64, SchedStats)) -> Measured {
    (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let (result, stats) = workload();
            Measured {
                wall_ms: t0.elapsed().as_secs_f64() * 1e3,
                stats,
                result,
            }
        })
        .min_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms))
        .expect("REPS > 0")
}

/// Two processes ping-ponging a token through a pair of [`SimQueue`]s:
/// every event switches process. Returns (final virtual time in µs,
/// stats).
fn pingpong() -> (f64, SchedStats) {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let q1 = SimQueue::<u32>::new(&h);
    let q2 = SimQueue::<u32>::new(&h);
    {
        let (q1, q2) = (Arc::clone(&q1), Arc::clone(&q2));
        sim.spawn("a", move |ctx| {
            for i in 0..PINGPONG_ROUNDS {
                q1.push(i);
                let _ = q2.pop(ctx);
            }
        });
    }
    {
        let (q1, q2) = (Arc::clone(&q1), Arc::clone(&q2));
        sim.spawn("b", move |ctx| {
            for _ in 0..PINGPONG_ROUNDS {
                let v = q1.pop(ctx);
                q2.push(v);
            }
        });
    }
    let end = sim.run().expect("pingpong failed");
    (end.as_micros_f64(), sim.sched_stats())
}

/// The Figure 6(b) SOVIA stream (COMBINE config): a realistic workload
/// with NIC service processes, doorbells, and packet payloads in flight.
/// Returns (bandwidth in Mb/s, stats).
fn sovia_stream() -> (f64, SchedStats) {
    micro::bandwidth_with_stats(
        &Variant::Sovia(SoviaConfig::combine()),
        STREAM_MSG,
        STREAM_TOTAL,
    )
}

/// One timed pass of the full Figure 6(a)+6(b) point set.
struct SuitePass {
    wall_ms: f64,
    threads: usize,
    /// Aggregate scheduler counters, summed across every simulation.
    stats: SchedStats,
    /// Per-simulation event counts, job order (the determinism check).
    per_sim_events: Vec<u64>,
    /// The rendered figure tables (the byte-identity check).
    rendered: String,
}

/// Run the whole Figure 6 suite on at most `threads` concurrent
/// simulations and render both tables.
fn run_suite(threads: usize) -> SuitePass {
    let t0 = Instant::now();
    let a = figures::run_fig6a_sweep(&figures::FIG6A_SIZES, figures::LATENCY_ROUNDS, threads);
    let b = figures::run_fig6b_sweep(&figures::FIG6B_SIZES, figures::bandwidth_total, threads);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let rendered = format!(
        "{}{}",
        micro::render_table(
            "Figure 6(a): Latency (Giganet cLAN1000, simulated)",
            "usec, one-way",
            &figures::FIG6A_SIZES,
            &a.series
        ),
        micro::render_table(
            "Figure 6(b): Bandwidth (Giganet cLAN1000, simulated)",
            "Mbps",
            &figures::FIG6B_SIZES,
            &b.series
        )
    );
    let per_sim_events = [&a, &b]
        .iter()
        .flat_map(|o: &&SweepOutcome| o.sim_stats.iter().map(|s| s.events_processed))
        .collect();
    SuitePass {
        wall_ms,
        threads,
        stats: a.total_stats() + b.total_stats(),
        per_sim_events,
        rendered,
    }
}

fn suite_pass_json(p: &SuitePass, indent: &str) -> String {
    format!(
        "{{\n{indent}  \"threads\": {},\n{indent}  \"wall_ms\": {:.3},\n\
         {indent}  \"events_processed\": {},\n{indent}  \"aggregate_events_per_sec\": {:.0},\n\
         {indent}  \"self_wakes\": {},\n{indent}  \"dispatched_wakes\": {}\n{indent}}}",
        p.threads,
        p.wall_ms,
        p.stats.events_processed,
        p.stats.events_processed as f64 / (p.wall_ms / 1e3),
        p.stats.self_wakes,
        p.stats.coordinator_wakes,
    )
}

/// The suite-scaling scenario: full Figure 6 point set at `threads = 1`
/// vs `threads = par_threads`, with the host-side-only invariant checked.
fn render_suite_scenario(par_threads: usize) -> String {
    let sims = figures::fig6a_variants().len() * figures::FIG6A_SIZES.len()
        + figures::fig6b_variants().len() * figures::FIG6B_SIZES.len();
    let seq = run_suite(1);
    let par = run_suite(par_threads);
    // The DESIGN.md §7 invariant, extended: parallelism is host-side
    // only. Every rendered byte and per-simulation event count must be
    // identical at any thread count.
    assert_eq!(
        seq.rendered, par.rendered,
        "suite_fig6_sweep: thread count changed a rendered table"
    );
    assert_eq!(
        seq.per_sim_events, par.per_sim_events,
        "suite_fig6_sweep: thread count changed a per-simulation event count"
    );
    let speedup = seq.wall_ms / par.wall_ms;
    eprintln!(
        "suite_fig6_sweep: {sims} sims, wall {:.0} ms (threads=1) -> {:.0} ms (threads={}), \
         speedup {speedup:.2}x",
        seq.wall_ms, par.wall_ms, par.threads,
    );
    format!(
        "    {{\n      \"name\": \"suite_fig6_sweep\",\n      \"simulations\": {sims},\n\
               \"seq\": {},\n      \"par\": {},\n      \"suite_speedup_x\": {speedup:.2}\n    }}",
        suite_pass_json(&seq, "      "),
        suite_pass_json(&par, "      "),
    )
}

/// The fault-injection scenario: the goodput-vs-loss sweep over a lossy
/// Fast Ethernet link, with per-point goodput, recovery latency, and
/// fault counters. Fixed (seed, plan) per point keeps the block
/// bit-reproducible at any thread count; `gate_wall_ms` is the handle
/// `scripts/bench.sh` gates on (matched by scenario name).
fn render_fault_scenario(threads: usize) -> String {
    use bench::fault_sweep;
    let t0 = Instant::now();
    let points = fault_sweep::run_fault_sweep(threads);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let pts: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "        {{\"loss_p\": {:.4}, \"goodput_mbps\": {:.3}, \
                 \"max_stall_ms\": {:.3}, \"frames\": {}, \"dropped\": {}, \
                 \"events_processed\": {}}}",
                p.loss_p,
                p.goodput_mbps,
                p.max_stall_us / 1e3,
                p.faults.frames,
                p.faults.dropped,
                p.stats.events_processed,
            )
        })
        .collect();
    eprintln!(
        "fault_sweep: {} points, wall {:.0} ms, goodput {:.1} -> {:.1} Mb/s",
        points.len(),
        wall_ms,
        points.first().map_or(0.0, |p| p.goodput_mbps),
        points.last().map_or(0.0, |p| p.goodput_mbps),
    );
    format!(
        "    {{\n      \"name\": \"fault_sweep\",\n      \"gate_wall_ms\": {wall_ms:.3},\n      \
         \"stream_msg_bytes\": {},\n      \"stream_total_bytes\": {},\n      \
         \"points\": [\n{}\n      ]\n    }}",
        fault_sweep::STREAM_MSG,
        fault_sweep::STREAM_TOTAL,
        pts.join(",\n"),
    )
}

/// The breakdown scenario: traced 4-byte latency decomposition per
/// variant, with per-component µs summing to the one-way latency and
/// the per-process runtime/wakeup accounting of each simulation.
/// `gate_wall_ms` is the handle `scripts/bench.sh` gates on.
fn render_breakdown_scenario(trace_path: Option<&str>) -> String {
    let t0 = Instant::now();
    let rows = breakdown::latency_breakdown(4, figures::LATENCY_ROUNDS);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let per_msg = |ns: u64| ns as f64 / f64::from(figures::LATENCY_ROUNDS) / 2.0 / 1e3;
    let variants: Vec<String> = rows
        .iter()
        .map(|r| {
            let comps: Vec<String> = breakdown::COMPONENTS
                .iter()
                .enumerate()
                .map(|(ci, c)| {
                    let ns = r.attribution.by_component[ci].1;
                    format!(
                        "            {{\"component\": \"{}\", \"us_per_msg\": {:.3}, \
                         \"pct\": {:.1}}}",
                        c.name(),
                        per_msg(ns),
                        ns as f64 * 100.0 / r.attribution.window_ns as f64,
                    )
                })
                .collect();
            let mut procs = r.procs.clone();
            procs.sort_by(|a, b| b.runtime.cmp(&a.runtime).then(a.pid.cmp(&b.pid)));
            let procs: Vec<String> = procs
                .iter()
                .take(5)
                .map(|p| {
                    format!(
                        "            {{\"name\": \"{}\", \"runtime_us\": {:.1}, \
                         \"wakeups\": {}}}",
                        p.name,
                        p.runtime.as_micros_f64(),
                        p.wakeups,
                    )
                })
                .collect();
            format!(
                "        {{\n          \"label\": \"{}\",\n          \
                 \"one_way_us\": {:.3},\n          \"components\": [\n{}\n          ],\n          \
                 \"top_procs\": [\n{}\n          ]\n        }}",
                r.label,
                per_msg(r.attribution.window_ns),
                comps.join(",\n"),
                procs.join(",\n"),
            )
        })
        .collect();
    let share = |r: &breakdown::VariantBreakdown| {
        (r.attribution.ns(breakdown::Component::Syscall) as f64
            + r.attribution.ns(breakdown::Component::Copy) as f64)
            * 100.0
            / r.attribution.window_ns as f64
    };
    eprintln!(
        "latency_breakdown: wall {:.0} ms; syscall+copy share {:.1}% ({}) vs {:.1}% ({})",
        wall_ms,
        share(&rows[0]),
        rows[0].label,
        share(&rows[2]),
        rows[2].label,
    );
    if let Some(path) = trace_path {
        cli::write_trace(path, &breakdown::trace_parts("latency 4B", &rows));
    }
    format!(
        "    {{\n      \"name\": \"latency_breakdown\",\n      \"gate_wall_ms\": {wall_ms:.3},\n      \
         \"message_bytes\": 4,\n      \"rounds\": {},\n      \"variants\": [\n{}\n      ]\n    }}",
        figures::LATENCY_ROUNDS,
        variants.join(",\n"),
    )
}

fn main() {
    let args = cli::BenchCli::parse_env();
    args.reject_seed("perf_report");
    let threads = args.threads();
    let mut out_path = String::from("BENCH_substrate.json");
    let mut it = args.rest.clone().into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("error: --out requires a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!(
                    "error: unknown argument {other:?} \
                     (supported: --out PATH, --threads N, --trace PATH)"
                );
                std::process::exit(2);
            }
        }
    }

    // Timed on this thread, one after the other: running them
    // concurrently would measure host contention, not the simulator. The
    // scenario that measures parallelism is `suite_fig6_sweep`, below.
    let pp = measure(pingpong);
    let handoffs = f64::from(PINGPONG_ROUNDS) * 2.0;
    let pp_json = pp.json(
        "handoff_pingpong",
        &[("ns_per_handoff", pp.wall_ms * 1e6 / handoffs)],
    );
    let st = measure(sovia_stream);
    let st_json = st.json(
        "sovia_stream_fig6b",
        &[
            ("sim_bandwidth_mbps", st.result),
            (
                "sim_bytes_per_wall_sec",
                STREAM_TOTAL as f64 / (st.wall_ms / 1e3),
            ),
        ],
    );
    let fault_json = render_fault_scenario(threads);
    let suite_json = render_suite_scenario(threads);
    let breakdown_json = render_breakdown_scenario(args.trace.as_deref());

    let json = format!(
        "{{\n  \"pingpong_rounds\": {PINGPONG_ROUNDS},\n  \"stream_msg_bytes\": {STREAM_MSG},\n  \
         \"stream_total_bytes\": {STREAM_TOTAL},\n  \"reps\": {REPS},\n  \"scenarios\": [\n{pp_json},\n{st_json},\n{fault_json},\n{suite_json},\n{breakdown_json}\n  ]\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write report");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
