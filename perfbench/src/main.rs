//! perfbench — host-performance benchmark for the SOVIA simulator.
//!
//! Measures how fast the simulator produces its simulated results, never
//! the simulated results themselves: every simulated result and event
//! count is checked exactly against `expected.txt`. See `README.md` for
//! the workloads and metrics.
//!
//! ```text
//! perfbench --workload <pingpong|stream|combine|rpc_churn> --seed N --seconds S --trace <0|1>
//!           [--scale tiny]
//! perfbench --record FILE
//! ```
//!
//! The command runs rounds, each in a child process of its own
//! (`--round R`), until `--seconds` is spent, and reports each metric's
//! median over the rounds.

mod round;
mod sys;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use sovia_repro::dsim::rng::SimRng;

use round::Pass;
use workloads::{Mode, Net, Shape, Spec, Variant};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

const WORKLOADS: [&str; 4] = ["pingpong", "stream", "combine", "rpc_churn"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    Full,
    Tiny,
}

impl Scale {
    fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }
}

/// The fixed set of simulations one round of `workload` runs. The seed
/// only orders them and picks payload contents, so every seed measures
/// the same work and the expected results hold at every seed.
fn catalog(workload: &str, scale: Scale) -> Option<Vec<Spec>> {
    let tiny = scale == Scale::Tiny;
    let spec = |shape, net, size, ops: u32, batch| Spec {
        shape,
        net,
        size,
        ops: if tiny { ops.div_ceil(16).max(2) } else { ops },
        batch,
    };
    let specs = match workload {
        "pingpong" => {
            let nets = [
                Net::TcpLane,
                Net::NativeVia,
                Net::Sovia(Variant::Single),
                Net::Sovia(Variant::Handler),
            ];
            nets.iter()
                .flat_map(|&n| [4, 4096].map(|size| spec(Shape::PingPong, n, size, 500, 1)))
                .collect()
        }
        // An operation is 32 KB of sends, so operations of every size
        // move the same bytes; the operation counts give each simulation
        // a similar share of host time.
        "stream" => [
            (Net::TcpLane, 64, 8),
            (Net::TcpLane, 32 * 1024, 32),
            (Net::Sovia(Variant::FlowCtrl), 1024, 64),
            (Net::Sovia(Variant::FlowCtrl), 32 * 1024, 1024),
            (Net::Sovia(Variant::Dacks), 1024, 96),
            (Net::Sovia(Variant::Dacks), 32 * 1024, 1024),
            (Net::NativeVia, 32 * 1024, 2048),
        ]
        .map(|(net, size, ops)| spec(Shape::Stream, net, size, ops, (32 * 1024 / size) as u32))
        .to_vec(),
        "combine" => [4, 16, 64, 256]
            .map(|size| spec(Shape::Stream, Net::Sovia(Variant::Combine), size, 3000, 64))
            .to_vec(),
        "rpc_churn" => {
            let reps = if tiny { 1 } else { 8 };
            let nets = [Net::TcpEth, Net::TcpLane, Net::Sovia(Variant::Combine)];
            let one: Vec<Spec> = nets
                .iter()
                .flat_map(|&n| [0, 1024].map(|size| spec(Shape::Rpc, n, size, 4, 1)))
                .collect();
            (0..reps).flat_map(|_| one.clone()).collect()
        }
        _ => return None,
    };
    Some(specs)
}

/// Round `r`'s simulations in the order the seed picks, each with its
/// payload tag.
fn round_order(specs: &[Spec], seed: u64, r: u64) -> Vec<(Spec, u64)> {
    let mut rng = SimRng::seed_from(seed.wrapping_add(r.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    let mut order: Vec<(Spec, u64)> = specs.iter().map(|s| (*s, rng.next_u64())).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

// ----- command line -----------------------------------------------------------

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    record: Option<String>,
    round: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        record: None,
        round: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--scale" => {
                a.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    v => return Err(format!("--scale takes full or tiny, not {v}")),
                }
            }
            "--record" => a.record = Some(value()?),
            "--round" => a.round = Some(value()?.parse().map_err(|e| format!("--round: {e}"))?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.record.is_none() && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(a)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    // `SchedConfig::default()` reads DSIM_DIRECT_HANDOFF and the bench
    // runner reads SOVIA_BENCH_THREADS; results taken with either set would
    // not be comparable, so refuse rather than record them.
    for var in ["DSIM_DIRECT_HANDOFF", "SOVIA_BENCH_THREADS"] {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: refusing to run with {var} set");
            std::process::exit(2);
        }
    }
    match (&args.record, args.round) {
        (Some(path), _) => record(path),
        (None, Some(r)) => child(&args, r),
        (None, None) => parent(&args),
    }
}

// ----- expected results ---------------------------------------------------------

/// Write the expected results of every simulation of every workload, at
/// both scales.
fn record(path: &str) {
    let mut out = String::from(
        "# Expected simulated results: <simulation> <result> <events_processed>.\n\
         # Results are µs (pingpong: half round trip; rpc: per call) or Mb/s (stream).\n\
         # Regenerate with `perfbench --record perfbench/expected.txt` only when the\n\
         # simulated model changes on purpose, then rebuild.\n",
    );
    let mut seen = std::collections::BTreeSet::new();
    for scale in [Scale::Full, Scale::Tiny] {
        for w in WORKLOADS {
            for spec in catalog(w, scale).expect("known workload") {
                if !seen.insert(spec.id()) {
                    continue;
                }
                let mode = Mode {
                    trace: None,
                    time_calls: false,
                    tag: 1,
                };
                let t = Instant::now();
                let o =
                    workloads::run(&spec, mode).unwrap_or_else(|e| panic!("{}: {e}", spec.id()));
                let line = format!("{} {} {}", spec.id(), o.result, o.sched.events_processed);
                eprintln!("{line}  ({:.1} ms host)", t.elapsed().as_secs_f64() * 1e3);
                let _ = writeln!(out, "{line}");
            }
        }
    }
    std::fs::write(path, out).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

// ----- child: one round ---------------------------------------------------------------

/// Run round `r` and print `attempted`, `failed` and one
/// `m <name> <value> <unit> <exact|measured>` line per metric.
fn child(args: &Args, r: u64) {
    let expected = round::parse_results(include_str!("../expected.txt"));
    let specs = catalog(&args.workload, args.scale).expect("workload validated by parse_args");
    let order = round_order(&specs, args.seed, r);
    let plain = Pass::run(&order, args.trace, None, &expected);
    let (attempted, failed, metrics) = if args.trace {
        let traced = Pass::run(&order, true, Some(&plain.results), &expected);
        (
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            plain.per_layer(&traced),
        )
    } else {
        (plain.attempted, plain.failed, plain.end_to_end())
    };
    let mut out = format!("attempted {attempted}\nfailed {failed}\n");
    if !args.trace {
        out.push_str("ops");
        for ns in plain.op_samples() {
            let _ = write!(out, " {ns}");
        }
        out.push('\n');
    }
    for x in metrics {
        let kind = if x.exact { "exact" } else { "measured" };
        let _ = writeln!(out, "m {} {:?} {} {kind}", x.name, x.value, x.unit);
    }
    print!("{out}");
}

// ----- parent: rounds until the time is spent -------------------------------------------

/// What one round reports.
struct RoundReport {
    attempted: u64,
    failed: u64,
    /// (name, value, unit, exact) of each metric.
    metrics: Vec<(String, f64, String, bool)>,
    /// Host ns of every timed operation (end-to-end run only).
    ops: Vec<u64>,
}

fn run_round(args: &Args, r: u64) -> Result<RoundReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--scale", args.scale.name()])
        .args(["--round", &r.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start round {r}: {e}"))?;
    if !out.status.success() {
        return Err(format!("round {r} exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let bad = |line: &str| format!("round {r}: bad line {line}");
    let (mut attempted, mut failed, mut metrics, mut ops) = (None, None, Vec::new(), Vec::new());
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["attempted", n] => attempted = n.parse().ok(),
            ["failed", n] => failed = n.parse().ok(),
            ["ops", ns @ ..] => {
                for n in ns {
                    ops.push(n.parse().map_err(|_| bad("ops"))?);
                }
            }
            ["m", name, value, unit, kind] => {
                let v = value.parse().map_err(|_| bad(line))?;
                metrics.push((name.to_string(), v, unit.to_string(), *kind == "exact"));
            }
            _ => return Err(bad(line)),
        }
    }
    match (attempted, failed) {
        (Some(attempted), Some(failed)) if !metrics.is_empty() => Ok(RoundReport {
            attempted,
            failed,
            metrics,
            ops,
        }),
        _ => Err(format!("round {r}: incomplete output")),
    }
}

/// One metric's per-round values.
struct Series {
    unit: String,
    exact: bool,
    values: Vec<f64>,
}

fn parent(args: &Args) {
    let specs = catalog(&args.workload, args.scale).expect("workload validated by parse_args");
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} scale={} simulations/round={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        args.scale.name(),
        specs.len()
    );
    println!("# fingerprint: {}", sys::fingerprint());
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let (mut attempted, mut failed, mut crashed) = (0u64, 0u64, 0u64);
    let mut names: Vec<String> = Vec::new();
    let mut series: BTreeMap<String, Series> = BTreeMap::new();
    let mut round_secs = Vec::new();
    // (attempted, failed) of each round that completed, in the order of
    // the values in `series`.
    let mut completed: Vec<(u64, u64)> = Vec::new();
    let mut ops: Vec<f64> = Vec::new();
    for r in 0.. {
        let t = Instant::now();
        match run_round(args, r) {
            Ok(report) => {
                completed.push((report.attempted, report.failed));
                attempted += report.attempted;
                failed += report.failed;
                ops.extend(report.ops.iter().map(|&ns| ns as f64 / 1e3));
                for (name, value, unit, exact) in report.metrics {
                    if !series.contains_key(&name) {
                        names.push(name.clone());
                    }
                    let s = series.entry(name).or_insert(Series {
                        unit,
                        exact,
                        values: Vec::new(),
                    });
                    s.values.push(value);
                }
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                crashed += 1;
                attempted += specs.len() as u64;
                failed += specs.len() as u64;
            }
        }
        round_secs.push(t.elapsed().as_secs_f64());
        let next = round::quantile(&mut round_secs.clone(), 0.5);
        if start.elapsed().as_secs_f64() + next > budget.as_secs_f64() {
            break;
        }
    }
    let repeats = |s: &Series| s.values.windows(2).all(|w| w[0] == w[1]);
    // Exact counters must repeat in every round: a round whose counters
    // differ from the first round's counts all its simulations as failed.
    let mut diverged = 0;
    for (i, &(n, n_failed)) in completed.iter().enumerate() {
        let difference = series
            .iter()
            .find(|(_, s)| s.exact && s.values[i] != s.values[0]);
        if let Some((name, s)) = difference {
            eprintln!(
                "perfbench: FAILED round {i}: exact counter {name} = {} != {} in the first round",
                s.values[i], s.values[0]
            );
            diverged += 1;
            failed += n - n_failed;
        }
    }
    println!(
        "# rounds={} crashed_rounds={crashed} diverged_rounds={diverged} simulations={attempted} failed_share={}",
        round_secs.len(),
        failed as f64 / attempted.max(1) as f64,
    );
    if args.trace {
        if let Some(s) = series.get("alloc.count") {
            println!(
                "# alloc.count repeats across rounds: {} {:?}",
                repeats(s),
                s.values
            );
        }
    }
    if !args.trace {
        // The 99th percentile is not an end-to-end metric: it repeated
        // only within 10-25% between runs of the same code.
        println!(
            "# op_host_us_p99={} over {} operations",
            round::quantile(&mut ops, 0.99),
            ops.len()
        );
    }
    let mut table: Vec<(String, f64, String, String)> = names
        .iter()
        .map(|name| {
            let s = &series[name];
            let mut v = s.values.clone();
            let quartiles = format!(
                "rounds q1 {:.6} q3 {:.6}",
                round::quantile(&mut v, 0.25),
                round::quantile(&mut v, 0.75)
            );
            let kind = if s.exact { "exact" } else { "measured" };
            let med = round::quantile(&mut v, 0.5);
            (
                name.clone(),
                med,
                s.unit.clone(),
                format!("{kind:<8} {quartiles}"),
            )
        })
        .collect();
    if !args.trace {
        let p50 = round::quantile(&mut ops, 0.5);
        table.push((
            "op_host_us_p50".into(),
            p50,
            "us".into(),
            "measured all operations".into(),
        ));
    }
    let mut json = String::new();
    for (name, med, unit, note) in &table {
        println!("{name:<30} {med:>22} {unit:<11} {note}");
        let med = if med.is_finite() { *med } else { 0.0 };
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {med:?}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        failed == 0 && attempted > 0
    );
}
