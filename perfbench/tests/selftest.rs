//! Self-test of the benchmark at a tiny scale: every metric named in
//! `BENCHMARK.json` is printed with its unit, and exact counters repeat
//! between runs. That a wrong expected value counts as a failed
//! simulation is a unit test in `src/round.rs`.

use std::collections::BTreeMap;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["pingpong", "stream", "combine", "rpc_churn"];

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .env_remove("DSIM_DIRECT_HANDOFF")
        .env_remove("SOVIA_BENCH_THREADS")
        .output()
        .expect("run perfbench")
}

/// One tiny run: a single round, whatever `--seconds` says.
fn tiny(workload: &str, seed: &str, trace: &str) -> String {
    let args = [
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0.001",
        "--trace",
        trace,
        "--scale",
        "tiny",
    ];
    let out = bench(&args);
    assert!(out.status.success(), "perfbench {args:?} failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Every `"<key>": "<value>"` string value in `text`, in order.
fn string_values(text: &str, key: &str) -> Vec<String> {
    let pat = format!("\"{key}\": \"");
    text.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &text[i + pat.len()..];
            rest[..rest.find('"').expect("closing quote")].to_owned()
        })
        .collect()
}

/// `(name, unit)` of each metric in `BENCHMARK.json`'s `section` array.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    string_values(body, "name")
        .into_iter()
        .zip(string_values(body, "unit"))
        .collect()
}

/// The result line's `correct`, `failed` and metric name → (value, unit).
fn result(stdout: &str) -> (bool, u64, BTreeMap<String, (f64, String)>) {
    let last = stdout.lines().last().expect("a result line");
    let correct = last.starts_with("{\"correct\": true");
    let failed = last
        .split("\"failed\": ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.parse().ok())
        .expect("failed count");
    let mut metrics = BTreeMap::new();
    for (i, _) in last.match_indices(": {\"value\": ") {
        let name_end = last[..i].rfind('"').expect("name quote");
        let name_start = last[..name_end].rfind('"').expect("name quote") + 1;
        let rest = &last[i + ": {\"value\": ".len()..];
        let value = rest[..rest.find(',').expect("value end")]
            .parse()
            .expect("number");
        let unit = string_values(rest, "unit").remove(0);
        metrics.insert(last[name_start..name_end].to_owned(), (value, unit));
    }
    (correct, failed, metrics)
}

/// Metrics the table marks as exact counters.
fn exact(stdout: &str) -> BTreeMap<String, String> {
    stdout
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with('{'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.get(3) == Some(&"exact")).then(|| (f[0].to_owned(), f[1].to_owned()))
        })
        .collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(section);
        assert!(!want.is_empty(), "{section} declares metrics");
        for w in WORKLOADS {
            let (correct, failed, got) = result(&tiny(w, "7", trace));
            assert!(correct && failed == 0, "{w} trace={trace} has failures");
            assert_eq!(
                got.len(),
                want.len(),
                "{w} trace={trace} prints exactly the {section} metrics"
            );
            for (name, unit) in &want {
                let (value, got_unit) = got
                    .get(name)
                    .unwrap_or_else(|| panic!("{w}: {name} missing"));
                assert_eq!(got_unit, unit, "{w}: unit of {name}");
                assert!(value.is_finite(), "{w}: {name} = {value}");
            }
        }
    }
}

#[test]
fn exact_counters_repeat_between_runs_and_seeds() {
    for w in WORKLOADS {
        let a = tiny(w, "1", "1");
        let b = tiny(w, "2", "1");
        let (ea, eb) = (exact(&a), exact(&b));
        assert!(
            ea.contains_key("dsim.events"),
            "{w}: exact counters are marked"
        );
        assert_eq!(ea, eb, "{w}: exact counters differ between runs");
        assert_eq!(ea["trace.dropped"], "0", "{w}: trace ring dropped events");
    }
}

#[test]
fn refuses_to_run_with_scheduler_overrides_set() {
    for var in ["DSIM_DIRECT_HANDOFF", "SOVIA_BENCH_THREADS"] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", "pingpong", "--seconds", "1", "--trace", "0"])
            .env(var, "1")
            .output()
            .expect("run perfbench");
        assert_eq!(out.status.code(), Some(2), "{var} must be refused");
        assert!(out.stdout.is_empty(), "no result with {var} set");
    }
}
