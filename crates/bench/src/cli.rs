//! Shared command-line parsing for the bench binaries.
//!
//! Every binary accepts the same substrate flags, parsed here so the
//! `src/bin/` mains cannot drift apart:
//!
//! * `--threads N` (or `--threads=N`) — cap on concurrent simulations
//!   (falls back to host parallelism).
//!   Output is byte-identical at any value (DESIGN.md §7).
//! * `--seed N` — base RNG seed override, for binaries with randomized
//!   fault plans (`fault_sweep`); others reject it via
//!   [`BenchCli::reject_seed`].
//! * `--trace PATH` — after the normal output, re-run a small set of
//!   representative points with tracing enabled and write a Chrome
//!   trace-event (Perfetto / `chrome://tracing`) JSON file to PATH.
//!   The traced re-runs are sequential and fully deterministic: the
//!   written bytes are identical at any `--threads` value, and the
//!   binary's normal output is unchanged.
//!
//! Any other argument is a usage error (exit status 2).

use crate::report::Report;
use crate::runner;

/// Parsed shared flags of a bench binary invocation.
#[derive(Debug, Clone, Default)]
pub struct BenchCli {
    /// Explicit `--threads N`, if given.
    pub threads: Option<usize>,
    /// Explicit `--seed N`, if given.
    pub seed: Option<u64>,
    /// `--trace PATH`, if given.
    pub trace: Option<String>,
}

impl BenchCli {
    /// Parse the process arguments; on a malformed or unrecognized
    /// argument, print it with the usage line and exit with status 2.
    pub fn parse_env() -> BenchCli {
        let mut args = std::env::args();
        let path = args.next().unwrap_or_default();
        let bin = path.rsplit('/').next().unwrap_or_default();
        BenchCli::parse_from(args.collect()).unwrap_or_else(|e| {
            die(&format!("{e} (usage: {bin} [--threads N] [--seed N] [--trace PATH])"))
        })
    }

    /// Parse an explicit argument list. Every argument must be one of the
    /// shared flags; anything else is an `Err` naming it.
    pub fn parse_from(mut args: Vec<String>) -> Result<BenchCli, String> {
        let threads = take_value(&mut args, "--threads")?
            .map(|v| match v.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!("--threads requires a positive integer, got {v:?}")),
            })
            .transpose()?;
        let seed = take_value(&mut args, "--seed")?
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("--seed requires an unsigned integer, got {v:?}"))
            })
            .transpose()?;
        let trace = take_value(&mut args, "--trace")?;
        if let Some(extra) = args.first() {
            return Err(format!("unknown argument {extra:?}"));
        }
        Ok(BenchCli {
            threads,
            seed,
            trace,
        })
    }

    /// The resolved jobs-in-flight cap (`--threads`, else available
    /// parallelism).
    pub fn threads(&self) -> usize {
        runner::resolve_threads(self.threads)
    }

    /// Print a binary's report, and write its trace to the `--trace` path
    /// if one was given (the report must then be built traced).
    pub fn emit(&self, report: Report) {
        print!("{}", report.text);
        if let Some(path) = &self.trace {
            write_trace(path, &report.trace.expect("a report built traced"));
        }
    }

    /// Exit with a usage error if `--seed` was passed to a binary whose
    /// workload has no seed to override.
    pub fn reject_seed(&self, bin: &str) {
        if self.seed.is_some() {
            die(&format!("{bin} takes no --seed (its workloads are unseeded)"));
        }
    }
}

/// Extract `--flag V` (or `--flag=V`) from `args`, removing the consumed
/// tokens. A flag without its value is an `Err`.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(format!("{flag} requires a value"));
        }
        let v = args.remove(pos + 1);
        args.remove(pos);
        return Ok(Some(v));
    }
    let prefix = format!("{flag}=");
    if let Some(pos) = args.iter().position(|a| a.starts_with(&prefix)) {
        let a = args.remove(pos);
        return Ok(Some(a[prefix.len()..].to_string()));
    }
    Ok(None)
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Write `parts` as a Chrome trace-event JSON file to `path` (the
/// `--trace` consumer every binary shares). The JSON depends only on
/// virtual time, so it is byte-identical run to run.
pub fn write_trace(path: &str, parts: &[(String, dsim::TraceData)]) {
    let json = dsim::chrome_trace_json(parts);
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("error: writing trace to {path}: {e}");
        std::process::exit(1);
    }
    let events: usize = parts.iter().map(|(_, d)| d.events.len()).sum();
    eprintln!("wrote {path} ({} simulations, {events} events)", parts.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_shared_flags_and_rejects_the_rest() {
        let cli = BenchCli::parse_from(argv(&["--threads", "4", "--trace=t.json", "--seed", "7"]))
            .unwrap();
        assert_eq!(cli.threads, Some(4));
        assert_eq!(cli.seed, Some(7));
        assert_eq!(cli.trace.as_deref(), Some("t.json"));
        assert_eq!(BenchCli::parse_from(argv(&["--threads=2"])).unwrap().threads, Some(2));
        let err = BenchCli::parse_from(argv(&["--out", "x.json", "--threads", "4"])).unwrap_err();
        assert_eq!(err, "unknown argument \"--out\"");
        assert!(BenchCli::parse_from(argv(&["--threads"])).is_err());
    }

    #[test]
    fn absent_flags_are_none() {
        let cli = BenchCli::parse_from(vec![]).unwrap();
        assert_eq!(cli.threads, None);
        assert_eq!(cli.seed, None);
        assert!(cli.trace.is_none());
    }
}
