//! `sovia-lint`: static enforcement of the workspace determinism and
//! virtual-time discipline (DESIGN.md §10).
//!
//! Everything this reproduction measures — fig6a/fig6b latencies, fault
//! sweeps, the trace-derived breakdown — substitutes bit-identical
//! virtual-time output for the paper's cLAN hardware. That substitution
//! only holds while simulation crates never consult wall-clock time, OS
//! threads, host randomness, or order-unstable containers. This crate
//! turns that convention into a machine-checked gate: a hand-rolled,
//! comment/string-aware lexer plus `use`-resolution (no syn; the offline
//! compat build stays intact), seven rules scoped by crate class, and an
//! explicit, justification-carrying suppression grammar.

pub mod lexer;
pub mod lockgraph;
pub mod report;
pub mod rules;
pub mod uses;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use lockgraph::LockGraph;
use report::{apply_suppressions, CrateClass, Finding};

/// The crate-class table. Crates not listed (nor matched by the rules in
/// `class_of`) are skipped entirely.
pub const SIM_CRATES: &[&str] = &[
    "dsim", "simnic", "simos", "via", "tcpip", "sockets", "core", "apps",
];
pub const HOST_CRATES: &[&str] = &["bench", "analyzer"];
/// Deliberately bad inputs, not linted: the rule fixtures of this crate's
/// own tests.
const FIXTURES: &str = "crates/analyzer/tests/fixtures";

/// Classify a workspace crate directory name.
pub fn class_of(crate_name: &str) -> Option<CrateClass> {
    if SIM_CRATES.contains(&crate_name) {
        Some(CrateClass::Sim)
    } else if HOST_CRATES.contains(&crate_name) {
        Some(CrateClass::Host)
    } else {
        None
    }
}

/// The result of linting a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, rule); suppressed ones carry
    /// their justification.
    pub findings: Vec<Finding>,
    /// Number of files linted.
    pub files: usize,
}

impl Report {
    /// Findings that gate the exit code.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed_by.is_none())
    }
}

/// Lint one source text as `rel` with the given class. Lock edges feed
/// `graph`; R6 suppressions are honored by removing the edges their lines
/// create. Returns per-file findings (R6 cycles are workspace-level and
/// reported by [`lint_workspace`]).
pub fn lint_source(
    rel: &str,
    class: CrateClass,
    src: &str,
    graph: &mut LockGraph,
) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    let mut findings = rules::lint_tokens(rel, class, &lexed, graph);
    for s in &lexed.suppressions {
        if s.rules.iter().any(|r| r == "R6") {
            if s.justification.is_empty() {
                findings.push(Finding::new(
                    "SUPPRESS",
                    rel,
                    s.line,
                    "suppression of R6 without justification (write `sovia-lint: allow(R6) -- <why>`)"
                        .to_string(),
                ));
            } else {
                // The comment covers its own line and the next one.
                graph.remove_site(rel, s.line);
                graph.remove_site(rel, s.line + 1);
            }
        }
    }
    apply_suppressions(rel, &mut findings, &lexed.suppressions);
    findings
}

/// Walk the workspace at `root` and lint every classified crate's `src/`
/// tree, and every crate's `tests/` plus the root `tests/` and `examples/`
/// for R7 only ([`CrateClass::Test`]). `compat/` shims carry no rules.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut graph = LockGraph::default();

    // crate dir -> class, in deterministic order.
    let mut targets: BTreeMap<String, (PathBuf, CrateClass)> = BTreeMap::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in sorted_dir(&crates_dir)? {
            let name = entry
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            if let Some(class) = class_of(&name) {
                let src = entry.join("src");
                if src.is_dir() {
                    targets.insert(format!("crates/{name}"), (src, class));
                }
            }
            let tests = entry.join("tests");
            if tests.is_dir() {
                targets.insert(format!("crates/{name}/tests"), (tests, CrateClass::Test));
            }
        }
    }
    // The umbrella crate (testbed builders) is sim-facing.
    let root_src = root.join("src");
    if root_src.is_dir() {
        targets.insert("src".to_string(), (root_src, CrateClass::Sim));
    }
    for dir in ["tests", "examples"] {
        if root.join(dir).is_dir() {
            targets.insert(dir.to_string(), (root.join(dir), CrateClass::Test));
        }
    }

    for (prefix, (dir, class)) in &targets {
        for file in rust_files(dir)? {
            if file.starts_with(root.join(FIXTURES)) {
                continue;
            }
            let rel = format!(
                "{prefix}/{}",
                file.strip_prefix(dir).unwrap_or(&file).display()
            );
            let src = std::fs::read_to_string(&file)?;
            report.files += 1;
            report
                .findings
                .extend(lint_source(&rel, *class, &src, &mut graph));
        }
    }

    for cycle in graph.cycles() {
        let site = cycle
            .edges
            .first()
            .map(|e| (e.file.clone(), e.line))
            .unwrap_or_default();
        let hops = cycle
            .edges
            .iter()
            .map(|e| {
                format!(
                    "{}->{} ({} in {}:{})",
                    e.from, e.to, e.function, e.file, e.line
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        report.findings.push(Finding::new(
            "R6",
            &site.0,
            site.1,
            format!(
                "lock-order cycle {}: {} — opposite acquisition orders can deadlock",
                cycle.nodes.join(" -> "),
                hops
            ),
        ));
    }

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok(report)
}

fn sorted_dir(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    Ok(entries)
}

/// All `.rs` files under `dir`, recursively, in deterministic order.
fn rust_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for p in sorted_dir(&d)? {
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}
