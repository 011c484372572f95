//! Rule-by-rule fixture tests plus the workspace self-run: the
//! determinism discipline is only as good as its enforcement, so every
//! rule must demonstrably fire on a minimal bad snippet, stay quiet on a
//! clean one, and the committed workspace itself must lint clean.

use std::path::Path;

use analyzer::lockgraph::LockGraph;
use analyzer::report::{CrateClass, Finding};

fn lint(class: CrateClass, src: &str) -> (Vec<Finding>, LockGraph) {
    let mut graph = LockGraph::default();
    let findings = analyzer::lint_source("fixture.rs", class, src, &mut graph);
    (findings, graph)
}

#[test]
fn r1_fires_on_wall_clock() {
    let src = include_str!("fixtures/r1_wallclock.rs");
    let (findings, _) = lint(CrateClass::Sim, src);
    let r1: Vec<_> = findings.iter().filter(|f| f.rule == "R1").collect();
    // The `use std::time::Instant` import and the inline
    // `std::time::SystemTime` paths must both be caught.
    assert!(r1.len() >= 2, "expected >=2 R1 findings, got {findings:?}");
    assert!(findings.iter().all(|f| f.suppressed_by.is_none()));
}

#[test]
fn r2_fires_on_threads_and_std_sync() {
    let src = include_str!("fixtures/r2_threads.rs");
    let (findings, _) = lint(CrateClass::Sim, src);
    let r2: Vec<_> = findings.iter().filter(|f| f.rule == "R2").collect();
    // `use std::sync::Mutex` and the inline `std::thread::spawn`.
    assert!(r2.len() >= 2, "expected >=2 R2 findings, got {findings:?}");
}

#[test]
fn r3_fires_on_hash_iteration_not_keyed_access() {
    let src = include_str!("fixtures/r3_hashmap_iter.rs");
    let (findings, _) = lint(CrateClass::Sim, src);
    let r3: Vec<_> = findings.iter().filter(|f| f.rule == "R3").collect();
    // `.values()` in dump() and the `for … in .iter()` in walk().
    assert!(r3.len() >= 2, "expected >=2 R3 findings, got {findings:?}");
    // lookup() uses keyed `.get()` only — its line must not be flagged.
    let lookup_line = src
        .lines()
        .position(|l| l.contains("map.get"))
        .expect("fixture has map.get") as u32
        + 1;
    assert!(
        r3.iter().all(|f| f.line != lookup_line),
        "keyed access wrongly flagged: {findings:?}"
    );
}

#[test]
fn r4_fires_on_host_randomness() {
    let src = include_str!("fixtures/r4_random.rs");
    let (findings, _) = lint(CrateClass::Sim, src);
    let r4: Vec<_> = findings.iter().filter(|f| f.rule == "R4").collect();
    // The RandomState import and the inline `rand::random()` path.
    assert!(r4.len() >= 2, "expected >=2 R4 findings, got {findings:?}");
}

#[test]
fn r5_fires_on_unwrap_of_fallible_calls() {
    let src = include_str!("fixtures/r5_unwrap.rs");
    let (findings, _) = lint(CrateClass::Sim, src);
    let r5: Vec<_> = findings.iter().filter(|f| f.rule == "R5").collect();
    // `.send_all(..).unwrap()` and `.recv(..).expect(..)`.
    assert_eq!(r5.len(), 2, "expected 2 R5 findings, got {findings:?}");
}

#[test]
fn r6_reports_opposite_acquisition_orders() {
    let src = include_str!("fixtures/r6_lock_cycle.rs");
    let (_, graph) = lint(CrateClass::Sim, src);
    let cycles = graph.cycles();
    assert_eq!(cycles.len(), 1, "expected 1 lock cycle, got {cycles:?}");
    assert!(
        cycles[0].nodes.contains(&"alpha".to_string())
            && cycles[0].nodes.contains(&"beta".to_string()),
        "cycle should involve alpha and beta: {cycles:?}"
    );
}

#[test]
fn r7_fires_on_guard_alive_across_blocking_call() {
    let src = include_str!("fixtures/r7_guard_across_park.rs");
    let (findings, _) = lint(CrateClass::Sim, src);
    let r7_lines: Vec<u32> = findings
        .iter()
        .filter(|f| f.rule == "R7")
        .map(|f| f.line)
        .collect();
    // Exactly the three lines marked `// R7`: the let-bound guards across
    // `sleep` and `charge` and the `if let` scrutinee guard across
    // `pop(ctx)`.
    let marked: Vec<u32> = src
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("// R7"))
        .map(|(i, _)| i as u32 + 1)
        .collect();
    assert_eq!(marked.len(), 3);
    assert_eq!(r7_lines, marked, "R7 findings: {findings:?}");
    // Host crates may block the OS thread however they like.
    let (host, _) = lint(CrateClass::Host, src);
    assert!(
        host.iter().all(|f| f.rule != "R7"),
        "host code flagged: {host:?}"
    );
}

#[test]
fn r7_fires_on_any_call_handed_the_context() {
    let src = include_str!("fixtures/r7_ctx_call_under_guard.rs");
    let (findings, _) = lint(CrateClass::Sim, src);
    let r7: Vec<(u32, &str)> = findings
        .iter()
        .filter(|f| f.rule == "R7")
        .map(|f| (f.line, f.message.as_str()))
        .collect();
    // Exactly the lines marked `// R7`: `pool.write_slot(ctx, …)` and the
    // plain call `h(ctx, frame)`. The context-free `store_slot`, the
    // `ctx.now()` argument and the `fn` declarations stay quiet.
    let marked: Vec<u32> = src
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("// R7"))
        .map(|(i, _)| i as u32 + 1)
        .collect();
    assert_eq!(marked.len(), 2);
    let lines: Vec<u32> = r7.iter().map(|&(l, _)| l).collect();
    assert_eq!(lines, marked, "{findings:?}");
    assert!(r7[0].1.contains("`combine` lock guard") && r7[0].1.contains("`write_slot(…)`"));
    assert!(r7[1].1.contains("`handler` lock guard") && r7[1].1.contains("`h(…)`"));
}

#[test]
fn tests_and_examples_get_r7_alone() {
    let src = include_str!("fixtures/r7_test_guard_across_send.rs");
    let rules = |f: &[Finding], r: &str| f.iter().filter(|f| f.rule == r).count();
    // As sim code, the fixture breaks R1, R5 and R6 besides R7...
    let (sim, sim_graph) = lint(CrateClass::Sim, src);
    assert!(rules(&sim, "R1") > 0 && rules(&sim, "R5") > 0, "{sim:?}");
    assert_eq!(sim_graph.cycles().len(), 1);
    // ...as a test, it breaks R7 on the marked line and nothing else, and
    // its locks add no edge to the lock graph.
    let (test, test_graph) = lint(CrateClass::Test, src);
    let marked = src.lines().position(|l| l.contains("// R7")).unwrap() as u32 + 1;
    let lines: Vec<(&str, u32)> = test.iter().map(|f| (f.rule.as_str(), f.line)).collect();
    assert_eq!(lines, [("R7", marked)], "{test:?}");
    assert!(test[0].message.contains("`log` lock guard") && test[0].message.contains("`send(…)`"));
    assert!(test_graph.cycles().is_empty());
}

#[test]
fn workspace_walk_covers_tests_and_examples_but_not_fixtures() {
    let src = include_str!("fixtures/r7_test_guard_across_send.rs");
    let root = std::env::temp_dir().join(format!("sovia-lint-walk-{}", std::process::id()));
    let dirs = [
        "tests",
        "examples",
        "crates/apps/tests",
        "crates/analyzer/tests/fixtures",
    ];
    for dir in dirs {
        std::fs::create_dir_all(root.join(dir)).unwrap();
        std::fs::write(root.join(dir).join("probe.rs"), src).unwrap();
    }
    let report = analyzer::lint_workspace(&root);
    std::fs::remove_dir_all(&root).unwrap();
    let report = report.unwrap();
    let hits: Vec<(&str, &str)> = report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.rule.as_str()))
        .collect();
    assert_eq!(
        hits,
        [
            ("crates/apps/tests/probe.rs", "R7"),
            ("examples/probe.rs", "R7"),
            ("tests/probe.rs", "R7"),
        ]
    );
    assert_eq!(report.files, 3);
}

#[test]
fn host_class_is_exempt_from_sim_rules() {
    // The same wall-clock fixture produces nothing when classified as
    // host-side code (bench/analyzer are allowed to time the host).
    let src = include_str!("fixtures/r1_wallclock.rs");
    let (findings, _) = lint(CrateClass::Host, src);
    assert!(findings.is_empty(), "host code wrongly flagged: {findings:?}");
}

#[test]
fn clean_fixture_has_zero_findings() {
    let src = include_str!("fixtures/clean.rs");
    let (findings, graph) = lint(CrateClass::Sim, src);
    assert!(findings.is_empty(), "clean fixture flagged: {findings:?}");
    assert!(graph.cycles().is_empty());
}

#[test]
fn justified_suppression_silences_and_is_recorded() {
    let src = include_str!("fixtures/suppressed_ok.rs");
    let (findings, _) = lint(CrateClass::Sim, src);
    assert!(!findings.is_empty(), "the violation should still be recorded");
    assert!(
        findings.iter().all(|f| f.suppressed_by.is_some()),
        "all findings should be suppressed: {findings:?}"
    );
}

#[test]
fn suppression_without_justification_is_itself_a_finding() {
    let src = include_str!("fixtures/suppressed_missing_justification.rs");
    let (findings, _) = lint(CrateClass::Sim, src);
    let unsuppressed: Vec<_> = findings
        .iter()
        .filter(|f| f.suppressed_by.is_none())
        .collect();
    assert!(
        unsuppressed.iter().any(|f| f.rule == "SUPPRESS"),
        "expected a SUPPRESS finding, got {findings:?}"
    );
}

#[test]
fn cfg_test_items_are_not_linted() {
    let src = r#"
        pub fn fine() {}

        #[cfg(test)]
        mod tests {
            use std::time::Instant;

            #[test]
            fn timing() {
                let _ = Instant::now();
            }
        }
    "#;
    let (findings, _) = lint(CrateClass::Sim, src);
    assert!(findings.is_empty(), "test code wrongly flagged: {findings:?}");
}

#[test]
fn workspace_lints_clean() {
    // The committed tree is the ultimate fixture: zero unsuppressed
    // findings, and every suppression justified.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = analyzer::lint_workspace(&root).expect("workspace walk");
    let unsuppressed: Vec<_> = report.unsuppressed().collect();
    assert!(
        unsuppressed.is_empty(),
        "workspace has unsuppressed findings:\n{}",
        unsuppressed
            .iter()
            .map(|f| format!("{}:{}: {}: {}", f.file, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files > 50, "workspace walk looks truncated");
}
