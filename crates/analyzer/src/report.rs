//! Findings, suppression matching, and output rendering.

use crate::lexer::Suppression;

/// How a file's crate is classified (DESIGN.md §10 crate-class table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateClass {
    /// Simulation code: must be reproducible from the seed alone.
    Sim,
    /// Host-side tooling (bench harness, this linter): may touch the
    /// wall clock and OS threads; still participates in the lock graph.
    Host,
    /// Integration tests and examples: they run simulations too, so R7
    /// applies to them, and nothing else does. Their locks stay out of the
    /// workspace lock graph (R6).
    Test,
}

impl CrateClass {
    pub fn as_str(self) -> &'static str {
        match self {
            CrateClass::Sim => "sim",
            CrateClass::Host => "host",
            CrateClass::Test => "test",
        }
    }
}

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// `R1`..`R7`, or `SUPPRESS` for suppression-grammar violations.
    pub rule: String,
    pub file: String,
    pub line: u32,
    pub message: String,
    /// Justification text if an `allow` comment matched this finding.
    pub suppressed_by: Option<String>,
}

impl Finding {
    pub fn new(rule: &str, file: &str, line: u32, message: String) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            message,
            suppressed_by: None,
        }
    }
}

/// Match findings against a file's suppression comments. A suppression on
/// line L covers findings on L (trailing comment) and L+1 (comment line
/// above). Suppressions naming a rule without a justification become
/// findings themselves: the audit trail is the point.
pub fn apply_suppressions(file: &str, findings: &mut [Finding], suppressions: &[Suppression]) {
    for f in findings.iter_mut() {
        if f.rule == "SUPPRESS" {
            continue;
        }
        let hit = suppressions
            .iter()
            .find(|s| (s.line == f.line || s.line + 1 == f.line) && s.rules.contains(&f.rule));
        if let Some(s) = hit {
            if s.justification.is_empty() {
                f.message = format!(
                    "suppression of {} without justification (write `sovia-lint: allow({}) -- <why>`): {}",
                    f.rule, f.rule, f.message
                );
                f.rule = "SUPPRESS".to_string();
            } else {
                f.suppressed_by = Some(s.justification.clone());
            }
        }
    }
    let _ = file;
}

/// Render a finding for humans.
pub fn render_human(f: &Finding) -> String {
    format!("{}:{}: {}: {}", f.file, f.line, f.rule, f.message)
}

/// Minimal JSON string escaping.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a finding as a JSON object.
pub fn render_json(f: &Finding) -> String {
    let suppressed = match &f.suppressed_by {
        Some(j) => format!(",\"suppressed\":true,\"justification\":\"{}\"", json_escape(j)),
        None => ",\"suppressed\":false".to_string(),
    };
    format!(
        "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"{}}}",
        json_escape(&f.rule),
        json_escape(&f.file),
        f.line,
        json_escape(&f.message),
        suppressed
    )
}
