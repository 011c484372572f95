//! The determinism-discipline rules (DESIGN.md §10).
//!
//! | rule | sim crates | what it forbids |
//! |------|-----------|------------------|
//! | R1   | yes       | wall-clock time (`std::time::{Instant,SystemTime}`) |
//! | R2   | yes       | OS threads & std sync (`std::thread`, `std::sync::{Mutex,Condvar,mpsc}`) |
//! | R3   | yes       | unordered iteration of `HashMap`/`HashSet` |
//! | R4   | yes       | host randomness (`rand::*`, `DefaultHasher`, `RandomState`) |
//! | R5   | yes       | `unwrap()`/`expect()` on fallible-API error paths |
//! | R6   | all       | nested `lock()` acquisition cycles (workspace graph) |
//! | R7   | yes       | a lock guard alive across a call that may park (`SimCtx` blocking methods, any call handed the context) |
//!
//! Integration tests and examples ([`CrateClass::Test`]) run simulations
//! too, so R7 covers them as well; R1–R6 do not.
//!
//! Detection is import-driven: a banned item reaches code either through a
//! `use` (flagged at the import, however renamed) or as an inline
//! qualified path (flagged at the mention). A suppression on a `use` line
//! blesses every name that import introduces, so one audited
//! justification covers the file's legitimate uses.

use crate::lexer::{Lexed, Tok, Token};
use crate::lockgraph::LockGraph;
use crate::report::{CrateClass, Finding};
use crate::uses::{parse_uses, UseEntry};

/// Items banned outright in sim crates, as full paths.
const BANNED_ITEMS: &[(&str, &[&str], &str)] = &[
    ("R1", &["std", "time", "Instant"], "wall-clock time"),
    ("R1", &["std", "time", "SystemTime"], "wall-clock time"),
    ("R2", &["std", "sync", "Mutex"], "OS-level blocking (use dsim::sync or parking_lot via the runner)"),
    ("R2", &["std", "sync", "Condvar"], "OS-level blocking (use dsim::sync::SimCondvar)"),
    ("R4", &["std", "collections", "hash_map", "DefaultHasher"], "host-seeded hashing"),
    ("R4", &["std", "hash", "DefaultHasher"], "host-seeded hashing"),
    ("R4", &["std", "collections", "hash_map", "RandomState"], "host-seeded hashing"),
    ("R4", &["std", "hash", "RandomState"], "host-seeded hashing"),
];

/// Module prefixes banned in sim crates: any path below them is a hit.
const BANNED_PREFIXES: &[(&str, &[&str], &str)] = &[
    ("R2", &["std", "thread"], "OS threads (processes belong to the dsim runner)"),
    ("R2", &["std", "sync", "mpsc"], "OS channels (use dsim::sync::SimQueue)"),
    ("R4", &["rand"], "host randomness (use dsim::rng::SimRng, explicitly seeded)"),
];

/// Hash container types whose unordered iteration R3 forbids.
const HASH_TYPES: &[&[&str]] = &[
    &["std", "collections", "HashMap"],
    &["std", "collections", "HashSet"],
    &["std", "collections", "hash_map", "HashMap"],
    &["std", "collections", "hash_set", "HashSet"],
];

/// Methods that iterate a map in storage order.
const ITER_METHODS: &[&str] = &[
    "iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain", "retain",
    "into_keys", "into_values",
];

/// Methods a lock/ref wrapper interposes between a binding and the map.
const PASS_THROUGH: &[&str] = &["lock", "borrow", "borrow_mut", "read", "write"];

/// Fallible workspace APIs whose `Result` R5 refuses to see unwrapped:
/// the error-path surface of the socket/VIPL/OS layers.
const FALLIBLE_APIS: &[&str] = &[
    "connect", "accept", "bind", "listen", "send", "recv", "send_all", "send_wait", "recv_wait",
    "post_send", "post_recv", "prepost", "open", "read", "write", "read_exact", "write_all", "read_line",
    "write_line", "file_len", "validate", "connect_request", "connect_accept", "register",
    "close", "shutdown", "spawn", "run", "run_with_limit", "wait_established",
];

/// Blocking `SimCtx` methods that park the calling process whatever their
/// arguments (R7).
const PARKING_CALLS: &[&str] = &["park", "sleep", "charge", "yield_now"];

/// Lint one file's token stream. `rel` is the workspace-relative path used
/// in diagnostics. Lock acquisitions feed the workspace-wide `graph`.
pub fn lint_tokens(
    rel: &str,
    class: CrateClass,
    lexed: &Lexed,
    graph: &mut LockGraph,
) -> Vec<Finding> {
    let tokens = &lexed.tokens;
    let (uses, use_ranges) = parse_uses(tokens);
    let mut findings = Vec::new();

    for (line, text) in &lexed.malformed {
        findings.push(Finding::new(
            "SUPPRESS",
            rel,
            *line,
            format!("malformed sovia-lint comment: `{text}` (expected `allow(<rules>) -- <justification>`)"),
        ));
    }

    if class == CrateClass::Sim {
        check_imports(rel, &uses, &mut findings);
        check_inline_paths(rel, tokens, &use_ranges, &uses, &mut findings);
        check_hash_iteration(rel, tokens, &use_ranges, &uses, &mut findings);
        check_unwraps(rel, tokens, &mut findings);
    }
    let r7 = (class != CrateClass::Host).then_some(&mut findings);
    // Test code's locks add no edges to the workspace graph (R6).
    let mut own_graph = LockGraph::default();
    let graph = if class == CrateClass::Test {
        &mut own_graph
    } else {
        graph
    };
    collect_locks(rel, tokens, graph, r7);
    findings
}

fn path_eq(path: &[String], target: &[&str]) -> bool {
    path.len() == target.len() && path.iter().zip(target).all(|(a, b)| a == b)
}

fn path_starts_with(path: &[String], prefix: &[&str]) -> bool {
    path.len() >= prefix.len() && path.iter().zip(prefix).all(|(a, b)| a == b)
}

/// Does the (static) banned path start with the (parsed) glob module?
fn banned_under_glob(banned: &[&str], glob_module: &[String]) -> bool {
    banned.len() >= glob_module.len()
        && glob_module.iter().zip(banned).all(|(a, b)| a == b)
}

/// R1/R2/R4 at the import: flag `use` entries that name or glob a banned
/// item or module.
fn check_imports(rel: &str, uses: &[UseEntry], findings: &mut Vec<Finding>) {
    for u in uses {
        for (rule, item, why) in BANNED_ITEMS {
            if path_eq(&u.path, item) || (u.glob && banned_under_glob(item, &u.path)) {
                findings.push(Finding::new(
                    rule,
                    rel,
                    u.line,
                    format!("import of `{}` in sim code: {}", item.join("::"), why),
                ));
            }
        }
        for (rule, prefix, why) in BANNED_PREFIXES {
            if path_starts_with(&u.path, prefix)
                || (u.glob && banned_under_glob(prefix, &u.path))
            {
                findings.push(Finding::new(
                    rule,
                    rel,
                    u.line,
                    format!("import from `{}` in sim code: {}", prefix.join("::"), why),
                ));
            }
        }
    }
}


/// R1/R2/R4 inline: scan qualified paths in code (`std::time::Instant`,
/// or `time::Instant` where `time` resolves through an import).
fn check_inline_paths(
    rel: &str,
    tokens: &[Token],
    use_ranges: &[(usize, usize)],
    uses: &[UseEntry],
    findings: &mut Vec<Finding>,
) {
    let mut i = 0;
    while i < tokens.len() {
        if inside(use_ranges, i) {
            i += 1;
            continue;
        }
        // A path starts at an identifier not preceded by `.` (method) or
        // by `::` (mid-path).
        if tokens[i].ident().is_some() && !preceded_by_path_sep(tokens, i) {
            let (segs, line, end) = read_path(tokens, i);
            if segs.len() >= 2 && !import_already_flagged(&segs[0], uses) {
                let resolved = resolve(&segs, uses);
                for (rule, item, why) in BANNED_ITEMS {
                    // Match the item exactly or as a prefix (covers
                    // `std::time::Instant::now`).
                    if path_starts_with(&resolved, item) {
                        findings.push(Finding::new(
                            rule,
                            rel,
                            line,
                            format!("use of `{}` in sim code: {}", item.join("::"), why),
                        ));
                    }
                }
                for (rule, prefix, why) in BANNED_PREFIXES {
                    if path_starts_with(&resolved, prefix) {
                        findings.push(Finding::new(
                            rule,
                            rel,
                            line,
                            format!("use of `{}` in sim code: {}", prefix.join("::"), why),
                        ));
                    }
                }
            }
            i = end;
        } else {
            i += 1;
        }
    }
}

fn inside(ranges: &[(usize, usize)], i: usize) -> bool {
    ranges.iter().any(|&(a, b)| i >= a && i < b)
}

fn preceded_by_path_sep(tokens: &[Token], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    tokens[i - 1].is_punct('.')
        || (i >= 2 && tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':'))
}

/// Read a `::`-joined path starting at `i`; returns (segments, first
/// line, index past the path).
fn read_path(tokens: &[Token], mut i: usize) -> (Vec<String>, u32, usize) {
    let line = tokens[i].line;
    let mut segs = Vec::new();
    while let Some(Tok::Ident(s)) = tokens.get(i).map(|t| &t.tok) {
        segs.push(s.clone());
        i += 1;
        if i + 1 < tokens.len() && tokens[i].is_punct(':') && tokens[i + 1].is_punct(':') {
            i += 2;
            // Skip turbofish / generic segments: `::<...>`.
            if i < tokens.len() && tokens[i].is_punct('<') {
                break;
            }
        } else {
            break;
        }
    }
    (segs, line, i)
}

/// True when the path's first segment came from an import that is itself
/// a banned item/prefix: that import was already flagged (or blessed by a
/// justified suppression on the `use` line), so re-flagging every usage
/// would only be noise.
fn import_already_flagged(first_seg: &str, uses: &[UseEntry]) -> bool {
    uses.iter().any(|u| {
        !u.glob
            && u.local == first_seg
            && (BANNED_ITEMS.iter().any(|(_, item, _)| path_eq(&u.path, item))
                || BANNED_PREFIXES
                    .iter()
                    .any(|(_, prefix, _)| path_starts_with(&u.path, prefix)))
    })
}

/// Resolve a source path against the file's imports: if the first segment
/// was introduced by `use`, substitute its full path.
fn resolve(segs: &[String], uses: &[UseEntry]) -> Vec<String> {
    if let Some(u) = uses.iter().find(|u| !u.glob && u.local == segs[0]) {
        let mut out = u.path.clone();
        out.extend(segs[1..].iter().cloned());
        return out;
    }
    segs.to_vec()
}

/// R3: find identifiers bound to hash-container types, then flag any
/// storage-order iteration reached through them.
fn check_hash_iteration(
    rel: &str,
    tokens: &[Token],
    use_ranges: &[(usize, usize)],
    uses: &[UseEntry],
    findings: &mut Vec<Finding>,
) {
    // Local names that denote HashMap/HashSet (via import or alias).
    let mut type_names: Vec<String> = Vec::new();
    for u in uses {
        if HASH_TYPES.iter().any(|t| path_eq(&u.path, t)) {
            type_names.push(u.local.clone());
        }
        if u.glob && path_eq(&u.path, &["std", "collections"]) {
            findings.push(Finding::new(
                "R3",
                rel,
                u.line,
                "glob import of `std::collections` obscures hash-container bindings".to_string(),
            ));
        }
    }
    for raw in ["HashMap", "HashSet"] {
        // Inline `std::collections::HashMap<...>` without an import.
        if !type_names.iter().any(|n| n == raw) {
            type_names.push(raw.to_string());
        }
    }

    // Bindings: `name: [wrappers<]HashMap<..` or `name = HashMap::new()`.
    let mut maps: Vec<String> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        if !type_names.iter().any(|n| n == id) {
            continue;
        }
        if inside(use_ranges, i) {
            continue;
        }
        // Only a *type position* mention (followed by `<`, `::new`, or
        // `::from`) declares a binding.
        if let Some(owner) = binding_owner(tokens, i) {
            if !maps.contains(&owner) {
                maps.push(owner);
            }
        }
    }

    // Iteration through a bound name: `name[.pass_through()]*.iter()` etc.
    let mut i = 0;
    while i < tokens.len() {
        let Some(id) = tokens[i].ident() else {
            i += 1;
            continue;
        };
        // Field access (`self.conns`) is the main pattern, so `.`-preceded
        // mentions stay in; only same-named method calls (`conns(...)`)
        // and path segments (`foo::conns`) are excluded.
        let is_method_call = tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
        let is_path_seg = i >= 2 && tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':');
        if maps.iter().any(|m| m == id) && !is_method_call && !is_path_seg {
            if let Some((meth, line)) = chain_reaches_iteration(tokens, i) {
                findings.push(Finding::new(
                    "R3",
                    rel,
                    line,
                    format!(
                        "unordered iteration of hash container `{id}` (`.{meth}()`): use BTreeMap/BTreeSet or sort before use"
                    ),
                ));
                i += 1;
                continue;
            }
            if let Some(line) = for_loop_over(tokens, i) {
                findings.push(Finding::new(
                    "R3",
                    rel,
                    line,
                    format!("`for` loop over hash container `{id}`: use BTreeMap/BTreeSet or sort before use"),
                ));
            }
        }
        i += 1;
    }
}

/// If the hash-type mention at `i` declares a binding, return the bound
/// identifier: walk back over `<`, wrapper type names, and `:`/`=` to the
/// owner name.
fn binding_owner(tokens: &[Token], i: usize) -> Option<String> {
    let next = tokens.get(i + 1)?;
    let is_type_pos = next.is_punct('<')
        || (next.is_punct(':')
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && tokens
                .get(i + 3)
                .is_some_and(|t| t.is_ident("new") || t.is_ident("from") || t.is_ident("with_capacity") || t.is_ident("default")));
    if !is_type_pos {
        return None;
    }
    // Walk backwards: skip wrapper generics (`Mutex<`, `Arc<`, ...) and
    // path prefixes until the `:`/`=` that ties the type to a name.
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &tokens[j];
        match &t.tok {
            Tok::Punct('<') | Tok::Punct(':') | Tok::Punct(',') => continue,
            Tok::Ident(id) => {
                let n1 = tokens.get(j + 1);
                let n2 = tokens.get(j + 2);
                // Wrapper generic (`Mutex<`) or path segment (`std::`):
                // keep walking left.
                if n1.is_some_and(|t| t.is_punct('<')) {
                    continue;
                }
                if n1.is_some_and(|t| t.is_punct(':')) && n2.is_some_and(|t| t.is_punct(':')) {
                    continue;
                }
                // `name : Type` — the binding we are looking for.
                if n1.is_some_and(|t| t.is_punct(':')) && id != "mut" && id != "let" {
                    return Some(id.clone());
                }
                return None;
            }
            Tok::Punct('=') => {
                // `let [mut] name = HashMap::new()`.
                let mut k = j;
                while k > 0 {
                    k -= 1;
                    if let Some(id) = tokens[k].ident() {
                        if id == "mut" {
                            continue;
                        }
                        return Some(id.to_string());
                    }
                    return None;
                }
                return None;
            }
            _ => return None,
        }
    }
    None
}

/// From the binding mention at `i`, follow a method chain; if it reaches
/// an iterating method through only pass-through methods/fields, return it.
fn chain_reaches_iteration(tokens: &[Token], i: usize) -> Option<(String, u32)> {
    let mut j = i + 1;
    loop {
        if !tokens.get(j)?.is_punct('.') {
            return None;
        }
        let m = tokens.get(j + 1)?.ident()?.to_string();
        let line = tokens[j + 1].line;
        let has_args = tokens.get(j + 2).is_some_and(|t| t.is_punct('('));
        if ITER_METHODS.contains(&m.as_str()) && has_args {
            return Some((m, line));
        }
        if !PASS_THROUGH.contains(&m.as_str()) || !has_args {
            return None;
        }
        j = skip_parens(tokens, j + 2)?;
    }
}

/// If the binding at `i` is the sequence of a `for … in [&[mut]] name
/// [pass-through]* {`, return the loop line.
fn for_loop_over(tokens: &[Token], i: usize) -> Option<u32> {
    // Look backwards for `in`, allowing `&`/`mut` between.
    let mut j = i;
    loop {
        if j == 0 {
            return None;
        }
        j -= 1;
        match &tokens[j].tok {
            Tok::Punct('&') | Tok::Punct('.') => continue,
            Tok::Ident(s) if s == "mut" || s == "self" => continue,
            Tok::Ident(s) if s == "in" => break,
            // A receiver segment (`for x in peer.conns`): keep walking.
            Tok::Ident(_) if tokens.get(j + 1).is_some_and(|t| t.is_punct('.')) => continue,
            _ => return None,
        }
    }
    // Forward from the name: optional pass-through calls, then `{`.
    let mut k = i + 1;
    loop {
        let t = tokens.get(k)?;
        if t.is_punct('{') {
            return Some(tokens[i].line);
        }
        if t.is_punct('.') {
            let m = tokens.get(k + 1)?.ident()?;
            if PASS_THROUGH.contains(&m) && tokens.get(k + 2).is_some_and(|t| t.is_punct('(')) {
                k = skip_parens(tokens, k + 2)?;
                continue;
            }
            return None;
        }
        return None;
    }
}

/// `i` must be at `(`; return the index just past the matching `)`.
fn skip_parens(tokens: &[Token], i: usize) -> Option<usize> {
    if !tokens.get(i)?.is_punct('(') {
        return None;
    }
    let mut depth = 0usize;
    let mut j = i;
    while j < tokens.len() {
        if tokens[j].is_punct('(') {
            depth += 1;
        } else if tokens[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        }
        j += 1;
    }
    None
}

/// R5: `.fallible(args).unwrap()` / `.expect(…)` on the error-path
/// surface.
fn check_unwraps(rel: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    let mut i = 0;
    while i + 2 < tokens.len() {
        let is_call = tokens[i].is_punct('.')
            && tokens[i + 1]
                .ident()
                .is_some_and(|m| FALLIBLE_APIS.contains(&m))
            && tokens[i + 2].is_punct('(');
        if !is_call {
            i += 1;
            continue;
        }
        let meth = tokens[i + 1].ident().unwrap_or_default().to_string();
        let Some(after) = skip_parens(tokens, i + 2) else {
            break;
        };
        if tokens.get(after).is_some_and(|t| t.is_punct('.')) {
            if let Some(u) = tokens.get(after + 1).and_then(|t| t.ident()) {
                if u == "unwrap" || u == "expect" {
                    findings.push(Finding::new(
                        "R5",
                        rel,
                        tokens[after + 1].line,
                        format!(
                            "`{u}()` on fallible `{meth}()`: propagate the typed error (VipError/SockError/OsError) instead"
                        ),
                    ));
                }
            }
        }
        // Step token-by-token: the argument list may itself contain
        // fallible calls (e.g. inside a spawned closure).
        i += 1;
    }
}

/// R6 data collection: record lock acquisitions and which locks are held
/// at each acquisition point, per function. With `r7` set, also report
/// guards held across a blocking call.
fn collect_locks(
    rel: &str,
    tokens: &[Token],
    graph: &mut LockGraph,
    mut r7: Option<&mut Vec<Finding>>,
) {
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") {
            if let Some(name) = tokens.get(i + 1).and_then(|t| t.ident()) {
                let fn_name = name.to_string();
                if let Some(body_start) = find_body(tokens, i + 2) {
                    let body_end = match_brace(tokens, body_start);
                    let scope = (body_start, body_end);
                    scan_fn_locks(rel, &fn_name, tokens, scope, graph, r7.as_deref_mut());
                    i = body_end;
                    continue;
                }
            }
        }
        i += 1;
    }
}

/// From just past `fn name`, find the opening `{` of the body (skipping
/// generics, parameters, return type). Returns `None` for trait methods
/// without bodies.
fn find_body(tokens: &[Token], mut i: usize) -> Option<usize> {
    let mut angle = 0i32;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_punct('(') && angle <= 0 {
            i = skip_parens(tokens, i)?;
            // After params: `-> Type` and/or `where`, then `{` or `;`.
            while i < tokens.len() {
                if tokens[i].is_punct('{') {
                    return Some(i);
                }
                if tokens[i].is_punct(';') {
                    return None;
                }
                i += 1;
            }
            return None;
        } else if t.is_punct(';') || t.is_punct('{') {
            return None;
        }
        i += 1;
    }
    None
}

fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct('{') {
            depth += 1;
        } else if tokens[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    tokens.len() - 1
}

/// A held lock inside a function scan.
struct Held {
    lock: String,
    /// `Some(brace_depth)` for a `let`-bound guard (lives to end of its
    /// block); `None` for a temporary (lives to end of statement).
    guard_depth: Option<i32>,
    /// The pattern name a `let` guard is bound to (for `drop(name)`).
    bound: Option<String>,
}

fn scan_fn_locks(
    rel: &str,
    fn_name: &str,
    tokens: &[Token],
    (start, end): (usize, usize),
    graph: &mut LockGraph,
    mut r7: Option<&mut Vec<Finding>>,
) {
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0i32;
    let mut stmt_start = start + 1;
    let mut i = start;
    while i <= end {
        let t = &tokens[i];
        if t.is_punct('{') {
            depth += 1;
            held.retain(|h| h.guard_depth.is_some());
            stmt_start = i + 1;
        } else if t.is_punct('}') {
            // Block end drops temporaries and every guard born in it.
            held.retain(|h| h.guard_depth.is_some_and(|d| d < depth));
            depth -= 1;
            stmt_start = i + 1;
        } else if t.is_punct(';') {
            held.retain(|h| h.guard_depth.is_some());
            stmt_start = i + 1;
        } else if t.is_ident("move")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('|'))
        {
            // A `move |...| { ... }` closure body executes later (on
            // another thread or as a deferred event): guards held at the
            // construction site do not carry into it. Scan the body as
            // its own scope and skip it in this walk.
            let mut j = i + 2;
            if !tokens.get(j).is_some_and(|t| t.is_punct('|')) {
                while j <= end && !tokens[j].is_punct('|') {
                    j += 1;
                }
            }
            if tokens.get(j + 1).is_some_and(|t| t.is_punct('{')) {
                let body_end = match_brace(tokens, j + 1);
                let scope = (j + 1, body_end);
                scan_fn_locks(rel, fn_name, tokens, scope, graph, r7.as_deref_mut());
                i = body_end + 1;
                stmt_start = i;
                continue;
            }
        } else if t.is_ident("drop")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            if let Some(name) = tokens.get(i + 2).and_then(|t| t.ident()) {
                held.retain(|h| h.bound.as_deref() != Some(name));
            }
        } else if t.is_ident("lock")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            && i >= 2
            && tokens[i - 1].is_punct('.')
        {
            // `<recv>.lock()`: the lock name is the field before `.lock`.
            if let Some(lock) = tokens[i - 2].ident().filter(|s| *s != "self") {
                record_acquisition(rel, fn_name, tokens, i, stmt_start, depth, lock, &mut held, graph);
            }
        } else if let (Some(findings), Some(call), Some(h)) =
            (r7.as_deref_mut(), parking_call(tokens, i), held.first())
        {
            findings.push(Finding::new(
                "R7",
                rel,
                t.line,
                format!(
                    "`{}` lock guard alive across `{call}(…)`, which may park: every process runs \
                     on one thread, so another process locking it deadlocks the simulation; drop \
                     the guard before the call",
                    h.lock
                ),
            ));
        } else if let Some(pfx) = t
            .ident()
            .and_then(|s| s.strip_suffix("_lock"))
            .filter(|p| !p.is_empty())
        {
            // Accessor methods named `<field>_lock()` return a guard too.
            if tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                let pfx = pfx.to_string();
                record_acquisition(rel, fn_name, tokens, i, stmt_start, depth, &pfx, &mut held, graph);
            }
        }
        i += 1;
    }
}

/// If `tokens[i]` names a call that may park the calling process, return
/// its name: a `SimCtx` method from [`PARKING_CALLS`] (`.sleep(d)`,
/// `.charge(layer, kind, d, tag)`), or any call, method or plain, whose
/// first argument is the process context (by convention `ctx`, `cctx`,
/// …): `.pop(ctx)`, `pool.write_slot(ctx, …)`, `handler(ctx, frame)`.
/// Whatever takes the context may charge a cost, and charging a cost
/// parks. `vec.pop()` or `buf.pop_into_vec(n)` is no such call.
fn parking_call(tokens: &[Token], i: usize) -> Option<&str> {
    let name = tokens[i].ident()?;
    if !tokens.get(i + 1)?.is_punct('(') || (i > 0 && tokens[i - 1].is_ident("fn")) {
        return None;
    }
    let method = i > 0 && tokens[i - 1].is_punct('.');
    // The first argument, past any `&`/`*`/`mut`, must be the bare context.
    let prefix = |t: &Token| t.is_punct('&') || t.is_punct('*') || t.is_ident("mut");
    let j = (i + 2..tokens.len()).find(|&j| !prefix(&tokens[j]))?;
    let ctx_arg = tokens[j].ident().is_some_and(|a| a.ends_with("ctx"));
    let next = tokens.get(j + 1);
    let arg_ends = next.is_some_and(|t| t.is_punct(',') || t.is_punct(')'));
    let parks = (method && PARKING_CALLS.contains(&name)) || (ctx_arg && arg_ends);
    parks.then_some(name)
}

#[allow(clippy::too_many_arguments)]
fn record_acquisition(
    rel: &str,
    fn_name: &str,
    tokens: &[Token],
    i: usize,
    stmt_start: usize,
    depth: i32,
    lock: &str,
    held: &mut Vec<Held>,
    graph: &mut LockGraph,
) {
    let line = tokens[i].line;
    for h in held.iter() {
        graph.add_edge(&h.lock, lock, rel, fn_name, line);
    }
    // Let-bound guard iff the statement opens with `let` and the chain
    // ends right after `lock()` (a trailing method call would drop the
    // temporary at statement end).
    let is_let = tokens.get(stmt_start).is_some_and(|t| t.is_ident("let"));
    let after = skip_parens(tokens, i + 1);
    let chain_ends = after
        .and_then(|a| tokens.get(a))
        .is_some_and(|t| t.is_punct(';'));
    // `let x = *self.state.lock();` copies the value out through a deref:
    // what's bound is the copy, and the guard is a temporary dropped at
    // the end of the statement.
    let deref_copy = (stmt_start..i).any(|k| {
        tokens[k].is_punct('=') && tokens.get(k + 1).is_some_and(|t| t.is_punct('*'))
    });
    // A temporary in the head of `if let` / `while let` / `match` / `for`
    // lives until the end of the block that follows.
    let head = if tokens.get(stmt_start).is_some_and(|t| t.is_ident("else")) {
        stmt_start + 1
    } else {
        stmt_start
    };
    let in_block_head = tokens.get(head).is_some_and(|t| {
        t.is_ident("match")
            || t.is_ident("for")
            || ((t.is_ident("if") || t.is_ident("while"))
                && tokens.get(head + 1).is_some_and(|t| t.is_ident("let")))
    });
    let (guard_depth, bound) = if in_block_head {
        (Some(depth + 1), None)
    } else if is_let && chain_ends && !deref_copy {
        let mut k = stmt_start + 1;
        let mut bound = None;
        while k < tokens.len() && k < i {
            if let Some(id) = tokens[k].ident() {
                if id != "mut" {
                    bound = Some(id.to_string());
                    break;
                }
            }
            k += 1;
        }
        (Some(depth), bound)
    } else {
        (None, None)
    };
    held.push(Held {
        lock: lock.to_string(),
        guard_depth,
        bound,
    });
}
