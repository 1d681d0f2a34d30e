//! Determinism rules for protocol crates.
//!
//! The chaos oracle's strongest promise — byte-identical prefix replay
//! of the same `(scenario, seed)` pair — holds only while every source
//! of nondeterminism stays behind the simulator's virtual clock and
//! seeded `DetRng` (`crates/sim/src/rng.rs`). These rules ban the std
//! escape hatches that would
//! silently break it:
//!
//! * [`wall-clock`](RULE_WALL_CLOCK) — `std::time::Instant` /
//!   `SystemTime`: real time diverges across runs and machines.
//! * [`ambient-rng`](RULE_AMBIENT_RNG) — `rand` / `thread_rng`:
//!   OS-seeded randomness is unreplayable.
//! * [`thread`](RULE_THREAD) — `std::thread::spawn`: scheduling order
//!   is up to the OS, not the event queue.
//! * [`unordered-iter`](RULE_UNORDERED_ITER) — iterating a `HashMap` /
//!   `HashSet`: std randomizes the hasher seed *per process*, so
//!   iteration order can leak into message order and decisions.
//!   Allowed when the site visibly feeds a sort or an order-insensitive
//!   reduction, or carries a `// lint:allow(unordered-iter): reason`
//!   waiver.

use std::collections::BTreeSet;
use std::path::Path;

use crate::report::{Finding, Report, UsedWaiver};
use crate::source::SourceFile;

/// Rule id: wall-clock reads.
pub const RULE_WALL_CLOCK: &str = "wall-clock";
/// Rule id: ambient (OS-seeded) randomness.
pub const RULE_AMBIENT_RNG: &str = "ambient-rng";
/// Rule id: OS threads.
pub const RULE_THREAD: &str = "thread";
/// Rule id: iteration over randomly-ordered collections.
pub const RULE_UNORDERED_ITER: &str = "unordered-iter";
/// Rule id: malformed waiver comments.
pub const RULE_WAIVER: &str = "waiver-syntax";

/// The crates the determinism rules police. Everything at or below the
/// stacks must be bit-deterministic; `chaos`/`core`/`bench` orchestrate
/// runs and may touch the filesystem and wall clock.
pub const PROTOCOL_CRATES: &[&str] = &[
    "sim",
    "trace",
    "net",
    "framework",
    "fd",
    "rbcast",
    "consensus",
    "abcast",
    "mono",
];

/// Banned-token table: `(rule, needle, advice)`. Needles are matched on
/// the comment/string-stripped view with an identifier-boundary check on
/// the left, so `// Instant the handler started` (a comment) and
/// `restart_instant` (an identifier) cannot fire.
const BANNED: &[(&str, &str, &str)] = &[
    (
        RULE_WALL_CLOCK,
        "std::time::Instant",
        "use the simulator's virtual clock (`VTime`/`NodeCtx::now`)",
    ),
    (
        RULE_WALL_CLOCK,
        "std::time::SystemTime",
        "use the simulator's virtual clock (`VTime`/`NodeCtx::now`)",
    ),
    (
        RULE_WALL_CLOCK,
        "Instant::now",
        "use the simulator's virtual clock (`VTime`/`NodeCtx::now`)",
    ),
    (
        RULE_WALL_CLOCK,
        "SystemTime::now",
        "use the simulator's virtual clock (`VTime`/`NodeCtx::now`)",
    ),
    (
        RULE_AMBIENT_RNG,
        "thread_rng",
        "use the seeded `fortika_sim::DetRng` (derive a stream per purpose)",
    ),
    (
        RULE_AMBIENT_RNG,
        "rand::",
        "use the seeded `fortika_sim::DetRng` (derive a stream per purpose)",
    ),
    (
        RULE_THREAD,
        "std::thread::spawn",
        "protocol code runs on the discrete-event loop; schedule an event instead",
    ),
    // The bare spelling (after `use std::thread;`). The left-boundary
    // check rejects `::`-prefixed hits, so the two needles never both
    // fire on one call.
    (
        RULE_THREAD,
        "thread::spawn",
        "protocol code runs on the discrete-event loop; schedule an event instead",
    ),
];

/// Iteration methods that surface `HashMap`/`HashSet` order.
const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".retain(",
];

/// How many lines below an iteration site the scanner looks for a
/// `.sort` call (the collect-then-sort idiom spreads the sink over a
/// few statements).
const SORT_LOOKAHEAD: usize = 12;

/// Runs every determinism rule over one preprocessed file, appending to
/// `report`. `rel` is the workspace-relative path used in diagnostics.
pub fn check_file(src: &SourceFile, rel: &str, report: &mut Report) {
    report.files_scanned += 1;

    // Malformed waivers are violations wherever they appear (including
    // test regions — a broken waiver is never intentional).
    for (line, problem) in &src.bad_waivers {
        report.findings.push(Finding {
            rule: RULE_WAIVER,
            file: rel.to_string(),
            line: *line,
            message: problem.clone(),
        });
    }

    let mut used: BTreeSet<usize> = BTreeSet::new();
    for (idx, line) in src.scan.iter().enumerate() {
        let lineno = idx + 1;
        if src.in_test[idx] {
            continue;
        }
        for (rule, needle, advice) in BANNED {
            if let Some(pos) = find_bounded(line, needle) {
                if src.waived(rule, lineno) {
                    used.insert(lineno);
                    note_waiver(src, rel, rule, lineno, report);
                } else {
                    let token = &line[pos..pos + needle.len()];
                    report.findings.push(Finding {
                        rule,
                        file: rel.to_string(),
                        line: lineno,
                        message: format!("`{token}` is banned in protocol crates: {advice}"),
                    });
                }
            }
        }
    }

    check_unordered_iter(src, rel, report);
}

/// The `unordered-iter` rule: track identifiers declared as `HashMap` /
/// `HashSet`, then flag any line that iterates one unless the site
/// visibly feeds a sort / order-insensitive reduction or is waived.
fn check_unordered_iter(src: &SourceFile, rel: &str, report: &mut Report) {
    let idents = collect_hash_idents(src);
    if idents.is_empty() {
        return;
    }
    for (idx, line) in src.scan.iter().enumerate() {
        let lineno = idx + 1;
        if src.in_test[idx] {
            continue;
        }
        for ident in &idents {
            let hit = iterates(line, ident);
            if !hit {
                continue;
            }
            if src.waived(RULE_UNORDERED_ITER, lineno) {
                note_waiver(src, rel, RULE_UNORDERED_ITER, lineno, report);
            } else if !order_insensitive(src, idx) {
                report.findings.push(Finding {
                    rule: RULE_UNORDERED_ITER,
                    file: rel.to_string(),
                    line: lineno,
                    message: format!(
                        "iteration over the randomly-ordered `{ident}` (HashMap/HashSet) can leak \
                         hasher-seed order into behavior: sort the result, switch to \
                         BTreeMap/BTreeSet, or waive with `// lint:allow(unordered-iter): reason`"
                    ),
                });
            }
        }
    }
}

/// Identifiers (fields, lets, params) declared with a Hash-collection
/// type in non-test code.
fn collect_hash_idents(src: &SourceFile) -> BTreeSet<String> {
    let mut idents = BTreeSet::new();
    for (idx, line) in src.scan.iter().enumerate() {
        if src.in_test[idx] {
            continue;
        }
        // `name: HashMap<...>` (field/param/let-with-type).
        for ty in ["HashMap<", "HashSet<"] {
            let mut from = 0;
            while let Some(p) = line[from..].find(ty) {
                let at = from + p;
                // Reject qualified paths like `other::HashMap<` only when
                // the qualifier is not std's collections module.
                if let Some(name) = ident_before_colon(line, at) {
                    idents.insert(name);
                }
                from = at + ty.len();
            }
        }
        // `let [mut] name = HashMap::new()` / `HashSet::with_capacity`.
        for ctor in [
            "HashMap::new",
            "HashMap::with_capacity",
            "HashMap::default",
            "HashSet::new",
            "HashSet::with_capacity",
            "HashSet::default",
        ] {
            if line.contains(ctor) {
                if let Some(name) = let_binding_name(line) {
                    idents.insert(name);
                }
            }
        }
    }
    idents
}

/// For `... name: [std::collections::]HashMap<` at byte `at` of the
/// type name, walk left to the `:` and capture the identifier.
fn ident_before_colon(line: &str, at: usize) -> Option<String> {
    let bytes = line.as_bytes();
    let mut i = at;
    // Skip a `std::collections::` (or any) path qualifier.
    while i >= 2 && &line[i - 2..i] == "::" {
        i -= 2;
        while i > 0 && is_ident_char(bytes[i - 1] as char) {
            i -= 1;
        }
    }
    // Expect optional whitespace then a single `:`.
    while i > 0 && (bytes[i - 1] as char).is_whitespace() {
        i -= 1;
    }
    if i == 0 || bytes[i - 1] as char != ':' || (i >= 2 && bytes[i - 2] as char == ':') {
        return None;
    }
    i -= 1;
    while i > 0 && (bytes[i - 1] as char).is_whitespace() {
        i -= 1;
    }
    let end = i;
    while i > 0 && is_ident_char(bytes[i - 1] as char) {
        i -= 1;
    }
    if i == end {
        return None;
    }
    Some(line[i..end].to_string())
}

/// The bound name of a `let [mut] name = ...` line.
fn let_binding_name(line: &str) -> Option<String> {
    let t = line.trim_start();
    let rest = t.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let end = rest.find(|c: char| !is_ident_char(c))?;
    let name = &rest[..end];
    (!name.is_empty()).then(|| name.to_string())
}

/// True when `line` iterates `ident`: `ident.iter()`-style method calls
/// or `for ... in [&[mut ]]ident`.
fn iterates(line: &str, ident: &str) -> bool {
    let mut from = 0;
    while let Some(p) = line[from..].find(ident) {
        let at = from + p;
        let left_ok = at == 0 || !is_ident_char(line.as_bytes()[at - 1] as char);
        let after = &line[at + ident.len()..];
        if left_ok {
            for m in ITER_METHODS {
                if after.starts_with(m) {
                    return true;
                }
            }
        }
        from = at + ident.len();
    }
    // `for x in &map {` / `for x in map {` (map moved or auto-ref'd).
    if let Some(inpos) = line.find(" in ") {
        if line.trim_start().starts_with("for ") {
            let mut expr = line[inpos + 4..].trim();
            if let Some(brace) = expr.find('{') {
                expr = expr[..brace].trim();
            }
            expr = expr
                .strip_prefix("&mut ")
                .or_else(|| expr.strip_prefix('&'))
                .unwrap_or(expr);
            // Allow `self.`/receiver-qualified spellings.
            let last = expr.rsplit('.').next().unwrap_or(expr);
            if last == ident {
                return true;
            }
        }
    }
    false
}

/// True when the statement starting at line `idx` visibly neutralizes
/// iteration order: a `.sort` within [`SORT_LOOKAHEAD`] lines below
/// (collect-then-sort), or a same-statement order-insensitive reduction
/// (`count`/`sum`/`all`/`any`/`min()`/`max()`) or a collect into an
/// ordered container.
fn order_insensitive(src: &SourceFile, idx: usize) -> bool {
    // Same statement: to the first `;` (or 6 lines, whichever first).
    let mut stmt = String::new();
    for line in src.scan.iter().skip(idx).take(6) {
        stmt.push_str(line);
        stmt.push('\n');
        if line.contains(';') {
            break;
        }
    }
    const REDUCTIONS: &[&str] = &[
        ".count()",
        ".sum()",
        ".sum::<",
        ".all(",
        ".any(",
        ".min()",
        ".max()",
        ".collect::<BTreeSet",
        ".collect::<BTreeMap",
        ": BTreeSet<",
        ": BTreeMap<",
        ".is_empty()",
        ".len()",
    ];
    if REDUCTIONS.iter().any(|r| stmt.contains(r)) {
        return true;
    }
    // Collect-then-sort: a `.sort` a few lines below.
    src.scan
        .iter()
        .skip(idx)
        .take(SORT_LOOKAHEAD)
        .any(|l| l.contains(".sort"))
}

pub(crate) fn note_waiver(
    src: &SourceFile,
    rel: &str,
    rule: &str,
    lineno: usize,
    report: &mut Report,
) {
    let w = src
        .waivers
        .iter()
        .find(|w| w.rule == rule && (w.line == lineno || w.line + 1 == lineno))
        .expect("waived() implies a matching waiver");
    report.waivers.push(UsedWaiver {
        rule: w.rule.clone(),
        file: rel.to_string(),
        line: w.line,
        reason: w.reason.clone(),
    });
}

/// `needle` at an identifier boundary on the left (`restart_instant`
/// must not match `Instant`; `operand::` must not match `rand::`).
fn find_bounded(line: &str, needle: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(p) = line[from..].find(needle) {
        let at = from + p;
        let left_ok = at == 0 || {
            let c = line.as_bytes()[at - 1] as char;
            !is_ident_char(c) && c != ':'
        };
        if left_ok {
            return Some(at);
        }
        from = at + needle.len();
    }
    None
}

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Scans one protocol crate's `src/` tree rooted at `crate_dir`,
/// appending findings to `report`. Paths in diagnostics are relative to
/// `root`.
pub fn check_crate(root: &Path, crate_dir: &Path, report: &mut Report) -> std::io::Result<()> {
    let src_dir = crate_dir.join("src");
    let mut files = Vec::new();
    crate::walk_rs(&src_dir, &mut files)?;
    for path in files {
        let src = SourceFile::load(&path)?;
        let rel = crate::rel_label(root, &path);
        check_file(&src, &rel, report);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn run(text: &str) -> Report {
        let src = SourceFile::from_text(Path::new("mem.rs"), text);
        let mut report = Report::default();
        check_file(&src, "mem.rs", &mut report);
        report.sort();
        report
    }

    #[test]
    fn bans_fire_outside_comments_and_strings() {
        let r = run("let t = std::time::Instant::now();\n");
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, RULE_WALL_CLOCK);
        assert!(run("// std::time::Instant::now()\n").clean());
        assert!(run("let s = \"std::time::Instant\";\n").clean());
        assert!(run("let restart_instant = now;\n").clean());
    }

    #[test]
    fn rng_and_thread_bans() {
        assert_eq!(
            run("let x = rand::random::<u64>();\n").findings[0].rule,
            RULE_AMBIENT_RNG
        );
        assert_eq!(
            run("let mut r = thread_rng();\n").findings[0].rule,
            RULE_AMBIENT_RNG
        );
        assert_eq!(
            run("std::thread::spawn(|| {});\n").findings[0].rule,
            RULE_THREAD
        );
        // `operand::` is not `rand::`.
        assert!(run("use operand::x;\n").clean());
    }

    #[test]
    fn unordered_iteration_is_flagged_and_sorted_sites_pass() {
        let bad = "struct S { m: HashMap<u32, u32> }\nfn f(s: &S) { for v in s.m.values() { use_(v); } }\n";
        let r = run(bad);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, RULE_UNORDERED_ITER);
        assert_eq!(r.findings[0].line, 2);

        let sorted = "struct S { m: HashMap<u32, u32> }\nfn f(s: &S) -> Vec<u32> {\n    let mut v: Vec<u32> = s.m.values().copied().collect();\n    v.sort();\n    v\n}\n";
        assert!(run(sorted).clean(), "{:?}", run(sorted).findings);

        let counted =
            "struct S { m: HashMap<u32, u32> }\nfn f(s: &S) -> usize { s.m.values().count() }\n";
        assert!(run(counted).clean());
    }

    #[test]
    fn for_loop_over_map_is_flagged() {
        let text = "fn f() {\n    let mut m = HashMap::new();\n    m.insert(1, 2);\n    for (k, v) in &m { use_(k, v); }\n}\n";
        let r = run(text);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].line, 4);
    }

    #[test]
    fn waivers_suppress_and_are_accounted() {
        let text = "struct S { m: HashSet<u32> }\nfn f(s: &S) {\n    // lint:allow(unordered-iter): fold is commutative\n    for v in s.m.iter() { acc += v; }\n}\n";
        let r = run(text);
        assert!(r.clean(), "{:?}", r.findings);
        assert_eq!(r.waivers.len(), 1);
        assert_eq!(r.waivers[0].rule, RULE_UNORDERED_ITER);
        assert_eq!(r.waivers[0].reason, "fold is commutative");
    }

    #[test]
    fn test_modules_are_exempt() {
        let text = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::Instant::now(); }\n}\n";
        assert!(run(text).clean());
    }

    #[test]
    fn malformed_waiver_is_a_finding() {
        let r = run("// lint:allow(wall-clock)\nfn f() {}\n");
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, RULE_WAIVER);
    }
}
