//! Registry exhaustiveness rules: enums that must stay wired end to end.
//!
//! Two registries keep the chaos harness honest, and each has a failure
//! mode the compiler cannot see:
//!
//! * **Scenario events** — a new [`ScenarioEvent`] variant that is
//!   generated but never scheduled in `Scenario::apply`, or skipped by
//!   `heals()`/`horizon()`, silently produces runs whose fault windows
//!   never close (or whose drain horizon is wrong). Wildcard match arms
//!   would compile fine; this rule demands every variant be *named* in
//!   all three functions. Network faults are one `ScenarioEvent::Link`
//!   variant carrying a [`LinkFault`], so the rule also demands every
//!   `LinkFault` variant be named in `LinkFault::cleared` (the window's
//!   closer) and in `ScenarioEvent::family` (its coverage row).
//! * **Violations** — a [`Violation`] variant that `process()`,
//!   `kind()` or `Display` does not name would dodge the trace-dump and
//!   minimization paths: the oracle would report it, but the bounded
//!   violation trace written to `target/trace/` could anchor on the
//!   wrong process, ddmin could conflate it with a different bug, or
//!   the report could render nothing useful.
//!
//! [`ScenarioEvent`]: ../../chaos/src/scenario.rs
//! [`LinkFault`]: ../../net/src/fault.rs
//! [`Violation`]: ../../chaos/src/oracle.rs

use std::path::Path;

use crate::report::{Finding, Report};
use crate::source::SourceFile;

/// Rule id: `ScenarioEvent` and `LinkFault` wiring.
pub const RULE_SCENARIO: &str = "scenario-registry";
/// Rule id: `Violation` wiring.
pub const RULE_VIOLATION: &str = "violation-registry";

/// The functions every `ScenarioEvent` variant must be named in.
/// `family` feeds the fuzz coverage matrix: a variant missing there
/// would be generated but never earn a matrix row, so steering could
/// never notice it is under-explored.
const SCENARIO_FNS: &[&str] = &["fn apply", "fn heals", "fn horizon", "fn family"];

/// Extracts the variant names of `enum <name>` from a preprocessed
/// file. Returns `(variants, 1-based line of the enum)`.
pub fn enum_variants(src: &SourceFile, name: &str) -> Option<(Vec<String>, usize)> {
    let needle = format!("enum {name}");
    let start = src
        .scan
        .iter()
        .position(|l| l.contains(&needle) && !l.trim_start().starts_with("use "))?;
    let mut variants = Vec::new();
    let mut depth: i64 = 0;
    let mut entered = false;
    for line in src.scan.iter().skip(start) {
        let at_variant_depth = entered && depth == 1;
        if at_variant_depth {
            let t = line.trim_start();
            let mut chars = t.chars();
            if let Some(first) = chars.next() {
                if first.is_ascii_uppercase() {
                    let end = t
                        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                        .unwrap_or(t.len());
                    let candidate = &t[..end];
                    // A variant line continues with `{`, `(`, `,` or
                    // nothing; anything else (`:` of a field, `=`) is
                    // not a variant.
                    let rest = t[end..].trim_start();
                    if rest.is_empty() || rest.starts_with(['{', '(', ',', '=']) {
                        variants.push(candidate.to_string());
                    }
                }
            }
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    entered = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if entered && depth == 0 {
            break;
        }
    }
    Some((variants, start + 1))
}

/// The body (including signature line) of the first `fn <name>` in the
/// file, as one string, plus its 1-based line.
pub fn fn_body(src: &SourceFile, fn_needle: &str) -> Option<(String, usize)> {
    fn_bodies(src, fn_needle).next()
}

/// [`fn_body`] for every `fn <name>` in the file, in source order.
pub fn fn_bodies<'a>(
    src: &'a SourceFile,
    fn_needle: &'a str,
) -> impl Iterator<Item = (String, usize)> + 'a {
    src.scan
        .iter()
        .enumerate()
        .filter(move |(_, l)| {
            l.find(fn_needle)
                .is_some_and(|at| l[at + fn_needle.len()..].starts_with(['(', '<']))
        })
        .map(move |(start, _)| (capture_block(src, start), start + 1))
}

/// The body of an `impl` block whose header contains `header_needle`.
pub fn impl_body(src: &SourceFile, header_needle: &str) -> Option<(String, usize)> {
    let start = src
        .scan
        .iter()
        .position(|l| l.contains("impl") && l.contains(header_needle))?;
    Some((capture_block(src, start), start + 1))
}

/// Captures lines from `start` through the close of the first brace
/// block opened at or after it.
fn capture_block(src: &SourceFile, start: usize) -> String {
    let mut out = String::new();
    let mut depth: i64 = 0;
    let mut entered = false;
    for line in src.scan.iter().skip(start) {
        out.push_str(line);
        out.push('\n');
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    entered = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if entered && depth <= 0 {
            break;
        }
    }
    out
}

/// One place an enum's variants must all be named: the file, what is
/// searched (`fn apply`, `Display for Violation`, ...), its body and
/// 1-based line if found, and why a variant must be named there.
type Sink<'a> = (&'a str, &'a str, Option<(String, usize)>, &'a str);

/// Pushes a `rule` finding for every variant of `enum <name>` in `src`
/// that a sink does not name as `<name>::<Variant>`.
fn check_registry(
    rule: &'static str,
    (src, rel): (&SourceFile, &str),
    name: &str,
    sinks: Vec<Sink<'_>>,
    report: &mut Report,
) {
    let mut finding = |file: &str, line: usize, message: String| {
        report.findings.push(Finding {
            rule,
            file: file.to_string(),
            line,
            message,
        })
    };
    let Some((variants, enum_line)) = enum_variants(src, name) else {
        finding(rel, 0, format!("enum {name} not found (did it move?)"));
        return;
    };
    if variants.is_empty() {
        finding(
            rel,
            enum_line,
            format!("enum {name} parsed with zero variants"),
        );
        return;
    }
    for (file, what, body, why) in sinks {
        let Some((body, line)) = body else {
            finding(file, 0, format!("`{what}` not found for enum {name}"));
            continue;
        };
        for v in &variants {
            if !body.contains(&format!("{name}::{v}")) {
                let message = format!("{name}::{v} is not named in `{what}`: {why}");
                finding(file, line, message);
            }
        }
    }
}

/// `ScenarioEvent` wiring (see the [module docs](self)).
pub fn check_scenario_events(src: &SourceFile, rel: &str, report: &mut Report) {
    let why = "every variant must be explicitly scheduled (apply) and accounted \
               (heals/horizon) — wildcard arms hide dropped fault events";
    let sinks = SCENARIO_FNS
        .iter()
        .map(|f| (rel, *f, fn_body(src, f), why))
        .collect();
    check_registry(RULE_SCENARIO, (src, rel), "ScenarioEvent", sinks, report);
}

/// `LinkFault` wiring: every variant of the enum in `fault` named in its
/// `fn cleared` and in `fn family` of `scenario`, so a new link fault
/// gets a closer and a coverage row instead of a wildcard arm.
pub fn check_link_faults(
    (fault, fault_rel): (&SourceFile, &str),
    (scenario, scenario_rel): (&SourceFile, &str),
    report: &mut Report,
) {
    let sinks = vec![
        (
            fault_rel,
            "fn cleared",
            fn_body(fault, "fn cleared"),
            "a window this fault opens needs a closer, or it never heals",
        ),
        (
            scenario_rel,
            "fn family",
            fn_body(scenario, "fn family"),
            "a window of this fault needs its own coverage-matrix row",
        ),
    ];
    check_registry(
        RULE_SCENARIO,
        (fault, fault_rel),
        "LinkFault",
        sinks,
        report,
    );
}

/// `Violation` wiring: every variant named in `fn process` (the trace
/// dump anchor), `fn kind` (the minimizer's violation identity) and the
/// `Display` impl (the human diagnostic).
pub fn check_violations(src: &SourceFile, rel: &str, report: &mut Report) {
    let sinks = vec![
        (
            rel,
            "fn process",
            fn_body(src, "fn process"),
            "the violation trace dump anchors its bounded window on `Violation::process`",
        ),
        (
            rel,
            "fn kind",
            fn_body(src, "fn kind"),
            "the counterexample minimizer matches candidate runs by `Violation::kind` — a \
             variant collapsing into another's kind (or a wildcard) lets ddmin swap one bug \
             for a different one mid-shrink",
        ),
        (
            rel,
            "Display for Violation",
            impl_body(src, "Display for Violation"),
            "oracle reports render violations through `Display`",
        ),
    ];
    check_registry(RULE_VIOLATION, (src, rel), "Violation", sinks, report);
}

/// Runs all registry rules over the workspace rooted at `root`.
pub fn check(root: &Path, report: &mut Report) -> std::io::Result<()> {
    // Scenario events + violations live in the chaos crate, link faults
    // in the net crate.
    let scenario_path = root.join("crates/chaos/src/scenario.rs");
    let scenario = SourceFile::load(&scenario_path)?;
    let scenario_rel = crate::rel_label(root, &scenario_path);
    check_scenario_events(&scenario, &scenario_rel, report);

    let fault_path = root.join("crates/net/src/fault.rs");
    let fault = SourceFile::load(&fault_path)?;
    let fault_rel = crate::rel_label(root, &fault_path);
    check_link_faults((&fault, &fault_rel), (&scenario, &scenario_rel), report);

    let oracle_path = root.join("crates/chaos/src/oracle.rs");
    let oracle = SourceFile::load(&oracle_path)?;
    check_violations(&oracle, &crate::rel_label(root, &oracle_path), report);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn sf(text: &str) -> SourceFile {
        SourceFile::from_text(Path::new("mem.rs"), text)
    }

    #[test]
    fn variant_extraction_skips_fields_and_bodies() {
        let src = sf(
            "pub enum ScenarioEvent {\n    Crash {\n        pid: ProcessId,\n        at: VDur,\n    },\n    Restart { pid: ProcessId },\n    Lossy(f64),\n    Heal,\n}\n",
        );
        let (vars, line) = enum_variants(&src, "ScenarioEvent").unwrap();
        assert_eq!(vars, vec!["Crash", "Restart", "Lossy", "Heal"]);
        assert_eq!(line, 1);
    }

    #[test]
    fn missing_variant_in_apply_fires() {
        let src = sf(
            "pub enum ScenarioEvent {\n    Crash,\n    Restart,\n}\nimpl S {\n    pub fn apply(&self) {\n        match e { ScenarioEvent::Crash => {} _ => {} }\n    }\n    pub fn heals(&self) -> bool {\n        matches!(e, ScenarioEvent::Crash | ScenarioEvent::Restart)\n    }\n    pub fn horizon(&self) {\n        let _ = (ScenarioEvent::Crash, ScenarioEvent::Restart);\n    }\n    pub fn family(&self) {\n        let _ = (ScenarioEvent::Crash, ScenarioEvent::Restart);\n    }\n}\n",
        );
        let mut r = Report::default();
        check_scenario_events(&src, "mem.rs", &mut r);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert!(r.findings[0].message.contains("ScenarioEvent::Restart"));
        assert!(r.findings[0].message.contains("fn apply"));
    }

    #[test]
    fn violation_display_gap_fires() {
        let src = sf(
            "pub enum Violation {\n    A { p: u32 },\n    B,\n}\nimpl Violation {\n    pub fn process(&self) {\n        match self { Violation::A { .. } => {} Violation::B => {} }\n    }\n    pub fn kind(&self) {\n        match self { Violation::A { .. } => \"A\", Violation::B => \"B\" };\n    }\n}\nimpl fmt::Display for Violation {\n    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {\n        match self { Violation::A { .. } => write!(f, \"a\"), _ => write!(f, \"other\") }\n    }\n}\n",
        );
        let mut r = Report::default();
        check_violations(&src, "mem.rs", &mut r);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert!(r.findings[0].message.contains("Violation::B"));
        assert!(r.findings[0].message.contains("Display"));
    }

    /// The dynamic-membership additions must be *visible* to the
    /// registry rules: the enum parser discovers the `AddNode` /
    /// `RemoveNode` scenario variants and the `ConfigDivergence`
    /// violation in the real workspace sources, and both are fully
    /// wired (apply/heals/horizon/family, process/kind/Display). If a
    /// refactor moved or renamed them, the exhaustiveness guarantee
    /// would silently evaporate — this pins it.
    #[test]
    fn workspace_registries_cover_the_reconfig_vocabulary() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let scenario = SourceFile::load(&root.join("crates/chaos/src/scenario.rs")).unwrap();
        let (vars, _) = enum_variants(&scenario, "ScenarioEvent").unwrap();
        for v in ["AddNode", "RemoveNode"] {
            assert!(
                vars.iter().any(|x| x == v),
                "ScenarioEvent::{v} not discovered"
            );
        }
        let mut r = Report::default();
        check_scenario_events(&scenario, "scenario.rs", &mut r);
        let fault = SourceFile::load(&root.join("crates/net/src/fault.rs")).unwrap();
        check_link_faults((&fault, "fault.rs"), (&scenario, "scenario.rs"), &mut r);
        assert!(r.findings.is_empty(), "{:?}", r.findings);

        let oracle = SourceFile::load(&root.join("crates/chaos/src/oracle.rs")).unwrap();
        let (vars, _) = enum_variants(&oracle, "Violation").unwrap();
        assert!(
            vars.iter().any(|x| x == "ConfigDivergence"),
            "Violation::ConfigDivergence not discovered"
        );
        let mut r = Report::default();
        check_violations(&oracle, "oracle.rs", &mut r);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }
}
