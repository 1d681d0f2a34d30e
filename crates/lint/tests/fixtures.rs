//! Every lint rule proven live against `fixtures/`: the bad fixture
//! fires exactly its rule, the waived/clean twin stays silent. If a
//! refactor of the scanner ever blinds a rule, these tests — not the
//! next replay divergence — are where it shows up.

use std::path::{Path, PathBuf};

use fortika_lint::determinism::{
    self, RULE_AMBIENT_RNG, RULE_THREAD, RULE_UNORDERED_ITER, RULE_WAIVER, RULE_WALL_CLOCK,
};
use fortika_lint::layering::{check_graph, parse_manifest};
use fortika_lint::registry::{check_link_faults, check_scenario_events, check_violations};
use fortika_lint::report::Report;
use fortika_lint::source::SourceFile;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn scan(name: &str) -> Report {
    let path = fixture(name);
    let src = SourceFile::load(&path).expect("fixture readable");
    let mut report = Report::default();
    determinism::check_file(&src, name, &mut report);
    report.sort();
    report
}

fn rules(report: &Report) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.rule).collect()
}

#[test]
fn wall_clock_fires_on_every_spelling() {
    let r = scan("wall_clock_bad.rs");
    assert_eq!(rules(&r), vec![RULE_WALL_CLOCK; 4], "{:?}", r.findings);
    // The `fine()` half: comments, string literals and `restart_instant`
    // never fire, so every finding sits in the bad half of the file.
    assert!(r.findings.iter().all(|f| f.line <= 13), "{:?}", r.findings);
}

#[test]
fn wall_clock_waiver_suppresses_and_is_accounted() {
    let r = scan("wall_clock_waived.rs");
    assert!(r.clean(), "{:?}", r.findings);
    assert_eq!(r.waivers.len(), 1);
    assert_eq!(r.waivers[0].rule, RULE_WALL_CLOCK);
    assert!(r.waivers[0].reason.contains("never compared across runs"));
}

#[test]
fn ambient_rng_fires_twice_and_spares_operand() {
    let r = scan("ambient_rng_bad.rs");
    assert_eq!(rules(&r), vec![RULE_AMBIENT_RNG; 2], "{:?}", r.findings);
}

#[test]
fn thread_spawn_fires_qualified_and_bare() {
    let r = scan("thread_bad.rs");
    assert_eq!(rules(&r), vec![RULE_THREAD; 2], "{:?}", r.findings);
}

#[test]
fn unordered_iter_fires_on_all_three_shapes() {
    let r = scan("unordered_iter_bad.rs");
    assert_eq!(rules(&r), vec![RULE_UNORDERED_ITER; 3], "{:?}", r.findings);
}

#[test]
fn unordered_iter_spares_sorted_reduced_waived_and_tests() {
    let r = scan("unordered_iter_ok.rs");
    assert!(r.clean(), "{:?}", r.findings);
    assert_eq!(r.waivers.len(), 1);
    assert_eq!(r.waivers[0].rule, RULE_UNORDERED_ITER);
}

#[test]
fn malformed_waivers_are_findings() {
    let r = scan("waiver_bad.rs");
    assert_eq!(rules(&r), vec![RULE_WAIVER; 2], "{:?}", r.findings);
}

#[test]
fn layering_bad_manifest_fires_harness_and_peer_edges() {
    let content = std::fs::read_to_string(fixture("layering_bad.toml")).unwrap();
    let info = parse_manifest("fixtures/layering_bad.toml", &content);
    let mut r = Report::default();
    check_graph(&[info], &mut r);
    r.sort();
    let msgs: Vec<&str> = r.findings.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(msgs.len(), 2, "{msgs:?}");
    assert!(msgs
        .iter()
        .any(|m| m.contains("harness crate `fortika-chaos`")));
    assert!(
        msgs.iter().any(|m| m.contains("upward dependency")),
        "{msgs:?}"
    );
}

#[test]
fn layering_ok_manifest_is_clean() {
    let content = std::fs::read_to_string(fixture("layering_ok.toml")).unwrap();
    let info = parse_manifest("fixtures/layering_ok.toml", &content);
    let mut r = Report::default();
    check_graph(&[info], &mut r);
    assert!(r.clean(), "{:?}", r.findings);
}

#[test]
fn registry_gaps_fire_and_wired_registries_pass() {
    let bad = SourceFile::load(&fixture("registry_bad.rs")).unwrap();
    let mut r = Report::default();
    check_scenario_events(&bad, "registry_bad.rs", &mut r);
    let bad_file = (&bad, "registry_bad.rs");
    check_link_faults(bad_file, bad_file, &mut r);
    check_violations(&bad, "registry_bad.rs", &mut r);
    r.sort();
    let msgs: Vec<&str> = r.findings.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(msgs.len(), 6, "{msgs:?}");
    assert!(msgs
        .iter()
        .any(|m| m.contains("ScenarioEvent::Quake") && m.contains("fn apply")));
    assert!(msgs
        .iter()
        .any(|m| m.contains("ScenarioEvent::Quake") && m.contains("fn family")));
    assert!(msgs
        .iter()
        .any(|m| m.contains("LinkFault::Storm") && m.contains("fn cleared")));
    assert!(msgs
        .iter()
        .any(|m| m.contains("LinkFault::Storm") && m.contains("fn family")));
    assert!(msgs
        .iter()
        .any(|m| m.contains("Violation::Stall") && m.contains("fn kind")));
    assert!(msgs
        .iter()
        .any(|m| m.contains("Violation::Stall") && m.contains("Display")));

    let ok = SourceFile::load(&fixture("registry_ok.rs")).unwrap();
    let mut r = Report::default();
    check_scenario_events(&ok, "registry_ok.rs", &mut r);
    check_violations(&ok, "registry_ok.rs", &mut r);
    assert!(r.clean(), "{:?}", r.findings);
}
