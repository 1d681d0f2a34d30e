//! Every lint rule proven live against `fixtures/`: the bad fixture
//! fires exactly its rule, the clean twin stays silent. If a refactor
//! of the scanner ever blinds a rule, these tests — not the next
//! namespace collision — are where it shows up.

use std::path::{Path, PathBuf};

use fortika_lint::layering::{check_graph, parse_manifest};
use fortika_lint::namespace::{self, KEY_TABLE, RULE_KEY_NAMESPACE};
use fortika_lint::report::Report;
use fortika_lint::source::SourceFile;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn rules(report: &Report) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.rule).collect()
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

fn scan_namespaces(name: &str, rel: &str) -> Report {
    let src = SourceFile::load(&fixture(name)).expect("fixture readable");
    let mut report = Report::default();
    namespace::check_file(&src, rel, &mut report);
    report.sort();
    report
}

#[test]
fn key_namespace_fires_outside_the_key_table_only() {
    let r = scan_namespaces("key_namespace_bad.rs", "key_namespace_bad.rs");
    assert_eq!(rules(&r), vec![RULE_KEY_NAMESPACE; 3], "{:?}", r.findings);
    // The same lines in the key table are its entries.
    assert!(scan_namespaces("key_namespace_bad.rs", KEY_TABLE).clean());
}

#[test]
fn key_namespace_spares_other_shifts_comments_and_strings() {
    let r = scan_namespaces("key_namespace_ok.rs", "key_namespace_ok.rs");
    assert!(r.clean(), "{:?}", r.findings);
}

#[test]
fn non_test_lines_skip_blanks_comments_and_test_items() {
    let src = SourceFile::load(&fixture("line_count.rs")).expect("fixture readable");
    assert_eq!(src.non_test_lines(), 7);
    let mut r = Report::default();
    r.tally_lines("crates/demo/src/lib.rs", &src);
    r.tally_lines("crates/demo/src/deep/mod.rs", &src);
    // Only a crate's `src/` is counted.
    r.tally_lines("crates/demo/tests/it.rs", &src);
    r.tally_lines("tests/it.rs", &src);
    assert_eq!(r.total_non_test_lines(), 14);
    assert_eq!(r.non_test_lines.get("demo"), Some(&14));
    let text = r.render_human();
    assert!(text.contains("fortika-lint: 14 non-test lines in crates/*/src"));
    assert!(text.contains("  demo           14"));
}
