//! The extension census: every committed sweep and every `StackConfig`
//! field is owned by a row of the census table in `docs/EXTENSIONS.md`
//! — the paper's own row, or one feature built past it, with its lines,
//! the checks only it passes and its finding about the cost of
//! modularity.
//!
//! `StackConfig` is destructured without `..`, so a new field does not
//! compile here until it is listed; listing it fails the test until a
//! row owns it. A row that owns nothing, or a name that no longer
//! exists, fails too.

use std::collections::BTreeSet;

use fortika_bench::sweeps::SWEEPS;
use fortika_core::StackConfig;

const DOC: &str = include_str!("../../../docs/EXTENSIONS.md");

/// Every `StackConfig` field, as `StackConfig::field`. A field's
/// attributes apply to the pattern only: a `cfg`-gated field is listed
/// in every build.
macro_rules! fields {
    ($ty:ident = $value:expr; $($(#[$attr:meta])* $field:ident),+ $(,)?) => {{
        let $ty { $($(#[$attr])* $field: _),+ } = $value;
        vec![$(concat!(stringify!($ty), "::", stringify!($field)).to_string()),+]
    }};
}

/// Everything a row must own: the sweep files and the stack's fields.
fn listed() -> Vec<String> {
    let mut all: Vec<String> = SWEEPS.iter().map(|s| s.file()).collect();
    all.extend(fields!(StackConfig = StackConfig::default();
        window, mono_opts, snapshot_interval, decision_cache, pipeline_depth,
        app_state,
        #[cfg(debug_assertions)]
        faults,
    ));
    all
}

/// The census rows: each row's feature (first column) and the
/// backquoted names of its second column ("Owns").
fn rows() -> Vec<(&'static str, Vec<&'static str>)> {
    let (_, section) = DOC
        .split_once("## Census")
        .expect("docs/EXTENSIONS.md has a \"Census\" section");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter(|line| line.starts_with("| ") && !line.starts_with("| Feature"))
        .map(|line| {
            let mut cells = line.split(" | ");
            let feature = cells.next().unwrap_or_default().trim_start_matches("| ");
            let owns = cells.next().unwrap_or_default();
            let names = owns.split('`').skip(1).step_by(2).collect();
            (feature, names)
        })
        .collect()
}

#[test]
fn every_sweep_field_and_strategy_has_a_row_and_every_row_owns_something_real() {
    let listed = listed();
    let unique: BTreeSet<&str> = listed.iter().map(String::as_str).collect();
    assert_eq!(unique.len(), listed.len(), "a name is listed twice");
    let rows = rows();
    let mut owned = BTreeSet::new();
    for (feature, names) in &rows {
        assert!(!names.is_empty(), "the {feature} row owns nothing");
        for name in names {
            assert!(
                unique.contains(name),
                "the {feature} row owns `{name}`, which is no sweep file, \
                 `StackConfig` field"
            );
            assert!(owned.insert(*name), "`{name}` is owned by two rows");
        }
    }
    let missing: Vec<_> = unique.difference(&owned).collect();
    assert!(missing.is_empty(), "no census row owns {missing:?}");
}
