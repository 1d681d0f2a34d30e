//! The divergence census: every mechanism one stack has and the other
//! lacks is owned by a row of the census table in `docs/DIVERGENCE.md`,
//! classed as the composition boundary or one of the optimizations
//! O1–O3, with the paper's section.
//!
//! The metric tables are data, so the stack-only names are found
//! mechanically: a counter or send kind of the monolith with no name of
//! the same suffix in the modular stack's tables, or the reverse. Every
//! such name needs exactly one row. A row naming something that no
//! longer exists fails, and so does a row of any other class —
//! *accidental* among them.
//!
//! Catch-up has no row because it is the replica core's alone: neither
//! stack's non-test source may construct a `CatchUp` message or name a
//! decision reply of its own.

use std::collections::{BTreeMap, BTreeSet};

use fortika_net::metrics::{abcast, consensus, mono, Table};

const DOC: &str = include_str!("../../../docs/DIVERGENCE.md");

/// The stacks' own sources: where a mechanism named by a row, other
/// than a metric name, must still occur.
const SOURCES: [&str; 8] = [
    include_str!("../../mono/src/node.rs"),
    include_str!("../../mono/src/msg.rs"),
    include_str!("../../consensus/src/module.rs"),
    include_str!("../../consensus/src/msg.rs"),
    include_str!("../../abcast/src/module.rs"),
    include_str!("../../rbcast/src/module.rs"),
    include_str!("../../framework/src/events.rs"),
    include_str!("../../framework/src/stack.rs"),
];

/// The sources of the stacks' own wire vocabularies and handlers, by
/// path: the first four of [`SOURCES`].
const STACK_FILES: [&str; 4] = [
    "crates/mono/src/node.rs",
    "crates/mono/src/msg.rs",
    "crates/consensus/src/module.rs",
    "crates/consensus/src/msg.rs",
];

/// What a stack's own decision reply was called, as a wire variant, a
/// constructor or a `ReplicaHost` hand-back.
const DECISION_REPLIES: [&str; 3] = ["DecisionFull", "decision_full", "reply_decision"];

/// Names in modular namespaces that the monolith bumps too: both
/// stacks count them, so they have a counterpart by construction.
const SHARED: [&str; 4] = [
    "abcast.delivered",
    "abcast.requests",
    "abcast.retransmits",
    "consensus.decided",
];

/// The classes a row may have: where the paper lets the stacks differ.
const CLASSES: [&str; 4] = ["boundary", "O1", "O2", "O3"];

fn names(tables: &[Table]) -> Vec<&'static str> {
    let events = tables
        .iter()
        .flat_map(|t| t.events.iter().map(|m| m.name()));
    let kinds = tables.iter().flat_map(|t| t.kinds.iter().map(|k| k.name()));
    events.chain(kinds).collect()
}

fn suffix(name: &str) -> &str {
    name.split_once('.').map_or(name, |(_, rest)| rest)
}

/// The names of each stack with no same-suffix counterpart in the
/// other, the shared ones excepted.
fn stack_only() -> BTreeSet<&'static str> {
    let monolith = names(&[mono::TABLE]);
    let modular = names(&[
        consensus::TABLE,
        abcast::TABLE,
        fortika_rbcast::metrics::TABLE,
        fortika_framework::metrics::TABLE,
    ]);
    let suffixes = |list: &[&'static str]| list.iter().map(|n| suffix(n)).collect::<BTreeSet<_>>();
    let (mono_suffixes, modular_suffixes) = (suffixes(&monolith), suffixes(&modular));
    let mono_only = monolith
        .iter()
        .filter(|n| !modular_suffixes.contains(suffix(n)));
    let modular_only = modular
        .iter()
        .filter(|n| !SHARED.contains(n) && !mono_suffixes.contains(suffix(n)));
    mono_only.chain(modular_only).copied().collect()
}

/// True when `word` occurs in `text` with no identifier character
/// either side.
fn occurs(text: &str, word: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(word).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + word.len()..].chars().next();
        !before.is_some_and(ident) && !after.is_some_and(ident)
    })
}

/// One census row: its mechanism, the backquoted names of its "Owns"
/// cell, its class and its paper section.
struct Row {
    mechanism: &'static str,
    owns: Vec<&'static str>,
    class: &'static str,
    paper: &'static str,
}

fn rows() -> Vec<Row> {
    let (_, section) = DOC
        .split_once("## Census")
        .expect("docs/DIVERGENCE.md has a \"Census\" section");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter(|line| line.starts_with("| ") && !line.starts_with("| Mechanism"))
        .map(|line| {
            let mut cells = line.trim_start_matches("| ").split(" | ");
            let mut next = || cells.next().unwrap_or_default().trim();
            let (mechanism, owns, class, paper) = (next(), next(), next(), next());
            let owns = owns.split('`').skip(1).step_by(2).collect();
            Row {
                mechanism,
                owns,
                class,
                paper,
            }
        })
        .collect()
}

#[test]
fn every_stack_only_name_has_a_row_and_every_row_a_paper_class() {
    let stack_only = stack_only();
    let rows = rows();
    assert!(!rows.is_empty(), "the census has no rows");
    let mut owner: BTreeMap<&str, &str> = BTreeMap::new();
    for row in &rows {
        let Row {
            mechanism, class, ..
        } = row;
        assert!(
            *class != "accidental",
            "the {mechanism} row is classed accidental: move it into the replica core, \
             so both stacks have it, or delete it from the one stack"
        );
        assert!(
            CLASSES.contains(class),
            "the {mechanism} row's class {class:?} is none of {CLASSES:?}"
        );
        assert!(
            row.paper.starts_with('§'),
            "the {mechanism} row cites no paper section"
        );
        assert!(!row.owns.is_empty(), "the {mechanism} row owns nothing");
        for name in &row.owns {
            // Metric names are the only ones with a dot.
            if name.contains('.') {
                assert!(
                    stack_only.contains(name),
                    "the {mechanism} row owns `{name}`, which is no stack-only metric name"
                );
            } else {
                assert!(
                    SOURCES.iter().any(|src| occurs(src, name)),
                    "the {mechanism} row owns `{name}`, which no stack's source names"
                );
            }
            if let Some(other) = owner.insert(name, mechanism) {
                panic!("`{name}` is owned by the {other} row and the {mechanism} row");
            }
        }
    }
    let missing: Vec<_> = stack_only
        .iter()
        .filter(|n| !owner.contains_key(*n))
        .collect();
    assert!(missing.is_empty(), "no census row owns {missing:?}");
}

#[test]
fn the_shared_names_are_bumped_by_the_monolith() {
    let node = SOURCES[0];
    for name in SHARED {
        let (namespace, rest) = name.split_once('.').unwrap();
        let handle = format!("{namespace}::{}", rest.to_uppercase());
        assert!(
            occurs(node, &handle),
            "the monolith no longer bumps `{name}` ({handle}): it is no shared name"
        );
    }
}

/// `src` up to its test module.
fn non_test(src: &str) -> &str {
    src.split("#[cfg(test)]").next().unwrap_or(src)
}

#[test]
fn only_the_replica_core_sends_or_answers_catch_up() {
    for (file, src) in STACK_FILES.iter().zip(SOURCES) {
        let src = non_test(src);
        let constructs = src
            .match_indices("CatchUp::")
            .any(|(at, m)| src[at + m.len()..].starts_with(char::is_uppercase));
        assert!(
            !constructs,
            "{file} constructs a `CatchUp` message: every pull and every answer to one is the \
             replica core's to send"
        );
        for name in DECISION_REPLIES {
            assert!(
                !occurs(src, name),
                "{file} names `{name}`: a stack answers no decision request of its own, the \
                 replica core's state transfer does"
            );
        }
    }
    for name in names(&[mono::TABLE, consensus::TABLE]) {
        assert!(
            !suffix(name).starts_with("decision_full") && !suffix(name).contains("reply"),
            "`{name}` counts a stack's own decision reply"
        );
    }
}
