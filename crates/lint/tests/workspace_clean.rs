//! The committed tree must satisfy its own lints: this is the same
//! check CI's `cargo run -p fortika-lint` gate performs, wired into
//! `cargo test` so a violation fails fast locally too.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the workspace root");
    assert!(
        root.join("Cargo.toml").is_file(),
        "workspace root not found"
    );

    let report = fortika_lint::run(root).expect("scan succeeds");
    assert!(
        report.clean(),
        "the committed workspace must be lint-clean; fix or waive:\n{}",
        report.render_human()
    );
    // The scan actually covered the tree (guards against a refactor
    // that silently walks the wrong directory and reports vacuous
    // success).
    assert!(
        report.files_scanned > 30,
        "only {} files scanned",
        report.files_scanned
    );
    assert!(
        report.crates_checked >= 14,
        "only {} crates checked",
        report.crates_checked
    );
}

/// `TraceEvents` builds its timeline index lazily behind a `OnceCell`:
/// derived state inside a protocol crate. It has to pass the
/// determinism rules on its own merits — no waiver, a single-threaded
/// cell, and a per-process map that cannot iterate in hasher order.
#[test]
fn trace_timeline_index_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut report = fortika_lint::report::Report::default();
    let mut code = String::new();
    for rel in ["crates/trace/src/event.rs", "crates/trace/src/decompose.rs"] {
        let src = fortika_lint::source::SourceFile::load(&root.join(rel)).expect("readable");
        fortika_lint::determinism::check_file(&src, rel, &mut report);
        for (line, in_test) in src.scan.iter().zip(&src.in_test) {
            if !in_test {
                code.push_str(line);
                code.push('\n');
            }
        }
    }
    assert!(report.clean(), "{}", report.render_human());
    assert!(report.waivers.is_empty(), "{}", report.render_human());
    // What the rules were run on is what this test is about.
    assert!(code.contains("index: OnceCell<TimelineIndex>"));
    assert!(code.contains("timelines: BTreeMap<u16, Timeline>"));
    for banned in ["HashMap", "HashSet", "OnceLock", "thread"] {
        assert!(!code.contains(banned), "`{banned}` in the trace index");
    }
}

/// `Wire::encoded_len` sizes every encode buffer, so it must stay a
/// count: an override (or a change to the default) that builds a
/// buffering `WireWriter` to measure it would put back the second
/// serialisation of every outgoing message.
#[test]
fn encoded_len_never_buffers() {
    use fortika_lint::source::SourceFile;

    /// What a sizing pass has no business constructing.
    const BUFFERS: [&str; 5] = [
        "WireWriter::new",
        "WireWriter::with_capacity",
        "WireWriter::default",
        "BytesMut",
        "encode(self)",
    ];
    let offences = |src: &SourceFile| -> Vec<(usize, &'static str)> {
        fortika_lint::registry::fn_bodies(src, "fn encoded_len")
            .flat_map(|(body, line)| {
                BUFFERS
                    .into_iter()
                    .filter(move |b| body.contains(b))
                    .map(move |b| (line, b))
            })
            .collect()
    };

    // The rule bites: the parent commit's default is an offence.
    let old = SourceFile::from_text(
        Path::new("old_wire.rs"),
        "trait Wire {\n    fn encoded_len(&self) -> usize {\n        let mut w = \
         WireWriter::new();\n        self.encode(&mut w);\n        w.len()\n    }\n}\n",
    );
    assert_eq!(offences(&old), [(2, "WireWriter::new")]);

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples"] {
        fortika_lint::walk_rs(&root.join(dir), &mut files).expect("walkable");
    }
    let mut sizers = 0;
    for path in files {
        let src = SourceFile::load(&path).expect("readable");
        sizers += fortika_lint::registry::fn_bodies(&src, "fn encoded_len").count();
        let found = offences(&src);
        assert!(
            found.is_empty(),
            "{}: `fn encoded_len` buffers ({found:?}); count with `WireWriter::counting()`",
            fortika_lint::rel_label(&root, &path)
        );
    }
    // At least the trait's own default was looked at.
    assert!(sizers >= 1, "no `fn encoded_len` found: did `Wire` move?");
}

/// The Chandra–Toueg round state has one home, `crates/net/src/rounds.rs`,
/// whose transitions both stacks call: neither may grow a copy of the
/// state (and with it of the locking rule) back.
#[test]
fn round_state_lives_in_rounds_only() {
    use fortika_lint::source::SourceFile;

    /// What only the round machine reads or writes.
    const ROUND_STATE: [&str; 5] = [
        ".ts =",
        ".acks",
        ".estimates",
        ".proposal_sent_round",
        "round_entered:",
    ];
    let offences = |src: &SourceFile| -> Vec<(usize, &'static str)> {
        let code = src.scan.iter().zip(&src.in_test).enumerate();
        code.filter(|(_, (_, in_test))| !**in_test)
            .flat_map(|(i, (line, _))| {
                ROUND_STATE
                    .into_iter()
                    .filter(move |needle| line.contains(needle))
                    .map(move |needle| (i + 1, needle))
            })
            .collect()
    };

    // The rule bites: the parent commit's stacks each kept such a copy.
    let old = SourceFile::from_text(
        Path::new("old_node.rs"),
        "struct Inst {\n    round_entered: VTime,\n    ts: u32,\n}\nfn lock(inst: &mut Inst) {\n    \
         inst.ts = 1;\n    inst.acks.insert(me);\n    // inst.estimates in a comment\n}\n",
    );
    assert_eq!(
        offences(&old),
        [(2, "round_entered:"), (6, ".ts ="), (7, ".acks")]
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in ["crates/consensus/src", "crates/mono/src"] {
        fortika_lint::walk_rs(&root.join(dir), &mut files).expect("walkable");
    }
    assert!(files.len() >= 6, "only {} stack sources found", files.len());
    for path in files {
        let found = offences(&SourceFile::load(&path).expect("readable"));
        assert!(
            found.is_empty(),
            "{}: round state outside `fortika_net::rounds` ({found:?})",
            fortika_lint::rel_label(&root, &path)
        );
    }
}
