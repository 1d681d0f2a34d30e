//! The committed tree must satisfy its own lints: this is the one gate
//! for the layering and key-namespace rules — `cargo run -p
//! fortika-lint` prints the same findings but gates nothing.
//! Determinism and the chaos registries are clippy's to check, which
//! `cargo test` does not run, so the tests below also guard that
//! clippy's configuration of those checks stays in place.

use std::path::{Path, PathBuf};

use fortika_lint::source::SourceFile;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

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
        "the committed workspace must be lint-clean:\n{}",
        report.render_human()
    );
    // The scan actually covered the tree (guards against a refactor
    // that silently walks the wrong directory and reports vacuous
    // success): the namespace rule and the line count read every
    // `src/`, `tests/` and `examples/` file (122 today), and the
    // layering rule every manifest (15).
    assert!(
        report.files_scanned > 100,
        "only {} files scanned",
        report.files_scanned
    );
    assert!(
        report.crates_checked >= 14,
        "only {} crates checked",
        report.crates_checked
    );
}

/// Every determinism ban clippy enforces (`clippy.toml`), by the array
/// it sits in. Each one is a hard error under CI's
/// `cargo clippy --workspace --all-targets -- -D warnings`.
const DETERMINISM_BANS: [(&str, &[&str]); 2] = [
    (
        "disallowed-methods",
        &[
            "std::time::Instant::now",
            "std::time::SystemTime::now",
            "std::thread::spawn",
            "std::thread::scope",
        ],
    ),
    (
        "disallowed-types",
        &[
            "std::time::Instant",
            "std::time::SystemTime",
            "std::thread::Builder",
            "std::collections::HashMap",
            "std::collections::HashSet",
            "std::hash::RandomState",
        ],
    ),
];

#[test]
fn clippy_toml_keeps_every_determinism_ban() {
    let root = workspace_root();
    let toml = std::fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml readable");
    // `(array, path)` for every `{ path = "..." }` entry.
    let mut listed = Vec::new();
    let mut array = "";
    for line in toml.lines().map(str::trim) {
        if let Some((key, _)) = line.split_once(" = [") {
            array = key;
        } else if let Some(rest) = line.strip_prefix("{ path = \"") {
            let path = rest.split('"').next().expect("a quoted path");
            listed.push((array, path));
        }
    }
    for (array, paths) in DETERMINISM_BANS {
        for path in paths {
            assert!(
                listed.contains(&(array, path)),
                "clippy.toml lost `{path}` from `{array}`: the compiler is the determinism \
                 gate, so nothing else would catch it"
            );
        }
    }
    let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("CI readable");
    assert!(
        ci.contains("cargo clippy --workspace --all-targets -- -D warnings"),
        "CI no longer runs clippy with -D warnings, so no ban is enforced"
    );
}

/// The attribute that makes a wildcard arm over an enum an error; with
/// rustc's exhaustiveness check it means every variant is named.
const NAME_EVERY_VARIANT: &str =
    "#[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]";

/// The registry functions every variant must be named in: `(file, impl
/// header, fn signature prefix)`. A scenario event `apply` skips never
/// fires; one `heals` or `horizon` skips asserts liveness too early or
/// mis-sizes the drain; a link fault `cleared` skips never heals; and a
/// violation `process`, `kind` or `Display` lumps in with another
/// misleads the trace dump, the minimizer or the report.
const REGISTRY_FNS: [(&str, &str, &str); 8] = [
    (
        "crates/chaos/src/scenario.rs",
        "impl Scenario {",
        "pub fn apply(",
    ),
    (
        "crates/chaos/src/scenario.rs",
        "impl Scenario {",
        "pub fn heals(",
    ),
    (
        "crates/chaos/src/scenario.rs",
        "impl Scenario {",
        "pub fn horizon(",
    ),
    (
        "crates/chaos/src/scenario.rs",
        "impl ScenarioEvent {",
        "pub fn family(",
    ),
    (
        "crates/net/src/fault.rs",
        "impl LinkFault {",
        "pub fn cleared(",
    ),
    (
        "crates/chaos/src/oracle.rs",
        "impl Violation {",
        "pub fn process(",
    ),
    (
        "crates/chaos/src/oracle.rs",
        "impl Violation {",
        "pub fn kind(",
    ),
    (
        "crates/chaos/src/oracle.rs",
        "impl fmt::Display for Violation {",
        "fn fmt(",
    ),
];

#[test]
fn registry_functions_keep_their_deny_attribute() {
    let root = workspace_root();
    let unspaced = |text: &str| text.split_whitespace().collect::<String>();
    for (rel, header, signature) in REGISTRY_FNS {
        let src = SourceFile::load(&root.join(rel)).expect("readable");
        let code: Vec<&str> = src.scan.iter().map(|l| l.trim()).collect();
        let found = code.iter().position(|l| *l == header).and_then(|i| {
            let j = code[i..].iter().position(|l| l.starts_with(signature))?;
            Some(i + j)
        });
        let Some(at) = found else {
            panic!("{rel}: `{signature}..` not found under `{header}`: did it move?");
        };
        // The attribute directly above the signature, however rustfmt
        // wrapped it.
        let opens = code[..at]
            .iter()
            .rposition(|l| l.starts_with("#["))
            .unwrap_or(at);
        assert_eq!(
            unspaced(&code[opens..at].concat()),
            unspaced(NAME_EVERY_VARIANT),
            "{rel}:{}: `{signature}..` lost its deny attribute, so a wildcard arm would \
             let a new variant through unnamed",
            at + 1
        );
    }
}

/// `TraceEvents` builds its timeline index lazily behind a `OnceCell`:
/// derived state inside a protocol crate. It stays deterministic on its
/// own merits — a single-threaded cell and a per-process map that
/// cannot iterate in hasher order.
#[test]
fn trace_timeline_index_is_lint_clean() {
    let root = workspace_root();
    let mut code = String::new();
    for rel in ["crates/trace/src/event.rs", "crates/trace/src/decompose.rs"] {
        let src = SourceFile::load(&root.join(rel)).expect("readable");
        for (line, in_test) in src.scan.iter().zip(&src.in_test) {
            if !in_test {
                code.push_str(line);
                code.push('\n');
            }
        }
    }
    assert!(code.contains("index: OnceCell<TimelineIndex>"));
    assert!(code.contains("timelines: BTreeMap<u16, Timeline>"));
    for banned in ["HashMap", "HashSet", "OnceLock", "thread"] {
        assert!(!code.contains(banned), "`{banned}` in the trace index");
    }
}

/// The body (signature line included) of every `fn <name>` in `src`,
/// from the comment- and string-blanked view, with its 1-based line.
fn fn_bodies<'a>(
    src: &'a SourceFile,
    fn_needle: &'a str,
) -> impl Iterator<Item = (String, usize)> + 'a {
    let starts = src.scan.iter().enumerate().filter(move |(_, l)| {
        l.find(fn_needle)
            .is_some_and(|at| l[at + fn_needle.len()..].starts_with(['(', '<']))
    });
    starts.map(move |(start, _)| {
        // Through the close of the first brace block opened.
        let (mut body, mut depth, mut entered) = (String::new(), 0i64, false);
        for line in &src.scan[start..] {
            body.push_str(line);
            body.push('\n');
            depth += line.matches('{').count() as i64 - line.matches('}').count() as i64;
            entered |= line.contains('{');
            if entered && depth <= 0 {
                break;
            }
        }
        (body, start + 1)
    })
}

/// `Wire::encoded_len` sizes every encode buffer, so it must stay a
/// count: an override (or a change to the default) that builds a
/// buffering `WireWriter` to measure it would put back the second
/// serialisation of every outgoing message.
#[test]
fn encoded_len_never_buffers() {
    /// What a sizing pass has no business constructing.
    const BUFFERS: [&str; 5] = [
        "WireWriter::new",
        "WireWriter::with_capacity",
        "WireWriter::default",
        "BytesMut",
        "encode(self)",
    ];
    let offences = |src: &SourceFile| -> Vec<(usize, &'static str)> {
        fn_bodies(src, "fn encoded_len")
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

    let root = workspace_root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples"] {
        fortika_lint::walk_rs(&root.join(dir), &mut files).expect("walkable");
    }
    let mut sizers = 0;
    for path in files {
        let src = SourceFile::load(&path).expect("readable");
        sizers += fn_bodies(&src, "fn encoded_len").count();
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

    let root = workspace_root();
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
