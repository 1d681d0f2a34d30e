//! `fortika-lint`: the workspace checks no compiler can make.
//!
//! The chaos harness promises byte-identical prefix replay of any
//! `(scenario, seed)` pair, and the modularity experiment depends on a
//! strict crate layering. Determinism and the chaos registries are
//! the compiler's to check: `clippy.toml` bans wall clocks, OS threads
//! and std's randomly seeded Hash collections by resolved path, and
//! the registry functions carry `#[deny(clippy::wildcard_enum_match_arm,
//! clippy::match_wildcard_for_single_variants)]` (docs/LINTS.md, "What
//! the compiler checks"). This crate checks what lies outside any one
//! crate's source:
//!
//! * **layering** ([`layering`]) — the workspace dependency graph must
//!   point strictly down the documented layer order, and nothing may
//!   come from outside the workspace but the vendored crates;
//! * **namespace** ([`namespace`]) — stable-key namespaces (`N << 56`)
//!   are spelled only in the one key table that checks them disjoint;
//! * **non-test lines** — the line count of `crates/*/src`, per crate.
//!
//! Everything is hand-rolled and dependency-free: a char-level
//! comment/string stripper and a line-oriented TOML reader. No `syn`,
//! no `toml`, no `serde` — the analyzer builds offline with the rest of
//! the workspace and stays outside the graph it polices.
//!
//! The gate is `cargo test`: `tests/workspace_clean.rs` runs [`run`] on
//! the committed tree and fails on any finding. The binary prints the
//! same findings and the non-test line count per crate
//! ([`Report::non_test_lines`](report::Report::non_test_lines)), which is
//! how a change quotes its line delta:
//!
//! ```text
//! cargo run --release -p fortika-lint [-- --root DIR]
//! ```
//!
//! Diagnostics are compiler-style (`file:line: [rule] message`); the
//! exit code is nonzero iff violations were found.

pub mod layering;
pub mod namespace;
pub mod report;
pub mod source;

use std::path::{Path, PathBuf};

use report::Report;

/// Recursively collects `.rs` files under `dir` (sorted, so scan order —
/// and therefore report order — never depends on directory enumeration).
/// A missing `dir` is fine: not every workspace has `examples/`.
pub fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            // `target/` holds build products, never sources to lint.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative label for diagnostics, forward slashes on every
/// platform so reports are byte-identical across OSes.
pub fn rel_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Runs every rule family over the workspace rooted at `root` and
/// returns the sorted report.
pub fn run(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    layering::check(root, &mut report)?;
    namespace::check(root, &mut report)?;
    report.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_label_uses_forward_slashes() {
        let root = Path::new("/ws");
        let p = Path::new("/ws/crates/net/src/lib.rs");
        assert_eq!(rel_label(root, p), "crates/net/src/lib.rs");
    }
}
