//! `fortika-lint`: a workspace determinism & layering analyzer.
//!
//! The chaos harness promises byte-identical prefix replay of any
//! `(scenario, seed)` pair, and the modularity experiment depends on a
//! strict crate layering. Both guarantees are invariants of the *source
//! tree*, not of any single run — a wall-clock read or an upward
//! dependency can sit dormant through every test and still break the
//! next replay. This crate turns them into checked rules.
//!
//! Three rule families (see [`determinism`], [`layering`],
//! [`registry`]):
//!
//! * **determinism** — protocol crates must not read wall clocks, use
//!   ambient randomness, spawn OS threads, or iterate Hash collections
//!   whose order could leak into behavior;
//! * **layering** — the workspace dependency graph must point strictly
//!   down the documented layer order;
//! * **registry** — the scenario-event, link-fault and violation registries must
//!   stay wired end to end (no variant falls through a wildcard).
//!
//! Everything is hand-rolled and dependency-free in the spirit of
//! `fortika_bench::json`: a char-level comment/string stripper, a
//! line-oriented TOML reader, and a deterministic JSON emitter. No
//! `syn`, no `toml`, no `serde` — the analyzer builds offline with the
//! rest of the workspace and stays outside the graph it polices.
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run --release -p fortika-lint
//! ```
//!
//! Diagnostics are compiler-style (`file:line: [rule] message`); the
//! machine-readable report lands in `target/lint-report.json`; the exit
//! code is nonzero iff violations were found. Intentional deviations are
//! waived in-source with `// lint:allow(rule): reason` — the reason is
//! mandatory and every *used* waiver is listed in the report.

pub mod determinism;
pub mod layering;
pub mod registry;
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
    for name in determinism::PROTOCOL_CRATES {
        determinism::check_crate(root, &root.join("crates").join(name), &mut report)?;
    }
    layering::check(root, &mut report)?;
    registry::check(root, &mut report)?;
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
