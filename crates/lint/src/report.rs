//! Findings and the report that carries them.
//!
//! `fortika-lint` prints one artifact: human diagnostics (`file:line:
//! rule: message`, one per finding, compiler-style so editors can jump)
//! followed by the non-test line count of each crate. The gate is
//! `crates/lint/tests/workspace_clean.rs`, which fails `cargo test` on
//! any finding; the binary only prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::source::SourceFile;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (e.g. `key-namespace`, `layering`).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line (0 = whole-file finding).
    pub line: usize,
    /// What went wrong and what to do instead.
    pub message: String,
}

/// Outcome of a full analyzer run.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned by the namespace rule and the line
    /// count.
    pub files_scanned: usize,
    /// Number of crate manifests in the layering graph.
    pub crates_checked: usize,
    /// Non-test lines ([`SourceFile::non_test_lines`]) of each crate's
    /// `src/`, by crate directory name.
    pub non_test_lines: BTreeMap<String, usize>,
}

impl Report {
    /// Adds `src`'s non-test lines to its crate's tally when `rel` lies
    /// under `crates/<name>/src/`; any other file is not counted.
    pub fn tally_lines(&mut self, rel: &str, src: &SourceFile) {
        let Some(rest) = rel.strip_prefix("crates/") else {
            return;
        };
        if let Some((name, path)) = rest.split_once('/') {
            if path.starts_with("src/") {
                *self.non_test_lines.entry(name.to_string()).or_insert(0) += src.non_test_lines();
            }
        }
    }

    /// Non-test lines over every crate's `src/`.
    pub fn total_non_test_lines(&self) -> usize {
        self.non_test_lines.values().sum()
    }

    /// True when the workspace is clean.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Canonical ordering, applied once after all rules ran.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.findings.dedup();
    }

    /// Human diagnostics: one `file:line: rule: message` per finding,
    /// a summary line, and the non-test line count, in total and per
    /// crate.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            if f.line > 0 {
                let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
            } else {
                let _ = writeln!(out, "{}: [{}] {}", f.file, f.rule, f.message);
            }
        }
        let _ = writeln!(
            out,
            "fortika-lint: {} violation(s), {} files / {} crates checked",
            self.findings.len(),
            self.files_scanned,
            self.crates_checked,
        );
        let _ = writeln!(
            out,
            "fortika-lint: {} non-test lines in crates/*/src",
            self.total_non_test_lines()
        );
        for (name, lines) in &self.non_test_lines {
            let _ = writeln!(out, "  {name:<10} {lines:>6}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_sort_by_file_then_line_and_dedup() {
        let finding = |rule, file: &str, line| Finding {
            rule,
            file: file.into(),
            line,
            message: "m".into(),
        };
        let mut r = Report {
            findings: vec![
                finding("key-namespace", "crates/net/src/a.rs", 3),
                finding("layering", "crates/net/Cargo.toml", 9),
                finding("key-namespace", "crates/net/src/a.rs", 3),
            ],
            ..Report::default()
        };
        r.sort();
        assert_eq!(r.findings.len(), 2);
        assert_eq!(r.findings[0].rule, "layering");
    }

    #[test]
    fn human_render_is_compiler_style() {
        let mut r = Report::default();
        r.findings.push(Finding {
            rule: "key-namespace",
            file: "crates/rbcast/src/lib.rs".into(),
            line: 12,
            message: "a `<< 56` outside the key table".into(),
        });
        r.non_test_lines.insert("rbcast".into(), 412);
        let text = r.render_human();
        assert!(text.contains("crates/rbcast/src/lib.rs:12: [key-namespace] a `<< 56` outside"));
        assert!(text.contains("412 non-test lines"));
        assert!(text.contains("  rbcast        412"));
        assert!(text.contains("1 violation(s)"));
    }
}
