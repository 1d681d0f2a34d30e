//! Findings and the machine-readable report.
//!
//! `fortika-lint` emits two artifacts from one run: human diagnostics
//! (`file:line: rule: message`, one per finding, compiler-style so
//! editors can jump) and `target/lint-report.json`, a deterministic
//! JSON document CI archives and re-reads (`python3 -m json.tool`). It
//! is the one JSON of the workspace not written by `fortika_trace::json`:
//! the lint crate depends on nothing, because the analyzer cannot join
//! the graph it polices, so it carries its own small emitter.

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

    /// Human diagnostics: one `file:line: rule: message` per finding
    /// plus a summary line.
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
        out
    }

    /// The machine-readable report (deterministic: same tree, same
    /// bytes).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"version\": 2,");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"crates_checked\": {},", self.crates_checked);
        let _ = writeln!(out, "  \"violations\": {},", self.findings.len());
        let _ = write!(
            out,
            "  \"non_test_lines\": {{\"total\": {}, \"crates\": {{",
            self.total_non_test_lines()
        );
        for (i, (name, lines)) in self.non_test_lines.iter().enumerate() {
            let comma = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{comma}\"{}\": {lines}", escape(name));
        }
        out.push_str("}},\n");
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let comma = if i + 1 < self.findings.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{comma}",
                escape(f.rule),
                escape(&f.file),
                f.line,
                escape(&f.message)
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_and_deterministic_json() {
        let mut r = Report::default();
        r.findings.push(Finding {
            rule: "layering",
            file: "crates/net/Cargo.toml".into(),
            line: 9,
            message: "b \"quoted\"".into(),
        });
        r.findings.push(Finding {
            rule: "key-namespace",
            file: "crates/net/src/a.rs".into(),
            line: 3,
            message: "a".into(),
        });
        r.sort();
        assert_eq!(r.findings[0].rule, "layering");
        let json = r.to_json();
        assert_eq!(json, r.to_json());
        assert!(json.contains("\"violations\": 2"));
        assert!(json.contains("b \\\"quoted\\\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
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
        let text = r.render_human();
        assert!(text.contains("crates/rbcast/src/lib.rs:12: [key-namespace] a `<< 56` outside"));
        assert!(text.contains("1 violation(s)"));
    }
}
