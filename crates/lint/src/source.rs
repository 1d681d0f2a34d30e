//! Source preprocessing: a comment/string-aware view of a Rust file.
//!
//! The analyzer is a *line-oriented scanner*, not a parser — the same
//! trade the hand-rolled `fortika_trace::json` validator makes. To keep
//! that honest it never matches banned tokens against raw text: every
//! file is first run through a small character-level state machine that
//! blanks out comments (so `// uses Instant for ...` cannot fire a
//! rule) and, for a second view, string literals (so
//! `"std::thread::spawn"` in a diagnostic message cannot either).
//!
//! Three views of each file, all line-aligned with the original:
//!
//! * [`SourceFile::raw`] — the bytes as committed (waiver comments are
//!   read from here, since waivers *live* in comments);
//! * [`SourceFile::code`] — comments blanked, strings intact (for rules
//!   that read literals);
//! * [`SourceFile::scan`] — comments *and* string contents blanked
//!   (banned-token matching happens here).
//!
//! `#[cfg(test)]` module regions are detected and masked out of the
//! determinism rules: the replay guarantees the lints protect concern
//! runtime protocol code, and test bodies routinely build throwaway
//! maps for assertions.

use std::fmt;
use std::path::{Path, PathBuf};

/// The waiver marker the analyzer honors: `// lint:allow(rule): reason`.
pub const WAIVER_MARKER: &str = "lint:allow(";

/// A justified waiver parsed from a `// lint:allow(rule): reason`
/// comment. A waiver covers its own line and the line directly below it
/// (so it can sit above the offending statement).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// The rule being waived (e.g. `unordered-iter`).
    pub rule: String,
    /// The written justification after the colon. The scanner rejects
    /// empty reasons: an unexplained waiver is itself a violation.
    pub reason: String,
    /// 1-based line the waiver comment sits on.
    pub line: usize,
}

/// A preprocessed source file (see the [module docs](self)).
pub struct SourceFile {
    /// Path as given to [`SourceFile::load`] (diagnostics use it).
    pub path: PathBuf,
    /// Original lines.
    pub raw: Vec<String>,
    /// Comments blanked, string literals intact.
    pub code: Vec<String>,
    /// Comments and string-literal contents blanked.
    pub scan: Vec<String>,
    /// Per line: inside a `#[cfg(test)]` module region.
    pub in_test: Vec<bool>,
    /// Well-formed waivers, in line order.
    pub waivers: Vec<Waiver>,
    /// Malformed waiver markers: `(line, problem)`.
    pub bad_waivers: Vec<(usize, String)>,
}

impl fmt::Debug for SourceFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SourceFile")
            .field("path", &self.path)
            .field("lines", &self.raw.len())
            .field("waivers", &self.waivers.len())
            .finish()
    }
}

impl SourceFile {
    /// Reads and preprocesses `path`.
    pub fn load(path: &Path) -> std::io::Result<SourceFile> {
        let text = std::fs::read_to_string(path)?;
        Ok(SourceFile::from_text(path, &text))
    }

    /// Preprocesses in-memory content (fixture tests use this).
    pub fn from_text(path: &Path, text: &str) -> SourceFile {
        let (code_text, scan_text) = strip(text);
        let raw: Vec<String> = text.lines().map(str::to_string).collect();
        let code: Vec<String> = code_text.lines().map(str::to_string).collect();
        let scan: Vec<String> = scan_text.lines().map(str::to_string).collect();
        let in_test = test_mask(&scan);
        let (waivers, bad_waivers) = parse_waivers(&raw);
        SourceFile {
            path: path.to_path_buf(),
            raw,
            code,
            scan,
            in_test,
            waivers,
            bad_waivers,
        }
    }

    /// The file's non-test lines: lines outside every `#[cfg(test)]`
    /// item that are not blank and do not start with `//` once leading
    /// whitespace is trimmed (so `///` and `//!` docs do not count
    /// either). Code after a test item counts again.
    pub fn non_test_lines(&self) -> usize {
        self.raw
            .iter()
            .zip(&self.in_test)
            .filter(|(line, in_test)| {
                let t = line.trim();
                !**in_test && !t.is_empty() && !t.starts_with("//")
            })
            .count()
    }

    /// True when `rule` is waived for 1-based line `line` (waiver on the
    /// same line or the line directly above). Reasons were validated at
    /// parse time.
    pub fn waived(&self, rule: &str, line: usize) -> bool {
        self.waivers
            .iter()
            .any(|w| w.rule == rule && (w.line == line || w.line + 1 == line))
    }
}

/// Blanks comments (both views) and string contents (scan view only),
/// preserving line structure. Returns `(code, scan)`.
fn strip(text: &str) -> (String, String) {
    #[derive(PartialEq)]
    enum St {
        Normal,
        Line,          // // … to end of line
        Block(usize),  // /* … */ nest depth
        Str,           // "…"
        RawStr(usize), // r##"…"## with hash count
        Char,          // '…'
    }
    let mut code = String::with_capacity(text.len());
    let mut scan = String::with_capacity(text.len());
    let mut st = St::Normal;
    let bytes: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match st {
            St::Normal => match c {
                '/' if next == Some('/') => {
                    st = St::Line;
                    code.push(' ');
                    scan.push(' ');
                }
                '/' if next == Some('*') => {
                    st = St::Block(1);
                    code.push(' ');
                    scan.push(' ');
                }
                '"' => {
                    st = St::Str;
                    code.push(c);
                    scan.push(c);
                }
                'r' if next == Some('"') || next == Some('#') => {
                    // Possible raw string r"…" / r#"…"#.
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') {
                        st = St::RawStr(hashes);
                        for &ch in &bytes[i..=j] {
                            code.push(ch);
                            scan.push(ch);
                        }
                        i = j + 1;
                        continue;
                    }
                    code.push(c);
                    scan.push(c);
                }
                '\'' => {
                    // Char literal vs lifetime: 'a' has a closing quote
                    // within the next three chars ('x', '\n', '\u{..}'
                    // is longer but rare — treat as char until close).
                    let is_lifetime = matches!(next, Some(n) if n.is_alphabetic() || n == '_')
                        && bytes.get(i + 2) != Some(&'\'');
                    if is_lifetime {
                        code.push(c);
                        scan.push(c);
                    } else {
                        st = St::Char;
                        code.push(c);
                        scan.push(c);
                    }
                }
                _ => {
                    code.push(c);
                    scan.push(c);
                }
            },
            St::Line => {
                if c == '\n' {
                    st = St::Normal;
                    code.push('\n');
                    scan.push('\n');
                } else {
                    code.push(' ');
                    scan.push(' ');
                }
            }
            St::Block(depth) => {
                if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Normal
                    } else {
                        St::Block(depth - 1)
                    };
                    code.push_str("  ");
                    scan.push_str("  ");
                    i += 2;
                    continue;
                } else if c == '/' && next == Some('*') {
                    st = St::Block(depth + 1);
                    code.push_str("  ");
                    scan.push_str("  ");
                    i += 2;
                    continue;
                } else if c == '\n' {
                    code.push('\n');
                    scan.push('\n');
                } else {
                    code.push(' ');
                    scan.push(' ');
                }
            }
            St::Str => match c {
                '\\' => {
                    code.push(c);
                    scan.push(' ');
                    if let Some(n) = next {
                        code.push(n);
                        scan.push(if n == '\n' { '\n' } else { ' ' });
                        i += 2;
                        continue;
                    }
                }
                '"' => {
                    st = St::Normal;
                    code.push(c);
                    scan.push(c);
                }
                '\n' => {
                    code.push('\n');
                    scan.push('\n');
                }
                _ => {
                    code.push(c);
                    scan.push(' ');
                }
            },
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0;
                    while seen < hashes && bytes.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        st = St::Normal;
                        for &ch in &bytes[i..j] {
                            code.push(ch);
                            scan.push(ch);
                        }
                        i = j;
                        continue;
                    }
                }
                code.push(c);
                scan.push(if c == '\n' { '\n' } else { ' ' });
            }
            St::Char => match c {
                '\\' => {
                    code.push(c);
                    scan.push(' ');
                    if let Some(n) = next {
                        code.push(n);
                        scan.push(' ');
                        i += 2;
                        continue;
                    }
                }
                '\'' => {
                    st = St::Normal;
                    code.push(c);
                    scan.push(c);
                }
                _ => {
                    code.push(c);
                    scan.push(if c == '\n' { '\n' } else { ' ' });
                }
            },
        }
        i += 1;
    }
    (code, scan)
}

/// Marks the lines belonging to `#[cfg(test)]` items (the attribute, the
/// item header, and the braced body).
fn test_mask(scan: &[String]) -> Vec<bool> {
    let mut mask = vec![false; scan.len()];
    let mut i = 0;
    while i < scan.len() {
        let t = scan[i].trim();
        if t.starts_with("#[cfg(test)]") || t.starts_with("#[cfg(all(test") {
            let start = i;
            // Find the opening brace of the annotated item (skipping
            // further attributes), then the matching close.
            let mut depth: i64 = 0;
            let mut opened = false;
            let mut j = i;
            while j < scan.len() {
                for c in scan[j].chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        ';' if !opened && depth == 0 => {
                            // Braceless item (e.g. `mod tests;`).
                            opened = true;
                            depth = 0;
                        }
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            let end = j.min(scan.len() - 1);
            for m in mask.iter_mut().take(end + 1).skip(start) {
                *m = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// Parses `// lint:allow(rule): reason` markers out of the raw lines.
fn parse_waivers(raw: &[String]) -> (Vec<Waiver>, Vec<(usize, String)>) {
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    for (idx, line) in raw.iter().enumerate() {
        let lineno = idx + 1;
        let Some(pos) = line.find(WAIVER_MARKER) else {
            continue;
        };
        // The marker must live in a `//` comment on this line.
        match line.find("//") {
            Some(c) if c < pos => {}
            _ => {
                bad.push((lineno, "lint:allow outside a // comment".to_string()));
                continue;
            }
        }
        let rest = &line[pos + WAIVER_MARKER.len()..];
        let Some(close) = rest.find(')') else {
            bad.push((lineno, "unterminated lint:allow(rule)".to_string()));
            continue;
        };
        let rule = rest[..close].trim().to_string();
        if rule.is_empty() {
            bad.push((lineno, "empty rule name in lint:allow".to_string()));
            continue;
        }
        let after = &rest[close + 1..];
        let reason = match after.strip_prefix(':') {
            Some(r) => r.trim().to_string(),
            None => String::new(),
        };
        if reason.is_empty() {
            bad.push((
                lineno,
                format!("waiver for `{rule}` has no justification (syntax: `// lint:allow({rule}): reason`)"),
            ));
            continue;
        }
        ok.push(Waiver {
            rule,
            reason,
            line: lineno,
        });
    }
    (ok, bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn sf(text: &str) -> SourceFile {
        SourceFile::from_text(Path::new("mem.rs"), text)
    }

    #[test]
    fn comments_are_blanked_in_both_views() {
        let s = sf("let x = 1; // Instant::now here\n/* SystemTime */ let y = 2;\n");
        assert!(!s.scan[0].contains("Instant"));
        assert!(!s.code[0].contains("Instant"));
        assert!(s.scan[1].contains("let y = 2;"));
        assert!(!s.scan[1].contains("SystemTime"));
    }

    #[test]
    fn strings_survive_code_view_but_not_scan_view() {
        let s = sf("bump(\"std::thread::spawn\", 1);\n");
        assert!(s.code[0].contains("std::thread::spawn"));
        assert!(!s.scan[0].contains("std::thread::spawn"));
        // Quotes stay so literal extraction can find the span.
        assert_eq!(s.scan[0].matches('"').count(), 2);
    }

    #[test]
    fn nested_block_comments_and_raw_strings() {
        let s = sf("/* a /* b */ Instant */ ok\nlet r = r#\"thread_rng\"#;\n");
        assert!(!s.scan[0].contains("Instant"));
        assert!(s.scan[0].contains("ok"));
        assert!(!s.scan[1].contains("thread_rng"));
        assert!(s.code[1].contains("thread_rng"));
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let s = sf("fn f<'a>(x: &'a str) -> &'a str { x } // Instant\n");
        assert!(s.scan[0].contains("fn f<'a>"));
        assert!(!s.scan[0].contains("Instant"));
    }

    #[test]
    fn cfg_test_regions_are_masked() {
        let text = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn tail() {}\n";
        let s = sf(text);
        assert_eq!(s.in_test, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn waiver_parsing_demands_a_reason() {
        let s = sf(
            "// lint:allow(unordered-iter): feeds a commutative fold\nx.iter();\n// lint:allow(wall-clock)\n",
        );
        assert_eq!(s.waivers.len(), 1);
        assert_eq!(s.waivers[0].rule, "unordered-iter");
        assert!(s.waived("unordered-iter", 2));
        assert!(!s.waived("unordered-iter", 3));
        assert_eq!(s.bad_waivers.len(), 1);
        assert!(s.bad_waivers[0].1.contains("no justification"));
    }
}
