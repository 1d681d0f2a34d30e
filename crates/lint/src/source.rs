//! Source preprocessing: a comment/string-aware view of a Rust file.
//!
//! The analyzer is a *line-oriented scanner*, not a parser — the same
//! trade the hand-rolled `fortika_trace::json` validator makes. To keep
//! that honest it never matches against raw text: every file is first
//! run through a small character-level state machine that blanks out
//! comments (so `// 3 << 56` cannot fire a rule) and string-literal
//! contents (so a `"<< 56"` in a diagnostic message cannot either).
//!
//! Two views of each file, line-aligned with each other:
//!
//! * [`SourceFile::raw`] — the bytes as committed (the non-test line
//!   count reads it, since doc comments are lines too);
//! * [`SourceFile::scan`] — comments and string contents blanked
//!   (rule matching happens here).
//!
//! `#[cfg(test)]` item regions are detected and masked ([`SourceFile::in_test`]):
//! test code is not counted as the crate's lines.

use std::path::{Path, PathBuf};

/// A preprocessed source file (see the [module docs](self)).
#[derive(Debug)]
pub struct SourceFile {
    /// Path as given to [`SourceFile::load`] (diagnostics use it).
    pub path: PathBuf,
    /// Original lines.
    pub raw: Vec<String>,
    /// Comments and string-literal contents blanked.
    pub scan: Vec<String>,
    /// Per line: inside a `#[cfg(test)]` item region.
    pub in_test: Vec<bool>,
}

impl SourceFile {
    /// Reads and preprocesses `path`.
    pub fn load(path: &Path) -> std::io::Result<SourceFile> {
        let text = std::fs::read_to_string(path)?;
        Ok(SourceFile::from_text(path, &text))
    }

    /// Preprocesses in-memory content (fixture tests use this).
    pub fn from_text(path: &Path, text: &str) -> SourceFile {
        let scan: Vec<String> = strip(text).lines().map(str::to_string).collect();
        let in_test = test_mask(&scan);
        SourceFile {
            path: path.to_path_buf(),
            raw: text.lines().map(str::to_string).collect(),
            scan,
            in_test,
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
}

/// Blanks comments and string-literal contents (the quotes stay),
/// preserving line structure.
fn strip(text: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Normal,
        Line,          // // … to end of line
        Block(usize),  // /* … */ nest depth
        Str,           // "…"
        RawStr(usize), // r##"…"## with hash count
        Char,          // '…'
    }
    // Inside a comment or literal every character but a newline blanks.
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    let mut out = String::with_capacity(text.len());
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
                    out.push(' ');
                }
                '/' if next == Some('*') => {
                    st = St::Block(1);
                    out.push(' ');
                }
                '"' => {
                    st = St::Str;
                    out.push(c);
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
                        out.extend(&bytes[i..=j]);
                        i = j + 1;
                        continue;
                    }
                    out.push(c);
                }
                '\'' => {
                    // Char literal vs lifetime: 'a' has a closing quote
                    // within the next three chars ('x', '\n', '\u{..}'
                    // is longer but rare — treat as char until close).
                    let is_lifetime = matches!(next, Some(n) if n.is_alphabetic() || n == '_')
                        && bytes.get(i + 2) != Some(&'\'');
                    if !is_lifetime {
                        st = St::Char;
                    }
                    out.push(c);
                }
                _ => out.push(c),
            },
            St::Line => {
                if c == '\n' {
                    st = St::Normal;
                }
                out.push(blank(c));
            }
            St::Block(depth) => {
                if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Normal
                    } else {
                        St::Block(depth - 1)
                    };
                    out.push_str("  ");
                    i += 2;
                    continue;
                } else if c == '/' && next == Some('*') {
                    st = St::Block(depth + 1);
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                out.push(blank(c));
            }
            St::Str | St::Char if c == '\\' => {
                out.push(' ');
                if let Some(n) = next {
                    out.push(blank(n));
                    i += 2;
                    continue;
                }
            }
            St::Str if c == '"' => {
                st = St::Normal;
                out.push(c);
            }
            St::Char if c == '\'' => {
                st = St::Normal;
                out.push(c);
            }
            St::Str | St::Char => out.push(blank(c)),
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
                        out.extend(&bytes[i..j]);
                        i = j;
                        continue;
                    }
                }
                out.push(blank(c));
            }
        }
        i += 1;
    }
    out
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn sf(text: &str) -> SourceFile {
        SourceFile::from_text(Path::new("mem.rs"), text)
    }

    #[test]
    fn comments_are_blanked() {
        let s = sf("let x = 1; // 3 << 56 here\n/* 3 << 56 */ let y = 2;\n");
        assert!(!s.scan[0].contains("56"));
        assert!(s.scan[1].contains("let y = 2;"));
        assert!(!s.scan[1].contains("56"));
    }

    #[test]
    fn string_contents_are_blanked_and_quotes_stay() {
        let s = sf("bump(\"3 << 56\", 1);\n");
        assert!(!s.scan[0].contains("56"));
        assert_eq!(s.scan[0].matches('"').count(), 2);
    }

    #[test]
    fn nested_block_comments_and_raw_strings() {
        let s = sf("/* a /* b */ Instant */ ok\nlet r = r#\"thread_rng\"#;\n");
        assert!(!s.scan[0].contains("Instant"));
        assert!(s.scan[0].contains("ok"));
        assert!(!s.scan[1].contains("thread_rng"));
        assert!(s.scan[1].contains("r#\"") && s.scan[1].ends_with("\"#;"));
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
}
