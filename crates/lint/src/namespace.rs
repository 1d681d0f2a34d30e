//! The stable-store namespace rule.
//!
//! Every layer of a stack writes to one stable store, so the key
//! namespaces must be pairwise disjoint. `fortika_net::replica::keys`
//! gives each one a high byte (`N << 56`) and asserts at compile time
//! that no two collide; a namespace spelled anywhere else escapes that
//! assertion. rbcast's sequence counter once did, sharing `3 << 56`
//! with the consensus snapshot, and clobbered it.
//!
//! * [`key-namespace`](RULE_KEY_NAMESPACE) — a shift by 56 outside
//!   [`KEY_TABLE`]. Test code is not exempt: a test that spells a
//!   namespace tests a copy of the table, not the table.

use std::path::Path;

use crate::report::{Finding, Report};
use crate::source::SourceFile;

/// Rule id: a stable-key namespace shift outside the key table.
pub const RULE_KEY_NAMESPACE: &str = "key-namespace";

/// The one file whose key table may spell a namespace shift.
pub const KEY_TABLE: &str = "crates/net/src/replica.rs";

/// The shift that places a namespace in a key's high byte.
const NAMESPACE_SHIFT: u64 = 56;

/// Flags every `<< 56` (or `<<= 56`) in `src`, unless `rel` is
/// [`KEY_TABLE`].
pub fn check_file(src: &SourceFile, rel: &str, report: &mut Report) {
    if rel == KEY_TABLE {
        return;
    }
    for (idx, line) in src.scan.iter().enumerate() {
        if shifts_by(line, NAMESPACE_SHIFT) {
            report.findings.push(Finding {
                rule: RULE_KEY_NAMESPACE,
                file: rel.to_string(),
                line: idx + 1,
                message: format!(
                    "a `<< {NAMESPACE_SHIFT}` stable-key namespace outside {KEY_TABLE}: take \
                     the key from `fortika_net::replica::keys`, or add it there, where the \
                     namespaces are checked to be disjoint"
                ),
            });
        }
    }
}

/// True when `line` shifts left by the integer literal `amount`
/// (`<< 56`, `<<56`, `<<= 56u32`, `<< 5_6`), but not by a longer
/// literal that starts with its digits (`<< 560`) or by an expression.
fn shifts_by(line: &str, amount: u64) -> bool {
    line.match_indices("<<").any(|(at, _)| {
        let rest = line[at + 2..].trim_start_matches('=').trim_start();
        let literal: String = rest
            .chars()
            .take_while(|&c| is_ident_char(c))
            .filter(|&c| c != '_')
            .collect();
        let end = literal
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(literal.len());
        let (digits, suffix) = literal.split_at(end);
        // A type suffix may follow the digits; anything else (`0x38`)
        // is not the decimal literal.
        let suffix_ok = suffix.is_empty() || suffix.starts_with(['u', 'i']);
        suffix_ok && digits.parse() == Ok(amount)
    })
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Scans the sources of every workspace member — each crate's `src/`
/// and `tests/`, and the umbrella's `src/`, `tests/` and `examples/` —
/// appending findings to `report`, counting the files scanned and
/// tallying each crate's non-test lines ([`Report::tally_lines`]).
pub fn check(root: &Path, report: &mut Report) -> std::io::Result<()> {
    let mut dirs = vec![root.join("src"), root.join("tests"), root.join("examples")];
    let mut crates: Vec<_> = std::fs::read_dir(root.join("crates"))?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    crates.sort();
    for dir in crates {
        dirs.extend([dir.join("src"), dir.join("tests")]);
    }
    let mut files = Vec::new();
    for dir in dirs {
        crate::walk_rs(&dir, &mut files)?;
    }
    for path in files {
        let src = SourceFile::load(&path)?;
        let rel = crate::rel_label(root, &path);
        check_file(&src, &rel, report);
        report.files_scanned += 1;
        report.tally_lines(&rel, &src);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_shift_by_the_literal_56_matches() {
        for hit in [
            "1 << 56",
            "(3u64<<56)",
            "k <<= 56;",
            "1 << 56u32",
            "1 << 5_6",
        ] {
            assert!(shifts_by(hit, 56), "{hit}");
        }
        for miss in [
            "1 << 560",
            "1 << 5",
            "1 << SHIFT",
            "1 << (56)",
            "x >> 56",
            "1 << 0x38",
        ] {
            assert!(!shifts_by(miss, 56), "{miss}");
        }
    }
}
