//! CLI entry point: scan the workspace, print diagnostics and the
//! non-test line count per crate, exit nonzero on violations.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: fortika-lint [--root DIR]\n\n\
    Prints every layering and key-namespace finding (docs/LINTS.md) and the\n\
    non-test line count of crates/*/src per crate. DIR defaults to the\n\
    workspace this binary was built from. Exits 0 on a clean tree, 1 on\n\
    violations.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match args.as_slice() {
        [] => None,
        [flag, dir] if flag == "--root" => Some(PathBuf::from(dir)),
        _ => {
            eprintln!("fortika-lint: unexpected arguments {args:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Default root: the workspace this binary was built from (so
    // `cargo run -p fortika-lint` works from any subdirectory), falling
    // back to the current directory for a prebuilt binary.
    let root = root.unwrap_or_else(|| {
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest
            .parent()
            .and_then(|p| p.parent())
            .filter(|ws| ws.join("Cargo.toml").is_file())
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    });

    let report = match fortika_lint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fortika-lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    print!("{}", report.render_human());
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
