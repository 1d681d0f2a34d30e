//! CLI entry point: scan the workspace, print diagnostics, write
//! `target/lint-report.json`, exit nonzero on violations.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--json-out" => json_out = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!(
                    "fortika-lint: workspace layering, key-namespace and line-count analyzer\n\n\
                     USAGE: fortika-lint [--root DIR] [--json-out PATH]\n\n\
                     --root DIR       workspace root (default: auto-detected)\n\
                     --json-out PATH  report path (default: <root>/target/lint-report.json)\n\n\
                     Exits 0 on a clean tree, 1 on violations. Determinism and the\n\
                     registries are clippy's to check (clippy.toml); the rules of\n\
                     both: docs/LINTS.md."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("fortika-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

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

    let json_path = json_out.unwrap_or_else(|| root.join("target").join("lint-report.json"));
    if let Some(dir) = json_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&json_path, report.to_json()) {
        eprintln!("fortika-lint: failed to write {}: {e}", json_path.display());
        return ExitCode::from(2);
    }
    println!("report: {}", json_path.display());

    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
