//! `probe` takes no argument, and refuses any before it runs or writes
//! anything: an argument must not take the bare path, which regenerates
//! every committed `BENCH_*.json` in place. Checking the committed files
//! is a tier-1 test (`sweep_table.rs`), so `--check` is refused too.

use std::path::Path;
use std::process::Command;

#[test]
fn unknown_argument_exits_non_zero_and_writes_nothing() {
    for arg in ["--check", "--chek", "--trace", "--fuzz-quick"] {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("probe-arg{arg}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut probe = Command::new(env!("CARGO_BIN_EXE_probe"));
        let out = probe.arg(arg).current_dir(&dir).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "probe {arg}");
        let usage = String::from_utf8_lossy(&out.stderr);
        assert!(usage.contains("usage: probe\n"), "{usage}");
        let written = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(written, 0, "probe {arg} wrote into its working directory");
    }
}
