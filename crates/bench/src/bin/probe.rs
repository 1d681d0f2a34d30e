//! Calibration probe and sweep emitter.
//!
//! Prints latency/throughput tables at fixed operating points so the
//! cost model can be tuned against the paper's shapes, and writes the
//! machine-readable `BENCH_*.json` trajectory files — one per row of
//! [`fortika_bench::sweeps::SWEEPS`], which documents them — meant to be
//! committed so performance history accumulates.
//!
//! Bare `probe` regenerates the committed files in place, holding every run
//! to the paper's closed forms on the way
//! ([`fortika_bench::sweeps::closed_form_audit`]) and every fault-free run
//! to zero suspicions ([`fortika_bench::sweeps::suspicion_audit`]), which
//! also holds them to their silence budget, and prints that budget: the
//! longest silence of the coordinator's links and of every other link,
//! against their timeouts. `--check` (CI runs this) writes the same sweeps
//! under `target/bench/` instead, and each file must be **byte-equal** to
//! its committed counterpart: the simulator is deterministic, so any
//! difference means the simulation drifted since the committed sweep was
//! generated, or the committed file was edited by hand — the fix is a
//! deliberate regeneration, not a silent one. It also folds every run's
//! window counters into a [`CoverageReport`] written to
//! `target/coverage-report.json`. Only then does it fail (exit 1), listing
//! every differing file with its first differing record and every failed
//! sweep, so one run names all of them. In either mode every file written
//! is re-read and must parse and cover both stacks.
//!
//! Any other argument is refused (exit 2) before anything is written.

use fortika_bench::sweeps::{
    closed_form_audit, fault_free, json_document, suspicion_audit, SilenceBudget, Sweep, SWEEPS,
};
use fortika_chaos::CoverageReport;
use fortika_core::{FdConfig, RunReport};
use fortika_trace::json;

/// Where `--check` writes the sweeps, leaving the committed files in
/// the repo root untouched.
const CHECK_DIR: &str = "target/bench";

/// Asserts that a bench file parses and covers both stacks.
fn verify_bench(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("re-read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let points = doc
        .get("points")
        .and_then(json::Value::as_array)
        .ok_or_else(|| format!("{path}: no points array"))?;
    for want in ["modular", "monolithic"] {
        if !points
            .iter()
            .any(|p| p.get("stack").and_then(json::Value::as_str) == Some(want))
        {
            return Err(format!("{path}: no {want} points"));
        }
    }
    Ok(())
}

fn print_run_row(label: &str, r: &RunReport) {
    println!(
        "{:>18} {:>10} {:>3} {:>6.0} {:>7} | {:>9.3} {:>9.1} {:>7.2} {:>6.2} {:>8.2} {:>9.1}",
        label,
        r.kind.label(),
        r.n,
        r.offered_load,
        r.msg_size,
        r.early_latency_ms.mean,
        r.throughput_msgs_per_sec,
        r.avg_batch_m,
        r.max_cpu_utilization,
        r.msgs_per_instance,
        r.bytes_per_instance / 1024.0
    );
}

fn print_header(title: &str) {
    println!();
    println!("## {title}");
    println!(
        "{:>18} {:>10} {:>3} {:>6} {:>7} | {:>9} {:>9} {:>7} {:>6} {:>8} {:>9}",
        "point", "stack", "n", "load", "size", "lat(ms)", "thr", "M", "cpu", "msg/inst", "KB/inst"
    );
}

/// The one rule for every audited run: the oracle must have reported,
/// and reported nothing. A missing report means the audit did not
/// happen — a failure, not a pass.
fn audit(r: &RunReport) -> Result<(), String> {
    match r.oracle.as_ref().map(|o| o.violations.len()) {
        None => Err("audited, but the run carries no oracle report".to_string()),
        Some(0) => Ok(()),
        Some(v) => Err(format!("{v} oracle violation(s)")),
    }
}

/// The one sweep driver: runs every point of `sweep`, requires audited
/// points to come back clean, runs the sweep's self-check over all the
/// reports, then writes `dir/<file>` and re-verifies it. The silence
/// budget of its fault-free runs is folded into `budget`.
fn run_sweep(
    sweep: &Sweep,
    dir: &str,
    coverage: &mut CoverageReport,
    budget: &mut SilenceBudget,
) -> Result<(), String> {
    print_header(sweep.title);
    let mut runs = Vec::new();
    for point in (sweep.points)() {
        let r = point.experiment().run();
        coverage.absorb(&r.counters);
        print_run_row(&point.label, &r);
        let at = || {
            let (label, stack) = (&point.label, point.kind.label());
            format!(
                "{label} ({stack} n={} load={} size={})",
                point.n, point.load, point.size
            )
        };
        if point.scenario.is_some() {
            audit(&r).map_err(|e| format!("{}: {e}", at()))?;
        }
        closed_form_audit(&point, &r).map_err(|e| format!("{}: {e}", at()))?;
        suspicion_audit(&point, &r).map_err(|e| format!("{}: {e}", at()))?;
        if fault_free(&point) {
            *budget = budget.max(SilenceBudget::of(&r));
        }
        runs.push((point, r));
    }
    (sweep.check)(&runs)?;
    let path = format!("{dir}/{}", sweep.file());
    std::fs::write(&path, json_document(sweep.benchmark, &runs))
        .map_err(|e| format!("write {path}: {e}"))?;
    verify_bench(&path)?;
    println!("wrote {path} ({} operating points)", runs.len());
    Ok(())
}

/// `--check`: the freshly generated `file` under [`CHECK_DIR`] must be
/// byte-equal to the committed one in the repo root. A drifted file
/// comes back as a report naming its first differing record.
fn drift_from_committed(file: &str) -> Result<Option<String>, String> {
    let read =
        |path: String| std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"));
    let (fresh, committed) = (
        read(format!("{CHECK_DIR}/{file}"))?,
        read(file.to_string())?,
    );
    if fresh == committed {
        println!("{file}: byte-equal to the committed sweep");
        return Ok(None);
    }
    let first = fresh
        .lines()
        .zip(committed.lines())
        .enumerate()
        .find(|(_, (now, was))| now != was);
    Ok(Some(match first {
        Some((i, (now, was))) => format!(
            "{file}, line {}:\n    committed: {}\n    generated: {}",
            i + 1,
            was.trim(),
            now.trim()
        ),
        None => format!(
            "{file}: {} lines generated, {} committed",
            fresh.lines().count(),
            committed.lines().count()
        ),
    }))
}

const USAGE: &str = "usage: probe [--check]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = match args.as_slice() {
        [] => false,
        [flag] if flag == "--check" => true,
        _ => {
            eprintln!("probe: unexpected arguments {args:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(check) {
        eprintln!("probe: {e}");
        std::process::exit(1);
    }
}

/// Runs the sweeps: into [`CHECK_DIR`] and compared with the committed
/// files under `check`, otherwise regenerating the committed files in
/// place.
fn run(check: bool) -> Result<(), String> {
    let dir = if check { CHECK_DIR } else { "." };
    if check {
        println!("probe --check: sweeps under {CHECK_DIR}/, compared with the committed files");
        std::fs::create_dir_all(CHECK_DIR).map_err(|e| format!("mkdir {CHECK_DIR}: {e}"))?;
    }
    // Every sweep runs before any failure is reported: one run names
    // every drifted file.
    let mut failures = Vec::new();
    let mut coverage = CoverageReport::new();
    let mut budget = SilenceBudget::default();
    for sweep in &SWEEPS {
        if let Err(e) = run_sweep(sweep, dir, &mut coverage, &mut budget) {
            failures.push(format!("{} sweep failed: {e}", sweep.name));
        } else if check {
            if let Some(drift) = drift_from_committed(&sweep.file())? {
                failures.push(drift);
            }
        }
    }
    let fd = FdConfig::default();
    println!(
        "\nsilence budget of the fault-free runs: {} on the coordinator's links \
         (timeout {}), {} on the others (timeout {})",
        budget.coordinator,
        fd.coordinator_timeout(),
        budget.member,
        fd.timeout
    );
    if check {
        // The per-branch coverage of everything this run exercised,
        // archived by CI next to the violation dumps.
        let coverage_path = std::path::Path::new("target/coverage-report.json");
        coverage
            .write_json(coverage_path)
            .map_err(|e| format!("writing {}: {e}", coverage_path.display()))?;
        println!("wrote {}", coverage_path.display());
    }
    if !failures.is_empty() {
        return Err(format!(
            "{} failure(s):\n  {}\nA file that differs from its committed sweep means the \
             simulation drifted or the committed file is stale (the generated copies are under \
             {CHECK_DIR}/); compare the two, then regenerate with `cargo run --release -p \
             fortika-bench --bin probe` and commit the result",
            failures.len(),
            failures.join("\n  ")
        ));
    }
    println!("\nall bench files verified (JSON parses, both stacks covered)");
    Ok(())
}
