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
//! `--trace` runs the tracing smoke instead of the sweeps: one traced
//! run per stack, verifying that the latency decomposition's components
//! sum to the end-to-end latency and that the JSONL / Chrome exports
//! under `target/trace/` are well-formed.
//!
//! `--fuzz-quick` runs a bounded coverage-steered fuzz campaign per
//! stack (see `docs/FUZZING.md`), archives each campaign's coverage
//! matrix under `target/fuzz/`, and fails (exit 1) on any safety
//! violation — after ddmin-shrinking the offending scenario and writing
//! the minimized reproducer next to the matrix — and when a campaign
//! never reaches one of [`WITNESSED`]: the own-message resend and the
//! catch-up paths.
//!
//! Any other argument is refused (exit 2) before anything is written.

use fortika_bench::sweeps::{
    closed_form_audit, fault_free, json_document, suspicion_audit, SilenceBudget, Sweep, SWEEPS,
};
use fortika_chaos::{minimize, CoverageReport, FuzzCampaign, FuzzConfig, StopReason};
use fortika_core::workload::Workload;
use fortika_core::{
    fuzz_runner, run_fuzz_scenario, Experiment, FdConfig, RunReport, StackConfig, StackKind,
    TraceConfig,
};
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

/// Where the tracing smoke writes its exports.
const TRACE_DIR: &str = "target/trace";

/// The `--trace` smoke: one traced run per stack at a moderate
/// operating point. Verifies the decomposition identity (queueing +
/// transmission + CPU + durability = end-to-end) and that the
/// JSONL / Chrome exports under [`TRACE_DIR`] re-read as well-formed.
fn trace_smoke() -> Result<(), String> {
    println!("probe --trace: tracing smoke (decomposition + exports)");
    println!(
        "{:>10} | {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7} {:>9}",
        "stack", "total", "queue", "wire", "cpu", "durable", "p99", "samples", "truncated"
    );
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("mkdir {TRACE_DIR}: {e}"))?;
    for kind in [StackKind::Monolithic, StackKind::Modular] {
        let mut exp = Experiment::builder(kind, 3)
            .workload(Workload::constant_rate(500.0, 1024))
            .warmup_secs(0.5)
            .measure_secs(1.0)
            .seed(7)
            .trace(TraceConfig::on())
            .build();
        let r = exp.run();
        let label = kind.label();
        let d = r
            .latency_decomposition
            .ok_or_else(|| format!("{label}: tracing on but no decomposition"))?;
        if d.samples == 0 {
            return Err(format!("{label}: no latency samples decomposed"));
        }
        let sum = d.component_mean_sum_ms();
        if (sum - d.total.mean_ms).abs() > 1e-6 {
            return Err(format!(
                "{label}: decomposition components sum to {sum} ms, end-to-end is {} ms",
                d.total.mean_ms
            ));
        }
        println!(
            "{label:>10} | {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>7} {:>9}",
            d.total.mean_ms,
            d.queueing.mean_ms,
            d.transmission.mean_ms,
            d.cpu.mean_ms,
            d.durability.mean_ms,
            d.total.p99_ms,
            d.samples,
            d.truncated_samples
        );
        let trace = r.trace.ok_or_else(|| format!("{label}: no trace"))?;
        let jsonl_path = format!("{TRACE_DIR}/probe-{label}.jsonl");
        let chrome_path = format!("{TRACE_DIR}/probe-{label}.trace.json");
        std::fs::write(&jsonl_path, trace.to_jsonl())
            .map_err(|e| format!("write {jsonl_path}: {e}"))?;
        std::fs::write(&chrome_path, trace.to_chrome_json())
            .map_err(|e| format!("write {chrome_path}: {e}"))?;
        // Re-read and sanity-check both exports.
        let jsonl = std::fs::read_to_string(&jsonl_path)
            .map_err(|e| format!("re-read {jsonl_path}: {e}"))?;
        let meta = jsonl
            .lines()
            .last()
            .ok_or_else(|| format!("{jsonl_path}: empty"))?;
        if !meta.contains("\"meta\":true") {
            return Err(format!("{jsonl_path}: missing trailing meta line"));
        }
        let chrome = std::fs::read_to_string(&chrome_path)
            .map_err(|e| format!("re-read {chrome_path}: {e}"))?;
        let doc = json::parse(&chrome).map_err(|e| format!("{chrome_path}: {e}"))?;
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .ok_or_else(|| format!("{chrome_path}: no traceEvents array"))?;
        if events.is_empty() {
            return Err(format!("{chrome_path}: traceEvents is empty"));
        }
        println!(
            "wrote {jsonl_path}, {chrome_path} ({} events)",
            trace.events.len()
        );
    }
    Ok(())
}

/// Where `--fuzz-quick` archives its coverage matrices and reproducers.
const FUZZ_DIR: &str = "target/fuzz";

/// The branches every `--fuzz-quick` campaign must reach: the
/// own-message resend, and catch-up — a pull on a sighting, the state
/// transfer that answers it, and a rejoin that reaches its frontier.
/// A path no run exercises is audited by nobody.
const WITNESSED: [&str; 4] = [
    "sender_retransmits",
    "gap_pulls",
    "state_transfers",
    "rejoins_completed",
];

/// The `--fuzz-quick` smoke: one bounded steered campaign per stack.
/// Small enough for CI (≤ 32 runs per stack, plateau stop armed) yet
/// real: every run builds a cluster, injects the drawn scenario, drives
/// load and audits safety. The coverage matrix of each campaign lands
/// in [`FUZZ_DIR`] (CI uploads it); a violation ddmin-shrinks its
/// scenario, writes the minimized reproducer alongside, and fails the
/// stage. So does a campaign that never reaches a branch of
/// [`WITNESSED`].
fn fuzz_quick() -> Result<(), String> {
    println!("probe --fuzz-quick: bounded steered fuzz campaign per stack");
    std::fs::create_dir_all(FUZZ_DIR).map_err(|e| format!("mkdir {FUZZ_DIR}: {e}"))?;
    println!(
        "{:>10} | {:>5} {:>7} {:>7} {:>9}  stop",
        "stack", "runs", "batches", "cells", "families"
    );
    for kind in [StackKind::Monolithic, StackKind::Modular] {
        let label = kind.label();
        let cfg = FuzzConfig {
            batch_runs: 8,
            max_batches: 4,
            plateau_batches: 2,
            ..FuzzConfig::new(3, 42)
        };
        let report = FuzzCampaign::new(cfg).run(fuzz_runner(kind, 3, StackConfig::default()));

        let matrix_path = format!("{FUZZ_DIR}/coverage-matrix-{label}.json");
        report
            .coverage
            .write_json(std::path::Path::new(&matrix_path))
            .map_err(|e| format!("write {matrix_path}: {e}"))?;
        // The archived artifact must re-read as well-formed JSON.
        let text = std::fs::read_to_string(&matrix_path)
            .map_err(|e| format!("re-read {matrix_path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{matrix_path}: {e}"))?;
        if doc.get("runs").and_then(json::Value::as_f64) != Some(report.coverage.runs() as f64) {
            return Err(format!("{matrix_path}: run count does not round-trip"));
        }
        let families = CoverageReport::family_names()
            .iter()
            .filter(|f| report.coverage.family_runs(f) > 0)
            .count();
        println!(
            "{label:>10} | {:>5} {:>7} {:>7} {:>9}  {:?}",
            report.runs,
            report.batches,
            report.coverage.reached_cells().len(),
            families,
            report.stop
        );
        println!("wrote {matrix_path}");

        if report.stop == StopReason::Violation {
            let failing = report
                .failure
                .expect("violation stop always carries the failing run");
            let kind_str = failing.violation.kind();
            let stack_cfg = StackConfig::default();
            let min = minimize(&failing.scenario, |candidate| {
                run_fuzz_scenario(kind, 3, &stack_cfg, candidate, failing.seed)
                    .violation
                    .as_ref()
                    .is_some_and(|v| v.kind() == kind_str)
            });
            let repro_path = format!("{FUZZ_DIR}/violation-{label}-seed{}.min.txt", failing.seed);
            let body = format!(
                "stack: {label}\nn: 3\nseed: {}\nviolation: {}\nevents: {} (of {})\n\
                 scenario: {:#?}\n",
                failing.seed,
                failing.violation,
                min.events(),
                min.original_events,
                min.scenario,
            );
            std::fs::write(&repro_path, body).map_err(|e| format!("write {repro_path}: {e}"))?;
            return Err(format!(
                "{label}: safety violation {kind_str} at seed {} — minimized reproducer \
                 ({} of {} events) written to {repro_path}",
                failing.seed,
                min.events(),
                min.original_events,
            ));
        }
        if let Some(missed) = WITNESSED.iter().find(|b| !report.coverage.reached(b)) {
            return Err(format!(
                "{label}: no run of the campaign reached `{missed}`"
            ));
        }
    }
    Ok(())
}

const USAGE: &str = "usage: probe [--check | --trace | --fuzz-quick]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match args.as_slice() {
        [] => "",
        [flag] if ["--check", "--trace", "--fuzz-quick"].contains(&flag.as_str()) => flag,
        _ => {
            eprintln!("probe: unexpected arguments {args:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(mode) {
        eprintln!("probe: {e}");
        std::process::exit(1);
    }
}

/// Runs one mode; the empty one regenerates the committed files in place.
fn run(mode: &str) -> Result<(), String> {
    if mode == "--trace" {
        trace_smoke().map_err(|e| format!("trace smoke failed: {e}"))?;
        println!("\ntracing smoke passed (decomposition sums, exports well-formed)");
        return Ok(());
    }
    if mode == "--fuzz-quick" {
        fuzz_quick().map_err(|e| format!("fuzz smoke failed: {e}"))?;
        println!("\nfuzz smoke passed (no safety violations, coverage matrices archived)");
        return Ok(());
    }
    let check = mode == "--check";
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
