//! Calibration probe and sweep emitter.
//!
//! Prints latency/throughput tables at fixed operating points so the
//! cost model can be tuned against the paper's shapes, and rewrites the
//! machine-readable `BENCH_*.json` trajectory files in place — one per
//! row of [`fortika_bench::sweeps::SWEEPS`], which documents them —
//! meant to be committed so performance history accumulates.
//!
//! Every sweep goes through [`fortika_bench::sweeps::run_sweep`], which
//! holds every run to the paper's closed forms and every fault-free run
//! to zero suspicions and to its silence budget, and runs the sweep's
//! own check. `probe` then prints that budget: the longest silence of
//! the coordinator's links and of every other link, against their
//! timeouts. Whether the committed files still match the code is a
//! tier-1 test (`crates/bench/tests/sweep_table.rs`), through the same
//! driver; `probe` is only how they are regenerated.
//!
//! Any argument is refused (exit 2) before anything is written.

use fortika_bench::sweeps::{fault_free, run_sweep, SilenceBudget, SWEEPS};
use fortika_core::{FdConfig, RunReport};

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

const USAGE: &str = "usage: probe";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.is_empty() {
        eprintln!("probe: unexpected arguments {args:?}\n{USAGE}");
        std::process::exit(2);
    }
    if let Err(e) = run() {
        eprintln!("probe: {e}");
        std::process::exit(1);
    }
}

/// Runs every sweep and rewrites its committed file in place. Every
/// sweep runs before any failure is reported, so one run names every
/// failed sweep.
fn run() -> Result<(), String> {
    let mut failures = Vec::new();
    let mut budget = SilenceBudget::default();
    for sweep in &SWEEPS {
        print_header(sweep.title);
        let document = run_sweep(sweep, |point, r| {
            print_run_row(&point.label, r);
            if fault_free(point) {
                budget = budget.max(SilenceBudget::of(r));
            }
        });
        let written = document.and_then(|document| {
            let path = sweep.file();
            std::fs::write(&path, document).map_err(|e| format!("write {path}: {e}"))?;
            println!("wrote {path}");
            Ok(())
        });
        if let Err(e) = written {
            failures.push(format!("{} sweep failed: {e}", sweep.name));
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
    if !failures.is_empty() {
        return Err(format!(
            "{} failure(s):\n  {}",
            failures.len(),
            failures.join("\n  ")
        ));
    }
    Ok(())
}
