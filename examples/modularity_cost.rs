//! The paper's question in one binary: what does modularity cost?
//!
//! Runs both atomic broadcast implementations at the same operating
//! point (n = 3, high load, 16 KiB messages — the regime of Figs. 8/10)
//! and prints the side-by-side comparison: early latency, throughput,
//! messages and bytes per consensus instance, CPU utilization.
//!
//! Run with: `cargo run --release --example modularity_cost`

use fortika::core::workload::Workload;
use fortika::core::{analysis, Experiment, StackKind};

pub fn main() {
    let n = 3;
    let load = 3000.0;
    let size = 16_384;
    println!("Comparing stacks at n={n}, offered load {load} msgs/s, {size}-byte messages…\n");

    let mut reports = Vec::new();
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let mut exp = Experiment::builder(kind, n)
            .workload(Workload::constant_rate(load, size))
            .warmup_secs(1.0)
            .measure_secs(2.0)
            .seed(1)
            .build();
        reports.push(exp.run());
    }
    let (modular, mono) = (&reports[0], &reports[1]);

    println!("{:<28} {:>14} {:>14}", "metric", "modular", "monolithic");
    let rows: Vec<(&str, f64, f64)> = vec![
        (
            "early latency (ms)",
            modular.early_latency_ms.mean,
            mono.early_latency_ms.mean,
        ),
        (
            "throughput (msgs/s)",
            modular.throughput_msgs_per_sec,
            mono.throughput_msgs_per_sec,
        ),
        (
            "messages / instance",
            modular.msgs_per_instance,
            mono.msgs_per_instance,
        ),
        (
            "KiB / instance",
            modular.bytes_per_instance / 1024.0,
            mono.bytes_per_instance / 1024.0,
        ),
        ("avg batch M", modular.avg_batch_m, mono.avg_batch_m),
        (
            "max CPU utilization (%)",
            modular.max_cpu_utilization * 100.0,
            mono.max_cpu_utilization * 100.0,
        ),
    ];
    for (label, a, b) in rows {
        println!("{label:<28} {a:>14.2} {b:>14.2}");
    }

    let lat_gain = 1.0 - mono.early_latency_ms.mean / modular.early_latency_ms.mean;
    let thr_gain = mono.throughput_msgs_per_sec / modular.throughput_msgs_per_sec - 1.0;
    println!();
    println!(
        "monolithic: {:.0}% lower latency, {:.0}% higher throughput",
        lat_gain * 100.0,
        thr_gain * 100.0
    );
    println!(
        "against the paper: BENCH_modularity.json, held to Figs. 8-11 by \
         fortika_bench::sweeps::modularity_check (verdicts in README.md)"
    );
    println!(
        "analytic data overhead of modularity at n={n}: {:.0}% (§5.2.2)",
        analysis::modularity_overhead(n) * 100.0
    );
}
