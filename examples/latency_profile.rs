//! Latency profile and decomposition — beyond the paper's means.
//!
//! The paper reports mean early latency with confidence intervals. This
//! example runs both stacks traced and splits every decision's latency
//! into its physical components — **queueing** (decided upon but waiting:
//! batching delay, NIC/degraded-link backlog, event-loop wait),
//! **transmission** (bits in flight toward the first-delivering
//! process), **CPU** (handler execution there) and **durability** (the
//! stable-write share of that execution, its own addend) — under the
//! paper's constant-rate arrivals and under Poisson arrivals (an
//! extension: bursty arrivals stress queueing in a way perfectly regular
//! arrivals cannot).
//!
//! The components are measured from the event trace
//! (`RunReport::latency_decomposition`) and sum to the end-to-end
//! latency exactly, so the table answers *where* the modular stack's
//! extra latency goes, not just how large it is.
//!
//! Run with: `cargo run --release --example latency_profile`

use fortika::core::workload::Workload;
use fortika::core::{Experiment, StackKind, TraceConfig};

fn profile(kind: StackKind, workload: Workload, label: &str) {
    let mut exp = Experiment::builder(kind, 3)
        .workload(workload)
        .warmup_secs(1.0)
        .measure_secs(3.0)
        .seed(17)
        .trace(TraceConfig::on())
        .build();
    let r = exp.run();
    let d = r
        .latency_decomposition
        .expect("tracing was enabled, the decomposition is present");
    assert!(
        (d.component_mean_sum_ms() - d.total.mean_ms).abs() < 1e-6,
        "{label}: components do not sum to the end-to-end mean"
    );
    println!(
        "{label:<34} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>7} {:>9}",
        d.total.mean_ms,
        d.queueing.mean_ms,
        d.transmission.mean_ms,
        d.cpu.mean_ms,
        d.durability.mean_ms,
        d.total.p99_ms,
        d.samples,
        d.truncated_samples
    );
}

pub fn main() {
    let load = 800.0;
    let size = 4096;
    println!("Early-latency decomposition (ms), n=3, load={load} msg/s, {size}-byte messages\n");
    println!("queue + wire + cpu + durable = total (exact, per decision, at the first");
    println!("deliverer); durable is the stable-write share of handler time, cpu the rest.");
    println!("truncated counts samples that open before the trace ring's retained history:");
    println!("their evicted CPU and wire time reads as queueing.\n");
    println!(
        "{:<34} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7} {:>9}",
        "configuration", "total", "queue", "wire", "cpu", "durable", "p99", "samples", "truncated"
    );
    for kind in [StackKind::Monolithic, StackKind::Modular] {
        profile(
            kind,
            Workload::constant_rate(load, size),
            &format!("{} / constant rate", kind.label()),
        );
    }
    for kind in [StackKind::Monolithic, StackKind::Modular] {
        profile(
            kind,
            Workload::poisson(load, size),
            &format!("{} / poisson arrivals", kind.label()),
        );
    }
    println!();
    println!("The modular stack's extra latency is overwhelmingly CPU time at the");
    println!("delivering process — the marshaling and event-routing overhead of");
    println!("composition, the paper's core finding — while its wire share stays");
    println!("small. Poisson bursts mostly stretch the tail (p99): arrivals queue");
    println!("behind the serial per-process CPU in both stacks.");
}
