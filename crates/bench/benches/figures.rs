//! Figures 8–11 — early latency and throughput against offered load
//! (message size 16384 B) and against message size (offered load
//! 2000 msgs/s), for n = 3 and 7 on both stacks.
//!
//! Figures 8/10 plot two metrics of the *same* runs, and so do 9/11:
//! each axis is swept once and all of its tables are printed from the
//! collected summaries, with the paper's finding each should reproduce
//! in *shape*.

use fortika_bench::{full_sweep, seeds};
use fortika_core::workload::Workload;
use fortika_core::{Experiment, StackKind, Summary};

/// The four series every figure plots.
const SERIES: [(StackKind, usize); 4] = [
    (StackKind::Monolithic, 3),
    (StackKind::Modular, 3),
    (StackKind::Monolithic, 7),
    (StackKind::Modular, 7),
];

/// One swept coordinate; the other stays fixed.
struct Axis {
    label: &'static str,
    quick: &'static [f64],
    full: &'static [f64],
    /// `(offered load, message size)` at `x`.
    point: fn(f64) -> (f64, usize),
}

/// `(title, plotted metric as (mean, 95 % half-width), paper's finding)`.
type Figure = (&'static str, fn(&Summary) -> (f64, f64), &'static str);

fn latency(s: &Summary) -> (f64, f64) {
    (s.early_latency_ms.mean, s.early_latency_ms.half_width)
}

fn throughput(s: &Summary) -> (f64, f64) {
    (s.throughput.mean, s.throughput.half_width)
}

const FIGURES: [(Axis, &[Figure]); 2] = [
    (
        Axis {
            label: "load",
            quick: &[250.0, 500.0, 1000.0, 2000.0, 4000.0],
            full: &[
                125.0, 250.0, 500.0, 1000.0, 2000.0, 3000.0, 4000.0, 5000.0, 6000.0, 7000.0,
            ],
            point: |load| (load, 16_384),
        },
        &[
            (
                "Fig. 8 — early latency (ms) vs offered load (msgs/s), size=16384",
                latency,
                "latency close at small loads, mono 30% (n=7) to 50% (n=3) lower at high \
                 load, plateau above saturation (flow control)",
            ),
            (
                "Fig. 10 — throughput (msgs/s) vs offered load (msgs/s), size=16384",
                throughput,
                "T = offered load below ~500 msgs/s, then a plateau (flow control); mono \
                 plateau 25% (n=7) to 30% (n=3) higher",
            ),
            (
                "§5.1 — CPU utilization (%) of the busiest process vs offered load (msgs/s)",
                |s| (s.max_cpu_utilization * 100.0, 0.0),
                "99% CPU above 500 msgs/s offered load",
            ),
        ],
    ),
    (
        Axis {
            label: "size",
            quick: &[64.0, 512.0, 4096.0, 16384.0, 32768.0],
            full: &[
                64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0, 16384.0, 32768.0,
            ],
            point: |size| (2000.0, size as usize),
        },
        &[
            (
                "Fig. 9 — early latency (ms) vs message size (bytes), load=2000 msgs/s",
                latency,
                "mono ~50% lower latency at small sizes (to 4096 B at n=7 / 8192 B at n=3), \
                 25% (n=7) / 35% (n=3) at the largest, where data volume dominates",
            ),
            (
                "Fig. 11 — throughput (msgs/s) vs message size (bytes), load=2000 msgs/s",
                throughput,
                "mono 10-15% higher at small sizes; flat to ~4096 B (n=7) / ~16384 B (n=3), \
                 then n=7 degrades faster (the coordinator ships M·l bytes to six peers)",
            ),
        ],
    ),
];

fn main() {
    for (axis, figures) in &FIGURES {
        let xs = if full_sweep() { axis.full } else { axis.quick };
        // One row of summaries per x, one summary per series.
        let rows: Vec<Vec<Summary>> = xs
            .iter()
            .map(|&x| {
                let (load, size) = (axis.point)(x);
                let run = |&(kind, n)| {
                    Experiment::builder(kind, n)
                        .workload(Workload::constant_rate(load, size))
                        .warmup_secs(1.0)
                        .measure_secs(1.5)
                        .build()
                        .run_replicated(&seeds())
                };
                SERIES.iter().map(run).collect()
            })
            .collect();
        for (title, metric, paper) in *figures {
            // A gnuplot-style table: x, then `mean ± ci` per series.
            print!("\n# {title}\n# {:>12}", axis.label);
            for (kind, n) in SERIES {
                print!(" {:>26}", format!("n={n} {}", kind.label()));
            }
            println!();
            for (x, row) in xs.iter().zip(&rows) {
                print!("  {x:>12.0}");
                for (mean, ci) in row.iter().map(metric) {
                    print!(" {mean:>17.3} ±{ci:>7.3}");
                }
                println!();
            }
            println!("# paper: {paper}.");
        }
    }
}
