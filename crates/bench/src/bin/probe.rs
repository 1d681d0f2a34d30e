//! Calibration probe and sweep emitter.
//!
//! Prints latency/throughput tables at fixed operating points so the
//! cost model can be tuned against the paper's shapes, and writes five
//! machine-readable trajectory files meant to be committed so
//! performance history accumulates (formats documented in the
//! top-level README, "Benchmarks"):
//!
//! * `BENCH_modularity.json` — the good-run modularity sweep;
//! * `BENCH_degraded.json` — the same comparison under *resource*
//!   faults (degraded links, slow nodes), oracle-audited;
//! * `BENCH_stable_write.json` — the durability sweep: synchronous
//!   stable-write cost from free to 2 ms per persist;
//! * `BENCH_snapshot_cadence.json` — snapshot cadence × load with
//!   non-zero snapshot encode/install pricing;
//! * `BENCH_pipeline.json` — pipelined instance execution: the
//!   windowed-sequencer depth α × load, both stacks (self-verified:
//!   some depth > 1 must beat depth 1 per stack);
//! * `BENCH_dissemination.json` — payload/ordering separation: the
//!   monolithic baseline against the modular stack under `direct`,
//!   `ring` and `tree` dissemination on the CPU-bound LAN calibration
//!   (self-verified: every point is oracle-audited with 0 violations,
//!   `ring` must cut msgs/instance on every point and at least 3× on
//!   some point, and the offload must narrow the modular/monolithic
//!   throughput gap).
//!
//! `--quick` trims every sweep to a smoke-sized operating set (CI runs
//! this) and writes it under `target/bench-quick/` so the committed
//! full-resolution files are never clobbered. In either mode the probe
//! re-reads every file it wrote — and in quick mode also the six
//! *committed* files — and fails (exit 1) unless the JSON parses,
//! covers both stacks, and (for committed files) keeps at least 8
//! operating points, so the committed bench files cannot silently rot.
//! Quick mode also asserts that every smoke record it regenerates
//! appears **byte-identical** inside the corresponding committed file:
//! the quick operating sets are subsets of the full ones, so any drift
//! in the simulation (including a default-`Direct` regression from the
//! dissemination layer) shows up as a mismatched line.
//! Quick mode additionally runs a bounded **reconfiguration audit**
//! (a log-decided add + remove per stack, traced and oracle-audited —
//! violations dump under `target/trace/` like any other), and folds
//! every run's window counters into a [`CoverageReport`] written to
//! `target/coverage-report.json`.
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
//! the minimized reproducer next to the matrix.

use std::fmt::Write as _;

use fortika_bench::json;
use fortika_chaos::{minimize, ChaosProfile, CoverageReport, FuzzCampaign, FuzzConfig, StopReason};
use fortika_core::workload::Workload;
use fortika_core::{
    fuzz_runner, run_fuzz_scenario, Experiment, RunReport, Scenario, StackConfig, StackKind,
    TraceConfig,
};
use fortika_net::{CostModel, Dissemination, LinkSelector, NetModel, ProcessId};
use fortika_sim::VDur;

/// The modularity operating points: `(n, offered load msgs/s, payload bytes)`.
const POINTS: &[(usize, f64, usize)] = &[
    (3, 250.0, 16384),
    (3, 500.0, 16384),
    (3, 1000.0, 16384),
    (3, 2000.0, 16384),
    (3, 4000.0, 16384),
    (7, 500.0, 16384),
    (7, 2000.0, 16384),
    (3, 2000.0, 1024),
    (7, 2000.0, 1024),
    (3, 2000.0, 32768),
    (7, 2000.0, 32768),
];

/// Trimmed modularity set for `--quick` (still both group sizes).
const POINTS_QUICK: &[(usize, f64, usize)] = &[(3, 1000.0, 16384), (7, 2000.0, 1024)];

/// Resource-fault configurations for the degraded sweep:
/// `(label, slow_factor_milli on p0, degrade rate_milli on all links)`.
const FAULTS: &[(&str, u64, u64)] = &[
    ("slow_node", 4000, 1000),
    ("degraded_link", 1000, 250),
    ("slow+degraded", 2500, 500),
];

/// Base operating points for the degraded sweep.
const DEGRADED_POINTS: &[(usize, f64, usize)] = &[
    (3, 1000.0, 16384),
    (3, 2000.0, 16384),
    (7, 2000.0, 16384),
    (3, 2000.0, 1024),
];
const DEGRADED_POINTS_QUICK: &[(usize, f64, usize)] = &[(3, 2000.0, 16384)];

/// Stable-write costs swept, in microseconds per persisted record.
const STABLE_US: &[u64] = &[0, 50, 200, 500, 1000, 2000];
const STABLE_US_QUICK: &[u64] = &[0, 500];

/// Snapshot cadences swept (instances between snapshots) × loads.
const CADENCES: &[u64] = &[32, 128, 512, 1024];
const CADENCES_QUICK: &[u64] = &[32, 512];
const CADENCE_LOADS: &[f64] = &[500.0, 2000.0];
const CADENCE_LOADS_QUICK: &[f64] = &[500.0];

/// Pipeline depths swept (instances concurrently in flight) × loads.
const PIPELINE_DEPTHS: &[usize] = &[1, 2, 4, 8];
const PIPELINE_DEPTHS_QUICK: &[usize] = &[1, 4];
/// Flow-control window used by the pipeline sweep: wide enough that
/// the pipeline (not admission) is the binding constraint.
const PIPELINE_WINDOW: usize = 12;

/// Dissemination operating points: `(n, offered load msgs/s, payload
/// bytes)` on the CPU-bound LAN calibration — the regime where the
/// paper's modular stack pays its per-message diffusion overhead and
/// the Ring Paxos-style offload has something to win back.
const DISSEM_POINTS: &[(usize, f64, usize)] = &[
    (3, 2000.0, 16384),
    (3, 4000.0, 16384),
    (7, 2000.0, 16384),
    (3, 4000.0, 1024),
];
/// The quick smoke keeps the n = 7 point: it is the one that carries
/// the headline ≥ 3× msgs/instance cut, so CI re-checks the claim.
const DISSEM_POINTS_QUICK: &[(usize, f64, usize)] = &[(7, 2000.0, 16384)];

/// Flow window for the dissemination sweep: wide enough that the
/// outstanding-payload cap, not admission, shapes the offload.
const DISSEM_WINDOW: usize = 16;

/// The common fields of one JSON record (shared by all five sweeps);
/// `extra` appends sweep-specific fields.
fn json_point(out: &mut String, r: &RunReport, extra: &str) {
    let _ = write!(
        out,
        "    {{\"stack\": \"{}\", \"n\": {}, \"offered_load\": {}, \"msg_size\": {}, \
         \"latency_ms\": {{\"mean\": {:.4}, \"p50\": {:.4}, \"p90\": {:.4}, \"p99\": {:.4}}}, \
         \"throughput_msgs_per_sec\": {:.2}, \"batch_m\": {:.3}, \"max_cpu_utilization\": {:.4}, \
         \"msgs_per_instance\": {:.3}, \"bytes_per_instance\": {:.1}{}}}",
        r.kind.label(),
        r.n,
        r.offered_load,
        r.msg_size,
        r.early_latency_ms.mean,
        r.early_latency_ms.p50,
        r.early_latency_ms.p90,
        r.early_latency_ms.p99,
        r.throughput_msgs_per_sec,
        r.avg_batch_m,
        r.max_cpu_utilization,
        r.msgs_per_instance,
        r.bytes_per_instance,
        extra,
    );
}

/// The six committed trajectory files (and their quick-mode
/// basenames under [`QUICK_DIR`]).
const BENCH_FILES: [&str; 6] = [
    "BENCH_modularity.json",
    "BENCH_degraded.json",
    "BENCH_stable_write.json",
    "BENCH_snapshot_cadence.json",
    "BENCH_pipeline.json",
    "BENCH_dissemination.json",
];

/// Where `--quick` writes its smoke output, so it never clobbers the
/// committed full-resolution sweeps in the repo root.
const QUICK_DIR: &str = "target/bench-quick";

/// Every committed sweep must keep at least this many operating points
/// (the acceptance bar; quick smoke output is exempt).
const MIN_COMMITTED_POINTS: usize = 8;

/// The output path for `file`: the repo root in full mode, the
/// throwaway [`QUICK_DIR`] in quick mode.
fn bench_path(file: &str, quick: bool) -> String {
    if quick {
        format!("{QUICK_DIR}/{file}")
    } else {
        file.to_string()
    }
}

/// Wraps records in the common envelope and writes `file` (placed per
/// [`bench_path`]), then re-reads and verifies it (JSON parses, both
/// stacks; full mode additionally enforces the committed point floor).
fn write_bench(file: &str, quick: bool, benchmark: &str, records: &[String]) -> Result<(), String> {
    let path = bench_path(file, quick);
    if quick {
        std::fs::create_dir_all(QUICK_DIR).map_err(|e| format!("mkdir {QUICK_DIR}: {e}"))?;
    }
    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\n  \"benchmark\": \"{benchmark}\",\n  \"seed\": 7,\n  \
         \"units\": {{\"latency\": \"ms\", \"throughput\": \"msgs/s\"}},\n  \"points\": [\n"
    );
    for (i, r) in records.iter().enumerate() {
        doc.push_str(r);
        doc.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    doc.push_str("  ]\n}\n");
    std::fs::write(&path, &doc).map_err(|e| format!("write {path}: {e}"))?;
    verify_bench(&path, if quick { 1 } else { MIN_COMMITTED_POINTS })?;
    if quick {
        verify_quick_subset(file, records)?;
    }
    println!("wrote {path} ({} operating points)", records.len());
    Ok(())
}

/// Quick-mode regeneration audit: every smoke operating set is a
/// subset of the full-resolution one, and the simulator is
/// deterministic, so each freshly generated record must appear
/// **byte-identical** inside the committed file. A mismatch means the
/// simulation drifted since the committed sweep was generated (e.g. a
/// default-strategy regression from the dissemination layer) — the fix
/// is a deliberate full regeneration, not a silent one.
fn verify_quick_subset(file: &str, records: &[String]) -> Result<(), String> {
    let committed =
        std::fs::read_to_string(file).map_err(|e| format!("re-read committed {file}: {e}"))?;
    for rec in records {
        if !committed.contains(rec.as_str()) {
            return Err(format!(
                "{file}: freshly generated operating point is not byte-identical to the \
                 committed sweep — the simulation drifted; regenerate with \
                 `cargo run --release -p fortika-bench --bin probe` and commit the result.\n\
                 missing record:\n{rec}"
            ));
        }
    }
    println!(
        "{file}: {} smoke records byte-identical to the committed sweep",
        records.len()
    );
    Ok(())
}

/// Asserts that a bench file parses, holds at least `min_points`
/// operating points, and covers both stacks.
fn verify_bench(path: &str, min_points: usize) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("re-read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let points = doc
        .get("points")
        .and_then(json::Value::as_array)
        .ok_or_else(|| format!("{path}: no points array"))?;
    if points.len() < min_points {
        return Err(format!(
            "{path}: {} operating points, need at least {min_points}",
            points.len()
        ));
    }
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
        "{:>14} {:>10} {:>3} {:>6.0} {:>7} | {:>9.3} {:>9.1} {:>7.2} {:>6.2} {:>8.2} {:>9.1}",
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
        "{:>14} {:>10} {:>3} {:>6} {:>7} | {:>9} {:>9} {:>7} {:>6} {:>8} {:>9}",
        "point", "stack", "n", "load", "size", "lat(ms)", "thr", "M", "cpu", "msg/inst", "KB/inst"
    );
}

/// Sweep 1: the good-run modularity comparison (`BENCH_modularity.json`).
fn sweep_modularity(quick: bool, coverage: &mut CoverageReport) -> Result<(), String> {
    print_header("modularity (good runs)");
    let points = if quick { POINTS_QUICK } else { POINTS };
    let mut records = Vec::new();
    for &(n, load, size) in points {
        for kind in [StackKind::Monolithic, StackKind::Modular] {
            let mut exp = Experiment::builder(kind, n)
                .workload(Workload::constant_rate(load, size))
                .warmup_secs(1.0)
                .measure_secs(2.0)
                .seed(7)
                .build();
            let r = exp.run();
            coverage.absorb(&r.counters);
            print_run_row("good", &r);
            let mut rec = String::new();
            json_point(&mut rec, &r, "");
            records.push(rec);
        }
    }
    write_bench("BENCH_modularity.json", quick, "modularity_cost", &records)
}

/// Sweep 2: the same comparison under resource faults — a slow node
/// and/or degraded links covering the whole measurement window
/// (`BENCH_degraded.json`). Every run is oracle-audited; the recorded
/// `oracle_violations` must stay 0.
fn sweep_degraded(quick: bool, coverage: &mut CoverageReport) -> Result<(), String> {
    print_header("modularity under resource faults");
    let points = if quick {
        DEGRADED_POINTS_QUICK
    } else {
        DEGRADED_POINTS
    };
    let from = VDur::millis(1000);
    let until = VDur::millis(3000); // warm-up 1 s + measure 2 s
    let mut records = Vec::new();
    for &(n, load, size) in points {
        for &(label, slow, rate) in FAULTS {
            for kind in [StackKind::Monolithic, StackKind::Modular] {
                let mut scenario = Scenario::new();
                if slow > 1000 {
                    scenario = scenario.slow_node(ProcessId(0), slow, from, until);
                }
                if rate < 1000 {
                    scenario = scenario.degrade_link(LinkSelector::All, rate, from, until);
                }
                let mut exp = Experiment::builder(kind, n)
                    .workload(Workload::constant_rate(load, size))
                    .warmup_secs(1.0)
                    .measure_secs(2.0)
                    .seed(7)
                    .scenario(scenario)
                    .build();
                let r = exp.run();
                coverage.absorb(&r.counters);
                print_run_row(label, &r);
                let violations = r.oracle.as_ref().map_or(0, |o| o.violations.len());
                if violations > 0 {
                    return Err(format!(
                        "degraded sweep {label} ({} n={n} load={load}): {violations} oracle violations",
                        kind.label()
                    ));
                }
                let extra = format!(
                    ", \"fault\": \"{label}\", \"slow_factor_milli\": {slow}, \
                     \"degrade_rate_milli\": {rate}, \"oracle_violations\": {violations}"
                );
                let mut rec = String::new();
                json_point(&mut rec, &r, &extra);
                records.push(rec);
            }
        }
    }
    write_bench(
        "BENCH_degraded.json",
        quick,
        "modularity_under_degradation",
        &records,
    )
}

/// Sweep 3: stable-write cost from free to a 2 ms synchronous barrier
/// per persisted record (`BENCH_stable_write.json`).
fn sweep_stable_write(quick: bool, coverage: &mut CoverageReport) -> Result<(), String> {
    print_header("stable-write cost");
    let costs = if quick { STABLE_US_QUICK } else { STABLE_US };
    let (n, load, size) = (3usize, 1000.0, 1024usize);
    let mut records = Vec::new();
    for &us in costs {
        for kind in [StackKind::Monolithic, StackKind::Modular] {
            let cost = CostModel {
                stable_write: VDur::micros(us),
                ..CostModel::default()
            };
            let mut exp = Experiment::builder(kind, n)
                .workload(Workload::constant_rate(load, size))
                .warmup_secs(1.0)
                .measure_secs(2.0)
                .seed(7)
                .cost(cost)
                .build();
            let r = exp.run();
            coverage.absorb(&r.counters);
            print_run_row(&format!("{us}us"), &r);
            let extra = format!(
                ", \"stable_write_us\": {us}, \"max_durability_utilization\": {:.4}",
                r.max_durability_utilization
            );
            let mut rec = String::new();
            json_point(&mut rec, &r, &extra);
            records.push(rec);
        }
    }
    write_bench(
        "BENCH_stable_write.json",
        quick,
        "stable_write_cost",
        &records,
    )
}

/// Sweep 4: snapshot cadence × load with non-zero snapshot pricing
/// (`BENCH_snapshot_cadence.json`).
fn sweep_snapshot_cadence(quick: bool, coverage: &mut CoverageReport) -> Result<(), String> {
    print_header("snapshot cadence");
    let cadences = if quick { CADENCES_QUICK } else { CADENCES };
    let loads = if quick {
        CADENCE_LOADS_QUICK
    } else {
        CADENCE_LOADS
    };
    let (n, size) = (3usize, 1024usize);
    for &interval in cadences {
        assert!(interval > 0, "cadence sweep must keep snapshots enabled");
    }
    let mut records = Vec::new();
    for &interval in cadences {
        for &load in loads {
            for kind in [StackKind::Monolithic, StackKind::Modular] {
                // Priced durability: a 50 µs stable write, 40 µs/KiB
                // snapshot encode (install ×1.5), plus a 500 µs fixed
                // cost per snapshot — see docs/COST_MODEL.md.
                let mut cost = CostModel::with_durability(VDur::micros(50), VDur::micros(40));
                cost.snapshot_encode_fixed = VDur::micros(500);
                cost.snapshot_install_fixed = VDur::micros(500);
                let mut exp = Experiment::builder(kind, n)
                    .workload(Workload::constant_rate(load, size))
                    .warmup_secs(1.0)
                    .measure_secs(2.0)
                    .seed(7)
                    .cost(cost)
                    .stack_config(StackConfig {
                        snapshot_interval: interval,
                        ..StackConfig::default()
                    })
                    .build();
                let r = exp.run();
                coverage.absorb(&r.counters);
                print_run_row(&format!("every {interval}"), &r);
                let snapshots =
                    r.counters.event("consensus.snapshots") + r.counters.event("mono.snapshots");
                let extra = format!(
                    ", \"snapshot_interval\": {interval}, \"snapshots_in_window\": {snapshots}, \
                     \"max_durability_utilization\": {:.4}",
                    r.max_durability_utilization
                );
                let mut rec = String::new();
                json_point(&mut rec, &r, &extra);
                records.push(rec);
            }
        }
    }
    write_bench(
        "BENCH_snapshot_cadence.json",
        quick,
        "snapshot_cadence",
        &records,
    )
}

/// The wide-area network of the pipeline sweep: a 2 ms one-way
/// propagation delay makes the decision round-trip — not the CPU — the
/// thing pipelining must hide.
fn wan_net() -> NetModel {
    NetModel {
        prop_delay: VDur::millis(2),
        jitter: VDur::micros(100),
        ..NetModel::default()
    }
}

/// A modern-CPU calibration (≈10× the default Pentium-4-era speed):
/// with cheap handlers the stacks are latency-bound on [`wan_net`], the
/// regime where an in-flight instance window converts directly into
/// throughput (Ring Paxos / Chop Chop territory).
fn fast_cpu() -> CostModel {
    CostModel {
        send_fixed: VDur::micros(35),
        send_per_kib: VDur::nanos(250),
        recv_fixed: VDur::micros(40),
        recv_per_kib: VDur::nanos(350),
        dispatch: VDur::nanos(2_500),
        timer_fixed: VDur::micros(2),
        request_fixed: VDur::micros(5),
        deliver_fixed: VDur::micros(20),
        deliver_per_kib: VDur::nanos(150),
        ..CostModel::default()
    }
}

/// Sweep 5: pipelined instance execution — windowed-sequencer depth ×
/// load × network regime, both stacks (`BENCH_pipeline.json`).
///
/// Two regimes bound the story: on the paper's CPU-bound `lan`
/// calibration extra instances only buy the monolithic stack anything
/// (the modular stack's per-instance message complexity eats the CPU
/// the window frees), while on the latency-bound `wan` regime the
/// window overlaps decision round-trips and throughput climbs with
/// depth on both stacks. Self-verified: for each stack, some depth > 1
/// must beat the depth-1 throughput on at least one operating point,
/// otherwise the pipeline is not engaging and the sweep fails.
fn sweep_pipeline(quick: bool, coverage: &mut CoverageReport) -> Result<(), String> {
    print_header("pipelined instances (depth x load x regime)");
    let depths = if quick {
        PIPELINE_DEPTHS_QUICK
    } else {
        PIPELINE_DEPTHS
    };
    // (regime label, offered loads, net, cost).
    let lan_loads: &[f64] = if quick { &[4000.0] } else { &[1000.0, 4000.0] };
    let wan_loads: &[f64] = &[8000.0];
    let regimes: [(&str, &[f64], NetModel, CostModel); 2] = [
        ("lan", lan_loads, NetModel::default(), CostModel::default()),
        ("wan", wan_loads, wan_net(), fast_cpu()),
    ];
    let (n, size) = (3usize, 1024usize);
    let mut records = Vec::new();
    // (stack, regime, load) -> depth-1 baseline throughput.
    let mut baseline: Vec<(StackKind, &str, f64, f64)> = Vec::new();
    let mut speedup = [false; 2]; // [monolithic, modular]
    for (regime, loads, net, cost) in &regimes {
        for &load in *loads {
            for &depth in depths {
                for kind in [StackKind::Monolithic, StackKind::Modular] {
                    let mut exp = Experiment::builder(kind, n)
                        .workload(Workload::constant_rate(load, size))
                        .warmup_secs(1.0)
                        .measure_secs(2.0)
                        .seed(7)
                        .net(net.clone())
                        .cost(cost.clone())
                        .stack_config(StackConfig {
                            pipeline_depth: depth,
                            window: PIPELINE_WINDOW,
                            ..StackConfig::default()
                        })
                        .build();
                    let r = exp.run();
                    coverage.absorb(&r.counters);
                    print_run_row(&format!("{regime} depth {depth}"), &r);
                    if depth == 1 {
                        baseline.push((kind, regime, load, r.throughput_msgs_per_sec));
                    } else {
                        let base = baseline
                            .iter()
                            .find(|(k, g, l, _)| *k == kind && g == regime && *l == load)
                            .map(|(_, _, _, t)| *t)
                            .unwrap_or(f64::INFINITY);
                        let idx = matches!(kind, StackKind::Modular) as usize;
                        speedup[idx] |= r.throughput_msgs_per_sec > base;
                    }
                    let extra = format!(
                        ", \"regime\": \"{regime}\", \"pipeline_depth\": {depth}, \
                         \"flow_window\": {PIPELINE_WINDOW}"
                    );
                    let mut rec = String::new();
                    json_point(&mut rec, &r, &extra);
                    records.push(rec);
                }
            }
        }
    }
    for (idx, label) in [(0usize, "monolithic"), (1, "modular")] {
        if !speedup[idx] {
            return Err(format!(
                "pipeline sweep: no depth > 1 beat the depth-1 {label} throughput at any \
                 operating point — pipelining is not engaging"
            ));
        }
    }
    write_bench(
        "BENCH_pipeline.json",
        quick,
        "pipelined_instances",
        &records,
    )
}

/// Sweep 6: payload/ordering separation (`BENCH_dissemination.json`).
///
/// The monolithic baseline against the modular stack under `direct`
/// (seed-faithful per-message diffusion), `ring` and `tree`
/// dissemination, on the CPU-bound LAN calibration the paper measures.
/// Under the offload, consensus orders small fixed-size value ids
/// while batch payloads travel the topology exactly once — so the
/// modular stack sheds most of its per-message diffusion CPU.
///
/// Every run is oracle-audited (the recorded `oracle_violations` must
/// stay 0) and the sweep self-verifies its headline claims: `ring`
/// must cut msgs/instance on every operating point and by at least 3×
/// on some point (n = 7, where direct diffusion costs ~365
/// msgs/instance, carries it), and on at least one point the offload
/// must narrow the modular/monolithic throughput gap.
fn sweep_dissemination(quick: bool, coverage: &mut CoverageReport) -> Result<(), String> {
    print_header("dissemination (payload/ordering separation)");
    let points = if quick {
        DISSEM_POINTS_QUICK
    } else {
        DISSEM_POINTS
    };
    let mut records = Vec::new();
    let mut gap_narrowed = false;
    let mut best_cut = 0.0f64;
    for &(n, load, size) in points {
        // (kind, strategy): the monolithic baseline plus the modular
        // stack under all three strategies, same flow window.
        let variants = [
            (StackKind::Monolithic, Dissemination::Direct),
            (StackKind::Modular, Dissemination::Direct),
            (StackKind::Modular, Dissemination::Ring),
            (StackKind::Modular, Dissemination::Tree),
        ];
        let mut mono_thr = 0.0f64;
        let mut direct = None;
        let mut ring = None;
        for (kind, strategy) in variants {
            let mut exp = Experiment::builder(kind, n)
                .workload(Workload::constant_rate(load, size))
                .warmup_secs(1.0)
                .measure_secs(2.0)
                .seed(7)
                .stack_config(StackConfig {
                    dissemination: strategy,
                    window: DISSEM_WINDOW,
                    ..StackConfig::default()
                })
                // An empty scenario arms the delivery-invariant oracle:
                // every adeliver of every run in this sweep is audited.
                .scenario(Scenario::new())
                .build();
            let r = exp.run();
            coverage.absorb(&r.counters);
            print_run_row(strategy.label(), &r);
            let violations = r.oracle.as_ref().map_or(usize::MAX, |o| o.violations.len());
            if violations > 0 {
                return Err(format!(
                    "dissemination sweep ({} {} n={n} load={load}): {violations} oracle \
                     violations",
                    kind.label(),
                    strategy.label()
                ));
            }
            match kind {
                StackKind::Monolithic => mono_thr = r.throughput_msgs_per_sec,
                StackKind::Modular => match strategy {
                    Dissemination::Direct => direct = Some(r.clone()),
                    Dissemination::Ring => ring = Some(r.clone()),
                    Dissemination::Tree => {}
                },
            }
            let extra = format!(
                ", \"dissemination\": \"{}\", \"flow_window\": {DISSEM_WINDOW}, \
                 \"oracle_violations\": {violations}",
                strategy.label()
            );
            let mut rec = String::new();
            json_point(&mut rec, &r, &extra);
            records.push(rec);
        }
        let (direct, ring) = (direct.expect("direct run"), ring.expect("ring run"));
        if ring.msgs_per_instance >= direct.msgs_per_instance {
            return Err(format!(
                "dissemination sweep (n={n} load={load} size={size}): ring msgs/instance \
                 {:.2} did not improve on direct {:.2} — the offload is not shedding \
                 the diffusion traffic",
                ring.msgs_per_instance, direct.msgs_per_instance
            ));
        }
        best_cut = best_cut.max(direct.msgs_per_instance / ring.msgs_per_instance);
        gap_narrowed |=
            (mono_thr - ring.throughput_msgs_per_sec) < (mono_thr - direct.throughput_msgs_per_sec);
    }
    if best_cut < 3.0 {
        return Err(format!(
            "dissemination sweep: best ring msgs/instance cut vs direct is {best_cut:.2}x, \
             the headline claim needs at least 3x at some operating point"
        ));
    }
    if !gap_narrowed {
        return Err(
            "dissemination sweep: ring never narrowed the modular/monolithic throughput \
             gap at any operating point — the offload is not paying for itself"
                .to_string(),
        );
    }
    write_bench(
        "BENCH_dissemination.json",
        quick,
        "dissemination_offload",
        &records,
    )
}

/// Quick-mode reconfiguration audit: one bounded grow-then-shrink
/// scenario per stack — an `Add` and a `Remove` decided through the log
/// mid-load — traced and oracle-audited (config agreement included). A
/// violating run dumps its bounded trace window and ddmin-minimized
/// reproducer under `target/trace/` via the runner's artifact path, the
/// same globs CI's diagnostics artifact uploads.
fn reconfig_audit(coverage: &mut CoverageReport) -> Result<(), String> {
    print_header("reconfiguration (log-decided add/remove)");
    let scenario = Scenario::new()
        .add_node(ProcessId(3), VDur::millis(1300))
        .remove_node(ProcessId(1), VDur::millis(2100));
    for kind in [StackKind::Monolithic, StackKind::Modular] {
        let mut exp = Experiment::builder(kind, 3)
            .workload(Workload::constant_rate(500.0, 1024))
            .warmup_secs(1.0)
            .measure_secs(2.0)
            .seed(7)
            .scenario(scenario.clone())
            .trace(TraceConfig::on())
            .build();
        let r = exp.run();
        coverage.absorb(&r.counters);
        print_run_row("reconfig", &r);
        let reconfigs =
            r.counters.event("consensus.reconfigs") + r.counters.event("mono.reconfigs");
        if reconfigs == 0 {
            return Err(format!(
                "reconfig audit ({}): no process registered the decided changes",
                kind.label()
            ));
        }
        let violations = r.oracle.as_ref().map_or(0, |o| o.violations.len());
        if violations > 0 {
            return Err(format!(
                "reconfig audit ({}): {violations} oracle violation(s) — trace dump and \
                 minimized reproducer under target/trace/",
                kind.label()
            ));
        }
    }
    Ok(())
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

/// The `--fuzz-quick` smoke: one bounded steered campaign per stack.
/// Small enough for CI (≤ 32 runs per stack, plateau stop armed) yet
/// real: every run builds a cluster, injects the drawn scenario, drives
/// load and audits safety. The coverage matrix of each campaign lands
/// in [`FUZZ_DIR`] (CI uploads it); a violation ddmin-shrinks its
/// scenario, writes the minimized reproducer alongside, and fails the
/// stage.
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
            // The default fault families plus the dynamic-membership
            // family (campaigns draw log-decided adds/removes too; the
            // fuzz runner provisions the standby capacity) plus the
            // dissemination axis: about a third of the drawn scenarios
            // run the modular stack with Ring/Tree payload offload.
            profile: ChaosProfile {
                add_node_prob: 0.3,
                remove_node_prob: 0.25,
                dissemination_prob: 0.35,
                ..ChaosProfile::default()
            },
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
    }
    Ok(())
}

/// One named sweep: takes `quick` and the campaign coverage tally,
/// runs, writes + verifies its file.
type Sweep = (
    &'static str,
    fn(bool, &mut CoverageReport) -> Result<(), String>,
);

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    if std::env::args().any(|a| a == "--trace") {
        if let Err(e) = trace_smoke() {
            eprintln!("probe: trace smoke failed: {e}");
            std::process::exit(1);
        }
        println!("\ntracing smoke passed (decomposition sums, exports well-formed)");
        return;
    }
    if std::env::args().any(|a| a == "--fuzz-quick") {
        if let Err(e) = fuzz_quick() {
            eprintln!("probe: fuzz smoke failed: {e}");
            std::process::exit(1);
        }
        println!("\nfuzz smoke passed (no safety violations, coverage matrices archived)");
        return;
    }
    if quick {
        println!("probe --quick: trimmed operating set under {QUICK_DIR}/ (CI smoke mode)");
    }
    let mut coverage = CoverageReport::new();
    let sweeps: [Sweep; 6] = [
        ("modularity", sweep_modularity),
        ("degraded", sweep_degraded),
        ("stable_write", sweep_stable_write),
        ("snapshot_cadence", sweep_snapshot_cadence),
        ("pipeline", sweep_pipeline),
        ("dissemination", sweep_dissemination),
    ];
    for (name, sweep) in sweeps {
        if let Err(e) = sweep(quick, &mut coverage) {
            eprintln!("probe: {name} sweep failed: {e}");
            std::process::exit(1);
        }
    }
    if quick {
        // The bounded dynamic-membership smoke: grow and shrink through
        // the log under audit, per stack.
        if let Err(e) = reconfig_audit(&mut coverage) {
            eprintln!("probe: reconfig audit failed: {e}");
            std::process::exit(1);
        }
        // Quick mode never touches the committed sweeps, so audit them
        // too: they must still parse, cover both stacks and hold the
        // full-resolution point floor — stale or hand-mangled committed
        // bench files fail CI here.
        for file in BENCH_FILES {
            if let Err(e) = verify_bench(file, MIN_COMMITTED_POINTS) {
                eprintln!("probe: committed bench file check failed: {e}");
                eprintln!("probe: regenerate with `cargo run --release -p fortika-bench --bin probe` and commit the result");
                std::process::exit(1);
            }
        }
        println!(
            "committed BENCH files verified ({} files)",
            BENCH_FILES.len()
        );
        // The per-branch coverage of everything this smoke run
        // exercised, archived by CI next to the violation dumps.
        let coverage_path = std::path::Path::new("target/coverage-report.json");
        if let Err(e) = coverage.write_json(coverage_path) {
            eprintln!("probe: writing {}: {e}", coverage_path.display());
            std::process::exit(1);
        }
        println!("wrote {}", coverage_path.display());
    }
    println!("\nall bench files verified (JSON parses, both stacks covered)");
}
