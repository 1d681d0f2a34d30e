//! The committed sweeps, as a table.
//!
//! A [`Sweep`] names one committed trajectory file and the operating
//! points behind it; a [`Point`] carries everything one run differs by.
//! `probe` walks [`SWEEPS`] with a single driver — build the
//! experiment, run it, audit it, emit the record through
//! [`json_point`], then run the sweep's self-check over the collected
//! reports — so adding a sweep is adding a row here, and every record
//! of every file goes through the same emitter.
//!
//! | file | what it sweeps | self-check |
//! |---|---|---|
//! | `BENCH_modularity.json` | the good-run modular/monolithic comparison over load, payload size and group size | — |
//! | `BENCH_degraded.json` | the same comparison under *resource* faults (a slow node, degraded links), oracle-audited | — |
//! | `BENCH_stable_write.json` | synchronous stable-write cost, free to 2 ms per persist | — |
//! | `BENCH_snapshot_cadence.json` | snapshot cadence × load with priced snapshot encode/install | no run cuts more snapshots than its cadence allows |
//! | `BENCH_pipeline.json` | windowed-sequencer depth α × load on a CPU-bound and a latency-bound regime | per stack, some depth > 1 beats depth 1 |
//! | `BENCH_dissemination.json` | the monolith against the modular stack under `direct`/`ring`/`tree` payload dissemination, oracle-audited | `ring` cuts msgs/instance everywhere and ≥ 3× somewhere, and narrows the throughput gap |
//! | `BENCH_decomposition.json` | the paper's decomposition, saturated: the staircase modular → `mono-none` → +O1 → +O1+O2 → +O1+O2+O3 at n ∈ {3, 7} × {1, 16} KiB, then the flow window on both stacks; every record beside its §5.2 closed form | no optimization step raises msgs/instance; `mono-none` out-runs the modular stack and the paper's monolith out-runs `mono-none`; the default window orders M ≈ 4 and no window beats it on both throughput and latency |
//!
//! Every run of every sweep is also held to §5.2 by
//! [`closed_form_audit`]: a fault-free saturated run spends the closed
//! forms' messages and payload bytes per instance at its measured M.
//!
//! Every point runs 1 s of warm-up and a 2 s window at seed 7, so the
//! files regenerate byte-identical; the record format is documented in
//! the top-level README ("Benchmarks"), the cost knobs in
//! `docs/COST_MODEL.md`.

use std::fmt::Write as _;

use fortika_core::analysis;
use fortika_core::workload::Workload;
use fortika_core::{Experiment, MonoOptimizations, RunReport, Scenario, StackConfig, StackKind};
use fortika_net::metrics::{consensus, mono};
use fortika_net::{CostModel, Dissemination, LinkSelector, NetModel, ProcessId};
use fortika_sim::VDur;

/// The seed of every sweep run.
pub const SEED: u64 = 7;

/// A sweep-specific JSON value of one record.
#[derive(Debug, Clone)]
pub enum Field {
    /// A string, fixed by the operating point.
    Text(&'static str),
    /// An integer, fixed by the operating point.
    Count(u64),
    /// Read out of the point and its run's report, already rendered as
    /// JSON.
    Measured(fn(&Point, &RunReport) -> String),
}
use Field::{Count, Measured, Text};

/// One operating point: everything one run of a sweep differs by.
#[derive(Debug, Clone)]
pub struct Point {
    /// Row label of the printed table.
    pub label: String,
    /// Which stack runs.
    pub kind: StackKind,
    /// Group size.
    pub n: usize,
    /// Offered load, msgs/s.
    pub load: f64,
    /// Payload size, bytes.
    pub size: usize,
    /// Network model.
    pub net: NetModel,
    /// CPU / durability cost model.
    pub cost: CostModel,
    /// Protocol configuration.
    pub stack: StackConfig,
    /// Fault scenario. `Some` (even when empty) arms the
    /// delivery-invariant oracle: the point is *audited* — the driver
    /// fails the sweep unless the run carries an oracle report with 0
    /// violations, recorded as `oracle_violations`.
    pub scenario: Option<Scenario>,
    /// The record's sweep-specific fields, in file order.
    pub fields: Vec<(&'static str, Field)>,
}

impl Point {
    /// A point on the default network, cost model and stack
    /// configuration, unaudited, with no sweep-specific fields.
    pub fn new(label: impl Into<String>, kind: StackKind, op: (usize, f64, usize)) -> Self {
        Point {
            label: label.into(),
            kind,
            n: op.0,
            load: op.1,
            size: op.2,
            net: NetModel::default(),
            cost: CostModel::default(),
            stack: StackConfig::default(),
            scenario: None,
            fields: Vec::new(),
        }
    }

    /// The experiment this point describes.
    pub fn experiment(&self) -> Experiment {
        let mut b = Experiment::builder(self.kind, self.n)
            .workload(Workload::constant_rate(self.load, self.size))
            .warmup_secs(1.0)
            .measure_secs(2.0)
            .seed(SEED)
            .net(self.net.clone())
            .cost(self.cost.clone())
            .stack_config(self.stack.clone());
        if let Some(scenario) = &self.scenario {
            b = b.scenario(scenario.clone());
        }
        b.build()
    }
}

/// A point and the report of its run.
pub type Run = (Point, RunReport);

/// One committed sweep.
pub struct Sweep {
    /// Short name; the committed file is `BENCH_<name>.json`.
    pub name: &'static str,
    /// The file's `benchmark` id.
    pub benchmark: &'static str,
    /// Heading of the printed table.
    pub title: &'static str,
    /// The operating set, in file order.
    pub points: fn() -> Vec<Point>,
    /// The sweep's headline claims, checked over all its runs.
    pub check: fn(&[Run]) -> Result<(), String>,
}

impl Sweep {
    /// The committed file, in the repo root.
    pub fn file(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }
}

/// The seven committed sweeps, in the order `probe` runs them.
pub const SWEEPS: [Sweep; 7] = [
    Sweep {
        name: "modularity",
        benchmark: "modularity_cost",
        title: "modularity (good runs)",
        points: modularity_points,
        check: no_claim,
    },
    Sweep {
        name: "degraded",
        benchmark: "modularity_under_degradation",
        title: "modularity under resource faults",
        points: degraded_points,
        check: no_claim,
    },
    Sweep {
        name: "stable_write",
        benchmark: "stable_write_cost",
        title: "stable-write cost",
        points: stable_write_points,
        check: no_claim,
    },
    Sweep {
        name: "snapshot_cadence",
        benchmark: "snapshot_cadence",
        title: "snapshot cadence",
        points: snapshot_cadence_points,
        check: snapshot_cadence_check,
    },
    Sweep {
        name: "pipeline",
        benchmark: "pipelined_instances",
        title: "pipelined instances (depth x load x regime)",
        points: pipeline_points,
        check: pipeline_check,
    },
    Sweep {
        name: "dissemination",
        benchmark: "dissemination_offload",
        title: "dissemination (payload/ordering separation)",
        points: dissemination_points,
        check: dissemination_check,
    },
    Sweep {
        name: "decomposition",
        benchmark: "modularity_decomposition",
        title: "decomposition (O1-O3 staircase, flow window)",
        points: decomposition_points,
        check: decomposition_check,
    },
];

const BOTH_STACKS: [StackKind; 2] = [StackKind::Monolithic, StackKind::Modular];

fn no_claim(_: &[Run]) -> Result<(), String> {
    Ok(())
}

const DURABILITY_UTILIZATION: (&str, Field) = (
    "max_durability_utilization",
    Measured(|_, r| format!("{:.4}", r.max_durability_utilization)),
);

fn modularity_points() -> Vec<Point> {
    // (n, offered load msgs/s, payload bytes)
    let operating = [
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
    let mut points = Vec::new();
    for op in operating {
        for kind in BOTH_STACKS {
            points.push(Point::new("good", kind, op));
        }
    }
    points
}

/// A slow node and/or degraded links covering the whole measurement
/// window.
fn degraded_points() -> Vec<Point> {
    let operating = [
        (3, 1000.0, 16384),
        (3, 2000.0, 16384),
        (7, 2000.0, 16384),
        (3, 2000.0, 1024),
    ];
    // (label, slow_factor_milli on p0, degrade rate_milli on all links)
    let faults = [
        ("slow_node", 4000, 1000),
        ("degraded_link", 1000, 250),
        ("slow+degraded", 2500, 500),
    ];
    let (from, until) = (VDur::millis(1000), VDur::millis(3000));
    let mut points = Vec::new();
    for op in operating {
        for (label, slow, rate) in faults {
            for kind in BOTH_STACKS {
                let mut scenario = Scenario::new();
                if slow > 1000 {
                    scenario = scenario.slow_node(ProcessId(0), slow, from, until);
                }
                if rate < 1000 {
                    scenario = scenario.degrade_link(LinkSelector::All, rate, from, until);
                }
                let mut p = Point::new(label, kind, op);
                p.scenario = Some(scenario);
                p.fields = vec![
                    ("fault", Text(label)),
                    ("slow_factor_milli", Count(slow)),
                    ("degrade_rate_milli", Count(rate)),
                ];
                points.push(p);
            }
        }
    }
    points
}

fn stable_write_points() -> Vec<Point> {
    let mut points = Vec::new();
    // Microseconds per persisted record.
    for us in [0, 50, 200, 500, 1000, 2000] {
        for kind in BOTH_STACKS {
            let mut p = Point::new(format!("{us}us"), kind, (3, 1000.0, 1024));
            p.cost.stable_write = VDur::micros(us);
            p.fields = vec![("stable_write_us", Count(us)), DURABILITY_UTILIZATION];
            points.push(p);
        }
    }
    points
}

fn snapshot_cadence_points() -> Vec<Point> {
    // Priced durability: a 50 µs stable write, 40 µs/KiB snapshot
    // encode (install ×1.5), plus a 500 µs fixed cost per snapshot —
    // see docs/COST_MODEL.md.
    let mut cost = CostModel::with_durability(VDur::micros(50), VDur::micros(40));
    cost.snapshot_encode_fixed = VDur::micros(500);
    cost.snapshot_install_fixed = VDur::micros(500);
    let mut points = Vec::new();
    // Instances between snapshots (0 would disable them) × loads.
    for interval in [32, 128, 512, 1024] {
        for load in [500.0, 2000.0] {
            for kind in BOTH_STACKS {
                let mut p = Point::new(format!("every {interval}"), kind, (3, load, 1024));
                p.cost = cost.clone();
                p.stack.snapshot_interval = interval;
                p.fields = vec![
                    ("snapshot_interval", Count(interval)),
                    (
                        "snapshots_in_window",
                        Measured(|_, r| snapshots_in_window(r).to_string()),
                    ),
                    DURABILITY_UTILIZATION,
                ];
                points.push(p);
            }
        }
    }
    points
}

/// Snapshots materialized in the window, over all processes.
fn snapshots_in_window(r: &RunReport) -> u64 {
    r.counters.count(consensus::SNAPSHOTS) + r.counters.count(mono::SNAPSHOTS)
}

/// Compaction follows its cadence: each process cuts one snapshot per
/// `snapshot_interval` instances it decides, give or take the window's
/// two edges — not one per decision once its decision cache is full,
/// which is what this sweep recorded until that was noticed.
fn snapshot_cadence_check(runs: &[Run]) -> Result<(), String> {
    for (p, r) in runs {
        let per_proc = r.instances_per_proc / p.stack.snapshot_interval as f64 + 2.0;
        let snapshots = snapshots_in_window(r);
        if snapshots as f64 > r.n as f64 * per_proc {
            return Err(format!(
                "{} at {} msgs/s, snapshot_interval {}: {snapshots} snapshots in the window, \
                 {:.0} instances per process allow {:.1} — compaction is off its cadence",
                r.kind.label(),
                p.load,
                p.stack.snapshot_interval,
                r.instances_per_proc,
                r.n as f64 * per_proc,
            ));
        }
    }
    Ok(())
}

/// Two regimes bound the pipelining story: on the paper's CPU-bound
/// `lan` calibration extra instances only buy the monolithic stack
/// anything (the modular stack's per-instance message complexity eats
/// the CPU the window frees), while on the latency-bound `wan` regime
/// the window overlaps decision round-trips and throughput climbs with
/// depth on both stacks.
fn pipeline_points() -> Vec<Point> {
    // Wide enough that the pipeline, not admission, is the binding
    // constraint.
    const WINDOW: usize = 12;
    // A 2 ms one-way propagation delay makes the decision round-trip —
    // not the CPU — the thing pipelining must hide.
    let wan_net = NetModel {
        prop_delay: VDur::millis(2),
        jitter: VDur::micros(100),
        ..NetModel::default()
    };
    // A modern-CPU calibration (≈10× the default Pentium-4-era speed):
    // with cheap handlers the stacks are latency-bound on `wan_net`,
    // the regime where an in-flight instance window converts directly
    // into throughput (Ring Paxos / Chop Chop territory).
    let fast_cpu = CostModel {
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
    };
    let lan: (&str, &[f64], _, _) = (
        "lan",
        &[1000.0, 4000.0],
        NetModel::default(),
        CostModel::default(),
    );
    let wan: (&str, &[f64], _, _) = ("wan", &[8000.0], wan_net, fast_cpu);
    let mut points = Vec::new();
    for (regime, loads, net, cost) in [lan, wan] {
        for &load in loads {
            for depth in [1, 2, 4, 8] {
                for kind in BOTH_STACKS {
                    let mut p =
                        Point::new(format!("{regime} depth {depth}"), kind, (3, load, 1024));
                    p.net = net.clone();
                    p.cost = cost.clone();
                    p.stack.pipeline_depth = depth;
                    p.stack.window = WINDOW;
                    p.fields = vec![
                        ("regime", Text(regime)),
                        ("pipeline_depth", Count(depth as u64)),
                        ("flow_window", Count(WINDOW as u64)),
                    ];
                    points.push(p);
                }
            }
        }
    }
    points
}

/// For each stack, some depth > 1 must beat the depth-1 throughput of
/// the same load and regime — otherwise the pipeline is not engaging.
fn pipeline_check(runs: &[Run]) -> Result<(), String> {
    for kind in BOTH_STACKS {
        let engaged = runs.iter().any(|(p, r)| {
            p.kind == kind
                && p.stack.pipeline_depth > 1
                && runs.iter().any(|(base, base_r)| {
                    base.kind == kind
                        && base.stack.pipeline_depth == 1
                        && base.load == p.load
                        && base.net == p.net
                        && r.throughput_msgs_per_sec > base_r.throughput_msgs_per_sec
                })
        });
        if !engaged {
            return Err(format!(
                "no depth > 1 beat the depth-1 {} throughput at any operating point — \
                 pipelining is not engaging",
                kind.label()
            ));
        }
    }
    Ok(())
}

/// The four variants run at every dissemination operating point: the
/// monolithic baseline, then the modular stack under each strategy.
const DISSEM_VARIANTS: [(StackKind, Dissemination); 4] = [
    (StackKind::Monolithic, Dissemination::Direct),
    (StackKind::Modular, Dissemination::Direct),
    (StackKind::Modular, Dissemination::Ring),
    (StackKind::Modular, Dissemination::Tree),
];

/// The CPU-bound LAN calibration the paper measures — the regime where
/// the modular stack pays its per-message diffusion overhead and the
/// Ring Paxos-style offload has something to win back. Under the
/// offload, consensus orders small fixed-size value ids while batch
/// payloads travel the topology exactly once.
fn dissemination_points() -> Vec<Point> {
    let operating = [
        (3, 2000.0, 16384),
        (3, 4000.0, 16384),
        (7, 2000.0, 16384),
        (3, 4000.0, 1024),
    ];
    // Wide enough that the outstanding-payload cap, not admission,
    // shapes the offload.
    const WINDOW: usize = 16;
    let mut points = Vec::new();
    for op in operating {
        for (kind, strategy) in DISSEM_VARIANTS {
            let mut p = Point::new(strategy.label(), kind, op);
            p.stack.dissemination = strategy;
            p.stack.window = WINDOW;
            // An empty scenario: no faults, every adeliver audited.
            p.scenario = Some(Scenario::new());
            p.fields = vec![
                ("dissemination", Text(strategy.label())),
                ("flow_window", Count(WINDOW as u64)),
            ];
            points.push(p);
        }
    }
    points
}

/// `ring` must cut msgs/instance on every operating point and by at
/// least 3× on some point (n = 7, where direct diffusion costs ~365
/// msgs/instance, carries it), and on at least one point the offload
/// must narrow the modular/monolithic throughput gap.
fn dissemination_check(runs: &[Run]) -> Result<(), String> {
    let mut gap_narrowed = false;
    let mut best_cut = 0.0f64;
    for group in runs.chunks(DISSEM_VARIANTS.len()) {
        let [(at, mono), (_, direct), (_, ring), _tree] = group else {
            return Err("operating point without all four variants".to_string());
        };
        if ring.msgs_per_instance >= direct.msgs_per_instance {
            return Err(format!(
                "n={} load={} size={}: ring msgs/instance {:.2} did not improve on direct \
                 {:.2} — the offload is not shedding the diffusion traffic",
                at.n, at.load, at.size, ring.msgs_per_instance, direct.msgs_per_instance
            ));
        }
        best_cut = best_cut.max(direct.msgs_per_instance / ring.msgs_per_instance);
        let mono_thr = mono.throughput_msgs_per_sec;
        gap_narrowed |=
            (mono_thr - ring.throughput_msgs_per_sec) < (mono_thr - direct.throughput_msgs_per_sec);
    }
    if best_cut < 3.0 {
        return Err(format!(
            "best ring msgs/instance cut vs direct is {best_cut:.2}x, the headline claim \
             needs at least 3x at some operating point"
        ));
    }
    if !gap_narrowed {
        return Err(
            "ring never narrowed the modular/monolithic throughput gap at any operating \
             point — the offload is not paying for itself"
                .to_string(),
        );
    }
    Ok(())
}

/// Offered load of the decomposition sweep: far above what either stack
/// carries, so flow control keeps the pipeline full — the saturated
/// regime §5.2 counts in.
const SATURATING_LOAD: f64 = 4000.0;

/// The staircase's operating points, in file order: (n, payload bytes).
const STAIRCASE_OPS: [(usize, usize); 4] = [(3, 1024), (3, 16384), (7, 1024), (7, 16384)];

/// The monolith's steps of the staircase, each after the modular stack
/// at the same point. `mono-none` runs the modular algorithm inside one
/// module, so what separates it from the modular stack is the
/// framework's mechanical cost; O1, O2 and O3 then switch on one after
/// the other, each removing one term of [`analysis::messages_with`].
const MONO_STEPS: [(&str, MonoOptimizations); 4] = [
    ("mono-none", MonoOptimizations::none()),
    (
        "mono-O1",
        MonoOptimizations {
            combine_decision_proposal: true,
            piggyback_on_acks: false,
            implicit_decision_acks: false,
        },
    ),
    (
        "mono-O1+O2",
        MonoOptimizations {
            combine_decision_proposal: true,
            piggyback_on_acks: true,
            implicit_decision_acks: false,
        },
    ),
    ("mono-O1+O2+O3", MonoOptimizations::all()),
];

/// The flow-control windows swept on both stacks at n = 3, 16 KiB: §5.1
/// tunes the window for M ≈ 4 and says that this M "optimizes
/// performance of both stacks".
const FLOW_WINDOWS: [usize; 6] = [2, 3, 4, 6, 8, 12];

/// A decomposition record's `closed_form`: §5.2's messages and payload
/// bytes per instance for what the point runs, at the M its run measured.
const CLOSED_FORM: (&str, Field) = (
    "closed_form",
    Measured(|p, r| {
        let (msgs, bytes) = closed_form(p, r);
        format!("{{\"msgs_per_instance\": {msgs:.3}, \"bytes_per_instance\": {bytes:.1}}}")
    }),
);

/// The staircase at every [`STAIRCASE_OPS`] point, then the flow window
/// on both stacks.
fn decomposition_points() -> Vec<Point> {
    let point = |label: String, variant: &'static str, kind, op, stack: StackConfig| {
        let mut p = Point::new(label, kind, op);
        p.fields = vec![
            ("variant", Text(variant)),
            ("flow_window", Count(stack.window as u64)),
            CLOSED_FORM,
        ];
        p.stack = stack;
        p
    };
    let mut points = Vec::new();
    for (n, size) in STAIRCASE_OPS {
        let op = (n, SATURATING_LOAD, size);
        let modular = StackConfig::default();
        points.push(point(
            "modular".into(),
            "modular",
            StackKind::Modular,
            op,
            modular,
        ));
        for (variant, mono_opts) in MONO_STEPS {
            let stack = StackConfig {
                mono_opts,
                ..StackConfig::default()
            };
            points.push(point(
                variant.into(),
                variant,
                StackKind::Monolithic,
                op,
                stack,
            ));
        }
    }
    let (paper, _) = MONO_STEPS[MONO_STEPS.len() - 1];
    for window in FLOW_WINDOWS {
        let op = (3, SATURATING_LOAD, 16384);
        for (variant, kind) in [
            ("modular", StackKind::Modular),
            (paper, StackKind::Monolithic),
        ] {
            let stack = StackConfig {
                window,
                ..StackConfig::default()
            };
            points.push(point(format!("window {window}"), variant, kind, op, stack));
        }
    }
    points
}

/// Along each staircase no optimization step raises msgs/instance,
/// `mono-none` out-runs the modular stack (with the algorithm held
/// fixed, what remains is the framework's mechanical cost) and the
/// paper's monolith out-runs `mono-none` (what O1–O3 gain). Over the
/// flow window, §5.1's calibration holds — the default window orders
/// M ≈ 4 on the modular stack — and on each stack no other window beats
/// the default on both throughput and mean latency.
fn decomposition_check(runs: &[Run]) -> Result<(), String> {
    let steps = 1 + MONO_STEPS.len();
    let (staircase, windows) = runs.split_at(STAIRCASE_OPS.len() * steps);
    for stair in staircase.chunks(steps) {
        let (at, modular) = &stair[0];
        let here = format!("n={} size={}", at.n, at.size);
        for pair in stair[1..].windows(2) {
            let ((_, before), (step, after)) = (&pair[0], &pair[1]);
            if after.msgs_per_instance > before.msgs_per_instance {
                return Err(format!(
                    "{here}: {} raises msgs/instance from {:.2} to {:.2}",
                    step.label, before.msgs_per_instance, after.msgs_per_instance
                ));
            }
        }
        let (none, paper) = (&stair[1].1, &stair[steps - 1].1);
        if none.throughput_msgs_per_sec <= modular.throughput_msgs_per_sec {
            return Err(format!(
                "{here}: mono-none carries {:.1} msgs/s, the modular stack {:.1} — the same \
                 algorithm without the framework is no faster",
                none.throughput_msgs_per_sec, modular.throughput_msgs_per_sec
            ));
        }
        if paper.throughput_msgs_per_sec <= none.throughput_msgs_per_sec {
            return Err(format!(
                "{here}: the monolith carries {:.1} msgs/s, mono-none {:.1} — O1-O3 gain nothing",
                paper.throughput_msgs_per_sec, none.throughput_msgs_per_sec
            ));
        }
    }
    let default_window = StackConfig::default().window;
    for kind in BOTH_STACKS {
        let rows: Vec<&Run> = windows.iter().filter(|(p, _)| p.kind == kind).collect();
        let Some((_, base)) = rows.iter().find(|(p, _)| p.stack.window == default_window) else {
            return Err(format!("no {} row at the default window", kind.label()));
        };
        if kind == StackKind::Modular && !(3.5..=5.0).contains(&base.avg_batch_m) {
            return Err(format!(
                "the default window {default_window} orders M = {:.2} on the modular stack, \
                 §5.1 tunes it for M ≈ 4",
                base.avg_batch_m
            ));
        }
        let dominating = rows.iter().find(|(_, r)| {
            r.throughput_msgs_per_sec > base.throughput_msgs_per_sec
                && r.early_latency_ms.mean < base.early_latency_ms.mean
        });
        if let Some((p, _)) = dominating {
            return Err(format!(
                "{}: window {} beats the default window {default_window} on both throughput \
                 and latency",
                kind.label(),
                p.stack.window
            ));
        }
    }
    Ok(())
}

/// Share of its offered load under which a run counts as saturated:
/// flow control, not the arrival rate, sets its throughput, so instance
/// `k+1` opens as soon as `k` decides — §5.2's standing assumption.
/// Below saturation the monolith's decision often has no proposal to
/// ride (O1): 6.0 msgs/instance at n = 3 and 250 msgs/s, not 4.
const SATURATED_BELOW: f64 = 0.95;

/// How far a run's msgs/instance may sit from §5.2.1's form.
const MSGS_TOLERANCE: f64 = 0.02;

/// The band a run's bytes/instance must sit in, as a ratio to §5.2.2's
/// form. The form counts payload only, so headers lift a run above it
/// (most with 1 KiB payloads and small batches); a monolithic
/// coordinator whose own messages make more than its `1/n` share of a
/// batch ships fewer piggybacked bytes and sits below it.
const BYTES_BAND: (f64, f64) = (0.90, 1.15);

/// §5.2's messages and payload bytes per instance for what `p` runs, at
/// the batch size M its run `r` measured.
fn closed_form(p: &Point, r: &RunReport) -> (f64, f64) {
    let opts = match p.kind {
        StackKind::Modular => MonoOptimizations::none(),
        StackKind::Monolithic => p.stack.mono_opts,
    };
    let m = r.avg_batch_m;
    (
        analysis::messages_with(p.n, m, opts),
        analysis::data_with(p.n, m, p.size, opts),
    )
}

/// Holds one run to §5.2: a fault-free, saturated run of one instance
/// at a time with direct dissemination must spend the closed forms'
/// messages per instance, at its measured M, within 2 % and their
/// payload bytes within −10 % / +15 %. Any other run is outside the
/// forms' assumptions and passes.
pub fn closed_form_audit(p: &Point, r: &RunReport) -> Result<(), String> {
    let faulted = p.scenario.as_ref().is_some_and(|s| !s.events().is_empty());
    let saturated = r.throughput_msgs_per_sec < SATURATED_BELOW * p.load;
    if faulted || !saturated || p.stack.pipeline_depth > 1 || p.stack.dissemination.offloads() {
        return Ok(());
    }
    let (msgs, bytes) = closed_form(p, r);
    let m = r.avg_batch_m;
    if (r.msgs_per_instance / msgs - 1.0).abs() > MSGS_TOLERANCE {
        return Err(format!(
            "{:.3} msgs/instance, §5.2.1's form gives {msgs:.3} at M = {m:.3} (tolerance {} %)",
            r.msgs_per_instance,
            MSGS_TOLERANCE * 100.0
        ));
    }
    let ratio = r.bytes_per_instance / bytes;
    if !(BYTES_BAND.0..=BYTES_BAND.1).contains(&ratio) {
        return Err(format!(
            "{:.1} bytes/instance is {ratio:.3} of §5.2.2's form {bytes:.1} at M = {m:.3} \
             (band {}–{})",
            r.bytes_per_instance, BYTES_BAND.0, BYTES_BAND.1
        ));
    }
    Ok(())
}

/// One JSON record: the fields common to every sweep, then the point's
/// own `fields`, closed by the oracle's violation count when the run
/// was audited.
pub fn json_point(p: &Point, r: &RunReport) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "    {{\"stack\": \"{}\", \"n\": {}, \"offered_load\": {}, \"msg_size\": {}, \
         \"latency_ms\": {{\"mean\": {:.4}, \"p50\": {:.4}, \"p90\": {:.4}, \"p99\": {:.4}}}, \
         \"throughput_msgs_per_sec\": {:.2}, \"batch_m\": {:.3}, \"max_cpu_utilization\": {:.4}, \
         \"msgs_per_instance\": {:.3}, \"bytes_per_instance\": {:.1}",
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
    );
    for (key, field) in &p.fields {
        let _ = match field {
            Text(s) => write!(out, ", \"{key}\": \"{s}\""),
            Count(c) => write!(out, ", \"{key}\": {c}"),
            Measured(read) => write!(out, ", \"{key}\": {}", read(p, r)),
        };
    }
    if let Some(oracle) = &r.oracle {
        let _ = write!(out, ", \"oracle_violations\": {}", oracle.violations.len());
    }
    out.push('}');
    out
}

/// Wraps a sweep's records in the envelope every committed file shares.
pub fn json_document(benchmark: &str, records: &[String]) -> String {
    format!(
        "{{\n  \"benchmark\": \"{benchmark}\",\n  \"seed\": {SEED},\n  \
         \"units\": {{\"latency\": \"ms\", \"throughput\": \"msgs/s\"}},\n  \"points\": [\n{}\n  ]\n}}\n",
        records.join(",\n")
    )
}
