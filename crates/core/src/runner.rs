//! The experiment runner: one run = one simulated cluster under one
//! workload at one seed. Runs are deterministic, so a point is one run.

use fortika_chaos::{AuditTap, DeliveryOracle, OracleReport, Scenario};
use fortika_net::metrics::{abcast, consensus};
use fortika_net::{ClusterConfig, CostModel, Counters, NetModel, ProcessId};
use fortika_sim::{VDur, VTime};
use fortika_trace::{decompose_window, LatencyDecomposition, Trace, TraceConfig, WindowSpec};

use crate::stack::{scenario_cluster, StackConfig, StackKind};
use crate::workload::{Workload, WorkloadDriver};

/// Everything needed to run one experiment configuration.
#[derive(Debug, Clone)]
pub struct Experiment {
    kind: StackKind,
    n: usize,
    workload: Workload,
    stack: StackConfig,
    net: NetModel,
    cost: CostModel,
    seed: u64,
    warmup: VDur,
    measure: VDur,
    drain: VDur,
    scenario: Option<Scenario>,
    trace: TraceConfig,
    /// Violation side effects (trace dump, auto-minimized reproducer).
    /// True for user-built experiments; cleared on the internal probe
    /// runs the minimizer spawns, so shrinking can't recurse or litter
    /// `target/trace/` with candidate dumps.
    emit_artifacts: bool,
}

/// Builder for [`Experiment`] (see [`Experiment::builder`]).
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    inner: Experiment,
}

impl Experiment {
    /// Starts building an experiment on `n` processes with the given
    /// stack kind.
    pub fn builder(kind: StackKind, n: usize) -> ExperimentBuilder {
        assert!(n >= 1, "need at least one process");
        ExperimentBuilder {
            inner: Experiment {
                kind,
                n,
                workload: Workload::constant_rate(500.0, 1024),
                stack: StackConfig::default(),
                net: NetModel::default(),
                cost: CostModel::default(),
                seed: 1,
                warmup: VDur::millis(1500),
                measure: VDur::secs(3),
                drain: VDur::millis(500),
                scenario: None,
                trace: TraceConfig::default(),
                emit_artifacts: true,
            },
        }
    }

    /// Runs the experiment once and reports the window metrics.
    ///
    /// With a [`Scenario`] attached, it is stood on the cluster by
    /// [`scenario_cluster`] (standby capacity, adopted configuration
    /// axes, suspicion windows, restart factory, fault schedule), the
    /// drain is stretched past the scenario horizon, and the
    /// delivery-invariant oracle audits every `adeliver` — safety
    /// violations land in [`RunReport::oracle`].
    pub fn run(&mut self) -> RunReport {
        let mut cluster_cfg = ClusterConfig::new(self.n, self.seed);
        cluster_cfg.net = self.net.clone();
        cluster_cfg.cost = self.cost.clone();
        cluster_cfg.trace = self.trace.clone();
        // A run without a scenario is a run under the empty one.
        let no_faults = Scenario::new();
        let scenario = self.scenario.as_ref().unwrap_or(&no_faults);
        let (mut cluster, _) = scenario_cluster(self.kind, &self.stack, cluster_cfg, scenario);
        let capacity = cluster.n();

        let window_start = VTime::ZERO + self.warmup;
        let window_end = window_start + self.measure;
        let mut driver = WorkloadDriver::with_seed(
            self.workload.clone(),
            self.n,
            window_start,
            window_end,
            self.seed,
        );
        if self.trace.enabled {
            // Keep per-message observations so every latency sample can
            // be decomposed against the event trace below.
            driver.enable_sample_log();
        }
        driver.start(&mut cluster);
        // Record deliveries for the oracle only when a scenario asked
        // for an audit — plain benchmark runs skip the bookkeeping.
        let oracle = self
            .scenario
            .as_ref()
            .map(|_| DeliveryOracle::new(capacity));
        let mut tap = AuditTap::wrap(driver, oracle);

        // Warm-up.
        cluster.run_until(window_start, &mut tap);
        let counters_at_start = cluster.counters().clone();
        let busy_at_start: Vec<VDur> = ProcessId::all(self.n)
            .map(|p| cluster.cpu_busy(p))
            .collect();
        let dur_at_start: Vec<VDur> = ProcessId::all(self.n)
            .map(|p| cluster.durability_busy(p))
            .collect();

        // Measurement window + drain (so in-flight messages complete).
        cluster.run_until(window_end, &mut tap);
        let counters_at_end = cluster.counters().clone();
        let busy_at_end: Vec<VDur> = ProcessId::all(self.n)
            .map(|p| cluster.cpu_busy(p))
            .collect();
        let dur_at_end: Vec<VDur> = ProcessId::all(self.n)
            .map(|p| cluster.durability_busy(p))
            .collect();
        // Under a scenario, drain past the last fault plus a margin so
        // healing (and post-heal catch-up) happens inside the run.
        let mut end_of_drain = window_end + self.drain;
        if let Some(scenario) = &self.scenario {
            end_of_drain = end_of_drain.max(VTime::ZERO + scenario.horizon() + VDur::secs(1));
        }
        cluster.run_until(end_of_drain, &mut tap);
        let suspicions = cluster.counters().count(fortika_fd::metrics::SUSPICIONS);
        let longest_silence = ProcessId::all(cluster.n())
            .map(|src| {
                ProcessId::all(cluster.n())
                    .map(|dst| cluster.longest_silence(src, dst))
                    .collect()
            })
            .collect();
        let trace = cluster.take_trace();
        let (driver, oracle) = tap.into_parts();

        let oracle_report = oracle.map(|o| o.check(&scenario.correct(capacity)));
        // A violating traced run leaves its bounded evidence window on
        // disk before anything else can panic on the report.
        if self.emit_artifacts {
            if let (Some(trace), Some(report)) = (&trace, &oracle_report) {
                if !report.is_ok() {
                    let label = format!("{:?}-seed{}", self.kind, self.seed).to_lowercase();
                    let dir = std::path::Path::new("target").join("trace");
                    match fortika_chaos::dump_violation_trace(trace, report, &dir, &label) {
                        Ok(paths) => {
                            for p in paths {
                                eprintln!("violation trace written: {}", p.display());
                            }
                        }
                        Err(e) => eprintln!("violation trace dump failed: {e}"),
                    }
                }
            }
        }
        // Any oracle violation also auto-minimizes its scenario: ddmin
        // re-runs this experiment (artifacts and tracing off) on
        // candidate sub-timelines until no single event can be dropped
        // while still tripping the same violation kind. The reproducer
        // lands next to the trace dump and in the report.
        let minimized_scenario = if self.emit_artifacts {
            self.minimize_violation(&oracle_report)
        } else {
            None
        };
        let stats = driver.finish();
        let latency_decomposition = trace.as_ref().map(|t| {
            let samples: Vec<_> = stats
                .samples
                .iter()
                .map(|s| {
                    decompose_window(
                        &t.events,
                        &WindowSpec {
                            pid: s.earliest_pid.0,
                            t0_ns: s.t0.as_nanos(),
                            te_ns: s.earliest.as_nanos(),
                        },
                    )
                })
                .collect();
            LatencyDecomposition::from_samples(&samples)
        });
        let secs = self.measure.as_secs_f64();
        let per_proc_rates: Vec<f64> = stats
            .delivered_per_proc
            .iter()
            .map(|&c| c as f64 / secs)
            .collect();
        let throughput = per_proc_rates.iter().sum::<f64>() / self.n as f64;

        let window = counters_at_end.delta_since(&counters_at_start);
        let decided = window.count(consensus::DECIDED) as f64 / self.n as f64;
        let delivered = window.count(abcast::DELIVERED) as f64 / self.n as f64;
        let msgs = window.total_msgs_excluding(|k| k.starts_with("fd."));
        let bytes = {
            let mut b = 0;
            for (k, c) in window.iter_sends() {
                if !k.starts_with("fd.") {
                    b += c.bytes;
                }
            }
            b
        };
        let utilization: Vec<f64> = busy_at_start
            .iter()
            .zip(&busy_at_end)
            .map(|(&s, &e)| (e.saturating_sub(s).as_secs_f64() / secs).clamp(0.0, 1.0))
            .collect();
        let durability_utilization: Vec<f64> = dur_at_start
            .iter()
            .zip(&dur_at_end)
            .map(|(&s, &e)| (e.saturating_sub(s).as_secs_f64() / secs).clamp(0.0, 1.0))
            .collect();

        RunReport {
            kind: self.kind,
            n: self.n,
            offered_load: self.workload.offered_load,
            msg_size: self.workload.msg_size,
            seed: self.seed,
            early_latency_ms: LatencySummary {
                mean: stats.latency_ms.mean(),
                min: if stats.latency_ms.count() > 0 {
                    stats.latency_ms.min()
                } else {
                    0.0
                },
                max: if stats.latency_ms.count() > 0 {
                    stats.latency_ms.max()
                } else {
                    0.0
                },
                p50: stats.latency_hist.percentile(50.0),
                p90: stats.latency_hist.percentile(90.0),
                p99: stats.latency_hist.percentile(99.0),
                samples: stats.latency_ms.count(),
            },
            throughput_msgs_per_sec: throughput,
            delivered_total: stats.delivered_per_proc.iter().sum(),
            admitted_in_window: stats.admitted,
            lost_samples: stats.lost_samples,
            instances_per_proc: decided,
            avg_batch_m: if decided > 0.0 {
                delivered / decided
            } else {
                0.0
            },
            msgs_in_window: msgs,
            bytes_in_window: bytes,
            msgs_per_instance: if decided > 0.0 {
                msgs as f64 / decided
            } else {
                0.0
            },
            bytes_per_instance: if decided > 0.0 {
                bytes as f64 / decided
            } else {
                0.0
            },
            max_cpu_utilization: utilization.iter().cloned().fold(0.0, f64::max),
            mean_cpu_utilization: utilization.iter().sum::<f64>() / self.n as f64,
            max_durability_utilization: durability_utilization.iter().cloned().fold(0.0, f64::max),
            counters: window,
            suspicions,
            longest_silence,
            oracle: oracle_report,
            trace,
            latency_decomposition,
            minimized_scenario,
        }
    }

    /// Shrinks a violating run's scenario to a locally minimal
    /// reproducer (same [`Violation::kind`]) and writes it under
    /// `target/trace/`; returns the minimized scenario. `None` when the
    /// run was clean, had no scenario, or minimization lost the
    /// violation entirely (the original scenario is its own minimum
    /// then — still reported, so callers always get a reproducer).
    ///
    /// [`Violation::kind`]: fortika_chaos::Violation::kind
    fn minimize_violation(&self, oracle_report: &Option<OracleReport>) -> Option<Scenario> {
        let scenario = self.scenario.as_ref()?;
        let violation = oracle_report.as_ref()?.violations.first()?;
        let kind = violation.kind();
        let mut probe = self.clone();
        probe.emit_artifacts = false;
        probe.trace = TraceConfig::default();
        let minimized = fortika_chaos::minimize(scenario, |candidate| {
            probe.scenario = Some(candidate.clone());
            probe
                .run()
                .oracle
                .as_ref()
                .and_then(|r| r.violations.first())
                .is_some_and(|v| v.kind() == kind)
        });
        let label = format!("{:?}-seed{}", self.kind, self.seed).to_lowercase();
        let path = std::path::Path::new("target")
            .join("trace")
            .join(format!("violation-{label}.min.txt"));
        let body = format!(
            "kind: {:?}\nn: {}\nseed: {}\nviolation: {kind}\nevents: {} (of {})\n\
             pipeline_depth: {}\nscenario: {:#?}\n",
            self.kind,
            self.n,
            self.seed,
            minimized.scenario.events().len(),
            minimized.original_events,
            minimized.scenario.pipeline_depth(),
            minimized.scenario,
        );
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(&path, body) {
            Ok(()) => eprintln!("minimized reproducer written: {}", path.display()),
            Err(e) => eprintln!("minimized reproducer write failed: {e}"),
        }
        Some(minimized.scenario)
    }
}

impl ExperimentBuilder {
    /// Sets the workload.
    pub fn workload(mut self, w: Workload) -> Self {
        self.inner.workload = w;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// Sets the warm-up duration (excluded from measurements).
    pub fn warmup_secs(mut self, secs: f64) -> Self {
        self.inner.warmup = VDur::from_secs_f64(secs);
        self
    }

    /// Sets the measurement window length.
    pub fn measure_secs(mut self, secs: f64) -> Self {
        self.inner.measure = VDur::from_secs_f64(secs);
        self
    }

    /// Overrides the stack configuration (flow window, FD, ablations…).
    pub fn stack_config(mut self, cfg: StackConfig) -> Self {
        self.inner.stack = cfg;
        self
    }

    /// Attaches a fault [`Scenario`]: its crashes, restarts, link
    /// faults, scripted suspicions and reconfigurations run against
    /// this experiment exactly as [`scenario_cluster`] stands them on
    /// any cluster, and the delivery-invariant oracle audits every
    /// `adeliver` (see [`RunReport::oracle`]). A scenario that carries
    /// a windowed-sequencer depth (`Scenario::pipeline_depth` — the
    /// chaos generator draws one per scenario) raises the stack's
    /// `pipeline_depth` to at least that value, so generated fault
    /// timelines also fuzz pipelined instance execution.
    ///
    /// # Example: crash-recovery under audit
    ///
    /// ```
    /// use fortika_core::workload::Workload;
    /// use fortika_core::{Experiment, Scenario, StackKind};
    /// use fortika_net::ProcessId;
    /// use fortika_sim::VDur;
    ///
    /// // p2 crashes at 0.5 s with total volatile-state loss and is
    /// // revived at 1 s; the oracle checks agreement, total order,
    /// // integrity and byte-identical replay across incarnations.
    /// let scenario = Scenario::new()
    ///     .crash(ProcessId(1), VDur::millis(500))
    ///     .restart(ProcessId(1), VDur::millis(1000));
    /// let mut exp = Experiment::builder(StackKind::Modular, 3)
    ///     .workload(Workload::constant_rate(200.0, 256))
    ///     .seed(3)
    ///     .warmup_secs(0.2)
    ///     .measure_secs(1.0)
    ///     .scenario(scenario)
    ///     .build();
    /// let report = exp.run();
    /// report.oracle.expect("scenario attached").assert_ok("doc example");
    /// ```
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.inner.scenario = Some(scenario);
        self
    }

    /// Overrides the network model.
    pub fn net(mut self, net: NetModel) -> Self {
        self.inner.net = net;
        self
    }

    /// Overrides the CPU cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.inner.cost = cost;
        self
    }

    /// Enables event tracing for the run (off by default). Tracing
    /// never changes simulated timing — the benchmark numbers with and
    /// without it are bit-identical — but a traced run additionally
    /// yields [`RunReport::trace`] and
    /// [`RunReport::latency_decomposition`], and a traced run whose
    /// oracle reports a violation dumps the bounded event window around
    /// the offending process under `target/trace/`.
    ///
    /// ```
    /// use fortika_core::{Experiment, StackKind, TraceConfig};
    ///
    /// let mut exp = Experiment::builder(StackKind::Modular, 3)
    ///     .warmup_secs(0.2)
    ///     .measure_secs(0.5)
    ///     .trace(TraceConfig::on())
    ///     .build();
    /// let report = exp.run();
    /// let trace = report.trace.expect("tracing was on");
    /// assert!(!trace.events.is_empty());
    /// let d = report.latency_decomposition.expect("tracing was on");
    /// assert!(d.samples > 0);
    /// ```
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.inner.trace = trace;
        self
    }

    /// Finishes building.
    pub fn build(self) -> Experiment {
        self.inner
    }
}

/// Early-latency summary for one run.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Mean early latency (ms) over messages admitted in the window.
    pub mean: f64,
    /// Fastest message.
    pub min: f64,
    /// Slowest message.
    pub max: f64,
    /// Median (ms, ~1.5 % resolution).
    pub p50: f64,
    /// 90th percentile (ms).
    pub p90: f64,
    /// 99th percentile (ms).
    pub p99: f64,
    /// Number of samples.
    pub samples: u64,
}

/// All metrics from one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Stack under test.
    pub kind: StackKind,
    /// Group size.
    pub n: usize,
    /// Configured offered load (msgs/s).
    pub offered_load: f64,
    /// Message payload size (bytes).
    pub msg_size: usize,
    /// RNG seed of this run.
    pub seed: u64,
    /// Early latency over the window.
    pub early_latency_ms: LatencySummary,
    /// Throughput T = (1/n) Σ rᵢ (msgs/s).
    pub throughput_msgs_per_sec: f64,
    /// Total adeliver events in the window (all processes).
    pub delivered_total: u64,
    /// Messages admitted (abcast completed) in the window.
    pub admitted_in_window: u64,
    /// Admitted messages never observed delivered (0 in good runs).
    pub lost_samples: u64,
    /// Consensus instances decided per process in the window.
    pub instances_per_proc: f64,
    /// Average messages ordered per instance (the paper's M).
    pub avg_batch_m: f64,
    /// Protocol messages sent in the window (heartbeats excluded).
    pub msgs_in_window: u64,
    /// Protocol bytes sent in the window (heartbeats excluded).
    pub bytes_in_window: u64,
    /// Messages per consensus instance (compare §5.2.1).
    pub msgs_per_instance: f64,
    /// Bytes per consensus instance (compare §5.2.2).
    pub bytes_per_instance: f64,
    /// Highest per-process CPU utilization in the window. Durability
    /// time (stable writes, snapshot encode/install) is CPU time like
    /// any other and is folded in — a `stable_write` sweep moves this
    /// number, which is how the sweep benches detect saturation.
    pub max_cpu_utilization: f64,
    /// Mean per-process CPU utilization in the window.
    pub mean_cpu_utilization: f64,
    /// Highest per-process share of the window spent on durability
    /// alone (a subset of
    /// [`max_cpu_utilization`](RunReport::max_cpu_utilization)): how
    /// much of the busiest process's time went to stable writes and
    /// snapshot encode/install. Zero under the default
    /// (free-durability) calibration.
    pub max_durability_utilization: f64,
    /// Counter deltas over the window (heartbeats included).
    pub counters: Counters,
    /// Suspicions raised by every failure detector over the whole run,
    /// warm-up and drain included: zero on a fault-free run, whose
    /// links never fall silent for a timeout.
    pub suspicions: u64,
    /// The silence budget of the whole run, warm-up and drain included:
    /// `longest_silence[src][dst]` is the longest gap between two
    /// consecutive arrivals of messages from `src` at `dst` — the
    /// longest a detector at `dst` heard nothing from a live `src`
    /// (see [`fortika_net::Cluster::longest_silence`]).
    pub longest_silence: Vec<Vec<VDur>>,
    /// Delivery-invariant audit of the whole run (present when a
    /// [`Scenario`] was attached): safety checks — uniform agreement,
    /// total order, integrity, prefix-consistency of crashed processes —
    /// over every `adeliver` from start to drain.
    pub oracle: Option<OracleReport>,
    /// The frozen event trace (present when tracing was enabled via
    /// [`ExperimentBuilder::trace`]): wire events, handler executions
    /// and per-instance lifecycle spans, ring-bounded at the configured
    /// capacity. Export with [`Trace::to_jsonl`] /
    /// [`Trace::to_chrome_json`].
    pub trace: Option<Trace>,
    /// Per-decision latency decomposition (present when tracing was
    /// enabled): each in-window early-latency sample split into
    /// queueing, transmission, CPU and durability time at the
    /// first-delivering process, with percentiles per component. The
    /// four components sum to the end-to-end window exactly (integer
    /// nanoseconds; CPU excludes durability). Samples that open before
    /// the trace ring's retained history are counted in
    /// `truncated_samples`.
    pub latency_decomposition: Option<LatencyDecomposition>,
    /// The auto-minimized reproducer (present when the oracle reported
    /// a violation on a scenario run): the attached scenario
    /// ddmin-shrunk to a locally minimal event list that still trips
    /// the same violation kind. Also written to
    /// `target/trace/violation-<kind>-seed<seed>.min.txt`.
    pub minimized_scenario: Option<Scenario>,
}
