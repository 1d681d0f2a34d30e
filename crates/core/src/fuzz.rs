//! The cluster-backed runner for [`FuzzCampaign`]s.
//!
//! `fortika-chaos` keeps its campaign driver runner-agnostic (the
//! layering forbids it from depending on this crate), so the standard
//! execution lives here, on top of [`run_scripted`] like every other
//! scripted run: [`run_fuzz_scenario`] executes one generated
//! `(scenario, seed)` pair on a real stack, and [`fuzz_runner`]
//! packages it as the closure [`FuzzCampaign::run`] expects.
//!
//! Runs are safety-audited (uniform agreement, total order, integrity,
//! prefix consistency, replay/snapshot obligations) but not
//! validity-audited: a steered campaign deliberately draws loss and
//! partition windows, under which demanding full delivery would be
//! unfair. The drain is sized past the scenario horizon so late
//! recovery still happens inside the audited window, while keeping
//! per-run cost low enough for multi-batch campaigns in debug builds.
//!
//! [`FuzzCampaign`]: fortika_chaos::FuzzCampaign
//! [`FuzzCampaign::run`]: fortika_chaos::FuzzCampaign::run

use fortika_chaos::{LoadPlan, RunOutcome, Scenario};
use fortika_net::ClusterConfig;
use fortika_sim::{VDur, VTime};

use crate::stack::{run_scripted, StackConfig, StackKind};

/// Messages each fuzz run's load plan submits.
const FUZZ_LOAD_MSGS: usize = 16;
/// Payload-size cap of fuzz-load messages (bytes).
const FUZZ_LOAD_MAX_SIZE: usize = 512;
/// Post-horizon drain: room for suspicion timeouts, round changes and
/// recovery to finish inside the audited window.
const FUZZ_DRAIN: VDur = VDur::secs(2);

/// Executes one generated scenario on a real cluster of `n` `kind`
/// stacks and reports the campaign outcome: the run's final protocol
/// counters plus the first safety violation, if any.
///
/// `seed` seeds the cluster *and* the load plan, and is the same value
/// the campaign derived the scenario from — so one `u64` replays the
/// whole run bit for bit.
pub fn run_fuzz_scenario(
    kind: StackKind,
    n: usize,
    stack: &StackConfig,
    scenario: &Scenario,
    seed: u64,
) -> RunOutcome {
    let horizon = scenario.horizon().max(VDur::millis(200));
    let plan = LoadPlan::random(n, seed, FUZZ_LOAD_MSGS, horizon, FUZZ_LOAD_MAX_SIZE);
    let (cluster, driver) = run_scripted(
        kind,
        stack,
        ClusterConfig::new(n, seed),
        scenario,
        plan,
        VTime::ZERO + horizon + FUZZ_DRAIN,
    );

    let report = driver.oracle().check(&scenario.correct(cluster.n()));
    RunOutcome {
        counters: cluster.counters().clone(),
        violation: report.violations.first().cloned(),
    }
}

/// A [`run_fuzz_scenario`] closure over a fixed `(kind, n, stack)` —
/// plug it straight into [`FuzzCampaign::run`]:
///
/// ```
/// use fortika_chaos::{ChaosProfile, FuzzCampaign, FuzzConfig, StopReason};
/// use fortika_core::fuzz::fuzz_runner;
/// use fortika_core::{StackConfig, StackKind};
/// use fortika_sim::VDur;
///
/// let cfg = FuzzConfig {
///     batch_runs: 2,
///     max_batches: 2,
///     profile: ChaosProfile {
///         horizon: VDur::millis(300),
///         ..ChaosProfile::network_only()
///     },
///     ..FuzzConfig::new(3, 11)
/// };
/// let report = FuzzCampaign::new(cfg)
///     .run(fuzz_runner(StackKind::Monolithic, 3, StackConfig::default()));
/// assert_ne!(report.stop, StopReason::Violation, "both stacks are correct");
/// assert!(report.coverage.runs() > 0);
/// ```
///
/// [`FuzzCampaign::run`]: fortika_chaos::FuzzCampaign::run
pub fn fuzz_runner(
    kind: StackKind,
    n: usize,
    stack: StackConfig,
) -> impl FnMut(&Scenario, u64) -> RunOutcome {
    move |scenario, seed| run_fuzz_scenario(kind, n, &stack, scenario, seed)
}
