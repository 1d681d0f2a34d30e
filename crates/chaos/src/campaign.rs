//! Feedback-directed fuzz campaigns: generate, run, fold coverage,
//! re-steer.
//!
//! [`FuzzCampaign`] closes the loop that [`CoverageReport`] opened:
//! instead of drawing every scenario from a fixed [`ChaosProfile`], it
//! runs scenarios in batches, folds each run's counters *and scenario*
//! into the co-occurrence matrix, and re-steers the profile between
//! batches ([`ChaosProfile::steered`]) so later batches lean toward
//! the family × branch cells no earlier run witnessed. It stops on the
//! first oracle violation, on a coverage plateau (no new cells for a
//! configurable number of batches), or when the run budget is spent.
//!
//! The campaign is generic over *how* a scenario is executed: it hands
//! each generated scenario plus a per-run seed to a caller-supplied
//! runner closure and gets back counters and an optional
//! [`Violation`]. `fortika-core` provides the standard cluster-backed
//! runner (`fuzz_runner`); tests can substitute anything deterministic.
//!
//! Reproducibility: per-run seeds come from one derived RNG stream of
//! the campaign seed, drawn identically whether steering is on or off
//! — so a steered and an unsteered campaign with the same seed and
//! budget differ *only* in the scenarios those seeds expand to, which
//! is exactly what an equal-budget coverage comparison wants. Every
//! failure is reported with its per-run seed: `Scenario::random(n,
//! seed, profile)` at that batch's profile regenerates it, and the
//! seed doubles as the cluster seed for a bit-for-bit replay.

use fortika_net::Counters;
use fortika_sim::DetRng;

use crate::coverage::CoverageReport;
use crate::oracle::Violation;
use crate::scenario::{ChaosProfile, Scenario};

/// Budget and steering knobs of a [`FuzzCampaign`].
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Group size every generated scenario targets.
    pub n: usize,
    /// Campaign seed: the single root of every per-run seed.
    pub seed: u64,
    /// Scenarios per batch (steering is recomputed between batches).
    pub batch_runs: usize,
    /// Upper bound on batches (total budget = `batch_runs ×
    /// max_batches` runs).
    pub max_batches: usize,
    /// Stop after this many consecutive batches that reach no new
    /// matrix cell.
    pub plateau_batches: usize,
    /// The base generation profile (also the fixed profile when
    /// steering is off).
    pub profile: ChaosProfile,
    /// Re-steer the profile from accumulated coverage between batches;
    /// `false` runs the whole budget at the base profile.
    pub steer: bool,
}

impl FuzzConfig {
    /// A small default campaign over a group of `n`: 6 batches of 8
    /// runs, plateau after 2 flat batches, steering on, default
    /// profile.
    pub fn new(n: usize, seed: u64) -> Self {
        FuzzConfig {
            n,
            seed,
            batch_runs: 8,
            max_batches: 6,
            plateau_batches: 2,
            profile: ChaosProfile::default(),
            steer: true,
        }
    }
}

/// What one scenario execution reports back to the campaign.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The run's final cluster counters (folded into the coverage
    /// matrix).
    pub counters: Counters,
    /// The first oracle violation, if the run failed.
    pub violation: Option<Violation>,
}

/// Why a campaign stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// A run tripped the oracle ([`CampaignReport::failure`] is set).
    Violation,
    /// No new matrix cell for [`FuzzConfig::plateau_batches`] batches.
    Plateau,
    /// The full `batch_runs × max_batches` budget ran clean.
    BudgetExhausted,
}

/// A failing run: everything needed to replay and shrink it.
#[derive(Debug, Clone)]
pub struct FailingRun {
    /// The generated scenario that tripped the oracle.
    pub scenario: Scenario,
    /// Its per-run seed (scenario generation *and* cluster seed).
    pub seed: u64,
    /// The violation the oracle reported.
    pub violation: Violation,
}

/// The outcome of [`FuzzCampaign::run`].
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Accumulated event-level coverage of every executed run.
    pub coverage: CoverageReport,
    /// Scenarios executed.
    pub runs: usize,
    /// Batches completed (a batch interrupted by a violation counts).
    pub batches: usize,
    /// Why the campaign stopped.
    pub stop: StopReason,
    /// The failing run, when [`StopReason::Violation`].
    pub failure: Option<FailingRun>,
}

/// The batch loop: draw a batch of scenarios, execute them through the
/// runner closure, fold coverage, re-steer the profile, repeat until a
/// violation, a coverage plateau, or the batch budget ends.
///
/// # Example (synthetic runner)
///
/// ```
/// use fortika_chaos::{FuzzCampaign, FuzzConfig, RunOutcome, StopReason};
/// use fortika_net::metrics::mono;
/// use fortika_net::Counters;
///
/// let report = FuzzCampaign::new(FuzzConfig::new(4, 7)).run(|scenario, _seed| {
///     let mut counters = Counters::new();
///     // A fake "protocol" that only round-changes under crashes.
///     if scenario.families().contains(&"crash") {
///         counters.bump(mono::ROUND_CHANGES, 1);
///     }
///     RunOutcome { counters, violation: None }
/// });
/// assert!(report.runs > 0);
/// assert_ne!(report.stop, StopReason::Violation);
/// ```
#[derive(Debug, Clone)]
pub struct FuzzCampaign {
    cfg: FuzzConfig,
}

impl FuzzCampaign {
    /// Builds a campaign over `cfg`.
    pub fn new(cfg: FuzzConfig) -> Self {
        assert!(cfg.n >= 2, "chaos needs at least two processes");
        assert!(cfg.batch_runs > 0, "batches must contain runs");
        FuzzCampaign { cfg }
    }

    /// Runs the campaign: `runner` executes one `(scenario, seed)`
    /// pair — deterministically, so failures replay — and the campaign
    /// folds, steers and stops as configured.
    pub fn run(self, mut runner: impl FnMut(&Scenario, u64) -> RunOutcome) -> CampaignReport {
        let cfg = self.cfg;
        // One derived stream yields every per-run seed, independent of
        // steering decisions: equal budgets consume equal seeds.
        let mut seeds = DetRng::derive(cfg.seed, 0xFC27);
        let mut coverage = CoverageReport::new();
        let mut runs = 0usize;
        let mut batches = 0usize;
        let mut best_cells = 0usize;
        let mut flat_batches = 0usize;

        for _ in 0..cfg.max_batches {
            let profile = if cfg.steer {
                cfg.profile.steered(&coverage)
            } else {
                cfg.profile.clone()
            };
            batches += 1;
            for _ in 0..cfg.batch_runs {
                let seed = seeds.next_u64();
                let scenario = Scenario::random(cfg.n, seed, &profile);
                let outcome = runner(&scenario, seed);
                coverage.absorb_with_scenario(&outcome.counters, &scenario);
                runs += 1;
                if let Some(violation) = outcome.violation {
                    return CampaignReport {
                        coverage,
                        runs,
                        batches,
                        stop: StopReason::Violation,
                        failure: Some(FailingRun {
                            scenario,
                            seed,
                            violation,
                        }),
                    };
                }
            }
            let cells = coverage.reached_cells().len();
            if cells > best_cells {
                best_cells = cells;
                flat_batches = 0;
            } else {
                flat_batches += 1;
                if flat_batches >= cfg.plateau_batches {
                    return CampaignReport {
                        coverage,
                        runs,
                        batches,
                        stop: StopReason::Plateau,
                        failure: None,
                    };
                }
            }
        }
        CampaignReport {
            coverage,
            runs,
            batches,
            stop: StopReason::BudgetExhausted,
            failure: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioEvent;
    use fortika_net::metrics::{abcast, consensus, mono};
    use fortika_net::{MsgId, ProcessId};

    /// A synthetic protocol: which branches "fire" is a pure function
    /// of the scenario's families, so campaigns are fully
    /// deterministic without a cluster.
    fn synthetic(scenario: &Scenario) -> Counters {
        let mut counters = Counters::new();
        for family in scenario.families() {
            match family {
                "crash" => counters.bump(mono::ROUND_CHANGES, 1),
                "restart" => counters.bump(consensus::JOIN_REQUESTS, 1),
                "partition" => counters.bump(consensus::GAP_REQUESTS, 1),
                "lossy" => counters.bump(abcast::RETRANSMITS, 1),
                "duplicate" => counters.bump(consensus::TAG_MISSES, 1),
                "pipelined" => counters.bump(abcast::PIPELINED_PROPOSALS, 1),
                _ => {}
            }
        }
        counters
    }

    #[test]
    fn campaigns_replay_bit_for_bit() {
        let run = || {
            FuzzCampaign::new(FuzzConfig::new(4, 42)).run(|s, _| RunOutcome {
                counters: synthetic(s),
                violation: None,
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.stop, b.stop);
        assert_eq!(a.coverage.to_json(), b.coverage.to_json());
    }

    #[test]
    fn steering_consumes_the_same_seed_sequence() {
        // Steered and unsteered campaigns over the same seed must hand
        // the runner the same per-run seeds in the same order — only
        // the scenarios those seeds expand to may differ.
        let seeds_of = |steer: bool| {
            let mut seen = Vec::new();
            let cfg = FuzzConfig {
                steer,
                plateau_batches: usize::MAX, // run the full budget
                ..FuzzConfig::new(4, 9)
            };
            FuzzCampaign::new(cfg).run(|s, seed| {
                seen.push(seed);
                RunOutcome {
                    counters: synthetic(s),
                    violation: None,
                }
            });
            seen
        };
        assert_eq!(seeds_of(true), seeds_of(false));
    }

    #[test]
    fn violation_stops_the_campaign_and_reports_the_run() {
        let mut executed = 0usize;
        let report = FuzzCampaign::new(FuzzConfig::new(4, 3)).run(|s, _| {
            executed += 1;
            let violation = s
                .events()
                .iter()
                .any(|ev| matches!(ev, ScenarioEvent::Crash { .. }))
                .then(|| Violation::DuplicateDelivery {
                    process: ProcessId(0),
                    id: MsgId::new(ProcessId(0), 1),
                });
            RunOutcome {
                counters: synthetic(s),
                violation,
            }
        });
        assert_eq!(report.stop, StopReason::Violation);
        let failure = report.failure.expect("failing run recorded");
        assert_eq!(failure.violation.kind(), "DuplicateDelivery");
        assert!(!failure.scenario.crashed().is_empty() || !failure.scenario.restarted().is_empty());
        assert_eq!(report.runs, executed, "stops at the failing run");
        assert!(report.runs < 48, "did not run the whole budget");
    }

    #[test]
    fn flat_coverage_plateaus_early() {
        // A runner that never reaches anything: after plateau_batches
        // flat batches the campaign stops without spending the budget.
        let cfg = FuzzConfig {
            plateau_batches: 2,
            max_batches: 10,
            ..FuzzConfig::new(4, 1)
        };
        let report = FuzzCampaign::new(cfg).run(|_, _| RunOutcome {
            counters: Counters::new(),
            violation: None,
        });
        assert_eq!(report.stop, StopReason::Plateau);
        assert_eq!(report.batches, 2);
        assert_eq!(report.runs, 16);
    }

    #[test]
    fn steering_boosts_profiles_between_batches() {
        // After one batch the synthetic protocol has covered a few
        // cells for the families that appeared; the steered profile
        // must boost-only relative to the base and stay within caps.
        let mut coverage = CoverageReport::new();
        let base = ChaosProfile::default();
        for seed in 0..8u64 {
            let s = Scenario::random(4, seed, &base);
            coverage.absorb_with_scenario(&synthetic(&s), &s);
        }
        let steered = base.steered(&coverage);
        for (steered_p, base_p) in [
            (steered.crash_prob, base.crash_prob),
            (steered.partition_prob, base.partition_prob),
            (steered.loss_prob, base.loss_prob),
            (steered.dup_prob, base.dup_prob),
            (steered.delay_prob, base.delay_prob),
            (steered.degrade_prob, base.degrade_prob),
            (steered.slow_prob, base.slow_prob),
            (steered.false_suspicion_prob, base.false_suspicion_prob),
        ] {
            assert!(steered_p >= base_p, "steering must not lower a knob");
            assert!(steered_p <= 0.9 + 1e-12, "steering cap exceeded");
        }
        // Disabled families stay disabled.
        let quiet = ChaosProfile {
            crash_prob: 0.0,
            ..base.clone()
        };
        assert_eq!(quiet.steered(&coverage).crash_prob, 0.0);
        // Empty report: identity.
        let empty = CoverageReport::new();
        assert_eq!(format!("{:?}", base.steered(&empty)), format!("{base:?}"));
    }
}
