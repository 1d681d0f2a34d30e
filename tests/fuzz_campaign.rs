//! Coverage steering earns its keep: under an equal run budget, the
//! steered campaign must reach protocol branches the unsteered one
//! misses.
//!
//! The baseline profile is deliberately *thin* — low fault
//! probabilities, so unsteered draws mostly exercise the happy path.
//! Steering reads the co-occurrence matrix after each batch and boosts
//! exactly the fault families whose rows stay empty; with the same
//! number of runs it must widen the reached (family × branch) cell set
//! on both stacks. Everything is fixed-seed, so the gains asserted here
//! are exact replays, not statistics.

use std::collections::BTreeSet;

use fortika::chaos::{ChaosProfile, FuzzCampaign, FuzzConfig, StopReason};
use fortika::core::{fuzz_runner, StackConfig, StackKind};
use fortika::sim::VDur;

/// A mostly-quiet profile: crashes are rare, every other fault family
/// sits at 10 %. Unsteered campaigns under this profile leave large
/// parts of the matrix dark — exactly the situation steering targets.
fn thin_profile() -> ChaosProfile {
    ChaosProfile {
        horizon: VDur::millis(800),
        crash_prob: 0.15,
        restart_prob: 0.5,
        recrash_prob: 0.1,
        partition_prob: 0.1,
        loss_prob: 0.1,
        dup_prob: 0.1,
        delay_prob: 0.1,
        degrade_prob: 0.1,
        slow_prob: 0.1,
        false_suspicion_prob: 0.1,
    }
}

/// One campaign: 6 batches of 8 runs, plateau stop disabled so both
/// variants consume the identical 48-run budget.
fn campaign(steer: bool) -> FuzzConfig {
    FuzzConfig {
        batch_runs: 8,
        max_batches: 6,
        plateau_batches: usize::MAX,
        profile: thin_profile(),
        steer,
        ..FuzzConfig::new(3, 0)
    }
}

fn reached(report: &fortika::chaos::CampaignReport) -> BTreeSet<(&'static str, &'static str)> {
    report.coverage.reached_cells().into_iter().collect()
}

fn assert_steering_gains(kind: StackKind, min_gain: usize) {
    let steered =
        FuzzCampaign::new(campaign(true)).run(fuzz_runner(kind, 3, StackConfig::default()));
    let unsteered =
        FuzzCampaign::new(campaign(false)).run(fuzz_runner(kind, 3, StackConfig::default()));

    // Neither campaign may find a bug (the stacks are correct), and the
    // comparison is only fair on an equal budget.
    assert_ne!(steered.stop, StopReason::Violation, "{kind:?} steered");
    assert_ne!(unsteered.stop, StopReason::Violation, "{kind:?} unsteered");
    assert_eq!(steered.runs, unsteered.runs, "{kind:?}: unequal budgets");
    assert_eq!(steered.runs, 48, "{kind:?}: plateau stop fired");

    let with = reached(&steered);
    let without = reached(&unsteered);
    let gained: Vec<_> = with.difference(&without).collect();
    assert!(
        gained.len() >= min_gain,
        "{kind:?}: steering gained only {} cells over unsteered \
         (steered {} vs unsteered {}): {gained:?}",
        gained.len(),
        with.len(),
        without.len(),
    );
}

#[test]
fn steering_reaches_cells_the_unsteered_campaign_misses_modular() {
    assert_steering_gains(StackKind::Modular, 10);
}

#[test]
fn steering_reaches_cells_the_unsteered_campaign_misses_monolithic() {
    assert_steering_gains(StackKind::Monolithic, 10);
}

#[test]
fn campaign_reports_replay_bit_for_bit_on_a_real_cluster() {
    let runner = || fuzz_runner(StackKind::Monolithic, 3, StackConfig::default());
    let cfg = FuzzConfig {
        batch_runs: 4,
        max_batches: 2,
        profile: thin_profile(),
        ..FuzzConfig::new(3, 7)
    };
    let a = FuzzCampaign::new(cfg.clone()).run(runner());
    let b = FuzzCampaign::new(cfg).run(runner());
    assert_eq!(a.runs, b.runs);
    assert_eq!(a.stop, b.stop);
    assert_eq!(a.coverage.to_json(), b.coverage.to_json());
}
