//! The fuzz gate, and coverage steering earning its keep.
//!
//! The gate: one bounded steered campaign per stack (64 runs) must find
//! no safety violation and reach every branch of [`WITNESSED`]. Each
//! campaign writes its coverage matrix to
//! `target/fuzz/coverage-matrix-<stack>.json`; a violation ddmin-shrinks
//! the failing scenario and writes the minimized reproducer next to it
//! (`docs/FUZZING.md`, "Reading a reproducer").
//!
//! Steering: under an equal run budget, the steered campaign must reach
//! protocol branches the unsteered one misses. The baseline profile is
//! deliberately *thin* — low fault probabilities, so unsteered draws
//! mostly exercise the happy path. Steering reads the co-occurrence
//! matrix after each batch and boosts exactly the fault families whose
//! rows stay empty; with the same number of runs it must widen the
//! reached (family × branch) cell set on both stacks. Everything is
//! fixed-seed, so the gains asserted here are exact replays, not
//! statistics.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use fortika::chaos::{minimize, ChaosProfile, FuzzCampaign, FuzzConfig, StopReason};
use fortika::core::{fuzz_runner, run_fuzz_scenario, StackConfig, StackKind};
use fortika::sim::VDur;

/// The branches every gate campaign must reach: the own-message resend,
/// and catch-up — a pull on a sighting, the state transfer that answers
/// it, and a rejoin that reaches its frontier. A path no run exercises
/// is audited by nobody.
const WITNESSED: [&str; 4] = [
    "sender_retransmits",
    "gap_pulls",
    "state_transfers",
    "rejoins_completed",
];

/// Where the gate writes its coverage matrices and reproducers.
fn fuzz_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target/fuzz")
}

/// The gate's campaign: 8 batches of 8 runs over n = 3 from seed 42,
/// no plateau stop, steered from the default profile with crashes,
/// restarts, partitions and loss raised to the steering cap (0.9).
/// Those are the families that leave a process behind — a live one
/// that must pull, a restarted one that must rejoin — so every branch
/// of [`WITNESSED`] is reached in dozens of runs rather than a handful
/// (in at least 10 on each of campaign seeds 0–47 when this was set),
/// and a change to the seed stream does not leave one dark by chance.
fn gate_config() -> FuzzConfig {
    FuzzConfig {
        max_batches: 8,
        plateau_batches: usize::MAX,
        profile: ChaosProfile {
            crash_prob: 0.9,
            restart_prob: 0.9,
            partition_prob: 0.9,
            loss_prob: 0.9,
            ..ChaosProfile::default()
        },
        ..FuzzConfig::new(3, 42)
    }
}

fn assert_gate_holds(kind: StackKind) {
    let stack = StackConfig::default();
    let label = kind.label();
    let report = FuzzCampaign::new(gate_config()).run(fuzz_runner(kind, 3, stack.clone()));
    let matrix = fuzz_dir().join(format!("coverage-matrix-{label}.json"));
    report
        .coverage
        .write_json(&matrix)
        .expect("write the coverage matrix");

    if let Some(failing) = report.failure {
        let kind_str = failing.violation.kind();
        let min = minimize(&failing.scenario, |candidate| {
            run_fuzz_scenario(kind, 3, &stack, candidate, failing.seed)
                .violation
                .as_ref()
                .is_some_and(|v| v.kind() == kind_str)
        });
        let repro = fuzz_dir().join(format!("violation-{label}-seed{}.min.txt", failing.seed));
        let body = format!(
            "stack: {label}\nn: 3\nseed: {}\nviolation: {}\nevents: {} (of {})\n\
             scenario: {:#?}\n",
            failing.seed,
            failing.violation,
            min.events(),
            min.original_events,
            min.scenario,
        );
        std::fs::write(&repro, body).expect("write the reproducer");
        panic!(
            "{label}: safety violation {kind_str} at seed {} — minimized reproducer \
             ({} of {} events) written to {}",
            failing.seed,
            min.events(),
            min.original_events,
            repro.display(),
        );
    }
    let missed: Vec<_> = WITNESSED
        .iter()
        .filter(|b| !report.coverage.reached(b))
        .collect();
    assert!(
        missed.is_empty(),
        "{label}: no run of the gate campaign reached {missed:?} (matrix: {})",
        matrix.display()
    );
}

#[test]
fn fuzz_gate_finds_no_violation_and_witnesses_every_branch_monolithic() {
    assert_gate_holds(StackKind::Monolithic);
}

#[test]
fn fuzz_gate_finds_no_violation_and_witnesses_every_branch_modular() {
    assert_gate_holds(StackKind::Modular);
}

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
