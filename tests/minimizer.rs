//! End-to-end minimizer acceptance: the fuzz campaign finds a planted
//! protocol bug on both stacks, and ddmin shrinks the failing scenario
//! to a small fraction of its size while preserving the violation kind.
//!
//! The planted bug is the classic lost-vote recovery fault: the
//! [`FaultHooks::skip_vote_persist`] test hook acks CT round votes
//! without writing them to stable storage, so a crash-restart revives a
//! process without its lock and lets a conflicting value win. The hook
//! is compiled out of release builds, hence the file-wide
//! `debug_assertions` gate.
//!
//! All campaign seeds, violation kinds and shrink sizes asserted here
//! are deterministic replays of the derived-stream fuzzer — if a
//! protocol change shifts them, re-pin after confirming the new run by
//! hand.
//!
//! [`FaultHooks::skip_vote_persist`]: fortika::core::FaultHooks::skip_vote_persist
#![cfg(debug_assertions)]

use fortika::chaos::{
    minimize, ChaosProfile, FuzzCampaign, FuzzConfig, Scenario, ScenarioEvent, StopReason,
};
use fortika::core::workload::Workload;
use fortika::core::{
    fuzz_runner, run_fuzz_scenario, Experiment, FaultHooks, StackConfig, StackKind,
};
use fortika::net::{LinkSelector, ProcessId};
use fortika::sim::VDur;

/// How many no-op decoy events [`pad`] appends.
const PADDING: usize = 24;
/// The minimized reproducer must keep at most this fraction of the
/// padded scenario's events (ISSUE acceptance: ≤ 25 %).
const MAX_KEEP_FRACTION: f64 = 0.25;
/// And in absolute terms stay a genuinely small timeline.
const MAX_KEPT_EVENTS: usize = 6;
/// ddmin predicate-invocation budget (each is one simulator run).
const MAX_TESTS: usize = 96;

/// Aggressive crash/restart profile tuned to trip the lost-vote bug:
/// near-certain crash + restart per draw, moderate network chaos on
/// top so the conflicting round has room to happen.
fn buggy_profile() -> ChaosProfile {
    ChaosProfile {
        horizon: VDur::millis(900),
        crash_prob: 0.9,
        restart_prob: 0.9,
        recrash_prob: 0.1,
        partition_prob: 0.2,
        loss_prob: 0.3,
        dup_prob: 0.2,
        delay_prob: 0.2,
        degrade_prob: 0.1,
        slow_prob: 0.1,
        false_suspicion_prob: 0.4,
    }
}

fn buggy_stack() -> StackConfig {
    StackConfig {
        faults: FaultHooks {
            skip_vote_persist: true,
        },
        ..StackConfig::default()
    }
}

/// A campaign wide enough to flush the bug out without plateau stops.
fn hunt(kind: StackKind, campaign_seed: u64) -> fortika::chaos::CampaignReport {
    let cfg = FuzzConfig {
        batch_runs: 16,
        max_batches: 8,
        plateau_batches: usize::MAX,
        profile: buggy_profile(),
        ..FuzzConfig::new(3, campaign_seed)
    };
    FuzzCampaign::new(cfg).run(fuzz_runner(kind, 3, buggy_stack()))
}

/// Buries the real failing timeline under `PADDING` no-op decoys:
/// ×1.000 slowdowns, delay spikes and link degradations that leave the
/// simulation bit-identical, so the minimizer has plenty of irrelevant
/// events to prove it can discard.
///
/// A window sets its target to nominal when it opens *and* when it
/// closes, so a decoy inside a real window of its own family would cut
/// that window short (a ×1.000 slowdown of p1 inside a real ×3.6 one
/// ends it early). Each decoy therefore takes the first family no real
/// window occupies during its slot: slowdowns and delay spikes in
/// alternation, a degradation when both are taken.
fn pad(scenario: &Scenario) -> Scenario {
    let occupied = |family: &str, from: VDur, until: VDur| {
        scenario.events().iter().any(|ev| match *ev {
            ScenarioEvent::SlowNode {
                from: a, until: b, ..
            }
            | ScenarioEvent::Link {
                from: a, until: b, ..
            } => ev.family() == family && a <= until && b.is_none_or(|b| from <= b),
            _ => false,
        })
    };
    let mut padded = scenario.clone();
    for i in 0..PADDING {
        let from = VDur::millis(10 + 20 * i as u64);
        let until = VDur::millis(20 + 20 * i as u64);
        let link = LinkSelector::Between(ProcessId(0), ProcessId(i as u16 % 2 + 1));
        let mut families = ["slow_node", "delay_spike", "degrade_link"];
        families[..2].rotate_left(i % 2);
        let family = families.into_iter().find(|f| !occupied(f, from, until));
        padded = match family.expect("a free decoy family") {
            "slow_node" => padded.slow_node(ProcessId(i as u16 % 3), 1000, from, until),
            "delay_spike" => padded.delay_spike(link, 1000, from, until),
            _ => padded.degrade_link(link, 1000, from, until),
        };
    }
    padded
}

/// Campaign → pad → minimize, asserting every ISSUE acceptance bound.
fn hunt_and_shrink(kind: StackKind, campaign_seed: u64) {
    let report = hunt(kind, campaign_seed);
    assert_eq!(
        report.stop,
        StopReason::Violation,
        "{kind:?}: campaign seed {campaign_seed} no longer finds the planted bug \
         ({} runs)",
        report.runs
    );
    let failing = report.failure.expect("violation stop must carry the run");
    let kind_str = failing.violation.kind();

    let stack = buggy_stack();
    let padded = pad(&failing.scenario);
    let still_fails = |candidate: &Scenario| {
        run_fuzz_scenario(kind, 3, &stack, candidate, failing.seed)
            .violation
            .as_ref()
            .is_some_and(|v| v.kind() == kind_str)
    };
    assert!(
        still_fails(&padded),
        "{kind:?}: no-op padding changed the run"
    );

    let min = minimize(&padded, still_fails);
    let kept = min.events();
    let budget = (min.original_events as f64 * MAX_KEEP_FRACTION).floor() as usize;
    assert!(
        kept <= budget,
        "{kind:?}: minimized to {kept} of {} events (budget {budget})",
        min.original_events
    );
    assert!(
        kept <= MAX_KEPT_EVENTS && kept > 0,
        "{kind:?}: reproducer has {kept} events"
    );
    assert!(
        min.tests <= MAX_TESTS,
        "{kind:?}: ddmin spent {} simulator runs (budget {MAX_TESTS})",
        min.tests
    );
    // 1-minimality and faithfulness: the shrunk scenario still trips
    // the *same* violation kind on a fresh replay.
    let replay = run_fuzz_scenario(kind, 3, &stack, &min.scenario, failing.seed);
    assert_eq!(
        replay.violation.map(|v| v.kind()),
        Some(kind_str),
        "{kind:?}: minimized scenario lost the violation"
    );
}

#[test]
fn campaign_finds_and_shrinks_the_lost_vote_bug_modular() {
    hunt_and_shrink(StackKind::Modular, 2);
}

#[test]
fn campaign_finds_and_shrinks_the_lost_vote_bug_monolithic() {
    hunt_and_shrink(StackKind::Monolithic, 6);
}

/// The hook really is inert when disabled: the same campaigns against a
/// default stack find nothing.
#[test]
fn clean_stacks_survive_the_same_campaigns() {
    for (kind, seed) in [(StackKind::Modular, 2u64), (StackKind::Monolithic, 6u64)] {
        let cfg = FuzzConfig {
            batch_runs: 16,
            max_batches: 2,
            profile: buggy_profile(),
            ..FuzzConfig::new(3, seed)
        };
        let report = FuzzCampaign::new(cfg).run(fuzz_runner(kind, 3, StackConfig::default()));
        assert_ne!(
            report.stop,
            StopReason::Violation,
            "{kind:?}: clean stack failed the buggy-profile campaign"
        );
    }
}

/// The [`Experiment`] runner auto-minimizes oracle violations: a run
/// with the planted bug must come back with a shrunk reproducer in the
/// report and a `.min.txt` artifact next to the trace dumps.
#[test]
fn experiment_runs_auto_minimize_their_violations() {
    let scenario = Scenario::random(3, 33, &buggy_profile());
    let original = scenario.events().len();
    let mut exp = Experiment::builder(StackKind::Monolithic, 3)
        .workload(Workload::constant_rate(300.0, 256))
        .seed(33)
        .warmup_secs(0.1)
        .measure_secs(0.9)
        .stack_config(buggy_stack())
        .scenario(scenario)
        .build();
    let report = exp.run();
    let oracle = report.oracle.as_ref().expect("scenario attached");
    assert!(
        !oracle.is_ok(),
        "seed 33 no longer trips the planted bug through the experiment path"
    );
    let min = report
        .minimized_scenario
        .as_ref()
        .expect("violating run must carry a minimized scenario");
    assert!(
        min.events().len() < original,
        "auto-minimize kept all {original} events"
    );
    let artifact = std::path::Path::new("target/trace/violation-monolithic-seed33.min.txt");
    assert!(
        artifact.exists(),
        "missing reproducer artifact {}",
        artifact.display()
    );
    let body = std::fs::read_to_string(artifact).expect("artifact readable");
    assert!(body.contains("seed: 33"), "artifact lacks the seed line");
}
