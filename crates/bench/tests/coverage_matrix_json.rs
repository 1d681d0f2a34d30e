//! The coverage matrix JSON round-trips through `fortika_bench::json`.
//!
//! CI archives `CoverageReport::to_json` artifacts; this locks the
//! serialization to something the workspace's own parser (the one
//! `probe` uses to self-verify committed bench JSON) actually accepts,
//! and that every branch, family and matrix cell survives the trip.

use fortika_bench::json;
use fortika_chaos::{ChaosProfile, CoverageReport, Scenario};
use fortika_net::metrics::{abcast, consensus, mono};
use fortika_net::Counters;

fn campaign_report() -> CoverageReport {
    let mut report = CoverageReport::new();
    for seed in 0..10u64 {
        let scenario = Scenario::random(4, seed, &ChaosProfile::default());
        let mut counters = Counters::new();
        if scenario.families().contains(&"crash") {
            counters.bump(mono::ROUND_CHANGES, 1 + seed);
            counters.bump(consensus::STATE_TRANSFERS, 1);
        }
        if scenario.pipeline_depth() > 1 {
            counters.bump(abcast::PIPELINED_PROPOSALS, seed);
        }
        report.absorb_with_scenario(&counters, &scenario);
    }
    report
}

#[test]
fn coverage_json_parses_and_preserves_every_field() {
    let report = campaign_report();
    let parsed = json::parse(&report.to_json()).expect("coverage JSON must parse");

    assert_eq!(
        parsed.get("runs").and_then(|v| v.as_f64()),
        Some(report.runs() as f64)
    );

    // Every tracked branch appears with its exact totals.
    let branches = parsed.get("branches").expect("branches object");
    for name in CoverageReport::branch_names() {
        let b = branches
            .get(name)
            .unwrap_or_else(|| panic!("branch {name}"));
        assert_eq!(
            b.get("events").and_then(|v| v.as_f64()),
            Some(report.total(name) as f64),
            "branch {name} events"
        );
    }

    // Every family appears with its run count and exactly the non-zero
    // cells the in-memory matrix holds.
    let families = parsed.get("families").expect("families object");
    for family in CoverageReport::family_names() {
        let f = families
            .get(family)
            .unwrap_or_else(|| panic!("family {family}"));
        assert_eq!(
            f.get("runs").and_then(|v| v.as_f64()),
            Some(report.family_runs(family) as f64),
            "family {family} runs"
        );
        let cells = f.get("cells").expect("cells object");
        for branch in CoverageReport::branch_names() {
            let expected = report.cell(family, branch);
            let got = cells.get(branch).and_then(|v| v.as_f64());
            if expected > 0 {
                assert_eq!(got, Some(expected as f64), "cell {family}/{branch}");
            } else {
                assert_eq!(got, None, "zero cell {family}/{branch} serialized");
            }
        }
    }

    // The missed list round-trips as strings.
    let missed: Vec<&str> = parsed
        .get("missed")
        .and_then(|v| v.as_array())
        .expect("missed array")
        .iter()
        .filter_map(|v| v.as_str())
        .collect();
    assert_eq!(missed, report.missed());

    // Determinism: same report, same bytes.
    assert_eq!(report.to_json(), campaign_report().to_json());
}

#[test]
fn empty_report_round_trips_too() {
    let empty = CoverageReport::new();
    let parsed = json::parse(&empty.to_json()).expect("empty coverage JSON must parse");
    assert_eq!(parsed.get("runs").and_then(|v| v.as_f64()), Some(0.0));
    let missed = parsed
        .get("missed")
        .and_then(|v| v.as_array())
        .expect("missed array");
    assert_eq!(missed.len(), CoverageReport::branch_names().len());
}
