//! The coverage matrix JSON round-trips through `fortika_trace::json`.
//!
//! CI archives `CoverageReport::to_json` artifacts; this locks the
//! serialization to something the workspace's own parser (the one
//! `probe` uses to self-verify committed bench JSON) actually accepts,
//! and that every branch, family and matrix cell survives the trip.

use fortika_chaos::{ChaosProfile, CoverageReport, Scenario};
use fortika_net::metrics::{abcast, consensus, mono};
use fortika_net::Counters;
use fortika_trace::json;

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

/// The bytes of the campaign fixture's matrix, pinned whole: the
/// `contains` checks above and in the unit tests see only fragments.
const CAMPAIGN_GOLDEN: &str = r#"{
  "runs": 10,
  "branches": {
    "round_changes": {"events": 45, "runs_reached": 8},
    "progress_rotations": {"events": 0, "runs_reached": 0},
    "promises": {"events": 0, "runs_reached": 0},
    "direct_proposals": {"events": 0, "runs_reached": 0},
    "gap_pulls": {"events": 0, "runs_reached": 0},
    "tag_misses": {"events": 0, "runs_reached": 0},
    "state_transfers": {"events": 8, "runs_reached": 8},
    "snapshot_offers": {"events": 0, "runs_reached": 0},
    "snapshot_installs": {"events": 0, "runs_reached": 0},
    "join_requests": {"events": 0, "runs_reached": 0},
    "rejoins_completed": {"events": 0, "runs_reached": 0},
    "idle_proposals": {"events": 0, "runs_reached": 0},
    "pipelined_proposals": {"events": 29, "runs_reached": 6},
    "sender_retransmits": {"events": 0, "runs_reached": 0},
    "stale_incarnation_drops": {"events": 0, "runs_reached": 0}
  },
  "families": {
    "crash": {"runs": 8, "cells": {"round_changes": 8, "state_transfers": 8, "pipelined_proposals": 5}},
    "restart": {"runs": 2, "cells": {"round_changes": 2, "state_transfers": 2, "pipelined_proposals": 1}},
    "partition": {"runs": 6, "cells": {"round_changes": 5, "state_transfers": 5, "pipelined_proposals": 4}},
    "lossy": {"runs": 4, "cells": {"round_changes": 3, "state_transfers": 3, "pipelined_proposals": 2}},
    "duplicate": {"runs": 3, "cells": {"round_changes": 2, "state_transfers": 2, "pipelined_proposals": 2}},
    "delay_spike": {"runs": 5, "cells": {"round_changes": 4, "state_transfers": 4, "pipelined_proposals": 4}},
    "degrade_link": {"runs": 3, "cells": {"round_changes": 2, "state_transfers": 2, "pipelined_proposals": 2}},
    "slow_node": {"runs": 4, "cells": {"round_changes": 4, "state_transfers": 4, "pipelined_proposals": 2}},
    "false_suspicion": {"runs": 4, "cells": {"round_changes": 3, "state_transfers": 3, "pipelined_proposals": 3}},
    "pipelined": {"runs": 7, "cells": {"round_changes": 6, "state_transfers": 6, "pipelined_proposals": 6}}
  },
  "missed": ["progress_rotations", "promises", "direct_proposals", "gap_pulls", "tag_misses", "snapshot_offers", "snapshot_installs", "join_requests", "rejoins_completed", "idle_proposals", "sender_retransmits", "stale_incarnation_drops"]
}
"#;

#[test]
fn coverage_json_golden() {
    assert_eq!(campaign_report().to_json(), CAMPAIGN_GOLDEN);
}
