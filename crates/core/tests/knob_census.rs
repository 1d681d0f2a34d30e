//! The knob census: every field of `NetModel`, `CostModel`,
//! `StackConfig` and `ChaosProfile` has a row in the "Knob census"
//! table of `docs/COST_MODEL.md`, naming what gives it a second value.
//!
//! Each struct is destructured without `..`, so adding a field fails to
//! compile here until it is listed; listing it fails the test until the
//! table has its row. A row whose field is gone fails too.

use std::collections::BTreeSet;

use fortika_chaos::ChaosProfile;
use fortika_core::StackConfig;
use fortika_net::{CostModel, NetModel};

const DOC: &str = include_str!("../../../docs/COST_MODEL.md");

/// Destructures `$value` as `$ty` naming every field, and returns the
/// fields as `Type::field`. A field's attributes apply to the pattern
/// only: a `cfg`-gated field is listed in every build.
macro_rules! knobs {
    ($ty:ident = $value:expr; $($(#[$attr:meta])* $field:ident),+ $(,)?) => {{
        let $ty { $($(#[$attr])* $field: _),+ } = $value;
        vec![$(concat!(stringify!($ty), "::", stringify!($field))),+]
    }};
}

fn listed() -> Vec<&'static str> {
    let mut all = knobs!(NetModel = NetModel::default();
        bandwidth_bytes_per_sec, prop_delay, jitter, per_msg_overhead,
    );
    all.extend(knobs!(CostModel = CostModel::default();
        send_fixed, send_per_kib, recv_fixed, recv_per_kib, dispatch, timer_fixed,
        request_fixed, deliver_fixed, deliver_per_kib, stable_write, snapshot_per_kib,
    ));
    all.extend(knobs!(StackConfig = StackConfig::default();
        window, mono_opts, snapshot_interval, decision_cache, pipeline_depth,
        app_state, initial_members,
        #[cfg(debug_assertions)]
        faults,
    ));
    all.extend(knobs!(ChaosProfile = ChaosProfile::default();
        horizon, crash_prob, restart_prob, recrash_prob, partition_prob, loss_prob,
        dup_prob, delay_prob, degrade_prob, slow_prob, false_suspicion_prob,
        add_node_prob, remove_node_prob,
    ));
    all
}

/// The knob names in the first column of the census table.
fn rows() -> BTreeSet<&'static str> {
    let (_, section) = DOC
        .split_once("## Knob census")
        .expect("docs/COST_MODEL.md has a \"Knob census\" section");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split_once("` |"))
        .map(|(knob, _)| knob)
        .collect()
}

#[test]
fn every_knob_has_a_census_row_and_every_row_a_knob() {
    let listed = listed();
    let unique: BTreeSet<&str> = listed.iter().copied().collect();
    assert_eq!(unique.len(), listed.len(), "a knob is listed twice");
    let rows = rows();
    let missing: Vec<_> = unique.difference(&rows).collect();
    assert!(missing.is_empty(), "no census row for {missing:?}");
    let stale: Vec<_> = rows.difference(&unique).collect();
    assert!(stale.is_empty(), "census rows for no field: {stale:?}");
}
