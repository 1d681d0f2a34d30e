//! The whole measuring path on the `--quick` (two-virtual-second)
//! variants: every workload passes the correctness gate and reports
//! every metric, and the pairs behave as designed.

#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use std::time::Instant;

use fortika_benchmark::measure::{end_to_end, per_layer};
use fortika_benchmark::metrics::{END_TO_END, PER_LAYER};
use fortika_benchmark::workloads;

#[test]
fn every_workload_passes_the_gate_and_reports_every_end_to_end_metric() {
    for spec in workloads::all() {
        let run = end_to_end(&spec.clone().quick(), 7, 0.0, true, Instant::now());
        assert!(run.gate.correct(), "{}: {:?}", spec.name, run.gate.problems);
        assert_eq!(run.gate.failed, 0);
        assert!(run.gate.attempted > 0);
        assert_eq!(run.reps, 1);
        assert!(run.latency_samples > 0);
        let names: Vec<_> = run.metrics.iter().map(|(n, _)| *n).collect();
        let expected: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        for (name, s) in &run.metrics {
            assert!(
                s.median.is_finite() && s.median > 0.0,
                "{} {name} is {}: end-to-end metrics are never 0",
                spec.name,
                s.median
            );
        }
    }
}

#[test]
fn per_layer_metrics_are_complete_and_absent_layers_read_zero() {
    let value = |metrics: &[(&'static str, f64)], name: &str| {
        metrics
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .1
    };
    for name in [
        "modular-steady-1k",
        "mono-crash-1k",
        "modular-steady-1k-tracing",
    ] {
        let spec = workloads::by_name(name).unwrap().quick();
        let run = per_layer(&spec, 11, 0.0, true, None);
        assert!(run.gate.correct(), "{name}: {:?}", run.gate.problems);
        assert_eq!(run.metrics.len(), PER_LAYER.len());
        assert!(
            run.metrics.iter().all(|(_, v)| v.is_finite()),
            "{name}: {:?}",
            run.metrics
        );
        assert!(!run.spans.spans().is_empty());
        let m = &run.metrics;
        let modular = name.starts_with("modular");
        let (present, absent) = if modular {
            ("framework", "mono")
        } else {
            ("mono", "framework")
        };
        assert!(value(m, &format!("{present}.handler_share")) > 0.0);
        assert!(value(m, &format!("{present}.on_message_ns")) > 0.0);
        assert_eq!(value(m, &format!("{absent}.handler_share")), 0.0);
        assert_eq!(value(m, &format!("{absent}.calls_per_delivered_msg")), 0.0);
        assert_eq!(value(m, "trace.share") > 0.0, spec.tracing, "{name}");
        assert_eq!(value(m, "chaos.oracle_share") > 0.0, spec.faults, "{name}");
        if modular {
            assert!(value(m, "consensus.msgs_per_instance") > 0.0);
            assert_eq!(value(m, "mono.msgs_per_instance"), 0.0);
        } else {
            assert!(value(m, "mono.msgs_per_instance") > 0.0);
            assert_eq!(value(m, "abcast.msgs_per_instance"), 0.0);
        }
        if !spec.faults {
            assert_eq!(value(m, "fd.suspicions"), 0.0);
            assert_eq!(value(m, "net.fault_drops"), 0.0);
        }
        // No counting allocator in the test binary.
        assert_eq!(value(m, "core.allocs_per_delivered_msg"), 0.0);
    }
}
