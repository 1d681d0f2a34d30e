//! Smoke tests of the umbrella crate's public API — what a downstream
//! user actually touches.

use fortika::core::workload::Workload;
use fortika::core::{analysis, Experiment, StackKind};

#[test]
fn experiment_api_end_to_end() {
    let mut exp = Experiment::builder(StackKind::Monolithic, 3)
        .workload(Workload::constant_rate(400.0, 2048))
        .seed(3)
        .warmup_secs(0.5)
        .measure_secs(1.0)
        .build();
    let report = exp.run();
    assert!(report.delivered_total > 0);
    assert!(report.early_latency_ms.mean > 0.0);
    assert!(report.early_latency_ms.samples > 100);
    assert!((report.throughput_msgs_per_sec - 400.0).abs() < 40.0);
    assert_eq!(report.lost_samples, 0);
    assert!(report.max_cpu_utilization > 0.0 && report.max_cpu_utilization <= 1.0);
}

#[test]
fn analysis_module_exposed() {
    assert_eq!(analysis::modular_messages(3, 4.0), 16.0);
    assert_eq!(analysis::monolithic_messages(3), 4.0);
    assert!((analysis::modularity_overhead(7) - 0.75).abs() < 1e-12);
}

#[test]
fn both_stacks_present_equivalent_metrics() {
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let mut exp = Experiment::builder(kind, 3)
            .workload(Workload::constant_rate(300.0, 1024))
            .seed(4)
            .warmup_secs(0.5)
            .measure_secs(1.0)
            .build();
        let r = exp.run();
        assert!(r.avg_batch_m > 0.0, "{}: M missing", kind.label());
        assert!(
            r.msgs_per_instance > 0.0,
            "{}: msgs/inst missing",
            kind.label()
        );
        assert!(
            r.instances_per_proc > 0.0,
            "{}: instances missing",
            kind.label()
        );
    }
}

#[test]
fn workspace_types_reexported() {
    // The umbrella exposes the substrate crates under stable names.
    let _cfg = fortika::net::ClusterConfig::new(3, 1);
    let _w = fortika::sim::stats::Welford::new();
    let _opts = fortika::mono::MonoOptimizations::all();
    let _fd = fortika::fd::FdConfig::default();
    let _rb = fortika::rbcast::RbcastModule::new();
}
