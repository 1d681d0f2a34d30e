//! End-to-end behaviour of the two public stacks under the experiment
//! runner: the paper's headline directional results, metric sanity, and
//! reproducibility.

use fortika_core::workload::Workload;
use fortika_core::{Experiment, StackKind};

fn point(kind: StackKind, n: usize, load: f64, size: usize, seed: u64) -> fortika_core::RunReport {
    let mut exp = Experiment::builder(kind, n)
        .workload(Workload::constant_rate(load, size))
        .warmup_secs(1.0)
        .measure_secs(1.5)
        .seed(seed)
        .build();
    exp.run()
}

#[test]
fn low_load_throughput_equals_offered_load() {
    // Below saturation, T = T_offered for both stacks (Fig. 10's linear
    // region).
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let r = point(kind, 3, 250.0, 16384, 1);
        assert!(
            (r.throughput_msgs_per_sec - 250.0).abs() < 15.0,
            "{}: T={:.1} at offered 250",
            kind.label(),
            r.throughput_msgs_per_sec
        );
        assert_eq!(r.lost_samples, 0, "good runs lose nothing");
    }
}

#[test]
fn monolithic_beats_modular_at_high_load() {
    // The paper's headline: at high load the monolithic stack delivers
    // higher throughput and lower early latency.
    let modular = point(StackKind::Modular, 3, 3000.0, 16384, 2);
    let mono = point(StackKind::Monolithic, 3, 3000.0, 16384, 2);
    assert!(
        mono.throughput_msgs_per_sec > modular.throughput_msgs_per_sec * 1.10,
        "throughput: mono {:.0} vs modular {:.0}",
        mono.throughput_msgs_per_sec,
        modular.throughput_msgs_per_sec
    );
    assert!(
        mono.early_latency_ms.mean < modular.early_latency_ms.mean,
        "latency: mono {:.2} vs modular {:.2}",
        mono.early_latency_ms.mean,
        modular.early_latency_ms.mean
    );
}

#[test]
fn latency_grows_with_message_size() {
    // Fig. 9: early latency increases with message size.
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let small = point(kind, 3, 500.0, 1024, 3);
        let large = point(kind, 3, 500.0, 32768, 3);
        assert!(
            large.early_latency_ms.mean > small.early_latency_ms.mean,
            "{}: latency small {:.2} vs large {:.2}",
            kind.label(),
            small.early_latency_ms.mean,
            large.early_latency_ms.mean
        );
    }
}

#[test]
fn throughput_plateaus_under_overload() {
    // Fig. 10: beyond saturation, more offered load does not increase
    // throughput (flow control pins the operating point).
    let at_2x = point(StackKind::Modular, 3, 2000.0, 16384, 4);
    let at_4x = point(StackKind::Modular, 3, 4000.0, 16384, 4);
    let ratio = at_4x.throughput_msgs_per_sec / at_2x.throughput_msgs_per_sec;
    assert!(
        (0.92..1.08).contains(&ratio),
        "plateau should be flat: {:.0} vs {:.0}",
        at_2x.throughput_msgs_per_sec,
        at_4x.throughput_msgs_per_sec
    );
}

#[test]
fn n7_degrades_faster_with_size_than_n3() {
    // Fig. 11's right side: as messages grow, n=7 throughput falls
    // faster than n=3 (the proposal fan-out hits the coordinator NIC).
    let n3_small = point(StackKind::Monolithic, 3, 2000.0, 1024, 5);
    let n3_large = point(StackKind::Monolithic, 3, 2000.0, 32768, 5);
    let n7_small = point(StackKind::Monolithic, 7, 2000.0, 1024, 5);
    let n7_large = point(StackKind::Monolithic, 7, 2000.0, 32768, 5);
    let drop3 = n3_large.throughput_msgs_per_sec / n3_small.throughput_msgs_per_sec;
    let drop7 = n7_large.throughput_msgs_per_sec / n7_small.throughput_msgs_per_sec;
    assert!(
        drop7 < drop3,
        "n=7 should degrade faster: n3 {drop3:.2} vs n7 {drop7:.2}"
    );
}

#[test]
fn same_seed_reproduces_identical_reports() {
    let a = point(StackKind::Modular, 3, 800.0, 4096, 42);
    let b = point(StackKind::Modular, 3, 800.0, 4096, 42);
    assert_eq!(a.delivered_total, b.delivered_total);
    assert_eq!(a.msgs_in_window, b.msgs_in_window);
    assert!((a.early_latency_ms.mean - b.early_latency_ms.mean).abs() < 1e-12);
    assert!((a.throughput_msgs_per_sec - b.throughput_msgs_per_sec).abs() < 1e-12);
}

/// On a fault run some admitted messages never reach every process (a
/// crashed process delivers nothing), so their samples are folded into
/// the mean only when the driver finishes — in an order that used to
/// follow a `HashMap`'s per-instance random state.
#[test]
fn crash_run_reproduces_the_latency_mean_bit_for_bit() {
    use fortika_chaos::Scenario;
    use fortika_net::ProcessId;
    use fortika_sim::VDur;
    let run = || {
        let mut exp = Experiment::builder(StackKind::Monolithic, 3)
            .workload(Workload::constant_rate(800.0, 1024))
            .scenario(Scenario::new().crash(ProcessId(2), VDur::millis(700)))
            .warmup_secs(0.5)
            .measure_secs(1.0)
            .seed(42)
            .build();
        exp.run()
    };
    let (a, b) = (run(), run());
    assert!(
        a.msgs_in_window > 100,
        "the crash must leave samples pending"
    );
    assert_eq!(
        a.early_latency_ms.mean.to_bits(),
        b.early_latency_ms.mean.to_bits()
    );
}

#[test]
fn different_seeds_give_different_runs() {
    let run = |seed| point(StackKind::Monolithic, 3, 500.0, 4096, seed);
    let (a, b) = (run(1), run(2));
    for r in [&a, &b] {
        assert!(r.throughput_msgs_per_sec > 450.0 && r.throughput_msgs_per_sec < 550.0);
    }
    // Their message counts may agree (a fault-free run below saturation
    // sends the same messages whatever the jitter), so compare their
    // timing.
    assert_ne!(a.early_latency_ms.mean, b.early_latency_ms.mean);
}

#[test]
fn ablation_switches_change_the_wire_economy() {
    use fortika_core::{MonoOptimizations, StackConfig};
    let run_with = |opts: MonoOptimizations| {
        let mut exp = Experiment::builder(StackKind::Monolithic, 3)
            .workload(Workload::constant_rate(3000.0, 8192))
            .stack_config(StackConfig {
                mono_opts: opts,
                ..StackConfig::default()
            })
            .warmup_secs(1.0)
            .measure_secs(1.5)
            .seed(6)
            .build();
        exp.run()
    };
    let all = run_with(MonoOptimizations::all());
    let none = run_with(MonoOptimizations::none());
    assert!(
        all.msgs_per_instance < none.msgs_per_instance,
        "optimizations must reduce msgs/instance: {:.1} vs {:.1}",
        all.msgs_per_instance,
        none.msgs_per_instance
    );
    assert!(
        all.throughput_msgs_per_sec >= none.throughput_msgs_per_sec,
        "optimizations must not hurt throughput"
    );
}
