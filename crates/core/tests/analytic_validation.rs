//! Cross-validation of the paper's analytical model (§5.2) against the
//! simulator's traffic counters: the saturated steady state must produce
//! exactly the closed-form message counts, and byte volumes within the
//! constant-size-message approximation.

use fortika_core::analysis;
use fortika_core::workload::Workload;
use fortika_core::{Experiment, StackKind};

fn saturated(kind: StackKind, n: usize, size: usize) -> fortika_core::RunReport {
    // Offered load far above capacity: flow control keeps the pipeline
    // permanently full, which is §5.2's standing assumption.
    let mut exp = Experiment::builder(kind, n)
        .workload(Workload::constant_rate(4000.0, size))
        .warmup_secs(1.0)
        .measure_secs(2.0)
        .seed(5)
        .build();
    exp.run()
}

#[test]
fn modular_messages_match_section_521() {
    for n in [3usize, 7] {
        let r = saturated(StackKind::Modular, n, 8192);
        let m = r.avg_batch_m;
        let expect = analysis::modular_messages(n, m);
        let got = r.msgs_per_instance;
        let err = (got - expect).abs() / expect;
        assert!(
            err < 0.08,
            "n={n}: modular msgs/instance {got:.2} vs analytic {expect:.2} (M={m:.2})"
        );
    }
}

#[test]
fn monolithic_messages_match_section_521() {
    for n in [3usize, 7] {
        let r = saturated(StackKind::Monolithic, n, 8192);
        let expect = analysis::monolithic_messages(n);
        let got = r.msgs_per_instance;
        let err = (got - expect).abs() / expect;
        assert!(
            err < 0.08,
            "n={n}: monolithic msgs/instance {got:.2} vs analytic {expect}"
        );
    }
}

#[test]
fn data_volumes_match_section_522() {
    let l = 16384usize;
    for n in [3usize, 7] {
        let rm = saturated(StackKind::Modular, n, l);
        let expect_mod = analysis::modular_data(n, rm.avg_batch_m, l);
        let err = (rm.bytes_per_instance - expect_mod).abs() / expect_mod;
        assert!(
            err < 0.10,
            "n={n}: modular bytes/instance {:.0} vs analytic {expect_mod:.0} (M={:.2})",
            rm.bytes_per_instance,
            rm.avg_batch_m
        );

        let rk = saturated(StackKind::Monolithic, n, l);
        let expect_mono = analysis::monolithic_data(n, rk.avg_batch_m, l);
        let err = (rk.bytes_per_instance - expect_mono).abs() / expect_mono;
        assert!(
            err < 0.12,
            "n={n}: monolithic bytes/instance {:.0} vs analytic {expect_mono:.0} (M={:.2})",
            rk.bytes_per_instance,
            rk.avg_batch_m
        );
    }
}

#[test]
fn modular_data_overhead_approaches_closed_form() {
    // Per-ordered-message byte cost ratio should approach the paper's
    // (n−1)/(n+1) overhead: 50 % at n=3, 75 % at n=7.
    for (n, expect) in [(3usize, 0.50f64), (7, 0.75)] {
        let rm = saturated(StackKind::Modular, n, 16384);
        let rk = saturated(StackKind::Monolithic, n, 16384);
        let mod_per_msg = rm.bytes_per_instance / rm.avg_batch_m;
        let mono_per_msg = rk.bytes_per_instance / rk.avg_batch_m;
        let overhead = (mod_per_msg - mono_per_msg) / mono_per_msg;
        assert!(
            (overhead - expect).abs() < 0.15,
            "n={n}: measured overhead {overhead:.3} vs closed form {expect}"
        );
        assert!(
            (analysis::modularity_overhead(n) - expect).abs() < 1e-9,
            "closed form itself"
        );
    }
}

#[test]
fn flow_control_yields_paper_batch_size() {
    // The default window is tuned so the modular stack orders ~M = 4
    // messages per consensus at n = 3 under saturation (§5.1).
    let r = saturated(StackKind::Modular, 3, 16384);
    assert!(
        (r.avg_batch_m - 4.0).abs() < 1.0,
        "modular n=3 saturated M was {:.2}, expected ≈4",
        r.avg_batch_m
    );
}

#[test]
fn cpu_saturates_above_500_msgs_like_the_paper() {
    // §5.3.2: "99% of CPU resources were used with an offered load
    // bigger than 500 msgs/s" — for the modular stack.
    let mut exp = Experiment::builder(StackKind::Modular, 3)
        .workload(Workload::constant_rate(1000.0, 16384))
        .warmup_secs(1.0)
        .measure_secs(2.0)
        .seed(5)
        .build();
    let r = exp.run();
    assert!(
        r.max_cpu_utilization > 0.90,
        "modular CPU at 1000 msg/s offered was {:.2}",
        r.max_cpu_utilization
    );
}
