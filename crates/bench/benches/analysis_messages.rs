//! §5.2.1 — Number of messages sent per consensus instance.
//!
//! Regenerates the paper's analytical message counts and cross-checks
//! them against saturated-simulation counters.
//!
//! Paper's example: n = 3, M = 4 → 16 modular messages vs 4 monolithic.

use fortika_bench::seeds;
use fortika_core::analysis;
use fortika_core::workload::Workload;
use fortika_core::{Experiment, StackKind};

fn saturated(kind: StackKind, n: usize) -> (f64, f64) {
    let mut msgs = Vec::new();
    let mut m = Vec::new();
    for &seed in &seeds() {
        let mut exp = Experiment::builder(kind, n)
            .workload(Workload::constant_rate(4000.0, 8192))
            .warmup_secs(1.0)
            .measure_secs(1.5)
            .seed(seed)
            .build();
        let r = exp.run();
        msgs.push(r.msgs_per_instance);
        m.push(r.avg_batch_m);
    }
    (
        msgs.iter().sum::<f64>() / msgs.len() as f64,
        m.iter().sum::<f64>() / m.len() as f64,
    )
}

fn main() {
    println!("== §5.2.1 — messages per consensus instance ==");
    println!();
    println!("closed forms: modular (n-1)(M+2+floor((n+1)/2)),  monolithic 2(n-1)");
    println!();
    println!(
        "{:>3} {:>4} | {:>18} {:>20} | {:>15} {:>12}",
        "n", "M", "modular(analytic)", "modular(sim)", "mono(analytic)", "mono(sim)"
    );
    for n in [3usize, 7] {
        let paper_m = 4usize;
        let (sim_mod, m_mod) = saturated(StackKind::Modular, n);
        let (sim_mono, _) = saturated(StackKind::Monolithic, n);
        println!(
            "{:>3} {:>4} | {:>18} {:>20} | {:>15} {:>12}",
            n,
            paper_m,
            analysis::modular_messages(n, paper_m),
            format!("{sim_mod:.2} (M={m_mod:.2})"),
            analysis::monolithic_messages(n),
            format!("{sim_mono:.2}"),
        );
        // Apples-to-apples: analytic evaluated at the measured M.
        let analytic_at_m = analysis::modular_messages_at(n, m_mod);
        let err = (sim_mod - analytic_at_m).abs() / analytic_at_m;
        println!(
            "      modular analytic at measured M: {analytic_at_m:.2} (sim error {:.1}%)",
            err * 100.0
        );
    }
    println!();
    println!(
        "paper's worked example (n=3, M=4): modular {} msgs vs monolithic {} msgs",
        analysis::modular_messages(3, 4),
        analysis::monolithic_messages(3)
    );
}
