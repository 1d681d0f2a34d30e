//! Pins what `Scenario::random` draws: every family, instant and
//! parameter of seeds 0..32 at n ∈ {3, 5}, under the default and the
//! resource-only profile, rendered as text and hashed. Every committed
//! fuzz cell and pinned seed depends on these draws, so a refactor of
//! the scenario vocabulary must leave the rendering byte-identical.

use fortika_chaos::{ChaosProfile, Scenario, ScenarioEvent as E};
use fortika_sim::VDur;

/// FNV-1a, 64 bit.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn window(from: VDur, until: Option<VDur>) -> String {
    format!("{}..{:?}", from.as_nanos(), until.map(VDur::as_nanos))
}

/// One line per event: family, parameters, instants in nanoseconds.
fn render(s: &Scenario) -> String {
    let mut out = format!("depth {}\n", s.pipeline_depth());
    for ev in s.events() {
        let params = match *ev {
            E::Crash { pid, at } | E::Restart { pid, at } => format!("{pid} @{}", at.as_nanos()),
            E::Link {
                ref fault,
                from,
                until,
            } => format!("{fault:?} {}", window(from, until)),
            E::SlowNode {
                pid,
                factor_milli,
                from,
                until,
            } => format!("{pid} x{factor_milli} {}", window(from, until)),
            E::FalseSuspicion {
                observer,
                suspect,
                from,
                until,
            } => format!("{observer}->{suspect} {}", window(from, Some(until))),
        };
        out += &format!("{} {params}\n", ev.family());
    }
    out
}

#[test]
fn random_scenarios_match_golden() {
    for (name, profile, golden) in [
        (
            "default",
            ChaosProfile::default(),
            (13_804, 0xdd44_67c2_c932_041c),
        ),
        (
            "resource_only",
            ChaosProfile::resource_only(),
            (9_378, 0x3df4_2141_b46f_4c41),
        ),
    ] {
        let mut text = String::new();
        for n in [3usize, 5] {
            for seed in 0..32u64 {
                text += &format!("n={n} seed={seed} ");
                text += &render(&Scenario::random(n, seed, &profile));
            }
        }
        assert_eq!((text.len(), fnv1a(&text)), golden, "{name}:\n{text}");
    }
}
