//! The paper's analytical model (§5.2), as closed forms.
//!
//! These formulas count the messages and payload bytes needed to
//! adeliver `M` messages (one consensus instance) in the saturated
//! regime, assuming good runs and piggybacking opportunities (§5.2's
//! standing assumption that instance `k+1` starts right after instance
//! `k`). `M` is real-valued: a run is checked against the forms at the
//! mean batch size it measured.
//!
//! Each of the monolith's optimizations O1–O3 removes one term, so one
//! form per quantity ([`messages_with`], [`data_with`]) covers the
//! modular stack (none of them), the paper's monolith (all three) and
//! every step between. `probe` holds every saturated good run of the
//! committed sweeps to them, and `BENCH_decomposition.json` records them
//! beside the measured counts.

use fortika_mono::MonoOptimizations;

/// Messages per consensus instance in the **modular** stack (§5.2.1):
/// `(n−1) · (M + 2 + ⌊(n+1)/2⌋)` — diffusion of the `M` messages,
/// proposal, acks and the majority-optimized reliable broadcast of the
/// decision.
pub fn modular_messages(n: usize, m: f64) -> f64 {
    messages_with(n, m, MonoOptimizations::none())
}

/// Messages per consensus instance in the **monolithic** stack (§5.2.1):
/// `2(n−1)` — one combined decision+proposal out, one ack-with-payload
/// back from each non-coordinator.
pub fn monolithic_messages(n: usize) -> f64 {
    messages_with(n, 0.0, MonoOptimizations::all())
}

/// Messages per consensus instance with only the optimizations `opts`
/// (§4): each of the `n−1` other processes gets the proposal and
/// returns an ack; without O1 the decision is a message of its own,
/// without O2 each of the `M` messages is diffused to everyone, and
/// without O3 the `⌊(n−1)/2⌋` relays re-broadcast the decision —
/// `(n−1) · (2 + [¬O1] + [¬O2]·M + [¬O3]·⌊(n−1)/2⌋)`. With none of them
/// this is [`modular_messages`], since `1 + ⌊(n−1)/2⌋ = ⌊(n+1)/2⌋`.
pub fn messages_with(n: usize, m: f64, opts: MonoOptimizations) -> f64 {
    assert!(n >= 1, "group size must be positive");
    let without = |on: bool| if on { 0.0 } else { 1.0 };
    (n - 1) as f64
        * (2.0
            + without(opts.combine_decision_proposal)
            + without(opts.piggyback_on_acks) * m
            + without(opts.implicit_decision_acks) * ((n - 1) / 2) as f64)
}

/// Payload bytes shipped per consensus instance by the **modular** stack
/// (§5.2.2): `2(n−1)·M·l` — every abcast message travels twice: once in
/// the diffusion to all, once inside the proposal.
pub fn modular_data(n: usize, m: f64, l: usize) -> f64 {
    data_with(n, m, l, MonoOptimizations::none())
}

/// Payload bytes shipped per consensus instance by the **monolithic**
/// stack (§5.2.2): `(n−1)(1 + 1/n)·M·l` — each non-coordinator
/// piggybacks `M/n` messages to the coordinator; the proposal carries all
/// `M` to everyone.
pub fn monolithic_data(n: usize, m: f64, l: usize) -> f64 {
    data_with(n, m, l, MonoOptimizations::all())
}

/// Payload bytes shipped per consensus instance with only the
/// optimizations `opts`: the proposal carries all `M` messages to the
/// `n−1` others, and each message has reached them once before — diffused
/// to all without O2; with O2 only the non-coordinators' `M/n` shares
/// travel, on their acks to the coordinator. Decisions are tags, so O1
/// and O3 move no payload.
pub fn data_with(n: usize, m: f64, l: usize, opts: MonoOptimizations) -> f64 {
    assert!(n >= 1, "group size must be positive");
    let first_trip = if opts.piggyback_on_acks {
        1.0 / n as f64
    } else {
        1.0
    };
    (n - 1) as f64 * (1.0 + first_trip) * m * l as f64
}

/// The modular stack's data overhead relative to the monolithic one
/// (§5.2.2): `(n−1)/(n+1)` — 50 % at n = 3, 75 % at n = 7.
pub fn modularity_overhead(n: usize) -> f64 {
    (n as f64 - 1.0) / (n as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_n3_m4() {
        // §5.2.1's worked example: 16 modular messages vs 4 monolithic.
        assert_eq!(modular_messages(3, 4.0), 16.0);
        assert_eq!(monolithic_messages(3), 4.0);
    }

    #[test]
    fn message_counts_n7() {
        // (7−1)·(4+2+4) = 60 vs 2·6 = 12.
        assert_eq!(modular_messages(7, 4.0), 60.0);
        assert_eq!(monolithic_messages(7), 12.0);
    }

    #[test]
    fn data_volumes() {
        // n=3, M=4, l=16384: modular 2·2·4·16384 = 262144.
        assert_eq!(modular_data(3, 4.0, 16384), 262_144.0);
        // monolithic (n−1)(1+1/n)M·l = 2·(4/3)·4·16384 ≈ 174762.67.
        let mono = monolithic_data(3, 4.0, 16384);
        assert!((mono - 174_762.666).abs() < 1.0);
    }

    #[test]
    fn overhead_matches_paper() {
        assert!((modularity_overhead(3) - 0.50).abs() < 1e-12);
        assert!((modularity_overhead(7) - 0.75).abs() < 1e-12);
        // Overhead from the data formulas agrees with the closed form.
        for n in [3usize, 5, 7, 9] {
            let (m, l) = (4.0, 1024);
            let ratio =
                (modular_data(n, m, l) - monolithic_data(n, m, l)) / monolithic_data(n, m, l);
            assert!(
                (ratio - modularity_overhead(n)).abs() < 1e-9,
                "n={n}: {ratio} vs {}",
                modularity_overhead(n)
            );
        }
    }

    #[test]
    fn modular_cost_grows_with_batch_monolithic_does_not() {
        assert!(modular_messages(3, 8.0) > modular_messages(3, 4.0));
        let paper = MonoOptimizations::all();
        assert_eq!(messages_with(3, 8.0, paper), messages_with(3, 4.0, paper));
    }

    #[test]
    fn the_real_m_form_agrees_with_the_integer_one() {
        // The paper's integer counts at whole M: (n−1)(M+2+⌊(n+1)/2⌋).
        for (n, m, count) in [(3, 4, 16), (4, 3, 21), (7, 10, 96)] {
            assert_eq!(modular_messages(n, m as f64), count as f64);
        }
        // n = 4 at M = 3.31: 3 · (3.31 + 2 + 2).
        assert!((modular_messages(4, 3.31) - 21.93).abs() < 1e-9);
    }

    #[test]
    fn each_optimization_removes_its_term() {
        let o1 = MonoOptimizations {
            combine_decision_proposal: true,
            ..MonoOptimizations::none()
        };
        let o1_o2 = MonoOptimizations {
            piggyback_on_acks: true,
            ..o1
        };
        let staircase = [
            MonoOptimizations::none(),
            o1,
            o1_o2,
            MonoOptimizations::all(),
        ];
        // n = 7, M = 4: 60 → 54 (the decision rides the proposal) → 30
        // (no diffusion) → 12 (no relays).
        let msgs = staircase.map(|opts| messages_with(7, 4.0, opts));
        assert_eq!(msgs, [60.0, 54.0, 30.0, 12.0]);
        // Only O2 moves payload.
        let bytes = staircase.map(|opts| data_with(7, 4.0, 1024, opts));
        assert_eq!(bytes[..2], [modular_data(7, 4.0, 1024); 2]);
        assert_eq!(bytes[2..], [monolithic_data(7, 4.0, 1024); 2]);
    }
}
