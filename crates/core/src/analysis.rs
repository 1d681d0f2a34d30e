//! The paper's analytical model (§5.2), as closed forms.
//!
//! These formulas count the messages and bytes needed to adeliver `M`
//! messages (one consensus instance) in the saturated regime, assuming
//! good runs and piggybacking opportunities (§5.2's standing assumption
//! that instance `k+1` starts right after instance `k`).
//!
//! The `analysis_*` benches print these next to simulator counters, and
//! the integration tests assert that the simulation reproduces them.

/// Messages per consensus instance in the **modular** stack (§5.2.1):
/// `(n−1) · (M + 2 + ⌊(n+1)/2⌋)` — diffusion of the `M` messages,
/// proposal, acks and the majority-optimized reliable broadcast of the
/// decision.
pub fn modular_messages(n: usize, m: usize) -> u64 {
    assert!(n >= 1, "group size must be positive");
    ((n - 1) * (m + 2 + n.div_ceil(2))) as u64
}

/// [`modular_messages`] at a measured mean batch size `m`, which is not
/// a whole number: what a run's messages per instance are checked
/// against.
pub fn modular_messages_at(n: usize, m: f64) -> f64 {
    assert!(n >= 1, "group size must be positive");
    (n - 1) as f64 * (m + 2.0 + n.div_ceil(2) as f64)
}

/// Messages per consensus instance in the **monolithic** stack (§5.2.1):
/// `2(n−1)` — one combined decision+proposal out, one ack-with-payload
/// back from each non-coordinator.
pub fn monolithic_messages(n: usize) -> u64 {
    assert!(n >= 1, "group size must be positive");
    (2 * (n - 1)) as u64
}

/// Payload bytes shipped per consensus instance by the **modular** stack
/// (§5.2.2): `2(n−1)·M·l` — every abcast message travels twice: once in
/// the diffusion to all, once inside the proposal.
pub fn modular_data(n: usize, m: usize, l: usize) -> u64 {
    2 * (n as u64 - 1) * m as u64 * l as u64
}

/// Payload bytes shipped per consensus instance by the **monolithic**
/// stack (§5.2.2): `(n−1)(1 + 1/n)·M·l` — each non-coordinator
/// piggybacks `M/n` messages to the coordinator; the proposal carries all
/// `M` to everyone.
pub fn monolithic_data(n: usize, m: usize, l: usize) -> f64 {
    (n as f64 - 1.0) * (1.0 + 1.0 / n as f64) * m as f64 * l as f64
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
        assert_eq!(modular_messages(3, 4), 16);
        assert_eq!(monolithic_messages(3), 4);
    }

    #[test]
    fn message_counts_n7() {
        // (7−1)·(4+2+4) = 60 vs 2·6 = 12.
        assert_eq!(modular_messages(7, 4), 60);
        assert_eq!(monolithic_messages(7), 12);
    }

    #[test]
    fn data_volumes() {
        // n=3, M=4, l=16384: modular 2·2·4·16384 = 262144.
        assert_eq!(modular_data(3, 4, 16384), 262_144);
        // monolithic (n−1)(1+1/n)M·l = 2·(4/3)·4·16384 ≈ 174762.67.
        let mono = monolithic_data(3, 4, 16384);
        assert!((mono - 174_762.666).abs() < 1.0);
    }

    #[test]
    fn overhead_matches_paper() {
        assert!((modularity_overhead(3) - 0.50).abs() < 1e-12);
        assert!((modularity_overhead(7) - 0.75).abs() < 1e-12);
        // Overhead from the data formulas agrees with the closed form.
        for n in [3usize, 5, 7, 9] {
            let m = 4;
            let l = 1024;
            let ratio = (modular_data(n, m, l) as f64 - monolithic_data(n, m, l))
                / monolithic_data(n, m, l);
            assert!(
                (ratio - modularity_overhead(n)).abs() < 1e-9,
                "n={n}: {ratio} vs {}",
                modularity_overhead(n)
            );
        }
    }

    #[test]
    fn modular_cost_grows_with_batch_monolithic_does_not() {
        assert!(modular_messages(3, 8) > modular_messages(3, 4));
        assert_eq!(monolithic_messages(3), monolithic_messages(3));
    }

    #[test]
    fn the_real_m_form_agrees_with_the_integer_one() {
        for (n, m) in [(3, 4), (4, 3), (7, 10)] {
            assert_eq!(
                modular_messages_at(n, m as f64),
                modular_messages(n, m) as f64
            );
        }
        // n = 4 at M = 3.31: 3 · (3.31 + 2 + 2).
        assert!((modular_messages_at(4, 3.31) - 21.93).abs() < 1e-9);
    }
}
