//! Link-level fault primitives.
//!
//! The paper's channel property (§2.1) — no loss, duplication or
//! corruption between correct processes — holds *by construction* in the
//! default simulation. Everything that is interesting about the two
//! stacks' failure machinery (◇P suspicion, rotating coordinators,
//! decision recovery) only fires when that construction is broken on
//! purpose. This module provides the vocabulary for breaking it:
//! per-link state (partition membership, seeded drop probability,
//! duplication, delay inflation, bandwidth degradation) that the
//! [`Cluster`](crate::Cluster) consults at transmission time, plus
//! scheduled [`LinkFault`] actions that flip that state mid-run. Each
//! fault that opens a window has one closer, [`LinkFault::cleared`],
//! which writes the fault-free value back, and one range check,
//! [`LinkFault::check`], which every entry point calls.
//!
//! Faults compose: a link can simultaneously sit across a partition,
//! drop 10 % of what remains and triple its latency. Fault randomness
//! (drop/duplicate coin flips, duplicate-copy jitter) comes from a
//! dedicated RNG stream derived from the cluster seed, and every send
//! consumes exactly one main-stream jitter draw whether or not it
//! survives — so messages that do arrive keep the identical timing they
//! would have had in the fault-free run with the same seed, and fault
//! decisions replay bit-for-bit.
//!
//! The higher-level scenario DSL (timelines, random scenario generation,
//! the delivery-invariant oracle) lives in the `fortika-chaos` crate;
//! this module is deliberately mechanism-only.

use crate::id::ProcessId;

/// Selects the directed links a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSelector {
    /// Every directed link in the cluster.
    All,
    /// Both directions between two processes.
    Between(ProcessId, ProcessId),
    /// One direction only.
    Directed {
        /// Transmitting process.
        src: ProcessId,
        /// Receiving process.
        dst: ProcessId,
    },
    /// Every link transmitting from this process.
    From(ProcessId),
    /// Every link delivering to this process.
    To(ProcessId),
}

impl LinkSelector {
    /// True if the directed link `src → dst` is selected.
    pub fn matches(&self, src: ProcessId, dst: ProcessId) -> bool {
        match *self {
            LinkSelector::All => true,
            LinkSelector::Between(a, b) => (src, dst) == (a, b) || (src, dst) == (b, a),
            LinkSelector::Directed { src: s, dst: d } => (src, dst) == (s, d),
            LinkSelector::From(p) => src == p,
            LinkSelector::To(p) => dst == p,
        }
    }
}

/// A fault action applied to the cluster's links, immediately via
/// [`Cluster::apply_fault`](crate::Cluster::apply_fault) or at a chosen
/// instant via [`Cluster::schedule_fault`](crate::Cluster::schedule_fault).
#[derive(Debug, Clone)]
pub enum LinkFault {
    /// Splits the cluster into groups: links between processes of
    /// different groups drop everything. A process listed in no group
    /// forms an implicit singleton group (fully isolated).
    ///
    /// Applies partition state to **all** links: links within a group are
    /// unblocked, links across groups blocked. Messages already in
    /// flight still arrive — the partition takes effect at transmission
    /// time, like pulling a cable.
    Partition(Vec<Vec<ProcessId>>),
    /// Removes any partition (loss/duplication/delay state persists).
    Heal,
    /// Sets the drop probability of the selected links to `p` (0 clears).
    Loss {
        /// Affected links.
        link: LinkSelector,
        /// Per-message drop probability in `[0, 1]`.
        p: f64,
    },
    /// Sets the duplication probability of the selected links to `p`.
    /// A duplicated message arrives twice, the copies independently
    /// jittered (per-pair FIFO is preserved).
    Duplicate {
        /// Affected links.
        link: LinkSelector,
        /// Per-message duplication probability in `[0, 1]`.
        p: f64,
    },
    /// Scales propagation delay and jitter of the selected links by
    /// `factor_milli / 1000` (e.g. `5000` = 5× slower, `1000` = normal).
    /// Asymmetric spikes are expressed with a directed selector.
    DelaySpike {
        /// Affected links.
        link: LinkSelector,
        /// Delay multiplier in thousandths.
        factor_milli: u64,
    },
    /// Shrinks the *bandwidth* of the selected links to
    /// `rate_milli / 1000` of the configured NIC rate (`100` = 10 % of
    /// nominal, `1000` = full rate, i.e. restore). Unlike
    /// [`DelaySpike`](LinkFault::DelaySpike), which stretches
    /// propagation uniformly, a degraded link *serializes*: messages
    /// queue behind each other at the reduced rate, so large messages
    /// and bursts suffer disproportionately — the congested-switch /
    /// half-duplex failure mode Ring Paxos shows flips throughput
    /// rankings.
    Degrade {
        /// Affected links.
        link: LinkSelector,
        /// Bandwidth multiplier in thousandths, `1..=1000`.
        rate_milli: u64,
    },
    /// Restores every link to the fault-free default.
    Reset,
}

impl LinkFault {
    /// The fault that closes a window this fault opened: the same links
    /// back at their fault-free value (no loss, no duplication, ×1
    /// delay, full rate), or, for a partition, [`Heal`](LinkFault::Heal).
    /// `Heal` and `Reset` are closers already and return themselves.
    pub fn cleared(&self) -> LinkFault {
        let LinkState {
            drop_p: p,
            dup_p,
            delay_milli: factor_milli,
            rate_milli,
            ..
        } = LinkState::default();
        match *self {
            LinkFault::Partition(_) | LinkFault::Heal => LinkFault::Heal,
            LinkFault::Loss { link, .. } => LinkFault::Loss { link, p },
            LinkFault::Duplicate { link, .. } => LinkFault::Duplicate { link, p: dup_p },
            LinkFault::DelaySpike { link, .. } => LinkFault::DelaySpike { link, factor_milli },
            LinkFault::Degrade { link, .. } => LinkFault::Degrade { link, rate_milli },
            LinkFault::Reset => LinkFault::Reset,
        }
    }

    /// Checks the fault's parameters: a probability in `[0, 1]`, a
    /// degraded rate in `1..=1000`.
    ///
    /// # Panics
    ///
    /// Panics with "out of range" when a parameter is not.
    #[track_caller]
    pub fn check(&self) {
        let in_range = match *self {
            LinkFault::Loss { p, .. } | LinkFault::Duplicate { p, .. } => (0.0..=1.0).contains(&p),
            LinkFault::Degrade { rate_milli, .. } => (1..=1000).contains(&rate_milli),
            _ => true,
        };
        assert!(in_range, "{self:?}: parameter out of range");
    }

    /// Writes the fault into `links`, the `n × n` directed-link states
    /// indexed `src * n + dst`.
    pub(crate) fn apply(&self, links: &mut [LinkState], n: usize) {
        let mut for_links = |sel: LinkSelector, f: &dyn Fn(&mut LinkState)| {
            for s in 0..n {
                for d in 0..n {
                    if s != d && sel.matches(ProcessId(s as u16), ProcessId(d as u16)) {
                        f(&mut links[s * n + d]);
                    }
                }
            }
        };
        match *self {
            LinkFault::Partition(ref groups) => {
                // The last group listing a process holds it; unlisted
                // processes are isolated singletons.
                let group = |i: usize| {
                    let listed = groups
                        .iter()
                        .rposition(|g| g.contains(&ProcessId(i as u16)));
                    listed.unwrap_or(groups.len() + i)
                };
                for (i, st) in links.iter_mut().enumerate() {
                    st.blocked = group(i / n) != group(i % n);
                }
            }
            LinkFault::Heal => links.iter_mut().for_each(|st| st.blocked = false),
            LinkFault::Loss { link, p } => for_links(link, &|st| st.drop_p = p),
            LinkFault::Duplicate { link, p } => for_links(link, &|st| st.dup_p = p),
            LinkFault::DelaySpike { link, factor_milli } => {
                for_links(link, &|st| st.delay_milli = factor_milli.max(1))
            }
            LinkFault::Degrade { link, rate_milli } => {
                for_links(link, &|st| st.rate_milli = rate_milli)
            }
            LinkFault::Reset => links.fill(LinkState::default()),
        }
    }
}

/// Per-directed-link fault state, consulted at transmission time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LinkState {
    /// Cut by a partition: every message dropped.
    pub blocked: bool,
    /// Seeded drop probability.
    pub drop_p: f64,
    /// Seeded duplication probability.
    pub dup_p: f64,
    /// Delay multiplier in thousandths (1000 = ×1).
    pub delay_milli: u64,
    /// Bandwidth multiplier in thousandths (1000 = full rate). Below
    /// 1000 the link becomes its own serial server at the reduced
    /// rate — messages queue behind each other on it.
    pub rate_milli: u64,
}

impl Default for LinkState {
    fn default() -> Self {
        LinkState {
            blocked: false,
            drop_p: 0.0,
            dup_p: 0.0,
            delay_milli: 1000,
            rate_milli: 1000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_matching() {
        let (a, b, c) = (ProcessId(0), ProcessId(1), ProcessId(2));
        assert!(LinkSelector::All.matches(a, b));
        assert!(LinkSelector::Between(a, b).matches(b, a));
        assert!(!LinkSelector::Between(a, b).matches(a, c));
        assert!(LinkSelector::Directed { src: a, dst: b }.matches(a, b));
        assert!(!LinkSelector::Directed { src: a, dst: b }.matches(b, a));
        assert!(LinkSelector::From(a).matches(a, c));
        assert!(!LinkSelector::From(a).matches(c, a));
        assert!(LinkSelector::To(c).matches(b, c));
        assert!(!LinkSelector::To(c).matches(c, b));
    }

    /// Every fault that opens a window, closed by its `cleared()`,
    /// leaves every link exactly as fault-free as it started.
    #[test]
    fn cleared_restores_fault_free_links() {
        let (n, a, b) = (4, ProcessId(1), ProcessId(3));
        let (p, factor_milli, rate_milli) = (0.3, 5000, 100);
        let mut openers = vec![
            LinkFault::Partition(vec![vec![a, b], vec![ProcessId(0)]]),
            LinkFault::Partition(vec![vec![ProcessId(0), a]]),
        ];
        let directed = LinkSelector::Directed { src: a, dst: b };
        for link in [LinkSelector::All, LinkSelector::Between(a, b), directed] {
            openers.extend([
                LinkFault::Loss { link, p },
                LinkFault::Duplicate { link, p },
                LinkFault::DelaySpike { link, factor_milli },
                LinkFault::Degrade { link, rate_milli },
            ]);
        }
        let free = vec![LinkState::default(); n * n];
        for fault in openers {
            let mut links = free.clone();
            fault.apply(&mut links, n);
            assert_ne!(links, free, "{fault:?} opened nothing");
            fault.cleared().apply(&mut links, n);
            assert_eq!(links, free, "{fault:?} then {:?}", fault.cleared());
        }
    }

    #[test]
    fn default_state_is_fault_free() {
        let st = LinkState::default();
        assert!(!st.blocked);
        assert_eq!(st.drop_p, 0.0);
        assert_eq!(st.dup_p, 0.0);
        assert_eq!(st.delay_milli, 1000);
        assert_eq!(st.rate_milli, 1000);
    }
}
