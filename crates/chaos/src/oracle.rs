//! The delivery-invariant oracle.
//!
//! Atomic broadcast promises four properties (paper §2.2). The oracle
//! records every `adeliver` across the cluster and, at end of run,
//! checks them mechanically:
//!
//! * **Uniform total order + uniform agreement** — every pair of correct
//!   processes delivered the *same sequence*; a crashed (or still
//!   lagging) process delivered a *prefix* of it.
//! * **Uniform integrity** — no process delivered the same message
//!   twice, and (when submissions are tracked) nothing was delivered
//!   that was never abcast.
//! * **Validity** — every message the caller marks as *must-deliver*
//!   (abcast by a process that remained correct, under faults that heal)
//!   appears in the common order.
//!
//! Safety checks apply to **every** run, including runs with message
//! loss; validity is a liveness property and only holds when the
//! scenario's faults heal and the drain is long enough, so it is checked
//! only on request ([`DeliveryOracle::check_with_validity`]).
//!
//! The oracle is deliberately stack-agnostic: it sees only `adeliver`
//! events, so the same checker audits the modular stack, the monolithic
//! stack, or any future implementation.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use fortika_net::{ClusterApi, ConfigStamp, Delivery, Harness, MsgId, ProcessId, SnapshotStamp};
use fortika_sim::VTime;

/// One detected violation of the atomic broadcast contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two correct processes disagree on the delivery sequence.
    Disagreement {
        /// Reference process (first correct process).
        reference: ProcessId,
        /// The diverging process.
        process: ProcessId,
        /// First index at which the sequences differ.
        index: usize,
        /// What `reference` delivered there (`None` = nothing).
        expected: Option<MsgId>,
        /// What `process` delivered there.
        got: Option<MsgId>,
    },
    /// A process delivered the same message twice.
    DuplicateDelivery {
        /// The offending process.
        process: ProcessId,
        /// The doubly delivered message.
        id: MsgId,
    },
    /// A process delivered a message that was never submitted.
    UnknownDelivery {
        /// The offending process.
        process: ProcessId,
        /// The fabricated message id.
        id: MsgId,
    },
    /// A crashed/lagging process's log is not a prefix of the common
    /// order.
    NonPrefixLog {
        /// The offending process.
        process: ProcessId,
        /// First index at which its log leaves the common order.
        index: usize,
    },
    /// A restarted process's re-delivery diverges from what its earlier
    /// incarnation delivered: recovery must replay the decided prefix
    /// byte-identically, so incarnation `segment + 1`'s log must agree
    /// position by position with incarnation `segment`'s.
    ReplayDivergence {
        /// The offending process.
        process: ProcessId,
        /// Zero-based incarnation whose log the next one contradicts.
        segment: usize,
        /// First index at which the two incarnations disagree.
        index: usize,
    },
    /// A must-deliver message never appeared in the common order.
    MissingDelivery {
        /// The lost message.
        id: MsgId,
    },
    /// Two processes' snapshots of the same decided prefix disagree: a
    /// snapshot is a pure function of the decided batch sequence, so
    /// every snapshot covering instances `0..=last_included` must carry
    /// the identical digest and delivered count.
    SnapshotDivergence {
        /// The process whose snapshot contradicts the first one seen.
        process: ProcessId,
        /// The compacted prefix both snapshots claim to cover.
        last_included: u64,
    },
    /// A process's configuration history contradicts the group's: the
    /// active configuration is a pure function of the decided prefix
    /// (every reconfiguration is ordered through the log), so every
    /// process must derive the identical `(decided_at, activation,
    /// members)` for each version. Also raised in drained checks when a
    /// correct process never activated a version its peers activated —
    /// a node voting with stale-config quorum math reports exactly this
    /// silence.
    ConfigDivergence {
        /// The process whose history contradicts (or misses) the
        /// version.
        process: ProcessId,
        /// The configuration version concerned.
        version: u64,
    },
}

impl Violation {
    /// The offending process, when the violation implicates one
    /// ([`MissingDelivery`](Violation::MissingDelivery) implicates the
    /// whole group). Trace dumps anchor their bounded window here.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn process(&self) -> Option<ProcessId> {
        match *self {
            Violation::Disagreement { process, .. }
            | Violation::DuplicateDelivery { process, .. }
            | Violation::UnknownDelivery { process, .. }
            | Violation::NonPrefixLog { process, .. }
            | Violation::ReplayDivergence { process, .. }
            | Violation::SnapshotDivergence { process, .. }
            | Violation::ConfigDivergence { process, .. } => Some(process),
            Violation::MissingDelivery { .. } => None,
        }
    }

    /// The violation's variant name, as a stable string — the identity
    /// the counterexample minimizer ([`crate::minimize`]) preserves
    /// while shrinking: a candidate scenario only counts as a
    /// reproducer when it trips a violation of the same kind.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Disagreement { .. } => "Disagreement",
            Violation::DuplicateDelivery { .. } => "DuplicateDelivery",
            Violation::UnknownDelivery { .. } => "UnknownDelivery",
            Violation::NonPrefixLog { .. } => "NonPrefixLog",
            Violation::ReplayDivergence { .. } => "ReplayDivergence",
            Violation::MissingDelivery { .. } => "MissingDelivery",
            Violation::SnapshotDivergence { .. } => "SnapshotDivergence",
            Violation::ConfigDivergence { .. } => "ConfigDivergence",
        }
    }
}

impl fmt::Display for Violation {
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Disagreement {
                reference,
                process,
                index,
                expected,
                got,
            } => write!(
                f,
                "total order violated: {process} diverges from {reference} at index {index} \
                 (expected {expected:?}, got {got:?})"
            ),
            Violation::DuplicateDelivery { process, id } => {
                write!(f, "integrity violated: {process} delivered {id} twice")
            }
            Violation::UnknownDelivery { process, id } => {
                write!(f, "integrity violated: {process} delivered unsubmitted {id}")
            }
            Violation::NonPrefixLog { process, index } => write!(
                f,
                "uniform agreement violated: {process}'s log leaves the common order at index {index}"
            ),
            Violation::ReplayDivergence {
                process,
                segment,
                index,
            } => write!(
                f,
                "recovery replay violated: {process}'s incarnation {} contradicts incarnation \
                 {segment} at index {index}",
                segment + 1
            ),
            Violation::MissingDelivery { id } => {
                write!(f, "validity violated: {id} was abcast by a correct process but never delivered")
            }
            Violation::SnapshotDivergence {
                process,
                last_included,
            } => write!(
                f,
                "snapshot agreement violated: {process}'s snapshot of instances 0..={last_included} \
                 contradicts another process's snapshot of the same prefix"
            ),
            Violation::ConfigDivergence { process, version } => write!(
                f,
                "config agreement violated: {process}'s configuration history contradicts or \
                 misses version {version} activated by the group"
            ),
        }
    }
}

/// Result of an oracle check.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Detected violations, in check order (empty = contract holds).
    pub violations: Vec<Violation>,
    /// Total `adeliver` events observed across all processes.
    pub deliveries: u64,
    /// The common delivery order of the correct processes (the longest
    /// log among them when they disagree).
    pub common_order: Vec<MsgId>,
}

impl OracleReport {
    /// True when no violation was detected.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with a readable list of violations, if any.
    ///
    /// # Panics
    ///
    /// Panics when the report contains violations.
    pub fn assert_ok(&self, context: &str) {
        if !self.is_ok() {
            let mut msg = format!(
                "atomic broadcast contract violated ({context}): {} violation(s)\n",
                self.violations.len()
            );
            for v in &self.violations {
                msg.push_str("  - ");
                msg.push_str(&v.to_string());
                msg.push('\n');
            }
            panic!("{msg}");
        }
    }
}

/// Records every `adeliver` and checks the atomic broadcast contract.
///
/// Use it directly as a cluster [`Harness`] for logic-only runs, put it
/// behind a load source with an [`AuditTap`](crate::AuditTap) (as
/// `ScriptedDriver` and the experiment runner do), or feed it
/// pre-collected logs via [`DeliveryOracle::record`].
///
/// # Example
///
/// ```
/// use fortika_chaos::DeliveryOracle;
/// use fortika_net::{MsgId, ProcessId};
/// use fortika_sim::VTime;
///
/// let mut oracle = DeliveryOracle::new(2);
/// let m = MsgId::new(ProcessId(0), 0);
/// oracle.note_submission(m);
/// oracle.record(ProcessId(0), m, VTime::ZERO);
/// oracle.record(ProcessId(1), m, VTime::ZERO);
/// let report = oracle.check_with_validity(
///     &[ProcessId(0), ProcessId(1)],
///     &[m],
/// );
/// report.assert_ok("doc example");
/// ```
#[derive(Debug, Clone)]
pub struct DeliveryOracle {
    logs: Vec<Vec<(MsgId, VTime)>>,
    submitted: BTreeSet<MsgId>,
    track_submissions: bool,
    /// Per process: indices into its log where a new incarnation begins
    /// (crash-recovery restarts). Empty for never-restarted processes.
    restarts: Vec<Vec<usize>>,
    /// Per process: snapshot installs as `(segment, index-in-segment,
    /// position-in-common-order)` — from the install point on, the
    /// process's deliveries continue at that position (the compacted
    /// prefix needs no replay).
    installs: Vec<Vec<(usize, usize, u64)>>,
    /// Every snapshot stamp seen, as `(process, last_included,
    /// delivered_count, digest)` — snapshots of the same prefix must
    /// agree bit for bit.
    stamps: Vec<(ProcessId, u64, u64, u64)>,
    /// Per process: every configuration activation it reported
    /// (re-reports after a restart replay are expected and must match).
    configs: Vec<Vec<ConfigStamp>>,
    /// Version floor for the drained completeness check: every correct
    /// process must have activated at least this many reconfigurations.
    expected_configs: Option<u64>,
}

impl DeliveryOracle {
    /// An oracle for a cluster of `n` processes.
    pub fn new(n: usize) -> Self {
        DeliveryOracle {
            logs: vec![Vec::new(); n],
            submitted: BTreeSet::new(),
            track_submissions: false,
            restarts: vec![Vec::new(); n],
            installs: vec![Vec::new(); n],
            stamps: Vec::new(),
            configs: vec![Vec::new(); n],
            expected_configs: None,
        }
    }

    /// Notes that `process` activated configuration `stamp` (fed
    /// automatically through `Harness::on_config`). A restarted process
    /// re-reports the versions it re-derives while replaying — that is
    /// expected, and every report of a version must carry the identical
    /// stamp.
    pub fn note_config(&mut self, process: ProcessId, stamp: ConfigStamp) {
        self.configs[process.index()].push(stamp);
    }

    /// Requires (in [`check_drained`](Self::check_drained)) that every
    /// correct process activated at least `count` configuration
    /// versions. Harnesses that submit reconfigurations feed the count
    /// here: without the floor, a run where *no* process processed the
    /// reconfiguration would vacuously pass the agreement check.
    pub fn expect_configs(&mut self, count: u64) {
        self.expected_configs = Some(count);
    }

    /// Notes that `process` was revived (crash-recovery): subsequent
    /// deliveries belong to a new incarnation. The recovery-aware
    /// checks treat each incarnation's log separately — re-delivering
    /// the decided prefix is *required*, not a duplicate.
    pub fn note_restart(&mut self, process: ProcessId) {
        let cut = self.logs[process.index()].len();
        self.restarts[process.index()].push(cut);
    }

    /// Notes a snapshot stamp from `process` (fed automatically through
    /// `Harness::on_snapshot`). Every stamp joins the cross-process
    /// digest-agreement audit; an **install** stamp additionally marks
    /// that the process's deliveries resume at position
    /// `delivered_count` of the common order — the compacted prefix is
    /// covered by the snapshot and owes no replay.
    pub fn note_snapshot(&mut self, process: ProcessId, stamp: &SnapshotStamp) {
        let p = process.index();
        self.stamps.push((
            process,
            stamp.last_included,
            stamp.delivered_count,
            stamp.digest,
        ));
        if stamp.installed {
            let segment = self.restarts[p].len();
            let seg_start = self.restarts[p].last().copied().unwrap_or(0);
            let idx = self.logs[p].len() - seg_start;
            self.installs[p].push((segment, idx, stamp.delivered_count));
        }
    }

    /// The incarnation segments of `process`'s log, oldest first; a
    /// never-restarted process has exactly one segment.
    fn segments(&self, process: usize) -> Vec<&[(MsgId, VTime)]> {
        let log = &self.logs[process];
        let mut out = Vec::with_capacity(self.restarts[process].len() + 1);
        let mut start = 0;
        for &cut in &self.restarts[process] {
            out.push(&log[start..cut]);
            start = cut;
        }
        out.push(&log[start..]);
        out
    }

    /// The snapshot-install jumps inside one incarnation segment, as
    /// `(index-in-segment, resume position)`.
    fn segment_jumps(&self, process: usize, segment: usize) -> Vec<(usize, u64)> {
        self.installs[process]
            .iter()
            .filter(|(s, _, _)| *s == segment)
            .map(|(_, i, off)| (*i, *off))
            .collect()
    }

    /// `process`'s final incarnation segment annotated with common-order
    /// positions, its end position, and whether it is *full* (replays
    /// from position 0, i.e. contains no snapshot install).
    fn final_positions(&self, process: usize) -> (Vec<(u64, MsgId)>, u64, bool) {
        let segments = self.segments(process);
        let seg_idx = segments.len() - 1;
        let jumps = self.segment_jumps(process, seg_idx);
        let (positioned, end) = positioned(segments[seg_idx], &jumps);
        (positioned, end, jumps.is_empty())
    }

    /// Group size.
    pub fn n(&self) -> usize {
        self.logs.len()
    }

    /// Records an `adeliver` of `id` at `process`.
    pub fn record(&mut self, process: ProcessId, id: MsgId, at: VTime) {
        self.logs[process.index()].push((id, at));
    }

    /// Notes an accepted `abcast`; once any submission is noted, the
    /// integrity check also rejects deliveries of unknown ids.
    pub fn note_submission(&mut self, id: MsgId) {
        self.track_submissions = true;
        self.submitted.insert(id);
    }

    /// The delivery order (ids only) observed at `process`.
    pub fn order(&self, process: ProcessId) -> Vec<MsgId> {
        self.logs[process.index()].iter().map(|(m, _)| *m).collect()
    }

    /// Per-process logs with delivery timestamps.
    pub fn logs(&self) -> &[Vec<(MsgId, VTime)>] {
        &self.logs
    }

    /// Checks the safety half of the contract: total order and agreement
    /// among `correct` processes, prefix-consistency of everyone else,
    /// and integrity everywhere.
    ///
    /// # Panics
    ///
    /// Panics when `correct` is empty — the contract is about what the
    /// correct processes observe, so checking without any is a test bug.
    pub fn check(&self, correct: &[ProcessId]) -> OracleReport {
        self.run_checks(correct, None, false)
    }

    /// Safety checks plus validity: every id in `must_deliver` has to
    /// appear in the common order. Only meaningful when the scenario's
    /// faults heal and the run drained long enough for liveness.
    ///
    /// # Panics
    ///
    /// Panics when `correct` is empty.
    pub fn check_with_validity(
        &self,
        correct: &[ProcessId],
        must_deliver: &[MsgId],
    ) -> OracleReport {
        self.run_checks(correct, Some(must_deliver), false)
    }

    /// The strict check for fully drained runs: on top of
    /// [`check_with_validity`](Self::check_with_validity), every correct
    /// process must have delivered the *identical sequence* — a correct
    /// log that stops short of the common order (a stalled process that
    /// a mid-run snapshot would tolerate as "lagging") is flagged as a
    /// [`Violation::Disagreement`]. Use this when the run drained long
    /// past the last fault; use [`check`](Self::check) for snapshots
    /// taken while deliveries are still in flight.
    ///
    /// # Panics
    ///
    /// Panics when `correct` is empty.
    pub fn check_drained(&self, correct: &[ProcessId], must_deliver: &[MsgId]) -> OracleReport {
        self.run_checks(correct, Some(must_deliver), true)
    }

    fn run_checks(
        &self,
        correct: &[ProcessId],
        must_deliver: Option<&[MsgId]>,
        drained: bool,
    ) -> OracleReport {
        assert!(
            !correct.is_empty(),
            "oracle needs at least one correct process"
        );
        let mut violations = Vec::new();

        // Configuration agreement comes first: the active configuration
        // is derived from the decided prefix, so a config divergence is
        // the most upstream explanation of everything downstream (a
        // node running stale quorum math can corrupt the order itself).
        // Every report of a version — across processes *and* across one
        // process's restart replays — must carry the identical stamp;
        // the reference for a version is its first report in process
        // order.
        let mut by_version: BTreeMap<u64, ConfigStamp> = BTreeMap::new();
        for p in 0..self.configs.len() {
            for stamp in &self.configs[p] {
                match by_version.get(&stamp.version) {
                    None => {
                        by_version.insert(stamp.version, stamp.clone());
                    }
                    Some(reference) if reference == stamp => {}
                    Some(_) => {
                        violations.push(Violation::ConfigDivergence {
                            process: ProcessId(p as u16),
                            version: stamp.version,
                        });
                    }
                }
            }
        }
        // Completeness only binds drained runs (mid-run a process may
        // legitimately lag behind an activation): every correct process
        // must have caught up to the highest version any correct
        // process activated, and to the harness-declared floor — a node
        // whose planted fence-skip bug ignores decided reconfigurations
        // is exactly the process that stays silent here.
        if drained {
            let correct_max = correct
                .iter()
                .flat_map(|p| self.configs[p.index()].iter().map(|s| s.version))
                .max()
                .unwrap_or(0)
                .max(self.expected_configs.unwrap_or(0));
            for &p in correct {
                let got = self.configs[p.index()]
                    .iter()
                    .map(|s| s.version)
                    .max()
                    .unwrap_or(0);
                if got < correct_max {
                    violations.push(Violation::ConfigDivergence {
                        process: p,
                        version: correct_max,
                    });
                }
            }
        }

        // Total order + uniform agreement: correct processes may lag one
        // another only at the tail (deliveries are not synchronized
        // barriers), so the common order is the reference's final log,
        // and every correct log must agree with it position by position.
        // In `drained` mode the lag tolerance is revoked: all correct
        // logs must reach the same end. Restarted processes are judged
        // by their **final** incarnation's log; a snapshot-install jump
        // inside it means the compacted prefix is covered by the
        // snapshot, so its deliveries are compared from the install
        // position onward (earlier incarnations are audited below).
        //
        // The reference is the correct process reaching the furthest
        // position; ties prefer a *full* log (no install), so the
        // common order normally has no holes.
        let reference = *correct
            .iter()
            .max_by_key(|p| {
                let (_, end, full) = self.final_positions(p.index());
                (end, full)
            })
            .expect("nonempty");
        let (ref_positions, ref_end, _) = self.final_positions(reference.index());
        // The common order as known positions; `None` marks positions
        // inside a prefix the reference itself skipped via snapshot.
        let mut common: Vec<Option<MsgId>> = vec![None; ref_end as usize];
        for (pos, id) in &ref_positions {
            common[*pos as usize] = Some(*id);
        }
        // Fill reference holes from the other correct processes' logs
        // (first filler wins, in `correct` order): a prefix the
        // reference compacted away is still cross-checked whenever any
        // correct process delivered it — later processes that contradict
        // the filler are flagged below exactly like reference
        // disagreements.
        for &p in correct {
            if p == reference {
                continue;
            }
            for (pos, id) in self.final_positions(p.index()).0 {
                if let Some(slot @ None) = common.get_mut(pos as usize) {
                    *slot = Some(id);
                }
            }
        }

        for &p in correct {
            let (positions, end, _) = self.final_positions(p.index());
            let mut flagged = false;
            for (pos, id) in &positions {
                let i = *pos as usize;
                match common.get(i) {
                    Some(Some(c)) if c == id => {}
                    Some(None) => {} // hole in the reference: unknown
                    Some(Some(c)) => {
                        violations.push(Violation::Disagreement {
                            reference,
                            process: p,
                            index: i,
                            expected: Some(*c),
                            got: Some(*id),
                        });
                        flagged = true;
                        break;
                    }
                    None => {
                        // Delivered past the furthest reference position
                        // (cannot normally happen — the reference
                        // maximizes the end position).
                        violations.push(Violation::Disagreement {
                            reference,
                            process: p,
                            index: i,
                            expected: None,
                            got: Some(*id),
                        });
                        flagged = true;
                        break;
                    }
                }
            }
            if !flagged && drained && end < ref_end {
                // A drained run tolerates no lag: a short-but-consistent
                // correct log means a correct process stopped delivering.
                violations.push(Violation::Disagreement {
                    reference,
                    process: p,
                    index: end as usize,
                    expected: common.get(end as usize).copied().flatten(),
                    got: None,
                });
            }
        }

        // Position-aligned consistency with the common order, applied to
        // crashed processes' logs and pre-crash incarnations. In a
        // drained run a log must not extend past the common order; in a
        // mid-run snapshot it may (the victim delivered just before
        // crashing, the correct processes have not caught up yet) —
        // symmetric with the lag tolerance granted to correct logs.
        let check_overlap = |positions: &[(u64, MsgId)]| -> Option<usize> {
            for (pos, id) in positions {
                let i = *pos as usize;
                match common.get(i) {
                    Some(Some(c)) if c != id => return Some(i),
                    Some(_) => {}
                    None if drained => return Some(common.len()),
                    None => return None,
                }
            }
            None
        };

        let correct_set: BTreeSet<ProcessId> = correct.iter().copied().collect();
        for p in 0..self.logs.len() {
            let pid = ProcessId(p as u16);
            if correct_set.contains(&pid) {
                continue;
            }
            let (positions, _, _) = self.final_positions(p);
            if let Some(index) = check_overlap(&positions) {
                violations.push(Violation::NonPrefixLog {
                    process: pid,
                    index,
                });
            }
        }

        // Recovery-aware checks on every non-final incarnation (of any
        // process): (a) uniform agreement — deliveries made before a
        // crash must be consistent with the common order, exactly like
        // a crashed process's log; (b) replay — the next incarnation
        // must re-deliver the same sequence *where their positions
        // overlap*. A snapshot install in the next incarnation skips
        // the compacted prefix, so byte-identical replay is owed only
        // from the install position onward — exactly what the aligned
        // comparison checks.
        for p in 0..self.logs.len() {
            let pid = ProcessId(p as u16);
            let segments = self.segments(p);
            for s in 0..segments.len() - 1 {
                let (a, a_end) = positioned(segments[s], &self.segment_jumps(p, s));
                if let Some(index) = check_overlap(&a) {
                    violations.push(Violation::NonPrefixLog {
                        process: pid,
                        index,
                    });
                }
                let (b, b_end) = positioned(segments[s + 1], &self.segment_jumps(p, s + 1));
                let b_map: BTreeMap<u64, MsgId> = b.iter().copied().collect();
                let mut reported = false;
                for (pos, id) in &a {
                    if let Some(other) = b_map.get(pos) {
                        if other != id {
                            violations.push(Violation::ReplayDivergence {
                                process: pid,
                                segment: s,
                                index: *pos as usize,
                            });
                            reported = true;
                            break;
                        }
                    }
                }
                // The completeness half of the replay requirement only
                // binds the *final* incarnation of a *correct* process:
                // an intermediate incarnation may itself be truncated
                // by the next crash, and a permanently crashed process
                // owes no full replay. (Earlier segments are still
                // covered transitively: drained equality pins the
                // final segment to the common order, and every earlier
                // segment is overlap-checked against that order above.)
                let require_full = drained && s + 2 == segments.len() && correct_set.contains(&pid);
                if !reported && require_full && b_end < a_end {
                    violations.push(Violation::ReplayDivergence {
                        process: pid,
                        segment: s,
                        index: b_end as usize,
                    });
                }
            }
        }

        // Snapshot agreement: a snapshot is a pure function of the
        // decided prefix it covers, so every stamp (made or installed)
        // for the same `last_included` must agree on digest and count.
        let mut by_prefix: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        let mut snapshot_flagged: BTreeSet<(ProcessId, u64)> = BTreeSet::new();
        for &(p, last_included, count, digest) in &self.stamps {
            match by_prefix.get(&last_included) {
                None => {
                    by_prefix.insert(last_included, (count, digest));
                }
                Some(&(c, d)) if c == count && d == digest => {}
                Some(_) => {
                    if snapshot_flagged.insert((p, last_included)) {
                        violations.push(Violation::SnapshotDivergence {
                            process: p,
                            last_included,
                        });
                    }
                }
            }
        }

        // Integrity: no duplicates within any incarnation; known ids
        // only (if tracked). Re-deliveries across incarnations are the
        // *required* recovery replay, not duplicates.
        for p in 0..self.logs.len() {
            let pid = ProcessId(p as u16);
            for segment in self.segments(p) {
                let mut seen = BTreeSet::new();
                for (id, _) in segment {
                    if !seen.insert(*id) {
                        violations.push(Violation::DuplicateDelivery {
                            process: pid,
                            id: *id,
                        });
                    }
                    if self.track_submissions && !self.submitted.contains(id) {
                        violations.push(Violation::UnknownDelivery {
                            process: pid,
                            id: *id,
                        });
                    }
                }
            }
        }

        // Validity (checked against the known part of the common order;
        // positions compacted away by every correct process's snapshot
        // are unknown, but install stamps only cover prefixes that were
        // delivered somewhere).
        let common_order: Vec<MsgId> = common.iter().flatten().copied().collect();
        if let Some(must) = must_deliver {
            let delivered: BTreeSet<MsgId> = common_order.iter().copied().collect();
            for id in must {
                if !delivered.contains(id) {
                    violations.push(Violation::MissingDelivery { id: *id });
                }
            }
        }

        OracleReport {
            violations,
            deliveries: self.logs.iter().map(|l| l.len() as u64).sum(),
            common_order,
        }
    }
}

impl Harness for DeliveryOracle {
    fn on_delivery(&mut self, _api: &mut ClusterApi<'_>, pid: ProcessId, d: Delivery, at: VTime) {
        self.record(pid, d.msg, at);
    }

    fn on_restart(&mut self, _api: &mut ClusterApi<'_>, pid: ProcessId, _at: VTime) {
        self.note_restart(pid);
    }

    fn on_snapshot(
        &mut self,
        _api: &mut ClusterApi<'_>,
        pid: ProcessId,
        stamp: SnapshotStamp,
        _at: VTime,
    ) {
        self.note_snapshot(pid, &stamp);
    }

    fn on_config(
        &mut self,
        _api: &mut ClusterApi<'_>,
        pid: ProcessId,
        stamp: ConfigStamp,
        _at: VTime,
    ) {
        self.note_config(pid, stamp);
    }
}

/// Annotates one incarnation segment's deliveries with their positions
/// in the common order, honouring snapshot installs (`jumps`) that skip
/// a compacted prefix: at jump index `i`, delivery `i` and everything
/// after continue from the jump's position. Returns the positioned
/// entries and the end position (one past the last delivery, or the
/// last install's position when it trails the deliveries).
fn positioned(segment: &[(MsgId, VTime)], jumps: &[(usize, u64)]) -> (Vec<(u64, MsgId)>, u64) {
    let mut out = Vec::with_capacity(segment.len());
    let mut pos: u64 = 0;
    for (i, (id, _)) in segment.iter().enumerate() {
        for &(at, off) in jumps {
            if at == i {
                pos = pos.max(off);
            }
        }
        out.push((pos, *id));
        pos += 1;
    }
    // An install after the last delivery still moves the end position.
    for &(at, off) in jumps {
        if at == segment.len() {
            pos = pos.max(off);
        }
    }
    (out, pos)
}

/// Checks pre-collected per-process delivery orders (e.g. from a
/// [`fortika_net::CollectingHarness`]) of a **fully drained** run in
/// one call: strict identical-sequence agreement among `correct`
/// (see [`DeliveryOracle::check_drained`]), prefix consistency and
/// integrity everywhere, validity over `must_deliver`.
///
/// # Panics
///
/// Panics when `correct` is empty.
pub fn check_orders(
    orders: &[Vec<MsgId>],
    correct: &[ProcessId],
    must_deliver: &[MsgId],
) -> OracleReport {
    let mut oracle = DeliveryOracle::new(orders.len());
    for (p, order) in orders.iter().enumerate() {
        for &id in order {
            oracle.record(ProcessId(p as u16), id, VTime::ZERO);
        }
    }
    oracle.check_drained(correct, must_deliver)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(sender: u16, seq: u64) -> MsgId {
        MsgId::new(ProcessId(sender), seq)
    }

    #[test]
    fn clean_logs_pass() {
        let orders = vec![
            vec![id(0, 0), id(1, 0), id(0, 1)],
            vec![id(0, 0), id(1, 0), id(0, 1)],
            vec![id(0, 0), id(1, 0)], // crashed mid-run: prefix is fine
        ];
        let report = check_orders(
            &orders,
            &[ProcessId(0), ProcessId(1)],
            &[id(0, 0), id(1, 0), id(0, 1)],
        );
        report.assert_ok("clean");
        assert_eq!(report.deliveries, 8);
        assert_eq!(report.common_order.len(), 3);
    }

    #[test]
    fn disagreement_detected() {
        let orders = vec![vec![id(0, 0), id(1, 0)], vec![id(1, 0), id(0, 0)]];
        let report = check_orders(&orders, &[ProcessId(0), ProcessId(1)], &[]);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::Disagreement { index: 0, .. }]
        ));
    }

    #[test]
    fn lagging_correct_process_tolerated_mid_run_but_not_drained() {
        // A shorter-but-consistent correct log is a legal mid-run
        // snapshot (deliveries are not synchronized barriers) — but in
        // a drained run it means a correct process stopped delivering.
        let mut oracle = DeliveryOracle::new(2);
        oracle.record(ProcessId(0), id(0, 0), VTime::ZERO);
        oracle.record(ProcessId(0), id(1, 0), VTime::ZERO);
        oracle.record(ProcessId(1), id(0, 0), VTime::ZERO);
        let snapshot = oracle.check(&[ProcessId(0), ProcessId(1)]);
        snapshot.assert_ok("mid-run snapshot");
        assert_eq!(snapshot.common_order.len(), 2);
        let drained = oracle.check_drained(&[ProcessId(0), ProcessId(1)], &[]);
        assert!(matches!(
            drained.violations.as_slice(),
            [Violation::Disagreement {
                process: ProcessId(1),
                index: 1,
                got: None,
                ..
            }]
        ));
    }

    #[test]
    fn duplicate_detected() {
        let orders = vec![vec![id(0, 0), id(0, 0)], vec![id(0, 0)]];
        let report = check_orders(&orders, &[ProcessId(1)], &[]);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DuplicateDelivery { .. })));
    }

    #[test]
    fn unknown_delivery_detected_when_tracking() {
        let mut oracle = DeliveryOracle::new(1);
        oracle.note_submission(id(0, 0));
        oracle.record(ProcessId(0), id(0, 0), VTime::ZERO);
        oracle.record(ProcessId(0), id(5, 5), VTime::ZERO);
        let report = oracle.check(&[ProcessId(0)]);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::UnknownDelivery { .. }]
        ));
    }

    #[test]
    fn non_prefix_crashed_log_detected() {
        let orders = vec![
            vec![id(0, 0), id(1, 0)],
            vec![id(0, 0), id(1, 0)],
            vec![id(1, 0)], // crashed process delivered out of order
        ];
        let report = check_orders(&orders, &[ProcessId(0), ProcessId(1)], &[]);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::NonPrefixLog {
                process: ProcessId(2),
                index: 0
            }]
        ));
    }

    #[test]
    fn recovery_replay_is_not_a_duplicate() {
        // p1 delivers two messages, restarts, re-delivers the prefix
        // byte-identically and catches up past it: a clean recovery.
        let mut oracle = DeliveryOracle::new(2);
        for m in [id(0, 0), id(1, 0), id(0, 1)] {
            oracle.record(ProcessId(0), m, VTime::ZERO);
        }
        oracle.record(ProcessId(1), id(0, 0), VTime::ZERO);
        oracle.record(ProcessId(1), id(1, 0), VTime::ZERO);
        oracle.note_restart(ProcessId(1));
        for m in [id(0, 0), id(1, 0), id(0, 1)] {
            oracle.record(ProcessId(1), m, VTime::ZERO);
        }
        let report = oracle.check_drained(&[ProcessId(0), ProcessId(1)], &[]);
        report.assert_ok("clean crash-recovery replay");
        assert_eq!(report.common_order.len(), 3);
    }

    #[test]
    fn replay_divergence_detected() {
        // The restarted incarnation re-delivers in a different order.
        let mut oracle = DeliveryOracle::new(2);
        for m in [id(0, 0), id(1, 0)] {
            oracle.record(ProcessId(0), m, VTime::ZERO);
            oracle.record(ProcessId(1), m, VTime::ZERO);
        }
        oracle.note_restart(ProcessId(1));
        oracle.record(ProcessId(1), id(1, 0), VTime::ZERO);
        oracle.record(ProcessId(1), id(0, 0), VTime::ZERO);
        let report = oracle.check(&[ProcessId(0)]);
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::ReplayDivergence {
                    process: ProcessId(1),
                    segment: 0,
                    index: 0,
                }
            )),
            "got {:?}",
            report.violations
        );
    }

    #[test]
    fn pre_crash_segment_must_agree_with_common_order() {
        // The pre-crash incarnation delivered something the cluster
        // never ordered there: uniform agreement violated even though
        // the final incarnation looks clean.
        let mut oracle = DeliveryOracle::new(2);
        for m in [id(0, 0), id(1, 0)] {
            oracle.record(ProcessId(0), m, VTime::ZERO);
        }
        oracle.record(ProcessId(1), id(1, 7), VTime::ZERO); // rogue pre-crash delivery
        oracle.note_restart(ProcessId(1));
        oracle.record(ProcessId(1), id(0, 0), VTime::ZERO);
        let report = oracle.check(&[ProcessId(0), ProcessId(1)]);
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::NonPrefixLog {
                    process: ProcessId(1),
                    index: 0,
                }
            )),
            "got {:?}",
            report.violations
        );
    }

    #[test]
    fn incomplete_replay_flagged_only_when_drained() {
        // Restarted p2 re-delivered only part of its pre-crash log.
        let mut oracle = DeliveryOracle::new(2);
        for m in [id(0, 0), id(1, 0)] {
            oracle.record(ProcessId(0), m, VTime::ZERO);
            oracle.record(ProcessId(1), m, VTime::ZERO);
        }
        oracle.note_restart(ProcessId(1));
        oracle.record(ProcessId(1), id(0, 0), VTime::ZERO);
        // Mid-run: catch-up still in flight, fine.
        oracle.check(&[ProcessId(0)]).assert_ok("mid-run");
        // Drained: the replay (and the lagging final log) are failures.
        let drained = oracle.check_drained(&[ProcessId(0), ProcessId(1)], &[]);
        assert!(drained
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ReplayDivergence { index: 1, .. })));
    }

    #[test]
    fn replay_truncated_by_second_crash_is_not_flagged() {
        // p2 restarts, its replay is cut short by a *second* crash,
        // then a final incarnation replays everything: drained must
        // pass — only the final incarnation owes a complete replay.
        let mut oracle = DeliveryOracle::new(2);
        for m in [id(0, 0), id(1, 0)] {
            oracle.record(ProcessId(0), m, VTime::ZERO);
            oracle.record(ProcessId(1), m, VTime::ZERO);
        }
        oracle.note_restart(ProcessId(1));
        oracle.record(ProcessId(1), id(0, 0), VTime::ZERO); // truncated replay
        oracle.note_restart(ProcessId(1));
        for m in [id(0, 0), id(1, 0)] {
            oracle.record(ProcessId(1), m, VTime::ZERO);
        }
        let report = oracle.check_drained(&[ProcessId(0), ProcessId(1)], &[]);
        report.assert_ok("double crash-recovery");
    }

    fn stamp(
        last_included: u64,
        delivered_count: u64,
        digest: u64,
        installed: bool,
    ) -> SnapshotStamp {
        SnapshotStamp {
            last_included,
            delivered_count,
            digest,
            installed,
            app_state: bytes::Bytes::new(),
        }
    }

    #[test]
    fn snapshot_install_skips_replay_but_pins_the_tail() {
        // p1 crashes after delivering [a, b]; its revival installs a
        // snapshot covering the first three deliveries and then delivers
        // only the tail [d]. The compacted prefix owes no replay — but
        // the tail must still match the common order position by
        // position.
        let order = [id(0, 0), id(1, 0), id(0, 1), id(1, 1)];
        let mut oracle = DeliveryOracle::new(2);
        for m in order {
            oracle.record(ProcessId(0), m, VTime::ZERO);
        }
        oracle.record(ProcessId(1), order[0], VTime::ZERO);
        oracle.record(ProcessId(1), order[1], VTime::ZERO);
        oracle.note_restart(ProcessId(1));
        oracle.note_snapshot(ProcessId(1), &stamp(9, 3, 0xD1, true));
        oracle.record(ProcessId(1), order[3], VTime::ZERO);
        let report = oracle.check_drained(&[ProcessId(0), ProcessId(1)], &[]);
        report.assert_ok("snapshot-installed rejoin");
        assert_eq!(report.common_order.len(), 4);
    }

    #[test]
    fn snapshot_install_tail_divergence_detected() {
        // Same shape, but the post-install tail contradicts the common
        // order at its position.
        let order = [id(0, 0), id(1, 0), id(0, 1), id(1, 1)];
        let mut oracle = DeliveryOracle::new(2);
        for m in order {
            oracle.record(ProcessId(0), m, VTime::ZERO);
        }
        oracle.note_restart(ProcessId(1));
        oracle.note_snapshot(ProcessId(1), &stamp(9, 3, 0xD1, true));
        oracle.record(ProcessId(1), id(9, 9), VTime::ZERO); // rogue tail
        let report = oracle.check(&[ProcessId(0), ProcessId(1)]);
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::Disagreement {
                    process: ProcessId(1),
                    index: 3,
                    ..
                }
            )),
            "got {:?}",
            report.violations
        );
    }

    #[test]
    fn snapshot_installed_process_must_still_reach_the_frontier_when_drained() {
        let order = [id(0, 0), id(1, 0), id(0, 1), id(1, 1)];
        let mut oracle = DeliveryOracle::new(2);
        for m in order {
            oracle.record(ProcessId(0), m, VTime::ZERO);
        }
        oracle.note_restart(ProcessId(1));
        oracle.note_snapshot(ProcessId(1), &stamp(9, 3, 0xD1, true));
        // Mid-run: catching up, fine.
        oracle
            .check(&[ProcessId(0), ProcessId(1)])
            .assert_ok("mid-run");
        // Drained: the tail [d] never arrived at p1.
        let drained = oracle.check_drained(&[ProcessId(0), ProcessId(1)], &[]);
        assert!(
            drained.violations.iter().any(|v| matches!(
                v,
                Violation::Disagreement {
                    process: ProcessId(1),
                    index: 3,
                    got: None,
                    ..
                }
            )),
            "got {:?}",
            drained.violations
        );
    }

    #[test]
    fn compacted_prefix_still_cross_checked_behind_installed_reference() {
        // The furthest-ahead correct process installed a snapshot, so
        // its log starts at position 2 — the common order has holes in
        // the prefix. Two *full* correct processes disagree exactly
        // there: the oracle must still flag it (the holes are filled
        // from the full logs, not skipped).
        let a = id(0, 0);
        let b = id(1, 0);
        let c = id(0, 1);
        let d = id(1, 1);
        let mut oracle = DeliveryOracle::new(3);
        oracle.record(ProcessId(0), a, VTime::ZERO);
        oracle.record(ProcessId(0), b, VTime::ZERO);
        // p2 delivered the prefix in the opposite order: a real
        // total-order violation.
        oracle.record(ProcessId(1), b, VTime::ZERO);
        oracle.record(ProcessId(1), a, VTime::ZERO);
        // p3 rejoined via snapshot (covering the contested prefix) and
        // is furthest ahead — it becomes the reference.
        oracle.note_restart(ProcessId(2));
        oracle.note_snapshot(ProcessId(2), &stamp(9, 2, 0xD1, true));
        oracle.record(ProcessId(2), c, VTime::ZERO);
        oracle.record(ProcessId(2), d, VTime::ZERO);
        let report = oracle.check(&[ProcessId(0), ProcessId(1), ProcessId(2)]);
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::Disagreement {
                    process: ProcessId(1),
                    index: 0,
                    ..
                }
            )),
            "got {:?}",
            report.violations
        );
    }

    #[test]
    fn snapshot_digest_divergence_detected() {
        let mut oracle = DeliveryOracle::new(3);
        oracle.record(ProcessId(0), id(0, 0), VTime::ZERO);
        oracle.record(ProcessId(1), id(0, 0), VTime::ZERO);
        oracle.note_snapshot(ProcessId(0), &stamp(7, 10, 0xAAAA, false));
        oracle.note_snapshot(ProcessId(1), &stamp(7, 10, 0xAAAA, false));
        oracle
            .check(&[ProcessId(0), ProcessId(1)])
            .assert_ok("agreeing snapshots");
        // A third process folds a different digest for the same prefix.
        oracle.note_snapshot(ProcessId(2), &stamp(7, 10, 0xBBBB, false));
        let report = oracle.check(&[ProcessId(0), ProcessId(1)]);
        assert!(
            matches!(
                report.violations.as_slice(),
                [Violation::SnapshotDivergence {
                    process: ProcessId(2),
                    last_included: 7,
                }]
            ),
            "got {:?}",
            report.violations
        );
    }

    #[test]
    fn missing_delivery_detected() {
        let orders = vec![vec![id(0, 0)], vec![id(0, 0)]];
        let report = check_orders(
            &orders,
            &[ProcessId(0), ProcessId(1)],
            &[id(0, 0), id(1, 7)],
        );
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::MissingDelivery { id }] if *id == MsgId::new(ProcessId(1), 7)
        ));
    }

    #[test]
    #[should_panic(expected = "atomic broadcast contract violated")]
    fn assert_ok_panics_with_context() {
        let orders = vec![vec![id(0, 0)], vec![id(1, 1)]];
        check_orders(&orders, &[ProcessId(0), ProcessId(1)], &[]).assert_ok("test");
    }

    #[test]
    fn violations_display_readably() {
        let v = Violation::MissingDelivery { id: id(1, 7) };
        assert!(v.to_string().contains("p2#7"));
        let d = Violation::DuplicateDelivery {
            process: ProcessId(0),
            id: id(0, 3),
        };
        assert!(d.to_string().contains("twice"));
    }
}
