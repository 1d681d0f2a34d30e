//! Scenario coverage: which protocol branches did a fuzz campaign
//! actually reach?
//!
//! A fuzz campaign that never triggers a round change, never pulls a
//! decision gap and never offers a snapshot is only *vacuously* green —
//! the recovery machinery it claims to audit never ran. The
//! [`CoverageReport`] makes that visible: it folds the protocol
//! counters every run already maintains (both stacks bump them under
//! the same logical names) into a per-branch tally, so a suite can
//! print — and assert on — what its campaign exercised.
//!
//! This is deliberately cheap instrumentation: no new hooks, no
//! tracing — just an aggregation over [`fortika_net::Counters`], which
//! the cluster hands out for free after every run.

use std::collections::BTreeMap;
use std::fmt;

use fortika_net::metrics::{abcast, cluster, consensus, mono};
use fortika_net::{Counters, Metric};
use fortika_trace::json::JsonWriter;

use crate::scenario::{Scenario, FAMILIES};

/// One protocol branch the report tracks: a logical name plus the
/// counters (one per stack, usually) that witness it.
struct Branch {
    name: &'static str,
    /// Counters summed into this branch (modular + monolithic spellings
    /// of the same protocol event).
    keys: &'static [Metric],
}

/// The protocol branches a chaos campaign can reach, with the counters
/// that witness each. Extend this table as new recovery paths grow
/// counters.
const BRANCHES: &[Branch] = &[
    Branch {
        name: "round_changes",
        keys: &[consensus::ROUND_CHANGES, mono::ROUND_CHANGES],
    },
    Branch {
        name: "progress_rotations",
        keys: &[consensus::PROGRESS_ROTATIONS, mono::PROGRESS_ROTATIONS],
    },
    Branch {
        name: "promises",
        keys: &[consensus::PROMISES, mono::PROMISES],
    },
    Branch {
        name: "direct_proposals",
        keys: &[consensus::DIRECT_PROPOSALS, mono::DIRECT_PROPOSALS],
    },
    Branch {
        name: "gap_pulls",
        keys: &[consensus::GAP_REQUESTS, mono::GAP_REQUESTS],
    },
    Branch {
        name: "tag_misses",
        keys: &[consensus::TAG_MISSES, mono::TAG_MISSES],
    },
    Branch {
        name: "state_transfers",
        keys: &[consensus::STATE_TRANSFERS, mono::STATE_TRANSFERS],
    },
    Branch {
        name: "snapshot_offers",
        keys: &[consensus::SNAPSHOT_TRANSFERS, mono::SNAPSHOT_TRANSFERS],
    },
    Branch {
        name: "snapshot_installs",
        keys: &[consensus::SNAPSHOTS_INSTALLED, mono::SNAPSHOTS_INSTALLED],
    },
    Branch {
        name: "join_requests",
        keys: &[consensus::JOIN_REQUESTS, mono::JOIN_REQUESTS],
    },
    Branch {
        name: "rejoins_completed",
        keys: &[consensus::REJOINS_COMPLETED, mono::REJOINS_COMPLETED],
    },
    Branch {
        name: "idle_proposals",
        keys: &[abcast::IDLE_PROPOSALS],
    },
    Branch {
        name: "pipelined_proposals",
        keys: &[abcast::PIPELINED_PROPOSALS, mono::PIPELINED_PROPOSALS],
    },
    Branch {
        name: "sender_retransmits",
        keys: &[abcast::RETRANSMITS],
    },
    Branch {
        name: "stale_incarnation_drops",
        keys: &[cluster::DROPPED_STALE_INCARNATION],
    },
];

/// Aggregated protocol-branch coverage of a fuzz campaign.
///
/// Feed it each run's final counters with [`absorb`](Self::absorb)
/// (e.g. `report.absorb(cluster.counters())`), then print it or query
/// individual branches. `Display` renders a table of every tracked
/// branch with its total event count and how many runs reached it.
///
/// # Example
///
/// ```
/// use fortika_chaos::CoverageReport;
/// use fortika_net::metrics::mono;
/// use fortika_net::Counters;
///
/// let mut report = CoverageReport::new();
/// let mut counters = Counters::new();
/// counters.bump(mono::ROUND_CHANGES, 3);
/// report.absorb(&counters);
/// assert_eq!(report.runs(), 1);
/// assert_eq!(report.total("round_changes"), 3);
/// assert!(report.reached("round_changes"));
/// assert!(!report.reached("gap_pulls"));
/// assert!(report.missed().contains(&"gap_pulls"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CoverageReport {
    runs: u64,
    /// branch name -> (total events, runs in which the branch fired).
    tallies: BTreeMap<&'static str, (u64, u64)>,
    /// family name -> runs absorbed whose scenario contained the family.
    family_runs: BTreeMap<&'static str, u64>,
    /// Co-occurrence matrix: family name -> branch name -> number of
    /// runs that contained the family *and* reached the branch. Only
    /// populated by [`absorb_with_scenario`](Self::absorb_with_scenario).
    matrix: BTreeMap<&'static str, BTreeMap<&'static str, u64>>,
}

impl CoverageReport {
    /// An empty report (zero runs).
    pub fn new() -> Self {
        CoverageReport::default()
    }

    /// Folds one run's final counters into the branch tallies and
    /// reports, per branch, whether the run reached it.
    fn fold_counters(&mut self, counters: &Counters) -> Vec<(&'static str, bool)> {
        self.runs += 1;
        let mut reached = Vec::with_capacity(BRANCHES.len());
        for branch in BRANCHES {
            let hits: u64 = branch.keys.iter().map(|&k| counters.count(k)).sum();
            let entry = self.tallies.entry(branch.name).or_insert((0, 0));
            entry.0 += hits;
            entry.1 += u64::from(hits > 0);
            reached.push((branch.name, hits > 0));
        }
        reached
    }

    /// Folds one run's final counters into the report.
    pub fn absorb(&mut self, counters: &Counters) {
        let _ = self.fold_counters(counters);
    }

    /// Folds one run's final counters *and its scenario* into the
    /// report: besides the per-branch tallies of
    /// [`absorb`](Self::absorb), every (event family × reached branch)
    /// pair of the run is credited in the co-occurrence matrix
    /// ([`cell`](Self::cell)). This is the event-level coverage the
    /// steered generator ([`crate::ChaosProfile::steered`]) feeds on.
    ///
    /// # Example
    ///
    /// ```
    /// use fortika_chaos::{CoverageReport, Scenario};
    /// use fortika_net::metrics::mono;
    /// use fortika_net::{Counters, ProcessId};
    /// use fortika_sim::VDur;
    ///
    /// let mut report = CoverageReport::new();
    /// let mut counters = Counters::new();
    /// counters.bump(mono::ROUND_CHANGES, 2);
    /// let scenario = Scenario::new().crash(ProcessId(0), VDur::millis(5));
    /// report.absorb_with_scenario(&counters, &scenario);
    /// assert_eq!(report.cell("crash", "round_changes"), 1);
    /// assert_eq!(report.cell("crash", "gap_pulls"), 0);
    /// assert_eq!(report.family_runs("crash"), 1);
    /// ```
    pub fn absorb_with_scenario(&mut self, counters: &Counters, scenario: &Scenario) {
        let reached = self.fold_counters(counters);
        for family in scenario.families() {
            *self.family_runs.entry(family).or_insert(0) += 1;
            let row = self.matrix.entry(family).or_default();
            for (branch, hit) in &reached {
                if *hit {
                    *row.entry(branch).or_insert(0) += 1;
                }
            }
        }
    }

    /// Number of runs absorbed.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Total events of `branch` across all absorbed runs (zero for
    /// unknown branches).
    pub fn total(&self, branch: &str) -> u64 {
        self.tallies.get(branch).map_or(0, |(t, _)| *t)
    }

    /// True when at least one absorbed run reached `branch`.
    pub fn reached(&self, branch: &str) -> bool {
        self.total(branch) > 0
    }

    /// The tracked branches no absorbed run ever reached — the holes in
    /// the campaign (a non-empty result is not a failure by itself:
    /// e.g. a restart-free campaign never completes a rejoin).
    pub fn missed(&self) -> Vec<&'static str> {
        BRANCHES
            .iter()
            .map(|b| b.name)
            .filter(|name| !self.reached(name))
            .collect()
    }

    /// All tracked branch names, in table order.
    pub fn branch_names() -> Vec<&'static str> {
        BRANCHES.iter().map(|b| b.name).collect()
    }

    /// All event-family names of the co-occurrence matrix, in canonical
    /// order: the eleven [`ScenarioEvent::family`] names plus the
    /// `pipelined` configuration axis.
    ///
    /// [`ScenarioEvent::family`]: crate::ScenarioEvent::family
    pub fn family_names() -> Vec<&'static str> {
        FAMILIES.to_vec()
    }

    /// Runs absorbed via [`absorb_with_scenario`](Self::absorb_with_scenario)
    /// whose scenario contained `family` (zero for unknown families).
    pub fn family_runs(&self, family: &str) -> u64 {
        self.family_runs.get(family).copied().unwrap_or(0)
    }

    /// One cell of the co-occurrence matrix: in how many absorbed runs
    /// did a scenario containing `family` reach `branch`?
    pub fn cell(&self, family: &str, branch: &str) -> u64 {
        self.matrix
            .get(family)
            .and_then(|row| row.get(branch))
            .copied()
            .unwrap_or(0)
    }

    /// All non-zero matrix cells as `(family, branch)` pairs, in
    /// canonical (family order × branch order) order — the campaign's
    /// event-level coverage surface. Steered-vs-unsteered comparisons
    /// set-difference these.
    pub fn reached_cells(&self) -> Vec<(&'static str, &'static str)> {
        let mut out = Vec::new();
        for family in FAMILIES {
            for branch in BRANCHES {
                if self.cell(family, branch.name) > 0 {
                    out.push((*family, branch.name));
                }
            }
        }
        out
    }

    /// The coverage deficit of `family`: the fraction of tracked
    /// branches no absorbed run containing the family has reached.
    /// 1.0 for a family never absorbed (everything about it is
    /// unknown), 0.0 once its matrix row is full. This is the steering
    /// signal of [`crate::ChaosProfile::steered`].
    pub fn family_deficit(&self, family: &str) -> f64 {
        let total = BRANCHES.len() as f64;
        let row_reached = self
            .matrix
            .get(family)
            .map_or(0, |row| row.values().filter(|c| **c > 0).count());
        1.0 - row_reached as f64 / total
    }

    /// Renders the report as a JSON object: run count, per-branch
    /// totals (`{"events": …, "runs_reached": …}` in table order), the
    /// family × branch co-occurrence matrix (every family in canonical
    /// order, with its run count and non-zero cells) and the list of
    /// missed branches. Deterministic — same report, same bytes — so CI
    /// can archive and diff it across campaigns.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(4096);
        w.num("{\n  \"runs\": ", self.runs);
        w.raw(",\n  \"branches\": {\n");
        w.join(BRANCHES, ",\n", |w, branch| {
            let (total, in_runs) = self.tallies.get(branch.name).copied().unwrap_or((0, 0));
            w.quoted("    ", branch.name);
            w.num(": {\"events\": ", total);
            w.num(", \"runs_reached\": ", in_runs);
            w.raw("}");
        });
        w.raw("\n  },\n  \"families\": {\n");
        w.join(FAMILIES, ",\n", |w, family| {
            w.quoted("    ", family);
            w.num(": {\"runs\": ", self.family_runs(family));
            w.raw(", \"cells\": {");
            let cells: Vec<_> = BRANCHES
                .iter()
                .map(|branch| (branch.name, self.cell(family, branch.name)))
                .filter(|&(_, cell)| cell > 0)
                .collect();
            w.join(&cells, ", ", |w, &(branch, cell)| {
                w.quoted("", branch);
                w.num(": ", cell);
            });
            w.raw("}}");
        });
        w.raw("\n  },\n  \"missed\": [");
        w.join(&self.missed(), ", ", |w, name| w.quoted("", name));
        w.raw("]\n}\n");
        w.finish()
    }

    /// Writes [`to_json`](Self::to_json) to `path`, creating parent
    /// directories as needed. The fuzz suites and the sweep tests call
    /// this with a `target/coverage-*.json` path so CI can archive which
    /// recovery branches each campaign or sweep reached.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }
}

impl fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "scenario coverage over {} runs:", self.runs)?;
        for branch in BRANCHES {
            let (total, in_runs) = self.tallies.get(branch.name).copied().unwrap_or((0, 0));
            let mark = if total > 0 { "reached" } else { "  -    " };
            writeln!(
                f,
                "  {:<24} {mark} {total:>10} events in {in_runs}/{} runs",
                branch.name, self.runs
            )?;
        }
        if !self.family_runs.is_empty() {
            writeln!(f, "event-family co-occurrence (cells reached):")?;
            let total = BRANCHES.len();
            for family in FAMILIES {
                let row_reached = self
                    .matrix
                    .get(family)
                    .map_or(0, |row| row.values().filter(|c| **c > 0).count());
                writeln!(
                    f,
                    "  {:<16} {:>3} runs, {row_reached:>2}/{total} branches",
                    family,
                    self.family_runs(family)
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorbs_both_stacks_spellings() {
        let mut report = CoverageReport::new();
        let mut modular = Counters::new();
        modular.bump(consensus::GAP_REQUESTS, 2);
        modular.bump(abcast::IDLE_PROPOSALS, 1);
        let mut monolith = Counters::new();
        monolith.bump(mono::GAP_REQUESTS, 5);
        report.absorb(&modular);
        report.absorb(&monolith);
        assert_eq!(report.runs(), 2);
        assert_eq!(report.total("gap_pulls"), 7);
        assert!(report.reached("idle_proposals"));
        assert!(!report.reached("snapshot_offers"));
    }

    #[test]
    fn missed_lists_unreached_branches() {
        let report = CoverageReport::new();
        assert_eq!(report.missed().len(), CoverageReport::branch_names().len());
        let mut report = report;
        let mut c = Counters::new();
        c.bump(cluster::DROPPED_STALE_INCARNATION, 1);
        report.absorb(&c);
        assert!(!report.missed().contains(&"stale_incarnation_drops"));
        assert!(report.missed().contains(&"round_changes"));
    }

    #[test]
    fn json_is_valid_and_deterministic() {
        let mut report = CoverageReport::new();
        let mut c = Counters::new();
        c.bump(mono::ROUND_CHANGES, 2);
        c.bump(consensus::GAP_REQUESTS, 1);
        report.absorb(&c);
        let json = report.to_json();
        assert_eq!(json, report.to_json());
        assert!(json.contains("\"runs\": 1"));
        assert!(json.contains("\"round_changes\": {\"events\": 2, \"runs_reached\": 1}"));
        assert!(json.contains("\"gap_pulls\": {\"events\": 1, \"runs_reached\": 1}"));
        assert!(json.contains("\"missed\": ["));
        assert!(json.contains("\"snapshot_offers\""));
        // Crude structural check: balanced braces, ends with newline.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn matrix_credits_only_the_scenarios_families() {
        use fortika_net::{LinkSelector, ProcessId};
        use fortika_sim::VDur;

        let mut report = CoverageReport::new();
        let crashy = Scenario::new().crash(ProcessId(0), VDur::millis(5));
        let lossy = Scenario::new().lossy(LinkSelector::All, 0.2, VDur::ZERO, VDur::millis(10));

        let mut c = Counters::new();
        c.bump(mono::ROUND_CHANGES, 2);
        report.absorb_with_scenario(&c, &crashy);
        let mut c2 = Counters::new();
        c2.bump(consensus::GAP_REQUESTS, 1);
        c2.bump(mono::ROUND_CHANGES, 1);
        report.absorb_with_scenario(&c2, &lossy);
        // Plain absorb contributes to tallies but not to the matrix.
        report.absorb(&c);

        assert_eq!(report.runs(), 3);
        assert_eq!(report.family_runs("crash"), 1);
        assert_eq!(report.family_runs("lossy"), 1);
        assert_eq!(report.family_runs("pipelined"), 0);
        assert_eq!(report.cell("crash", "round_changes"), 1);
        assert_eq!(report.cell("crash", "gap_pulls"), 0);
        assert_eq!(report.cell("lossy", "gap_pulls"), 1);
        assert_eq!(report.cell("lossy", "round_changes"), 1);
        assert_eq!(
            report.reached_cells(),
            vec![
                ("crash", "round_changes"),
                ("lossy", "round_changes"),
                ("lossy", "gap_pulls"),
            ]
        );
        // Deficits: crash reached one branch, unknown families none.
        let total = CoverageReport::branch_names().len() as f64;
        assert!((report.family_deficit("crash") - (1.0 - 1.0 / total)).abs() < 1e-12);
        assert!((report.family_deficit("partition") - 1.0).abs() < 1e-12);
        // Matrix cells land in the JSON, all families serialized.
        let json = report.to_json();
        assert!(json.contains("\"families\": {"));
        assert!(json.contains("\"crash\": {\"runs\": 1, \"cells\": {\"round_changes\": 1}}"));
        assert!(json.contains("\"pipelined\": {\"runs\": 0, \"cells\": {}}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn family_vocabulary_is_stable() {
        let families = CoverageReport::family_names();
        assert_eq!(families.len(), 10);
        assert_eq!(families[0], "crash");
        assert!(families.contains(&"pipelined"));
        // The deficit of an empty report is total for every family.
        let empty = CoverageReport::new();
        for family in families {
            assert_eq!(empty.family_deficit(family), 1.0);
        }
    }

    #[test]
    fn display_renders_every_branch() {
        let mut report = CoverageReport::new();
        let mut c = Counters::new();
        c.bump(mono::ROUND_CHANGES, 1);
        report.absorb(&c);
        let text = report.to_string();
        for name in CoverageReport::branch_names() {
            assert!(text.contains(name), "missing branch {name} in display");
        }
        assert!(text.contains("reached"));
    }
}
