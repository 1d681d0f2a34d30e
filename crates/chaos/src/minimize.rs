//! Counterexample minimization: ddmin over a failing scenario's
//! event list.
//!
//! A fuzz campaign that trips the oracle hands back a *generated*
//! scenario — typically a pile of crash/restart cycles, fault windows
//! and noise, most of which is irrelevant to the violation. Debugging
//! wants the opposite: the smallest timeline that still fails.
//! [`minimize`] shrinks one into the other with Zeller's delta
//! debugging (ddmin): repeatedly re-run the deterministic simulator on
//! candidate sub-timelines, keep any candidate that still violates,
//! and tighten the granularity until no single event can be removed.
//!
//! Determinism does the heavy lifting here: because a `(scenario,
//! seed)` pair replays bit for bit, "still fails" is a pure predicate
//! and the minimized scenario is a permanent reproducer, not a
//! statistical one.

use crate::scenario::{Scenario, ScenarioEvent};

/// The result of [`minimize`]: the shrunk scenario plus how much work
/// it took.
#[derive(Debug, Clone)]
pub struct MinimizeReport {
    /// The locally minimal reproducer: removing any single remaining
    /// event (or lowering the pipeline depth to 1, where applicable)
    /// makes the predicate pass.
    pub scenario: Scenario,
    /// Events in the original scenario.
    pub original_events: usize,
    /// Predicate invocations spent (simulator re-runs, for a real
    /// check).
    pub tests: usize,
}

impl MinimizeReport {
    /// Events remaining in the minimized scenario.
    pub fn events(&self) -> usize {
        self.scenario.events().len()
    }
}

/// ddmin-shrinks a failing scenario to a locally minimal reproducer.
///
/// `check` must return `true` when its candidate scenario still
/// reproduces the failure (e.g. re-runs the deterministic simulator
/// under the same seed and compares [`Violation::kind`]). The input
/// scenario is expected to fail; if `check` rejects it, it is returned
/// unchanged (there is nothing to shrink toward).
///
/// The shrink works on two axes:
///
/// 1. **Event list** — classic ddmin: try dropping ever-smaller chunks
///    of the timeline, restarting coarse after every successful
///    reduction, until every single-event removal breaks reproduction.
///    The scenario's [`horizon`](Scenario::horizon) is derived from its
///    events, so dropping the latest events shrinks the horizon with
///    them.
/// 2. **Configuration axis** — a generated scenario may carry
///    `pipeline_depth > 1`; if resetting it to the seed-faithful depth 1
///    still reproduces, the axis was irrelevant and is dropped from the
///    reproducer.
///
/// The result is *locally* minimal (1-minimal): no single removal
/// keeps it failing. ddmin does not promise a global minimum, but in
/// practice a handful of events survive from dozens.
///
/// # Example
///
/// ```
/// use fortika_chaos::{minimize, Scenario};
/// use fortika_net::ProcessId;
/// use fortika_sim::VDur;
///
/// // A "failure" that only needs the two crashes, not the restart.
/// let noisy = Scenario::new()
///     .crash(ProcessId(0), VDur::millis(10))
///     .restart(ProcessId(0), VDur::millis(50))
///     .crash(ProcessId(1), VDur::millis(20))
///     .crash(ProcessId(2), VDur::millis(30));
/// let report = minimize(&noisy, |s| s.crashed().len() >= 2);
/// assert_eq!(report.events(), 2);
/// assert!(report.scenario.crashed().len() >= 2);
/// ```
///
/// [`Violation::kind`]: crate::Violation::kind
pub fn minimize(scenario: &Scenario, mut check: impl FnMut(&Scenario) -> bool) -> MinimizeReport {
    let original_events = scenario.events().len();
    let mut tests = 0usize;
    let mut fails = |events: &[ScenarioEvent], depth: usize| {
        tests += 1;
        check(&rebuild(events, depth))
    };

    let mut depth = scenario.pipeline_depth();
    let mut events = scenario.events().to_vec();
    if !fails(&events, depth) {
        // Not a failing scenario: nothing to shrink toward.
        return MinimizeReport {
            scenario: scenario.clone(),
            original_events,
            tests,
        };
    }

    // ddmin over the event list: partition into n chunks, try each
    // complement (timeline minus one chunk); on success restart coarse
    // (n back to 2), otherwise refine (n doubled) until chunks are
    // single events and none can go.
    let mut n = 2usize;
    while events.len() >= 2 {
        let chunk = events.len().div_ceil(n);
        let mut reduced = false;
        for i in 0..n {
            let (lo, hi) = (i * chunk, ((i + 1) * chunk).min(events.len()));
            if lo >= hi {
                continue;
            }
            let mut complement = Vec::with_capacity(events.len() - (hi - lo));
            complement.extend_from_slice(&events[..lo]);
            complement.extend_from_slice(&events[hi..]);
            if fails(&complement, depth) {
                events = complement;
                reduced = true;
                break;
            }
        }
        if reduced {
            n = 2; // restart coarse on the shrunk timeline
        } else {
            if n >= events.len() {
                break; // 1-minimal: no single event can be removed
            }
            n = (n * 2).min(events.len());
        }
    }

    // Configuration axis: drop pipelining from the reproducer if the
    // violation does not need it.
    if depth > 1 && fails(&events, 1) {
        depth = 1;
    }

    MinimizeReport {
        scenario: rebuild(&events, depth),
        original_events,
        tests,
    }
}

fn rebuild(events: &[ScenarioEvent], depth: usize) -> Scenario {
    let mut s = Scenario::new().with_pipeline_depth(depth);
    for ev in events {
        s = s.event(ev.clone());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortika_net::{LinkSelector, ProcessId};
    use fortika_sim::VDur;

    fn noisy_scenario() -> Scenario {
        let mut s = Scenario::new().with_pipeline_depth(3);
        for i in 0..10u64 {
            s = s.delay_spike(
                LinkSelector::All,
                2000,
                VDur::millis(i * 10),
                VDur::millis(i * 10 + 5),
            );
        }
        s.crash(ProcessId(0), VDur::millis(40))
            .crash(ProcessId(1), VDur::millis(60))
    }

    #[test]
    fn shrinks_to_the_relevant_core() {
        let s = noisy_scenario();
        assert_eq!(s.events().len(), 12);
        // "Fails" iff both crashes survive.
        let report = minimize(&s, |c| c.crashed().len() >= 2);
        assert_eq!(report.original_events, 12);
        assert_eq!(report.events(), 2);
        assert!(report
            .scenario
            .events()
            .iter()
            .all(|ev| matches!(ev, ScenarioEvent::Crash { .. })));
        // The irrelevant configuration axis is dropped too, and the
        // horizon shrank with the discarded tail.
        assert_eq!(report.scenario.pipeline_depth(), 1);
        assert_eq!(report.scenario.horizon(), VDur::millis(60));
        assert!(report.tests > 0);
    }

    #[test]
    fn preserves_pipeline_depth_when_the_failure_needs_it() {
        let s = Scenario::new()
            .with_pipeline_depth(4)
            .crash(ProcessId(0), VDur::millis(10));
        let report = minimize(&s, |c| c.pipeline_depth() > 1 && !c.crashed().is_empty());
        assert_eq!(report.scenario.pipeline_depth(), 4);
        assert_eq!(report.events(), 1);
    }

    #[test]
    fn non_failing_input_is_returned_unchanged() {
        let s = noisy_scenario();
        let report = minimize(&s, |_| false);
        assert_eq!(report.events(), s.events().len());
        assert_eq!(report.tests, 1);
    }

    #[test]
    fn single_event_reproducer_is_kept() {
        let s = Scenario::new().crash(ProcessId(2), VDur::millis(5));
        let report = minimize(&s, |c| !c.crashed().is_empty());
        assert_eq!(report.events(), 1);
    }

    #[test]
    fn minimization_is_deterministic() {
        let s = noisy_scenario();
        let a = minimize(&s, |c| c.crashed().len() >= 2);
        let b = minimize(&s, |c| c.crashed().len() >= 2);
        assert_eq!(format!("{:?}", a.scenario), format!("{:?}", b.scenario));
        assert_eq!(a.tests, b.tests);
    }
}
