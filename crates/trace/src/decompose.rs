//! Per-decision latency decomposition.
//!
//! Given a trace and a latency window — from submission `t0` to the
//! earliest `adeliver` at the delivering process — partition the window
//! into four disjoint components:
//!
//! * **durability** — CPU time the delivering process spent on stable
//!   writes / snapshot work,
//! * **cpu** — its remaining CPU-busy time,
//! * **transmission** — time covered by messages in flight *towards*
//!   the process (NIC + degraded-link serialization + propagation),
//!   excluding instants the CPU was already busy,
//! * **queueing** — everything else: the message (or the work it
//!   depends on) sat in a queue — behind the CPU of *another* process,
//!   behind flow control, or behind the protocol's own batching.
//!
//! The partition is exhaustive and exclusive by construction, so the
//! four components **sum exactly** to the end-to-end window in integer
//! nanoseconds — the property the acceptance tests check.

use std::collections::BTreeMap;

use crate::event::{TraceData, TraceEvent, TraceEvents};

/// One latency window to decompose: the paper's `t0 → adeliver` span
/// observed at process `pid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// The process whose delivery closed the window.
    pub pid: u16,
    /// Submission instant (`t0`), nanoseconds.
    pub t0_ns: u64,
    /// Earliest-delivery instant, nanoseconds.
    pub te_ns: u64,
}

/// The four-way split of one latency window, in nanoseconds.
///
/// Invariant: `queueing_ns + transmission_ns + cpu_ns + durability_ns
/// == total_ns`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecompSample {
    /// End-to-end window length (`te − t0`).
    pub total_ns: u64,
    /// Time not explained by CPU or transmission: queueing/batching.
    pub queueing_ns: u64,
    /// Time covered by in-flight messages towards the process.
    pub transmission_ns: u64,
    /// CPU-busy time at the process, durability excluded.
    pub cpu_ns: u64,
    /// Durability (stable write / snapshot) CPU time at the process.
    pub durability_ns: u64,
    /// The window opens before retained history begins: the ring
    /// evicted events that may have explained part of it, so
    /// `queueing_ns` is an upper bound rather than a measurement.
    pub truncated: bool,
}

/// Decomposes one latency window against the recorded events.
///
/// Uses `Handler` events for the process's CPU-busy intervals (and
/// their durability share) and `Send` events addressed to the process
/// for in-flight intervals. Events evicted from the ring simply shrink
/// the explained share — unexplained time lands in `queueing_ns`, never
/// in a negative component — and the sample is flagged
/// [`truncated`](DecompSample::truncated).
///
/// Answers from the trace's per-process timeline index: the first call
/// on a trace builds it in `O(E log E)`, every call then costs a
/// handful of binary searches.
pub fn decompose_window(events: &TraceEvents, w: &WindowSpec) -> DecompSample {
    let (lo, hi) = (w.t0_ns, w.te_ns.max(w.t0_ns));
    let total = hi - lo;
    let (cpu_total, durability, transmission) = match events.index().timelines.get(&w.pid) {
        Some(t) => {
            let cpu_total = t.busy.measure_in(lo, hi);
            (
                cpu_total,
                t.durability_in(lo, hi).min(cpu_total),
                t.transit.measure_in(lo, hi),
            )
        }
        None => (0, 0, 0),
    };
    DecompSample {
        total_ns: total,
        queueing_ns: total - cpu_total - transmission,
        transmission_ns: transmission,
        cpu_ns: cpu_total - durability,
        durability_ns: durability,
        truncated: w.t0_ns < events.retained_from_ns(),
    }
}

/// Per-process timelines of a frozen trace, precomputed so that a
/// window is answered without rescanning the events.
#[derive(Debug, Clone)]
pub(crate) struct TimelineIndex {
    /// Keyed by pid. Ordered, as every map in a protocol crate is:
    /// `build` iterates it.
    timelines: BTreeMap<u16, Timeline>,
}

/// What one process's windows are measured against.
#[derive(Debug, Clone, Default)]
struct Timeline {
    /// Union of the handlers' CPU-busy intervals.
    busy: Cover,
    /// Union of in-flight intervals of messages addressed to the
    /// process, minus `busy`.
    transit: Cover,
    /// Handlers with `cpu_ns > 0`, ascending by start.
    handlers: Vec<HandlerRow>,
    /// `durability_before[i]` = durability of `handlers[..i]`.
    durability_before: Vec<u64>,
}

#[derive(Debug, Clone, Copy)]
struct HandlerRow {
    start: u64,
    end: u64,
    durability_ns: u64,
    /// Latest `end` among this row and every earlier one. Handlers on a
    /// serial CPU never overlap, so this is normally `end`; where a
    /// recording artefact makes them overlap it is what keeps the
    /// binary searches below exact.
    max_end: u64,
}

impl HandlerRow {
    /// The handler's durability share pro-rated by how much of the
    /// handler falls inside `[lo, hi)`; zero if none does.
    fn prorated_durability(&self, lo: u64, hi: u64) -> u64 {
        let (cs, ct) = (self.start.max(lo), self.end.min(hi));
        if cs >= ct {
            return 0;
        }
        let cpu_ns = self.end - self.start;
        (u128::from(self.durability_ns) * u128::from(ct - cs) / u128::from(cpu_ns)) as u64
    }
}

impl Timeline {
    /// Sum over handlers of [`HandlerRow::prorated_durability`].
    fn durability_in(&self, lo: u64, hi: u64) -> u64 {
        let rows = &self.handlers;
        // Rows before `first` end at or before `lo`; rows from `until`
        // start at or after `hi`: neither touches the window. A row
        // starts before it ends, so `first <= inside_from` below.
        let first = rows.partition_point(|r| r.max_end <= lo);
        let until = rows.partition_point(|r| r.start < hi);
        // Rows in `inside` start at or after `lo` and end at or before
        // `hi`: their whole durability counts, as a prefix difference.
        let inside_from = rows.partition_point(|r| r.start < lo);
        let inside_until = rows
            .partition_point(|r| r.max_end <= hi)
            .clamp(inside_from, until);
        // What is left straddles an edge of the window (one row per
        // edge unless handlers overlap) and is pro-rated row by row.
        let edges = rows[first..inside_from]
            .iter()
            .chain(&rows[inside_until..until]);
        self.durability_before[inside_until] - self.durability_before[inside_from]
            + edges.map(|r| r.prorated_durability(lo, hi)).sum::<u64>()
    }
}

/// A disjoint ascending interval set with running measure, so the
/// measure of its intersection with any window is two binary searches.
#[derive(Debug, Clone, Default)]
struct Cover {
    /// `(start, end, total length of the intervals up to and including
    /// this one)`.
    intervals: Vec<(u64, u64, u64)>,
}

impl Cover {
    fn new(disjoint: &[(u64, u64)]) -> Self {
        let mut covered = 0;
        Cover {
            intervals: disjoint
                .iter()
                .map(|&(s, t)| {
                    covered += t - s;
                    (s, t, covered)
                })
                .collect(),
        }
    }

    /// Measure of the set below `x`.
    fn measure_below(&self, x: u64) -> u64 {
        let k = self.intervals.partition_point(|&(s, _, _)| s < x);
        match k.checked_sub(1).map(|i| self.intervals[i]) {
            Some((_, t, covered)) => covered - t.saturating_sub(x),
            None => 0,
        }
    }

    /// Measure of the set inside `[lo, hi)`, `lo <= hi`.
    fn measure_in(&self, lo: u64, hi: u64) -> u64 {
        self.measure_below(hi) - self.measure_below(lo)
    }
}

impl TimelineIndex {
    pub(crate) fn build(events: &[TraceEvent]) -> Self {
        // Per process: handlers as (start, end, durability), and
        // in-flight intervals from the sender's handler completion
        // (send issue) to scheduled arrival.
        type Raw = (Vec<(u64, u64, u64)>, Vec<(u64, u64)>);
        let mut raw: BTreeMap<u16, Raw> = BTreeMap::new();
        for e in events {
            match e.data {
                TraceData::Handler {
                    pid,
                    start_ns,
                    cpu_ns,
                    durability_ns,
                    ..
                } if cpu_ns > 0 => {
                    let row = (start_ns, start_ns + cpu_ns, durability_ns);
                    raw.entry(pid).or_default().0.push(row);
                }
                TraceData::Send {
                    dst, arrival_ns, ..
                } if e.at_ns < arrival_ns => {
                    raw.entry(dst).or_default().1.push((e.at_ns, arrival_ns));
                }
                _ => {}
            }
        }
        let timelines = raw
            .into_iter()
            .map(|(pid, (mut handlers, transit))| {
                handlers.sort_unstable();
                // Handlers on one serial CPU never overlap, but merge
                // anyway so the measure is robust to any recording
                // artefact.
                let busy = union(handlers.iter().map(|&(s, t, _)| (s, t)).collect());
                let transit = subtract(&union(transit), &busy);
                let mut durability_before = Vec::with_capacity(handlers.len() + 1);
                durability_before.push(0);
                let mut max_end = 0;
                let handlers = handlers
                    .into_iter()
                    .map(|(start, end, durability_ns)| {
                        max_end = max_end.max(end);
                        durability_before
                            .push(durability_before[durability_before.len() - 1] + durability_ns);
                        HandlerRow {
                            start,
                            end,
                            durability_ns,
                            max_end,
                        }
                    })
                    .collect();
                let timeline = Timeline {
                    busy: Cover::new(&busy),
                    transit: Cover::new(&transit),
                    handlers,
                    durability_before,
                };
                (pid, timeline)
            })
            .collect();
        TimelineIndex { timelines }
    }
}

/// Sorts and merges intervals into a disjoint ascending set.
fn union(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (s, t) in iv {
        match out.last_mut() {
            Some((_, pt)) if s <= *pt => *pt = (*pt).max(t),
            _ => out.push((s, t)),
        }
    }
    out
}

/// `a − b` for disjoint ascending interval sets.
fn subtract(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut bi = 0;
    for &(mut s, t) in a {
        while s < t {
            while bi < b.len() && b[bi].1 <= s {
                bi += 1;
            }
            match b.get(bi) {
                Some(&(bs, bt)) if bs < t => {
                    if s < bs {
                        out.push((s, bs));
                    }
                    s = bt.max(s);
                }
                _ => {
                    out.push((s, t));
                    s = t;
                }
            }
        }
    }
    union(out)
}

/// Mean and percentiles of one latency component, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ComponentSummary {
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Median (nearest-rank).
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
}

impl ComponentSummary {
    fn from_ns(values_ns: &mut [u64]) -> Self {
        if values_ns.is_empty() {
            return ComponentSummary::default();
        }
        values_ns.sort_unstable();
        let ms = |ns: u64| ns as f64 / 1e6;
        let pick = |v: &[u64], p: f64| {
            let idx = ((v.len() - 1) as f64 * p).round() as usize;
            ms(v[idx])
        };
        let sum: u128 = values_ns.iter().map(|&v| u128::from(v)).sum();
        ComponentSummary {
            mean_ms: sum as f64 / values_ns.len() as f64 / 1e6,
            p50_ms: pick(values_ns, 0.50),
            p90_ms: pick(values_ns, 0.90),
            p99_ms: pick(values_ns, 0.99),
        }
    }
}

/// Aggregated latency decomposition across all measured decisions.
///
/// Component means sum to the total mean (within float rounding),
/// because every per-sample split is exact in integer nanoseconds.
/// Percentiles are per-component (each component's own distribution),
/// so they do not sum — only the means do.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyDecomposition {
    /// Number of latency samples decomposed.
    pub samples: usize,
    /// How many of them open before retained history begins (see
    /// [`DecompSample::truncated`]): their unexplained time is booked
    /// as queueing, so a large share biases the component means.
    pub truncated_samples: usize,
    /// End-to-end window.
    pub total: ComponentSummary,
    /// Queueing/batching share.
    pub queueing: ComponentSummary,
    /// In-flight transmission share.
    pub transmission: ComponentSummary,
    /// CPU share (durability excluded).
    pub cpu: ComponentSummary,
    /// Durability share.
    pub durability: ComponentSummary,
}

impl LatencyDecomposition {
    /// Aggregates per-sample splits into means and percentiles.
    pub fn from_samples(samples: &[DecompSample]) -> Self {
        let col = |f: fn(&DecompSample) -> u64| {
            let mut v: Vec<u64> = samples.iter().map(f).collect();
            ComponentSummary::from_ns(&mut v)
        };
        LatencyDecomposition {
            samples: samples.len(),
            truncated_samples: samples.iter().filter(|s| s.truncated).count(),
            total: col(|s| s.total_ns),
            queueing: col(|s| s.queueing_ns),
            transmission: col(|s| s.transmission_ns),
            cpu: col(|s| s.cpu_ns),
            durability: col(|s| s.durability_ns),
        }
    }

    /// Sum of the component means, in milliseconds — equals
    /// `total.mean_ms` up to float rounding (the acceptance check).
    pub fn component_mean_sum_ms(&self) -> f64 {
        self.queueing.mean_ms
            + self.transmission.mean_ms
            + self.cpu.mean_ms
            + self.durability.mean_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceBuffer;
    use crate::test_rng::Rng;

    /// The definition the index is checked against: two linear passes
    /// over the events per window, clipping every interval to it.
    fn decompose_window_scan(events: &TraceEvents, w: &WindowSpec) -> DecompSample {
        let (lo, hi) = (w.t0_ns, w.te_ns.max(w.t0_ns));
        let total = hi - lo;

        let mut busy: Vec<(u64, u64)> = Vec::new();
        let mut durability: u64 = 0;
        for e in events {
            if let TraceData::Handler {
                pid,
                start_ns,
                cpu_ns,
                durability_ns,
                ..
            } = e.data
            {
                if pid != w.pid || cpu_ns == 0 {
                    continue;
                }
                let (cs, ct) = (start_ns.max(lo), (start_ns + cpu_ns).min(hi));
                if cs >= ct {
                    continue;
                }
                busy.push((cs, ct));
                durability +=
                    (u128::from(durability_ns) * u128::from(ct - cs) / u128::from(cpu_ns)) as u64;
            }
        }
        let busy = union(busy);
        let cpu_total = measure(&busy);
        let durability = durability.min(cpu_total);

        let mut transit: Vec<(u64, u64)> = Vec::new();
        for e in events {
            if let TraceData::Send {
                dst, arrival_ns, ..
            } = e.data
            {
                if dst != w.pid {
                    continue;
                }
                let (cs, ct) = (e.at_ns.max(lo), arrival_ns.min(hi));
                if cs < ct {
                    transit.push((cs, ct));
                }
            }
        }
        let transmission = measure(&subtract(&union(transit), &busy));

        DecompSample {
            total_ns: total,
            queueing_ns: total - cpu_total - transmission,
            transmission_ns: transmission,
            cpu_ns: cpu_total - durability,
            durability_ns: durability,
            truncated: w.t0_ns < events.retained_from_ns(),
        }
    }

    /// Total length of a disjoint interval set.
    fn measure(iv: &[(u64, u64)]) -> u64 {
        iv.iter().map(|(s, t)| t - s).sum()
    }

    /// Random traces — overlapping, zero-length and over-durable
    /// handlers, sends that arrive at or before they leave, several
    /// pids, with and without ring eviction — against random windows
    /// (inverted, empty, beyond the horizon, unknown pid): the index
    /// must equal the scan on every one.
    #[test]
    fn index_equals_scan_on_random_traces() {
        let mut rng = Rng(0x0f02_71ca);
        let mut windows = 0u32;
        let mut truncated = 0u32;
        for case in 0..300u64 {
            let horizon = [50, 1_000, 100_000][(case % 3) as usize];
            let pids = 1 + rng.below(4) as u16;
            let events = rng.below(120) as usize;
            // A third of the cases overflow the ring.
            let capacity = if case % 3 == 0 {
                1 + events / 2
            } else {
                events + 1
            };
            let mut b = TraceBuffer::new(capacity);
            for _ in 0..events {
                let pid = rng.below(u64::from(pids)) as u16;
                let at = rng.below(horizon);
                if rng.below(2) == 0 {
                    let cpu = match rng.below(4) {
                        0 => 0,
                        1 => 1 + rng.below(horizon),
                        _ => 1 + rng.below(1 + horizon / 20),
                    };
                    let dur = match rng.below(3) {
                        0 => 0,
                        1 => rng.below(cpu + 1),
                        _ => rng.below(2 * cpu + 2),
                    };
                    handler(&mut b, pid, at, cpu, dur);
                } else {
                    // May arrive before it was sent: an empty interval.
                    let arrival = (at + rng.below(1 + horizon / 10)).saturating_sub(rng.below(8));
                    send_to(&mut b, at, pid, arrival);
                }
            }
            let t = b.finish();
            for _ in 0..40 {
                let t0 = rng.below(horizon + horizon / 4);
                let w = WindowSpec {
                    // One pid beyond those recorded.
                    pid: rng.below(u64::from(pids) + 1) as u16,
                    t0_ns: t0,
                    te_ns: match rng.below(8) {
                        0 => t0,
                        1 => rng.below(t0 + 1),
                        _ => t0 + rng.below(horizon),
                    },
                };
                let got = decompose_window(&t.events, &w);
                assert_eq!(
                    got,
                    decompose_window_scan(&t.events, &w),
                    "case {case}, {w:?}, events {:#?}",
                    t.events
                );
                assert_eq!(
                    got.queueing_ns + got.transmission_ns + got.cpu_ns + got.durability_ns,
                    got.total_ns
                );
                windows += 1;
                truncated += u32::from(got.truncated);
            }
        }
        // The generator reaches both sides of the truncation flag.
        assert!(
            truncated > 0 && truncated < windows,
            "{truncated}/{windows}"
        );
    }

    #[test]
    fn windows_before_retained_history_are_flagged() {
        let mut b = TraceBuffer::new(2);
        handler(&mut b, 0, 0, 100, 0); // evicted
        handler(&mut b, 0, 200, 100, 0); // at_ns 300: oldest retained
        handler(&mut b, 0, 400, 100, 0);
        let t = b.finish();
        assert_eq!(t.dropped, 1);
        let window = |t0_ns| WindowSpec {
            pid: 0,
            t0_ns,
            te_ns: 500,
        };
        let early = decompose_window(&t.events, &window(299));
        let late = decompose_window(&t.events, &window(300));
        assert!(early.truncated && !late.truncated);
        // The flag reports; it does not change what is measured.
        assert_eq!(early.cpu_ns, 101);
        assert_eq!(early.queueing_ns, 100);
        let d = LatencyDecomposition::from_samples(&[early, late]);
        assert_eq!((d.samples, d.truncated_samples), (2, 1));

        // Nothing evicted: history is complete from instant zero.
        let mut b = TraceBuffer::new(8);
        handler(&mut b, 0, 200, 100, 0);
        let t = b.finish();
        assert!(!decompose_window(&t.events, &window(0)).truncated);
    }

    fn handler(b: &mut TraceBuffer, pid: u16, start: u64, cpu: u64, dur: u64) {
        b.push(
            start + cpu,
            TraceData::Handler {
                pid,
                inc: 0,
                start_ns: start,
                cpu_ns: cpu,
                durability_ns: dur,
            },
        );
    }

    fn send_to(b: &mut TraceBuffer, at: u64, dst: u16, arrival: u64) {
        b.push(
            at,
            TraceData::Send {
                src: 9,
                dst,
                kind: "k",
                bytes: 10,
                inc: 0,
                tx_end_ns: at,
                arrival_ns: arrival,
                queue_ns: 0,
            },
        );
    }

    #[test]
    fn interval_subtract() {
        assert_eq!(subtract(&[(0, 10)], &[(3, 5)]), vec![(0, 3), (5, 10)]);
        assert_eq!(subtract(&[(0, 10)], &[(0, 10)]), vec![]);
        assert_eq!(
            subtract(&[(0, 4), (6, 10)], &[(2, 8)]),
            vec![(0, 2), (8, 10)]
        );
        assert_eq!(subtract(&[(5, 6)], &[]), vec![(5, 6)]);
    }

    #[test]
    fn components_sum_exactly() {
        let mut b = TraceBuffer::new(64);
        handler(&mut b, 1, 100, 200, 50); // busy [100,300), 50 durability
        handler(&mut b, 1, 500, 100, 0); // busy [500,600)
        send_to(&mut b, 250, 1, 450); // transit [250,450): 150 ns outside busy
        let t = b.finish();
        let w = WindowSpec {
            pid: 1,
            t0_ns: 0,
            te_ns: 1_000,
        };
        let s = decompose_window(&t.events, &w);
        assert_eq!(s.total_ns, 1_000);
        assert_eq!(s.cpu_ns + s.durability_ns, 300);
        assert_eq!(s.durability_ns, 50);
        assert_eq!(s.transmission_ns, 150);
        assert_eq!(
            s.queueing_ns + s.transmission_ns + s.cpu_ns + s.durability_ns,
            s.total_ns
        );
    }

    #[test]
    fn window_clipping_prorates_durability() {
        let mut b = TraceBuffer::new(8);
        handler(&mut b, 0, 0, 1_000, 500); // half of the handler is durability
        let t = b.finish();
        // Window covers only the second half of the handler.
        let s = decompose_window(
            &t.events,
            &WindowSpec {
                pid: 0,
                t0_ns: 500,
                te_ns: 1_000,
            },
        );
        assert_eq!(s.total_ns, 500);
        assert_eq!(s.cpu_ns + s.durability_ns, 500);
        assert_eq!(s.durability_ns, 250); // pro-rated
        assert_eq!(s.queueing_ns, 0);
    }

    #[test]
    fn other_processes_do_not_leak_in() {
        let mut b = TraceBuffer::new(8);
        handler(&mut b, 3, 0, 400, 0);
        send_to(&mut b, 0, 3, 200);
        let t = b.finish();
        let s = decompose_window(
            &t.events,
            &WindowSpec {
                pid: 1,
                t0_ns: 0,
                te_ns: 400,
            },
        );
        assert_eq!(s.cpu_ns, 0);
        assert_eq!(s.transmission_ns, 0);
        assert_eq!(s.queueing_ns, 400);
    }

    #[test]
    fn aggregation_means_sum() {
        let samples: Vec<DecompSample> = (1..=100u64)
            .map(|i| {
                let t = i * 1_000;
                DecompSample {
                    total_ns: t,
                    queueing_ns: t / 2,
                    transmission_ns: t / 4,
                    cpu_ns: t - t / 2 - t / 4 - t / 8,
                    durability_ns: t / 8,
                    truncated: false,
                }
            })
            .collect();
        let d = LatencyDecomposition::from_samples(&samples);
        assert_eq!(d.samples, 100);
        let sum = d.component_mean_sum_ms();
        assert!(
            (sum - d.total.mean_ms).abs() < 1e-9,
            "{sum} vs {}",
            d.total.mean_ms
        );
        assert!(d.total.p99_ms >= d.total.p50_ms);
    }

    #[test]
    fn empty_samples_are_zero() {
        let d = LatencyDecomposition::from_samples(&[]);
        assert_eq!(d.samples, 0);
        assert_eq!(d.total.mean_ms, 0.0);
    }
}
