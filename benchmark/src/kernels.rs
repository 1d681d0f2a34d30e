//! Layer kernels: timed loops over one layer's public functions, with
//! inputs shaped like the workload being measured. A kernel isolates a
//! layer the spans cannot reach from outside (`sim`'s queue, `net`'s
//! codec and snapshot fold, `framework`'s dispatch loop, `chaos`'s
//! oracle) at the price of leaving out how the run really interleaves
//! the calls.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use fortika::chaos::DeliveryOracle;
use fortika::framework::{CompositeStack, Event, EventKind, FrameworkCtx, Microprotocol, ModuleId};
use fortika::net::wire::{decode, encode};
use fortika::net::{
    Admission, AppMsg, AppRequest, Batch, Cluster, ClusterConfig, MsgId, ProcessId, SnapshotFold,
};
use fortika::sim::{EventQueue, VDur, VTime};

use crate::stats::median;

/// Times `work` (which performs `units` units of work per call) in
/// calls of its own choosing until `budget` is spent, at least five
/// times, and returns the median nanoseconds per unit.
fn ns_per_unit(budget: Duration, units: u64, mut work: impl FnMut()) -> f64 {
    work(); // warm caches and the allocator
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || started.elapsed() < budget {
        let t = Instant::now();
        work();
        samples.push(t.elapsed().as_nanos() as f64 / units as f64);
    }
    median(&samples)
}

/// `EventQueue::schedule` + `pop` with 1 000 events pending, per pair.
pub fn queue_ns_per_event(budget: Duration) -> f64 {
    const PENDING: u64 = 1_000;
    const OPS: u64 = 50_000;
    let mut q = EventQueue::new();
    let mut clock = 0u64;
    for i in 0..PENDING {
        q.schedule(VTime::from_nanos((i * 7919) % 100_000), i);
    }
    ns_per_unit(budget, OPS, || {
        for i in 0..OPS {
            let (at, v) = q.pop().expect("queue stays full");
            clock = clock.max(at.as_nanos());
            // Reschedule a pseudo-random distance ahead, as message
            // arrivals and timers do.
            q.schedule(
                VTime::from_nanos(clock + 1 + (v.wrapping_mul(7919) + i) % 100_000),
                v,
            );
        }
        black_box(&q);
    })
}

/// A batch of `m` messages of `size` payload bytes, from `n` senders.
fn batch(m: usize, size: usize, n: usize, first_seq: u64) -> Batch {
    Batch::normalize(
        (0..m)
            .map(|i| {
                AppMsg::new(
                    MsgId::new(ProcessId((i % n) as u16), first_seq + (i / n) as u64),
                    Bytes::from(vec![0xABu8; size]),
                )
            })
            .collect(),
    )
}

/// `wire::encode` and `wire::decode::<Batch>` of one batch of `m`
/// messages of `size` bytes: nanoseconds per KiB encoded.
pub fn wire_ns_per_kib(budget: Duration, m: usize, size: usize) -> (f64, f64) {
    const REPS: u64 = 64;
    let b = batch(m.max(1), size, 3, 0);
    let encoded = encode(&b);
    let kib = (encoded.len() as u64 * REPS).div_ceil(1024).max(1);
    let enc = ns_per_unit(budget, kib, || {
        for _ in 0..REPS {
            black_box(encode(black_box(&b)));
        }
    });
    let dec = ns_per_unit(budget, kib, || {
        for _ in 0..REPS {
            black_box(decode::<Batch>(black_box(encoded.clone())).expect("own encoding decodes"));
        }
    });
    (enc, dec)
}

/// `SnapshotFold::absorb` of `interval` batches of `m` messages, then
/// `snapshot()`: nanoseconds per message folded.
pub fn snapshot_fold_ns_per_msg(budget: Duration, m: usize, size: usize, interval: u64) -> f64 {
    let m = m.max(1);
    let n = 3;
    let batches: Vec<Batch> = (0..interval)
        .map(|i| batch(m, size, n, i * m.div_ceil(n) as u64))
        .collect();
    ns_per_unit(budget, interval * m as u64, || {
        let mut fold = SnapshotFold::new(None);
        for (i, b) in batches.iter().enumerate() {
            fold.absorb(i as u64, b);
        }
        black_box(fold.snapshot());
    })
}

/// Events each `dispatch_ns_per_event` request bounces between the two
/// stub modules.
const BOUNCES: u64 = 32;

/// Admits every request and starts a volley of events.
struct Serve;

/// Returns every `Suspect` as a `Restore` until the volley is spent.
struct Return {
    left: u64,
}

impl Microprotocol for Serve {
    fn name(&self) -> &'static str {
        "serve"
    }
    fn module_id(&self) -> ModuleId {
        1
    }
    fn subscriptions(&self) -> &'static [EventKind] {
        &[EventKind::Restore]
    }
    fn on_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
        if let Event::Restore(p) = ev {
            ctx.raise(Event::Suspect(*p));
        }
    }
    fn on_request(&mut self, ctx: &mut FrameworkCtx<'_, '_>, _: &AppRequest) -> Option<Admission> {
        ctx.raise(Event::Suspect(ctx.pid()));
        Some(Admission::Accepted)
    }
}

impl Microprotocol for Return {
    fn name(&self) -> &'static str {
        "return"
    }
    fn module_id(&self) -> ModuleId {
        2
    }
    fn subscriptions(&self) -> &'static [EventKind] {
        &[EventKind::Suspect]
    }
    fn on_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
        if let Event::Suspect(p) = ev {
            if self.left == 0 {
                self.left = BOUNCES / 2;
            }
            self.left -= 1;
            if self.left > 0 {
                ctx.raise(Event::Restore(*p));
            }
        }
    }
}

/// One-node `Cluster` hosting a `CompositeStack` of two stub
/// microprotocols that bounce events off each other: nanoseconds per
/// event dispatched (request admission and the cluster's handler
/// set-up are spread over the volley).
pub fn dispatch_ns_per_event(budget: Duration) -> f64 {
    const REQUESTS: u64 = 2_000;
    let stack = CompositeStack::new(vec![Box::new(Serve), Box::new(Return { left: 0 })]);
    let mut cluster = Cluster::new(ClusterConfig::instant(1, 1), vec![Box::new(stack)]);
    cluster.run_idle(VTime::ZERO);
    let request = AppRequest::Abcast(AppMsg::new(MsgId::new(ProcessId(0), 0), Bytes::new()));
    // Each request dispatches BOUNCES / 2 Suspects and one Restore
    // fewer.
    ns_per_unit(budget, REQUESTS * (BOUNCES - 1), || {
        for _ in 0..REQUESTS {
            let (admission, _) = cluster.submit(ProcessId(0), request.clone());
            assert_eq!(admission, Admission::Accepted);
        }
    })
}

/// `DeliveryOracle::record` over a log of `deliveries` adelivers at `n`
/// processes (nanoseconds per call) and `check` of that log
/// (milliseconds).
pub fn oracle_costs(budget: Duration, deliveries: u64, n: usize) -> (f64, f64) {
    let per_proc = (deliveries / n as u64).max(1);
    let all: Vec<ProcessId> = ProcessId::all(n).collect();
    let fill = || {
        let mut oracle = DeliveryOracle::new(n);
        for seq in 0..per_proc {
            let id = MsgId::new(ProcessId((seq % n as u64) as u16), seq / n as u64);
            for &p in &all {
                oracle.record(p, id, VTime::ZERO + VDur::micros(seq));
            }
        }
        oracle
    };
    let record = ns_per_unit(budget, per_proc * n as u64, || {
        black_box(fill());
    });
    let oracle = fill();
    let check = ns_per_unit(budget, 1, || {
        let report = oracle.check(&all);
        assert!(report.is_ok(), "kernel log is a valid total order");
        black_box(report);
    });
    (record, check / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Duration = Duration::from_millis(1);

    #[test]
    fn kernels_return_positive_finite_numbers() {
        let (enc, dec) = wire_ns_per_kib(TINY, 2, 1024);
        let (record, check) = oracle_costs(TINY, 300, 3);
        for v in [
            queue_ns_per_event(TINY),
            enc,
            dec,
            snapshot_fold_ns_per_msg(TINY, 2, 64, 8),
            dispatch_ns_per_event(TINY),
            record,
            check,
        ] {
            assert!(v.is_finite() && v > 0.0, "kernel returned {v}");
        }
    }

    #[test]
    fn kernel_batches_have_distinct_ids() {
        let b = batch(7, 8, 3, 10);
        assert_eq!(b.len(), 7);
        let a = batch(4, 8, 3, 0);
        let c = batch(4, 8, 3, 2);
        assert!(a
            .msgs()
            .iter()
            .all(|x| c.msgs().iter().all(|y| x.id != y.id)));
    }
}
