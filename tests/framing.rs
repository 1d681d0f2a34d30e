//! The framing term of the module boundary, kind by kind.
//!
//! With the framework's dispatch charge at zero, the modular stack and
//! `mono-none` (the monolith with O1–O3 off) send the same messages:
//! the committed parity rows of `BENCH_decomposition.json` agree on
//! msgs/instance and differ only in bytes. This test frames each kind a
//! good run sends, on both stacks, as the wire carries it, and pins the
//! per-kind byte differences those rows are made of.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use fortika::core::{build_nodes, MonoOptimizations, StackConfig, StackKind};
use fortika::net::{
    Admission, AppMsg, AppRequest, Cluster, ClusterConfig, MsgId, NoopHarness, ProcessId,
};
use fortika::sim::{VDur, VTime};
use fortika::trace::{TraceConfig, TraceData};

const N: usize = 3;

/// The kinds of one instance of a good run, as (what it is, modular
/// kind, monolithic kind).
const KINDS: [(&str, &str, &str); 5] = [
    ("diffuse", "abcast.diffuse", "mono.diffuse"),
    ("proposal", "consensus.proposal", "mono.proposal"),
    ("ack", "consensus.ack", "mono.ack"),
    ("decision", "rb.initial", "mono.decision"),
    ("relay", "rb.relay", "mono.decision_relay"),
];

/// Modular frame bytes minus monolithic frame bytes, per kind of
/// [`KINDS`]. A modular frame starts with the framework's 2-byte module
/// id, a monolithic one with a 1-byte tag: +1 on a diffusion. A
/// proposal is +0: the module id and consensus's tag against the tag
/// and the two option flags of the monolith's `Step`. An ack is −2: the
/// monolith's `AckDiff` carries a 4-byte count of the (here no)
/// piggybacked messages. A decision and each relay of it are +14:
/// the module id and rbcast's 15-byte envelope (origin 2, sequence 8,
/// stream 1, payload length 4) against the `Step`'s tag and flags.
const DIFFERENCE: [i64; 5] = [1, 0, -2, 14, 14];

/// One 1 KiB message through an idle traced `kind` cluster, without the
/// per-message overhead both stacks pay alike: each kind's frame size,
/// how many frames of it went out, and the bytes of every frame outside
/// the failure detector (which the per-instance metrics leave out too).
fn frames(kind: StackKind) -> (BTreeMap<&'static str, (u64, u64)>, u64) {
    let mut cfg = ClusterConfig::new(N, 7);
    cfg.net.per_msg_overhead = 0;
    cfg.trace = TraceConfig::on();
    let stack = StackConfig {
        mono_opts: MonoOptimizations::none(),
        ..StackConfig::default()
    };
    let mut cluster = Cluster::new(cfg, build_nodes(kind, N, &stack));
    cluster.run_until(VTime::ZERO + VDur::millis(120), &mut NoopHarness);
    let msg = AppMsg::new(MsgId::new(ProcessId(0), 0), Bytes::from(vec![7; 1024]));
    let (adm, _) = cluster.submit(ProcessId(0), AppRequest::Abcast(msg));
    assert_eq!(adm, Admission::Accepted);
    cluster.run_until(VTime::ZERO + VDur::millis(170), &mut NoopHarness);
    let trace = cluster.take_trace().expect("tracing on");
    let mut sizes: BTreeMap<&'static str, BTreeSet<u64>> = BTreeMap::new();
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut total = 0;
    for e in trace.events.iter() {
        if let TraceData::Send { kind, bytes, .. } = e.data {
            if kind.starts_with("fd.") {
                continue;
            }
            sizes.entry(kind).or_default().insert(bytes);
            *counts.entry(kind).or_default() += 1;
            total += bytes;
        }
    }
    let frames = sizes
        .into_iter()
        .map(|(k, s)| {
            assert_eq!(s.len(), 1, "{kind:?}: {k} frames of sizes {s:?}");
            (k, (*s.first().unwrap(), counts[k]))
        })
        .collect();
    (frames, total)
}

#[test]
fn per_kind_framing_differences_make_the_whole_byte_gap() {
    let (modular, modular_total) = frames(StackKind::Modular);
    let (mono, mono_total) = frames(StackKind::Monolithic);
    assert_eq!(modular.len(), KINDS.len(), "modular kinds {modular:?}");
    assert_eq!(mono.len(), KINDS.len(), "monolithic kinds {mono:?}");
    let mut gap = 0;
    for ((what, a, b), difference) in KINDS.into_iter().zip(DIFFERENCE) {
        let (a_bytes, a_count) = modular[a];
        let (b_bytes, b_count) = mono[b];
        assert_eq!(a_count, b_count, "{what}: {a} and {b} counts differ");
        assert_eq!(
            a_bytes as i64 - b_bytes as i64,
            difference,
            "{what}: {a} is {a_bytes} B, {b} is {b_bytes} B"
        );
        gap += difference * a_count as i64;
    }
    // Difference times count is the whole gap: nothing else differs.
    assert_eq!(modular_total as i64 - mono_total as i64, gap);
}
