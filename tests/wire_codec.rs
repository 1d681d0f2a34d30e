//! One table over the whole wire vocabulary: for every `Wire` type and
//! every enum variant both stacks put on the wire or into the stable
//! store, the counted length (`encoded_len`, a counting `WireWriter`)
//! equals the length `encode` writes, and the encoding decodes back to
//! the value. Rows carry 16 KiB payloads where a payload fits, so a
//! sizing pass that touched payload bytes would also be a slow one. The
//! gather sink is the same codec: every row written through it has the
//! same bytes, over however many parts, and reads back the same — also
//! at the far end of a `Cluster` hop, where the frame arrives as the
//! chain of parts it was sent as and is read through `NodeCtx::reader`.
//!
//! (`RbMsg` is private to `fortika-rbcast`; its row is that crate's
//! `rbmsg_round_trips` unit test.)

use std::cell::RefCell;
use std::fmt::Debug;
use std::rc::Rc;

use bytes::Bytes;
use fortika::consensus::{self, ConsensusMsg, DecisionNotice};
use fortika::mono::msg::{self as mono, Decision, MonoMsg, Proposal};
use fortika::net::wire::{decode, encode, Wire, WireError, WireReader, WireWriter, SHARE_MIN};
use fortika::net::{
    Admission, AppMsg, AppRequest, Batch, CatchUp, Cluster, ClusterConfig, ConfigChange, MsgId,
    Node, NodeCtx, PerCatchUp, ProcessId, SenderLog, Snapshot, Stored, VoteRecord,
};
use fortika::sim::VTime;

fortika::net::metric_table! {
    mod names in TEST {
        events {
            TEST_GARBAGE = "test.garbage",
        }
        kinds {
            TEST_ROW = "test.row",
        }
    }
}

/// What the receiving end of a [`hop`] decoded: from its `bytes`
/// argument alone, and through the context's reader.
struct Arrival<T> {
    alone: Result<T, WireError>,
    whole: Result<T, WireError>,
}

/// Process 0 sends one frame on start; process 1 decodes what arrives
/// both ways and counts a frame its `bytes` argument does not hold.
struct Hop<T> {
    frame: Option<Stored>,
    arrived: Rc<RefCell<Option<Arrival<T>>>>,
}

impl<T: Wire> Node for Hop<T> {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        if let Some(frame) = self.frame.take() {
            ctx.send(ProcessId(1), names::TEST_ROW, frame);
        }
    }
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, _: ProcessId, bytes: Bytes) {
        let alone = decode::<T>(bytes.clone());
        if alone.is_err() {
            ctx.bump(names::TEST_GARBAGE, 1);
        }
        let whole = ctx.reader(bytes).get_only::<T>();
        *self.arrived.borrow_mut() = Some(Arrival { alone, whole });
    }
    fn on_request(&mut self, _: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
        Admission::Blocked
    }
}

/// Sends `frame` from one bare node to another and returns what the
/// receiver made of it, and how many frames it counted as garbage.
fn hop<T: Wire + 'static>(frame: Stored) -> (Arrival<T>, u64) {
    let arrived = Rc::new(RefCell::new(None));
    let node = |frame| {
        let arrived = Rc::clone(&arrived);
        Box::new(Hop::<T> { frame, arrived }) as Box<dyn Node>
    };
    let nodes = vec![node(Some(frame)), node(None)];
    let mut cluster = Cluster::new(ClusterConfig::instant(2, 1), nodes);
    cluster.run_idle(VTime::ZERO);
    let garbage = cluster.counters().event("test.garbage");
    drop(cluster);
    let arrival = arrived.borrow_mut().take().expect("the frame arrived");
    (arrival, garbage)
}

/// The frame of `value` crosses a [`hop`] whole: the context's reader
/// yields the value, while the first part alone reads as a truncated
/// message — counted, never a panic — unless it is the only part.
/// Returns the value as the receiver holds it.
fn row_hops<T: Wire + PartialEq + Debug + 'static>(label: &str, value: &T, sent: &Stored) -> T {
    let (arrival, garbage) = hop::<T>(sent.clone());
    if sent.parts().len() == 1 {
        assert_eq!(arrival.alone.as_ref(), Ok(value), "{label}: one part");
        assert_eq!(garbage, 0, "{label}: one part");
    } else {
        assert_eq!(
            arrival.alone,
            Err(WireError::UnexpectedEof),
            "{label}: first part of a chain, alone"
        );
        assert_eq!(garbage, 1, "{label}: first part of a chain, alone");
    }
    assert_eq!(arrival.whole.as_ref(), Ok(value), "{label}: over a hop");

    // The same bytes with one of the writer's cuts a byte early or late:
    // a field now lying across the cut is an error, never pieced
    // together, and what still decodes (the byte was a field of its own)
    // is the value.
    let flat = sent.to_bytes();
    let mut cuts = vec![0];
    for part in sent.parts() {
        cuts.push(cuts.last().unwrap() + part.len());
    }
    for moved in 1..cuts.len() - 1 {
        for at in [cuts[moved] - 1, cuts[moved] + 1] {
            if at < cuts[moved - 1] || at > cuts[moved + 1] {
                continue;
            }
            let mut cuts = cuts.clone();
            cuts[moved] = at;
            let recut = cuts.windows(2).map(|c| flat.slice(c[0]..c[1])).collect();
            match hop::<T>(recut).0.whole {
                Ok(back) => assert_eq!(&back, value, "{label}: cut {moved} at {at}"),
                Err(e) => assert_eq!(e, WireError::UnexpectedEof, "{label}: cut {moved} at {at}"),
            }
        }
    }
    arrival.whole.expect("checked above")
}

/// One row: counted length == written length, and the value survives —
/// through a buffer and through a gather list.
fn row<T: Wire + PartialEq + Debug + 'static>(label: &str, value: T) -> Stored {
    let bytes = encode(&value);
    assert_eq!(value.encoded_len(), bytes.len(), "{label}: counted length");
    let mut grown = WireWriter::new();
    value.encode(&mut grown);
    assert_eq!(grown.finish(), bytes, "{label}: pre-sized vs grown buffer");
    assert_eq!(
        decode::<T>(bytes.clone()).as_ref(),
        Ok(&value),
        "{label}: round trip"
    );

    let mut gathering = WireWriter::gathering();
    value.encode(&mut gathering);
    assert_eq!(gathering.len(), bytes.len(), "{label}: gathered length");
    let gathered = gathering.finish_stored();
    let sized = Stored::encode_with(|w| value.encode(w));
    assert_eq!(gathered.parts(), sized.parts(), "{label}: pre-sized parts");
    assert_eq!(gathered.len(), value.encoded_len(), "{label}: Σ parts");
    assert_eq!(gathered.to_bytes(), bytes, "{label}: parts, flattened");
    // A part is a long byte string by itself or the framing before,
    // between or after them.
    let long = gathered.parts().iter().filter(|p| p.len() >= SHARE_MIN);
    let long = long.count();
    let parts = if long == 0 {
        1..=1
    } else {
        2 * long..=2 * long + 1
    };
    assert!(
        parts.contains(&gathered.parts().len()),
        "{label}: {} parts around {long} shared byte strings",
        gathered.parts().len()
    );
    assert_eq!(
        gathered.decode::<T>().as_ref(),
        Ok(&value),
        "{label}: round trip over parts"
    );
    row_hops(label, &value, &gathered);
    gathered
}

/// Re-reads `stored`'s bytes cut in two at every offset: the reader
/// either yields `value` or reports an error — a cut inside a field is
/// never read across, and none panics. The cuts the writer itself made
/// all read back.
fn every_two_part_cut<T: Wire + PartialEq + Debug>(label: &str, value: &T, stored: &Stored) {
    let flat = stored.to_bytes();
    let mut own_cuts = Vec::new();
    for part in stored.parts() {
        own_cuts.push(own_cuts.last().copied().unwrap_or(0) + part.len());
    }
    let mut readable = 0;
    for at in 0..=flat.len() {
        let cut: Stored = [flat.slice(..at), flat.slice(at..)].into_iter().collect();
        match cut.decode::<T>() {
            Ok(back) => {
                assert_eq!(&back, value, "{label}: cut at {at}");
                readable += 1;
            }
            Err(_) => assert!(!own_cuts.contains(&at), "{label}: own cut at {at}"),
        }
    }
    assert!(readable > stored.parts().len(), "{label}: {readable} cuts");
    assert!(readable < flat.len() / 2, "{label}: {readable} cuts");
}

fn msg(sender: u16, seq: u64, size: usize) -> AppMsg {
    AppMsg::new(
        MsgId::new(ProcessId(sender), seq),
        Bytes::from(vec![(seq as u8) ^ 0x5A; size]),
    )
}

/// `m` messages of 16 KiB from three senders.
fn batch(m: u64) -> Batch {
    Batch::normalize(
        (0..m)
            .map(|i| msg((i % 3) as u16, i / 3, 16 * 1024))
            .collect(),
    )
}

fn snapshot() -> Snapshot {
    Snapshot {
        last_included: 255,
        delivered_count: 2_560,
        digest: 0x0123_4567_89AB_CDEF,
        delivered: vec![
            SenderLog {
                sender: ProcessId(0),
                watermark: 900,
                above: vec![902..904, 950..951],
            },
            SenderLog {
                sender: ProcessId(6),
                watermark: 0,
                above: Vec::new(),
            },
        ],
        app_state: Bytes::from(vec![0xEE; 16 * 1024]),
        reconfigs: vec![
            (3, ConfigChange::Add(ProcessId(7))),
            (90, ConfigChange::Remove(ProcessId(2))),
        ],
    }
}

/// Every `CatchUp` variant, empty and full.
fn catch_ups() -> Vec<(&'static str, CatchUp)> {
    vec![
        ("Pull/0", CatchUp::Pull { from: 0 }),
        ("Pull", CatchUp::Pull { from: 17 }),
        (
            "StateTransfer/empty",
            CatchUp::StateTransfer {
                from: 40,
                values: Vec::new(),
                frontier: 40,
            },
        ),
        (
            "StateTransfer",
            CatchUp::StateTransfer {
                from: 40,
                values: vec![batch(10), Batch::empty(), batch(1)],
                frontier: 99,
            },
        ),
        (
            "SnapshotTransfer",
            CatchUp::SnapshotTransfer {
                last_included: 255,
                digest: u64::MAX,
                total: 70_000,
                offset: 4096,
                chunk: Bytes::from(vec![0xC4; 4096]),
                frontier: 300,
            },
        ),
        (
            "SnapshotPull",
            CatchUp::SnapshotPull {
                last_included: 255,
                offset: 8192,
            },
        ),
        (
            "Promise",
            CatchUp::Promise(fortika::net::Promise {
                round: 3,
                from: 4096,
            }),
        ),
    ]
}

/// A `CatchUp` message straight under a tag table, as the shared
/// replica core writes it.
fn tagged_row(label: &str, tags: &PerCatchUp<u8>, value: &CatchUp) {
    let mut counted = WireWriter::counting();
    value.encode_tagged(tags, &mut counted);
    let mut written = WireWriter::new();
    value.encode_tagged(tags, &mut written);
    let bytes = written.finish();
    assert_eq!(counted.len(), bytes.len(), "{label}: counted length");
    let mut r = WireReader::new(bytes);
    let tag = r.get_u8().unwrap();
    assert_eq!(
        CatchUp::decode_tagged(tag, tags, &mut r).as_ref(),
        Ok(value),
        "{label}: round trip"
    );
    assert_eq!(r.expect_end(), Ok(()), "{label}: trailing bytes");
}

#[test]
fn every_wire_type_counts_what_it_writes_and_round_trips() {
    // Primitives and containers.
    row("unit", ());
    row("u8", 0xA5u8);
    row("u16", 0xBEEFu16);
    row("u32", 0xDEAD_BEEFu32);
    row("u64", u64::MAX);
    row("bool", true);
    row("Bytes/empty", Bytes::new());
    row("Bytes/16k", Bytes::from(vec![1u8; 16 * 1024]));
    row("Option/None", Option::<Batch>::None);
    row("Option/Some", Some(batch(2)));
    row("Vec/empty", Vec::<AppMsg>::new());
    row("Vec/u64", vec![1u64, 2, 3]);

    // fortika-net: ids, messages, membership, snapshots, the stable vote
    // record.
    row("ProcessId", ProcessId(6));
    row("MsgId", MsgId::new(ProcessId(6), 1 << 40));
    row("AppMsg/empty", msg(0, 0, 0));
    row("AppMsg/16k", msg(2, 77, 16 * 1024));
    row("Batch/empty", Batch::empty());
    let stored = row("Batch/10x16k", batch(10));
    assert_eq!(stored.parts().len(), 2 * 10);
    every_two_part_cut("Batch/10x16k", &batch(10), &stored);
    row("ConfigChange/Add", ConfigChange::Add(ProcessId(3)));
    row("ConfigChange/Remove", ConfigChange::Remove(ProcessId(1)));
    row("SenderLog", snapshot().delivered[0].clone());
    let stored = row("Snapshot", snapshot());
    every_two_part_cut("Snapshot", &snapshot(), &stored);
    row(
        "Snapshot/bare",
        Snapshot {
            delivered: Vec::new(),
            app_state: Bytes::new(),
            reconfigs: Vec::new(),
            ..snapshot()
        },
    );
    let vote = VoteRecord {
        round: 3,
        ts: 2,
        value: batch(10),
    };
    let stored = row("VoteRecord", vote.clone());
    // The shared parts are the batch's own payload buffers.
    for (msg, part) in vote
        .value
        .msgs()
        .iter()
        .zip(stored.parts().iter().skip(1).step_by(2))
    {
        assert_eq!(msg.payload.as_ptr(), part.as_ptr());
    }
    every_two_part_cut("VoteRecord", &vote, &stored);
    // Over a hop they still are: the receiver holds the sender's buffers,
    // and only a byte string short of `SHARE_MIN` was copied on the way.
    let back = row_hops("VoteRecord", &vote, &stored);
    for (sent, held) in vote.value.msgs().iter().zip(back.value.msgs()) {
        assert_eq!(sent.payload.as_ptr(), held.payload.as_ptr());
    }
    let around = vec![
        Bytes::from(vec![7u8; SHARE_MIN]),
        Bytes::from(vec![8u8; SHARE_MIN - 1]),
    ];
    let stored = Stored::encode_with(|w| around.encode(w));
    let back = row_hops("Vec<Bytes>/around SHARE_MIN", &around, &stored);
    assert_eq!(back[0].as_ptr(), around[0].as_ptr());
    assert_ne!(back[1].as_ptr(), around[1].as_ptr());

    // fortika-consensus.
    row(
        "ConsensusMsg/Propose",
        ConsensusMsg::Propose {
            instance: 9,
            round: 0,
            value: batch(10),
        },
    );
    row(
        "ConsensusMsg/Estimate",
        ConsensusMsg::Estimate {
            instance: 9,
            round: 2,
            value: batch(4),
            ts: 1,
        },
    );
    row(
        "ConsensusMsg/Ack",
        ConsensusMsg::Ack {
            instance: 9,
            round: 2,
        },
    );
    for full in [None, Some(batch(10))] {
        row(
            "DecisionNotice",
            DecisionNotice {
                instance: 9,
                round: 1,
                full,
            },
        );
    }

    // fortika-mono.
    let decision = |full| Decision {
        instance: 8,
        round: 0,
        full,
    };
    let proposal = Proposal {
        instance: 9,
        round: 0,
        value: batch(10),
    };
    row("Decision/tag", decision(None));
    row("Decision/full", decision(Some(batch(10))));
    row("Proposal", proposal.clone());
    for (d, p) in [
        (None, None),
        (Some(decision(None)), None),
        (None, Some(proposal.clone())),
        (Some(decision(Some(batch(2)))), Some(proposal)),
    ] {
        row(
            "MonoMsg/Step",
            MonoMsg::Step {
                decision: d,
                proposal: p,
            },
        );
    }
    for msgs in [Vec::new(), vec![msg(1, 0, 16 * 1024), msg(1, 1, 3)]] {
        row(
            "MonoMsg/AckDiff",
            MonoMsg::AckDiff {
                instance: 9,
                round: 0,
                msgs: msgs.clone(),
            },
        );
        row("MonoMsg/Forward", MonoMsg::Forward { msgs: msgs.clone() });
        row(
            "MonoMsg/Estimate",
            MonoMsg::Estimate {
                instance: 9,
                round: 3,
                ts: 2,
                value: batch(5),
                msgs,
            },
        );
    }
    row(
        "MonoMsg/Diffuse",
        MonoMsg::Diffuse {
            msg: msg(0, 4, 16 * 1024),
        },
    );
    row("MonoMsg/Heartbeat", MonoMsg::Heartbeat);

    // The shared catch-up vocabulary under both stacks' tag tables.
    for (label, c) in catch_ups() {
        tagged_row(
            &format!("consensus tags/{label}"),
            &consensus::REPLICA_NAMES.tags,
            &c,
        );
        tagged_row(&format!("mono tags/{label}"), &mono::REPLICA_NAMES.tags, &c);
        row(
            &format!("ConsensusMsg/{label}"),
            ConsensusMsg::CatchUp(c.clone()),
        );
        row(&format!("MonoMsg/{label}"), MonoMsg::CatchUp(c));
    }
}
