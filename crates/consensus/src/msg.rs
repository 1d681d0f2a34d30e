//! Consensus wire messages.

use fortika_net::metrics::consensus;
use fortika_net::wire::{Wire, WireError, WireReader, WireWriter};
use fortika_net::{Batch, CatchUp, PerCatchUp, ReplicaNames};

/// Messages exchanged by the consensus module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsensusMsg {
    /// Coordinator's proposal for `(instance, round)`.
    Propose {
        /// Consensus instance (the paper's `k`).
        instance: u64,
        /// Round within the instance (0 in good runs).
        round: u32,
        /// Proposed value.
        value: Batch,
    },
    /// A process's estimate, sent to the coordinator of `round` after a
    /// suspicion-driven round change (the estimate phase is skipped in
    /// round 0 — the paper's first optimization).
    Estimate {
        /// Consensus instance.
        instance: u64,
        /// Round the sender is entering.
        round: u32,
        /// The sender's current estimate.
        value: Batch,
        /// Round in which the estimate was last adopted (0 = initial).
        ts: u32,
    },
    /// Positive acknowledgement of the coordinator's proposal.
    Ack {
        /// Consensus instance.
        instance: u64,
        /// Round being acknowledged.
        round: u32,
    },
    /// Recovery traffic both stacks share — pulls, state transfer,
    /// chunked snapshot transfer, promises — embedded under this enum's
    /// tag bytes 6–10 (see [`fortika_net::replica`] for the protocol).
    CatchUp(CatchUp),
}

const TAG_PROPOSE: u8 = 1;
const TAG_ESTIMATE: u8 = 2;
const TAG_ACK: u8 = 3;
// Tags 4 and 5 are unassigned: the tags keep their numbers, so no frame
// changes meaning, and one that carries 4 or 5 fails to decode.

/// What the modular stack calls the shared replica machinery: its tag
/// bytes within [`ConsensusMsg`], send kinds, counters and trace label.
pub const REPLICA_NAMES: ReplicaNames = ReplicaNames {
    label: "consensus",
    tags: PerCatchUp {
        pull: 6,
        state_transfer: 7,
        snapshot_transfer: 8,
        snapshot_pull: 9,
        promise: 10,
    },
    kinds: PerCatchUp {
        pull: consensus::PULL,
        state_transfer: consensus::STATE_TRANSFER,
        snapshot_transfer: consensus::SNAPSHOT_TRANSFER,
        snapshot_pull: consensus::SNAPSHOT_PULL,
        promise: consensus::PROMISE,
    },
    gap_requests: consensus::GAP_REQUESTS,
    join_requests: consensus::JOIN_REQUESTS,
    state_transfers: consensus::STATE_TRANSFERS,
    snapshot_transfers: consensus::SNAPSHOT_TRANSFERS,
    snapshot_pulls: consensus::SNAPSHOT_PULLS,
    snapshot_garbage: consensus::SNAPSHOT_GARBAGE,
    snapshots: consensus::SNAPSHOTS,
    snapshots_installed: consensus::SNAPSHOTS_INSTALLED,
    join_unservable: consensus::JOIN_UNSERVABLE,
    rejoins_completed: consensus::REJOINS_COMPLETED,
    proposals: consensus::PROPOSALS,
    round_changes: consensus::ROUND_CHANGES,
    progress_rotations: consensus::PROGRESS_ROTATIONS,
    request_retries: consensus::REQUEST_RETRIES,
    tag_misses: consensus::TAG_MISSES,
    bogus_proposals: consensus::BOGUS_PROPOSALS,
    promises: consensus::PROMISES,
    direct_proposals: consensus::DIRECT_PROPOSALS,
};

impl Wire for ConsensusMsg {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ConsensusMsg::Propose {
                instance,
                round,
                value,
            } => {
                w.put_u8(TAG_PROPOSE);
                w.put_u64(*instance);
                w.put_u32(*round);
                value.encode(w);
            }
            ConsensusMsg::Estimate {
                instance,
                round,
                value,
                ts,
            } => {
                w.put_u8(TAG_ESTIMATE);
                w.put_u64(*instance);
                w.put_u32(*round);
                w.put_u32(*ts);
                value.encode(w);
            }
            ConsensusMsg::Ack { instance, round } => {
                w.put_u8(TAG_ACK);
                w.put_u64(*instance);
                w.put_u32(*round);
            }
            ConsensusMsg::CatchUp(msg) => msg.encode_tagged(&REPLICA_NAMES.tags, w),
        }
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        match r.get_u8()? {
            TAG_PROPOSE => Ok(ConsensusMsg::Propose {
                instance: r.get_u64()?,
                round: r.get_u32()?,
                value: Batch::decode(r)?,
            }),
            TAG_ESTIMATE => Ok(ConsensusMsg::Estimate {
                instance: r.get_u64()?,
                round: r.get_u32()?,
                ts: r.get_u32()?,
                value: Batch::decode(r)?,
            }),
            TAG_ACK => Ok(ConsensusMsg::Ack {
                instance: r.get_u64()?,
                round: r.get_u32()?,
            }),
            t => CatchUp::decode_tagged(t, &REPLICA_NAMES.tags, r).map(ConsensusMsg::CatchUp),
        }
    }
}

/// Decision dissemination payload, reliably broadcast by the deciding
/// coordinator.
///
/// In round 0 (good runs) the value is omitted — the `DECISION` *tag*
/// optimization of §3.2: receivers already hold the round-0 proposal. In
/// later rounds the full value travels with the notice, since proposals
/// may not have reached everyone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionNotice {
    /// Consensus instance.
    pub instance: u64,
    /// Round in which the decision was reached.
    pub round: u32,
    /// Full value (absent for the round-0 tag optimization).
    pub full: Option<Batch>,
}

impl Wire for DecisionNotice {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.instance);
        w.put_u32(self.round);
        self.full.encode(w);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(DecisionNotice {
            instance: r.get_u64()?,
            round: r.get_u32()?,
            full: Option::<Batch>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use fortika_net::wire::{decode, encode};
    use fortika_net::{AppMsg, MsgId, ProcessId};

    fn batch() -> Batch {
        Batch::normalize(vec![AppMsg::new(
            MsgId::new(ProcessId(1), 9),
            Bytes::from_static(b"payload"),
        )])
    }

    #[test]
    fn messages_round_trip() {
        let msgs = vec![
            ConsensusMsg::Propose {
                instance: 3,
                round: 0,
                value: batch(),
            },
            ConsensusMsg::Estimate {
                instance: 4,
                round: 2,
                value: batch(),
                ts: 1,
            },
            ConsensusMsg::Ack {
                instance: 5,
                round: 1,
            },
            ConsensusMsg::CatchUp(CatchUp::Pull { from: 0 }),
        ];
        for m in msgs {
            let bytes = encode(&m);
            assert_eq!(decode::<ConsensusMsg>(bytes).unwrap(), m);
        }
    }

    #[test]
    fn notice_round_trips_both_forms() {
        for n in [
            DecisionNotice {
                instance: 1,
                round: 0,
                full: None,
            },
            DecisionNotice {
                instance: 2,
                round: 3,
                full: Some(batch()),
            },
        ] {
            let bytes = encode(&n);
            assert_eq!(decode::<DecisionNotice>(bytes).unwrap(), n);
        }
    }

    #[test]
    fn tag_notice_is_tiny() {
        // The DECISION-tag optimization: a tagged notice is ~13 bytes
        // regardless of the decided batch size.
        let n = DecisionNotice {
            instance: u64::MAX,
            round: 0,
            full: None,
        };
        assert_eq!(encode(&n).len(), 13);
    }

    /// The catch-up messages moved into `fortika_net::replica`; on the
    /// wire they are still the bytes `ConsensusMsg` produced when it
    /// declared them itself (tags 7, 8, 9); the pull rides the rejoin
    /// announcement's tag 6, with its bytes, and the promise tag 10.
    #[test]
    fn catch_up_keeps_its_wire_bytes() {
        let pins = [
            (CatchUp::Pull { from: 7 }, "060700000000000000"),
            (
                CatchUp::StateTransfer {
                    from: 3,
                    values: vec![
                        Batch::normalize(vec![AppMsg::new(
                            MsgId::new(ProcessId(1), 9),
                            Bytes::from_static(b"pay"),
                        )]),
                        Batch::empty(),
                    ],
                    frontier: 42,
                },
                "0703000000000000002a0000000000000002000000010000000100090000000000\
                 00000300000070617900000000",
            ),
            (
                CatchUp::SnapshotTransfer {
                    last_included: 63,
                    digest: 0xDEAD_BEEF,
                    total: 4097,
                    offset: 4096,
                    chunk: Bytes::from_static(b"tail"),
                    frontier: 80,
                },
                "083f00000000000000efbeadde0000000001100000001000005000000000000000\
                 040000007461696c",
            ),
            (
                CatchUp::SnapshotPull {
                    last_included: 63,
                    offset: 4096,
                },
                "093f0000000000000000100000",
            ),
            (
                CatchUp::Promise(fortika_net::Promise { round: 2, from: 17 }),
                "0a020000001100000000000000",
            ),
        ];
        for (msg, pin) in pins {
            let msg = ConsensusMsg::CatchUp(msg);
            let bytes = encode(&msg);
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, pin, "{msg:?}");
            assert_eq!(decode::<ConsensusMsg>(bytes).unwrap(), msg);
        }
    }

    /// Tags 4 and 5 decode as nothing, whatever follows them: not as the
    /// decision request and full decision they once were, nor as any
    /// other message.
    #[test]
    fn tags_4_and_5_are_unassigned() {
        let request = [&[4u8][..], &6u64.to_le_bytes()].concat();
        let mut full = encode(&ConsensusMsg::Propose {
            instance: 7,
            round: 0,
            value: batch(),
        })
        .to_vec();
        full.drain(9..13); // the decision reply had no round
        for tag in [4u8, 5] {
            for mut frame in [request.clone(), full.clone(), vec![0]] {
                frame[0] = tag;
                let got = decode::<ConsensusMsg>(Bytes::from(frame.clone()));
                assert_eq!(got, Err(WireError::InvalidTag(tag)), "{frame:02x?}");
            }
        }
    }

    #[test]
    fn corrupt_tag_rejected() {
        let bytes = Bytes::from_static(&[99]);
        assert!(decode::<ConsensusMsg>(bytes).is_err());
    }
}
