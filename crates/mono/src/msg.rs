//! Monolithic stack wire messages.
//!
//! One merged vocabulary instead of per-module envelopes: a single
//! [`MonoMsg::Step`] can carry *both* the decision of instance `k` and
//! the proposal of instance `k+1` (optimization O1), and an
//! [`MonoMsg::AckDiff`] carries an ack *and* freshly abcast application
//! messages riding to the coordinator (optimization O2).

use fortika_net::metrics::mono;
use fortika_net::wire::{Wire, WireError, WireReader, WireWriter};
use fortika_net::{AppMsg, Batch, CatchUp, PerCatchUp, ReplicaNames};

/// A decision announcement for one instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Decided instance.
    pub instance: u64,
    /// Round in which the decision was reached.
    pub round: u32,
    /// Full value; `None` is the `DECISION` tag (receivers decide the
    /// proposal of `round` they already hold).
    pub full: Option<Batch>,
}

/// A proposal for one instance/round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proposal {
    /// Proposed instance.
    pub instance: u64,
    /// Round of the proposal.
    pub round: u32,
    /// Proposed batch.
    pub value: Batch,
}

/// Messages of the monolithic atomic broadcast protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonoMsg {
    /// Decision and/or proposal — combined when optimization O1 applies.
    Step {
        /// Decision of the previous instance, if any.
        decision: Option<Decision>,
        /// Proposal for the next instance, if any.
        proposal: Option<Proposal>,
    },
    /// Ack of `(instance, round)` plus piggybacked application messages
    /// (optimization O2; empty without it).
    AckDiff {
        /// Acked instance.
        instance: u64,
        /// Acked round.
        round: u32,
        /// Application messages riding to the coordinator.
        msgs: Vec<AppMsg>,
    },
    /// Standalone hand-off of application messages to the coordinator
    /// (used when no ack is imminent, e.g. at low load).
    Forward {
        /// The messages.
        msgs: Vec<AppMsg>,
    },
    /// Diffusion to all processes (only with optimization O2 disabled —
    /// the modular stack's dissemination pattern).
    Diffuse {
        /// The message.
        msg: AppMsg,
    },
    /// Estimate for a round change, carrying the sender's undelivered own
    /// messages for re-hand-off to the new coordinator (§4.2: "if the
    /// coordinator changes, m is again piggybacked on the estimate").
    Estimate {
        /// Instance.
        instance: u64,
        /// Round being entered.
        round: u32,
        /// Adoption timestamp of `value` (0 = initial).
        ts: u32,
        /// The sender's current estimate.
        value: Batch,
        /// Undelivered own messages re-routed to the new coordinator.
        msgs: Vec<AppMsg>,
    },
    /// Failure-detector heartbeat.
    Heartbeat,
    /// Recovery traffic both stacks share — pulls, state transfer,
    /// chunked snapshot transfer, promises — embedded under this enum's
    /// tag bytes 9–13 (see [`fortika_net::replica`] for the protocol).
    CatchUp(CatchUp),
}

const TAG_STEP: u8 = 1;
const TAG_ACK_DIFF: u8 = 2;
const TAG_FORWARD: u8 = 3;
const TAG_DIFFUSE: u8 = 4;
const TAG_ESTIMATE: u8 = 5;
const TAG_HEARTBEAT: u8 = 7;
// Tags 6 and 8 are unassigned: the tags keep their numbers, so no frame
// changes meaning, and one that carries 6 or 8 fails to decode.

/// What the monolithic stack calls the shared replica machinery: its
/// tag bytes within [`MonoMsg`], send kinds, counters and trace label.
pub const REPLICA_NAMES: ReplicaNames = ReplicaNames {
    label: "mono",
    tags: PerCatchUp {
        pull: 9,
        state_transfer: 10,
        snapshot_transfer: 11,
        snapshot_pull: 12,
        promise: 13,
    },
    kinds: PerCatchUp {
        pull: mono::PULL,
        state_transfer: mono::STATE_TRANSFER,
        snapshot_transfer: mono::SNAPSHOT_TRANSFER,
        snapshot_pull: mono::SNAPSHOT_PULL,
        promise: mono::PROMISE,
    },
    gap_requests: mono::GAP_REQUESTS,
    join_requests: mono::JOIN_REQUESTS,
    state_transfers: mono::STATE_TRANSFERS,
    snapshot_transfers: mono::SNAPSHOT_TRANSFERS,
    snapshot_pulls: mono::SNAPSHOT_PULLS,
    snapshot_garbage: mono::SNAPSHOT_GARBAGE,
    snapshots: mono::SNAPSHOTS,
    snapshots_installed: mono::SNAPSHOTS_INSTALLED,
    join_unservable: mono::JOIN_UNSERVABLE,
    rejoins_completed: mono::REJOINS_COMPLETED,
    reconfigs: mono::RECONFIGS,
    proposals: mono::PROPOSALS,
    round_changes: mono::ROUND_CHANGES,
    config_fence_drops: mono::CONFIG_FENCE_DROPS,
    progress_rotations: mono::PROGRESS_ROTATIONS,
    request_retries: mono::REQUEST_RETRIES,
    tag_misses: mono::TAG_MISSES,
    bogus_proposals: mono::BOGUS_PROPOSALS,
    promises: mono::PROMISES,
    direct_proposals: mono::DIRECT_PROPOSALS,
};

impl Wire for Decision {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.instance);
        w.put_u32(self.round);
        self.full.encode(w);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(Decision {
            instance: r.get_u64()?,
            round: r.get_u32()?,
            full: Option::<Batch>::decode(r)?,
        })
    }
}

impl Wire for Proposal {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.instance);
        w.put_u32(self.round);
        self.value.encode(w);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(Proposal {
            instance: r.get_u64()?,
            round: r.get_u32()?,
            value: Batch::decode(r)?,
        })
    }
}

impl Wire for MonoMsg {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            MonoMsg::Step { decision, proposal } => {
                w.put_u8(TAG_STEP);
                decision.encode(w);
                proposal.encode(w);
            }
            MonoMsg::AckDiff {
                instance,
                round,
                msgs,
            } => {
                w.put_u8(TAG_ACK_DIFF);
                w.put_u64(*instance);
                w.put_u32(*round);
                msgs.encode(w);
            }
            MonoMsg::Forward { msgs } => {
                w.put_u8(TAG_FORWARD);
                msgs.encode(w);
            }
            MonoMsg::Diffuse { msg } => {
                w.put_u8(TAG_DIFFUSE);
                msg.encode(w);
            }
            MonoMsg::Estimate {
                instance,
                round,
                ts,
                value,
                msgs,
            } => {
                w.put_u8(TAG_ESTIMATE);
                w.put_u64(*instance);
                w.put_u32(*round);
                w.put_u32(*ts);
                value.encode(w);
                msgs.encode(w);
            }
            MonoMsg::Heartbeat => {
                w.put_u8(TAG_HEARTBEAT);
            }
            MonoMsg::CatchUp(msg) => msg.encode_tagged(&REPLICA_NAMES.tags, w),
        }
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        match r.get_u8()? {
            TAG_STEP => Ok(MonoMsg::Step {
                decision: Option::<Decision>::decode(r)?,
                proposal: Option::<Proposal>::decode(r)?,
            }),
            TAG_ACK_DIFF => Ok(MonoMsg::AckDiff {
                instance: r.get_u64()?,
                round: r.get_u32()?,
                msgs: Vec::<AppMsg>::decode(r)?,
            }),
            TAG_FORWARD => Ok(MonoMsg::Forward {
                msgs: Vec::<AppMsg>::decode(r)?,
            }),
            TAG_DIFFUSE => Ok(MonoMsg::Diffuse {
                msg: AppMsg::decode(r)?,
            }),
            TAG_ESTIMATE => Ok(MonoMsg::Estimate {
                instance: r.get_u64()?,
                round: r.get_u32()?,
                ts: r.get_u32()?,
                value: Batch::decode(r)?,
                msgs: Vec::<AppMsg>::decode(r)?,
            }),
            TAG_HEARTBEAT => Ok(MonoMsg::Heartbeat),
            t => CatchUp::decode_tagged(t, &REPLICA_NAMES.tags, r).map(MonoMsg::CatchUp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use fortika_net::wire::{decode, encode};
    use fortika_net::{MsgId, ProcessId};

    fn msg(p: u16, seq: u64) -> AppMsg {
        AppMsg::new(MsgId::new(ProcessId(p), seq), Bytes::from_static(b"m"))
    }

    fn batch() -> Batch {
        Batch::normalize(vec![msg(0, 0), msg(1, 3)])
    }

    #[test]
    fn all_variants_round_trip() {
        let variants = vec![
            MonoMsg::Step {
                decision: Some(Decision {
                    instance: 5,
                    round: 0,
                    full: None,
                }),
                proposal: Some(Proposal {
                    instance: 6,
                    round: 0,
                    value: batch(),
                }),
            },
            MonoMsg::Step {
                decision: None,
                proposal: Some(Proposal {
                    instance: 1,
                    round: 2,
                    value: batch(),
                }),
            },
            MonoMsg::Step {
                decision: Some(Decision {
                    instance: 9,
                    round: 1,
                    full: Some(batch()),
                }),
                proposal: None,
            },
            MonoMsg::AckDiff {
                instance: 7,
                round: 0,
                msgs: vec![msg(2, 0), msg(2, 1)],
            },
            MonoMsg::Forward {
                msgs: vec![msg(1, 0)],
            },
            MonoMsg::Diffuse { msg: msg(0, 9) },
            MonoMsg::Estimate {
                instance: 3,
                round: 4,
                ts: 2,
                value: batch(),
                msgs: vec![msg(1, 1)],
            },
            MonoMsg::Heartbeat,
            MonoMsg::CatchUp(CatchUp::Pull { from: 7 }),
        ];
        for v in variants {
            let bytes = encode(&v);
            assert_eq!(decode::<MonoMsg>(bytes).unwrap(), v, "variant {v:?}");
        }
    }

    /// Tag 8 decodes as nothing, whatever follows it: not as the message
    /// it once was, nor as any other.
    #[test]
    fn tag_8_is_unassigned() {
        let old_body = [&[8u8][..], &12u64.to_le_bytes(), &2u32.to_le_bytes()].concat();
        let mut bodies = vec![vec![8], old_body];
        let full = MonoMsg::Step {
            decision: Some(Decision {
                instance: 9,
                round: 1,
                full: Some(batch()),
            }),
            proposal: None,
        };
        for v in [full, MonoMsg::Heartbeat] {
            let mut frame = encode(&v).to_vec();
            frame[0] = 8;
            bodies.push(frame);
        }
        for frame in bodies {
            let got = decode::<MonoMsg>(Bytes::from(frame.clone()));
            assert_eq!(got, Err(WireError::InvalidTag(8)), "{frame:02x?}");
        }
    }

    /// Tag 6 decodes as nothing, whatever follows it: not as the
    /// decision request it once was, nor as the pull that replaced it.
    #[test]
    fn tag_6_is_unassigned() {
        let request = [&[6u8][..], &6u64.to_le_bytes()].concat();
        let mut pull = encode(&MonoMsg::CatchUp(CatchUp::Pull { from: 6 })).to_vec();
        pull[0] = 6;
        assert_eq!(request, pull, "the bytes a decision request had");
        for frame in [request, vec![6]] {
            let got = decode::<MonoMsg>(Bytes::from(frame.clone()));
            assert_eq!(got, Err(WireError::InvalidTag(6)), "{frame:02x?}");
        }
    }

    /// The catch-up messages moved into `fortika_net::replica`; on the
    /// wire they are still the bytes `MonoMsg` produced when it declared
    /// them itself (tags 10, 11, 12); the pull rides the rejoin
    /// announcement's tag 9, with its bytes, and the promise tag 13.
    #[test]
    fn catch_up_keeps_its_wire_bytes() {
        let pins = [
            (CatchUp::Pull { from: 7 }, "090700000000000000"),
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
                "0a03000000000000002a0000000000000002000000010000000100090000000000\
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
                "0b3f00000000000000efbeadde0000000001100000001000005000000000000000\
                 040000007461696c",
            ),
            (
                CatchUp::SnapshotPull {
                    last_included: 63,
                    offset: 4096,
                },
                "0c3f0000000000000000100000",
            ),
            (
                CatchUp::Promise(fortika_net::Promise { round: 2, from: 17 }),
                "0d020000001100000000000000",
            ),
        ];
        for (msg, pin) in pins {
            let msg = MonoMsg::CatchUp(msg);
            let bytes = encode(&msg);
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, pin, "{msg:?}");
            assert_eq!(decode::<MonoMsg>(bytes).unwrap(), msg);
        }
    }

    #[test]
    fn combined_step_is_barely_larger_than_proposal() {
        // O1's point: the tag decision adds ~14 bytes to the proposal
        // message instead of costing a separate message.
        let proposal_only = MonoMsg::Step {
            decision: None,
            proposal: Some(Proposal {
                instance: 6,
                round: 0,
                value: batch(),
            }),
        };
        let combined = MonoMsg::Step {
            decision: Some(Decision {
                instance: 5,
                round: 0,
                full: None,
            }),
            proposal: Some(Proposal {
                instance: 6,
                round: 0,
                value: batch(),
            }),
        };
        let a = encode(&proposal_only).len();
        let b = encode(&combined).len();
        assert!(b - a <= 16, "tag decision should be tiny, added {}", b - a);
    }
}
