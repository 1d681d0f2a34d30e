//! Randomized property tests of the wire codec and core data structures:
//! round-trips, length accounting, and robustness against arbitrary
//! (hostile) input bytes.
//!
//! Inputs come from seeded [`DetRng`] streams, so every case is
//! deterministic and reproducible from its seed.

use bytes::Bytes;
use fortika_net::flow::FlowWindow;
use fortika_net::wire::{decode, encode, Wire};
use fortika_net::{AppMsg, Batch, MsgId, ProcessId, WatermarkSet};
use fortika_sim::DetRng;

const CASES: u64 = 48;

fn arb_msg_id(rng: &mut DetRng) -> MsgId {
    MsgId::new(ProcessId(rng.below(16) as u16), rng.below(1_000_000))
}

fn arb_payload(rng: &mut DetRng, max: u64) -> Vec<u8> {
    (0..rng.below(max)).map(|_| rng.below(256) as u8).collect()
}

fn arb_app_msg(rng: &mut DetRng) -> AppMsg {
    let id = arb_msg_id(rng);
    AppMsg::new(id, Bytes::from(arb_payload(rng, 512)))
}

#[test]
fn u64_round_trips() {
    let mut rng = DetRng::seed(0xA1);
    for _ in 0..CASES {
        let v = rng.next_u64();
        assert_eq!(decode::<u64>(encode(&v)).unwrap(), v);
    }
}

#[test]
fn bytes_round_trip_and_len() {
    for seed in 0..CASES {
        let mut rng = DetRng::derive(0xB2, seed);
        let payload = arb_payload(&mut rng, 2048);
        let b = Bytes::from(payload.clone());
        let encoded = encode(&b);
        assert_eq!(encoded.len(), b.encoded_len());
        assert_eq!(encoded.len(), 4 + payload.len());
        let back: Bytes = decode(encoded).unwrap();
        assert_eq!(back.as_ref(), payload.as_slice());
    }
}

#[test]
fn app_msg_round_trips() {
    for seed in 0..CASES {
        let mut rng = DetRng::derive(0xC3, seed);
        let msg = arb_app_msg(&mut rng);
        let encoded = encode(&msg);
        assert_eq!(encoded.len(), msg.encoded_len());
        assert_eq!(decode::<AppMsg>(encoded).unwrap(), msg);
    }
}

#[test]
fn batch_round_trips_and_normalizes() {
    for seed in 0..CASES {
        let mut rng = DetRng::derive(0xD4, seed);
        let msgs: Vec<AppMsg> = (0..rng.below(32)).map(|_| arb_app_msg(&mut rng)).collect();
        let batch = Batch::normalize(msgs);
        let encoded = encode(&batch);
        assert_eq!(encoded.len(), batch.encoded_len());
        let back: Batch = decode(encoded).unwrap();
        assert_eq!(&back, &batch);
        // Normalization invariants: strictly ascending ids.
        let ids: Vec<MsgId> = batch.msgs().iter().map(|m| m.id).collect();
        for w in ids.windows(2) {
            assert!(w[0] < w[1], "batch not strictly sorted (seed {seed})");
        }
    }
}

#[test]
fn decoder_never_panics_on_garbage() {
    for seed in 0..CASES {
        let mut rng = DetRng::derive(0xE5, seed);
        let bytes = arb_payload(&mut rng, 256);
        // Whatever the input, decoding returns Ok or Err — no panics,
        // no unbounded allocation.
        let _ = decode::<Batch>(Bytes::from(bytes.clone()));
        let _ = decode::<AppMsg>(Bytes::from(bytes.clone()));
        let _ = decode::<Vec<u64>>(Bytes::from(bytes));
    }
}

#[test]
fn truncation_always_fails_cleanly() {
    for seed in 0..CASES {
        let mut rng = DetRng::derive(0xF6, seed);
        let msg = arb_app_msg(&mut rng);
        let cut = rng.below(64) as usize;
        let encoded = encode(&msg);
        if cut < encoded.len() {
            let truncated = encoded.slice(0..encoded.len() - cut - 1);
            assert!(decode::<AppMsg>(truncated).is_err(), "seed {seed}");
        }
    }
}

#[test]
fn watermark_set_equivalent_to_hashset() {
    for seed in 0..CASES {
        let mut rng = DetRng::derive(0x28, seed);
        let ops: Vec<u64> = (0..rng.below(128)).map(|_| rng.below(64)).collect();
        // The compacted set must answer is_new exactly like a plain set.
        let mut compact = WatermarkSet::default();
        let mut reference = std::collections::HashSet::new();
        for seq in ops {
            assert_eq!(
                compact.is_new(seq),
                !reference.contains(&seq),
                "seed {seed} seq {seq}"
            );
            compact.complete(seq);
            reference.insert(seq);
        }
        for seq in 0..64u64 {
            assert_eq!(compact.is_new(seq), !reference.contains(&seq));
        }
    }
}

#[test]
fn watermark_compacts_dense_prefixes() {
    for seed in 0..CASES {
        let mut rng = DetRng::derive(0x39, seed);
        let limit = 1 + rng.below(511);
        let mut set = WatermarkSet::default();
        for seq in 0..limit {
            set.complete(seq);
        }
        assert_eq!(set.watermark(), limit);
        assert_eq!(set.run_count(), 0, "dense prefix must compact away");
    }
}

#[test]
fn flow_window_never_exceeds_capacity() {
    for seed in 0..CASES {
        let mut rng = DetRng::derive(0x4A, seed);
        let window = 1 + rng.below(7) as usize;
        // true = try_acquire, false = release(1).
        let mut w = FlowWindow::new(window);
        let mut model: usize = 0;
        for _ in 0..rng.below(256) {
            if rng.below(2) == 1 {
                let ok = w.try_acquire();
                assert_eq!(ok, model < window, "seed {seed}");
                if ok {
                    model += 1;
                }
            } else {
                let reopened = w.release(1);
                // Reopen signal fires exactly on the full→not-full edge.
                assert_eq!(reopened, model == window, "seed {seed}");
                model = model.saturating_sub(1);
            }
            assert_eq!(w.outstanding(), model);
            assert!(w.outstanding() <= window);
        }
    }
}
