//! The payload byte path is copied once per send: encoding a message
//! that carries 10 × 16 KiB of payload allocates one buffer of exactly
//! its encoded length, not a growing scratch buffer for the length, a
//! copy at `freeze` and two more for the framework's frame.
//!
//! Measured with a counting global allocator, which is why this is a
//! test binary of its own. Counters are per thread, so the harness's
//! other threads do not leak into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use fortika::consensus::ConsensusMsg;
use fortika::framework::{CompositeStack, EventKind, FrameworkCtx, Microprotocol, ModuleId};
use fortika::net::wire::{decode, encode, Wire};
use fortika::net::{AppMsg, Batch, Cluster, ClusterConfig, MsgId, Node, ProcessId, VoteRecord};
use fortika::sim::{VDur, VTime};

thread_local! {
    /// Bytes this thread has asked the allocator for.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, adding up the sizes requested per thread.
struct Counting;

fn count(size: usize) {
    // A thread that is tearing down its locals is not one under test.
    let _ = REQUESTED.try_with(|b| b.set(b.get() + size as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches one
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are exactly `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`; the
        // caller's obligations are exactly `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes this thread requested while `work` ran.
fn requested_during<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = REQUESTED.get();
    let out = work();
    (REQUESTED.get() - before, out)
}

/// Ten 16 KiB messages from three senders, as `modular-sat-16k-n7`
/// batches them.
fn big_batch() -> Batch {
    Batch::normalize(
        (0..10u64)
            .map(|i| {
                AppMsg::new(
                    MsgId::new(ProcessId((i % 3) as u16), i / 3),
                    Bytes::from(vec![0xAB; 16 * 1024]),
                )
            })
            .collect(),
    )
}

#[test]
fn encoding_a_vote_record_allocates_one_exact_buffer() {
    let rec = VoteRecord {
        round: 2,
        ts: 1,
        value: big_batch(),
    };
    let len = rec.encoded_len();
    assert!(len > 10 * 16 * 1024);
    let (requested, bytes) = requested_during(|| encode(&rec));
    assert_eq!(bytes.len(), len);
    // The buffer, plus the reference count it is shared under.
    assert!(
        requested <= len as u64 + 64,
        "encode of {len} bytes requested {requested} bytes of heap"
    );
    assert_eq!(decode::<VoteRecord>(bytes).unwrap(), rec);
}

/// Broadcasts one prepared proposal on start and reports what the call
/// requested from the heap.
struct Proposer {
    msg: ConsensusMsg,
    requested: std::rc::Rc<Cell<u64>>,
}

impl Microprotocol for Proposer {
    fn name(&self) -> &'static str {
        "proposer"
    }
    fn module_id(&self) -> ModuleId {
        7
    }
    fn subscriptions(&self) -> &'static [EventKind] {
        &[]
    }
    fn on_start(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        if ctx.pid() == ProcessId(0) {
            let (requested, ()) =
                requested_during(|| ctx.broadcast_net("consensus.proposal", &self.msg));
            self.requested.set(requested);
        }
    }
}

#[test]
fn broadcasting_a_proposal_allocates_one_framed_buffer() {
    let n = 7;
    let msg = ConsensusMsg::Propose {
        instance: 3,
        round: 0,
        value: big_batch(),
    };
    let framed_len = 2 + msg.encoded_len() as u64;
    let requested = std::rc::Rc::new(Cell::new(0));
    let nodes: Vec<Box<dyn Node>> = (0..n)
        .map(|_| {
            let module = Proposer {
                msg: msg.clone(),
                requested: requested.clone(),
            };
            Box::new(CompositeStack::new(vec![Box::new(module)])) as Box<dyn Node>
        })
        .collect();
    let mut cluster = Cluster::new(ClusterConfig::instant(n, 1), nodes);
    cluster.run_idle(VTime::ZERO + VDur::secs(1));
    let sent = cluster.counters().kind("consensus.proposal");
    assert_eq!(sent.msgs, n as u64 - 1);
    // One buffer holds the module id and the message and is shared by
    // the n − 1 unicasts. The slack is the handler's bookkeeping: the
    // outbox vector's growth to six entries of 48 bytes and one entry
    // in the per-kind counter map — nothing that scales with payload.
    let requested = requested.get();
    assert!(
        (framed_len..=framed_len + 1024).contains(&requested),
        "broadcast of a {framed_len}-byte frame requested {requested} bytes of heap"
    );
}
