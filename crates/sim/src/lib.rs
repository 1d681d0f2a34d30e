//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the bottom-most substrate of the Fortika reproduction: a
//! small, domain-agnostic discrete-event simulation (DES) toolkit used by
//! `fortika-net` to model a cluster of processes connected by
//! quasi-reliable channels.
//!
//! Everything here is **deterministic**: virtual time is integer
//! nanoseconds, the event queue breaks ties by insertion sequence number,
//! and randomness comes from an explicitly seeded PRNG. Running the same
//! experiment with the same seed reproduces every event bit-for-bit, which
//! is what makes the paper's figures regenerable.
//!
//! # Contents
//!
//! * [`VTime`], [`VDur`] — virtual instants and durations (integer ns).
//! * [`EventQueue`] — priority queue with deterministic FIFO tie-breaking.
//! * [`CpuResource`], [`LinkResource`] — serial-server resource models for
//!   process CPUs and NIC transmit paths.
//! * [`DetRng`] — seeded deterministic random number generator.
//! * [`stats`] — online statistics (Welford mean/variance, a
//!   log-bucketed latency histogram) used by the experiment runner.
//!
//! # Example
//!
//! ```
//! use fortika_sim::{EventQueue, VDur, VTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(VTime::ZERO + VDur::millis(2), "second");
//! q.schedule(VTime::ZERO + VDur::millis(1), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "first");
//! assert_eq!(t, VTime::ZERO + VDur::millis(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
mod resource;
mod rng;
pub mod stats;
mod time;

pub use queue::EventQueue;
pub use resource::{CpuResource, LinkResource};
pub use rng::DetRng;
pub use time::{VDur, VTime};
