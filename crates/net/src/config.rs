//! Network and processing-cost models.
//!
//! The defaults below are the calibration described in `DESIGN.md` §5:
//! they stand in for the paper's testbed (Pentium 4 @ 3.2 GHz, 1 GB RAM,
//! Gigabit Ethernet, Sun JVM 1.5). Absolute values shift the curves; the
//! *mechanisms* (CPU saturation, NIC serialization) produce the shapes.

use fortika_sim::VDur;
use fortika_trace::TraceConfig;

/// Parameters of the simulated network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetModel {
    /// Outbound NIC bandwidth per process, bytes per second.
    pub bandwidth_bytes_per_sec: u64,
    /// One-way propagation delay between any two processes.
    pub prop_delay: VDur,
    /// Uniform random extra delay in `[0, jitter]`, from the seeded RNG.
    pub jitter: VDur,
    /// Fixed wire overhead added to every message (Ethernet + IP + TCP).
    pub per_msg_overhead: u32,
}

impl Default for NetModel {
    fn default() -> Self {
        NetModel {
            // Gigabit Ethernet ≈ 125 MB/s of goodput capacity.
            bandwidth_bytes_per_sec: 125_000_000,
            // Same-switch cluster LAN.
            prop_delay: VDur::micros(30),
            jitter: VDur::micros(10),
            // Ethernet (14) + IP (20) + TCP (20) + padding/preamble ≈ 60.
            per_msg_overhead: 60,
        }
    }
}

impl NetModel {
    /// A zero-latency, (practically) infinite-bandwidth network — useful
    /// in unit tests that only exercise protocol logic.
    pub fn instant() -> Self {
        NetModel {
            bandwidth_bytes_per_sec: u64::MAX / 2,
            prop_delay: VDur::ZERO,
            jitter: VDur::ZERO,
            per_msg_overhead: 0,
        }
    }
}

/// CPU costs charged for protocol activity.
///
/// Each process is a serial server: event handlers execute one at a time
/// and each charges the costs below. The fixed per-message costs dominate
/// for small messages — which is why the paper finds latency governed by
/// *message count* at small sizes (Fig. 9) — while the per-KiB terms and
/// NIC bandwidth take over for large ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Fixed CPU cost to send one message (syscall + marshalling setup).
    pub send_fixed: VDur,
    /// Additional CPU cost per KiB sent (copy + marshalling).
    pub send_per_kib: VDur,
    /// Fixed CPU cost to receive one message.
    pub recv_fixed: VDur,
    /// Additional CPU cost per KiB received.
    pub recv_per_kib: VDur,
    /// Cost of dispatching one event through one microprotocol module
    /// (the Cactus framework's per-hop overhead; charged by `framework`).
    pub dispatch: VDur,
    /// Fixed cost of a timer-expiry handler.
    pub timer_fixed: VDur,
    /// Fixed cost of accepting one application request.
    pub request_fixed: VDur,
    /// Fixed CPU cost of adelivering one message to the application
    /// (upcall, copy out of the stack). Identical in both stacks, so it
    /// compresses the modular/monolithic gap at small message sizes —
    /// the effect behind the paper's modest Fig. 11 spread.
    pub deliver_fixed: VDur,
    /// Additional delivery cost per KiB.
    pub deliver_per_kib: VDur,
    /// Cost of one stable-storage write (crash-recovery vote records).
    /// Zero by default: the paper's testbed ran crash-stop, so the
    /// calibrated good-run curves must not shift; raise it to model a
    /// synchronous disk/SSD barrier on the ack path.
    pub stable_write: VDur,
    /// Snapshot-materialization cost per KiB of encoded snapshot
    /// (serialization + the stable write of the checkpoint); installing
    /// a received snapshot (decode + application-state restore +
    /// re-encode for serving) costs 1.5× this rate. Zero by default for
    /// the same reason as [`stable_write`](CostModel::stable_write): the
    /// paper's testbed never checkpointed, so the calibrated curves must
    /// not shift.
    pub snapshot_per_kib: VDur,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            // Pentium-4-era Java networking (object serialization, socket
            // streams, GC pressure): several hundred µs per message.
            // Calibrated so that, as in the paper (§5.3.2), the CPU
            // saturates around 500 msg/s of offered load and throughput
            // plateaus in the 500–1400 msg/s range.
            send_fixed: VDur::micros(350),
            send_per_kib: VDur::nanos(2_500),
            recv_fixed: VDur::micros(400),
            recv_per_kib: VDur::nanos(3_500),
            dispatch: VDur::micros(25),
            timer_fixed: VDur::micros(20),
            request_fixed: VDur::micros(50),
            deliver_fixed: VDur::micros(200),
            deliver_per_kib: VDur::nanos(1_500),
            stable_write: VDur::ZERO,
            snapshot_per_kib: VDur::ZERO,
        }
    }
}

impl CostModel {
    /// A zero-cost model for logic-only unit tests.
    pub fn free() -> Self {
        CostModel {
            send_fixed: VDur::ZERO,
            send_per_kib: VDur::ZERO,
            recv_fixed: VDur::ZERO,
            recv_per_kib: VDur::ZERO,
            dispatch: VDur::ZERO,
            timer_fixed: VDur::ZERO,
            request_fixed: VDur::ZERO,
            deliver_fixed: VDur::ZERO,
            deliver_per_kib: VDur::ZERO,
            stable_write: VDur::ZERO,
            snapshot_per_kib: VDur::ZERO,
        }
    }

    /// CPU cost of sending a message of `bytes` bytes.
    pub fn send_cost(&self, bytes: usize) -> VDur {
        self.send_fixed + per_kib(self.send_per_kib, bytes)
    }

    /// CPU cost of receiving a message of `bytes` bytes.
    pub fn recv_cost(&self, bytes: usize) -> VDur {
        self.recv_fixed + per_kib(self.recv_per_kib, bytes)
    }

    /// CPU cost of adelivering a message of `bytes` payload bytes.
    pub fn deliver_cost(&self, bytes: usize) -> VDur {
        self.deliver_fixed + per_kib(self.deliver_per_kib, bytes)
    }

    /// CPU cost of materializing a snapshot whose encoded form is
    /// `bytes` long (charged by both stacks when they compact).
    pub fn snapshot_encode_cost(&self, bytes: usize) -> VDur {
        per_kib(self.snapshot_per_kib, bytes)
    }

    /// CPU cost of installing a received snapshot of `bytes` encoded
    /// bytes (charged by both stacks on rejoin catch-up).
    pub fn snapshot_install_cost(&self, bytes: usize) -> VDur {
        let p = self.snapshot_per_kib;
        per_kib(p + VDur::nanos(p.as_nanos() / 2), bytes)
    }

    /// The calibrated default with non-zero durability pricing: every
    /// stable write costs `stable_write`, and snapshots charge
    /// `snapshot_per_kib` of encoded bytes to materialize (and 1.5× that
    /// rate to install — decode, state restore and re-encode for
    /// serving). The benchmark's crash workloads are built on this
    /// constructor; see `docs/COST_MODEL.md` for calibration guidance.
    ///
    /// # Example
    ///
    /// ```
    /// use fortika_net::CostModel;
    /// use fortika_sim::VDur;
    ///
    /// // A 200 µs synchronous SSD barrier per vote persist, and
    /// // 40 µs/KiB of snapshot encode time.
    /// let cost = CostModel::with_durability(VDur::micros(200), VDur::micros(40));
    /// assert_eq!(cost.stable_write, VDur::micros(200));
    /// // A 64 KiB snapshot costs 64 × 40 µs = 2.56 ms to materialize…
    /// assert_eq!(cost.snapshot_encode_cost(64 * 1024), VDur::micros(2560));
    /// // …and 1.5× that to install.
    /// assert_eq!(cost.snapshot_install_cost(64 * 1024), VDur::micros(3840));
    /// // Message-path costs keep the paper's calibration.
    /// assert_eq!(cost.send_fixed, CostModel::default().send_fixed);
    /// ```
    pub fn with_durability(stable_write: VDur, snapshot_per_kib: VDur) -> Self {
        CostModel {
            stable_write,
            snapshot_per_kib,
            ..CostModel::default()
        }
    }
}

/// Scales a per-KiB cost by a byte count (rounded up to whole KiB would
/// overcharge tiny messages, so scale linearly in bytes).
fn per_kib(cost: VDur, bytes: usize) -> VDur {
    VDur::nanos((cost.as_nanos() as u128 * bytes as u128 / 1024) as u64)
}

/// Full configuration of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of processes `n`.
    pub n: usize,
    /// Network parameters.
    pub net: NetModel,
    /// CPU cost parameters.
    pub cost: CostModel,
    /// Master RNG seed (jitter and any protocol randomness derive from it).
    pub seed: u64,
    /// Event-trace recording (disabled by default; enabling it never
    /// changes simulated timing — see `fortika_trace`).
    pub trace: TraceConfig,
}

impl ClusterConfig {
    /// Default models with the given group size and seed.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 1, "cluster needs at least one process");
        ClusterConfig {
            n,
            net: NetModel::default(),
            cost: CostModel::default(),
            seed,
            trace: TraceConfig::default(),
        }
    }

    /// Logic-test configuration: instant network, free CPU.
    pub fn instant(n: usize, seed: u64) -> Self {
        ClusterConfig {
            n,
            net: NetModel::instant(),
            cost: CostModel::free(),
            seed,
            trace: TraceConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_models_are_calibrated() {
        let net = NetModel::default();
        assert_eq!(net.bandwidth_bytes_per_sec, 125_000_000);
        assert!(net.prop_delay > VDur::ZERO);
        let cost = CostModel::default();
        assert!(cost.send_fixed > VDur::ZERO);
    }

    #[test]
    fn cost_scales_with_size() {
        let cost = CostModel::default();
        let small = cost.send_cost(64);
        let large = cost.send_cost(16_384);
        assert!(large > small);
        // 16 KiB at 2.5 µs/KiB = 40 µs on top of the 350 µs fixed cost.
        assert_eq!(large, VDur::micros(350) + VDur::micros(40));
    }

    #[test]
    fn per_kib_is_linear_in_bytes() {
        let cost = CostModel {
            recv_per_kib: VDur::micros(1),
            ..CostModel::free()
        };
        assert_eq!(cost.recv_cost(512), VDur::nanos(500)); // half a µs
        assert_eq!(cost.recv_cost(2048), VDur::micros(2));
        assert_eq!(cost.recv_cost(0), VDur::ZERO);
    }

    #[test]
    fn free_model_is_free() {
        let cost = CostModel::free();
        assert_eq!(cost.send_cost(1 << 20), VDur::ZERO);
        assert_eq!(cost.recv_cost(1 << 20), VDur::ZERO);
        assert_eq!(cost.snapshot_encode_cost(1 << 20), VDur::ZERO);
        assert_eq!(cost.snapshot_install_cost(1 << 20), VDur::ZERO);
    }

    #[test]
    fn durability_defaults_to_free_but_scales_when_priced() {
        // Default calibration: crash-stop testbed, no checkpointing —
        // durability must not shift the good-run curves.
        let cost = CostModel::default();
        assert_eq!(cost.stable_write, VDur::ZERO);
        assert_eq!(cost.snapshot_encode_cost(4096), VDur::ZERO);
        assert_eq!(cost.snapshot_install_cost(4096), VDur::ZERO);
        // Priced: linear in encoded bytes, install ≥ encode.
        let cost = CostModel::with_durability(VDur::micros(100), VDur::micros(10));
        assert_eq!(cost.snapshot_encode_cost(2048), VDur::micros(20));
        assert_eq!(cost.snapshot_install_cost(2048), VDur::micros(30));
        assert!(cost.snapshot_install_cost(2048) > cost.snapshot_encode_cost(2048));
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn empty_cluster_rejected() {
        let _ = ClusterConfig::new(0, 1);
    }
}
