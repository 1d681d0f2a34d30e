//! Randomized property tests of the simulation kernel: queue ordering,
//! resource conservation, statistics correctness.
//!
//! Inputs are generated from seeded [`DetRng`] streams (the offline
//! environment has no property-testing framework), so every case is
//! deterministic and reproducible from its seed.

use fortika_sim::stats::Welford;
use fortika_sim::{CpuResource, DetRng, EventQueue, LinkResource, VDur, VTime};

const CASES: u64 = 32;

#[test]
fn queue_pops_sorted_and_stable() {
    for seed in 0..CASES {
        let mut rng = DetRng::derive(0x51E7E, seed);
        let len = 1 + rng.below(199) as usize;
        let times: Vec<u64> = (0..len).map(|_| rng.below(10_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(VTime::from_nanos(t), i);
        }
        let mut popped: Vec<(VTime, usize)> = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated (seed {seed})");
            if w[0].0 == w[1].0 {
                // FIFO among equal timestamps: insertion index order.
                assert!(w[0].1 < w[1].1, "FIFO tie-break violated (seed {seed})");
            }
        }
    }
}

#[test]
fn cpu_busy_time_equals_sum_of_costs() {
    for seed in 0..CASES {
        let mut rng = DetRng::derive(0xC9B, seed);
        let mut cpu = CpuResource::new();
        let mut arrival = VTime::ZERO;
        let mut total = VDur::ZERO;
        for _ in 0..rng.below(100) {
            arrival += VDur::nanos(rng.below(500));
            let cost = VDur::nanos(rng.below(10_000));
            let start = cpu.acquire(arrival, cost);
            assert!(start >= arrival, "handler started before arrival");
            total += cost;
        }
        assert_eq!(cpu.busy_time(), total, "seed {seed}");
    }
}

#[test]
fn cpu_handlers_never_overlap() {
    for seed in 0..CASES {
        let mut rng = DetRng::derive(0xCAFE, seed);
        let len = 1 + rng.below(99) as usize;
        let mut arrivals: Vec<(u64, u64)> = (0..len)
            .map(|_| (rng.below(100_000), 1 + rng.below(4_999)))
            .collect();
        arrivals.sort();
        let mut cpu = CpuResource::new();
        let mut prev_end = VTime::ZERO;
        for (at, cost) in arrivals {
            let start = cpu.acquire(VTime::from_nanos(at), VDur::nanos(cost));
            assert!(start >= prev_end, "handlers overlapped (seed {seed})");
            prev_end = start + VDur::nanos(cost);
            assert_eq!(cpu.free_at(), prev_end);
        }
    }
}

#[test]
fn link_transmissions_serialize() {
    for seed in 0..CASES {
        let mut rng = DetRng::derive(0x117, seed);
        let bw = 1_000 + rng.below(1_000_000_000 - 1_000);
        let mut link = LinkResource::new(bw);
        let mut prev_done = VTime::ZERO;
        for _ in 0..(1 + rng.below(49)) {
            let s = 1 + rng.below(99_999);
            let done = link.transmit(VTime::ZERO, s);
            assert!(done >= prev_done, "transmissions reordered (seed {seed})");
            assert!(done >= prev_done + link.tx_time(s) - VDur::nanos(1));
            prev_done = done;
        }
    }
}

#[test]
fn welford_matches_naive() {
    for seed in 0..CASES {
        let mut rng = DetRng::derive(0xE1F, seed);
        let len = 2 + rng.below(198) as usize;
        let xs: Vec<f64> = (0..len).map(|_| (rng.unit_f64() - 0.5) * 2e6).collect();
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!(
            (w.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()),
            "seed {seed}"
        );
        assert!(
            (w.variance() - var).abs() <= 1e-5 * (1.0 + var.abs()),
            "seed {seed}"
        );
        assert!((w.min() - xs.iter().cloned().fold(f64::INFINITY, f64::min)).abs() < 1e-12);
        assert!((w.max() - xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)).abs() < 1e-12);
    }
}

#[test]
fn merge_any_split_matches_whole() {
    for seed in 0..CASES {
        let mut rng = DetRng::derive(0x3E6E, seed);
        let len = 2 + rng.below(98) as usize;
        let xs: Vec<f64> = (0..len).map(|_| (rng.unit_f64() - 0.5) * 2e3).collect();
        let cut = rng.below(len as u64) as usize;
        let mut whole = Welford::new();
        xs.iter().for_each(|&x| whole.add(x));
        let mut a = Welford::new();
        let mut b = Welford::new();
        xs[..cut].iter().for_each(|&x| a.add(x));
        xs[cut..].iter().for_each(|&x| b.add(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9 * (1.0 + whole.mean().abs()));
        assert!((a.variance() - whole.variance()).abs() < 1e-7 * (1.0 + whole.variance()));
    }
}

#[test]
fn rng_below_is_uniform_enough() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut buckets = [0u32; 8];
        for _ in 0..8000 {
            buckets[rng.below(8) as usize] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            assert!(
                (700..1300).contains(&b),
                "seed {seed}: bucket {i} has {b} hits"
            );
        }
    }
}

#[test]
fn derived_streams_are_independent() {
    for seed in 0..CASES {
        let mut a = DetRng::derive(seed, 1);
        let mut b = DetRng::derive(seed, 2);
        let matches = (0..128).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(matches < 4, "seed {seed}");
    }
}
