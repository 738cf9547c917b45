//! `memcached` stand-in: an open-addressing key-value cache under
//! zipfian traffic.
//!
//! Real hash-table semantics (linear probing, get/set/evict) under the
//! skewed popularity that characterizes caching tiers. The hot keys are
//! re-touched every few thousand instructions, producing the shortest
//! reuse time of the suite (Table II: 0.09 s) and the paper's lowest WER.

use crate::buffer::{AddressSpace, TracedBuffer};
use crate::spec::{DeployScale, Scale, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wade_trace::AccessSink;

/// Slots are (key, value) word pairs; key 0 = empty.
const SLOT_WORDS: usize = 2;

/// Key-value cache kernel.
#[derive(Debug, Clone)]
pub(crate) struct Memcached {
    threads: u8,
    scale: Scale,
    capacity: usize,
    keys: usize,
    ops: usize,
    get_fraction: f64,
}

impl Memcached {
    const GAP: u64 = 2;
    /// Kernel network-stack instructions per request: real memcached spends
    /// the bulk of each operation in syscalls/TCP processing, not touching
    /// object memory (see Palit et al. [60]). This keeps its DRAM activity
    /// an order of magnitude below the compute-intensive kernels, as on
    /// the paper's server.
    const NET_GAP: u64 = 500;

    /// Creates the kernel.
    pub(crate) fn new(threads: u8, scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                threads,
                scale,
                capacity: 1 << 19, // 512k slots
                keys: 120_000,
                ops: 1_200_000,
                get_fraction: 0.9,
            },
            Scale::Test => Self {
                threads,
                scale,
                capacity: 1 << 10,
                keys: 600,
                ops: 5_000,
                get_fraction: 0.9,
            },
        }
    }

    fn hash(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) as usize & (self.capacity - 1)
    }

    fn zipf_key(&self, rng: &mut StdRng) -> u64 {
        // Bounded-Pareto inversion with exponent ≈0.99.
        let n = self.keys as f64;
        let a = 1.0 - 0.99;
        let u: f64 = rng.gen_range(0.0..1.0);
        let rank = ((n.powf(a) - 1.0) * u + 1.0).powf(1.0 / a);
        (rank.floor() as u64).clamp(1, self.keys as u64)
    }

    /// Runs the traffic; returns the hit rate for correctness checks.
    fn serve(&self, sink: &mut dyn AccessSink, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut space = AddressSpace::new();
        let mut table = TracedBuffer::zeroed(&mut space, self.capacity * SLOT_WORDS);

        let mut hits = 0u64;
        let mut gets = 0u64;
        for op in 0..self.ops {
            let tid = (op % self.threads as usize) as u8;
            // Receive + parse the request (network stack).
            sink.on_instructions(Self::NET_GAP);
            let key = self.zipf_key(&mut rng);
            let is_get = rng.gen_bool(self.get_fraction);
            let mut slot = self.hash(key);
            sink.on_instructions(Self::GAP + 2);

            // Linear probe (bounded).
            let mut found = false;
            for _probe in 0..16 {
                let stored = table.get(sink, slot * SLOT_WORDS, tid);
                sink.on_instructions(Self::GAP);
                if stored == key {
                    found = true;
                    break;
                }
                if stored == 0 {
                    break;
                }
                slot = (slot + 1) & (self.capacity - 1);
            }

            if is_get {
                gets += 1;
                if found {
                    hits += 1;
                    let _value = table.get(sink, slot * SLOT_WORDS + 1, tid);
                    sink.on_instructions(1);
                }
            } else {
                // Set: install key and a payload derived from the key (mixed
                // bit patterns — realistic mid-range entropy).
                table.set(sink, slot * SLOT_WORDS, key, tid);
                let payload = key.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) ^ (op as u64).rotate_left(32);
                table.set(sink, slot * SLOT_WORDS + 1, payload, tid);
                sink.on_instructions(2);
            }
        }
        if gets == 0 {
            0.0
        } else {
            hits as f64 / gets as f64
        }
    }
}

impl Workload for Memcached {
    fn scale(&self) -> Scale {
        self.scale
    }

    fn name(&self) -> String {
        // The paper runs memcached only with 8 worker threads; no "(par)"
        // suffix is used there.
        "memcached".to_string()
    }

    fn threads(&self) -> u8 {
        self.threads
    }

    fn run(&self, sink: &mut dyn AccessSink, seed: u64) {
        self.serve(sink, seed);
    }

    fn deploy_scale(&self) -> DeployScale {
        // Zipf traffic: hot-key reuse distances do not stretch with the
        // footprint, so the linear projection is strongly damped.
        DeployScale::with_reuse_scale(0.0128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wade_trace::{NullSink, Tracer};

    #[test]
    fn cache_warms_up_to_high_hit_rate() {
        let mc = Memcached::new(1, Scale::Test);
        let hit_rate = mc.serve(&mut NullSink, 7);
        // 10% sets over zipf keys: the hot head is resident quickly.
        assert!(hit_rate > 0.5, "hit rate {hit_rate}");
    }

    #[test]
    fn hot_keys_have_short_reuse() {
        let mc = Memcached::new(1, Scale::Test);
        let mut tracer = Tracer::new();
        mc.run(&mut tracer, 1);
        let r = tracer.report();
        // Mean reuse distance far below total instructions (hot head).
        assert!(r.mean_reuse_distance < r.instructions as f64 / 20.0);
    }

    #[test]
    fn footprint_stays_bounded_by_capacity() {
        let mc = Memcached::new(1, Scale::Test);
        let mut tracer = Tracer::new();
        mc.run(&mut tracer, 1);
        assert!(tracer.report().unique_words <= (1 << 10) * 2);
    }

    #[test]
    fn zipf_head_is_heavy() {
        let mc = Memcached::new(1, Scale::Test);
        let mut rng = StdRng::seed_from_u64(1);
        let head = (0..10_000).filter(|_| mc.zipf_key(&mut rng) <= 30).count();
        assert!(head > 2_000, "zipf head draws: {head}");
    }
}
