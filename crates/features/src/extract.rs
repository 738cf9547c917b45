//! Feature extraction from a simulated execution.

use crate::schema;
use crate::vector::FeatureVector;
use wade_memsys::SocReport;
use wade_trace::TraceReport;

/// Everything needed to turn raw run observations into the 249 features.
#[derive(Debug, Clone, Copy)]
pub struct ExtractionContext {
    /// Deployment footprint in 64-bit words (the paper's 8 GB allocation).
    pub deploy_footprint_words: u64,
    /// Residual reuse-scale calibration of the workload (see
    /// `wade_workloads::DeployScale`).
    pub reuse_scale: f64,
}

impl ExtractionContext {
    /// Computes the deployment-scale DRAM reuse time (eq. 4, extrapolated):
    /// `Treuse = D_reuse × footprint-ratio × reuse_scale × seconds-per-instruction`.
    pub(crate) fn treuse_seconds(&self, soc: &SocReport, trace: &TraceReport) -> f64 {
        let instructions = soc.total_instructions().max(1) as f64;
        let seconds_per_instr = soc.wall_seconds() / instructions;
        let mini_words = (trace.unique_words).max(1) as f64;
        let ratio = self.deploy_footprint_words as f64 / mini_words;
        trace.mean_reuse_distance * ratio * self.reuse_scale * seconds_per_instr
    }
}

/// Extracts the full 249-feature vector from one instrumented execution.
///
/// `soc` supplies the 247 performance counters; `trace` supplies the two
/// novel features (`Treuse` via `ctx`, `H_DP` directly).
pub fn extract(soc: &SocReport, trace: &TraceReport, ctx: &ExtractionContext) -> FeatureVector {
    let mut v = FeatureVector::zeroed();
    let wall = soc.wall_cycles().max(1) as f64;

    for core_idx in 0..schema::CORES {
        let base = core_idx * schema::PER_CORE;
        let c = soc.cores.get(core_idx).copied().unwrap_or_default();
        let vals = [
            c.instructions as f64,
            c.cycles as f64,
            c.ipc(),
            c.cpi(),
            c.mem_reads as f64,
            c.mem_writes as f64,
            c.mem_accesses() as f64,
            c.mem_accesses_per_cycle(),
            c.l1d_accesses as f64,
            c.l1d_misses as f64,
            c.l1d_miss_rate(),
            c.l2_accesses as f64,
            c.l2_misses as f64,
            c.l2_miss_rate(),
            c.l3_accesses as f64,
            c.l3_misses as f64,
            c.l3_miss_rate(),
            c.wait_cycles as f64,
            c.wait_cycle_ratio(),
            c.mpki(),
            c.read_fraction(),
            c.writebacks as f64,
        ];
        for (k, val) in vals.into_iter().enumerate() {
            v.set(base + k, val);
        }
    }

    for (mcu_idx, m) in soc.mcus.iter().enumerate() {
        let base = schema::MCU_BASE + mcu_idx * schema::PER_MCU;
        let vals = [
            m.read_cmds as f64,
            m.write_cmds as f64,
            m.total_cmds() as f64,
            m.read_cmds as f64 / wall,
            m.write_cmds as f64 / wall,
            m.total_cmds() as f64 / wall,
            m.row_activations as f64,
            m.rowbuffer_hit_rate(),
        ];
        for (k, val) in vals.into_iter().enumerate() {
            v.set(base + k, val);
        }
    }

    let l1d_accesses: u64 = soc.cores.iter().map(|c| c.l1d_accesses).sum();
    let l1d_misses: u64 = soc.cores.iter().map(|c| c.l1d_misses).sum();
    let l2_accesses: u64 = soc.cores.iter().map(|c| c.l2_accesses).sum();
    let l2_misses: u64 = soc.cores.iter().map(|c| c.l2_misses).sum();
    let l3_accesses: u64 = soc.cores.iter().map(|c| c.l3_accesses).sum();
    let l3_misses: u64 = soc.cores.iter().map(|c| c.l3_misses).sum();
    let writebacks: u64 = soc.cores.iter().map(|c| c.writebacks).sum();
    let instructions = soc.total_instructions().max(1) as f64;
    let rate = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };

    let soc_vals = [
        soc.total_instructions() as f64,
        soc.total_cycles() as f64,
        soc.ipc(),
        soc.cpi(),
        soc.mem_reads() as f64,
        soc.mem_writes() as f64,
        soc.mem_accesses() as f64,
        soc.mem_accesses_per_cycle(),
        soc.mem_reads() as f64 / wall,
        soc.mem_writes() as f64 / wall,
        rate(soc.mem_reads(), soc.mem_accesses()),
        rate(soc.mem_writes(), soc.mem_accesses()),
        l1d_accesses as f64,
        l1d_misses as f64,
        rate(l1d_misses, l1d_accesses),
        l2_accesses as f64,
        l2_misses as f64,
        rate(l2_misses, l2_accesses),
        l3_accesses as f64,
        l3_misses as f64,
        rate(l3_misses, l3_accesses),
        1000.0 * l1d_misses as f64 / instructions,
        1000.0 * l2_misses as f64 / instructions,
        1000.0 * l3_misses as f64 / instructions,
        soc.wait_cycles() as f64,
        soc.wait_cycle_ratio(),
        soc.cpu_utilization(),
        soc.active_cores() as f64,
        soc.dram_read_cmds() as f64,
        soc.dram_write_cmds() as f64,
        soc.dram_cmds() as f64 / wall,
        soc.dram_read_cmds() as f64 / wall,
        soc.dram_write_cmds() as f64 / wall,
        64.0 * soc.dram_cmds() as f64 / wall,
        soc.row_activations() as f64,
        soc.row_activations() as f64 / wall,
        soc.rowbuffer_hit_rate(),
        writebacks as f64,
        trace.access_intensity(),
    ];
    for (k, val) in soc_vals.into_iter().enumerate() {
        v.set(schema::SOC_BASE + k, val);
    }

    v.set(schema::TREUSE, ctx.treuse_seconds(soc, trace));
    v.set(schema::HDP, trace.entropy_bits);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use wade_memsys::{CacheConfig, Soc, SocConfig};
    use wade_trace::{AccessSink, FanoutSink, MemAccess, Tracer};

    fn run_small() -> (SocReport, TraceReport) {
        // Tiny caches, so that the small stream reaches DRAM.
        let tiny = SocConfig {
            l1d: CacheConfig { capacity_bytes: 1 << 10, ways: 2, line_bytes: 64 },
            l2: CacheConfig { capacity_bytes: 4 << 10, ways: 4, line_bytes: 64 },
            l3: CacheConfig { capacity_bytes: 16 << 10, ways: 4, line_bytes: 64 },
            ..SocConfig::x_gene2()
        };
        let mut fan = FanoutSink::new(Tracer::new(), Soc::new(tiny));
        for i in 0..20_000u64 {
            let addr = (i * 64) % (1 << 18); // 4096 lines, each re-touched ~5×
            if i % 4 == 0 {
                fan.on_access(MemAccess::write(addr, i.wrapping_mul(0x2545F4914F6CDD1D), (i % 8) as u8));
            } else {
                fan.on_access(MemAccess::read(addr, (i % 8) as u8));
            }
            fan.on_instructions(3);
        }
        let (tracer, soc) = fan.into_inner();
        (soc.report(), tracer.report())
    }

    fn ctx() -> ExtractionContext {
        ExtractionContext { deploy_footprint_words: 1 << 30, reuse_scale: 1.0 }
    }

    #[test]
    fn vector_is_fully_populated_and_finite() {
        let (soc, trace) = run_small();
        let v = extract(&soc, &trace, &ctx());
        assert!(v.values().iter().all(|x| x.is_finite()));
        assert!(v.get(schema::SOC_BASE) > 0.0, "total instructions");
    }

    #[test]
    fn star_features_are_populated() {
        let (soc, trace) = run_small();
        let v = extract(&soc, &trace, &ctx());
        assert!(v.get(schema::SOC_MEM_ACCESSES_PER_CYCLE) > 0.0);
        assert!(v.get(schema::SOC_WAIT_CYCLE_RATIO) > 0.0);
        assert!(v.get(schema::TREUSE) > 0.0);
        assert!(v.get(schema::HDP) > 0.0);
    }

    #[test]
    fn treuse_scales_with_reuse_scale() {
        let (soc, trace) = run_small();
        let t1 = ExtractionContext { deploy_footprint_words: 1 << 30, reuse_scale: 1.0 }
            .treuse_seconds(&soc, &trace);
        let t2 = ExtractionContext { deploy_footprint_words: 1 << 30, reuse_scale: 0.5 }
            .treuse_seconds(&soc, &trace);
        assert!((t1 / t2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn per_core_blocks_follow_activity() {
        let (soc, trace) = run_small();
        let v = extract(&soc, &trace, &ctx());
        // All 8 cores were driven round-robin.
        for core in 0..8 {
            assert!(v.get(core * schema::PER_CORE) > 0.0, "core {core} instructions");
        }
    }

    #[test]
    fn idle_mcu_features_are_zero_not_nan() {
        let soc = Soc::new(SocConfig::x_gene2()).report();
        let trace = Tracer::new().report();
        let v = extract(&soc, &trace, &ctx());
        assert!(v.values().iter().all(|x| x.is_finite()));
        assert_eq!(v.get(schema::MCU_BASE), 0.0);
    }
}
