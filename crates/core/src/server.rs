//! The simulated X-Gene2 server: SoC model + DRAM device + thermal testbed.

use crate::thermal::ThermalTestbed;
use serde::{Deserialize, Serialize};
use wade_dram::{DramDevice, DramUsageProfile, ReuseQuantiles};
use wade_features::{extract, ExtractionContext, FeatureVector};
use wade_memsys::{CacheConfig, Soc, SocConfig, SocReport};
use wade_trace::{FanoutSink, TraceReport, Tracer, REGION_COUNT};
use wade_workloads::Workload;

/// One workload's profiling result: the 249 features, the DRAM usage
/// profile for the error simulator, and the raw reports.
///
/// Serializable so the profiling tier of the artifact store can persist it
/// (`wade-store`); the vendored `serde_json` round-trips every field —
/// including `f64`s — exactly, so a profile read back from disk is
/// byte-identical to the freshly computed one (asserted by
/// `tests/artifact_store.rs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfiledWorkload {
    /// Benchmark label (paper style, e.g. `"backprop(par)"`).
    pub name: String,
    /// The 249 extracted program features.
    pub features: FeatureVector,
    /// DRAM usage profile at deployment scale.
    pub profile: DramUsageProfile,
    /// Raw SoC counters of the profiling run.
    pub soc: SocReport,
    /// Raw instrumentation report of the profiling run.
    pub trace: TraceReport,
}

/// The simulated server: everything Fig. 3's two phases need.
#[derive(Debug, Clone)]
pub struct SimulatedServer {
    device: DramDevice,
    soc_config: SocConfig,
    /// Order-stable hash of `soc_config`, precomputed so the profile
    /// cache's warm-hit path is a pure map lookup.
    soc_fingerprint: u64,
    thermal: ThermalTestbed,
}

impl SimulatedServer {
    /// Manufactures a server whose DRAM reliability is fixed by `seed`.
    pub fn with_seed(seed: u64) -> Self {
        Self::with_device(DramDevice::with_seed(seed))
    }

    /// A server built around an externally manufactured device — the
    /// drill-down entry point for heterogeneous populations: a fleet layer
    /// that manufactures devices with variant geometry or vintage-skewed
    /// physics (`DramDevice::with_parts`) can put any one of them under the
    /// standard SoC/thermal testbed and run a full characterization
    /// campaign on it. The device fingerprint flows into campaign store
    /// keys exactly as for seed-manufactured servers, so drill-down
    /// campaigns on distinct fleet devices can never alias in the store.
    pub fn with_device(device: DramDevice) -> Self {
        let soc_config = Self::profiling_soc_config();
        Self {
            device,
            soc_fingerprint: fingerprint_soc_config(&soc_config),
            soc_config,
            thermal: ThermalTestbed::new(),
        }
    }

    /// The SoC configuration used for profiling runs.
    ///
    /// Caches are scaled down with the kernels so that the footprint-to-LLC
    /// ratio resembles deployment (8 GB against an 8 MiB L3 ≈ 1024×): the
    /// mini-kernels carry 0.5–8 MB footprints, so the profiling hierarchy
    /// is a few tens of KiB and even the kernels' hot sets overflow it —
    /// exactly as 8 GB working sets overflow the real 8 MiB L3. Only
    /// *relative* cache-filter behaviour across workloads matters to the
    /// model.
    pub(crate) fn profiling_soc_config() -> SocConfig {
        SocConfig {
            l1d: CacheConfig { capacity_bytes: 4 << 10, ways: 4, line_bytes: 64 },
            l2: CacheConfig { capacity_bytes: 16 << 10, ways: 8, line_bytes: 64 },
            l3: CacheConfig { capacity_bytes: 64 << 10, ways: 8, line_bytes: 64 },
            // Profiling models the memory-level parallelism of the real
            // 8-core machine: most miss latency is overlapped, so the
            // accesses-per-cycle counter reflects memory-operation density
            // (as on the paper's ARM server) rather than stall time.
            stall_exposure: 0.15,
            ..SocConfig::x_gene2()
        }
    }

    /// The DRAM device under test.
    pub fn device(&self) -> &DramDevice {
        &self.device
    }

    /// Precomputed order-stable hash of the SoC configuration profiling
    /// runs execute against; part of the profile-cache key.
    pub fn soc_fingerprint(&self) -> u64 {
        self.soc_fingerprint
    }

    /// The thermal testbed (mutable: campaigns set temperatures).
    pub(crate) fn thermal_mut(&mut self) -> &mut ThermalTestbed {
        &mut self.thermal
    }

    /// Runs the profiling phase for one workload (Fig. 3 left): executes
    /// the instrumented kernel once against the tracer and the SoC model
    /// simultaneously, extracts the 249 features and builds the DRAM usage
    /// profile.
    ///
    /// The kernel emits through a staging buffer
    /// ([`wade_workloads::Workload::run_buffered`]): the fanout, tracer and
    /// SoC model consume access slices instead of one virtual-boundary call
    /// per access. Observationally identical to the per-access reference
    /// path ([`SimulatedServer::profile_workload_unbatched`], asserted by
    /// test), just faster.
    pub fn profile_workload(&self, workload: &dyn Workload, seed: u64) -> ProfiledWorkload {
        let mut fan = FanoutSink::new(Tracer::new(), Soc::new(self.soc_config));
        workload.run_buffered(&mut fan, seed);
        Self::summarize(workload, fan)
    }

    /// The pre-batching reference path: the kernel calls straight into the
    /// fanout, one virtual call per access. Kept (and exercised by tests
    /// and the `bench` bin) as the baseline the batched front-end must
    /// match byte-for-byte.
    pub fn profile_workload_unbatched(&self, workload: &dyn Workload, seed: u64) -> ProfiledWorkload {
        let mut fan = FanoutSink::new(Tracer::new(), Soc::new(self.soc_config));
        workload.run(&mut fan, seed);
        Self::summarize(workload, fan)
    }

    /// The shared summary step of both profiling paths: reports → features
    /// → deployment-scale usage profile.
    fn summarize(workload: &dyn Workload, fan: FanoutSink<Tracer, Soc>) -> ProfiledWorkload {
        let (tracer, soc) = fan.into_inner();
        let soc_report = soc.report();
        let trace_report = tracer.report();
        let deploy = workload.deploy_scale();
        let ctx = ExtractionContext {
            deploy_footprint_words: deploy.footprint_words,
            reuse_scale: deploy.reuse_scale,
        };
        let features = extract(&soc_report, &trace_report, &ctx);
        let profile = build_usage_profile(&soc_report, &trace_report, &ctx);
        ProfiledWorkload {
            name: workload.name(),
            features,
            profile,
            soc: soc_report,
            trace: trace_report,
        }
    }
}

/// Version of the profiling contract: the trace/SoC pipeline and feature
/// extraction that turn a kernel execution into a [`ProfiledWorkload`].
/// Folded into [`SimulatedServer::soc_fingerprint`] — and through it into
/// every profile and campaign store key — so **bump it on any
/// re-baselining change to the profiling front-end or feature extraction**
/// (the profiling analogue of `wade-dram`'s `DETERMINISM_VERSION` and
/// [`crate::TRAINER_CONFIG_VERSION`]): persisted artifacts produced under
/// the old contract then read as misses instead of stale hits.
pub(crate) const PROFILING_CONTRACT_VERSION: u32 = 1;

/// Order-stable fingerprint of a SoC configuration (the vendored serde
/// serializes structs in field order) and the profiling-contract version.
fn fingerprint_soc_config(config: &SocConfig) -> u64 {
    use std::hash::Hasher as _;
    let json = serde_json::to_string(config).expect("SocConfig serializes");
    let mut hasher = rustc_hash::FxHasher::default();
    hasher.write_u32(PROFILING_CONTRACT_VERSION);
    hasher.write(json.as_bytes());
    hasher.finish()
}

/// Builds the deployment-scale [`DramUsageProfile`] from one profiling run.
pub(crate) fn build_usage_profile(
    soc: &SocReport,
    trace: &TraceReport,
    ctx: &ExtractionContext,
) -> DramUsageProfile {
    // DRAM service-time bound: the in-order timing model underestimates
    // wall time for memory-saturating workloads, which would inflate DRAM
    // command/activation rates. Bound the wall clock from below by the
    // DRAM service time: row-buffer hits stream at channel bandwidth,
    // activations pay the row cycle divided by the bank/channel
    // parallelism a core-limited machine can keep in flight.
    let cmds = soc.dram_cmds() as f64;
    let hit_rate = soc.rowbuffer_hit_rate();
    let service_s = cmds * (hit_rate * 2.5e-9 + (1.0 - hit_rate) * 6.0e-9);
    let wall_s = soc.wall_seconds().max(service_s).max(1e-9);
    let spi = wall_s / soc.total_instructions().max(1) as f64;
    let mini_words = trace.unique_words.max(1) as f64;
    let ratio = ctx.deploy_footprint_words as f64 / mini_words;
    // Reuse-distance quantiles (instructions) → deployment-scale seconds,
    // using the same projection as the Treuse feature (eq. 4 extrapolated).
    let to_seconds = |instr: f64| instr * ratio * ctx.reuse_scale * spi;
    let quantiles: Vec<f64> = (0..16)
        .map(|i| {
            let q = (i as f64 + 0.5) / 16.0;
            to_seconds(trace.reuse_histogram.quantile(q))
        })
        .collect();
    // Quantiles of a histogram are monotone by construction; enforce
    // against float edge cases.
    let mut sorted = quantiles;
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let mem_accesses = trace.mem_accesses.max(1) as f64;
    let dram_filter = (soc.dram_cmds() as f64 / mem_accesses).clamp(0.0, 1.0);

    let mut region_shares = trace.region_shares.clone();
    region_shares.resize(REGION_COUNT, 0.0);

    DramUsageProfile {
        footprint_words: ctx.deploy_footprint_words,
        dram_read_rate_hz: soc.dram_read_cmds() as f64 / wall_s,
        dram_write_rate_hz: soc.dram_write_cmds() as f64 / wall_s,
        row_activation_rate_hz: soc.row_activations() as f64 / wall_s,
        dram_filter,
        reuse: ReuseQuantiles::new(sorted),
        never_reused_fraction: trace.never_reused_fraction.clamp(0.0, 1.0),
        one_density: trace.one_density.clamp(0.0, 1.0),
        entropy_bits: trace.entropy_bits.clamp(0.0, 32.0),
        region_shares,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wade_workloads::{Scale, WorkloadId};

    #[test]
    fn profiling_produces_valid_profile_and_features() {
        let server = SimulatedServer::with_seed(1);
        let wl = WorkloadId::Backprop.instantiate(1, Scale::Test);
        let p = server.profile_workload(wl.as_ref(), 3);
        assert_eq!(p.name, "backprop");
        assert!(p.profile.validate().is_ok(), "{:?}", p.profile.validate());
        assert!(p.features.values().iter().all(|v| v.is_finite()));
        assert!(p.profile.dram_read_rate_hz + p.profile.dram_write_rate_hz > 0.0);
    }

    #[test]
    fn profiling_is_deterministic() {
        let server = SimulatedServer::with_seed(1);
        let wl = WorkloadId::Nw.instantiate(1, Scale::Test);
        let a = server.profile_workload(wl.as_ref(), 3);
        let b = server.profile_workload(wl.as_ref(), 3);
        assert_eq!(a.features, b.features);
        assert_eq!(a.profile, b.profile);
    }

    #[test]
    fn memcached_has_shorter_reuse_than_nw() {
        let server = SimulatedServer::with_seed(1);
        let mc = server.profile_workload(
            WorkloadId::Memcached.instantiate(8, Scale::Test).as_ref(),
            3,
        );
        let nw = server.profile_workload(WorkloadId::Nw.instantiate(1, Scale::Test).as_ref(), 3);
        assert!(
            mc.profile.reuse.mean() < nw.profile.reuse.mean(),
            "memcached {} vs nw {}",
            mc.profile.reuse.mean(),
            nw.profile.reuse.mean()
        );
    }

    #[test]
    fn different_seeds_give_different_devices() {
        let a = SimulatedServer::with_seed(1);
        let b = SimulatedServer::with_seed(2);
        assert_ne!(a.device().variation().factors(), b.device().variation().factors());
    }
}
