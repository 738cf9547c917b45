//! Characterization campaigns: the paper's data-collection loop (Fig. 3).
//!
//! The (workload × operating point) grid and the PUE repeats fan out on the
//! shared rayon pool: every row's seed is *derived* from (campaign seed,
//! workload name, refresh period) rather than drawn from a shared stream,
//! so the grid can be evaluated in any order — and on any number of
//! threads — while producing byte-identical rows in a stable order
//! (`collect_is_identical_across_thread_counts` asserts this). Thermal
//! settling stays grouped per temperature set-point, exactly like the
//! physical campaign heats the DIMMs once per set-point and then sweeps
//! refresh periods.
//!
//! # Population caching
//!
//! Within one temperature set-point, every refresh-period set-point of a
//! workload — and every PUE repeat — thresholds the **same** weak-cell
//! population (the simulator keys populations by (device, rank, segment,
//! cell, temp, vdd); see `wade_dram`'s `sim` module docs, which are
//! normative). [`Campaign::collect`] therefore groups the grid by that
//! population key and makes each group one unit of work on the shared
//! pool: the unit realizes its population **once** into a
//! [`wade_dram::PreparedRun`], replays every row it serves (re-drawing
//! only run randomness) and drops the population before its worker takes
//! the next group. At most pool-width populations are therefore alive at
//! once; the rows are scattered back into their sequential order. Replay
//! is bit-for-bit identical to the direct path ([`Campaign::collect_direct`]
//! — the reference implementation kept for verification), so collected
//! campaigns are byte-identical whichever path produced them, at any
//! thread count.

use crate::profile_cache::ProfileCache;
use crate::server::{ProfiledWorkload, SimulatedServer};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use wade_dram::{ErrorSim, OperatingPoint, PreparedRun, RunResult, RANK_COUNT};
use wade_features::FeatureVector;
use wade_workloads::{BoxedWorkload, Workload};

/// Campaign parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Duration of each characterization run in seconds (the paper: 2 h).
    pub run_duration_s: f64,
    /// Repeats per (workload, op) for the UE-probability estimate
    /// (the paper: 10).
    pub pue_repeats: u32,
    /// Refresh periods × temperatures characterized for WER.
    pub wer_ops: Vec<OperatingPoint>,
    /// Operating points for the PUE study.
    pub pue_ops: Vec<OperatingPoint>,
}

impl CampaignConfig {
    /// The paper's full grid: WER at TREFP ∈ {0.618, 1.173, 1.727, 2.283} s
    /// × {50, 60} °C plus the safe 70 °C points; PUE at
    /// {1.450, 1.727, 2.283} s × 70 °C with 10 repeats; 2-hour runs.
    pub fn paper_full() -> Self {
        let mut wer_ops = Vec::new();
        for &t in &OperatingPoint::WER_TREFP_SWEEP {
            for &c in &[50.0, 60.0] {
                wer_ops.push(OperatingPoint::relaxed(t, c));
            }
        }
        // At 70 °C only the two shortest refresh periods are UE-safe.
        wer_ops.push(OperatingPoint::relaxed(0.618, 70.0));
        wer_ops.push(OperatingPoint::relaxed(1.173, 70.0));
        let pue_ops =
            OperatingPoint::PUE_TREFP_SWEEP.iter().map(|&t| OperatingPoint::relaxed(t, 70.0)).collect();
        Self { run_duration_s: 7200.0, pue_repeats: 10, wer_ops, pue_ops }
    }

    /// A reduced grid for tests and examples: the same structure with
    /// fewer points and repeats.
    pub fn quick() -> Self {
        let wer_ops = vec![
            OperatingPoint::relaxed(1.173, 60.0),
            OperatingPoint::relaxed(1.727, 60.0),
            OperatingPoint::relaxed(2.283, 60.0),
            OperatingPoint::relaxed(2.283, 50.0),
        ];
        let pue_ops = vec![OperatingPoint::relaxed(1.450, 70.0), OperatingPoint::relaxed(2.283, 70.0)];
        Self { run_duration_s: 7200.0, pue_repeats: 3, wer_ops, pue_ops }
    }
}

/// Characterization outcome for one (workload, op): WER runs or PUE repeats.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CharacterizationOutcome {
    /// Aggregate WER (eq. 2) of the run (0 when the run crashed early).
    pub wer: f64,
    /// Per-rank WER split (Fig. 8's view).
    pub wer_per_rank: [f64; RANK_COUNT],
    /// Whether the run ended in an uncorrectable error (crash).
    pub crashed: bool,
    /// Rank blamed for the crash, if any.
    pub ue_rank: Option<usize>,
}

impl CharacterizationOutcome {
    fn from_run(run: &RunResult) -> Self {
        Self {
            wer: run.wer(),
            wer_per_rank: run.wer_per_rank(),
            crashed: run.crashed(),
            ue_rank: run.ue.map(|u| u.rank.index()),
        }
    }
}

/// One campaign row: a (workload, operating point) cell with its profiling
/// features and characterization results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignRow {
    /// Benchmark label.
    pub workload: String,
    /// Operating point characterized.
    pub op: OperatingPoint,
    /// The workload's 249 program features (op-independent).
    pub features: FeatureVector,
    /// WER measurement (single long run), if this op is in the WER grid.
    pub wer_run: Option<CharacterizationOutcome>,
    /// PUE repeats (crash indicator per repeat), if in the PUE grid.
    pub pue_runs: Vec<CharacterizationOutcome>,
}

impl CampaignRow {
    /// The measured UE probability (eq. 3) over the repeats.
    pub fn pue(&self) -> f64 {
        if self.pue_runs.is_empty() {
            return 0.0;
        }
        self.pue_runs.iter().filter(|r| r.crashed).count() as f64 / self.pue_runs.len() as f64
    }
}

/// The full collected dataset of a campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignData {
    /// All (workload × op) rows.
    pub rows: Vec<CampaignRow>,
    /// Seconds of simulated characterization time represented.
    pub simulated_seconds: f64,
}

impl CampaignData {
    /// Workload labels present, in first-appearance order.
    pub fn workloads(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for r in &self.rows {
            if !seen.contains(&r.workload) {
                seen.push(r.workload.clone());
            }
        }
        seen
    }

    /// Serialises to JSON (the public-release format of the paper's DFault
    /// repository).
    ///
    /// # Errors
    /// Returns [`crate::WadeError::Persistence`] if serialisation fails.
    pub fn to_json(&self) -> Result<String, crate::WadeError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Restores from JSON.
    ///
    /// # Errors
    /// Returns [`crate::WadeError::Persistence`] on malformed input.
    pub fn from_json(json: &str) -> Result<Self, crate::WadeError> {
        Ok(serde_json::from_str(json)?)
    }
}

/// The characterization campaign driver.
#[derive(Debug, Clone)]
pub struct Campaign {
    server: SimulatedServer,
    config: CampaignConfig,
    /// Memo table for the profiling phase.
    profile_cache: Arc<ProfileCache>,
}

impl Campaign {
    /// Binds a campaign configuration to a server, with a fresh in-memory
    /// [`ProfileCache`] of its own: each workload is profiled once per
    /// campaign (and its clones), and no profile outlives it unless
    /// [`Campaign::with_profile_cache`] supplies a shared cache. Output is
    /// byte-identical either way (profiling is deterministic; asserted by
    /// tests).
    pub fn new(server: SimulatedServer, config: CampaignConfig) -> Self {
        Self { server, config, profile_cache: Arc::new(ProfileCache::new()) }
    }

    /// Replaces the campaign's profile cache with `cache` — shared across
    /// campaigns, and across processes when the cache has a store
    /// ([`ProfileCache::with_store`]).
    #[must_use]
    pub fn with_profile_cache(mut self, cache: Arc<ProfileCache>) -> Self {
        self.profile_cache = cache;
        self
    }

    /// Profiles one workload (Fig. 3's profiling phase).
    pub fn profile(&self, workload: &dyn Workload, seed: u64) -> ProfiledWorkload {
        (*self.profile_shared(workload, seed)).clone()
    }

    /// [`Campaign::profile`] returning the shared frozen profile: a cache
    /// hit hands back the same allocation instead of cloning the reports.
    pub(crate) fn profile_shared(
        &self,
        workload: &dyn Workload,
        seed: u64,
    ) -> Arc<ProfiledWorkload> {
        self.profile_cache.profile(&self.server, workload, seed)
    }

    /// Profiles a whole suite on the shared rayon pool (profiling runs are
    /// independently seeded per workload, so they parallelize freely), in
    /// suite order. Order-stable and byte-identical at any thread count and
    /// with any cache state.
    pub fn profile_suite(
        &self,
        suite: &[BoxedWorkload],
        seed: u64,
    ) -> Vec<Arc<ProfiledWorkload>> {
        suite.par_iter().map(|w| self.profile_shared(w.as_ref(), seed)).collect()
    }

    /// Characterizes one profiled workload at one op for `repeats` runs via
    /// the direct path ([`ErrorSim::run`]): the population is re-realized
    /// from its streams on every run.
    ///
    /// Repeats are independent (each has its own derived seed), so they fan
    /// out on the shared rayon pool — the simulated analogue of queueing
    /// the 10 repeat experiments of Fig. 9 back to back on the testbed.
    /// Results come back in repeat order and are identical for any pool
    /// width.
    pub fn characterize(
        &self,
        profiled: &ProfiledWorkload,
        op: OperatingPoint,
        repeats: u32,
        seed: u64,
    ) -> Vec<CharacterizationOutcome> {
        let sim = ErrorSim::new(self.server.device());
        self.repeat_runs(repeats, |r| {
            sim.run(&profiled.profile, op, self.config.run_duration_s, repeat_seed(seed, r))
        })
    }

    /// Freezes the weak-cell population a workload shares across `ops`
    /// (one (temperature, voltage) pair, any refresh periods) so that
    /// [`Campaign::characterize_prepared`] can replay it per set-point and
    /// per repeat without re-realizing it. See [`wade_dram::PreparedRun`]
    /// for the byte-identical-replay guarantee.
    ///
    /// # Panics
    /// Panics if `ops` is empty or mixes temperatures or voltages.
    pub fn prepare(&self, profiled: &ProfiledWorkload, ops: &[OperatingPoint]) -> PreparedRun<'_> {
        ErrorSim::new(self.server.device()).prepare(&profiled.profile, ops)
    }

    /// [`Campaign::characterize`] against a frozen population: same seeds,
    /// same fan-out, bit-identical outcomes — only the realization work is
    /// skipped. The population-side gates are applied **once** per
    /// set-point ([`wade_dram::LiveCellIndex`]) and shared by every repeat,
    /// so replays stop re-gating the whole frozen arena per run.
    pub fn characterize_prepared(
        &self,
        prepared: &PreparedRun<'_>,
        op: OperatingPoint,
        repeats: u32,
        seed: u64,
    ) -> Vec<CharacterizationOutcome> {
        let index = prepared.live_index(op);
        self.repeat_runs(repeats, |r| {
            prepared.run_indexed(&index, self.config.run_duration_s, repeat_seed(seed, r))
        })
    }

    /// The shared repeat fan-out of both characterization paths.
    fn repeat_runs(
        &self,
        repeats: u32,
        run_one: impl Fn(u32) -> RunResult + Sync,
    ) -> Vec<CharacterizationOutcome> {
        let repeats: Vec<u32> = (0..repeats).collect();
        repeats.into_par_iter().map(|r| CharacterizationOutcome::from_run(&run_one(r))).collect()
    }

    /// Runs the full data-collection process of Fig. 3 over a suite:
    /// thermal settling, profiling, WER grid, PUE grid — with
    /// population caching (each (workload, temperature, voltage) group is
    /// realized once and replayed per set-point and repeat).
    ///
    /// Within each temperature set-point the (workload, voltage) groups are
    /// the parallel units on the shared pool: each realizes its population,
    /// replays every WER set-point and PUE repeat it serves, and drops the
    /// population before its worker takes the next group, so at most
    /// pool-width populations are alive at once. Rows are emitted in the
    /// same stable order as the sequential loop (ops sorted by temperature,
    /// then suite order), and the collected data is byte-identical to
    /// [`Campaign::collect_direct`] at the same seed, on any number of
    /// threads.
    pub fn collect(self, suite: &[BoxedWorkload], seed: u64) -> CampaignData {
        self.collect_impl(suite, seed, true)
    }

    /// [`Campaign::collect`] behind the disk-backed artifact store: the
    /// collection is keyed by (campaign seed, grid, suite/scale, device
    /// fingerprint) and served from `store` when a valid entry exists.
    /// Collected data round-trips the store byte-identically (the
    /// vendored `serde_json` is exact), so a warm read equals a fresh
    /// collection bit for bit; corrupt or foreign-version entries read as
    /// misses and are atomically rewritten.
    pub fn collect_stored(
        self,
        store: &wade_store::ArtifactStore,
        suite: &[BoxedWorkload],
        seed: u64,
    ) -> CampaignData {
        let key = crate::collect::campaign_store_key(&self.server, &self.config, suite, seed);
        let collect = || self.collect(suite, seed);
        store.get_or_put(crate::collect::CAMPAIGN_KIND, &key, |_| true, collect).0
    }

    /// The reference collection path: identical grid, seeds and row order
    /// as [`Campaign::collect`], but every run re-realizes its population
    /// directly ([`Campaign::characterize`]). Kept as the verification
    /// baseline for the prepared path — `tests/prepared_replay.rs` asserts
    /// the two produce byte-identical campaigns.
    pub fn collect_direct(self, suite: &[BoxedWorkload], seed: u64) -> CampaignData {
        self.collect_impl(suite, seed, false)
    }

    fn collect_impl(mut self, suite: &[BoxedWorkload], seed: u64, prepared: bool) -> CampaignData {
        let mut rows: Vec<CampaignRow> = Vec::new();
        let mut simulated = 0.0;
        // Profiling phase: the whole suite fans out on the shared pool
        // (per-workload seeds are independent); profile-cache hits share
        // frozen profiles across the campaigns that hold the cache.
        let profiled: Vec<Arc<ProfiledWorkload>> = self.profile_suite(suite, seed);

        // Temperature set-points group the grid like the physical campaign
        // (heat once per temperature, then sweep refresh periods).
        let mut all_ops: Vec<(OperatingPoint, bool)> = Vec::new();
        all_ops.extend(self.config.wer_ops.iter().map(|&op| (op, false)));
        all_ops.extend(self.config.pue_ops.iter().map(|&op| (op, true)));
        // total_cmp: NaN-proof (a hand-built config with a NaN set-point
        // must not panic the whole campaign mid-collect).
        all_ops.sort_by(|a, b| a.0.temp_c.total_cmp(&b.0.temp_c));

        let mut cursor = 0;
        while cursor < all_ops.len() {
            // One thermal settle per set-point, then the block's population
            // groups in parallel.
            let temp = all_ops[cursor].0.temp_c;
            let block_end = all_ops[cursor..]
                .iter()
                .position(|(op, _)| op.temp_c != temp)
                .map_or(all_ops.len(), |n| cursor + n);
            self.server.thermal_mut().set_all_targets(temp);
            simulated += self.server.thermal_mut().settle(0.5, 3600.0);

            let block_ops = &all_ops[cursor..block_end];
            // Population keys within the block: the temperature is fixed,
            // so groups are (workload, vdd) — in practice one vdd, i.e.
            // one population per workload per set-point.
            let mut vdds: Vec<u64> = Vec::new();
            for (op, _) in block_ops {
                if !vdds.contains(&op.vdd_v.to_bits()) {
                    vdds.push(op.vdd_v.to_bits());
                }
            }
            let workloads = profiled.len();
            let groups: Vec<(usize, u64)> =
                (0..workloads).flat_map(|w| vdds.iter().map(move |&v| (w, v))).collect();
            let repeats = |is_pue: bool| if is_pue { self.config.pue_repeats } else { 1 };
            // One group is one parallel unit: it realizes its population,
            // replays every row it serves (WER set-points and PUE repeats)
            // and drops the population before its worker takes the next
            // group, so at most pool-width populations are alive at once.
            // A group replayed only once (a lone set-point with no repeats)
            // skips preparation — freezing a population that is thresholded
            // a single time costs more than the direct run it would save.
            // The direct path never prepares. Each row carries its
            // (op, workload) position in the block.
            let group_rows: Vec<Vec<(usize, CampaignRow)>> = groups
                .into_par_iter()
                .map(|(w, vdd_bits)| {
                    let p = &profiled[w];
                    let members: Vec<(usize, OperatingPoint, bool)> = block_ops
                        .iter()
                        .enumerate()
                        .filter(|(_, (op, _))| op.vdd_v.to_bits() == vdd_bits)
                        .map(|(i, &(op, is_pue))| (i, op, is_pue))
                        .collect();
                    let replays: u32 = members.iter().map(|&(_, _, is_pue)| repeats(is_pue)).sum();
                    let group = (prepared && replays > 1).then(|| {
                        let ops: Vec<OperatingPoint> = members.iter().map(|m| m.1).collect();
                        self.prepare(p, &ops)
                    });
                    members
                        .into_iter()
                        .map(|(i, op, is_pue)| {
                            let row_seed = seed ^ hash_name(&p.name) ^ ((op.trefp_s * 1e4) as u64);
                            let mut runs = match &group {
                                Some(prep) => {
                                    self.characterize_prepared(prep, op, repeats(is_pue), row_seed)
                                }
                                None => self.characterize(p, op, repeats(is_pue), row_seed),
                            };
                            let (wer_run, pue_runs) = if is_pue {
                                (None, runs)
                            } else {
                                (Some(runs.remove(0)), Vec::new())
                            };
                            let row = CampaignRow {
                                workload: p.name.clone(),
                                op,
                                features: p.features.clone(),
                                wer_run,
                                pue_runs,
                            };
                            (i * workloads + w, row)
                        })
                        .collect()
                })
                .collect();
            // Scatter back into the sequential loop's (op, workload) order.
            let mut block_rows: Vec<(usize, CampaignRow)> =
                group_rows.into_iter().flatten().collect();
            block_rows.sort_unstable_by_key(|&(i, _)| i);
            for (_, row) in block_rows {
                let runs = if row.wer_run.is_some() { 1 } else { row.pue_runs.len() };
                simulated += self.config.run_duration_s * runs as f64;
                rows.push(row);
            }
            cursor = block_end;
        }
        CampaignData { rows, simulated_seconds: simulated }
    }
}

/// The derived seed of repeat `r` (shared by both characterization paths).
fn repeat_seed(seed: u64, r: u32) -> u64 {
    seed ^ (r as u64).wrapping_mul(0x9E37_79B9)
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf29ce484222325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wade_workloads::{Scale, WorkloadId};

    fn tiny_suite() -> Vec<BoxedWorkload> {
        vec![
            WorkloadId::Backprop.instantiate(1, Scale::Test),
            WorkloadId::Memcached.instantiate(8, Scale::Test),
            WorkloadId::Nw.instantiate(1, Scale::Test),
        ]
    }

    #[test]
    fn collect_produces_a_row_per_workload_per_op() {
        let campaign = Campaign::new(SimulatedServer::with_seed(5), CampaignConfig::quick());
        let data = campaign.collect(&tiny_suite(), 1);
        // 3 workloads × (4 WER ops + 2 PUE ops).
        assert_eq!(data.rows.len(), 18);
        assert_eq!(data.workloads().len(), 3);
        assert!(data.simulated_seconds > 0.0);
    }

    #[test]
    fn pue_rises_with_trefp_at_70c() {
        let campaign = Campaign::new(SimulatedServer::with_seed(5), CampaignConfig::quick());
        let data = campaign.collect(&tiny_suite(), 1);
        let pue_low: f64 = data
            .rows
            .iter()
            .filter(|r| !r.pue_runs.is_empty() && r.op.trefp_s < 2.0)
            .map(CampaignRow::pue)
            .sum();
        let pue_high: f64 = data
            .rows
            .iter()
            .filter(|r| !r.pue_runs.is_empty() && r.op.trefp_s > 2.0)
            .map(CampaignRow::pue)
            .sum();
        assert!(pue_high >= pue_low, "PUE must not shrink with TREFP: {pue_high} vs {pue_low}");
        assert!(pue_high > 0.0, "max TREFP at 70°C must crash sometimes");
    }

    #[test]
    fn json_roundtrip() {
        let campaign = Campaign::new(SimulatedServer::with_seed(5), CampaignConfig::quick());
        let data = campaign.collect(&tiny_suite()[..1], 1);
        let json = data.to_json().unwrap();
        let back = CampaignData::from_json(&json).unwrap();
        assert_eq!(back.rows.len(), data.rows.len());
        assert_eq!(back.rows[0].workload, data.rows[0].workload);
    }

    #[test]
    fn collect_stored_round_trips_byte_identically() {
        let dir = std::env::temp_dir()
            .join(format!("wade-campaign-store-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = wade_store::ArtifactStore::open(&dir);
        let suite = tiny_suite();
        let campaign = || Campaign::new(SimulatedServer::with_seed(5), CampaignConfig::quick());
        let cold = campaign().collect_stored(&store, &suite, 3);
        assert_eq!((store.writes(), store.hits()), (1, 0));
        let warm = campaign().collect_stored(&store, &suite, 3);
        assert_eq!(store.hits(), 1);
        let reference = campaign().collect(&suite, 3);
        assert_eq!(cold.to_json().unwrap(), reference.to_json().unwrap());
        assert_eq!(warm.to_json().unwrap(), reference.to_json().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_store_key_separates_every_input() {
        let key = |device: u64, seed: u64, config: CampaignConfig, n: usize| {
            crate::collect::campaign_store_key(
                &SimulatedServer::with_seed(device),
                &config,
                &tiny_suite()[..n],
                seed,
            )
        };
        let base = key(5, 3, CampaignConfig::quick(), 3);
        assert_eq!(base, key(5, 3, CampaignConfig::quick(), 3), "key must be stable");
        assert_ne!(base, key(6, 3, CampaignConfig::quick(), 3), "device seed");
        assert_ne!(base, key(5, 4, CampaignConfig::quick(), 3), "campaign seed");
        assert_ne!(base, key(5, 3, CampaignConfig::paper_full(), 3), "grid");
        assert_ne!(base, key(5, 3, CampaignConfig::quick(), 2), "suite");
    }

    #[test]
    fn collect_is_identical_across_thread_counts() {
        // The rayon fan-out over the grid and the PUE repeats must be
        // invisible: byte-identical campaign data on 1 and N threads.
        let collect_with = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                Campaign::new(SimulatedServer::with_seed(5), CampaignConfig::quick())
                    .collect(&tiny_suite(), 3)
            })
        };
        let serial = collect_with(1);
        let parallel = collect_with(8);
        assert_eq!(serial.simulated_seconds, parallel.simulated_seconds);
        assert_eq!(serial.to_json().unwrap(), parallel.to_json().unwrap());
    }

    #[test]
    fn collect_matches_the_direct_reference_path() {
        // The prepared-population cache must be invisible: byte-identical
        // campaign data whether populations are realized per run or frozen
        // once per (workload, temp, vdd) group.
        let suite = tiny_suite();
        let cached = Campaign::new(SimulatedServer::with_seed(5), CampaignConfig::quick())
            .collect(&suite, 3);
        let direct = Campaign::new(SimulatedServer::with_seed(5), CampaignConfig::quick())
            .collect_direct(&suite, 3);
        assert_eq!(cached.simulated_seconds, direct.simulated_seconds);
        assert_eq!(cached.to_json().unwrap(), direct.to_json().unwrap());
    }

    #[test]
    fn prepared_characterization_matches_direct_per_row() {
        let campaign = Campaign::new(SimulatedServer::with_seed(5), CampaignConfig::quick());
        let wl = WorkloadId::Memcached.instantiate(8, Scale::Test);
        let p = campaign.profile(wl.as_ref(), 2);
        let ops: Vec<_> = CampaignConfig::quick().pue_ops;
        let prepared = campaign.prepare(&p, &ops);
        for &op in &ops {
            assert_eq!(
                campaign.characterize(&p, op, 3, 17),
                campaign.characterize_prepared(&prepared, op, 3, 17),
                "prepared replay diverged at {op}"
            );
        }
    }

    #[test]
    fn characterization_is_deterministic() {
        let campaign = Campaign::new(SimulatedServer::with_seed(5), CampaignConfig::quick());
        let wl = WorkloadId::Backprop.instantiate(1, Scale::Test);
        let p = campaign.profile(wl.as_ref(), 2);
        let op = OperatingPoint::relaxed(2.283, 60.0);
        let a = campaign.characterize(&p, op, 2, 9);
        let b = campaign.characterize(&p, op, 2, 9);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.wer, y.wer);
            assert_eq!(x.crashed, y.crashed);
        }
    }
}
