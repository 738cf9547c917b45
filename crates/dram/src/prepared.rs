//! Campaign-level caching: freeze a weak-cell population once, replay many
//! runs against it.
//!
//! A characterization campaign re-measures the **same** physical cells over
//! and over: every PUE repeat and every refresh-period set-point at one
//! (temperature, voltage) pair thresholds one fixed population (the seeding
//! contract in [`sim`](crate::ErrorSim) keys populations by `(device, rank,
//! segment, cell, temp, vdd)` — never by `TREFP` or the run seed). The
//! direct path re-realizes that population from its streams on every call;
//! [`PreparedRun`] realizes it **once** into a compact frozen arena and
//! replays only the `(op, run seed, cell)` run randomness per call.
//!
//! Replay is **bit-for-bit identical** to [`crate::ErrorSim::run`] at the
//! same seed, because both paths execute the same gate and manifestation
//! code against the same derived streams — the only difference is *when*
//! the population draws happen. The tests in this module (and the campaign
//! tests in `wade-core`) assert the identity, including across rayon pool
//! widths.

use crate::device::DramDevice;
use crate::event::RunResult;
use crate::op::OperatingPoint;
use crate::profile::DramUsageProfile;
use crate::sim::{finalize_outcomes, Candidate, GatedCell, OsCell, OsSource, RunContext, UnitOutcome};
use rayon::prelude::*;

/// One frozen weak cell of the benchmark-footprint population: every
/// attribute that is a pure function of the population streams. 32 bytes
/// per cell; what follows from these (retention, the word's read rate) is
/// recomputed by the replay that needs it.
///
/// Cells that can never manifest anywhere in the prepared envelope are
/// dropped at realization time, so the arena holds only cells a replay
/// might have to gate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PreparedCell {
    /// Retention quantile — gated at each replay's set-point with exactly
    /// the direct walk's thinning-cap and refresh-gate comparisons.
    pub(crate) q: f64,
    /// 64-bit word index within the footprint, on the cell's rank.
    pub(crate) word: u64,
    /// `(segment << 24) | index` — the cell's identity in the derived
    /// run-stream domain.
    pub(crate) cell_key: u64,
    /// Bit lane within the 72-bit ECC word.
    pub(crate) lane: u8,
    /// Reuse bucket for the implicit-refresh gate and companion weight.
    pub(crate) bucket: u8,
}

const _: () = assert!(std::mem::size_of::<PreparedCell>() == 32);

impl PreparedCell {
    /// Plays out one replay's run randomness for this (already gated)
    /// frozen cell through the direct path's own manifest step, so replay
    /// and the direct path cannot drift apart.
    fn manifest(
        &self,
        ctx: &RunContext<'_>,
        rank_run_seed: u64,
        p_companion_unit: f64,
    ) -> Option<Candidate> {
        let gated = GatedCell {
            bucket: self.bucket as usize,
            word: self.word,
            lane: self.lane,
            cell_key: self.cell_key,
        };
        ctx.manifest_cell(&gated, || ctx.word_read_rate(self.word), rank_run_seed, p_companion_unit)
    }
}

/// One rank's frozen realization: benchmark-footprint cells in canonical
/// (segment, cell) order plus the OS-resident walk in quantile order.
#[derive(Debug, Clone)]
struct PreparedRank {
    cells: Vec<PreparedCell>,
    os_cells: Vec<OsCell>,
}

/// A frozen realization of one device's weak-cell population for one
/// (usage profile, temperature, voltage) key, replayable at any refresh
/// period up to the prepared envelope and any run seed.
///
/// Build one with [`crate::ErrorSim::prepare`], then call
/// [`PreparedRun::run`] once per (set-point, repeat):
///
/// ```
/// use wade_dram::{DramDevice, DramUsageProfile, ErrorSim, OperatingPoint};
///
/// let device = DramDevice::with_seed(7);
/// let profile = DramUsageProfile::uniform_synthetic(1 << 20);
/// let sweep = [OperatingPoint::relaxed(1.727, 60.0), OperatingPoint::relaxed(2.283, 60.0)];
/// let sim = ErrorSim::new(&device);
/// let prepared = sim.prepare(&profile, &sweep);
/// for op in sweep {
///     for run_seed in 0..3 {
///         // Bit-identical to `sim.run(&profile, op, 7200.0, run_seed)`.
///         assert_eq!(prepared.run(op, 7200.0, run_seed), sim.run(&profile, op, 7200.0, run_seed));
///     }
/// }
/// ```
///
/// # Replay guarantee
///
/// `prepared.run(op, d, s)` returns a [`RunResult`] **byte-identical** to
/// `ErrorSim::run(&profile, op, d, s)` for every operating point inside
/// the prepared envelope, on any rayon pool width. The guarantee holds by
/// construction (shared gate/manifestation code over per-cell derived
/// streams) and is enforced by tests at both the simulator and the
/// campaign layer.
#[derive(Debug, Clone)]
pub struct PreparedRun<'d> {
    device: &'d DramDevice,
    profile: DramUsageProfile,
    temp_c: f64,
    vdd_v: f64,
    max_trefp_s: f64,
    /// Process-unique realization stamp, copied into every
    /// [`LiveCellIndex`] so an index cannot be replayed against a
    /// *different* population that happens to share its shape. Clones
    /// keep the stamp: their content is identical, so cross-use is sound.
    stamp: u64,
    ranks: Vec<PreparedRank>,
}

/// Parallel slices each rank's frozen cell arena is split into for replay
/// (slice boundaries are deterministic, and the order-stable merge makes
/// them invisible in the output).
const REPLAY_SLICES: usize = 8;

/// One operating point's pre-gated view of a [`PreparedRun`]: per rank, the
/// (ascending) arena indices of the cells that survive the population-side
/// gates at that op. Built by [`PreparedRun::live_index`], consumed by
/// [`PreparedRun::run_indexed`]; prepared once per set-point and shared by
/// all its repeats.
#[derive(Debug, Clone)]
pub struct LiveCellIndex {
    op: OperatingPoint,
    /// Identity stamp of the realization this index was built against
    /// (clones of a `PreparedRun` share content and stamp).
    stamp: u64,
    /// Per rank: indices into the rank's frozen cell arena.
    live: Vec<Vec<u32>>,
}

impl<'d> PreparedRun<'d> {
    /// Realizes the population shared by `ops` (all at one temperature and
    /// voltage) from its derived streams. See [`crate::ErrorSim::prepare`].
    pub(crate) fn realize(
        device: &'d DramDevice,
        profile: &DramUsageProfile,
        ops: &[OperatingPoint],
    ) -> Self {
        assert!(!ops.is_empty(), "PreparedRun needs at least one operating point");
        profile.validate().expect("invalid DRAM usage profile");
        let (temp_c, vdd_v) = (ops[0].temp_c, ops[0].vdd_v);
        let mut max_trefp_s = f64::MIN;
        for op in ops {
            op.validate().expect("invalid operating point");
            assert!(
                op.temp_c == temp_c && op.vdd_v == vdd_v,
                "prepared populations are keyed by (temperature, voltage); \
                 {op} does not match {temp_c} °C / {vdd_v} V"
            );
            max_trefp_s = max_trefp_s.max(op.trefp_s);
        }
        // The envelope context: the group's longest refresh period, under
        // which every other set-point's candidate set is a subset. Duration
        // and run seed are placeholders — realization touches population
        // streams only.
        let envelope = OperatingPoint { trefp_s: max_trefp_s, vdd_v, temp_c };
        let ctx = RunContext::new(device, profile, envelope, 0.0, 0);
        let rank_count = device.geometry().total_ranks();
        let chunks = RunContext::chunks_per_rank();

        enum Realized {
            Cells(Vec<PreparedCell>),
            Os(Vec<OsCell>),
        }
        let units: Vec<(usize, usize)> = (0..rank_count)
            .flat_map(|r| (0..=chunks).map(move |c| (r, c)))
            .collect();
        let outputs: Vec<Realized> = units
            .into_par_iter()
            .map(|(rank, chunk)| {
                if chunk < chunks {
                    Realized::Cells(ctx.prepare_chunk(rank, chunk as u64))
                } else {
                    Realized::Os(ctx.os_walk(rank).collect())
                }
            })
            .collect();

        let mut ranks = Vec::with_capacity(rank_count);
        let mut iter = outputs.into_iter();
        for _ in 0..rank_count {
            let mut chunk_cells = Vec::with_capacity(chunks);
            for _ in 0..chunks {
                let Some(Realized::Cells(chunk)) = iter.next() else {
                    unreachable!("population chunk expected");
                };
                chunk_cells.push(chunk);
            }
            let Some(Realized::Os(os_cells)) = iter.next() else {
                unreachable!("OS walk expected");
            };
            // One allocation at exact capacity, not a doubling `Vec`.
            ranks.push(PreparedRank { cells: chunk_cells.concat(), os_cells });
        }
        // Realization stamp: monotone process-wide counter (never part of
        // any simulated randomness — purely an identity check).
        static STAMP: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let stamp = STAMP.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Self { device, profile: profile.clone(), temp_c, vdd_v, max_trefp_s, stamp, ranks }
    }

    /// The operating-point checks shared by every replay entry point.
    fn check_replay_op(&self, op: OperatingPoint) {
        op.validate().expect("invalid operating point");
        assert!(
            op.temp_c == self.temp_c && op.vdd_v == self.vdd_v,
            "replay at {op} against a population prepared for {} °C / {} V",
            self.temp_c,
            self.vdd_v
        );
        assert!(
            op.trefp_s <= self.max_trefp_s,
            "replay TREFP {} s exceeds the prepared envelope {} s",
            op.trefp_s,
            self.max_trefp_s
        );
    }

    /// Gates the frozen population once at `op`, returning the per-rank
    /// index of cells that are *live* there (below the thinning cap and past
    /// the implicit-refresh gate).
    ///
    /// The gates are pure functions of (population, operating point) — run
    /// randomness never enters them — so one index serves every repeat at
    /// the set-point: [`PreparedRun::run_indexed`] replays only the indexed
    /// cells instead of re-gating the whole arena per run. Campaigns build
    /// one index per (set-point) and share it across the PUE repeats.
    ///
    /// # Panics
    /// Panics under the same conditions as [`PreparedRun::run`].
    pub fn live_index(&self, op: OperatingPoint) -> LiveCellIndex {
        self.check_replay_op(op);
        // Duration and run seed are placeholders: the gates touch only
        // population-side context (thinning cap, coupling, t_eff table).
        let ctx = RunContext::new(self.device, &self.profile, op, 0.0, 0);
        let live = self
            .ranks
            .iter()
            .map(|rank| {
                rank.cells
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| ctx.cell_is_live(c.q, c.bucket as usize))
                    .map(|(i, _)| i as u32)
                    .collect()
            })
            .collect();
        LiveCellIndex { op, stamp: self.stamp, live }
    }

    /// Replays one run against a pre-gated [`LiveCellIndex`]: plays out
    /// run randomness for the indexed cells only. Bit-identical to
    /// [`crate::ErrorSim::run`] at the index's operating point, because the
    /// indexed cells are exactly the gate survivors, in the same canonical
    /// order.
    ///
    /// # Panics
    /// Panics if `index` was built from a different `PreparedRun`
    /// realization (or a clone of one — clones share content and stamp),
    /// or if its op fails the replay checks.
    pub fn run_indexed(&self, index: &LiveCellIndex, duration_s: f64, run_seed: u64) -> RunResult {
        let op = index.op;
        self.check_replay_op(op);
        assert_eq!(index.stamp, self.stamp, "live index built for another prepared population");
        let ctx = RunContext::new(self.device, &self.profile, op, duration_s, run_seed);
        let rank_count = self.ranks.len();
        let units: Vec<(usize, usize)> = (0..rank_count)
            .flat_map(|r| (0..=REPLAY_SLICES).map(move |s| (r, s)))
            .collect();
        let outcomes: Vec<UnitOutcome> = units
            .into_par_iter()
            .map(|(rank, slice)| {
                if slice < REPLAY_SLICES {
                    UnitOutcome::Pop(self.replay_indexed_slice(&ctx, index, rank, slice))
                } else {
                    UnitOutcome::Aux(
                        ctx.aux_channels(rank, OsSource::Prepared(&self.ranks[rank].os_cells)),
                    )
                }
            })
            .collect();
        finalize_outcomes(
            outcomes,
            rank_count,
            REPLAY_SLICES,
            self.profile.footprint_words,
            duration_s,
        )
    }

    /// One deterministic slice of a rank's *live* cells: run randomness
    /// only, no re-gating. Slice boundaries partition the live list; the
    /// order-stable merge makes them invisible: per rank, concatenating
    /// the slices yields the live cells in stored (segment, cell) order.
    fn replay_indexed_slice(
        &self,
        ctx: &RunContext<'_>,
        index: &LiveCellIndex,
        rank_index: usize,
        slice: usize,
    ) -> Vec<Candidate> {
        let cells = &self.ranks[rank_index].cells;
        let live = &index.live[rank_index];
        let lo = live.len() * slice / REPLAY_SLICES;
        let hi = live.len() * (slice + 1) / REPLAY_SLICES;
        let rank_run_seed = ctx.rank_run_seed(rank_index);
        let p_companion_unit = ctx.p_companion_unit(rank_index);
        let mut out = Vec::with_capacity((hi - lo) / 2 + 4);
        for &i in &live[lo..hi] {
            if let Some(cand) = cells[i as usize].manifest(ctx, rank_run_seed, p_companion_unit) {
                out.push(cand);
            }
        }
        out
    }

    /// Replays one characterization run against the frozen population:
    /// gates it at `op` ([`PreparedRun::live_index`]), then plays out
    /// discovery/companion/disturbance/burst randomness from the `(op, run
    /// seed, cell)` derived streams ([`PreparedRun::run_indexed`]).
    ///
    /// Bit-identical to [`crate::ErrorSim::run`] with the same arguments
    /// (see the type-level *Replay guarantee*). Campaigns replaying several
    /// runs at one op build the index once instead.
    ///
    /// # Panics
    /// Panics if `op` fails validation, does not match the prepared
    /// (temperature, voltage) key, or exceeds the prepared refresh-period
    /// envelope.
    pub fn run(&self, op: OperatingPoint, duration_s: f64, run_seed: u64) -> RunResult {
        self.run_indexed(&self.live_index(op), duration_s, run_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ErrorSim;

    fn device() -> DramDevice {
        DramDevice::with_seed(39)
    }

    /// Total live cells across all ranks at the index's set-point.
    fn live_cells(index: &LiveCellIndex) -> usize {
        index.live.iter().map(Vec::len).sum()
    }

    /// Total frozen cells across all ranks (benchmark footprint + OS).
    fn frozen_cells(prepared: &PreparedRun) -> usize {
        prepared.ranks.iter().map(|r| r.cells.len() + r.os_cells.len()).sum()
    }

    fn profile() -> DramUsageProfile {
        DramUsageProfile::uniform_synthetic(1 << 27)
    }

    #[test]
    fn replay_is_bit_identical_to_direct_runs_across_the_sweep() {
        // The heart of the caching contract: one realization, many ops and
        // seeds, every result byte-identical to the unprepared path.
        let d = device();
        let sim = ErrorSim::new(&d);
        let p = profile();
        let ops = [
            OperatingPoint::relaxed(0.618, 60.0),
            OperatingPoint::relaxed(1.173, 60.0),
            OperatingPoint::relaxed(1.727, 60.0),
            OperatingPoint::relaxed(2.283, 60.0),
        ];
        let prepared = sim.prepare(&p, &ops);
        for op in ops {
            for seed in [1, 9] {
                assert_eq!(
                    prepared.run(op, 7200.0, seed),
                    sim.run(&p, op, 7200.0, seed),
                    "prepared replay diverged at {op} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn replay_is_bit_identical_at_the_crash_prone_point() {
        // 70 °C at the maximum refresh period exercises the UE channels
        // (OS pair collisions, companions, bursts).
        let d = device();
        let sim = ErrorSim::new(&d);
        let p = profile();
        let ops: Vec<OperatingPoint> =
            OperatingPoint::PUE_TREFP_SWEEP.iter().map(|&t| OperatingPoint::relaxed(t, 70.0)).collect();
        let prepared = sim.prepare(&p, &ops);
        for &op in &ops {
            for seed in 0..4 {
                assert_eq!(prepared.run(op, 7200.0, seed), sim.run(&p, op, 7200.0, seed));
            }
        }
    }

    #[test]
    fn replay_is_identical_across_thread_counts() {
        let d = device();
        let p = profile();
        let op = OperatingPoint::relaxed(2.283, 70.0);
        let run_with = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| ErrorSim::new(&d).prepare(&p, &[op]).run(op, 7200.0, 11))
        };
        assert_eq!(run_with(1), run_with(8));
    }

    #[test]
    fn indexed_replay_is_bit_identical_to_run() {
        // The per-op live-cell index must be invisible: same RunResult as
        // the direct path at every set-point and seed, including the
        // crash-prone 70 °C corner.
        let d = device();
        let sim = ErrorSim::new(&d);
        let p = profile();
        for temp in [60.0, 70.0] {
            let ops = [
                OperatingPoint::relaxed(1.173, temp),
                OperatingPoint::relaxed(1.727, temp),
                OperatingPoint::relaxed(2.283, temp),
            ];
            let prepared = sim.prepare(&p, &ops);
            for op in ops {
                let index = prepared.live_index(op);
                assert!(live_cells(&index) <= frozen_cells(&prepared));
                assert_eq!(index.op, op);
                for seed in 0..3 {
                    assert_eq!(
                        prepared.run_indexed(&index, 7200.0, seed),
                        sim.run(&p, op, 7200.0, seed),
                        "indexed replay diverged at {op} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn live_index_grows_with_trefp() {
        // Longer refresh periods relax the gates monotonically: every cell
        // live at a short TREFP stays live at a longer one.
        let d = device();
        let ops = [
            OperatingPoint::relaxed(1.173, 60.0),
            OperatingPoint::relaxed(1.727, 60.0),
            OperatingPoint::relaxed(2.283, 60.0),
        ];
        let prepared = ErrorSim::new(&d).prepare(&profile(), &ops);
        let counts: Vec<usize> =
            ops.iter().map(|&op| live_cells(&prepared.live_index(op))).collect();
        assert!(counts[0] <= counts[1] && counts[1] <= counts[2], "{counts:?}");
        assert!(counts[2] > 0);
    }

    #[test]
    #[should_panic(expected = "another prepared population")]
    fn foreign_live_index_is_rejected() {
        // Two realizations with identical shape (same device, temp, vdd)
        // but different usage profiles: an index from one must not replay
        // against the other.
        let d = device();
        let op = OperatingPoint::relaxed(1.727, 60.0);
        let a = ErrorSim::new(&d).prepare(&profile(), &[op]);
        let b = ErrorSim::new(&d).prepare(&DramUsageProfile::uniform_synthetic(1 << 26), &[op]);
        let index_a = a.live_index(op);
        b.run_indexed(&index_a, 7200.0, 1);
    }

    #[test]
    fn cloned_prepared_run_shares_its_index() {
        let d = device();
        let op = OperatingPoint::relaxed(1.727, 60.0);
        let a = ErrorSim::new(&d).prepare(&profile(), &[op]);
        let b = a.clone();
        let index = a.live_index(op);
        assert_eq!(b.run_indexed(&index, 7200.0, 3), a.run(op, 7200.0, 3));
    }

    #[test]
    #[should_panic(expected = "exceeds the prepared envelope")]
    fn live_index_beyond_the_envelope_is_rejected() {
        let d = device();
        let prepared = ErrorSim::new(&d).prepare(&profile(), &[OperatingPoint::relaxed(1.173, 60.0)]);
        prepared.live_index(OperatingPoint::relaxed(2.283, 60.0));
    }

    #[test]
    fn prepared_arena_is_nonempty_and_reported() {
        let d = device();
        let prepared = ErrorSim::new(&d).prepare(&profile(), &[OperatingPoint::relaxed(2.283, 60.0)]);
        assert!(frozen_cells(&prepared) > 0);
        assert_eq!(prepared.profile.footprint_words, profile().footprint_words);
    }

    #[test]
    #[should_panic(expected = "keyed by (temperature, voltage)")]
    fn mixed_temperatures_are_rejected() {
        let d = device();
        ErrorSim::new(&d).prepare(
            &profile(),
            &[OperatingPoint::relaxed(1.727, 50.0), OperatingPoint::relaxed(1.727, 60.0)],
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the prepared envelope")]
    fn replay_beyond_the_envelope_is_rejected() {
        let d = device();
        let prepared = ErrorSim::new(&d).prepare(&profile(), &[OperatingPoint::relaxed(1.173, 60.0)]);
        prepared.run(OperatingPoint::relaxed(2.283, 60.0), 7200.0, 1);
    }
}
