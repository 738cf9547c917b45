//! The error-manifestation simulation.
//!
//! One call to [`ErrorSim::run`] plays out a full characterization run (the
//! paper's 2-hour benchmark execution at one operating point). Per rank, a
//! Poisson-sampled population of weak cells is drawn from the retention
//! tail law; crucially, the population is seeded by *(device, rank,
//! temperature, voltage)* only — the same physical cells exist at every
//! refresh period, so sweeping `TREFP` thresholds a fixed population, just
//! as on real silicon. Each cell then either survives (implicitly
//! refreshed faster than it leaks, or its stored data holds it in the
//! non-leaking orientation) or manifests as a correctable error discovered
//! when the word is read or patrol-scrubbed.
//!
//! Three additional channels complete the phenomenology:
//! * an additive *disturbance* channel (row-hammer style single-bit flips
//!   proportional to the row-activation rate) — the mechanism behind the
//!   paper's top feature correlation,
//! * multi-bit *bursts* (quadratic in activation rate) and two weak bits
//!   colliding in one word — the uncorrectable errors of Fig. 9,
//! * a cold *OS-resident* region whose pair collisions crash every
//!   workload at the maximum refresh period at 70 °C.
//!
//! # Performance architecture
//!
//! The hot path is engineered around four ideas (this is the simulator's
//! contract with the campaign layer, so the details are normative):
//!
//! **Quantile-space thinning.** Weak cells are *not* enumerated one by one
//! with a full attribute tuple each (the naive Fig. 3 loop). Instead each
//! rank's population is realized as a Poisson process over the retention
//! *quantile* axis `[0, 1)`, split into [`SEGMENTS`] fixed segments. A cell
//! at quantile `q` has retention `RetentionLaw::retention_at_fraction(q)`,
//! so every cell that could ever fail at the current operating point lies
//! below `q_cap = law.fraction_below(TREFP / coupling)` — segments beyond
//! `q_cap` are skipped *without sampling anything*. Because the tail law is
//! exponential, `q_cap` is tiny at all but the longest refresh periods
//! (e.g. `≈ 5×10⁻⁴` at `TREFP = 0.618 s`), which removes essentially the
//! whole population scan that used to dominate a run (`BENCH_sim.json`'s
//! `run_2h_1GiB_*` sections time it).
//! Cells inside the boundary segment are rejected with a single uniform
//! draw before any attribute work happens.
//!
//! **Derived per-cell streams (the seeding contract).** Randomness is
//! keyed, not streamed. With `mix_seed` as the domain separator:
//! * the *population* of rank `r` derives from
//!   `mix_seed(device_seed, r, env_bits(op), POP_DOMAIN)` — temperature
//!   and voltage only, never `TREFP` or the run seed;
//! * segment `s` of that rank seeds its own [`SimRng`] stream, which
//!   yields the segment's Poisson count and each cell's quantile;
//! * cell `(s, j)` derives its attribute stream from the rank population
//!   seed and `cell_key = s·2²⁴ + j`, and its *run* stream (discovery
//!   timing, VRT, companion draws) from
//!   `mix_seed(device_seed, r, op_bits(op), run_seed)` and the same
//!   `cell_key`.
//!
//! A cell's identity — its word, lane, data and retention — is therefore a
//! pure function of `(device, rank, segment, j, temp, vdd)`: independent of
//! the refresh period (populations persist across the `TREFP` sweep, a
//! property the tests assert), independent of how many threads run, and
//! independent of every other cell (which is what lets segments be skipped
//! analytically without perturbing the rest of the population).
//! [`SimRng`] is SplitMix64 — a 64-bit-state generator whose seeding is a
//! single assignment, making "one fresh stream per cell" effectively free;
//! the alias exists so the generator can be swapped in one place.
//!
//! **Order-stable parallelism.** The `(rank × segment-chunk)` grid plus one
//! auxiliary unit per rank (disturbance, OS-resident and burst channels)
//! fans out on rayon. Results are merged *serially in unit order*, so the
//! pair-collision bookkeeping (two corrupted bits in one word → UE) sees
//! events in a canonical order and a run is byte-identical on 1 thread and
//! N threads (`run_is_identical_across_thread_counts` asserts this).
//!
//! **Blocked walk.** Most cells below the cap are rejected by the data or
//! refresh gate, so the walk is built to reject them cheaply. Each
//! segment's cells go through in blocks of 256 held in per-thread arrays
//! (no buffer grows with the Poisson count, and none is refilled per
//! chunk), in passes that each compact their survivors without branching
//! on the coin-flip gate outcomes: the cap, the data gate, then the
//! refresh gate. The refresh gate is tested in quantile space: per reuse
//! bucket, [`RetentionLaw::quantile_bracket`] gives `(lo, hi)` such that
//! every `q < lo` passes and every `q ≥ hi` fails, so the retention `ln`
//! is taken only inside the bracket (a few parts in 10⁸ of `q` wide).
//! Only the survivors draw word and lane, and
//! `RunContext::manifest_cell` stops once the partial discovery time
//! exceeds the run: a uniform onset draw below a precomputed floor exits
//! before any `ln`. When that floor is larger than the share of cells the
//! data gate rejects — a 900 s fleet epoch, not a 2 h run — the direct
//! walk takes the onset draw as a pass of its own right after the cap, so
//! the cells whose onset falls after the epoch (~61% with the calibrated
//! physics) never seed their attribute stream; the pass drops exactly the
//! cells `manifest_cell` would drop at its first step, and the survivors
//! keep their order. Stopping early is sound only on a stream private to
//! one cell, whose skipped draws no one reads; the shared sequential
//! streams — the segment's quantile stream, the disturbance stream and
//! the OS-resident population and run streams — draw every term, because
//! the next cell's draws start where this one's end. The per-cell walk the
//! blocked one replaced is kept as [`ErrorSim::run_reference`], and the
//! two are bit-identical for every input (`tests/sim_walk.rs`).
//!
//! # Campaign-level caching: [`PreparedRun`]
//!
//! The population/run split above is exactly what makes campaign-level
//! caching sound: everything drawn from *population* streams is a pure
//! function of `(device, rank, segment, cell, temp, vdd)` and can be
//! realized **once** for an entire TREFP sweep and all PUE repeats, then
//! replayed with fresh run randomness only. [`ErrorSim::prepare`] freezes a
//! rank's realized cells (and the OS-resident walk) into a
//! [`PreparedRun`]; `PreparedRun::run` re-applies the per-operating-point
//! gates and plays out the `(op, run seed, cell)` streams. Both paths share
//! the same walk and manifestation code (`RunContext::walk_chunk` /
//! `RunContext::manifest_cell`), so a prepared replay is **bit-for-bit
//! identical** to the direct [`ErrorSim::run`] at the same seed — the
//! `prepared` module's tests and `wade-core`'s campaign tests assert this.
//!
//! [`PreparedRun`]: crate::PreparedRun
//! [`ErrorSim::prepare`]: ErrorSim::prepare
//! [`RetentionLaw::quantile_bracket`]: crate::RetentionLaw::quantile_bracket

use crate::device::DramDevice;
use crate::event::{CeEvent, RunResult, UeEvent};
use crate::geometry::RankId;
use crate::op::OperatingPoint;
use crate::profile::DramUsageProfile;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_distr::{Distribution, Poisson};
use rayon::prelude::*;
// The pair-collision maps are keyed by word indices the simulator generated
// itself, so HashDoS resistance (SipHash's point) buys nothing, while
// FxHash's two-instruction mix keeps the hasher out of `record_ce`'s profile.
use rustc_hash::FxHashMap;
use std::cell::Cell;

/// The simulator's pseudo-random generator: SplitMix64 behind an alias so
/// the choice is recorded (and swappable) in exactly one place. See the
/// module docs for why seeding cost is the selection criterion.
pub(crate) type SimRng = SmallRng;

/// Fixed number of retention-quantile segments per rank. Constant across
/// operating points by construction — segment boundaries are part of a
/// cell's identity, so changing this constant re-manufactures every
/// device's weak-cell population (a re-baselining event, like changing the
/// PRNG). Sized so the per-segment overhead (one seeding + one Poisson
/// draw) stays negligible even for near-empty populations while still
/// exposing `SEGMENTS × ranks` independent work units.
const SEGMENTS: u64 = 32;

/// Version tag of the simulator's determinism contract, folded into
/// [`crate::DramDevice::fingerprint`] (and through it into every disk-store
/// key derived from simulated data). Bump this on any **re-baselining
/// event** — changing `SEGMENTS`, the PRNG (`SimRng`), or any stream
/// domain/salt below — so persisted artifacts manufactured under the old
/// contract read as misses instead of stale hits. The constant exists
/// purely for keying; it never enters the simulation itself.
///
/// Public because multi-device consumers (the fleet sharding layer) embed
/// it verbatim in their own store keys: a shard of simulated device
/// histories is only replayable under the contract it was produced with.
pub const DETERMINISM_VERSION: u64 = 1;

/// Segments bundled into one parallel work unit.
const SEGMENTS_PER_CHUNK: u64 = 4;

const POP_DOMAIN: u64 = 0x505F_C311; // population domain (pre-existing)
const CELL_ATTR_SALT: u64 = 0xCE11_A77B_0000_0001;
const CELL_RUN_SALT: u64 = 0xCE11_4D15_0000_0001;
const DISTURB_SALT: u64 = 0xD157_0000_0000_0001;
const OS_POP_SALT: u64 = 0x05C0_1DDA_7A00_0001;
const OS_RUN_SALT: u64 = 0x05C0_1DDA_7A00_0002;
const BURST_SALT: u64 = 0xB025_7000_0000_0001;

/// Order-stable fingerprint of the population/run determinism contract:
/// the segment count plus every stream salt, folded with
/// [`DETERMINISM_VERSION`]. Changing any of them changes this value, which
/// invalidates fingerprint-keyed store entries instead of serving results
/// from a foreign contract.
pub(crate) fn determinism_fingerprint() -> u64 {
    [
        DETERMINISM_VERSION,
        SEGMENTS,
        POP_DOMAIN,
        CELL_ATTR_SALT,
        CELL_RUN_SALT,
        DISTURB_SALT,
        OS_POP_SALT,
        OS_RUN_SALT,
        BURST_SALT,
    ]
    .iter()
    .fold(0xcbf2_9ce4_8422_2325, |h: u64, &v| {
        (h ^ v).wrapping_mul(0x100_0000_01b3).rotate_left(17)
    })
}

/// Simulator for characterization runs against one [`DramDevice`].
#[derive(Debug, Clone)]
pub struct ErrorSim<'d> {
    device: &'d DramDevice,
}

/// One candidate error event produced by a parallel unit, in canonical
/// (segment, cell) order.
pub(crate) struct Candidate {
    pub(crate) t_s: f64,
    pub(crate) word: u64,
    pub(crate) lane: u8,
    /// A spatially-correlated companion bit accompanied the flip: the word
    /// is uncorrectable immediately.
    pub(crate) companion: bool,
}

/// Output of one rank's auxiliary unit (disturbance + OS + burst channels).
pub(crate) struct AuxOutcome {
    disturb: Vec<Candidate>,
    /// UE candidate times from OS pair collisions, OS companions and
    /// disturbance bursts.
    ue_times: Vec<f64>,
}

pub(crate) enum UnitOutcome {
    Pop(Vec<Candidate>),
    Aux(AuxOutcome),
}

/// One realized OS-resident weak cell (already past the data gate), frozen
/// by `PreparedRun`: its retention quantile and its word within the rank's
/// kernel pages.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OsCell {
    pub(crate) q: f64,
    pub(crate) word: u64,
}

/// Where an aux unit's OS-resident cells come from: walked fresh from the
/// population stream (direct path) or replayed from a frozen realization.
pub(crate) enum OsSource<'p> {
    /// Walk the population stream up to this operating point's cap.
    Walk,
    /// Replay a frozen walk (realized at the prepared envelope's cap); the
    /// prefix below the current cap is byte-identical to a fresh walk.
    Prepared(&'p [OsCell]),
}

impl<'d> ErrorSim<'d> {
    /// Creates a simulator bound to a device.
    pub fn new(device: &'d DramDevice) -> Self {
        Self { device }
    }

    /// Simulates one benchmark execution of `duration_s` seconds under
    /// operating point `op` with the DRAM usage described by `profile`.
    ///
    /// `run_seed` captures run-to-run variation (VRT states, discovery
    /// order); re-running with the same seed reproduces the result exactly,
    /// regardless of the rayon pool width (see the module docs).
    ///
    /// # Panics
    /// Panics if the profile or operating point fail validation.
    pub fn run(
        &self,
        profile: &DramUsageProfile,
        op: OperatingPoint,
        duration_s: f64,
        run_seed: u64,
    ) -> RunResult {
        self.run_with(profile, op, duration_s, run_seed, RunContext::population_chunk)
    }

    /// [`ErrorSim::run`] through the per-cell reference walk: one cell at a
    /// time, its retention `ln` taken before the data gate and every
    /// discovery term drawn. This is the walk the blocked one replaced,
    /// kept as the bit-compare reference — both return byte-identical
    /// results for every input (see the module docs, *Blocked walk*).
    ///
    /// # Panics
    /// Panics if the profile or operating point fail validation.
    pub fn run_reference(
        &self,
        profile: &DramUsageProfile,
        op: OperatingPoint,
        duration_s: f64,
        run_seed: u64,
    ) -> RunResult {
        self.run_with(profile, op, duration_s, run_seed, RunContext::population_chunk_reference)
    }

    /// The Poisson cell count of every population segment, per rank, at
    /// `op`'s temperature and voltage (the refresh period never enters
    /// them). A run walks a segment's cells only if the segment starts
    /// below the thinning cap. Tests use the counts to check which block
    /// shapes a run exercised.
    ///
    /// # Panics
    /// Panics if the profile or operating point fail validation.
    pub fn segment_cell_counts(
        &self,
        profile: &DramUsageProfile,
        op: OperatingPoint,
    ) -> Vec<Vec<u64>> {
        profile.validate().expect("invalid DRAM usage profile");
        op.validate().expect("invalid operating point");
        let ctx = RunContext::new(self.device, profile, op, 0.0, 0);
        (0..ctx.ranks)
            .map(|rank| {
                let expected = ctx.expected_weak_cells(rank);
                (0..SEGMENTS).map(|seg| ctx.segment(rank, seg, expected).1).collect()
            })
            .collect()
    }

    /// The shared body of [`ErrorSim::run`] and [`ErrorSim::run_reference`]:
    /// `walk` realizes one (rank, segment chunk) population unit.
    fn run_with<'p>(
        &self,
        profile: &'p DramUsageProfile,
        op: OperatingPoint,
        duration_s: f64,
        run_seed: u64,
        walk: fn(&RunContext<'p>, usize, u64) -> Vec<Candidate>,
    ) -> RunResult
    where
        'd: 'p,
    {
        profile.validate().expect("invalid DRAM usage profile");
        op.validate().expect("invalid operating point");
        let ranks = self.device.geometry().total_ranks();
        let ctx = RunContext::new(self.device, profile, op, duration_s, run_seed);

        // One work unit per (rank, segment chunk) plus one auxiliary unit
        // per rank; merged strictly in this order below.
        let chunks_per_rank = RunContext::chunks_per_rank();
        let units: Vec<(usize, usize)> = (0..ranks)
            .flat_map(|r| (0..=chunks_per_rank).map(move |c| (r, c)))
            .collect();
        let outcomes: Vec<UnitOutcome> = units
            .into_par_iter()
            .map(|(rank, chunk)| {
                if chunk < chunks_per_rank {
                    UnitOutcome::Pop(walk(&ctx, rank, chunk as u64))
                } else {
                    UnitOutcome::Aux(ctx.aux_channels(rank, OsSource::Walk))
                }
            })
            .collect();
        finalize_outcomes(outcomes, ranks, chunks_per_rank, profile.footprint_words, duration_s)
    }

    /// Freezes the weak-cell population shared by `ops` into a
    /// [`crate::PreparedRun`], so that every TREFP set-point and every
    /// repeat in the group replays the same realization instead of
    /// re-sampling it (see the module docs, *Campaign-level caching*).
    ///
    /// All `ops` must share one (temperature, voltage) pair — those are the
    /// population key — and the prepared envelope covers the longest
    /// refresh period among them.
    ///
    /// # Panics
    /// Panics if `ops` is empty, mixes temperatures or voltages, or fails
    /// validation, or if `profile` fails validation.
    pub fn prepare(
        &self,
        profile: &DramUsageProfile,
        ops: &[OperatingPoint],
    ) -> crate::PreparedRun<'d> {
        crate::PreparedRun::realize(self.device, profile, ops)
    }
}

/// Serial, order-stable merge shared by [`ErrorSim::run`] and the
/// [`crate::PreparedRun`] replay: per rank, `pop_units_per_rank` population
/// units in canonical (segment, cell) order, then the rank's aux unit,
/// share one pair-collision map; a second corrupted bit in an already
/// manifested word upgrades to a UE.
///
/// The CE list and each rank's map are sized up front from the candidate
/// counts, the most each can hold, so neither rehashes nor regrows while
/// the merge runs.
pub(crate) fn finalize_outcomes(
    outcomes: Vec<UnitOutcome>,
    ranks: usize,
    pop_units_per_rank: usize,
    footprint_words: u64,
    duration_s: f64,
) -> RunResult {
    let candidate_count = |unit: &UnitOutcome| match unit {
        UnitOutcome::Pop(candidates) => candidates.len(),
        UnitOutcome::Aux(aux) => aux.disturb.len(),
    };
    let units_per_rank = pop_units_per_rank + 1;
    assert_eq!(outcomes.len(), ranks * units_per_rank, "per rank: population units, then aux");
    let mut ce_events: Vec<CeEvent> =
        Vec::with_capacity(outcomes.iter().map(candidate_count).sum());
    let mut earliest_ue: Option<UeEvent> = None;
    for (rank_index, units) in outcomes.chunks_exact(units_per_rank).enumerate() {
        let rank = RankId::from_index(rank_index);
        let mut manifested: FxHashMap<u64, f64> = FxHashMap::with_capacity_and_hasher(
            units.iter().map(candidate_count).sum(),
            Default::default(),
        );
        let (pop, [UnitOutcome::Aux(aux)]) = units.split_at(pop_units_per_rank) else {
            unreachable!("aux unit expected");
        };
        for unit in pop {
            let UnitOutcome::Pop(candidates) = unit else {
                unreachable!("population unit expected");
            };
            merge_candidates(candidates, rank, &mut ce_events, &mut manifested, &mut earliest_ue);
        }
        merge_candidates(&aux.disturb, rank, &mut ce_events, &mut manifested, &mut earliest_ue);
        for &t in &aux.ue_times {
            if earliest_ue.is_none_or(|ue| t < ue.t_s) {
                earliest_ue = Some(UeEvent { t_s: t, rank });
            }
        }
    }

    // A UE crashes the system: drop CEs that would have been discovered
    // after the crash.
    if let Some(ue) = earliest_ue {
        ce_events.retain(|e| e.t_s <= ue.t_s);
    }
    // Discovery times are continuous, so ties are measure-zero; the
    // unstable sort is deterministic regardless (same input order in,
    // same output order out). Times are non-negative, so the IEEE bit
    // pattern is an order-preserving integer key.
    ce_events.sort_unstable_by_key(|e| e.t_s.to_bits());

    RunResult { ce_events, ue: earliest_ue, footprint_words, duration_s }
}

/// Applies a unit's candidates to the rank's merge state in order.
fn merge_candidates(
    candidates: &[Candidate],
    rank: RankId,
    ce_events: &mut Vec<CeEvent>,
    manifested: &mut FxHashMap<u64, f64>,
    earliest_ue: &mut Option<UeEvent>,
) {
    for cand in candidates {
        if cand.companion {
            if earliest_ue.is_none_or(|ue| cand.t_s < ue.t_s) {
                *earliest_ue = Some(UeEvent { t_s: cand.t_s, rank });
            }
            continue;
        }
        record_ce(
            ce_events,
            manifested,
            earliest_ue,
            CeEvent { t_s: cand.t_s, word: cand.word, lane: cand.lane, rank },
        );
    }
}

/// Immutable per-run context shared by all parallel units (and, with run
/// randomness left untouched, by `PreparedRun` realization).
pub(crate) struct RunContext<'a> {
    device: &'a DramDevice,
    profile: &'a DramUsageProfile,
    op: OperatingPoint,
    duration_s: f64,
    run_seed: u64,
    ranks: usize,
    region_words: u64,
    coupling: f64,
    temp_factor: f64,
    companion_scale: f64,
    /// Thinning cap for the benchmark-footprint population.
    q_cap: f64,
    /// Per reuse-quantile effective refresh period `min(TREFP, t_reuse_i)`,
    /// with index [`REUSE_BUCKETS`] for never-reused cells. The reuse
    /// distribution is a 16-point quantile table, so these — and the
    /// companion-probability weights below — have at most 17 distinct
    /// values, precomputed here instead of per cell.
    t_eff_by_bucket: [f64; REUSE_BUCKETS + 1],
    /// `fraction_below(t_eff / coupling)` per reuse bucket (the companion
    /// weight that used to cost one `exp()` per manifesting cell).
    companion_fraction_by_bucket: [f64; REUSE_BUCKETS + 1],
    /// The refresh gate per reuse bucket in quantile space: a cell at
    /// quantile `q` passes if `q < lo` and fails if `q ≥ hi`; only inside
    /// `[lo, hi)` is its retention computed
    /// ([`RetentionLaw::quantile_bracket`]).
    ///
    /// [`RetentionLaw::quantile_bracket`]: crate::RetentionLaw::quantile_bracket
    refresh_bracket_by_bucket: [(f64, f64); REUSE_BUCKETS + 1],
    /// A uniform onset draw below this floor puts the onset beyond the run,
    /// so `manifest_cell` stops without taking its `ln`.
    onset_u_floor: f64,
    /// Whether the direct walk tests each capped cell's onset draw before
    /// its data gate: only when the draw rejects the larger share, i.e.
    /// `onset_u_floor` exceeds the data gate's rejection rate
    /// `tcf·(1−od) + (1−tcf)·od` (true-cell fraction, one density). With
    /// the calibrated physics that holds for a 900 s fleet epoch (0.607 >
    /// 0.5) and not for a 2 h run (0.018).
    onset_first: bool,
    /// Word-level read rate (reads + patrol scrub) per spatial region,
    /// precomputed so the per-cell lookup is one index instead of a 128-bit
    /// division and two floating-point divisions.
    read_rate_by_region: Vec<f64>,
    /// Per rank: the word sampler with its line count computed once.
    word_samplers: Vec<WordSampler>,
}

/// Cells per block of the blocked walk: each pass runs over at most this
/// many cells held in fixed arrays, so the walk allocates nothing that
/// grows with a segment's Poisson count.
const BLOCK: usize = 256;

/// The blocked walk's arrays: per cell of a block, its quantile, key,
/// private attribute stream and reuse bucket. Every pass writes an entry
/// before it reads it, so what an earlier block left behind never
/// matters.
struct WalkBlock {
    q: [f64; BLOCK],
    key: [u64; BLOCK],
    attr: [SimRng; BLOCK],
    bucket: [u8; BLOCK],
}

thread_local! {
    /// Each thread's [`WalkBlock`], set up by its first walk and reused by
    /// every later chunk. Filling ~6 KB of arrays per chunk cost more than
    /// walking a short run's few cells.
    static WALK_BLOCK: Cell<Option<Box<WalkBlock>>> = const { Cell::new(None) };
}

/// Number of quantile points in `ReuseQuantiles`.
const REUSE_BUCKETS: usize = 16;

/// A weak cell that passed the population-side gates: the
/// refresh-period-independent attributes drawn from its private attribute
/// stream, and its run-stream identity.
pub(crate) struct GatedCell {
    /// Reuse bucket (`REUSE_BUCKETS` = never reused).
    pub(crate) bucket: usize,
    /// 64-bit word index within the footprint, on the cell's rank.
    pub(crate) word: u64,
    /// Bit lane within the 72-bit ECC word.
    pub(crate) lane: u8,
    /// `(segment << 24) | index` — keys the cell's derived run stream.
    pub(crate) cell_key: u64,
}

impl<'a> RunContext<'a> {
    /// Number of (rank, segment-chunk) population work units per rank.
    pub(crate) fn chunks_per_rank() -> usize {
        (SEGMENTS / SEGMENTS_PER_CHUNK) as usize
    }

    pub(crate) fn new(
        device: &'a DramDevice,
        profile: &'a DramUsageProfile,
        op: OperatingPoint,
        duration_s: f64,
        run_seed: u64,
    ) -> Self {
        let physics = device.physics();
        let law = device.retention_law();
        let coupling =
            1.0 - physics.entropy_coupling * (profile.entropy_bits / 32.0).clamp(0.0, 1.0);
        let mut t_eff_by_bucket = [op.trefp_s; REUSE_BUCKETS + 1];
        let mut companion_fraction_by_bucket = [0.0; REUSE_BUCKETS + 1];
        let mut refresh_bracket_by_bucket = [(0.0, 0.0); REUSE_BUCKETS + 1];
        for bucket in 0..=REUSE_BUCKETS {
            // Bucket REUSE_BUCKETS is the never-reused case (auto-refresh
            // only): t_eff stays at TREFP.
            if bucket < REUSE_BUCKETS {
                let t_reuse = profile.reuse.sample_at((bucket as f64 + 0.5) / REUSE_BUCKETS as f64)
                    / profile.dram_filter.max(0.05);
                t_eff_by_bucket[bucket] = op.trefp_s.min(t_reuse);
            }
            companion_fraction_by_bucket[bucket] =
                law.fraction_below(t_eff_by_bucket[bucket] / coupling.max(1e-9));
            refresh_bracket_by_bucket[bucket] =
                law.quantile_bracket(coupling, t_eff_by_bucket[bucket]);
        }
        // `-ln(u) / rate > duration` for every `u` below the floor: the
        // 1e-9 relative margin dwarfs the rounding of both sides.
        let onset_u_floor = if physics.onset_rate_hz > 0.0 {
            (-(duration_s * physics.onset_rate_hz)).exp() * (1.0 - 1e-9)
        } else {
            0.0
        };
        let one_density = profile.one_density.clamp(0.0, 1.0);
        let tcf = physics.true_cell_fraction;
        let data_gate_rejects = tcf * (1.0 - one_density) + (1.0 - tcf) * one_density;
        let ranks = device.geometry().total_ranks();
        let region_words = (profile.footprint_words / 64).max(1);
        let read_rate_by_region: Vec<f64> = (0..64)
            .map(|region| {
                let share = profile.region_shares.get(region).copied().unwrap_or(0.0);
                profile.dram_read_rate_hz * share / region_words as f64 + physics.scrub_rate_hz
            })
            .collect();
        Self {
            device,
            profile,
            op,
            duration_s,
            run_seed,
            ranks,
            region_words,
            coupling,
            temp_factor: (physics.beta_per_c * (op.temp_c - 50.0)).exp(),
            // Companion-bit probability per manifesting cell and per unit of
            // (per-bit weak density × threshold fraction): 71 word-mates
            // times the spatial-correlation boost.
            companion_scale: 71.0 * physics.multi_bit_correlation,
            q_cap: law.fraction_below(op.trefp_s / coupling.max(1e-9)),
            t_eff_by_bucket,
            companion_fraction_by_bucket,
            refresh_bracket_by_bucket,
            onset_u_floor,
            onset_first: onset_u_floor > data_gate_rejects,
            read_rate_by_region,
            word_samplers: (0..ranks)
                .map(|rank| WordSampler::new(profile.footprint_words, rank, ranks))
                .collect(),
        }
    }

    /// Population seed of a rank: temperature/voltage only, so the same
    /// physical cells exist at every refresh period (see module docs).
    fn pop_seed(&self, rank_index: usize) -> u64 {
        mix_seed(self.device.seed(), rank_index as u64, env_bits(self.op), POP_DOMAIN)
    }

    /// Run seed of a rank: full operating point + run seed.
    pub(crate) fn rank_run_seed(&self, rank_index: usize) -> u64 {
        mix_seed(self.device.seed(), rank_index as u64, op_bits(self.op), self.run_seed)
    }

    /// Expected Poisson intensity of a rank's benchmark-footprint weak-cell
    /// population at this context's environment.
    pub(crate) fn expected_weak_cells(&self, rank_index: usize) -> f64 {
        self.device.expected_weak_cells(
            rank_index,
            self.profile.footprint_words,
            self.op.temp_c,
            self.op.vdd_v,
        )
    }

    /// Companion-bit probability per manifesting cell per unit of bucket
    /// weight (see [`RunContext::new`]); a population-side constant.
    pub(crate) fn p_companion_unit(&self, rank_index: usize) -> f64 {
        self.device.physics().weak_density(self.op.temp_c, self.op.vdd_v)
            * self.device.variation().factor(rank_index)
            * self.companion_scale
    }

    /// The implicit-refresh gate at this operating point: the cell leaks
    /// only if its retention (shortened by data coupling) is below the
    /// effective refresh period of its reuse bucket.
    #[inline]
    fn passes_refresh_gate(&self, retention: f64, bucket: usize) -> bool {
        retention * self.coupling < self.t_eff_by_bucket[bucket]
    }

    /// The population-side gates re-applied to an already-realized cell at
    /// this operating point: the thinning cap and the implicit-refresh
    /// gate. (The data-dependence gate is op-independent and already
    /// applied at realization time.) Same comparisons as the direct walk.
    #[inline]
    pub(crate) fn cell_is_live(&self, q: f64, bucket: usize) -> bool {
        q < self.q_cap && self.refresh_gate_passes(q, bucket)
    }

    /// The word-level read rate seen by a word's region (reads plus patrol
    /// scrub). `word / region_words` stays within the 0..64 table because
    /// `region_words = max(footprint/64, 1)`.
    #[inline]
    pub(crate) fn word_read_rate(&self, word: u64) -> f64 {
        let region = (word / self.region_words) as usize;
        self.read_rate_by_region[region.min(63)]
    }

    /// A segment's population stream and Poisson cell count. The stream
    /// then yields the quantile of each of the segment's cells in order.
    fn segment(&self, rank_index: usize, seg: u64, expected: f64) -> (SimRng, u64) {
        let mut seg_rng = SimRng::seed_from_u64(mix_seed(self.pop_seed(rank_index), seg, 0, 0));
        let count = sample_poisson(expected.min(5.0e7) / SEGMENTS as f64, &mut seg_rng);
        (seg_rng, count)
    }

    /// Walks one chunk of a rank's realized weak-cell population and calls
    /// `visit(q, cell)` for each cell that passes every population-side
    /// gate at this operating point, in canonical (segment, cell) order.
    /// This loop *is* the population side of the seeding contract, shared
    /// by the direct path and `PreparedRun` realization.
    ///
    /// Each segment's cells go through in blocks of [`BLOCK`]; every pass
    /// compacts its survivors to the front of the thread's block arrays
    /// without a branch on the (unpredictable) gate outcome:
    /// 1. draw each cell's quantile from the segment stream and keep those
    ///    below the thinning cap — the stream is shared by the segment's
    ///    cells, so every quantile is drawn;
    /// 2. only with `onset_run_seed` (the rank's run seed): seed each
    ///    cell's private run stream, take its onset draw and drop the cells
    ///    whose onset falls beyond the run — exactly the cells
    ///    `manifest_cell` drops at its first step;
    /// 3. seed each cell's private attribute stream, draw `is_true` and
    ///    `u_bit`, and keep the cells whose stored data can leak;
    /// 4. draw `u_never` and `u_reuse`, take the reuse bucket and apply the
    ///    refresh gate in quantile space (`refresh_gate_passes`).
    ///
    /// Only the survivors draw their word and lane. The draws of each
    /// private stream come in the order `ErrorSim::run_reference`'s
    /// `sample_cell_attrs` takes them, and a stream stops where that
    /// function returns, so every visited cell is bit-identical to the
    /// reference's. Pass 2 reads only the cell's run stream, which
    /// `manifest_cell` reseeds, so it changes which cells are visited but
    /// never what a visited cell draws; `prepare_chunk` freezes cells for
    /// every replay's run seed and never takes it.
    fn walk_chunk(
        &self,
        rank_index: usize,
        chunk: u64,
        onset_run_seed: Option<u64>,
        mut visit: impl FnMut(f64, GatedCell),
    ) {
        let expected = self.expected_weak_cells(rank_index);
        let seg_lo = chunk * SEGMENTS_PER_CHUNK;
        // Analytic thinning: a segment that starts at or beyond the cap
        // holds no cell that can fail at this operating point, and
        // skipping it cannot perturb any other cell (independent streams).
        // Most chunks end here, before they take the block arrays.
        if expected <= 0.0 || seg_lo as f64 / SEGMENTS as f64 >= self.q_cap {
            return;
        }
        let pop_seed = self.pop_seed(rank_index);
        let true_cell_fraction = self.device.physics().true_cell_fraction;
        assert!(
            (0.0..=1.0).contains(&true_cell_fraction),
            "true_cell_fraction = {true_cell_fraction} outside [0, 1]"
        );
        let one_density = self.profile.one_density.clamp(0.0, 1.0);
        let never_reused = self.profile.never_reused_fraction;
        let words = &self.word_samplers[rank_index];
        let mut block = WALK_BLOCK.take().unwrap_or_else(|| {
            Box::new(WalkBlock {
                q: [0.0; BLOCK],
                key: [0; BLOCK],
                attr: [SimRng::seed_from_u64(0); BLOCK],
                bucket: [0; BLOCK],
            })
        });
        let WalkBlock { q, key, attr, bucket } = &mut *block;
        for seg in seg_lo..seg_lo + SEGMENTS_PER_CHUNK {
            if seg as f64 / SEGMENTS as f64 >= self.q_cap {
                break;
            }
            let (mut seg_rng, count) = self.segment(rank_index, seg, expected);
            let mut first = 0;
            while first < count {
                let len = (count - first).min(BLOCK as u64) as usize;
                // Pass 1: the thinning cap. The quantile draw is
                // cap-independent, so the candidate set only ever *grows*
                // with TREFP.
                let mut n = 0;
                for j in first..first + len as u64 {
                    let cell_q = (seg as f64 + seg_rng.gen::<f64>()) / SEGMENTS as f64;
                    q[n] = cell_q;
                    key[n] = (seg << 24) | j.min((1 << 24) - 1);
                    n += usize::from(cell_q < self.q_cap);
                }
                // Pass 2, when it rejects more than the data gate: the
                // onset draw.
                if let Some(run_seed) = onset_run_seed {
                    let mut k = 0;
                    for i in 0..n {
                        let u = exp_uniform(&mut cell_run_stream(run_seed, key[i]));
                        (q[k], key[k]) = (q[i], key[i]);
                        k += usize::from(u >= self.onset_u_floor);
                    }
                    n = k;
                }
                // Pass 3: the data gate.
                let mut m = 0;
                for i in 0..n {
                    let mut rng =
                        SimRng::seed_from_u64(mix_seed(pop_seed, key[i], CELL_ATTR_SALT, 1));
                    let is_true_cell = rng.gen::<f64>() < true_cell_fraction;
                    let stored_one = rng.gen::<f64>() < one_density;
                    (q[m], key[m], attr[m]) = (q[i], key[i], rng);
                    m += usize::from(is_true_cell == stored_one);
                }
                // Pass 4: the refresh gate.
                let mut live = 0;
                for i in 0..m {
                    let u_never: f64 = attr[i].gen();
                    let u_reuse: f64 = attr[i].gen();
                    let b = reuse_bucket(u_never, u_reuse, never_reused);
                    let passes = self.refresh_gate_passes(q[i], b);
                    (q[live], key[live], attr[live], bucket[live]) = (q[i], key[i], attr[i], b as u8);
                    live += usize::from(passes);
                }
                for i in 0..live {
                    let word = words.sample(&mut attr[i]);
                    let lane = attr[i].gen_range(0..72u8);
                    let bucket = bucket[i] as usize;
                    visit(q[i], GatedCell { bucket, word, lane, cell_key: key[i] });
                }
                first += len as u64;
            }
        }
        WALK_BLOCK.set(Some(block));
    }

    /// The refresh gate of a cell at quantile `q` in reuse bucket `bucket`:
    /// decided by the bucket's quantile bracket, with the exact retention
    /// comparison only inside it.
    #[inline]
    fn refresh_gate_passes(&self, q: f64, bucket: usize) -> bool {
        let (lo, hi) = self.refresh_bracket_by_bucket[bucket];
        let mut passes = q < lo;
        // One comparison, so one rarely taken branch: `q >= lo` alone is a
        // coin flip the branch predictor cannot learn. It holds on all of
        // `[lo, hi)` (rounding is monotone) and also a little below `lo`,
        // where the exact comparison is just as right.
        if (q - lo).abs() <= hi - lo {
            let retention = self.device.retention_law().retention_at_fraction(q);
            passes = self.passes_refresh_gate(retention, bucket);
        }
        passes
    }

    /// Realizes one chunk of a rank's weak-cell population: all cells whose
    /// retention quantile falls inside the chunk's segments and below the
    /// thinning cap, and that pass the population-side gates.
    fn population_chunk(&self, rank_index: usize, chunk: u64) -> Vec<Candidate> {
        let run_seed = self.rank_run_seed(rank_index);
        let p_companion_unit = self.p_companion_unit(rank_index);
        // Not pre-sized: the thinning cap usually ends the walk within the
        // chunk's first segments and most chunks realize no cell, so an
        // estimate from the whole chunk over-reserves by orders of
        // magnitude — and each large buffer freed raises glibc's mmap
        // threshold, leaving the worker arenas holding the memory.
        let mut out = Vec::new();
        let onset_run_seed = self.onset_first.then_some(run_seed);
        self.walk_chunk(rank_index, chunk, onset_run_seed, |_q, cell| {
            let read_rate = || self.word_read_rate(cell.word);
            if let Some(cand) = self.manifest_cell(&cell, read_rate, run_seed, p_companion_unit) {
                out.push(cand);
            }
        });
        out
    }

    /// Realizes one chunk of a rank's population into frozen
    /// `PreparedCell`s: the `PreparedRun` analogue of `population_chunk`.
    /// Cells that can never manifest anywhere in the prepared envelope —
    /// data-gated, or refresh-gated even at the group's longest refresh
    /// period (`t_eff` grows with TREFP, so failing at the envelope means
    /// failing at every set-point below it) — are dropped here and never
    /// revisited by replays.
    pub(crate) fn prepare_chunk(
        &self,
        rank_index: usize,
        chunk: u64,
    ) -> Vec<crate::prepared::PreparedCell> {
        // Not pre-sized, for the reasons given in `population_chunk`.
        let mut out = Vec::new();
        self.walk_chunk(rank_index, chunk, None, |q, cell| {
            out.push(crate::prepared::PreparedCell {
                q,
                word: cell.word,
                cell_key: cell.cell_key,
                lane: cell.lane,
                bucket: cell.bucket as u8,
            });
        });
        out
    }

    /// Plays out the run randomness of a gated candidate cell — discovery
    /// timing and the spatially-correlated companion check — from the
    /// cell's private run stream. Shared verbatim by the direct path and
    /// the `PreparedRun` replay so the two stay bit-identical. Two bad
    /// bits in one word: instant UE.
    ///
    /// The discovery time is a sum of non-negative terms, so once a partial
    /// sum exceeds the run the cell cannot be discovered, and the draws it
    /// skips belong to no other cell: the onset draw is tested against
    /// `onset_u_floor` before its `ln`, and `read_rate` (the word's region
    /// lookup) is called only for cells whose onset falls inside the run.
    /// The shared streams of the aux channels may not stop early: their
    /// next cell draws where this one left off.
    pub(crate) fn manifest_cell(
        &self,
        cell: &GatedCell,
        read_rate: impl FnOnce() -> f64,
        rank_run_seed: u64,
        p_companion_unit: f64,
    ) -> Option<Candidate> {
        let physics = self.device.physics();
        let mut run_rng = cell_run_stream(rank_run_seed, cell.cell_key);
        let onset = sample_exp_unless_below(
            physics.onset_rate_hz,
            self.onset_u_floor,
            &mut run_rng,
        )?;
        if onset > self.duration_s {
            return None;
        }
        let mut t = onset + sample_exp(read_rate(), &mut run_rng);
        if t > self.duration_s {
            return None;
        }
        if !run_rng.gen_bool(physics.vrt_active_fraction) {
            t += sample_exp(physics.vrt_toggle_rate_hz, &mut run_rng);
        }
        let t = (t <= self.duration_s).then_some(t)?;
        let companion = run_rng.gen_bool(self.p_companion(p_companion_unit, cell.bucket));
        Some(Candidate { t_s: t, word: cell.word, lane: cell.lane, companion })
    }

    /// The companion-bit probability of a manifesting cell in `bucket`.
    fn p_companion(&self, p_companion_unit: f64, bucket: usize) -> f64 {
        (p_companion_unit * self.companion_fraction_by_bucket[bucket]).clamp(0.0, 1.0)
    }

    // ---- the per-cell reference walk (`ErrorSim::run_reference`) ----------

    /// The reference walk: invokes `visit(q, cell_key, retention,
    /// attr_rng)` for each cell of the chunk below the thinning cap, one
    /// cell at a time, with its retention computed and its private
    /// attribute stream freshly seeded.
    fn for_each_realized_cell(
        &self,
        rank_index: usize,
        chunk: u64,
        expected: f64,
        mut visit: impl FnMut(f64, u64, f64, &mut SimRng),
    ) {
        let law = self.device.retention_law();
        let pop_seed = self.pop_seed(rank_index);
        let seg_lo = chunk * SEGMENTS_PER_CHUNK;
        for seg in seg_lo..seg_lo + SEGMENTS_PER_CHUNK {
            if seg as f64 / SEGMENTS as f64 >= self.q_cap {
                break;
            }
            let (mut seg_rng, count) = self.segment(rank_index, seg, expected);
            for j in 0..count {
                let q = (seg as f64 + seg_rng.gen::<f64>()) / SEGMENTS as f64;
                if q >= self.q_cap {
                    continue;
                }
                let cell_key = (seg << 24) | j.min((1 << 24) - 1);
                let retention = law.retention_at_fraction(q);
                let mut attr_rng =
                    SimRng::seed_from_u64(mix_seed(pop_seed, cell_key, CELL_ATTR_SALT, 1));
                visit(q, cell_key, retention, &mut attr_rng);
            }
        }
    }

    /// The reference counterpart of `population_chunk`: per cell, the
    /// population gates of `sample_cell_attrs`, then every term of the
    /// discovery time.
    fn population_chunk_reference(&self, rank_index: usize, chunk: u64) -> Vec<Candidate> {
        let expected = self.expected_weak_cells(rank_index);
        if expected <= 0.0 || self.q_cap <= 0.0 {
            return Vec::new();
        }
        let physics = self.device.physics();
        let run_seed = self.rank_run_seed(rank_index);
        let p_companion_unit = self.p_companion_unit(rank_index);
        let mut out = Vec::new();
        self.for_each_realized_cell(rank_index, chunk, expected, |_q, cell_key, retention, rng| {
            let Some(cell) = self.sample_cell_attrs(rank_index, cell_key, retention, rng) else {
                return;
            };
            let mut run_rng =
                SimRng::seed_from_u64(mix_seed(run_seed, cell_key, CELL_RUN_SALT, 2));
            let read_rate = self.word_read_rate(cell.word);
            if let Some(t) = discovery_time(physics, read_rate, self.duration_s, &mut run_rng) {
                let companion = run_rng.gen_bool(self.p_companion(p_companion_unit, cell.bucket));
                out.push(Candidate { t_s: t, word: cell.word, lane: cell.lane, companion });
            }
        });
        out
    }

    /// Draws one candidate cell's attributes from its (private) population
    /// stream and applies the population-side gates at this context's
    /// operating point. Returns `None` when the cell cannot leak here:
    /// either its stored data holds it safe, or implicit refresh outpaces
    /// its retention.
    ///
    /// Gates are ordered cheapest-rejection-first, and the draw order is
    /// part of the seeding contract: `is_true`, `u_bit` (data gate),
    /// `u_never`, `u_reuse` (refresh gate), then — only for cells passing
    /// both — word and lane. Because the stream is private to the cell,
    /// stopping early never perturbs any other cell.
    fn sample_cell_attrs(
        &self,
        rank_index: usize,
        cell_key: u64,
        retention: f64,
        attr_rng: &mut SimRng,
    ) -> Option<GatedCell> {
        let physics = self.device.physics();
        let profile = self.profile;

        // All per-cell physical attributes come from the cell's population
        // stream so they persist across TREFP settings.
        //
        // Data-dependent vulnerability: a leak flips the bit only when the
        // stored value holds the cell in its charged state; bit-line
        // coupling shortens the effective retention with the written
        // pattern's entropy.
        let is_true_cell = attr_rng.gen_bool(physics.true_cell_fraction);
        let u_bit: f64 = attr_rng.gen();
        let stored_one = u_bit < profile.one_density.clamp(0.0, 1.0);
        if is_true_cell != stored_one {
            return None;
        }

        // Implicit refresh: accesses recharge the cells they touch (§II-C).
        // Following the paper, the refresh period incurred by the program is
        // its word-level reuse time, inflated by the cache filter (only
        // accesses that reach DRAM refresh the stored row copy). Both the
        // resulting `t_eff` and the companion weight are bucket lookups (17
        // distinct values per run).
        let u_never: f64 = attr_rng.gen();
        let u_reuse: f64 = attr_rng.gen();
        let bucket = reuse_bucket(u_never, u_reuse, profile.never_reused_fraction);
        if !self.passes_refresh_gate(retention, bucket) {
            return None;
        }

        let word =
            sample_word_on_rank(profile.footprint_words, rank_index, self.ranks, attr_rng);
        let lane = attr_rng.gen_range(0..72u8);
        Some(GatedCell { bucket, word, lane, cell_key })
    }

    /// The three rank-level channels that are cheap after thinning:
    /// disturbance flips, the OS-resident region and disturbance bursts.
    ///
    /// The disturbance and burst channels are pure run randomness and are
    /// always played out fresh; the OS-resident *population* is either
    /// walked from its stream (`OsSource::Walk`, the direct path) or
    /// replayed from a frozen realization (`OsSource::Prepared`). Both
    /// sources feed the identical run-randomness consumer, so outputs are
    /// bit-identical.
    pub(crate) fn aux_channels(&self, rank_index: usize, os: OsSource<'_>) -> AuxOutcome {
        let physics = self.device.physics();
        let law = self.device.retention_law();
        let profile = self.profile;
        let op = self.op;
        let factor = self.device.variation().factor(rank_index);
        let run_seed = self.rank_run_seed(rank_index);
        let mut disturb = Vec::new();
        let mut ue_times = Vec::new();

        // Disturbance channel: single-bit flips from cell-to-cell
        // interference, proportional to the row-activation rate (the
        // paper's dominant workload effect). Victims are spread over the
        // rows the workload activates.
        let mut rng_disturb = SimRng::seed_from_u64(mix_seed(run_seed, DISTURB_SALT, 0, 3));
        let act_per_rank = profile.row_activation_rate_hz / self.ranks as f64;
        let disturb_mean = physics.disturb_flips_per_activation
            * act_per_rank
            * self.duration_s
            * self.temp_factor
            * (physics.disturb_alpha_per_s * (op.trefp_s - 2.283)).exp()
            * factor;
        let disturb_flips = sample_poisson(disturb_mean, &mut rng_disturb);
        // A shared sequential stream: every flip draws every discovery term,
        // because the next flip's draws start where this one's end.
        let words = &self.word_samplers[rank_index];
        for _ in 0..disturb_flips {
            let word = words.sample(&mut rng_disturb);
            let lane = rng_disturb.gen_range(0..72u8);
            let read_rate_word = self.word_read_rate(word);
            if let Some(t) =
                discovery_time(physics, read_rate_word, self.duration_s, &mut rng_disturb)
            {
                disturb.push(Candidate { t_s: t, word, lane, companion: false });
            }
        }

        // OS-resident cold pages: outside the benchmark's footprint and
        // almost never re-read, so they rely purely on auto-refresh. A pair
        // collision here is a kernel-memory UE — instant crash.
        let q_cap_os = law.fraction_below(op.trefp_s);
        match os {
            OsSource::Walk => {
                self.os_run_draws(rank_index, self.os_walk(rank_index), &mut ue_times);
            }
            OsSource::Prepared(cells) => {
                // The frozen walk was realized at the envelope's cap; its
                // prefix below this op's cap is exactly what a fresh walk
                // would yield (gaps accumulate monotonically).
                let prefix = cells.iter().take_while(|c| c.q < q_cap_os).copied();
                self.os_run_draws(rank_index, prefix, &mut ue_times);
            }
        }

        // Disturbance bursts: clustered multi-bit flips from sustained
        // hammering; quadratic in the activation rate so that parallel
        // memory-intensive workloads dominate at shorter TREFP (Fig. 9a).
        let mut rng_burst = SimRng::seed_from_u64(mix_seed(run_seed, BURST_SALT, 0, 6));
        let burst_rate = physics.ue_burst_coeff
            * profile.row_activation_rate_hz.powi(2)
            * self.duration_s
            * (physics.ue_burst_beta_per_c * (op.temp_c - 70.0)).exp()
            * (physics.ue_burst_alpha_per_s * (op.trefp_s - 1.45)).exp()
            * ue_rank_share(self.device, rank_index);
        let bursts = sample_poisson(burst_rate, &mut rng_burst);
        if bursts > 0 {
            ue_times.push(rng_burst.gen_range(0.0..self.duration_s));
        }

        AuxOutcome { disturb, ue_times }
    }

    /// Walks the OS-resident population of a rank: a Poisson process over
    /// retention-quantile space up to `fraction_below(TREFP)`, yielding the
    /// data-gate-passing cells in increasing-quantile order. Pure
    /// population randomness (the `OS_POP_SALT` stream) — candidate cells
    /// have retention below TREFP by construction and leak iff the stored
    /// bit holds them charged (kernel pages: mixed data).
    pub(crate) fn os_walk(&self, rank_index: usize) -> impl Iterator<Item = OsCell> + '_ {
        let physics = self.device.physics();
        let law = self.device.retention_law();
        let factor = self.device.variation().factor(rank_index);
        let os_words_rank = physics.os_resident_words / self.ranks as u64;
        let os_expected =
            physics.weak_density(self.op.temp_c, self.op.vdd_v) * factor * os_words_rank as f64 * 72.0;
        let q_cap_os = law.fraction_below(self.op.trefp_s);
        let rate = os_expected.min(5.0e7);
        let mut rng_os_pop =
            SimRng::seed_from_u64(mix_seed(self.pop_seed(rank_index), OS_POP_SALT, 0, 4));
        let mut q = 0.0f64;
        let active = os_expected > 0.0 && q_cap_os > 0.0;
        let true_cell_fraction = physics.true_cell_fraction;
        core::iter::from_fn(move || {
            if !active {
                return None;
            }
            loop {
                q += sample_exp(rate, &mut rng_os_pop);
                if q >= q_cap_os {
                    return None;
                }
                let word = rng_os_pop.gen_range(0..os_words_rank.max(1));
                let is_true_cell = rng_os_pop.gen_bool(true_cell_fraction);
                let stored_one = rng_os_pop.gen_bool(0.5);
                if is_true_cell == stored_one {
                    return Some(OsCell { q, word });
                }
            }
        })
    }

    /// Plays the run randomness of the OS-resident channel over an
    /// in-order stream of realized cells: discovery by patrol scrub, the
    /// companion upgrade, and the pair-collision map. One sequential
    /// `OS_RUN_SALT` stream per rank, consumed only for cells the walk
    /// yielded — which is what makes the prepared prefix replay exact.
    fn os_run_draws(
        &self,
        rank_index: usize,
        cells: impl Iterator<Item = OsCell>,
        ue_times: &mut Vec<f64>,
    ) {
        let physics = self.device.physics();
        let law = self.device.retention_law();
        let factor = self.device.variation().factor(rank_index);
        let q_cap_os = law.fraction_below(self.op.trefp_s);
        let mut rng_os_run =
            SimRng::seed_from_u64(mix_seed(self.rank_run_seed(rank_index), OS_RUN_SALT, 0, 5));
        let mut os_manifested: FxHashMap<u64, f64> = FxHashMap::default();
        let p_companion_os = (physics.weak_density(self.op.temp_c, self.op.vdd_v)
            * factor
            * q_cap_os
            * self.companion_scale)
            .clamp(0.0, 1.0);
        for cell in cells {
            if let Some(t) =
                discovery_time(physics, physics.scrub_rate_hz, self.duration_s, &mut rng_os_run)
            {
                if rng_os_run.gen_bool(p_companion_os) {
                    ue_times.push(t);
                    continue;
                }
                if let Some(first) = os_manifested.insert(cell.word, t) {
                    ue_times.push(first.max(t));
                }
            }
        }
    }
}

/// Adds a CE, upgrading to a UE when a second corrupted bit lands in an
/// already-manifested word.
fn record_ce(
    ce_events: &mut Vec<CeEvent>,
    manifested: &mut FxHashMap<u64, f64>,
    earliest_ue: &mut Option<UeEvent>,
    event: CeEvent,
) {
    match manifested.insert(event.word, event.t_s) {
        Some(first_time) => {
            let t_ue = first_time.max(event.t_s);
            if earliest_ue.is_none_or(|ue| t_ue < ue.t_s) {
                *earliest_ue = Some(UeEvent { t_s: t_ue, rank: event.rank });
            }
        }
        None => ce_events.push(event),
    }
}

/// Discovery delay: stochastic failure onset plus the next read/scrub.
/// Cells starting in the benign VRT state wait for a toggle first.
fn discovery_time<R: RngCore>(
    physics: &crate::config::ErrorPhysics,
    read_rate_hz: f64,
    duration_s: f64,
    rng: &mut R,
) -> Option<f64> {
    let mut t = sample_exp(physics.onset_rate_hz, rng) + sample_exp(read_rate_hz, rng);
    if !rng.gen_bool(physics.vrt_active_fraction) {
        t += sample_exp(physics.vrt_toggle_rate_hz, rng);
    }
    (t <= duration_s).then_some(t)
}

/// The share of burst-UE intensity attributed to a rank: proportional to the
/// *square* of its weak-cell factor, concentrating UEs on the weakest ranks
/// as in Fig. 9b.
fn ue_rank_share(device: &DramDevice, rank_index: usize) -> f64 {
    let factors = device.variation().factors();
    let sum_sq: f64 = factors.iter().map(|f| f * f).sum();
    factors[rank_index].powi(2) / sum_sq
}

/// Samples a uniformly-random 64-bit word index that interleaves onto the
/// given rank (words interleave by 64-byte line round-robin).
///
/// Lines (8 words) rotate across ranks; line `l` lives on rank
/// `l mod ranks`. When the footprint is too small to place any line on the
/// requested rank (fewer than `8 × ranks` words), the word is drawn
/// uniformly from the footprint instead — a documented small-footprint
/// approximation that keeps the sampler total. A zero-word footprint is
/// rejected by `DramUsageProfile::validate`, but the sampler still guards
/// it rather than underflowing.
fn sample_word_on_rank<R: RngCore>(
    footprint_words: u64,
    rank_index: usize,
    ranks: usize,
    rng: &mut R,
) -> u64 {
    WordSampler::new(footprint_words, rank_index, ranks).sample(rng)
}

/// [`sample_word_on_rank`] for one rank, with the number of lines on the
/// rank (a division) computed once instead of per draw.
#[derive(Debug, Clone, Copy)]
struct WordSampler {
    footprint_words: u64,
    rank: u64,
    stride: u64,
    lines_on_rank: u64,
}

impl WordSampler {
    fn new(footprint_words: u64, rank_index: usize, ranks: usize) -> Self {
        let lines = footprint_words.div_ceil(8);
        let rank = rank_index as u64;
        let stride = ranks as u64;
        // Number of lines landing on this rank: l = i·stride + rank < lines.
        let lines_on_rank = if lines > rank { (lines - rank).div_ceil(stride) } else { 0 };
        Self { footprint_words, rank, stride, lines_on_rank }
    }

    fn sample<R: RngCore>(&self, rng: &mut R) -> u64 {
        if self.footprint_words == 0 {
            return 0;
        }
        if self.lines_on_rank == 0 {
            return rng.gen_range(0..self.footprint_words);
        }
        let line = rng.gen_range(0..self.lines_on_rank) * self.stride + self.rank;
        let base = line * 8;
        // The footprint's final line may be partial.
        let width = 8u64.min(self.footprint_words - base);
        base + rng.gen_range(0..width)
    }
}

/// The reuse bucket of a cell from its `u_never` and `u_reuse` draws:
/// `REUSE_BUCKETS` for a never-reused cell, else the same floor mapping as
/// `ReuseQuantiles::sample_at`, which is itself a 16-point lookup — the
/// bucket tables are an exact refactoring of a per-cell computation, not a
/// coarsening.
#[inline]
fn reuse_bucket(u_never: f64, u_reuse: f64, never_reused_fraction: f64) -> usize {
    let reused =
        ((u_reuse.clamp(0.0, 0.999_999) * REUSE_BUCKETS as f64) as usize).min(REUSE_BUCKETS - 1);
    if u_never < never_reused_fraction {
        REUSE_BUCKETS
    } else {
        reused
    }
}

fn sample_poisson<R: RngCore>(mean: f64, rng: &mut R) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    // Guard enormous means (far beyond the modelled regime).
    let mean = mean.min(5.0e7);
    Poisson::new(mean).map(|d| d.sample(rng) as u64).unwrap_or(0)
}

fn sample_exp<R: RngCore>(rate_hz: f64, rng: &mut R) -> f64 {
    if rate_hz <= 0.0 {
        return f64::INFINITY;
    }
    -exp_uniform(rng).ln() / rate_hz
}

/// The uniform draw behind an exponential sample, in `[MIN_POSITIVE, 1)`
/// so that its `ln` is finite.
#[inline]
fn exp_uniform<R: RngCore>(rng: &mut R) -> f64 {
    rng.gen_range(f64::MIN_POSITIVE..1.0)
}

/// [`sample_exp`], except that a uniform draw below `u_floor` returns
/// `None` without taking the `ln`. Draws exactly what `sample_exp` draws.
fn sample_exp_unless_below<R: RngCore>(rate_hz: f64, u_floor: f64, rng: &mut R) -> Option<f64> {
    if rate_hz <= 0.0 {
        return Some(f64::INFINITY);
    }
    let u = exp_uniform(rng);
    if u < u_floor {
        return None;
    }
    Some(-u.ln() / rate_hz)
}

/// A cell's private run stream: its onset, discovery, VRT and companion
/// draws, keyed by the rank's run seed and the cell's key.
fn cell_run_stream(rank_run_seed: u64, cell_key: u64) -> SimRng {
    SimRng::seed_from_u64(mix_seed(rank_run_seed, cell_key, CELL_RUN_SALT, 2))
}

/// Environment bits for the *population* seed: temperature and voltage only
/// (the same cells exist at every refresh period).
fn env_bits(op: OperatingPoint) -> u64 {
    let v = (op.vdd_v * 1e6) as u64;
    let c = (op.temp_c * 1e3) as u64;
    v.rotate_left(21) ^ c.rotate_left(42)
}

/// Folds the full operating point into seed material for run randomness.
fn op_bits(op: OperatingPoint) -> u64 {
    let t = (op.trefp_s * 1e6) as u64;
    t ^ env_bits(op)
}

/// SplitMix64-style seed mixing for statistically independent streams.
fn mix_seed(a: u64, b: u64, c: u64, d: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.rotate_left(17))
        .wrapping_add(c.rotate_left(34))
        .wrapping_add(d.rotate_left(51));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ErrorPhysics;

    const GIB_WORDS: u64 = 1 << 27; // 1 GiB of 64-bit words

    fn device() -> DramDevice {
        DramDevice::with_seed(39)
    }

    fn profile() -> DramUsageProfile {
        DramUsageProfile::uniform_synthetic(GIB_WORDS)
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let d = device();
        let sim = ErrorSim::new(&d);
        let op = OperatingPoint::relaxed(2.283, 50.0);
        let a = sim.run(&profile(), op, 7200.0, 5);
        let b = sim.run(&profile(), op, 7200.0, 5);
        assert_eq!(a, b);
        let c = sim.run(&profile(), op, 7200.0, 6);
        assert_ne!(a, c, "different run seeds should differ (VRT/discovery)");
    }

    #[test]
    fn run_is_identical_across_thread_counts() {
        // The parallel fan-out must be invisible: byte-identical results on
        // a 1-thread and an N-thread rayon pool.
        let d = device();
        let sim = ErrorSim::new(&d);
        let op = OperatingPoint::relaxed(2.283, 70.0);
        let p = profile();
        let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let many = rayon::ThreadPoolBuilder::new().num_threads(8).build().unwrap();
        let serial = one.install(|| sim.run(&p, op, 7200.0, 11));
        let parallel = many.install(|| sim.run(&p, op, 7200.0, 11));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn populations_persist_across_trefp() {
        // The same weak cells must fail at 1.727 s and 2.283 s: the shorter
        // threshold's error words are a subset of the longer's.
        let d = device();
        let sim = ErrorSim::new(&d);
        let p = profile();
        let a = sim.run(&p, OperatingPoint::relaxed(1.727, 60.0), 7200.0, 1);
        let b = sim.run(&p, OperatingPoint::relaxed(2.283, 60.0), 7200.0, 1);
        let words_b: std::collections::HashSet<u64> =
            b.ce_events.iter().map(|e| e.word).collect();
        let retained = a
            .ce_events
            .iter()
            .filter(|e| words_b.contains(&e.word))
            .count();
        // Discovery truncation and the disturbance channel add noise, but
        // the bulk of the shorter-TREFP errors must reappear.
        assert!(
            retained as f64 >= 0.6 * a.ce_events.len() as f64,
            "only {retained}/{} persisted",
            a.ce_events.len()
        );
    }

    #[test]
    fn wer_grows_exponentially_with_trefp() {
        let d = device();
        let sim = ErrorSim::new(&d);
        let p = DramUsageProfile::uniform_synthetic(1 << 30);
        let mut prev = 0.0;
        for &t in &OperatingPoint::WER_TREFP_SWEEP {
            let r = sim.run(&p, OperatingPoint::relaxed(t, 60.0), 7200.0, 1);
            let wer = r.wer();
            assert!(wer > prev, "WER must grow with TREFP: {wer} after {prev}");
            if prev > 0.0 {
                assert!(wer / prev > 2.0, "growth should be strong: {}", wer / prev);
            }
            prev = wer;
        }
    }

    #[test]
    fn hotter_means_more_errors() {
        let d = device();
        let sim = ErrorSim::new(&d);
        let op50 = OperatingPoint::relaxed(2.283, 50.0);
        let op60 = OperatingPoint::relaxed(2.283, 60.0);
        let w50 = sim.run(&profile(), op50, 7200.0, 1).wer();
        let w60 = sim.run(&profile(), op60, 7200.0, 1).wer();
        assert!(w60 > 5.0 * w50, "60°C {w60} vs 50°C {w50}");
    }

    #[test]
    fn nominal_refresh_is_clean() {
        let d = device();
        let sim = ErrorSim::new(&d);
        let r = sim.run(&profile(), OperatingPoint::nominal(), 7200.0, 1);
        assert_eq!(r.ce_events.len(), 0, "64 ms refresh must not leak");
        assert!(!r.crashed());
    }

    #[test]
    fn fast_reuse_suppresses_errors() {
        let d = device();
        let sim = ErrorSim::new(&d);
        let op = OperatingPoint::relaxed(2.283, 60.0);
        let slow = profile(); // 5 s reuse > TREFP: no protection
        let mut fast = profile();
        fast.reuse = crate::ReuseQuantiles::constant(0.05);
        fast.never_reused_fraction = 0.0;
        fast.dram_filter = 1.0;
        let w_slow = sim.run(&slow, op, 7200.0, 1).wer();
        let w_fast = sim.run(&fast, op, 7200.0, 1).wer();
        assert!(
            w_fast < w_slow / 3.0,
            "implicit refresh should suppress errors: fast {w_fast} slow {w_slow}"
        );
    }

    #[test]
    fn high_activation_rate_disturbs() {
        let d = device();
        let sim = ErrorSim::new(&d);
        let op = OperatingPoint::relaxed(2.283, 60.0);
        let mut calm = profile();
        calm.row_activation_rate_hz = 1.0e4;
        let mut hot = calm.clone();
        hot.row_activation_rate_hz = 2.0e7;
        let w_calm = sim.run(&calm, op, 7200.0, 2).wer();
        let w_hot = sim.run(&hot, op, 7200.0, 2).wer();
        assert!(w_hot > w_calm, "disturbance must raise WER: {w_hot} vs {w_calm}");
    }

    #[test]
    fn disturbance_ablation_removes_the_effect() {
        let physics = ErrorPhysics::calibrated().without_disturbance();
        let d = DramDevice::with_parts(39, crate::ServerGeometry::x_gene2(), physics);
        let sim = ErrorSim::new(&d);
        let op = OperatingPoint::relaxed(2.283, 60.0);
        let mut calm = profile();
        calm.row_activation_rate_hz = 1.0e4;
        let mut hot = calm.clone();
        hot.row_activation_rate_hz = 2.0e7;
        let w_calm = sim.run(&calm, op, 7200.0, 2).wer();
        let w_hot = sim.run(&hot, op, 7200.0, 2).wer();
        let ratio = w_hot / w_calm.max(1e-300);
        assert!(
            (0.8..1.25).contains(&ratio),
            "ablated physics must not react to activation rate: ratio {ratio}"
        );
    }

    #[test]
    fn max_trefp_at_70c_crashes() {
        let d = device();
        let sim = ErrorSim::new(&d);
        let op = OperatingPoint::relaxed(2.283, 70.0);
        let crashes = (0..5)
            .filter(|&s| sim.run(&profile(), op, 7200.0, s).crashed())
            .count();
        assert!(crashes >= 4, "max TREFP at 70 °C should almost always crash: {crashes}/5");
    }

    #[test]
    fn cool_runs_rarely_crash() {
        let d = device();
        let sim = ErrorSim::new(&d);
        let op = OperatingPoint::relaxed(1.450, 50.0);
        let crashes = (0..5)
            .filter(|&s| sim.run(&profile(), op, 7200.0, s).crashed())
            .count();
        assert_eq!(crashes, 0, "50 °C runs must not crash");
    }

    #[test]
    fn rank_variation_shows_up_in_results() {
        let d = device();
        let sim = ErrorSim::new(&d);
        let op = OperatingPoint::relaxed(2.283, 60.0);
        let per_rank = sim.run(&profile(), op, 7200.0, 3).wer_per_rank();
        let max = per_rank.iter().cloned().fold(f64::MIN, f64::max);
        let min_nonzero = per_rank.iter().cloned().filter(|&w| w > 0.0).fold(f64::MAX, f64::min);
        assert!(max / min_nonzero > 5.0, "rank spread: {}", max / min_nonzero);
    }

    #[test]
    fn timeline_converges_within_two_hours() {
        let d = device();
        let sim = ErrorSim::new(&d);
        let op = OperatingPoint::relaxed(2.283, 60.0);
        let r = sim.run(&profile(), op, 7200.0, 4);
        let w_110 = r.wer_at(6600.0);
        let w_120 = r.wer_at(7200.0);
        assert!(w_120 > 0.0);
        let change = (w_120 - w_110) / w_120;
        assert!(change < 0.10, "last-10-minute change {change} too large");
        assert!(r.wer_at(1800.0) < 0.8 * w_120);
    }

    #[test]
    fn zero_entropy_data_is_safer_than_random() {
        let d = device();
        let sim = ErrorSim::new(&d);
        let op = OperatingPoint::relaxed(2.283, 60.0);
        let mut plain = profile();
        plain.entropy_bits = 0.0;
        let mut random = profile();
        random.entropy_bits = 32.0;
        let w_plain = sim.run(&plain, op, 7200.0, 9).wer();
        let w_random = sim.run(&random, op, 7200.0, 9).wer();
        assert!(w_random > w_plain, "coupling: random {w_random} vs plain {w_plain}");
    }

    #[test]
    fn calibrated_physics_tests_onset_first_only_in_short_runs() {
        // At 900 s the onset draw rejects e^-0.5 ≈ 0.607 of the capped
        // cells against the data gate's 0.5, so the direct walk takes it
        // first; at 7,200 s it rejects e^-4 ≈ 0.018 and stays in
        // `manifest_cell`, after both gates.
        let d = device();
        let p = profile();
        let op = OperatingPoint::relaxed(2.283, 70.0);
        let onset_first = |duration_s| RunContext::new(&d, &p, op, duration_s, 0).onset_first;
        assert!(onset_first(900.0), "a 900 s epoch must test the onset draw first");
        assert!(!onset_first(7200.0), "a 2 h run must keep the data gate first");
    }

    // ---- sample_word_on_rank ------------------------------------------------

    fn rank_of(word: u64, ranks: u64) -> u64 {
        (word / 8) % ranks
    }

    #[test]
    fn sampled_words_land_on_the_requested_rank() {
        let mut rng = SimRng::seed_from_u64(1);
        for &footprint in &[1u64 << 27, 1 << 20, 4096, 512, 64] {
            for rank in 0..8usize {
                for _ in 0..200 {
                    let w = sample_word_on_rank(footprint, rank, 8, &mut rng);
                    assert!(w < footprint, "word {w} outside footprint {footprint}");
                    assert_eq!(
                        rank_of(w, 8),
                        rank as u64,
                        "word {w} of footprint {footprint} not on rank {rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn tiny_footprints_stay_in_bounds_without_panicking() {
        // Footprints smaller than 8 × ranks cannot place a line on every
        // rank; the sampler must fall back to in-footprint words (the old
        // clamp placed them on the wrong rank *and* underflowed at zero).
        let mut rng = SimRng::seed_from_u64(2);
        for &footprint in &[1u64, 3, 7, 8, 9, 15] {
            for rank in 0..8usize {
                for _ in 0..50 {
                    let w = sample_word_on_rank(footprint, rank, 8, &mut rng);
                    assert!(w < footprint, "word {w} outside footprint {footprint}");
                }
            }
        }
        assert_eq!(sample_word_on_rank(0, 3, 8, &mut rng), 0, "zero footprint guard");
    }

    #[test]
    fn partial_final_line_is_respected() {
        // 1000 words = 125 lines exactly; 1001 words adds a 1-word line on
        // rank 125 % 8 == 5. Words of that line must stay below 1001.
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..2000 {
            let w = sample_word_on_rank(1001, 5, 8, &mut rng);
            assert!(w < 1001);
            assert_eq!(rank_of(w, 8), 5);
        }
    }
}
