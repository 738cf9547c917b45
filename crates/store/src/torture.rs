//! Randomized fault-schedule torture harness for the artifact store.
//!
//! Drives a live [`ArtifactStore`] (backed by [`FaultyFs`] at a chosen
//! fault rate) with a seed-derived mix of puts, reads, gc passes and
//! listings, and checks the **no-corruption invariant** on every read:
//! an artifact is either fully readable with exactly the bytes some
//! writer published, or a miss — never a wrong value. Payloads are
//! self-describing (the key index and a version are embedded, and the
//! payload body is a pure function of both), so any garbled-but-parseable
//! read is detected without tracking writer history.
//!
//! The harness backs `bench store torture --seed N --ops M` and the
//! `tests/fault_injection.rs` chaos suite; CI pins a seed so a regression
//! in the store's integrity checking fails reproducibly.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::{ArtifactStore, FaultCounters, FaultPlan, FaultRng, FaultyFs, RealFs, mix64};

/// Artifact kind used by torture runs (isolated from real artifacts).
pub const TORTURE_KIND: &str = "torture";

/// Number of distinct keys the op mix cycles over — small enough that
/// reads regularly race writes on the same key.
pub const TORTURE_KEYS: u64 = 64;

/// Parameters of one torture run.
#[derive(Debug, Clone, Copy)]
pub struct TortureConfig {
    /// Seed of both the op mix and the fault schedule.
    pub seed: u64,
    /// Total operations across all threads.
    pub ops: u64,
    /// Worker threads (1 = fully deterministic op order).
    pub threads: usize,
    /// Per-class fault probability fed to [`FaultPlan::uniform`]
    /// (0.0 = healthy run).
    pub fault_rate: f64,
}

impl Default for TortureConfig {
    fn default() -> Self {
        Self { seed: 1, ops: 2000, threads: 1, fault_rate: 0.10 }
    }
}

/// Outcome of a torture run. `wrong_reads == 0` is the invariant; every
/// other field is observability.
#[derive(Debug, Clone, Default)]
pub struct TortureReport {
    /// Operations actually issued.
    pub ops: u64,
    /// Put attempts (successful or rejected).
    pub puts: u64,
    /// Puts rejected with a [`crate::StoreError`].
    pub put_errors: u64,
    /// Get attempts.
    pub gets: u64,
    /// Gets that returned a value.
    pub hits: u64,
    /// Gets that returned a miss.
    pub misses: u64,
    /// **Invariant violations**: a get returned a value that no writer
    /// ever published for that key.
    pub wrong_reads: u64,
    /// gc passes issued.
    pub gcs: u64,
    /// ls passes issued.
    pub lss: u64,
    /// Entries found corrupt (and thus read as misses) by the store.
    pub corrupt: u64,
    /// Transient-fault retries burned by the store.
    pub retries: u64,
    /// Operations that failed after retry handling.
    pub io_errors: u64,
    /// Operations skipped while the store was degraded.
    pub degraded_ops: u64,
    /// Whether the store ended the run degraded.
    pub degraded: bool,
    /// Faults the schedule injected, by class.
    pub faults: FaultCounters,
}

impl TortureReport {
    /// Whether the run upheld the no-corruption invariant.
    pub fn ok(&self) -> bool {
        self.wrong_reads == 0
    }
}

/// A self-describing torture payload: `blob` is a pure function of
/// `(key_index, version)`, so a reader can validate any value it gets
/// without knowing which writer won.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TorturePayload {
    /// Which key this payload was written under.
    pub key_index: u64,
    /// Writer-chosen version (any u64).
    pub version: u64,
    /// Deterministic body derived from the two fields above.
    pub blob: Vec<u64>,
}

impl TorturePayload {
    /// The unique valid payload for `(key_index, version)`.
    pub(crate) fn expected(key_index: u64, version: u64) -> Self {
        let mut rng = FaultRng::seed_from_u64(mix64(key_index ^ 0x70AD, version));
        let blob = (0..16).map(|_| rng.next_u64()).collect();
        Self { key_index, version, blob }
    }

    /// Whether this value is internally consistent and belongs to
    /// `expected_key` — the wrong-read predicate.
    pub(crate) fn is_valid_for(&self, expected_key: u64) -> bool {
        self.key_index == expected_key && *self == Self::expected(self.key_index, self.version)
    }
}

/// The canonical key string of torture key `i`.
pub(crate) fn torture_key(i: u64) -> String {
    format!("torture-key-{i:03}")
}

/// Runs the torture mix against a store rooted at `root` with faults
/// injected at `config.fault_rate`, then re-verifies every surviving
/// entry through a healthy store on the same root. Panics never; the
/// caller checks [`TortureReport::ok`].
pub fn run(root: &Path, config: &TortureConfig) -> TortureReport {
    let store = ArtifactStore::open_with_fs(
        root,
        FaultyFs::new(RealFs, FaultPlan::uniform(config.seed, config.fault_rate)),
    );
    let threads = config.threads.max(1);
    let per_thread = config.ops.div_ceil(threads as u64);

    let puts = AtomicU64::new(0);
    let put_errors = AtomicU64::new(0);
    let gets = AtomicU64::new(0);
    let hits = AtomicU64::new(0);
    let misses = AtomicU64::new(0);
    let wrong_reads = AtomicU64::new(0);
    let gcs = AtomicU64::new(0);
    let lss = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for t in 0..threads {
            let store = &store;
            let puts = &puts;
            let put_errors = &put_errors;
            let gets = &gets;
            let hits = &hits;
            let misses = &misses;
            let wrong_reads = &wrong_reads;
            let gcs = &gcs;
            let lss = &lss;
            scope.spawn(move || {
                let mut rng =
                    FaultRng::seed_from_u64(mix64(config.seed ^ 0xD1CE, t as u64));
                for _ in 0..per_thread {
                    let key_index = rng.next_below(TORTURE_KEYS);
                    let key = torture_key(key_index);
                    match rng.next_below(100) {
                        // 60% writers: publish a fresh version.
                        0..=59 => {
                            puts.fetch_add(1, Ordering::Relaxed);
                            let version = rng.next_below(1 << 16);
                            let value = TorturePayload::expected(key_index, version);
                            if store.put(TORTURE_KIND, &key, &value).is_err() {
                                put_errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        // 30% readers: every hit must be a published value.
                        60..=89 => {
                            gets.fetch_add(1, Ordering::Relaxed);
                            match store.get::<TorturePayload>(TORTURE_KIND, &key) {
                                Some(value) => {
                                    hits.fetch_add(1, Ordering::Relaxed);
                                    if !value.is_valid_for(key_index) {
                                        wrong_reads.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                None => {
                                    misses.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        // 5% janitors: gc, occasionally size-capped.
                        90..=94 => {
                            gcs.fetch_add(1, Ordering::Relaxed);
                            let cap = if rng.next_u64() & 1 == 0 {
                                None
                            } else {
                                Some(rng.next_below(1 << 16))
                            };
                            let _ = store.gc(cap);
                        }
                        // 5% auditors: ls must never panic mid-chaos.
                        _ => {
                            lss.fetch_add(1, Ordering::Relaxed);
                            let _ = store.ls();
                        }
                    }
                }
            });
        }
    });

    // Post-run audit through a *healthy* store on the same root: every
    // artifact the chaos run left behind is either fully readable with a
    // published value, or a miss. A wrong value here means the integrity
    // checks let silent corruption through.
    let healthy = ArtifactStore::open(root);
    for i in 0..TORTURE_KEYS {
        gets.fetch_add(1, Ordering::Relaxed);
        match healthy.get::<TorturePayload>(TORTURE_KIND, &torture_key(i)) {
            Some(value) => {
                hits.fetch_add(1, Ordering::Relaxed);
                if !value.is_valid_for(i) {
                    wrong_reads.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                misses.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    TortureReport {
        ops: per_thread * threads as u64,
        puts: puts.into_inner(),
        put_errors: put_errors.into_inner(),
        gets: gets.into_inner(),
        hits: hits.into_inner(),
        misses: misses.into_inner(),
        wrong_reads: wrong_reads.into_inner(),
        gcs: gcs.into_inner(),
        lss: lss.into_inner(),
        corrupt: store.corrupt() + healthy.corrupt(),
        retries: store.retries(),
        io_errors: store.io_errors(),
        degraded_ops: store.degraded_ops(),
        degraded: store.degraded(),
        faults: store.fault_counters(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("wade-torture-unit-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn healthy_run_has_no_faults_and_no_wrong_reads() {
        let dir = scratch("healthy");
        let report =
            run(&dir, &TortureConfig { seed: 5, ops: 400, threads: 1, fault_rate: 0.0 });
        assert!(report.ok());
        assert_eq!(report.faults.total(), 0);
        assert_eq!(report.put_errors, 0);
        assert!(report.hits > 0, "a healthy run over 64 keys must hit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_run_injects_faults_but_never_corrupts_a_read() {
        let dir = scratch("faulty");
        let report =
            run(&dir, &TortureConfig { seed: 9, ops: 600, threads: 1, fault_rate: 0.15 });
        assert!(report.ok(), "wrong reads under faults: {report:?}");
        assert!(report.faults.total() > 0, "a 15% schedule over 600 ops must fire");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_validation_rejects_mismatches() {
        let good = TorturePayload::expected(3, 77);
        assert!(good.is_valid_for(3));
        assert!(!good.is_valid_for(4), "key mismatch must be a wrong read");
        let mut bad = TorturePayload::expected(3, 77);
        bad.blob[0] ^= 1;
        assert!(!bad.is_valid_for(3), "garbled blob must be a wrong read");
    }
}
