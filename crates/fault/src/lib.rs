//! Deterministic, seed-driven filesystem fault injection.
//!
//! Field studies of DRAM failure prediction are unanimous that prediction
//! systems earn their keep only when they survive messy production
//! environments — disks fill, permissions flip, writes tear mid-rename.
//! This crate lets the workspace apply that discipline to itself: every
//! filesystem touch of the artifact store goes through the narrow
//! [`StoreFs`] trait, with two backends:
//!
//! * [`RealFs`] — a transparent pass-through to `std::fs` (the production
//!   backend; zero behavioural difference from calling `std::fs` directly).
//! * [`FaultyFs`] — wraps any backend and injects partial writes, torn
//!   renames, `ENOSPC`, `EACCES` and read garbling from a **SplitMix64
//!   schedule** ([`FaultRng`], the same seeding discipline as the
//!   simulator's `SimRng`): the n-th filesystem operation draws from the
//!   stream derived from `(plan seed, n)`, so a failure sequence is
//!   replayable from its seed alone. Under concurrency the *sequence* of
//!   draws is fixed; which thread's operation consumes which draw depends
//!   on interleaving — the store's no-corruption invariant is asserted
//!   under every interleaving, not per-draw.
//!
//! The injected error kinds are classified by [`is_transient`]:
//! transient faults ([`io::ErrorKind::Interrupted`], `TimedOut`,
//! `WouldBlock`) model contention and are worth a bounded retry;
//! persistent faults (`StorageFull`, `PermissionDenied`, …) model a sick
//! disk tier and should trigger graceful degradation instead. The store's
//! retry/degradation state machine (ARCHITECTURE.md §12) is built on this
//! split.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unreachable_pub, unnameable_types)]

use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

/// SplitMix64 — the same 64-bit-state generator the simulator's `SimRng`
/// uses, reimplemented here so the fault layer stays dependency-free. One
/// multiply-xorshift round per draw; any seed (including 0) is fine.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// A generator seeded directly with `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)` (53 mantissa bits).
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw in `[0, n)` (`0` when `n == 0`).
    pub fn next_below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        // Multiply-shift reduction: fine for schedules (not cryptography).
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Domain-separated seed mixing (the `mix_seed` discipline of the
/// simulator): statistically independent streams from structured inputs.
pub fn mix64(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether an I/O error kind models a *transient* condition worth a
/// bounded retry (contention, interruption) rather than a sick disk tier
/// (full, unwritable, vanished) that should trigger degradation.
pub fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// One directory entry as reported by [`StoreFs::read_dir`].
#[derive(Debug, Clone)]
pub struct DirEntryInfo {
    /// File name (last path component), lossily decoded.
    pub name: String,
    /// Whether the entry is a regular file.
    pub is_file: bool,
    /// Whether the entry is a directory.
    pub is_dir: bool,
    /// File size in bytes (0 when unknown).
    pub len: u64,
}

/// The narrow filesystem surface the artifact store is written against.
///
/// Every method mirrors its `std::fs` namesake; [`RealFs`] forwards
/// directly, [`FaultyFs`] interposes a deterministic fault schedule. The
/// store performs **all** disk access through this trait, so a single
/// backend swap subjects every store code path — reads, atomic
/// publication, listing, gc — to injected faults.
pub trait StoreFs: Send + Sync + fmt::Debug {
    /// Reads the entire file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Writes `data` to `path`, creating or truncating it.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Renames `from` to `to` (atomic within a directory on real systems).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Removes the directory at `path` (must be empty).
    fn remove_dir(&self, path: &Path) -> io::Result<()>;
    /// Creates `path` and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Lists the entries of the directory at `path`, sorted by name, so a
    /// scan visits them (and draws from a fault schedule) in the same
    /// order on every run and filesystem.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<DirEntryInfo>>;
    /// Last-modification time of `path`.
    fn modified(&self, path: &Path) -> io::Result<SystemTime>;
    /// Last-access time of `path` (falls back to the modification time on
    /// filesystems that do not track atime).
    fn accessed(&self, path: &Path) -> io::Result<SystemTime>;
    /// Snapshot of the faults this backend has injected so far (all zero
    /// for real backends).
    fn fault_counters(&self) -> FaultCounters {
        FaultCounters::default()
    }
}

/// The production backend: a transparent pass-through to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl StoreFs for RealFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        std::fs::write(path, data)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn remove_dir(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_dir(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<DirEntryInfo>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(path)? {
            let entry = entry?;
            let meta = entry.metadata();
            out.push(DirEntryInfo {
                name: entry.file_name().to_string_lossy().into_owned(),
                is_file: meta.as_ref().map(|m| m.is_file()).unwrap_or(false),
                is_dir: meta.as_ref().map(|m| m.is_dir()).unwrap_or(false),
                len: meta.map(|m| m.len()).unwrap_or(0),
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    fn modified(&self, path: &Path) -> io::Result<SystemTime> {
        std::fs::metadata(path)?.modified()
    }

    fn accessed(&self, path: &Path) -> io::Result<SystemTime> {
        let meta = std::fs::metadata(path)?;
        meta.accessed().or_else(|_| meta.modified())
    }
}

/// Per-class counts of injected faults ([`FaultyFs`] exposes a snapshot
/// through [`StoreFs::fault_counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Reads rejected with an injected error.
    pub read_errors: u64,
    /// Reads that returned garbled bytes (truncated or bit-flipped).
    pub read_garbles: u64,
    /// Writes rejected with an injected error (a random prefix may have
    /// landed on disk first — a torn write that *reports* failure).
    pub write_errors: u64,
    /// Writes that silently persisted only a prefix yet reported success.
    pub torn_writes: u64,
    /// Renames rejected with an injected error (source left in place).
    pub rename_errors: u64,
    /// Renames torn mid-flight: a prefix of the source landed at the
    /// destination, the source is gone.
    pub torn_renames: u64,
    /// Directory/metadata operations rejected with an injected error.
    pub meta_errors: u64,
}

impl FaultCounters {
    /// Total injected faults across every class.
    pub fn total(&self) -> u64 {
        self.read_errors
            + self.read_garbles
            + self.write_errors
            + self.torn_writes
            + self.rename_errors
            + self.torn_renames
            + self.meta_errors
    }
}

/// The fault schedule: per-class injection probabilities plus the seed the
/// SplitMix64 stream derives from. Probabilities are evaluated per
/// operation in declaration order (an operation suffers at most one fault).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the schedule; the n-th operation draws from
    /// `FaultRng::seed_from_u64(mix64(seed, n))`.
    pub seed: u64,
    /// P(read returns an injected error).
    pub read_error: f64,
    /// P(read returns garbled bytes) — truncation or a single bit flip.
    pub read_garble: f64,
    /// P(write fails; a random prefix may have landed first).
    pub write_error: f64,
    /// P(write silently persists only a prefix but reports success).
    pub write_torn: f64,
    /// P(rename fails with the source left in place).
    pub rename_error: f64,
    /// P(rename tears: prefix at the destination, source consumed).
    pub rename_torn: f64,
    /// P(create_dir_all / read_dir / remove / stat fails).
    pub meta_error: f64,
    /// Share of injected *errors* reported with a transient kind
    /// ([`io::ErrorKind::Interrupted`] / `TimedOut`) instead of a
    /// persistent one (`StorageFull` / `PermissionDenied`).
    pub transient_share: f64,
}

impl FaultPlan {
    /// Every fault class at probability `rate`, half of injected errors
    /// transient — the standard torture-test mix.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            read_error: rate,
            read_garble: rate,
            write_error: rate,
            write_torn: rate,
            rename_error: rate,
            rename_torn: rate,
            meta_error: rate,
            transient_share: 0.5,
        }
    }

    /// A full persistent outage: every operation fails with a
    /// non-transient error (`EACCES`/`ENOSPC`), nothing tears or garbles —
    /// the disk tier is simply gone. Exercises pure degradation.
    pub fn outage(seed: u64) -> Self {
        Self {
            seed,
            read_error: 1.0,
            read_garble: 0.0,
            write_error: 1.0,
            write_torn: 0.0,
            rename_error: 1.0,
            rename_torn: 0.0,
            meta_error: 1.0,
            transient_share: 0.0,
        }
    }

    /// Only transient faults at probability `rate`: every injected error
    /// clears on retry eventually — exercises the bounded-retry path
    /// without ever degrading the tier permanently.
    pub fn transient_only(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            read_error: rate,
            read_garble: 0.0,
            write_error: rate,
            write_torn: 0.0,
            rename_error: rate,
            rename_torn: 0.0,
            meta_error: rate,
            transient_share: 1.0,
        }
    }
}

/// What the schedule decided for one operation.
enum Fault {
    None,
    /// Reject with this error.
    Error(io::ErrorKind),
    /// Mangle the payload at `frac`. For writes/renames this tears (keep a
    /// prefix; `silent` decides whether the op still reports success); for
    /// reads it garbles (`silent` selects bit-flip vs truncation).
    Torn { frac: f64, silent: bool },
}

/// A [`StoreFs`] backend that injects deterministic faults in front of an
/// inner backend (see the crate docs for the schedule semantics).
pub struct FaultyFs {
    inner: Box<dyn StoreFs>,
    plan: FaultPlan,
    ops: AtomicU64,
    read_errors: AtomicU64,
    read_garbles: AtomicU64,
    write_errors: AtomicU64,
    torn_writes: AtomicU64,
    rename_errors: AtomicU64,
    torn_renames: AtomicU64,
    meta_errors: AtomicU64,
}

impl fmt::Debug for FaultyFs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyFs")
            .field("plan", &self.plan)
            .field("ops", &self.ops.load(Ordering::Relaxed))
            .field("injected", &self.fault_counters())
            .finish()
    }
}

impl FaultyFs {
    /// Wraps `inner` with the fault schedule `plan`.
    pub fn new(inner: impl StoreFs + 'static, plan: FaultPlan) -> Self {
        Self {
            inner: Box::new(inner),
            plan,
            ops: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
            read_garbles: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            torn_writes: AtomicU64::new(0),
            rename_errors: AtomicU64::new(0),
            torn_renames: AtomicU64::new(0),
            meta_errors: AtomicU64::new(0),
        }
    }

    /// The per-operation schedule draw: operation `n` gets its own derived
    /// stream, so the decision sequence is a pure function of the plan
    /// seed and the op index.
    fn draw(&self, p_error: f64, p_mangle: f64) -> Fault {
        let n = self.ops.fetch_add(1, Ordering::SeqCst);
        if p_error <= 0.0 && p_mangle <= 0.0 {
            return Fault::None;
        }
        let mut rng = FaultRng::seed_from_u64(mix64(self.plan.seed, n));
        let u = rng.next_f64();
        if u < p_error {
            let kind = if rng.next_f64() < self.plan.transient_share {
                if rng.next_u64() & 1 == 0 {
                    io::ErrorKind::Interrupted
                } else {
                    io::ErrorKind::TimedOut
                }
            } else if rng.next_u64() & 1 == 0 {
                io::ErrorKind::StorageFull
            } else {
                io::ErrorKind::PermissionDenied
            };
            return Fault::Error(kind);
        }
        if u < p_error + p_mangle {
            let frac = rng.next_f64();
            let bit = rng.next_u64() & 1 == 0;
            return Fault::Torn { frac, silent: bit };
        }
        Fault::None
    }

    fn injected_error(kind: io::ErrorKind, what: &str) -> io::Error {
        io::Error::new(kind, format!("injected fault: {what}"))
    }

    /// Keeps `frac` of `data`, guaranteed strictly shorter than the whole
    /// (a torn write that kept everything would not be torn).
    fn prefix(data: &[u8], frac: f64) -> &[u8] {
        if data.is_empty() {
            return data;
        }
        let keep = ((data.len() as f64 * frac) as usize).min(data.len() - 1);
        &data[..keep]
    }
}

impl StoreFs for FaultyFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.draw(self.plan.read_error, self.plan.read_garble) {
            Fault::Error(kind) => {
                self.read_errors.fetch_add(1, Ordering::Relaxed);
                Err(Self::injected_error(kind, "read"))
            }
            Fault::Torn { frac, silent: flip } => {
                // Garble whatever the inner read produced; a miss stays a
                // miss (there is nothing to garble).
                let mut bytes = self.inner.read(path)?;
                self.read_garbles.fetch_add(1, Ordering::Relaxed);
                if flip && !bytes.is_empty() {
                    let idx = ((bytes.len() as f64) * frac) as usize % bytes.len();
                    bytes[idx] ^= 0x20;
                } else {
                    bytes.truncate(Self::prefix(&bytes, frac).len());
                }
                Ok(bytes)
            }
            _ => self.inner.read(path),
        }
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.draw(self.plan.write_error, self.plan.write_torn) {
            Fault::Error(kind) => {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                // Half of injected write errors still tear a prefix onto
                // disk first — a failed write is not a clean no-op.
                if kind == io::ErrorKind::StorageFull {
                    let _ = self.inner.write(path, Self::prefix(data, 0.5));
                }
                Err(Self::injected_error(kind, "write"))
            }
            Fault::Torn { frac, silent } => {
                self.torn_writes.fetch_add(1, Ordering::Relaxed);
                self.inner.write(path, Self::prefix(data, frac))?;
                if silent {
                    Ok(())
                } else {
                    Err(Self::injected_error(io::ErrorKind::StorageFull, "torn write"))
                }
            }
            _ => self.inner.write(path, data),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.draw(self.plan.rename_error, self.plan.rename_torn) {
            Fault::Error(kind) => {
                self.rename_errors.fetch_add(1, Ordering::Relaxed);
                Err(Self::injected_error(kind, "rename"))
            }
            Fault::Torn { frac, silent } => {
                // A torn rename on a non-atomic filesystem: a prefix of the
                // source lands at the destination and the source is gone —
                // the worst crash shape the store must survive.
                self.torn_renames.fetch_add(1, Ordering::Relaxed);
                if let Ok(bytes) = self.inner.read(from) {
                    let _ = self.inner.write(to, Self::prefix(&bytes, frac));
                }
                let _ = self.inner.remove_file(from);
                if silent {
                    Ok(())
                } else {
                    Err(Self::injected_error(io::ErrorKind::StorageFull, "torn rename"))
                }
            }
            _ => self.inner.rename(from, to),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.draw(self.plan.meta_error, 0.0) {
            Fault::Error(kind) => {
                self.meta_errors.fetch_add(1, Ordering::Relaxed);
                Err(Self::injected_error(kind, "remove_file"))
            }
            _ => self.inner.remove_file(path),
        }
    }

    fn remove_dir(&self, path: &Path) -> io::Result<()> {
        match self.draw(self.plan.meta_error, 0.0) {
            Fault::Error(kind) => {
                self.meta_errors.fetch_add(1, Ordering::Relaxed);
                Err(Self::injected_error(kind, "remove_dir"))
            }
            _ => self.inner.remove_dir(path),
        }
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        match self.draw(self.plan.meta_error, 0.0) {
            Fault::Error(kind) => {
                self.meta_errors.fetch_add(1, Ordering::Relaxed);
                Err(Self::injected_error(kind, "create_dir_all"))
            }
            _ => self.inner.create_dir_all(path),
        }
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<DirEntryInfo>> {
        match self.draw(self.plan.meta_error, 0.0) {
            Fault::Error(kind) => {
                self.meta_errors.fetch_add(1, Ordering::Relaxed);
                Err(Self::injected_error(kind, "read_dir"))
            }
            _ => self.inner.read_dir(path),
        }
    }

    fn modified(&self, path: &Path) -> io::Result<SystemTime> {
        match self.draw(self.plan.meta_error, 0.0) {
            Fault::Error(kind) => {
                self.meta_errors.fetch_add(1, Ordering::Relaxed);
                Err(Self::injected_error(kind, "modified"))
            }
            _ => self.inner.modified(path),
        }
    }

    fn accessed(&self, path: &Path) -> io::Result<SystemTime> {
        match self.draw(self.plan.meta_error, 0.0) {
            Fault::Error(kind) => {
                self.meta_errors.fetch_add(1, Ordering::Relaxed);
                Err(Self::injected_error(kind, "accessed"))
            }
            _ => self.inner.accessed(path),
        }
    }

    fn fault_counters(&self) -> FaultCounters {
        FaultCounters {
            read_errors: self.read_errors.load(Ordering::Relaxed),
            read_garbles: self.read_garbles.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            torn_writes: self.torn_writes.load(Ordering::Relaxed),
            rename_errors: self.rename_errors.load(Ordering::Relaxed),
            torn_renames: self.torn_renames.load(Ordering::Relaxed),
            meta_errors: self.meta_errors.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wade-fault-unit-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// No faults at all (the identity schedule — [`FaultyFs`] behaves
    /// exactly like its inner backend).
    fn healthy(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            read_error: 0.0,
            read_garble: 0.0,
            write_error: 0.0,
            write_torn: 0.0,
            rename_error: 0.0,
            rename_torn: 0.0,
            meta_error: 0.0,
            transient_share: 0.0,
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_well_mixed() {
        let mut a = FaultRng::seed_from_u64(9);
        let mut b = FaultRng::seed_from_u64(9);
        let draws: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(draws, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        // Uniform draws stay in range and are not constant.
        let mut r = FaultRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..64).map(|_| r.next_f64()).collect();
        assert!(xs.iter().all(|x| (0.0..1.0).contains(x)));
        assert!(xs.iter().any(|&x| x < 0.4) && xs.iter().any(|&x| x > 0.6));
        assert!((0..100).all(|_| r.next_below(7) < 7));
        assert_eq!(FaultRng::seed_from_u64(0).next_below(0), 0);
    }

    #[test]
    fn healthy_plan_is_the_identity() {
        let dir = scratch("identity");
        let fs = FaultyFs::new(RealFs, healthy(1));
        let path = dir.join("x");
        fs.write(&path, b"payload").unwrap();
        assert_eq!(fs.read(&path).unwrap(), b"payload");
        let entries = fs.read_dir(&dir).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].is_file && entries[0].len == 7);
        assert_eq!(fs.fault_counters().total(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_schedule_is_replayable_from_its_seed() {
        // Two backends on the same plan must make identical decisions for
        // the same operation sequence: same errors, same torn lengths.
        let dir_a = scratch("replay-a");
        let dir_b = scratch("replay-b");
        let run = |dir: &Path| {
            let fs = FaultyFs::new(RealFs, FaultPlan::uniform(42, 0.3));
            let mut log = Vec::new();
            for i in 0..40 {
                let path = dir.join(format!("f{i}"));
                let data = vec![i as u8; 64];
                log.push(match fs.write(&path, &data) {
                    Ok(()) => format!("ok:{}", std::fs::read(&path).map(|b| b.len()).unwrap_or(0)),
                    Err(e) => format!("err:{:?}", e.kind()),
                });
            }
            (log, fs.fault_counters())
        };
        let (log_a, faults_a) = run(&dir_a);
        let (log_b, faults_b) = run(&dir_b);
        assert_eq!(log_a, log_b);
        assert_eq!(faults_a, faults_b);
        assert!(faults_a.total() > 0, "a 30% schedule over 40 ops must fire");
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn torn_writes_keep_a_strict_prefix() {
        let dir = scratch("torn");
        let plan = FaultPlan { write_torn: 1.0, ..healthy(3) };
        let fs = FaultyFs::new(RealFs, plan);
        for i in 0..20 {
            let path = dir.join(format!("t{i}"));
            let _ = fs.write(&path, b"0123456789");
            if let Ok(bytes) = std::fs::read(&path) {
                assert!(bytes.len() < 10, "torn write must lose at least one byte");
                assert_eq!(&bytes[..], &b"0123456789"[..bytes.len()], "prefix only");
            }
        }
        assert_eq!(fs.fault_counters().torn_writes, 20);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_renames_consume_the_source() {
        let dir = scratch("torn-rename");
        let plan = FaultPlan { rename_torn: 1.0, ..healthy(5) };
        let fs = FaultyFs::new(RealFs, plan);
        for i in 0..10 {
            let from = dir.join(format!("src{i}"));
            let to = dir.join(format!("dst{i}"));
            std::fs::write(&from, b"full entry content").unwrap();
            let _ = fs.rename(&from, &to);
            assert!(!from.exists(), "torn rename must consume the source");
            if let Ok(bytes) = std::fs::read(&to) {
                assert!(bytes.len() < 18, "destination holds at most a strict prefix");
            }
        }
        assert_eq!(fs.fault_counters().torn_renames, 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn outage_plan_fails_every_op_with_persistent_kinds() {
        let dir = scratch("outage");
        let fs = FaultyFs::new(RealFs, FaultPlan::outage(7));
        for i in 0..16 {
            let path = dir.join(format!("o{i}"));
            let err = fs.write(&path, b"x").unwrap_err();
            assert!(!is_transient(err.kind()), "outage errors must be persistent");
            assert!(fs.read(&path).is_err());
        }
        assert!(fs.read_dir(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_classification_matches_the_retry_contract() {
        assert!(is_transient(io::ErrorKind::Interrupted));
        assert!(is_transient(io::ErrorKind::TimedOut));
        assert!(is_transient(io::ErrorKind::WouldBlock));
        assert!(!is_transient(io::ErrorKind::StorageFull));
        assert!(!is_transient(io::ErrorKind::PermissionDenied));
        assert!(!is_transient(io::ErrorKind::NotFound));
    }

    #[test]
    fn transient_only_plan_always_clears_on_retry_kinds() {
        let dir = scratch("transient");
        let fs = FaultyFs::new(RealFs, FaultPlan::transient_only(11, 0.8));
        let mut injected = 0;
        for i in 0..50 {
            if let Err(e) = fs.write(&dir.join(format!("f{i}")), b"x") {
                assert!(is_transient(e.kind()), "got {:?}", e.kind());
                injected += 1;
            }
        }
        assert!(injected > 10, "an 80% schedule must fire often");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
