//! Disk-backed, fingerprint-keyed artifact store — the durable tier behind
//! every caching layer in the workspace.
//!
//! Field-deployment studies of DRAM failure prediction treat extracted
//! feature sets and trained models as persistent, versioned artifacts
//! shared across runs; this crate is that store for WADE. Profiles,
//! campaign data, fold and serving models and fleet transfer models are
//! views over one [`ArtifactStore`], each read through
//! [`ArtifactStore::get_or_put`], so repeated invocations, CI and figure
//! binaries pay ~0 for work another process already did. Each view hands
//! that call a fit check too: a model must accept its dataset's row width,
//! a fleet slice must match the devices still alive. The contract
//! (normative; ARCHITECTURE.md §11 documents the layout, §12 the failure
//! semantics):
//!
//! * **Content is pure.** Every artifact is a pure function of its key; a
//!   warm read is *byte-identical* to recomputing (payloads store every
//!   `f64` by its bit pattern, see below), so the store is invisible to
//!   every consumer, including seeded golden tests.
//! * **Keys carry the determinism fingerprint.** Anything that would
//!   re-manufacture the artifact — seeds, grids, scales, SoC/device
//!   fingerprints, trainer configs — is folded into the canonical key
//!   string. A key mismatch is a miss, never a wrong answer.
//! * **Corruption is a miss.** Entries embed a schema version, the full
//!   key, the key fingerprint, and the payload's length and hash; a
//!   truncated, garbled or foreign-version file fails the checks, counts as
//!   [`ArtifactStore::corrupt`], and is atomically rewritten by the next
//!   [`ArtifactStore::put`].
//! * **A misfit is a miss.** An entry that decodes but fails its reader's
//!   fit check counts as [`ArtifactStore::unfit`] and is recomputed and
//!   rewritten by [`ArtifactStore::get_or_put`], like a corrupt one.
//! * **Writes are atomic.** Payloads land in a temp file in the target
//!   directory and are renamed into place, so a crashed or concurrent
//!   writer can never publish a half-written entry.
//! * **Failure degrades, never aborts.** All disk access goes through the
//!   [`StoreFs`] seam. Transient faults get [`MAX_ATTEMPTS`] tries with
//!   deterministic backoff; persistent faults trip the store into a
//!   *degraded* mode where every consumer silently falls back to its
//!   in-memory path (a periodic probe rejoins the disk tier once it
//!   heals). Because the store is pure, results under any fault schedule
//!   are byte-identical to the healthy path — `tests/fault_injection.rs`
//!   asserts this end to end.
//!
//! # Entry format
//!
//! One artifact per file, `<root>/<kind>/<fingerprint as hex>.json`:
//!
//! ```text
//! {"schema":2,"kind":"profile","key":"…","fingerprint":…,"payload_len":…,"payload_hash":…}
//! <payload JSON, exactly payload_len bytes>
//! ```
//!
//! The header is the first line; the payload is everything after the first
//! newline. `payload_len` makes truncation detectable without parsing,
//! `payload_hash` (FxHash64) catches in-place garbling, and the embedded
//! `key` string guards against fingerprint collisions mapping two keys to
//! one file (the colliding entry reads as a miss and is overwritten).
//!
//! The header is decimal JSON. The payload is written by
//! `serde_json::to_string_exact` and read by `serde_json::from_str_exact`:
//! each `f64` is a string of the 16 hex digits of its bit pattern, and each
//! non-empty float-only sequence (a feature row, a weight vector, a
//! threshold array) is one string of such groups back to back, e.g.
//! `[1.0, -0.0]` is `"3ff00000000000008000000000000000"`. Every bit
//! pattern round-trips, ±inf and NaN payloads included, and a float array
//! decodes as one token. Integers, strings and keys stay decimal JSON
//! text. A payload the exact reader rejects (bad digit, ragged group, a
//! float token where another type belongs) is [`CorruptReason::Payload`].
//! Schema 1 entries (decimal floats, non-finite values as `null`) fail the
//! version check, so they read as misses, are rewritten by the next
//! [`ArtifactStore::put`] and are removed by [`ArtifactStore::gc`].

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unreachable_pub, unnameable_types)]

pub mod torture;

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

use serde::{Deserialize, Serialize};

pub use wade_fault::{mix64, FaultPlan, FaultRng, FaultyFs, RealFs};
use wade_fault::{is_transient, FaultCounters, StoreFs};

/// On-disk schema version. Bump when the entry format changes; entries with
/// any other version read as misses (and `gc` removes them).
pub const SCHEMA_VERSION: u32 = 2;

/// Environment variable overriding the default store directory.
pub const STORE_DIR_ENV: &str = "WADE_STORE_DIR";

/// Attempts per filesystem operation: the first try plus bounded retries
/// of *transient* faults (`EINTR`/timeout/would-block — see
/// [`is_transient`]). Persistent faults (`ENOSPC`, `EACCES`, …) fail
/// immediately; retrying a full disk is noise.
pub const MAX_ATTEMPTS: u32 = 3;

/// Base backoff between retry attempts, doubled per attempt
/// (250 µs, 500 µs). Deterministic — no jitter — so fault-schedule replays
/// issue the same operation sequence every run.
pub const RETRY_BACKOFF: Duration = Duration::from_micros(250);

/// Consecutive hard operation failures (retries exhausted or persistent
/// kind) after which the store trips into degraded mode and consumers fall
/// back to their in-memory paths.
pub const DEGRADE_AFTER: u64 = 4;

/// While degraded, every `PROBE_EVERY`-th operation is allowed through to
/// the disk tier as a health probe; one success rejoins the tier.
pub const PROBE_EVERY: u64 = 32;

/// The default store directory when neither `--store-dir` nor
/// [`STORE_DIR_ENV`] is given: `<CARGO_TARGET_DIR|target>/wade-store`.
pub(crate) fn default_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(target).join("wade-store")
}

/// Resolves the store directory with the standard precedence:
/// explicit argument (e.g. `--store-dir`) > [`STORE_DIR_ENV`] >
/// `default_dir()`.
pub fn resolve_dir(explicit: Option<&str>) -> PathBuf {
    if let Some(dir) = explicit {
        return PathBuf::from(dir);
    }
    match std::env::var(STORE_DIR_ENV) {
        Ok(dir) if !dir.trim().is_empty() => PathBuf::from(dir),
        _ => default_dir(),
    }
}

/// Order-stable 64-bit fingerprint of a canonical key string (FxHash64).
pub fn fingerprint64(key: &str) -> u64 {
    use std::hash::Hasher as _;
    let mut hasher = rustc_hash::FxHasher::default();
    hasher.write(key.as_bytes());
    hasher.finish()
}

/// Why an entry that physically exists failed to read as a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptReason {
    /// Header, schema version, payload length or payload hash failed — the
    /// file is truncated, garbled or from a foreign schema.
    Integrity,
    /// The entry passed every integrity check but its payload no longer
    /// deserializes into the requested type.
    Payload,
}

/// Structured failure taxonomy of the store (replaces panic-on-error
/// throughout the caching layers; ARCHITECTURE.md §12 is normative).
///
/// Consumers treating the store as a best-effort cache may discard these —
/// every error leaves the store in a state where recomputing is correct —
/// but the taxonomy keeps the *reason* observable for operators.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// A filesystem operation failed after retry handling. `retries` is
    /// how many re-attempts were burned before giving up (0 for persistent
    /// kinds, which fail fast).
    Io {
        /// Which operation failed (`"read"`, `"write"`, `"rename"`, …).
        op: &'static str,
        /// The path the operation targeted.
        path: PathBuf,
        /// The final error kind.
        kind: io::ErrorKind,
        /// Retry attempts consumed before giving up.
        retries: u32,
    },
    /// The value (or entry header) failed to serialize — nothing touched
    /// the disk.
    Encode {
        /// Serializer error text.
        what: String,
    },
    /// An entry exists on disk but failed verification; the read counts as
    /// a miss and the next put heals the file.
    Corrupt {
        /// Artifact kind of the entry.
        kind: String,
        /// Path of the offending file.
        path: PathBuf,
        /// Which check failed.
        reason: CorruptReason,
    },
    /// The store is in degraded mode (the disk tier failed
    /// [`DEGRADE_AFTER`] consecutive operations) and skipped the disk;
    /// the caller should use its in-memory path.
    Degraded {
        /// Which operation was skipped.
        op: &'static str,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { op, path, kind, retries } => {
                write!(f, "store {op} failed on {} ({kind:?}, {retries} retries)", path.display())
            }
            Self::Encode { what } => write!(f, "store encode failed: {what}"),
            Self::Corrupt { kind, path, reason } => {
                write!(f, "corrupt {kind} entry at {} ({reason:?})", path.display())
            }
            Self::Degraded { op } => write!(f, "store degraded: skipped {op}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Metadata of one store entry, as listed by [`ArtifactStore::ls`].
#[derive(Debug, Clone)]
pub struct ArtifactMeta {
    /// Artifact kind (the subdirectory).
    pub kind: String,
    /// Canonical key string, when the header parsed (`None` for corrupt
    /// entries).
    pub key: Option<String>,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Whether the entry passes every integrity check (schema version,
    /// fingerprint, payload length and hash).
    pub ok: bool,
    /// Last access time, captured *before* the verification read (the
    /// read itself bumps atime, which would erase the LRU ordering
    /// [`ArtifactStore::gc`] evicts by). `None` when unreadable.
    pub accessed: Option<SystemTime>,
    /// Full path of the entry.
    pub path: PathBuf,
}

/// Summary of an [`ArtifactStore::gc`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries that passed verification and were kept.
    pub kept: usize,
    /// Corrupt/foreign-version/stray entries removed.
    pub removed: usize,
    /// Valid entries evicted by the LRU size cap (oldest access first).
    pub evicted: usize,
    /// Bytes of valid entries remaining after the pass.
    pub bytes_kept: u64,
}

/// A content-addressed, versioned, disk-backed artifact store (see the
/// module docs for the entry format and the determinism contract).
///
/// All operations are `&self` and thread-safe: reads race benignly with the
/// atomic rename of writes (a reader sees either the old complete entry or
/// the new complete entry, never a torn one).
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
    fs: Box<dyn StoreFs>,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    unfit: AtomicU64,
    writes: AtomicU64,
    retries: AtomicU64,
    io_errors: AtomicU64,
    degraded_ops: AtomicU64,
    consecutive_failures: AtomicU64,
    degraded: AtomicBool,
    probe_tick: AtomicU64,
}

impl ArtifactStore {
    /// Opens (without touching the filesystem) a store rooted at `root`,
    /// backed by the real filesystem. Directories are created lazily on
    /// the first write.
    pub fn open(root: impl Into<PathBuf>) -> Self {
        Self::open_with_fs(root, RealFs)
    }

    /// [`ArtifactStore::open`] with an explicit [`StoreFs`] backend —
    /// the fault-injection seam ([`FaultyFs`] here subjects *every* store
    /// code path to a deterministic fault schedule).
    pub fn open_with_fs(root: impl Into<PathBuf>, fs: impl StoreFs + 'static) -> Self {
        Self {
            root: root.into(),
            fs: Box::new(fs),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            unfit: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            degraded_ops: AtomicU64::new(0),
            consecutive_failures: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            probe_tick: AtomicU64::new(0),
        }
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Reads the artifact stored under `(kind, key)`, verifying schema
    /// version, key fingerprint, payload length and payload hash. Any
    /// failure — missing file, truncation, garbling, foreign version, a
    /// fingerprint-colliding foreign key, a payload that no longer
    /// deserializes, or an I/O error that survives the retry budget — is a
    /// miss (corruption additionally increments
    /// [`ArtifactStore::corrupt`]). The structured reason is available via
    /// [`ArtifactStore::try_get`].
    pub fn get<T: Deserialize>(&self, kind: &str, key: &str) -> Option<T> {
        self.try_get(kind, key).unwrap_or(None)
    }

    /// [`ArtifactStore::get`] with the failure reason kept: `Ok(None)` is
    /// a plain miss (absent entry or benign fingerprint collision),
    /// `Err(_)` carries the [`StoreError`] taxonomy. Every error path
    /// still maintains the hit/miss/corrupt counters, so `get` is exactly
    /// `try_get(..).unwrap_or(None)`.
    pub fn try_get<T: Deserialize>(&self, kind: &str, key: &str) -> Result<Option<T>, StoreError> {
        let value = self.read(kind, key)?;
        if value.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(value)
    }

    /// [`ArtifactStore::try_get`] without counting a hit, so
    /// [`ArtifactStore::get_or_put`] can still refuse what decoded.
    fn read<T: Deserialize>(&self, kind: &str, key: &str) -> Result<Option<T>, StoreError> {
        let path = self.entry_path(kind, key);
        if !self.disk_allowed() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Err(StoreError::Degraded { op: "get" });
        }
        let bytes = match self.with_retry("read", &path, || self.fs.read(&path)) {
            Ok(b) => b,
            Err(e) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if matches!(e, StoreError::Io { kind: io::ErrorKind::NotFound, .. }) {
                    return Ok(None);
                }
                return Err(e);
            }
        };
        match verify_entry(&bytes, kind, key) {
            Ok(payload) => match serde_json::from_str_exact::<T>(payload) {
                Ok(value) => Ok(Some(value)),
                Err(_) => Err(self.miss_corrupt(kind, path, CorruptReason::Payload)),
            },
            // A fingerprint collision with a *valid* foreign entry is a
            // plain miss, not corruption.
            Err(EntryError::ForeignKey) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Ok(None)
            }
            Err(_) => Err(self.miss_corrupt(kind, path, CorruptReason::Integrity)),
        }
    }

    fn miss_corrupt(&self, kind: &str, path: PathBuf, reason: CorruptReason) -> StoreError {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        StoreError::Corrupt { kind: kind.to_string(), path, reason }
    }

    /// Serializes `value` and atomically publishes it under `(kind, key)`,
    /// replacing any previous (or corrupt) entry.
    ///
    /// # Errors
    /// Returns the [`StoreError`] if serialization, the directory, the
    /// temp file or the rename fails after retry handling, or when the
    /// store is degraded and skipped the disk. Callers treating the store
    /// as a best-effort cache may ignore it — the next read recomputes.
    pub fn put<T: Serialize>(&self, kind: &str, key: &str, value: &T) -> Result<PathBuf, StoreError> {
        let payload = serde_json::to_string_exact(value)
            .map_err(|e| StoreError::Encode { what: e.to_string() })?;
        let entry = encode_entry(kind, key, &payload)?;
        if !self.disk_allowed() {
            return Err(StoreError::Degraded { op: "put" });
        }
        let path = self.entry_path(kind, key);
        let Some(dir) = path.parent() else {
            return Err(StoreError::Encode { what: format!("no parent for {}", path.display()) });
        };
        self.with_retry("create_dir_all", dir, || self.fs.create_dir_all(dir))?;
        // Atomic publish: temp file in the same directory, then rename.
        // The nonce is drawn with fetch_add so concurrent same-key puts
        // (deterministically identical content, e.g. racing profile-cache
        // misses) can never share a temp path and truncate each other
        // mid-rename.
        static TMP_NONCE: AtomicU64 = AtomicU64::new(0);
        let tmp = dir.join(format!(
            ".tmp-{:016x}-{}-{}",
            fingerprint64(key),
            std::process::id(),
            TMP_NONCE.fetch_add(1, Ordering::Relaxed),
        ));
        if let Err(e) = self.with_retry("write", &tmp, || self.fs.write(&tmp, entry.as_bytes())) {
            let _ = self.fs.remove_file(&tmp);
            return Err(e);
        }
        if let Err(e) = self.with_retry("rename", &tmp, || self.fs.rename(&tmp, &path)) {
            let _ = self.fs.remove_file(&tmp);
            return Err(e);
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(path)
    }

    /// The read-through path every store-backed cache takes: one verified
    /// read, then `fits` on what decoded. On a miss — absent, corrupt, or
    /// decoded but refused by `fits` (counted as [`ArtifactStore::unfit`])
    /// — the artifact is produced by `make`, published over the old entry
    /// (best effort — an unwritable or degraded store falls back to
    /// compute-every-time, never to failure) and returned. The flag is
    /// `true` when the value was read from the store.
    pub fn get_or_put<T: Serialize + Deserialize>(
        &self,
        kind: &str,
        key: &str,
        fits: impl FnOnce(&T) -> bool,
        make: impl FnOnce() -> T,
    ) -> (T, bool) {
        if let Ok(Some(value)) = self.read(kind, key) {
            if fits(&value) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (value, true);
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.unfit.fetch_add(1, Ordering::Relaxed);
        }
        let value = make();
        let _ = self.put(kind, key, &value);
        (value, false)
    }

    /// Runs `f` with the retry/degradation state machine: transient faults
    /// ([`is_transient`]) get up to [`MAX_ATTEMPTS`] tries with
    /// deterministic doubling backoff; persistent faults fail fast. A hard
    /// failure feeds the consecutive-failure count that trips degraded
    /// mode; any success clears it. `NotFound` is exempt on both sides —
    /// an absent file is the disk tier *working*, not failing.
    fn with_retry<R>(
        &self,
        op: &'static str,
        path: &Path,
        mut f: impl FnMut() -> io::Result<R>,
    ) -> Result<R, StoreError> {
        let mut attempt = 0u32;
        loop {
            match f() {
                Ok(value) => {
                    self.note_ok();
                    return Ok(value);
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    self.note_ok();
                    return Err(StoreError::Io {
                        op,
                        path: path.to_path_buf(),
                        kind: io::ErrorKind::NotFound,
                        retries: attempt,
                    });
                }
                Err(e) if is_transient(e.kind()) && attempt + 1 < MAX_ATTEMPTS => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(RETRY_BACKOFF * (1 << attempt));
                    attempt += 1;
                }
                Err(e) => {
                    self.io_errors.fetch_add(1, Ordering::Relaxed);
                    self.note_failure();
                    return Err(StoreError::Io {
                        op,
                        path: path.to_path_buf(),
                        kind: e.kind(),
                        retries: attempt,
                    });
                }
            }
        }
    }

    /// Degradation gate: healthy stores always pass; a degraded store lets
    /// every [`PROBE_EVERY`]-th operation through as a health probe and
    /// short-circuits the rest (counted in
    /// [`ArtifactStore::degraded_ops`]).
    fn disk_allowed(&self) -> bool {
        if !self.degraded.load(Ordering::Relaxed) {
            return true;
        }
        let tick = self.probe_tick.fetch_add(1, Ordering::Relaxed);
        if (tick + 1).is_multiple_of(PROBE_EVERY) {
            return true;
        }
        self.degraded_ops.fetch_add(1, Ordering::Relaxed);
        false
    }

    fn note_ok(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        self.degraded.store(false, Ordering::Relaxed);
    }

    fn note_failure(&self) {
        let n = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= DEGRADE_AFTER {
            self.degraded.store(true, Ordering::Relaxed);
        }
    }

    /// Lists every entry in the store (including corrupt ones, flagged
    /// `ok: false`), sorted by (kind, path) for stable output.
    pub fn ls(&self) -> Vec<ArtifactMeta> {
        let mut out = Vec::new();
        let Ok(kinds) = self.fs.read_dir(&self.root) else {
            return out;
        };
        for kind_entry in kinds {
            if kind_entry.is_dir {
                self.scan_kind(&kind_entry.name, &mut out);
            }
        }
        out.sort_by(|a, b| (a.kind.as_str(), &a.path).cmp(&(b.kind.as_str(), &b.path)));
        out
    }

    /// Appends the metadata of every store file of `kind` to `out`,
    /// unsorted — the one entry scan behind [`ArtifactStore::ls`] and
    /// [`ArtifactStore::keys_with_prefix`].
    fn scan_kind(&self, kind: &str, out: &mut Vec<ArtifactMeta>) {
        let kind_path = self.root.join(kind);
        let Ok(entries) = self.fs.read_dir(&kind_path) else {
            return;
        };
        for entry in entries {
            // Only files the store itself would have produced: a
            // mispointed root must never get foreign files listed —
            // or, through gc()/clear(), deleted.
            if !entry.is_file || !is_store_file_name(&entry.name) {
                continue;
            }
            let path = kind_path.join(&entry.name);
            let accessed = self.fs.accessed(&path).ok();
            // Temp files are never valid entries, even when their
            // content is self-consistent (a crash-orphaned temp was
            // fully written but never renamed — `get` can't serve it,
            // so `ok: true` would leak it past `gc` forever).
            let (key, ok) = if entry.name.starts_with(".tmp-") {
                (None, false)
            } else {
                match self.fs.read(&path) {
                    Ok(bytes) => match inspect_entry(&bytes, kind) {
                        Ok(key) => (Some(key), true),
                        Err(EntryError::Header(header)) => (header.map(|h| h.key), false),
                        Err(_) => (None, false),
                    },
                    Err(_) => (None, false),
                }
            };
            out.push(ArtifactMeta {
                kind: kind.to_string(),
                key,
                file_bytes: entry.len,
                ok,
                accessed,
                path,
            });
        }
    }

    /// The keys of every valid entry of `kind` whose key starts with
    /// `prefix`, sorted. Entry file names are key *fingerprints*, so
    /// prefix enumeration must open each entry and read the header key —
    /// this is a maintenance/introspection scan (like [`ArtifactStore::ls`]
    /// it bypasses the degradation gate), not a hot-path read. Corrupt,
    /// foreign and temp files are skipped, never surfaced.
    pub fn keys_with_prefix(&self, kind: &str, prefix: &str) -> Vec<String> {
        let mut entries = Vec::new();
        self.scan_kind(kind, &mut entries);
        let mut out: Vec<String> = entries
            .into_iter()
            .filter(|meta| meta.ok)
            .filter_map(|meta| meta.key)
            .filter(|key| key.starts_with(prefix))
            .collect();
        out.sort();
        out
    }

    /// Removes every store entry that fails verification (truncated,
    /// garbled, foreign schema version, crash-orphaned temp files); keeps
    /// valid entries. Files that do not match the store's own naming
    /// shapes are never touched (or listed), and temp files younger than
    /// [`TMP_GC_GRACE`] are kept — a concurrent writer may be about to
    /// rename them, and deleting an in-flight temp would make that rename
    /// fail and silently drop the artifact.
    ///
    /// With a size budget `Some(max_bytes)`, valid entries are then
    /// evicted **least-recently accessed first** (atime, falling back to
    /// mtime on `noatime` mounts; ties broken by path for determinism)
    /// until the store holds at most `max_bytes`. Evicting a valid entry
    /// is always safe — the next read is a miss that recomputes and
    /// republishes. `None` evicts nothing.
    pub fn gc(&self, max_bytes: Option<u64>) -> GcReport {
        let mut report = GcReport::default();
        let mut live: Vec<ArtifactMeta> = Vec::new();
        for meta in self.ls() {
            if meta.ok {
                live.push(meta);
                continue;
            }
            let is_tmp = meta
                .path
                .file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with(".tmp-"));
            if is_tmp && !self.older_than(&meta.path, TMP_GC_GRACE) {
                report.kept += 1;
                continue;
            }
            if self.fs.remove_file(&meta.path).is_ok() {
                report.removed += 1;
            }
        }
        let mut total: u64 = live.iter().map(|m| m.file_bytes).sum();
        if let Some(cap) = max_bytes {
            if total > cap {
                let mut by_age: Vec<(SystemTime, ArtifactMeta)> = live
                    .drain(..)
                    .map(|m| (m.accessed.unwrap_or(SystemTime::UNIX_EPOCH), m))
                    .collect();
                by_age.sort_by(|a, b| (a.0, &a.1.path).cmp(&(b.0, &b.1.path)));
                for (_, meta) in by_age {
                    if total > cap && self.fs.remove_file(&meta.path).is_ok() {
                        total -= meta.file_bytes;
                        report.evicted += 1;
                    } else {
                        live.push(meta);
                    }
                }
            }
        }
        report.kept += live.len();
        report.bytes_kept = total;
        report
    }

    /// Total bytes of valid (verifiable) entries currently on disk — the
    /// number the size budget of [`ArtifactStore::gc`] bounds. Lets
    /// cap-enforcement smokes and fleet-footprint gates assert
    /// `live_bytes() <= cap` without re-deriving the sum from
    /// [`ArtifactStore::ls`].
    pub fn live_bytes(&self) -> u64 {
        self.ls().iter().filter(|m| m.ok).map(|m| m.file_bytes).sum()
    }

    /// Removes every store entry (valid or not) and any now-empty store
    /// directories. Returns the number of entries removed. Only files the
    /// store recognizes as entries are touched — a mispointed root (e.g. a
    /// typo'd `--store-dir` aimed at a directory holding other data) loses
    /// nothing but actual store files.
    pub fn clear(&self) -> u64 {
        let mut removed = 0u64;
        for meta in self.ls() {
            if self.fs.remove_file(&meta.path).is_ok() {
                removed += 1;
            }
            // Kind directories are dropped only once empty.
            if let Some(dir) = meta.path.parent() {
                let _ = self.fs.remove_dir(dir);
            }
        }
        let _ = self.fs.remove_dir(&self.root);
        removed
    }

    /// The last-modified time of the entry stored under `(kind, key)`,
    /// through the [`StoreFs`] seam — so fault schedules and the
    /// degradation gate apply to stamp probes exactly as to reads. `None`
    /// when the entry is absent, the probe failed after retry handling, or
    /// the store is degraded and skipped the disk; callers polling for
    /// change (the serving layer's hot-reload watcher) must treat `None`
    /// as "no change observed", never as "entry deleted".
    ///
    /// The stamp is a cheap *change hint*: a reload triggered by it still
    /// re-reads through [`ArtifactStore::get_or_put`], whose integrity and
    /// fit checks are what actually guard the payload.
    pub fn entry_stamp(&self, kind: &str, key: &str) -> Option<SystemTime> {
        if !self.disk_allowed() {
            return None;
        }
        let path = self.entry_path(kind, key);
        self.with_retry("modified", &path, || self.fs.modified(&path)).ok()
    }

    /// Successful reads served so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Failed reads (absent, corrupt, unfit, unreadable or
    /// degraded-skipped) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Reads that found a file but failed an integrity check.
    pub fn corrupt(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// Reads through [`ArtifactStore::get_or_put`] whose entry decoded but
    /// failed the reader's fit check.
    pub fn unfit(&self) -> u64 {
        self.unfit.load(Ordering::Relaxed)
    }

    /// Entries published so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Transient-fault retry attempts burned so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Filesystem operations that failed after retry handling.
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Operations short-circuited (disk skipped) while degraded.
    pub fn degraded_ops(&self) -> u64 {
        self.degraded_ops.load(Ordering::Relaxed)
    }

    /// Whether the store is currently in degraded mode (disk tier
    /// considered unavailable; consumers run on their in-memory paths).
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Per-class counts of faults the backend has injected (all zero for
    /// real backends) — surfaced next to hit/miss stats so torture runs
    /// can report schedule activity.
    pub(crate) fn fault_counters(&self) -> FaultCounters {
        self.fs.fault_counters()
    }

    /// Total faults the backend has injected (0 on [`RealFs`]).
    pub fn faults_injected(&self) -> u64 {
        self.fs.fault_counters().total()
    }

    /// Whether `path` was last modified more than `age` ago (unknown
    /// mtimes count as old, so unreadable orphans still get collected).
    fn older_than(&self, path: &Path, age: Duration) -> bool {
        match self.fs.modified(path) {
            Ok(modified) => match modified.elapsed() {
                Ok(elapsed) => elapsed > age,
                Err(_) => false, // mtime in the future: a live writer's file
            },
            Err(_) => true,
        }
    }

    fn entry_path(&self, kind: &str, key: &str) -> PathBuf {
        self.root.join(kind).join(format!("{:016x}.json", fingerprint64(key)))
    }
}

/// Grace period under which `gc` leaves temp files alone: any live writer
/// renames its temp within milliseconds, so a minute-old temp can only be
/// a crash orphan.
pub const TMP_GC_GRACE: Duration = Duration::from_secs(60);

/// Whether a file name matches the shapes the store writes: a
/// `<16-hex-digits>.json` entry or a `.tmp-…` scratch file. `ls`/`gc`/
/// `clear` touch nothing else, so a mispointed root loses no foreign
/// files.
fn is_store_file_name(name: &str) -> bool {
    if name.starts_with(".tmp-") {
        return true;
    }
    match name.strip_suffix(".json") {
        Some(stem) => stem.len() == 16 && stem.bytes().all(|b| b.is_ascii_hexdigit()),
        None => false,
    }
}

/// Parsed entry header (the first line of an entry file).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Header {
    schema: u32,
    kind: String,
    key: String,
    fingerprint: u64,
    payload_len: u64,
    payload_hash: u64,
}

#[derive(Debug)]
enum EntryError {
    /// No parseable header (carries one if the header line parsed but the
    /// entry failed integrity anyway, so `ls` can still show the key).
    Header(Option<Header>),
    /// Valid entry for a different key with the same fingerprint.
    ForeignKey,
}

fn encode_entry(kind: &str, key: &str, payload: &str) -> Result<String, StoreError> {
    let header = Header {
        schema: SCHEMA_VERSION,
        kind: kind.to_string(),
        key: key.to_string(),
        fingerprint: fingerprint64(key),
        payload_len: payload.len() as u64,
        payload_hash: fingerprint64(payload),
    };
    let header = serde_json::to_string(&header)
        .map_err(|e| StoreError::Encode { what: e.to_string() })?;
    // One buffer sized up front: the payload is copied once, not regrown.
    let mut out = String::with_capacity(header.len() + 1 + payload.len());
    out.push_str(&header);
    out.push('\n');
    out.push_str(payload);
    Ok(out)
}

/// Full verification against an expected `(kind, key)`: returns the payload
/// slice on success.
fn verify_entry<'a>(bytes: &'a [u8], kind: &str, key: &str) -> Result<&'a str, EntryError> {
    let (header, payload) = split_entry(bytes)?;
    if header.key != key {
        return Err(EntryError::ForeignKey);
    }
    if header.kind != kind || header.fingerprint != fingerprint64(key) {
        return Err(EntryError::Header(Some(header)));
    }
    Ok(payload)
}

/// Self-consistency verification (no expected key): used by `ls`/`gc`.
fn inspect_entry(bytes: &[u8], kind: &str) -> Result<String, EntryError> {
    let (header, _) = split_entry(bytes)?;
    if header.kind != kind || header.fingerprint != fingerprint64(&header.key) {
        return Err(EntryError::Header(Some(header)));
    }
    Ok(header.key)
}

/// Shared integrity core: header parse, schema version, payload length and
/// payload hash.
fn split_entry(bytes: &[u8]) -> Result<(Header, &str), EntryError> {
    let text = std::str::from_utf8(bytes).map_err(|_| EntryError::Header(None))?;
    let (header_line, payload) = text.split_once('\n').ok_or(EntryError::Header(None))?;
    let header: Header =
        serde_json::from_str(header_line).map_err(|_| EntryError::Header(None))?;
    if header.schema != SCHEMA_VERSION
        || header.payload_len != payload.len() as u64
        || header.payload_hash != fingerprint64(payload)
    {
        return Err(EntryError::Header(Some(header)));
    }
    Ok((header, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use wade_fault::DirEntryInfo;

    /// A scratch store in a unique temp directory, removed on drop.
    struct Scratch(ArtifactStore);

    impl Scratch {
        fn new(tag: &str) -> Self {
            Self(ArtifactStore::open(Self::dir(tag)))
        }

        fn with_fs(tag: &str, fs: impl StoreFs + 'static) -> Self {
            Self(ArtifactStore::open_with_fs(Self::dir(tag), fs))
        }

        fn dir(tag: &str) -> PathBuf {
            let dir = std::env::temp_dir()
                .join(format!("wade-store-unit-{}-{tag}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            dir
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(self.0.root());
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let s = Scratch::new("roundtrip");
        let value: Vec<f64> =
            vec![0.1, 1.0 / 3.0, 2.283e-7, -0.0, f64::MIN_POSITIVE, f64::NEG_INFINITY, f64::NAN];
        s.0.put("vec", "k1", &value).unwrap();
        let back: Vec<f64> = s.0.get("vec", "k1").expect("hit");
        assert_eq!(value.len(), back.len());
        for (a, b) in value.iter().zip(back.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "f64 must round-trip exactly");
        }
        assert_eq!(s.0.hits(), 1);
        assert_eq!(s.0.writes(), 1);
    }

    #[test]
    fn absent_entry_is_a_plain_miss() {
        let s = Scratch::new("absent");
        assert!(s.0.get::<u64>("kind", "nope").is_none());
        assert_eq!(s.0.misses(), 1);
        assert_eq!(s.0.corrupt(), 0);
        assert_eq!(s.0.io_errors(), 0, "an absent file is not an I/O failure");
        assert!(!s.0.degraded());
    }

    #[test]
    fn keys_and_kinds_are_separated() {
        let s = Scratch::new("keys");
        s.0.put("a", "k", &1u64).unwrap();
        s.0.put("b", "k", &2u64).unwrap();
        s.0.put("a", "k2", &3u64).unwrap();
        assert_eq!(s.0.get::<u64>("a", "k"), Some(1));
        assert_eq!(s.0.get::<u64>("b", "k"), Some(2));
        assert_eq!(s.0.get::<u64>("a", "k2"), Some(3));
    }

    #[test]
    fn prefix_enumeration_is_kind_scoped_sorted_and_skips_corruption() {
        let s = Scratch::new("prefix");
        s.0.put("slice", "run|shard=0|epoch=1", &1u64).unwrap();
        s.0.put("slice", "run|shard=0|epoch=0", &0u64).unwrap();
        s.0.put("slice", "run|shard=1|epoch=0", &2u64).unwrap();
        s.0.put("slice", "other|shard=0|epoch=0", &3u64).unwrap();
        s.0.put("model", "run|shard=0|epoch=9", &4u64).unwrap();
        assert_eq!(
            s.0.keys_with_prefix("slice", "run|shard=0|"),
            vec!["run|shard=0|epoch=0".to_string(), "run|shard=0|epoch=1".to_string()],
        );
        assert_eq!(s.0.keys_with_prefix("slice", "run|").len(), 3);
        assert_eq!(s.0.keys_with_prefix("slice", "absent|"), Vec::<String>::new());
        assert_eq!(s.0.keys_with_prefix("nokind", "run|"), Vec::<String>::new());
        // A corrupted entry falls out of the enumeration instead of
        // surfacing a half-readable key.
        let path = s.0.put("slice", "run|shard=2|epoch=0", &5u64).unwrap();
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 2]).unwrap();
        assert_eq!(s.0.keys_with_prefix("slice", "run|").len(), 3);
    }

    #[test]
    fn truncated_entry_is_corrupt_and_rewritable() {
        let s = Scratch::new("trunc");
        let path = s.0.put("k", "key", &vec![1u64, 2, 3]).unwrap();
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 2]).unwrap();
        assert!(s.0.get::<Vec<u64>>("k", "key").is_none(), "truncation must be a miss");
        assert_eq!(s.0.corrupt(), 1);
        // try_get surfaces the structured reason.
        match s.0.try_get::<Vec<u64>>("k", "key") {
            Err(StoreError::Corrupt { reason: CorruptReason::Integrity, .. }) => {}
            other => panic!("expected Corrupt/Integrity, got {other:?}"),
        }
        // The next put atomically replaces the poisoned file.
        s.0.put("k", "key", &vec![1u64, 2, 3]).unwrap();
        assert_eq!(s.0.get::<Vec<u64>>("k", "key"), Some(vec![1, 2, 3]));
    }

    #[test]
    fn garbage_and_foreign_version_are_corrupt() {
        let s = Scratch::new("garbage");
        let path = s.0.put("k", "key", &7u64).unwrap();
        fs::write(&path, b"not an entry at all").unwrap();
        assert!(s.0.get::<u64>("k", "key").is_none());

        // Foreign schema version: rebuild a valid entry, then bump the
        // version field in place.
        s.0.put("k", "key", &7u64).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let foreign = text.replacen(
            &format!("\"schema\":{SCHEMA_VERSION}"),
            &format!("\"schema\":{}", SCHEMA_VERSION + 1),
            1,
        );
        assert_ne!(text, foreign, "version must appear in the header");
        fs::write(&path, foreign).unwrap();
        assert!(s.0.get::<u64>("k", "key").is_none(), "foreign version must be a miss");
        assert!(s.0.corrupt() >= 2);
    }

    #[test]
    fn garbled_payload_same_length_is_corrupt() {
        let s = Scratch::new("garble");
        let path = s.0.put("k", "key", &vec![5u64; 4]).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0x01; // same length, different content
        fs::write(&path, &bytes).unwrap();
        assert!(s.0.get::<Vec<u64>>("k", "key").is_none(), "payload hash must catch this");
        assert_eq!(s.0.corrupt(), 1);
    }

    #[test]
    fn colliding_fingerprint_reads_as_plain_miss() {
        let s = Scratch::new("collide");
        let path = s.0.put("k", "key-a", &1u64).unwrap();
        // Forge a fingerprint collision: a fully valid entry for a
        // different key placed at key-a's path.
        let forged = encode_entry("k", "key-b", "2").unwrap();
        fs::write(&path, forged).unwrap();
        assert!(s.0.get::<u64>("k", "key-a").is_none());
        assert_eq!(s.0.corrupt(), 0, "a valid foreign entry is not corruption");
    }

    #[test]
    fn get_or_put_computes_once() {
        let s = Scratch::new("get-or-put");
        let mut calls = 0;
        let a = s.0.get_or_put("k", "key", |_| true, || {
            calls += 1;
            42u64
        });
        let b = s.0.get_or_put("k", "key", |_| true, || {
            calls += 1;
            999u64
        });
        assert_eq!((a, b, calls), ((42, false), (42, true), 1));
    }

    #[test]
    fn get_or_put_reads_each_entry_once_and_counts_it() {
        let s = Scratch::new("get-or-put-counters");
        let any = |_: &u64| true;
        // Cold: one read (a miss), one compute, one write.
        assert_eq!(s.0.get_or_put("k", "key", any, || 7u64), (7, false));
        assert_eq!((s.0.misses(), s.0.hits(), s.0.writes()), (1, 0, 1));
        // Warm: one read (a hit), no compute, no write.
        assert_eq!(s.0.get_or_put("k", "key", any, || unreachable!("warm read")), (7, true));
        assert_eq!((s.0.misses(), s.0.hits(), s.0.writes()), (1, 1, 1));
        // Corrupt: read once (a corrupt miss), recomputed and rewritten.
        let path = s.0.entry_path("k", "key");
        fs::write(&path, b"junk").unwrap();
        assert_eq!(s.0.get_or_put("k", "key", any, || 8u64), (8, false));
        assert_eq!((s.0.misses(), s.0.corrupt(), s.0.writes()), (2, 1, 2));
        assert_eq!(s.0.get::<u64>("k", "key"), Some(8), "the corrupt entry was rewritten");
        assert_eq!(s.0.hits(), 2);
        // Unfit: the entry decodes but the check refuses it — a miss that
        // is recomputed and rewritten, counted apart from corruption.
        assert_eq!(s.0.get_or_put("k", "key", |&v: &u64| v == 9, || 9u64), (9, false));
        assert_eq!(
            (s.0.misses(), s.0.unfit(), s.0.writes(), s.0.hits(), s.0.corrupt()),
            (3, 1, 3, 2, 1)
        );
        // The rewritten entry passes the same check.
        assert_eq!(s.0.get_or_put("k", "key", |&v: &u64| v == 9, || unreachable!()), (9, true));
        assert_eq!((s.0.misses(), s.0.unfit(), s.0.hits()), (3, 1, 3));
    }

    #[test]
    fn ls_gc_clear_lifecycle() {
        let s = Scratch::new("lifecycle");
        s.0.put("alpha", "k1", &1u64).unwrap();
        s.0.put("beta", "k2", &2u64).unwrap();
        let poisoned = s.0.put("beta", "k3", &3u64).unwrap();
        fs::write(&poisoned, b"junk").unwrap();
        // A foreign file inside a kind directory (a mispointed root):
        // never listed, never gc'd, never cleared.
        let foreign = s.0.root().join("beta").join("notes.txt");
        fs::write(&foreign, b"precious user data").unwrap();

        let ls = s.0.ls();
        assert_eq!(ls.len(), 3, "foreign file must not be listed");
        assert_eq!(ls.iter().filter(|m| m.ok).count(), 2);
        assert!(ls.iter().any(|m| m.key.as_deref() == Some("k1") && m.kind == "alpha"));

        let gc = s.0.gc(None);
        assert_eq!((gc.kept, gc.removed, gc.evicted), (2, 1, 0));
        assert!(gc.bytes_kept > 0);
        assert_eq!(s.0.ls().len(), 2);
        assert!(foreign.exists(), "gc must not touch foreign files");

        assert_eq!(s.0.clear(), 2);
        assert!(s.0.ls().is_empty());
        assert!(foreign.exists(), "clear must not touch foreign files");
        assert!(s.0.root().exists(), "root with foreign content must survive clear");
    }

    #[test]
    fn temp_files_are_never_ok_and_gc_respects_the_grace_period() {
        let s = Scratch::new("tmp-orphans");
        s.0.put("k", "key", &1u64).unwrap();
        // A crash-orphaned temp with fully valid entry content: written
        // but never renamed, so `get` can never serve it.
        let orphan = s.0.root().join("k").join(".tmp-deadbeef-1-0");
        fs::write(&orphan, encode_entry("k", "other-key", "2").unwrap()).unwrap();

        let ls = s.0.ls();
        assert_eq!(ls.len(), 2);
        assert!(
            ls.iter().all(|m| m.ok == (m.path != orphan)),
            "temp files must never be ok, however valid their content"
        );

        // Fresh temp: inside the grace period, a concurrent writer may be
        // about to rename it — gc must leave it alone.
        let gc = s.0.gc(None);
        assert_eq!((gc.kept, gc.removed), (2, 0));
        assert!(orphan.exists());

        // Age it past the grace period: now it is a crash orphan.
        let old = SystemTime::now() - (TMP_GC_GRACE + TMP_GC_GRACE);
        let file = fs::File::options().write(true).open(&orphan).unwrap();
        file.set_times(fs::FileTimes::new().set_modified(old)).unwrap();
        drop(file);
        let gc = s.0.gc(None);
        assert_eq!((gc.kept, gc.removed), (1, 1));
        assert!(!orphan.exists());
        assert_eq!(s.0.get::<u64>("k", "key"), Some(1), "real entry untouched");
    }

    #[test]
    fn lru_cap_evicts_oldest_accessed_first() {
        let s = Scratch::new("lru");
        let old = s.0.put("k", "old", &vec![1u64; 64]).unwrap();
        let mid = s.0.put("k", "mid", &vec![2u64; 64]).unwrap();
        let new = s.0.put("k", "new", &vec![3u64; 64]).unwrap();
        // Sizes via metadata — an ls() here would *read* the entries and
        // bump the very atimes this test stamps next.
        let one = fs::metadata(&old).unwrap().len();
        let total: u64 = [&old, &mid, &new]
            .iter()
            .map(|p| fs::metadata(p).unwrap().len())
            .sum();
        // Stamp distinct access times so the LRU order is unambiguous.
        let now = SystemTime::now();
        for (path, age_s) in [(&old, 3000u64), (&mid, 2000), (&new, 1000)] {
            let f = fs::File::options().write(true).open(path).unwrap();
            f.set_times(fs::FileTimes::new().set_accessed(now - Duration::from_secs(age_s)))
                .unwrap();
        }

        // Cap that fits two entries: exactly the oldest-accessed goes.
        let gc = s.0.gc(Some(total - 1));
        assert_eq!((gc.kept, gc.removed, gc.evicted), (2, 0, 1));
        assert!(!old.exists(), "oldest-accessed entry must be evicted first");
        assert!(mid.exists() && new.exists());
        assert_eq!(gc.bytes_kept, total - one);

        // Cap of zero: everything valid is evicted; the store still works.
        let gc = s.0.gc(Some(0));
        assert_eq!((gc.kept, gc.evicted, gc.bytes_kept), (0, 2, 0));
        assert!(s.0.get::<Vec<u64>>("k", "new").is_none());
        s.0.put("k", "new", &vec![3u64; 64]).unwrap();
        assert_eq!(s.0.get::<Vec<u64>>("k", "new"), Some(vec![3; 64]));

        // No cap: pure corruption gc, nothing evicted.
        let gc = s.0.gc(None);
        assert_eq!((gc.kept, gc.evicted), (1, 0));
    }

    #[test]
    fn transient_faults_are_retried_and_counted() {
        // Every injected fault is transient, so with a modest rate the
        // retry budget absorbs most of them; whatever still fails must
        // never corrupt a read (miss or exact value only).
        let s = Scratch::with_fs(
            "retry",
            FaultyFs::new(RealFs, FaultPlan::transient_only(17, 0.3)),
        );
        let mut stored = 0u32;
        for i in 0..30u64 {
            if s.0.put("k", &format!("key{i}"), &(i * 7)).is_ok() {
                stored += 1;
            }
        }
        assert!(stored > 0, "retries must save some puts at a 30% rate");
        assert!(s.0.retries() > 0, "a 30% transient schedule must trigger retries");
        for i in 0..30u64 {
            if let Some(v) = s.0.get::<u64>("k", &format!("key{i}")) {
                assert_eq!(v, i * 7, "a hit must be the exact value");
            }
        }
        assert!(s.0.faults_injected() > 0);
    }

    /// A backend whose first `fail_first` operations fail with `EACCES`,
    /// then heals — deterministic trip-and-recover.
    #[derive(Debug)]
    struct HealingFs {
        inner: RealFs,
        remaining: AtomicU64,
    }

    impl HealingFs {
        fn failing(n: u64) -> Self {
            Self { inner: RealFs, remaining: AtomicU64::new(n) }
        }

        /// Consumes one tick of sickness; `true` while the disk is down.
        fn sick(&self) -> bool {
            self.remaining
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
        }

        fn down() -> io::Error {
            io::Error::new(io::ErrorKind::PermissionDenied, "sick disk")
        }
    }

    impl StoreFs for HealingFs {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            if self.sick() {
                return Err(Self::down());
            }
            self.inner.read(path)
        }

        fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
            if self.sick() {
                return Err(Self::down());
            }
            self.inner.write(path, data)
        }

        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.inner.rename(from, to)
        }

        fn remove_file(&self, path: &Path) -> io::Result<()> {
            self.inner.remove_file(path)
        }

        fn remove_dir(&self, path: &Path) -> io::Result<()> {
            self.inner.remove_dir(path)
        }

        fn create_dir_all(&self, path: &Path) -> io::Result<()> {
            if self.sick() {
                return Err(Self::down());
            }
            self.inner.create_dir_all(path)
        }

        fn read_dir(&self, path: &Path) -> io::Result<Vec<DirEntryInfo>> {
            self.inner.read_dir(path)
        }

        fn modified(&self, path: &Path) -> io::Result<SystemTime> {
            self.inner.modified(path)
        }

        fn accessed(&self, path: &Path) -> io::Result<SystemTime> {
            self.inner.accessed(path)
        }
    }

    #[test]
    fn degradation_trips_then_probe_recovers() {
        let s = Scratch::with_fs("degrade", HealingFs::failing(DEGRADE_AFTER));
        // Persistent failures fail fast (no retry burn) and trip the gate.
        for i in 0..DEGRADE_AFTER {
            assert!(s.0.get::<u64>("k", &format!("k{i}")).is_none());
        }
        assert!(s.0.degraded(), "DEGRADE_AFTER hard failures must trip degraded mode");
        assert_eq!(s.0.io_errors(), DEGRADE_AFTER);

        // While degraded most operations skip the disk entirely…
        let before = s.0.degraded_ops();
        let mut probes = 0;
        for i in 0..(2 * PROBE_EVERY) {
            match s.0.try_get::<u64>("k", &format!("skip{i}")) {
                Err(StoreError::Degraded { .. }) => {}
                Ok(None) => probes += 1, // a probe reached the healed disk
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(s.0.degraded_ops() > before, "skipped ops must be counted");
        assert!(probes >= 1, "the probe gate must let some operations through");
        // …and the first successful probe rejoined the tier.
        assert!(!s.0.degraded(), "a healed disk must clear degraded mode");
        s.0.put("k", "after", &9u64).unwrap();
        assert_eq!(s.0.get::<u64>("k", "after"), Some(9));
    }

    #[test]
    fn degraded_put_reports_structured_error() {
        let s = Scratch::with_fs("degraded-put", HealingFs::failing(u64::MAX / 2));
        for i in 0..DEGRADE_AFTER {
            let _ = s.0.put("k", &format!("k{i}"), &1u64);
        }
        assert!(s.0.degraded());
        let mut saw_degraded = false;
        for i in 0..PROBE_EVERY {
            if matches!(
                s.0.put("k", &format!("later{i}"), &1u64),
                Err(StoreError::Degraded { op: "put" })
            ) {
                saw_degraded = true;
            }
        }
        assert!(saw_degraded, "degraded puts must report StoreError::Degraded");
    }

    #[test]
    fn entry_stamp_tracks_rewrites_and_absence() {
        let s = Scratch::new("stamp");
        assert!(s.0.entry_stamp("k", "key").is_none(), "absent entry has no stamp");
        let path = s.0.put("k", "key", &1u64).unwrap();
        let first = s.0.entry_stamp("k", "key").expect("stamp after put");
        // Rewrites move the stamp (backdate the file rather than sleeping
        // across mtime granularity).
        let old = first - Duration::from_secs(10);
        let f = fs::File::options().write(true).open(&path).unwrap();
        f.set_times(fs::FileTimes::new().set_modified(old)).unwrap();
        drop(f);
        let backdated = s.0.entry_stamp("k", "key").expect("stamp after backdate");
        assert!(backdated < first);
        s.0.put("k", "key", &2u64).unwrap();
        let rewritten = s.0.entry_stamp("k", "key").expect("stamp after rewrite");
        assert!(rewritten > backdated, "a rewrite must move the stamp forward");
    }

    #[test]
    fn entry_stamp_respects_the_degradation_gate() {
        let s = Scratch::with_fs("stamp-degraded", HealingFs::failing(u64::MAX / 2));
        for i in 0..DEGRADE_AFTER {
            let _ = s.0.get::<u64>("k", &format!("k{i}"));
        }
        assert!(s.0.degraded());
        let before = s.0.degraded_ops();
        for _ in 0..4 {
            assert!(s.0.entry_stamp("k", "key").is_none());
        }
        assert!(s.0.degraded_ops() > before, "degraded stamp probes must be gated");
    }

    #[test]
    fn resolve_dir_precedence() {
        // Explicit beats everything.
        assert_eq!(resolve_dir(Some("/x/y")), PathBuf::from("/x/y"));
        // Env/default branch, asserted against the documented expectation
        // computed from the same process state (env mutation in tests
        // would race other tests, so the two env cases share one assert).
        let expected = match std::env::var(STORE_DIR_ENV) {
            Ok(dir) if !dir.trim().is_empty() => PathBuf::from(dir),
            _ => default_dir(),
        };
        assert_eq!(resolve_dir(None), expected);
    }
}
