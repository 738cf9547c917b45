//! Campaign-level caching of the profiling phase.
//!
//! Profiling is deterministic: a workload's [`ProfiledWorkload`] is a pure
//! function of (workload identity, problem scale, run seed, SoC
//! configuration) — the DRAM device never enters the profiling phase, so
//! two servers with different device seeds share profiles. Repeated
//! campaigns and the `repro_all` figure binaries therefore re-execute the
//! same 14–17 kernels over and over for byte-identical results. The
//! [`ProfileCache`] memoizes them: each configuration is profiled once and
//! the frozen [`ProfiledWorkload`] is shared behind an [`Arc`] — the
//! profiling-phase mirror of `wade_dram::PreparedRun` one layer down.
//!
//! A cache hit is *bit-identical* to a fresh profile (asserted by tests),
//! so the cache is invisible to every consumer, including the seeded
//! ML-accuracy baselines.
//!
//! # Disk tier
//!
//! The in-process memo is backed by an optional [`wade_store::ArtifactStore`]
//! tier (kind `"profile"`, keyed by the same fields as the memo): a memory
//! miss consults the store before profiling, and fresh profiles are
//! published back, so *separate processes* — `repro_all` and each
//! standalone figure binary — share one profiling pass. The vendored
//! `serde_json` round-trips `f64` exactly, so a disk hit is byte-identical
//! to a fresh profile (asserted by `tests/artifact_store.rs`); corrupt or
//! foreign-version entries read as misses and are rewritten. Caches built
//! with [`ProfileCache::new`] have no disk tier; [`ProfileCache::with_store`]
//! fixes one at construction. There is no process-wide cache: each
//! [`crate::Campaign`] starts with its own in-memory cache, and callers
//! that share profiles hand one cache to
//! [`crate::Campaign::with_profile_cache`] (the figure binaries build one
//! per process over their store).

use crate::server::{ProfiledWorkload, SimulatedServer};
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use wade_store::ArtifactStore;
use wade_workloads::{Scale, Workload};

/// Poison-tolerant lock: every mutation of the protected map is a single
/// map operation, so a thread that panicked while holding the
/// guard cannot have left it torn — recovering the inner value is always
/// safe, and one crashed profiling thread must not poison every later
/// campaign in the process.
fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The memo key: everything the profiling phase depends on.
///
/// `name` alone distinguishes the kernel family and its paper label (e.g.
/// `"backprop"` vs `"backprop(par)"`), but `threads` and `scale` are keyed
/// explicitly so non-paper thread counts and Test-vs-Full instances of the
/// same label can never collide; `deploy_*` keys the extrapolation
/// constants a custom [`Workload::deploy_scale`] may override (they shape
/// the cached features and usage profile); `token` is the escape hatch for
/// custom kernels whose behaviour varies beyond all of those
/// ([`Workload::cache_token`]). `soc_fingerprint` covers the SoC
/// configuration the profiling hierarchy runs on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ProfileKey {
    name: String,
    threads: u8,
    scale: Scale,
    seed: u64,
    deploy_footprint_words: u64,
    deploy_reuse_scale_bits: u64,
    token: u64,
    soc_fingerprint: u64,
}

impl ProfileKey {
    /// The canonical store-key string: every memo-key field, pipe-joined in
    /// declaration order (floats by bit pattern, so the key is exact).
    fn canonical(&self) -> String {
        format!(
            "profile|name={}|threads={}|scale={:?}|seed={}|deploy_words={}|reuse_bits={:016x}|token={:016x}|soc={:016x}",
            self.name,
            self.threads,
            self.scale,
            self.seed,
            self.deploy_footprint_words,
            self.deploy_reuse_scale_bits,
            self.token,
            self.soc_fingerprint,
        )
    }
}

/// The artifact kind of persisted profiles in the store.
const PROFILE_KIND: &str = "profile";

/// Memoization cap: beyond this many entries new profiles are returned
/// uncached (counted as misses) instead of retained, bounding a long-lived
/// process that sweeps many seeds. Generous versus real use — the full
/// suite is 17 configurations per (seed, SoC).
const MAX_MEMOIZED: usize = 4096;

/// Shared, thread-safe memo table for the profiling phase.
///
/// Every [`crate::Campaign`] profiles through one; sharing a cache (and
/// its store) between campaigns with
/// [`crate::Campaign::with_profile_cache`] is how a process reuses
/// profiles.
#[derive(Debug, Default)]
pub struct ProfileCache {
    map: Mutex<FxHashMap<ProfileKey, Arc<ProfiledWorkload>>>,
    store: Option<Arc<ArtifactStore>>,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
}

impl ProfileCache {
    /// An empty cache with no disk tier.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty in-process memo backed by `store`'s `"profile"` artifacts.
    pub fn with_store(store: Arc<ArtifactStore>) -> Self {
        Self { store: Some(store), ..Self::default() }
    }

    /// Profiles `workload` on `server` with memoization: the first call per
    /// (workload name, threads, scale, seed, SoC config) executes the
    /// kernel; every later call returns the same frozen [`ProfiledWorkload`]
    /// allocation.
    pub fn profile(
        &self,
        server: &SimulatedServer,
        workload: &dyn Workload,
        seed: u64,
    ) -> Arc<ProfiledWorkload> {
        let deploy = workload.deploy_scale();
        let key = ProfileKey {
            name: workload.name(),
            threads: workload.threads(),
            scale: workload.scale(),
            seed,
            deploy_footprint_words: deploy.footprint_words,
            deploy_reuse_scale_bits: deploy.reuse_scale.to_bits(),
            token: workload.cache_token(),
            soc_fingerprint: server.soc_fingerprint(),
        };
        if let Some(hit) = relock(&self.map).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        // Memory miss: read through the disk tier before paying for a
        // profiling run. A disk hit is byte-identical to a fresh profile
        // (the store round-trips exactly), so it is memoized like one.
        // Profiling runs outside the lock so concurrent misses on
        // *different* workloads don't serialize. Concurrent misses on the
        // same key both compute (deterministically identical values); the
        // first insert wins so all consumers share one canonical allocation.
        let profile = || server.profile_workload(workload, seed);
        let (profiled, disk_hit) = match &self.store {
            Some(store) => store.get_or_put(PROFILE_KIND, &key.canonical(), |_| true, profile),
            None => (profile(), false),
        };
        let counter = if disk_hit { &self.disk_hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        self.memoize(key, Arc::new(profiled))
    }

    /// Inserts under the memo cap; the first insert wins so every consumer
    /// shares one canonical allocation.
    fn memoize(&self, key: ProfileKey, value: Arc<ProfiledWorkload>) -> Arc<ProfiledWorkload> {
        let mut map = relock(&self.map);
        if map.len() >= MAX_MEMOIZED && !map.contains_key(&key) {
            // At capacity: serve the value without retaining it.
            return value;
        }
        map.entry(key).or_insert(value).clone()
    }

    /// In-memory cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Profiles served from the disk tier (memory misses that avoided a
    /// profiling run).
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Cache misses (i.e. actual profiling runs) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wade_workloads::WorkloadId;

    /// Number of configurations currently memoized.
    fn memoized(cache: &ProfileCache) -> usize {
        relock(&cache.map).len()
    }

    #[test]
    fn hit_is_bit_identical_to_fresh_profile() {
        let cache = ProfileCache::new();
        let server = SimulatedServer::with_seed(5);
        let wl = WorkloadId::Backprop.instantiate(1, Scale::Test);
        let first = cache.profile(&server, wl.as_ref(), 3);
        let second = cache.profile(&server, wl.as_ref(), 3);
        assert!(Arc::ptr_eq(&first, &second), "hit must share the frozen allocation");
        assert_eq!(*first, server.profile_workload(wl.as_ref(), 3));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(memoized(&cache), 1);
    }

    #[test]
    fn key_separates_seed_threads_and_scale() {
        let cache = ProfileCache::new();
        let server = SimulatedServer::with_seed(5);
        let one = WorkloadId::Kmeans.instantiate(1, Scale::Test);
        let par = WorkloadId::Kmeans.instantiate(8, Scale::Test);
        let full = WorkloadId::Kmeans.instantiate(1, Scale::Full);
        cache.profile(&server, one.as_ref(), 3);
        cache.profile(&server, one.as_ref(), 4); // new seed
        cache.profile(&server, par.as_ref(), 3); // new thread count
        cache.profile(&server, full.as_ref(), 3); // new scale
        assert_eq!(memoized(&cache), 4);
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn device_seed_does_not_split_the_cache() {
        // Profiling never touches the DRAM device, so servers that differ
        // only in device seed share entries.
        let cache = ProfileCache::new();
        let wl = WorkloadId::Nw.instantiate(1, Scale::Test);
        let a = cache.profile(&SimulatedServer::with_seed(1), wl.as_ref(), 3);
        let b = cache.profile(&SimulatedServer::with_seed(2), wl.as_ref(), 3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(memoized(&cache), 1);
    }

    #[test]
    fn disk_tier_shares_profiles_across_cache_instances() {
        let dir = std::env::temp_dir()
            .join(format!("wade-profile-store-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::open(&dir));
        let server = SimulatedServer::with_seed(5);
        let wl = WorkloadId::Backprop.instantiate(1, Scale::Test);

        let cold = ProfileCache::with_store(store.clone());
        let first = cold.profile(&server, wl.as_ref(), 3);
        assert_eq!((cold.misses(), cold.disk_hits()), (1, 0));

        // A fresh cache instance (empty memory, same store) must serve the
        // profile from disk — the cross-process reuse path — and the disk
        // hit must be byte-identical to the fresh profile.
        let warm = ProfileCache::with_store(store);
        let second = warm.profile(&server, wl.as_ref(), 3);
        assert_eq!((warm.misses(), warm.disk_hits()), (0, 1));
        assert_eq!(*first, *second);
        assert_eq!(*second, server.profile_workload(wl.as_ref(), 3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_lock_does_not_take_the_cache_down() {
        let cache = Arc::new(ProfileCache::new());
        let poisoner = cache.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.map.lock().unwrap();
            panic!("simulated profiler crash while holding the memo lock");
        })
        .join();
        // The cache must keep serving (and memoizing) after the poison.
        let server = SimulatedServer::with_seed(5);
        let wl = WorkloadId::Backprop.instantiate(1, Scale::Test);
        let p = cache.profile(&server, wl.as_ref(), 3);
        assert_eq!(*p, server.profile_workload(wl.as_ref(), 3));
        assert_eq!(memoized(&cache), 1);
    }

    #[test]
    fn clear_empties_the_table() {
        let cache = ProfileCache::new();
        let server = SimulatedServer::with_seed(5);
        let wl = WorkloadId::Bfs.instantiate(8, Scale::Test);
        cache.profile(&server, wl.as_ref(), 1);
        assert!(memoized(&cache) > 0);
        relock(&cache.map).clear();
        assert_eq!(memoized(&cache), 0);
    }
}
