//! The profiling front-end contract: batched, parallel and cached profiling
//! must all be invisible — byte-identical reports, features and campaign
//! output versus the serial per-access reference path.

use std::sync::Arc;
use wade_core::{Campaign, CampaignConfig, ProfileCache, SimulatedServer};
use wade_workloads::{full_suite, BoxedWorkload, Scale, WorkloadId};

fn quick_campaign() -> Campaign {
    Campaign::new(SimulatedServer::with_seed(5), CampaignConfig::quick())
}

fn tiny_suite() -> Vec<BoxedWorkload> {
    vec![
        WorkloadId::Backprop.instantiate(1, Scale::Test),
        WorkloadId::Memcached.instantiate(8, Scale::Test),
        WorkloadId::Srad.instantiate(8, Scale::Test),
    ]
}

#[test]
fn batched_profiling_matches_per_access_reference_for_every_workload() {
    // The staged slice delivery (StagingSink → FanoutSink → Tracer + Soc)
    // must reproduce the interleaved per-access call stream exactly: same
    // TraceReport, same SocReport, same features, same usage profile, for
    // all 17 suite configurations.
    let server = SimulatedServer::with_seed(1);
    for wl in full_suite(Scale::Test) {
        let batched = server.profile_workload(wl.as_ref(), 3);
        let reference = server.profile_workload_unbatched(wl.as_ref(), 3);
        assert_eq!(batched.trace, reference.trace, "{}: TraceReport diverged", wl.name());
        assert_eq!(batched.soc, reference.soc, "{}: SocReport diverged", wl.name());
        assert_eq!(batched, reference, "{}: profile diverged", wl.name());
    }
}

#[test]
fn suite_profiling_is_identical_across_thread_counts() {
    // The rayon fan-out over the suite must be invisible: same profiles, in
    // suite order, on 1 and 8 threads. Fresh isolated caches per pool so
    // both sides do the full cold work.
    let profile_with = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
            quick_campaign()
                .with_profile_cache(Arc::new(ProfileCache::new()))
                .profile_suite(&full_suite(Scale::Test), 3)
        })
    };
    let serial = profile_with(1);
    let parallel = profile_with(8);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(parallel.iter()) {
        assert_eq!(a.name, b.name, "suite order must be stable");
        assert_eq!(**a, **b, "{}: profile diverged across thread counts", a.name);
    }
}

#[test]
fn profile_cache_hits_are_bit_identical_and_shared() {
    let cache = Arc::new(ProfileCache::new());
    let campaign = quick_campaign().with_profile_cache(cache.clone());
    let uncached = quick_campaign();
    let suite = tiny_suite();

    let cold = campaign.profile_suite(&suite, 7);
    assert_eq!(cache.misses(), suite.len() as u64);
    let warm = campaign.profile_suite(&suite, 7);
    assert_eq!(cache.hits(), suite.len() as u64, "second pass must be all hits");
    for ((a, b), wl) in cold.iter().zip(warm.iter()).zip(suite.iter()) {
        assert!(Arc::ptr_eq(a, b), "{}: hit must share the frozen profile", wl.name());
        let fresh = uncached.profile(wl.as_ref(), 7);
        assert_eq!(**a, fresh, "{}: cached profile diverged from uncached", wl.name());
    }
}

#[test]
fn collect_is_identical_cached_and_uncached() {
    // The acceptance contract: whole-campaign output is byte-identical
    // across the cached and uncached profiling paths — including a
    // second campaign served entirely from cache.
    let suite = tiny_suite();
    let cache = Arc::new(ProfileCache::new());
    let cached = quick_campaign().with_profile_cache(cache.clone()).collect(&suite, 3);
    let rewarmed = quick_campaign().with_profile_cache(cache.clone()).collect(&suite, 3);
    let uncached = quick_campaign().collect(&suite, 3);
    assert!(cache.hits() > 0, "second collect must hit the cache");
    assert_eq!(cached.to_json().unwrap(), uncached.to_json().unwrap());
    assert_eq!(rewarmed.to_json().unwrap(), uncached.to_json().unwrap());
}

#[test]
fn collect_is_identical_across_thread_counts_with_cold_caches() {
    // Pin each collection to its own pool width *and* its own cache, so
    // the parallel profiling phase (not a warm cache) is what the identity
    // exercises end to end.
    let collect_with = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
            quick_campaign()
                .with_profile_cache(Arc::new(ProfileCache::new()))
                .collect(&tiny_suite(), 3)
        })
    };
    let serial = collect_with(1);
    let parallel = collect_with(8);
    assert_eq!(serial.to_json().unwrap(), parallel.to_json().unwrap());
}
