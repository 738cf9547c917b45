//! # wade-bench — experiment harness
//!
//! One binary per table/figure of the paper (see ARCHITECTURE.md §4 for the
//! index) plus the `bench` perf tracker. This library holds the shared
//! plumbing: the reference server/campaign construction, the artifact-store
//! wiring every figure binary shares (profiles, campaign data and trained
//! fold models persist across *processes* — ARCHITECTURE.md §11), and the
//! paper's WER formatting. Nothing here is process-global: each binary
//! opens its store and profile cache once with [`init_store`] and passes
//! both handles to every stage that persists.
//!
//! ```no_run
//! // The shared full-grid campaign (collected once, stored on disk):
//! let (store, cache) = wade_bench::init_store();
//! let data = wade_bench::full_campaign_data(&store, &cache);
//! println!("{} rows from the reference server", data.rows.len());
//! ```

#![deny(missing_docs)]

use std::sync::Arc;
use wade_core::{Campaign, CampaignConfig, CampaignData, ProfileCache, SimulatedServer};
use wade_store::ArtifactStore;
use wade_workloads::{full_suite, Scale, Workload};

/// The reference device seed used by every experiment (the "server in the
/// lab"). Changing it re-manufactures all 72 chips.
pub const DEVICE_SEED: u64 = 39;

/// The campaign seed (run-to-run randomness: VRT states, discovery order).
pub const CAMPAIGN_SEED: u64 = 7;

/// The reference server instance.
pub fn server() -> SimulatedServer {
    SimulatedServer::with_seed(DEVICE_SEED)
}

/// Opens the artifact store every figure binary shares, plus a profile
/// cache over it. The directory is resolved `--store-dir DIR` (or
/// `--store-dir=DIR`) > `WADE_STORE_DIR` > `target/wade-store`. Handing
/// both to the stages makes profiling, campaign collection and fold-model
/// training persist across invocations — `repro_all` warms the store and
/// every standalone `fig*` binary reuses it. Call it once per process:
/// every call opens fresh handles with their own counters and memo.
pub fn init_store() -> (Arc<ArtifactStore>, Arc<ProfileCache>) {
    let store = Arc::new(ArtifactStore::open(store_dir()));
    let cache = Arc::new(ProfileCache::with_store(store.clone()));
    (store, cache)
}

/// The store directory [`init_store`] resolves (without opening it).
/// Exits with an error if `--store-dir` is given without a value — falling
/// back to the default store after a malformed flag would point
/// destructive subcommands (`store clear`) at a store the user did not
/// intend to touch.
pub fn store_dir() -> std::path::PathBuf {
    let args: Vec<String> = std::env::args().collect();
    let mut explicit: Option<String> = None;
    for (i, arg) in args.iter().enumerate() {
        if arg == "--store-dir" {
            match args.get(i + 1) {
                Some(dir) if !dir.starts_with("--") => explicit = Some(dir.clone()),
                _ => {
                    eprintln!("error: --store-dir requires a directory argument");
                    std::process::exit(2);
                }
            }
        } else if let Some(dir) = arg.strip_prefix("--store-dir=") {
            explicit = Some(dir.to_string());
        }
    }
    wade_store::resolve_dir(explicit.as_deref())
}

/// The experiment scale: `Scale::Full` (the paper's inputs) unless
/// `WADE_SCALE=test` asks for the reduced CI-friendly inputs. The store
/// keys fold the scale in through the suite, so Test- and Full-scale
/// artifacts never collide.
pub fn scale() -> Scale {
    match std::env::var("WADE_SCALE") {
        Ok(v) if v.eq_ignore_ascii_case("test") => Scale::Test,
        _ => Scale::Full,
    }
}

/// The full-suite campaign data at the paper's grid ([`scale`]-sized),
/// served through `store` so every figure binary — and every repeated
/// invocation — shares one collection pass; a cold collection profiles
/// through `cache`. The store key is explicit: (campaign seed, grid
/// config, suite at its scale, device fingerprint); see
/// `wade_core::campaign_store_key`.
pub fn full_campaign_data(store: &ArtifactStore, cache: &Arc<ProfileCache>) -> CampaignData {
    let config = CampaignConfig::paper_full();
    let suite = experiment_suite();
    // Probe the campaign artifact itself (profile-kind hits during a cold
    // collection must not masquerade as a campaign hit).
    let key = wade_core::campaign_store_key(&server(), &config, &suite, CAMPAIGN_SEED);
    if let Some(data) = store.get::<CampaignData>(wade_core::CAMPAIGN_KIND, &key) {
        eprintln!("[wade-bench] using stored campaign data ({})", store.root().display());
        return data;
    }
    eprintln!(
        "[wade-bench] collecting full campaign into {} (first run)…",
        store.root().display()
    );
    Campaign::new(server(), config)
        .with_profile_cache(cache.clone())
        .collect_stored(store, &suite, CAMPAIGN_SEED)
}

/// The workload suite used by the experiments: the paper's 14 configs plus
/// the Fig. 13 extras (lulesh ×2 and the random data-pattern micro), at
/// [`scale`].
pub fn experiment_suite() -> Vec<Box<dyn Workload>> {
    full_suite(scale())
}

/// Formats a WER in the paper's scientific style.
pub fn fmt_wer(wer: f64) -> String {
    if wer == 0.0 {
        "0".to_string()
    } else {
        format!("{wer:.2e}")
    }
}
