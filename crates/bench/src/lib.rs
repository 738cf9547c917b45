//! # wade-bench — experiment harness
//!
//! One binary per table/figure of the paper (see ARCHITECTURE.md §4 for the
//! index), `repro_all` (every experiment → `EXPERIMENTS.md`), the `bench`
//! perf tracker and the `serve` prediction service. Every experiment is
//! computed once, in [`experiments`]: a figure binary only hands its
//! function to [`run`], and `repro_all` only writes [`experiments::report`].
//!
//! This library also holds the shared plumbing: the reference server, the
//! one command-line parser ([`cli`]), and the [`Lab`] — the artifact store
//! and profile cache every experiment binary opens once, so that profiles,
//! campaign data and trained fold models persist across *processes*
//! (ARCHITECTURE.md §11). Nothing here is process-global: each binary
//! opens its own [`Lab`] and passes it to every stage that persists.
//!
//! ```no_run
//! // The shared full-grid campaign (collected once, stored on disk):
//! let lab = wade_bench::Lab::open();
//! let data = lab.campaign();
//! println!("{} rows from the reference server", data.rows.len());
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unreachable_pub, unnameable_types)]

pub mod cli;
pub mod experiments;

use std::io::{self, Write};
use std::path::Path;
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

/// The artifact store every experiment binary shares, plus a profile cache
/// over it. Handing both to the stages makes profiling, campaign
/// collection and fold-model training persist across invocations —
/// `repro_all` warms the store and every standalone `fig*` binary reuses
/// it. Open one per process: each opens fresh handles with their own
/// counters and memo.
pub struct Lab {
    /// The artifact store.
    pub store: Arc<ArtifactStore>,
    /// The store-backed profile cache.
    pub cache: Arc<ProfileCache>,
}

impl Lab {
    /// Opens the store named on the command line of `repro_all` or a
    /// `fig*`/`table*` binary, which takes no other argument.
    pub fn open() -> Self {
        Self::from_args(&[], "[--store-dir DIR]").0
    }

    /// Parses this process's command line — `--store-dir DIR` (or
    /// `--store-dir=DIR`), the value flags in `extra`, no positional
    /// argument — and opens the store it names: `--store-dir` >
    /// `WADE_STORE_DIR` > `target/wade-store`. Anything else exits with
    /// status 2 and the program name followed by `usage`: a misspelt flag
    /// must not silently fill the default store.
    pub fn from_args(extra: &[&str], usage: &str) -> (Self, cli::Args) {
        let argv: Vec<String> = std::env::args().collect();
        let name = argv.first().and_then(|path| Path::new(path).file_name());
        let usage = format!("{} {usage}", name.map_or("wade-bench".into(), |n| n.to_string_lossy()));
        let flags = [&["--store-dir"], extra].concat();
        let args = cli::parse(argv.get(1..).unwrap_or_default(), &flags, &[])
            .unwrap_or_else(|msg| cli::exit_usage(&msg, &usage));
        if let Some(extra) = args.positional.first() {
            cli::exit_usage(&format!("unexpected argument {extra}"), &usage);
        }
        let store = Arc::new(ArtifactStore::open(args.store_dir()));
        let cache = Arc::new(ProfileCache::with_store(store.clone()));
        (Self { store, cache }, args)
    }

    /// The full-suite campaign data at the paper's grid (`scale()`-sized),
    /// read through the store so every figure binary — and every
    /// repeated invocation — shares one collection pass; a cold collection
    /// profiles through the cache. The store key is explicit: (campaign
    /// seed, grid config, suite at its scale, device fingerprint); see
    /// `wade_core::campaign_store_key`.
    pub fn campaign(&self) -> CampaignData {
        let config = CampaignConfig::paper_full();
        let suite = experiment_suite();
        let key = wade_core::campaign_store_key(&server(), &config, &suite, CAMPAIGN_SEED);
        let root = self.store.root().display();
        let (data, hit) = self.store.get_or_put(wade_core::CAMPAIGN_KIND, &key, |_| true, || {
            eprintln!("[wade-bench] collecting full campaign into {root} (first run)…");
            Campaign::new(server(), config)
                .with_profile_cache(self.cache.clone())
                .collect(&suite, CAMPAIGN_SEED)
        });
        if hit {
            eprintln!("[wade-bench] using stored campaign data ({root})");
        }
        data
    }
}

/// Runs one table/figure function of [`experiments`] against the store
/// named on the command line, writing its text to stdout.
pub fn run(figure: fn(&Lab, &mut dyn Write) -> io::Result<()>) -> io::Result<()> {
    figure(&Lab::open(), &mut io::stdout().lock())
}

/// The experiment scale: `Scale::Full` (the paper's inputs) unless
/// `WADE_SCALE=test` asks for the reduced CI-friendly inputs. The store
/// keys fold the scale in through the suite, so Test- and Full-scale
/// artifacts never collide.
pub(crate) fn scale() -> Scale {
    match std::env::var("WADE_SCALE") {
        Ok(v) if v.eq_ignore_ascii_case("test") => Scale::Test,
        _ => Scale::Full,
    }
}

/// The workload suite used by the experiments: the paper's 14 configs plus
/// the Fig. 13 extras (lulesh ×2 and the random data-pattern micro), at
/// [`scale`].
pub(crate) fn experiment_suite() -> Vec<Box<dyn Workload>> {
    full_suite(scale())
}

/// Formats a WER in the paper's scientific style.
pub(crate) fn fmt_wer(wer: f64) -> String {
    if wer == 0.0 {
        "0".to_string()
    } else {
        format!("{wer:.2e}")
    }
}
