//! `repro-cold` and `repro-warm`: the shipped `repro_all` at test scale.
//!
//! Untraced runs start `repro_all` as a child process, with its store and
//! working directory in the run's scratch space: the binary writes
//! `EXPERIMENTS.md` into its working directory, and its process-global
//! profile cache and store would make in-process repeats memory-warm
//! rather than disk-warm. Set-up is one cold pass that fills a store; the
//! cold workload then times passes into fresh stores, the warm workload
//! passes against the filled one.
//!
//! Traced runs make the same layer calls as `repro_all` in-process, with
//! explicit store and profile-cache handles (the *mirror*), and time an
//! untraced child pass of the same kind for the overhead. They then probe
//! the store layer in isolation (every fold model read and decoded, and
//! re-written into a scratch store, per learner) and, on the cold
//! workload, the learners store-free.
//!
//! `repro_all` pins its own seeds, so `--seed` changes nothing here.

use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use wade_core::{
    train_error_model, AnyModel, Campaign, CampaignConfig, CampaignData, EvalGrid, MlKind,
    OperatingPoint, ProfileCache, MODEL_KIND,
};
use wade_dram::ErrorSim;
use wade_ecc::{DecodeOutcome, Secded};
use wade_features::FeatureSet;
use wade_store::ArtifactStore;
use wade_workloads::{full_suite, Scale, WorkloadId};

use crate::stats::{digest, mask_latency_line, median};
use crate::{finish_trace, Ctx, Outcome};

/// Digest of `EXPERIMENTS.md` with the latency row masked, as the shipped
/// `repro_all` writes it at test scale. Re-record it (the failure message
/// prints the new value) only when a change is meant to alter the
/// reproduction's results.
const EXPERIMENTS_DIGEST: &str = "9b431672509cb12c";

/// Fold models the paper grid evaluates per pass (all learners).
const GRID_FOLDS: usize = 1323;

/// Fewest timed passes per untraced run.
const MIN_PASSES: usize = 2;

/// One child-process pass of `repro_all`.
struct Pass {
    secs: f64,
    rss_mb: f64,
    /// `EXPERIMENTS.md`, latency row masked.
    masked: String,
}

fn run_pass(ctx: &Ctx, store: &Path) -> Result<Pass, String> {
    let cwd = ctx.work.join("cwd");
    fs::create_dir_all(&cwd).map_err(|e| format!("create {}: {e}", cwd.display()))?;
    let md_path = cwd.join("EXPERIMENTS.md");
    let _ = fs::remove_file(&md_path);
    let log_path = cwd.join("stderr.log");
    let log =
        fs::File::create(&log_path).map_err(|e| format!("create {}: {e}", log_path.display()))?;
    let start = Instant::now();
    let child = Command::new(&ctx.repro_bin)
        .arg("--store-dir")
        .arg(store)
        .current_dir(&cwd)
        .env("WADE_SCALE", "test")
        .env_remove("WADE_STORE_DIR")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("start {}: {e}", ctx.repro_bin.display()))?;
    let (status, rss_mb) =
        crate::sys::wait_with_peak_rss(child).map_err(|e| format!("wait: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    if !status.success() {
        let log = fs::read_to_string(&log_path).unwrap_or_default();
        return Err(format!(
            "repro_all exited with {status}: {}",
            log.trim_end()
        ));
    }
    let md =
        fs::read_to_string(&md_path).map_err(|e| format!("read {}: {e}", md_path.display()))?;
    Ok(Pass {
        secs,
        rss_mb,
        masked: mask_latency_line(&md),
    })
}

/// Counts `pass` as one operation, checked against the recorded digest
/// and, when given, against an earlier pass's output.
fn check_pass(out: &mut Outcome, pass: &Pass, what: &str, same_as: Option<&Pass>) {
    let got = digest(pass.masked.as_bytes());
    out.op(got == EXPERIMENTS_DIGEST, || {
        format!("{what}: EXPERIMENTS.md digest {got}, recorded {EXPERIMENTS_DIGEST}")
    });
    if let Some(other) = same_as {
        out.op(pass.masked == other.masked, || {
            format!("{what}: output differs from the cold pass")
        });
    }
}

pub fn run(ctx: &Ctx, warm: bool) -> Result<Outcome, String> {
    if ctx.traced() {
        return run_traced(ctx, warm);
    }
    let mut out = Outcome::default();
    let fill_store = ctx.work.join("fill-store");
    let fill = run_pass(ctx, &fill_store)?;
    check_pass(&mut out, &fill, "set-up pass", None);
    out.set("setup_s", fill.secs);

    let (mut secs, mut rss) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while secs.len() < MIN_PASSES || start.elapsed().as_secs_f64() < ctx.seconds {
        let pass = if warm {
            let pass = run_pass(ctx, &fill_store)?;
            check_pass(&mut out, &pass, "warm pass", Some(&fill));
            pass
        } else {
            let store = ctx.work.join(format!("cold-store-{}", secs.len()));
            let pass = run_pass(ctx, &store)?;
            check_pass(&mut out, &pass, "cold pass", None);
            let _ = fs::remove_dir_all(&store);
            pass
        };
        secs.push(pass.secs);
        rss.push(pass.rss_mb);
    }
    eprintln!("[perfbench] passes (s): {secs:?}");
    let pass_s = median(&secs);
    out.set("latency_ms", pass_s * 1e3);
    out.set("peak_rss_mb", median(&rss));
    Ok(out)
}

fn run_traced(ctx: &Ctx, warm: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let fill_store = ctx.work.join("fill-store");
    let fill = run_pass(ctx, &fill_store)?;
    check_pass(&mut out, &fill, "set-up pass", None);
    // The untraced twin of the mirror: a warm pass, or the cold fill.
    let untraced = if warm {
        let pass = run_pass(ctx, &fill_store)?;
        check_pass(&mut out, &pass, "warm pass", Some(&fill));
        pass
    } else {
        fill
    };

    let mirror_store = if warm {
        fill_store.clone()
    } else {
        ctx.work.join("mirror-store")
    };
    let start = Instant::now();
    let mirror = mirror(ctx, &mirror_store);
    let wall_s = start.elapsed().as_secs_f64();
    finish_trace(ctx, &mut out, wall_s, wall_s / untraced.secs - 1.0);
    mirror.check(&mut out, &untraced.masked, warm);
    mirror.report(ctx, &mut out);

    probe_store(ctx, &mut out, &mirror_store)?;
    if !warm {
        probe_learners(&mut out, &mirror.data);
    }
    Ok(out)
}

/// What the mirror of `repro_all` saw.
struct Mirror {
    data: CampaignData,
    store: Arc<ArtifactStore>,
    cache: Arc<ProfileCache>,
    workloads: usize,
    dram_runs: u64,
    grids: Vec<(MlKind, EvalGrid)>,
    predictions: u64,
}

/// `repro_all`'s layer calls, in its order, with a span around each.
fn mirror(ctx: &Ctx, store_dir: &Path) -> Mirror {
    let tr = &ctx.tracer;
    let store = Arc::new(ArtifactStore::open(store_dir));
    let cache = Arc::new(ProfileCache::with_store(store.clone()));
    let server = wade_bench::server();
    let seed = wade_bench::CAMPAIGN_SEED;
    let suite = full_suite(Scale::Test);
    let config = CampaignConfig::paper_full();
    let campaign = Campaign::new(server.clone(), config.clone()).with_profile_cache(cache.clone());

    tr.time("profile.profile_suite", || {
        campaign.profile_suite(&suite, seed)
    });
    let hits = store.hits();
    let data = tr.time("dram.collect_stored", || {
        campaign.clone().collect_stored(&store, &suite, seed)
    });
    let collected = store.hits() == hits;
    let mut dram_runs = 0;
    if collected {
        dram_runs = data
            .rows
            .iter()
            .map(|r| u64::from(r.wer_run.is_some()) + r.pue_runs.len() as u64)
            .sum();
    }

    tr.time("ecc.table1", || {
        let codec = Secded::new();
        let word = codec.encode(0xDEAD_BEEF);
        let ce = (0..72u8)
            .filter(|&l| {
                matches!(
                    codec.decode(word.with_flipped(l)),
                    DecodeOutcome::Corrected { .. }
                )
            })
            .count();
        let ue = (0..72u8)
            .flat_map(|a| ((a + 1)..72).map(move |b| (a, b)))
            .filter(|&(a, b)| {
                codec.decode(word.with_flipped(a).with_flipped(b))
                    == DecodeOutcome::DetectedUncorrectable
            })
            .count();
        assert_eq!((ce, ue), (72, 2556), "SECDED classes");
    });

    let grids: Vec<(MlKind, EvalGrid)> = MlKind::ALL
        .iter()
        .map(|&kind| {
            let grid = tr.time(&format!("grid.evaluate.{}", kind.label()), || {
                EvalGrid::evaluate_targets_with(
                    Some(store.clone()),
                    &data,
                    &[kind],
                    &FeatureSet::ALL,
                    true,
                    true,
                )
            });
            (kind, grid)
        })
        .collect();

    // Fig. 13: a model trained without lulesh predicts two lulesh builds
    // and the random micro, each profiled and simulated at one corner op.
    let mut predictions = 0;
    let op = OperatingPoint::relaxed(0.618, 70.0);
    let mut train_data = data.clone();
    train_data
        .rows
        .retain(|r| !r.workload.starts_with("lulesh"));
    let model = tr.time("model.train_error_model", || {
        train_error_model(&train_data, MlKind::Knn, FeatureSet::Set1)
    });
    for id in [
        WorkloadId::LuleshO2,
        WorkloadId::LuleshF,
        WorkloadId::MicroRandom,
    ] {
        let wl = id.instantiate(8, Scale::Test);
        let p = tr.time("profile.profile", || {
            cache.profile(&server, wl.as_ref(), seed)
        });
        let run = tr.time("dram.run", || {
            ErrorSim::new(server.device()).run(&p.profile, op, 7200.0, 5)
        });
        let predicted = tr.time("model.predict_wer_total", || {
            model.predict_wer_total(&p.features, op)
        });
        assert!(run.wer().is_finite() && predicted.is_finite());
        dram_runs += 1;
        predictions += 1;
    }

    // §VI-B: prediction latency.
    let model = tr.time("model.train_error_model", || {
        train_error_model(&data, MlKind::Knn, FeatureSet::Set1)
    });
    let row = &data.rows[0];
    let acc: f64 = tr.time("model.predict_wer_total", || {
        (0..1000)
            .map(|_| model.predict_wer_total(&row.features, row.op))
            .sum()
    });
    assert!(acc.is_finite());
    predictions += 1000;

    Mirror {
        data,
        store,
        cache,
        workloads: suite.len(),
        dram_runs,
        grids,
        predictions,
    }
}

impl Mirror {
    /// The mirror computed what the shipped binary printed, and a warm
    /// mirror trained nothing.
    fn check(&self, out: &mut Outcome, shipped_md: &str, warm: bool) {
        let rows = format!("{} campaign rows", self.data.rows.len());
        out.op(shipped_md.contains(&rows), || {
            format!("mirror: `{rows}` not in EXPERIMENTS.md")
        });
        for (kind, grid) in &self.grids {
            for set in FeatureSet::ALL {
                let wer = format!(
                    "{}/{}: {:.1}%",
                    kind.label(),
                    set,
                    grid.wer_report(*kind, set).average
                );
                out.op(shipped_md.contains(&wer), || {
                    format!("mirror: WER cell `{wer}` not in EXPERIMENTS.md")
                });
                let pue = grid.pue_error(*kind, set);
                if pue.is_finite() {
                    let pue = format!("{}/{}: {pue:.1}pp", kind.label(), set);
                    out.op(shipped_md.contains(&pue), || {
                        format!("mirror: PUE cell `{pue}` not in EXPERIMENTS.md")
                    });
                }
            }
        }
        let trainings: usize = self.grids.iter().map(|(_, g)| g.trainings()).sum();
        let hits: usize = self.grids.iter().map(|(_, g)| g.store_hits()).sum();
        let expected = if warm {
            (0, GRID_FOLDS)
        } else {
            (GRID_FOLDS, 0)
        };
        out.op((trainings, hits) == expected, || {
            format!("mirror: {trainings} trainings and {hits} store hits, expected {expected:?}")
        });
    }

    fn report(&self, ctx: &Ctx, out: &mut Outcome) {
        let tr = &ctx.tracer;
        out.set("profile.workloads", self.workloads as f64);
        let (hits, disk, misses) = (
            self.cache.hits(),
            self.cache.disk_hits(),
            self.cache.misses(),
        );
        out.set(
            "profile.cache_hit_ratio",
            ratio((hits + disk) as f64, (hits + disk + misses) as f64),
        );
        out.set("dram.runs", self.dram_runs as f64);
        out.set(
            "dram.runs_per_s",
            ratio(self.dram_runs as f64, tr.self_s("dram.")),
        );
        out.set(
            "grid.trainings",
            self.grids.iter().map(|(_, g)| g.trainings()).sum::<usize>() as f64,
        );
        out.set(
            "grid.store_hits",
            self.grids
                .iter()
                .map(|(_, g)| g.store_hits())
                .sum::<usize>() as f64,
        );
        out.set(
            "model.predictions_per_s",
            ratio(self.predictions as f64, tr.self_s("model.predict")),
        );
        let s = &self.store;
        out.set(
            "store.hit_ratio",
            ratio(s.hits() as f64, (s.hits() + s.misses()) as f64),
        );
        out.set("store.corrupt", s.corrupt() as f64);
        out.set("store.retries", s.retries() as f64);
        out.set("store.io_errors", s.io_errors() as f64);
        out.set("store.degraded_ops", s.degraded_ops() as f64);
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Reads and decodes every fold model of `store_dir`, per learner, then
/// writes the decoded values into a scratch store.
fn probe_store(ctx: &Ctx, out: &mut Outcome, store_dir: &Path) -> Result<(), String> {
    let store = ArtifactStore::open(store_dir);
    let scratch = ArtifactStore::open(ctx.work.join("probe-write-store"));
    let entries: Vec<(String, u64)> = store
        .ls()
        .into_iter()
        .filter(|m| m.kind == MODEL_KIND && m.ok)
        .filter_map(|m| m.key.map(|k| (k, m.file_bytes)))
        .collect();
    let (mut write_s, mut write_bytes) = (0.0, 0u64);
    for (kind, artifacts, read_mb, read_rate) in [
        (
            MlKind::Svm,
            "store.artifacts.svm",
            "store.read_mb.svm",
            "store.read_mb_per_s.svm",
        ),
        (
            MlKind::Knn,
            "store.artifacts.knn",
            "store.read_mb.knn",
            "store.read_mb_per_s.knn",
        ),
        (
            MlKind::Rdf,
            "store.artifacts.rdf",
            "store.read_mb.rdf",
            "store.read_mb_per_s.rdf",
        ),
    ] {
        let prefix = format!("model|trainer={}|", kind.label());
        let mine: Vec<&(String, u64)> = entries
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .collect();
        let bytes: u64 = mine.iter().map(|(_, b)| b).sum();
        let start = Instant::now();
        let models: Vec<(&String, Option<AnyModel>)> = mine
            .iter()
            .map(|(k, _)| (k, store.get::<AnyModel>(MODEL_KIND, k)))
            .collect();
        let read_s = start.elapsed().as_secs_f64();
        let decoded = models.iter().filter(|(_, m)| m.is_some()).count();
        out.op(decoded == mine.len() && !mine.is_empty(), || {
            format!(
                "store probe: {decoded} of {} {} artifacts decoded",
                mine.len(),
                kind.label()
            )
        });
        let start = Instant::now();
        for (key, model) in models
            .iter()
            .filter_map(|(k, m)| m.as_ref().map(|m| (k, m)))
        {
            scratch
                .put(MODEL_KIND, key, model)
                .map_err(|e| format!("store probe write: {e}"))?;
        }
        write_s += start.elapsed().as_secs_f64();
        write_bytes += bytes;
        let mb = bytes as f64 / 1e6;
        out.set(artifacts, mine.len() as f64);
        out.set(read_mb, mb);
        out.set(read_rate, ratio(mb, read_s));
    }
    out.set(
        "store.write_mb_per_s",
        ratio(write_bytes as f64 / 1e6, write_s),
    );
    Ok(())
}

/// Trains every fold of the grid store-free, one learner at a time.
fn probe_learners(out: &mut Outcome, data: &CampaignData) {
    let mut folds = 0;
    for (kind, metric) in [
        (MlKind::Svm, "ml.folds_per_s.svm"),
        (MlKind::Knn, "ml.folds_per_s.knn"),
        (MlKind::Rdf, "ml.folds_per_s.rdf"),
    ] {
        let start = Instant::now();
        let grid =
            EvalGrid::evaluate_targets_with(None, data, &[kind], &FeatureSet::ALL, true, true);
        let secs = start.elapsed().as_secs_f64();
        folds += grid.trainings();
        out.set(metric, ratio(grid.trainings() as f64, secs));
    }
    out.set("ml.folds", folds as f64);
}
