//! Performance tracker for the current system: times the hot paths this
//! workspace optimizes against the references the library still ships,
//! checks every fast path byte-for-byte against its reference (untimed),
//! and writes the machine-readable `BENCH_sim.json` snapshot that later
//! changes compare against.
//!
//! Every speedup divides by kept code: a 1-thread pool, the per-cell
//! weak-cell walk `ErrorSim::run_reference`, direct (unprepared)
//! characterization, the per-access profiling path
//! `SimulatedServer::profile_workload_unbatched`, the pointer forest, the
//! exhaustive KNN scan, the tree-building JSON reader, the exact codec's
//! per-element reader and writer, a cold store or a cold fleet sweep. Ratios once measured against retired pre-optimization
//! reconstructions are frozen in ARCHITECTURE.md §8 (*Historical
//! baselines*). End-to-end and per-stage attribution of `repro_all` and
//! the fleet lives in `perfbench/`.
//!
//! The report's `results` are one table, [`SECTIONS`]: each entry is a
//! section name and a function that builds that section's fixtures (the
//! quick Test-scale campaign, scratch stores) and returns its JSON map.
//! The perf run starts one child process per entry, `bench section NAME
//! [--smoke]`, with a scratch `TMPDIR` of its own that it removes once
//! the child exits. The child prints only its section's JSON on stdout,
//! and the parent merges the sections in table order. No section runs
//! on the heap, pools or temp files another left behind, so each ratio
//! times only its own code. A child that exits non-zero fails the run
//! before the report is written. No section is handed the real store.
//!
//! Usage: `cargo run --release -p wade-bench --bin bench [--smoke]
//! [output.json]`. `--smoke` takes one sample per timing and smaller
//! fixtures. An unknown flag, a flag the mode does not read (`bench store
//! ls --devices 48`), or more positional arguments than the mode reads,
//! exits 2 with a usage line.
//!
//! Store maintenance subcommands (`--store-dir DIR` / `WADE_STORE_DIR`
//! select the store, default `target/wade-store`):
//!
//! * `bench store ls` — list artifacts (kind, size, integrity, key)
//! * `bench store gc [--max-bytes N]` — drop corrupt/foreign-version
//!   entries; with a cap, also evict valid entries least-recently-accessed
//!   first until the store holds at most N bytes
//! * `bench store clear` — remove the whole store
//! * `bench store torture [--seed N] [--ops M] [--threads T]
//!   [--fault-rate F]` — drive a *scratch* store (never the real one)
//!   through a deterministic fault schedule and assert the no-corruption
//!   invariant (exit 1 on any wrong-value read); T must be in `1..=64`
//!   and F in `[0, 1]`, or it exits 2. A seed fixes the op mix; at
//!   `--threads 1` it also replays the fault schedule and every count
//!
//! Serving subcommand:
//!
//! * `bench serve load [--threads T] [--requests N] [--seed S]` — drive
//!   the seeded load generator against a live in-process wade-serve
//!   instance and verify every response byte-for-byte against direct
//!   `predict_rows` (exit 1 on any error or mismatch); T must be in
//!   `1..=64`, or it exits 2
//!
//! Fleet subcommands (`--store-dir` selects the slice store):
//!
//! * `bench fleet sweep [--devices N] [--shards S] [--epochs E]
//!   [--seed K]` — sweep a heterogeneous device fleet through the store
//!   (warm epoch slices are pure reads) and report failures and store
//!   traffic
//! * `bench fleet extend [same flags] [--extend-to E2]` — sweep at E
//!   epochs, then extend the same fleet to E2 (default E+4) reusing the
//!   persisted epoch prefix; prints a `prefix warm` line and exits 1 if
//!   the extension simulated anything beyond the new epochs' delta
//! * `bench fleet eval [same flags]` — sweep, then run the field-style
//!   evaluation: lead-time precision/recall, the mitigation-cost curve
//!   and the cross-vintage transfer matrix

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use std::sync::Arc;
use std::time::Instant;
use wade_bench::cli::Args;
use wade_core::{
    build_wer_dataset, train_error_model, AccuracyReport, AnyModel, Campaign, CampaignConfig,
    CampaignData, ErrorModel, EvalGrid, MlKind, ProfileCache, SimulatedServer,
};
use wade_dram::{DramDevice, DramUsageProfile, ErrorSim, OperatingPoint, RANK_COUNT};
use wade_features::FeatureSet;
use wade_ml::{
    DecisionTree, FeatureColumns, ForestTrainer, KnnTrainer, Regressor, Trainer, TreeParams,
};
use wade_store::torture::{TortureConfig, TortureReport};
use wade_workloads::{full_suite, paper_suite, Scale};

/// Every flag that takes a value (`--flag VALUE` or `--flag=VALUE`) in
/// some mode. Any other `--flag` but the `--smoke` switch is rejected;
/// each mode then accepts only the flags it reads (`mode_flags`).
const VALUE_FLAGS: [&str; 11] = [
    "--store-dir",
    "--seed",
    "--ops",
    "--threads",
    "--fault-rate",
    "--max-bytes",
    "--requests",
    "--devices",
    "--shards",
    "--epochs",
    "--extend-to",
];

/// The value flags and switches the mode named by `positional` reads. An
/// unknown action gets every flag, so its own usage error is the one shown.
fn mode_flags(positional: &[&str]) -> (&'static [&'static str], &'static [&'static str]) {
    match positional {
        ["store", "ls" | "clear"] => (&["--store-dir"], &[]),
        ["store", "gc"] => (&["--store-dir", "--max-bytes"], &[]),
        ["store", "torture"] => (&["--seed", "--ops", "--threads", "--fault-rate"], &[]),
        ["serve", "load"] => (&["--threads", "--requests", "--seed"], &[]),
        ["fleet", "sweep" | "eval"] => {
            (&["--devices", "--shards", "--epochs", "--seed", "--store-dir"], &[])
        }
        ["fleet", "extend"] => {
            (&["--devices", "--shards", "--epochs", "--seed", "--store-dir", "--extend-to"], &[])
        }
        ["store" | "serve" | "fleet", ..] => (&VALUE_FLAGS, &[]),
        _ => (&[], &["--smoke"]),
    }
}

fn main() {
    // Flags may sit anywhere: `bench --store-dir X store clear` and
    // `bench store clear --store-dir X` both reach the subcommand.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = wade_bench::cli::parse(&argv, &VALUE_FLAGS, &["--smoke"])
        .unwrap_or_else(|msg| usage_error(&msg));
    let positional: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    // A subcommand reads its name and one action (a section, its name);
    // the perf run reads one output path.
    let subcommand = matches!(positional.first(), Some(&("store" | "serve" | "fleet" | "section")));
    let expected = if subcommand { 2 } else { 1 };
    if positional.len() > expected {
        usage_error(&format!("unexpected argument {}", positional[expected]));
    }
    // A flag the mode does not read is an error, not a silent default:
    // `bench store ls --devices 48` must not list the store and exit 0.
    let mode: &[&str] = if subcommand { &positional } else { &[] };
    let (value_flags, switches) = mode_flags(mode);
    let args = wade_bench::cli::parse(&argv, value_flags, switches).unwrap_or_else(|msg| {
        let name = if subcommand { positional.join(" ") } else { "[OUT.json]".to_string() };
        usage_error(&format!("{msg} for `bench {name}`"))
    });
    let smoke = args.value("--smoke").is_some();
    match positional.first().copied() {
        Some("store") => store_command(positional.get(1).copied(), &args),
        Some("serve") => serve_command(positional.get(1).copied(), &args),
        Some("fleet") => fleet_command(positional.get(1).copied(), &args),
        Some("section") => section_command(positional.get(1).copied(), smoke),
        out_path => perf_snapshot(out_path.unwrap_or("BENCH_sim.json"), smoke),
    }
}

/// Prints `msg` and the top-level usage line, then exits with status 2.
fn usage_error(msg: &str) -> ! {
    wade_bench::cli::exit_usage(
        msg,
        &format!(
            "bench [--smoke] [OUT.json] | bench store <ls|gc|clear|torture> | \
             bench serve load | bench fleet <sweep|extend|eval>   (flags: {})",
            VALUE_FLAGS.join(" ")
        ),
    )
}

/// One `results` section: its name and the function that measures it
/// (`true` for `--smoke`) and returns its JSON map.
type Section = (&'static str, fn(bool) -> Value);

/// Every `results` section, in report order.
const SECTIONS: [Section; 16] = [
    ("run_2h_1GiB_50C", |smoke| run_2h_1gib(smoke, 2.283, 50.0)),
    ("run_2h_1GiB_60C", |smoke| run_2h_1gib(smoke, 2.283, 60.0)),
    ("run_2h_1GiB_70C", |smoke| run_2h_1gib(smoke, 2.283, 70.0)),
    ("run_2h_1GiB_60C_trefp0.618", |smoke| run_2h_1gib(smoke, 0.618, 60.0)),
    ("fleet_epoch_sim", fleet_epoch_sim),
    ("campaign_pue_repeats", campaign_pue_repeats),
    ("workload_profiling", workload_profiling),
    ("campaign_quick_grid", campaign_quick_grid),
    ("ml_training", ml_training),
    ("artifact_store", artifact_store),
    ("store_fault", store_fault),
    ("serving", serving),
    ("prediction_hot_path", prediction_hot_path),
    ("predict_rows_batches", |_| predict_rows_batches(&quick_campaign())),
    ("fleet", fleet),
    ("fleet_incremental", fleet_incremental),
];

/// The perf run: every section of [`SECTIONS`] in a child process of its
/// own, merged in table order and written to `out_path` as `{schema,
/// threads, host, results}`, then echoed to stdout.
///
/// `smoke` takes one sample per configuration instead of the median of
/// several, and smaller fixtures (CI runners).
fn perf_snapshot(out_path: &str, smoke: bool) {
    let exe = std::env::current_exe().expect("locate the bench binary");
    let results = SECTIONS.map(|(name, _)| (name.to_string(), run_child(&exe, name, smoke)));
    let threads = rayon::current_num_threads();
    let logical_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let wade_scale = std::env::var("WADE_SCALE").unwrap_or_else(|_| "unset".to_string());
    let report = map([
        ("schema", Value::Str("wade-bench-sim/2".to_string())),
        ("threads", count(threads)),
        (
            "host",
            map([
                ("logical_cores", count(logical_cores)),
                ("rayon_threads", count(threads)),
                ("wade_scale", Value::Str(wade_scale)),
            ]),
        ),
        ("results", Value::Map(results.into())),
    ]);
    let json = serde_json::to_string_pretty(&report).expect("serialize the snapshot") + "\n";
    std::fs::write(out_path, &json).expect("write BENCH_sim.json");
    println!("{json}");
    eprintln!("[bench] wrote {out_path}");
}

/// Runs `bench section NAME` as a child of this process, with a scratch
/// `TMPDIR` of its own that is removed once it exits, and parses the JSON
/// it prints. Panics, before any report is written, if the child fails.
fn run_child(exe: &std::path::Path, name: &str, smoke: bool) -> Value {
    eprintln!("[bench] {name} …");
    let tmp = std::env::temp_dir().join(format!("wade-bench-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create the section's scratch directory");
    let mut child = std::process::Command::new(exe);
    child.args(["section", name]).args(smoke.then_some("--smoke")).env("TMPDIR", &tmp);
    let output = child.stderr(std::process::Stdio::inherit()).output().expect("start a section");
    let _ = std::fs::remove_dir_all(&tmp);
    assert!(output.status.success(), "section {name} failed ({})", output.status);
    serde_json::from_str(&String::from_utf8_lossy(&output.stdout))
        .expect("a section prints one JSON value")
}

/// `bench section NAME [--smoke]`: measures one entry of [`SECTIONS`] and
/// prints only its JSON on stdout. `perf_snapshot` runs each section this
/// way; run alone, a section leaves its scratch stores in the temp
/// directory.
fn section_command(name: Option<&str>, smoke: bool) {
    let Some(&(_, measure)) = SECTIONS.iter().find(|(n, _)| Some(*n) == name) else {
        wade_bench::cli::exit_usage(
            &format!("expected a section name, got {name:?}"),
            &format!("bench section <{}> [--smoke]", SECTIONS.map(|(n, _)| n).join("|")),
        )
    };
    println!("{}", serde_json::to_string(&measure(smoke)).expect("serialize the section"));
}

/// Samples per timing of the (reference, current) side: one each in a
/// smoke run.
fn samples(smoke: bool) -> (usize, usize) {
    if smoke {
        (1, 1)
    } else {
        (3, 5)
    }
}

/// The quick Test-scale campaign that `ml_training`, `artifact_store`,
/// `serving`, `prediction_hot_path` and `predict_rows_batches` each
/// collect for themselves. Store-free: the bench must not warm or depend
/// on the real store.
fn quick_campaign() -> CampaignData {
    Campaign::new(SimulatedServer::with_seed(5), CampaignConfig::quick())
        .collect(&paper_suite(Scale::Test), 8)
}

/// `run_2h_1GiB_*`: one 2-hour run over a 1 GiB footprint at refresh
/// period `trefp_s` and `temp_c`, on a 1-thread pool and on the default
/// pool. [`SECTIONS`] holds the three bench-suite points at the maximum
/// refresh period, plus one short-TREFP grid point where the quantile
/// thinning dominates (the campaign spends most of its grid there).
fn run_2h_1gib(smoke: bool, trefp_s: f64, temp_c: f64) -> Value {
    let (samples, op) = (samples(smoke).1, OperatingPoint::relaxed(trefp_s, temp_c));
    let device = DramDevice::with_seed(42);
    let sim = ErrorSim::new(&device);
    let profile = DramUsageProfile::uniform_synthetic(1 << 27); // 1 GiB
    let one = pool(1);
    let single_ms = median_ms(samples, || {
        one.install(|| sim.run(&profile, op, 7200.0, 1));
    });
    let parallel_ms = median_ms(samples, || {
        sim.run(&profile, op, 7200.0, 1);
    });
    map([("single_thread_ms", ms(single_ms)), ("parallel_ms", ms(parallel_ms))])
}

/// `fleet_epoch_sim`: `ErrorSim::run` on one fleet-representative epoch —
/// device 0 of `FleetSpec::test_default()` (seed 7) running the fleet's
/// first profiled workload for one 900 s epoch at the spec's refresh
/// period, at the top of its temperature swing (70 °C), where a sweep
/// spends most of its simulation time (the weak-cell population grows
/// ~27× per 10 °C) — through the blocked weak-cell walk and through the
/// per-cell reference walk (`ErrorSim::run_reference`), at 1 thread and on
/// the default pool. Each sample runs the epoch under `runs` run seeds.
fn fleet_epoch_sim(smoke: bool) -> Value {
    let spec = wade_fleet::FleetSpec::test_default();
    let seed = 7;
    let engine = wade_fleet::FleetSweep::new(spec, seed);
    let profile = &engine.profiles()[0].profile;
    let device = spec.manufacture(seed, 0);
    let sim = ErrorSim::new(&device);
    let op = OperatingPoint::relaxed(spec.trefp_s, spec.base_temp_c + spec.temp_swing_c);
    let runs = if smoke { 8 } else { 32 };
    let time = |reference: bool| {
        median_ms(samples(smoke).1, || {
            for run_seed in 0..runs {
                std::hint::black_box(if reference {
                    sim.run_reference(profile, op, spec.epoch_s, run_seed)
                } else {
                    sim.run(profile, op, spec.epoch_s, run_seed)
                });
            }
        })
    };
    let one = pool(1);
    let reference_single_ms = one.install(|| time(true));
    let blocked_single_ms = one.install(|| time(false));
    let reference_parallel_ms = time(true);
    let blocked_parallel_ms = time(false);
    let identical = (0..runs).all(|run_seed| {
        let reference = sim.run_reference(profile, op, spec.epoch_s, run_seed);
        reference == sim.run(profile, op, spec.epoch_s, run_seed)
            && reference == one.install(|| sim.run(profile, op, spec.epoch_s, run_seed))
    });
    map([
        ("runs", Value::U64(runs)),
        ("temp_c", Value::F64(op.temp_c)),
        ("epoch_s", Value::F64(spec.epoch_s)),
        ("reference_single_thread_ms", ms(reference_single_ms)),
        ("blocked_single_thread_ms", ms(blocked_single_ms)),
        ("reference_parallel_ms", ms(reference_parallel_ms)),
        ("blocked_parallel_ms", ms(blocked_parallel_ms)),
        ("speedup", speedup(reference_single_ms, blocked_single_ms)),
        ("speedup_parallel", speedup(reference_parallel_ms, blocked_parallel_ms)),
        ("byte_identical", Value::Bool(identical)),
    ])
}

/// `campaign_pue_repeats`: PUE repeats and TREFP set-points share one
/// weak-cell population, so the prepared path realizes it once per
/// workload and replays run randomness only. `direct` times
/// `Campaign::characterize` (`ErrorSim::run` per run); `prepared` times
/// `Campaign::prepare` + `characterize_prepared` over the same grid and
/// seeds.
fn campaign_pue_repeats(smoke: bool) -> Value {
    let (ref_samples, cur_samples) = samples(smoke);
    let repeats = 10u32;
    let ops: Vec<OperatingPoint> =
        OperatingPoint::PUE_TREFP_SWEEP.iter().map(|&t| OperatingPoint::relaxed(t, 70.0)).collect();
    let campaign = Campaign::new(
        SimulatedServer::with_seed(5),
        CampaignConfig {
            run_duration_s: 7200.0,
            pue_repeats: repeats,
            wer_ops: Vec::new(),
            pue_ops: ops.clone(),
        },
    );
    let suite = paper_suite(Scale::Test);
    let profiled: Vec<_> = suite.iter().take(3).map(|w| campaign.profile(w.as_ref(), 1)).collect();
    let direct_ms = median_ms(ref_samples, || {
        for (i, p) in profiled.iter().enumerate() {
            for &op in &ops {
                campaign.characterize(p, op, repeats, 1000 + i as u64);
            }
        }
    });
    let prepared_ms = median_ms(cur_samples, || {
        for (i, p) in profiled.iter().enumerate() {
            let prep = campaign.prepare(p, &ops);
            for &op in &ops {
                campaign.characterize_prepared(&prep, op, repeats, 1000 + i as u64);
            }
        }
    });
    let identical = {
        let p = &profiled[0];
        let prep = campaign.prepare(p, &ops);
        ops.iter().all(|&op| {
            campaign.characterize(p, op, repeats, 77)
                == campaign.characterize_prepared(&prep, op, repeats, 77)
        })
    };
    map([
        ("workloads", count(profiled.len())),
        ("ops", count(ops.len())),
        ("repeats", Value::U64(repeats.into())),
        ("direct_ms", ms(direct_ms)),
        ("prepared_ms", ms(prepared_ms)),
        ("speedup_prepared_vs_direct", speedup(direct_ms, prepared_ms)),
        ("byte_identical", Value::Bool(identical)),
    ])
}

/// `workload_profiling`: the whole suite through the per-access reference
/// (`profile_workload_unbatched`, one virtual call per access) versus the
/// batched front-end, serial, then batched + parallel through a profile
/// cache. `cold` is a first campaign's cost (cache misses); `warm` is
/// every later campaign in the process (all hits).
fn workload_profiling(smoke: bool) -> Value {
    let (ref_samples, cur_samples) = samples(smoke);
    let suite = full_suite(Scale::Test);
    let server = SimulatedServer::with_seed(5);
    let seed = 1u64;
    let reference_ms = median_ms(ref_samples, || {
        for w in &suite {
            std::hint::black_box(server.profile_workload_unbatched(w.as_ref(), seed));
        }
    });
    let batched_serial_ms = median_ms(cur_samples, || {
        for w in &suite {
            std::hint::black_box(server.profile_workload(w.as_ref(), seed));
        }
    });
    let campaign = |cache: Arc<ProfileCache>| {
        Campaign::new(SimulatedServer::with_seed(5), CampaignConfig::quick())
            .with_profile_cache(cache)
    };
    let cold_ms = median_ms(cur_samples, || {
        // A fresh cache per sample: this is the first-campaign cost.
        campaign(Arc::new(ProfileCache::new())).profile_suite(&suite, seed);
    });
    let warm_cache = Arc::new(ProfileCache::new());
    campaign(warm_cache.clone()).profile_suite(&suite, seed);
    let warm_ms = median_ms(cur_samples, || {
        campaign(warm_cache.clone()).profile_suite(&suite, seed);
    });
    let identical = {
        let warm = campaign(warm_cache.clone()).profile_suite(&suite, seed);
        suite
            .iter()
            .zip(warm.iter())
            .all(|(w, p)| **p == server.profile_workload_unbatched(w.as_ref(), seed))
    };
    map([
        ("workloads", count(suite.len())),
        ("reference_per_access_serial_ms", ms(reference_ms)),
        ("batched_serial_ms", ms(batched_serial_ms)),
        ("batched_parallel_cold_cache_ms", ms(cold_ms)),
        ("batched_parallel_warm_cache_ms", ms(warm_ms)),
        ("speedup_batched_vs_reference", speedup(reference_ms, batched_serial_ms)),
        ("speedup_cold_vs_reference", speedup(reference_ms, cold_ms)),
        ("speedup_cached_vs_reference", speedup(reference_ms, warm_ms)),
        ("byte_identical", Value::Bool(identical)),
    ])
}

/// `campaign_quick_grid`: the quick campaign's parallel scaling, 1 thread
/// versus the full pool.
fn campaign_quick_grid(smoke: bool) -> Value {
    let suite = paper_suite(Scale::Test);
    let collect = |threads: usize| {
        let pool = pool(threads);
        median_ms(samples(smoke).0, || {
            pool.install(|| {
                // A new campaign per sample, so a new empty profile
                // cache: this section tracks the grid's *parallel
                // scaling*, so every sample must pay the same cold
                // profiling cost.
                Campaign::new(SimulatedServer::with_seed(5), CampaignConfig::quick())
                    .collect(&suite, 1)
            });
        })
    };
    let single_ms = collect(1);
    let parallel_ms = collect(rayon::current_num_threads());
    map([
        ("workloads", count(suite.len())),
        ("single_thread_ms", ms(single_ms)),
        ("parallel_ms", ms(parallel_ms)),
        ("parallel_speedup", speedup(single_ms, parallel_ms)),
    ])
}

/// `ml_training`: the full (model × feature set × target) accuracy grid
/// over the quick campaign, evaluated as one shared `EvalGrid` and read by
/// every consumer (fig11, fig12, table3), at 1 thread and on the full
/// pool. The grid must be byte-identical at 1 and 8 threads. Then the
/// forest trainer's split search: 100 seeded trees grown on the calling
/// thread by the pruned search and by the exhaustive reference scan, on
/// the quick campaign's largest Set-3 WER dataset with the forest's
/// bootstrap and `mtry`. Each timed forest builds its `FeatureColumns`
/// once and grows all 100 trees on them, as `train_pointer` does; the two
/// forests must serialize byte-identically.
fn ml_training(smoke: bool) -> Value {
    let (data, samples) = (&quick_campaign(), samples(smoke).1);
    let evaluate =
        || EvalGrid::evaluate_targets_with(None, data, &MlKind::ALL, &FeatureSet::ALL, true, true);
    let consume_grid = |grid: &EvalGrid| {
        // The consumers' reads (memoized reports — cheap by design).
        let mut acc = 0.0;
        for kind in MlKind::ALL {
            for set in FeatureSet::ALL {
                acc += grid.wer_report(kind, set).average; // fig11 + table3
                let pue = grid.pue_error(kind, set); // fig12 + table3
                acc += if pue.is_finite() { pue } else { 0.0 };
            }
        }
        std::hint::black_box(acc);
    };
    let one = pool(1);
    let single_ms = median_ms(samples, || {
        one.install(|| consume_grid(&evaluate()));
    });
    let parallel_ms = median_ms(samples, || {
        consume_grid(&evaluate());
    });
    let identical = grids_equal(&one.install(evaluate), &pool(8).install(evaluate));

    let ds = (0..RANK_COUNT)
        .map(|rank| build_wer_dataset(data, FeatureSet::Set3, rank))
        .max_by_key(|ds| ds.len())
        .expect("at least one rank");
    let (x, y) = (ds.features(), ds.targets());
    let n = x.len();
    let mtry = ((x[0].len() as f64).sqrt().ceil() as usize).max(1);
    let params = TreeParams { mtry, ..TreeParams::default() };
    let grow_forest = |grow: TreeGrower| -> Vec<DecisionTree> {
        let columns = FeatureColumns::new(&x);
        (0..100)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                grow(&columns, &y, &idx, params, &mut rng)
            })
            .collect()
    };
    let exhaustive_ms = median_ms(samples, || {
        std::hint::black_box(grow_forest(DecisionTree::grow_exhaustive));
    });
    let pruned_ms = median_ms(samples, || {
        std::hint::black_box(grow_forest(DecisionTree::grow));
    });
    let json = |trees: Vec<DecisionTree>| serde_json::to_string(&trees).expect("serialize trees");
    let forest_identical =
        json(grow_forest(DecisionTree::grow)) == json(grow_forest(DecisionTree::grow_exhaustive));
    map([
        ("models", count(MlKind::ALL.len())),
        ("feature_sets", count(FeatureSet::ALL.len())),
        ("grid_single_thread_ms", ms(single_ms)),
        ("grid_parallel_ms", ms(parallel_ms)),
        ("byte_identical", Value::Bool(identical)),
        ("forest_exhaustive_ms", ms(exhaustive_ms)),
        ("forest_pruned_ms", ms(pruned_ms)),
        ("speedup_pruned_vs_exhaustive", speedup(exhaustive_ms, pruned_ms)),
        ("forest_byte_identical", Value::Bool(forest_identical)),
    ])
}

/// The signature shared by `DecisionTree::grow` and its exhaustive
/// reference.
type TreeGrower = fn(&FeatureColumns, &[f64], &[usize], TreeParams, &mut StdRng) -> DecisionTree;

/// `artifact_store`: one cold pass (collect the quick campaign and
/// evaluate the grid, publishing profiles, campaign data and models into
/// a scratch store) versus a warm pass (fresh in-memory caches, same
/// store: profiling, collection and training all served from disk). The
/// warm outputs must be byte-identical to the store-free `data` and its
/// grid.
fn artifact_store(smoke: bool) -> Value {
    let (data, (ref_samples, cur_samples)) = (&quick_campaign(), samples(smoke));
    let root = std::env::temp_dir().join(format!("wade-bench-store-{}", std::process::id()));
    let suite = paper_suite(Scale::Test);
    let run_with = |root: &std::path::Path| {
        let store = Arc::new(wade_store::ArtifactStore::open(root));
        let data = Campaign::new(SimulatedServer::with_seed(5), CampaignConfig::quick())
            .with_profile_cache(Arc::new(ProfileCache::with_store(store.clone())))
            .collect_stored(&store, &suite, 8);
        let grid = EvalGrid::evaluate_targets_with(
            Some(store),
            &data,
            &MlKind::ALL,
            &FeatureSet::ALL,
            true,
            true,
        );
        (data, grid)
    };
    let cold_ms = median_ms(ref_samples, || {
        let _ = std::fs::remove_dir_all(&root);
        std::hint::black_box(run_with(&root));
    });
    let warm_ms = median_ms(cur_samples, || {
        std::hint::black_box(run_with(&root));
    });
    let identical = {
        let (warm_data, warm_grid) = run_with(&root);
        let ref_grid =
            EvalGrid::evaluate_targets_with(None, data, &MlKind::ALL, &FeatureSet::ALL, true, true);
        warm_data.to_json().unwrap() == data.to_json().unwrap()
            && grids_equal(&warm_grid, &ref_grid)
    };
    map([
        ("workloads", count(suite.len())),
        ("cold_ms", ms(cold_ms)),
        ("warm_ms", ms(warm_ms)),
        ("speedup_warm_vs_cold", speedup(cold_ms, warm_ms)),
        ("byte_identical", Value::Bool(identical)),
    ])
}

/// `store_fault`: the store torture harness (a fixed deterministic op mix
/// over a scratch store) run healthy versus at a 10 % per-op fault rate.
/// The faulty run pays retries, backoff sleeps and recomputes; the
/// interesting numbers are the overhead ratio and that the no-corruption
/// invariant held in both runs.
fn store_fault(smoke: bool) -> Value {
    let ops: u64 = if smoke { 400 } else { 4_000 };
    let torture_run =
        |fault_rate| torture_in_scratch(&TortureConfig { seed: 42, ops, threads: 4, fault_rate });
    let (healthy_ms, healthy) = torture_run(0.0);
    let (faulty_ms, faulty) = torture_run(0.10);
    map([
        ("ops", Value::U64(ops)),
        ("threads", Value::U64(4)),
        ("fault_rate", Value::F64(0.1)),
        ("healthy_ms", ms(healthy_ms)),
        ("faulty_ms", ms(faulty_ms)),
        ("overhead_faulty_vs_healthy", speedup(faulty_ms, healthy_ms)),
        ("faults_injected", Value::U64(faulty.faults.total())),
        ("retries", Value::U64(faulty.retries)),
        ("io_errors", Value::U64(faulty.io_errors)),
        ("degraded_ops", Value::U64(faulty.degraded_ops)),
        ("no_wrong_reads", Value::Bool(healthy.ok() && faulty.ok())),
    ])
}

/// `serving`: a deterministic load mix (pure in the seed) against a live
/// wade-serve instance on a loopback socket, with every 200 body compared
/// byte-for-byte against serializing the registry's own `predict_rows` on
/// the same rows.
fn serving(smoke: bool) -> Value {
    let (threads, requests) = if smoke { (4usize, 64u64) } else { (8, 256) };
    let seed = 11u64;
    let (report, hist) = serve_load(&quick_campaign(), threads, requests, seed);
    map([
        ("threads", count(threads)),
        ("requests", Value::U64(requests)),
        ("seed", Value::U64(seed)),
        ("rows", Value::U64(report.rows)),
        ("p50_latency_ms", ms(report.p50_ms)),
        ("p99_latency_ms", ms(report.p99_ms)),
        ("throughput_rps", round(report.throughput_rps, 1)),
        ("batch_size_hist", Value::Seq(hist.into_iter().map(Value::U64).collect())),
        ("no_errors", Value::Bool(report.errors == 0)),
        ("byte_identical", Value::Bool(report.mismatches == 0)),
    ])
}

/// `prediction_hot_path` (ARCHITECTURE.md §14): the flat-arena forest
/// against the pointer-tree ensemble it was flattened from, the
/// axis-pruned KNN search against the exhaustive reference scan, the
/// streaming warm read against the tree-building deserializer, the
/// store's exact-codec read of the same model against the streaming
/// decimal read, and the exact codec's one-pass decode and encode of a
/// fold-model mix against its per-element reference ([`fold_models`],
/// reported in MB/s) — with byte-identity of every pair asserted
/// (untimed).
/// Both sides of each prediction pair are serial per-row maps on the
/// calling thread, so the ratios measure the layout, not the pool. The
/// forest pair is timed interleaved ([`interleaved_min_ms`], 8 batches of
/// 250 rows), so a change in the host's speed cannot favour one side.
///
/// The forest pair runs on a seeded synthetic dataset sized like a
/// production serving model (hundreds of rows → ~50k arena nodes): a
/// Test-scale campaign dataset grows a forest so small that the whole
/// ensemble is L1-resident and the layout under test is invisible.
fn prediction_hot_path(smoke: bool) -> Value {
    let (data, (ref_samples, cur_samples)) = (&quick_campaign(), samples(smoke));
    let mut rng = 0xC0FFEE_u64;
    let mut next = move || {
        // SplitMix64 → uniform f64 in [0, 1): seeded, dependency-free.
        rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let dim = 7;
    let forest_x: Vec<Vec<f64>> =
        (0..1000).map(|_| (0..dim).map(|_| next() * 10.0).collect()).collect();
    let forest_y: Vec<f64> = forest_x
        .iter()
        .map(|r| r[0].sin() * 3.0 + r[1] * 0.5 + (r[2] * r[3]).sqrt() + next())
        .collect();
    let queries: Vec<Vec<f64>> =
        (0..2000).map(|_| (0..dim).map(|_| next() * 10.0).collect()).collect();
    let trainer = ForestTrainer::paper_default();
    let pointer_forest = trainer.train_pointer(&forest_x, &forest_y);
    let arena_forest = trainer.train(&forest_x, &forest_y);
    let batches: Vec<&[Vec<f64>]> = queries.chunks(250).collect();
    let [pointer_ms, arena_ms] = interleaved_min_ms(&batches, |side, batch| {
        let out: Vec<f64> = if side == 0 {
            batch.iter().map(|q| pointer_forest.predict(q)).collect()
        } else {
            batch.iter().map(|q| arena_forest.predict(q)).collect()
        };
        std::hint::black_box(out);
    });
    // KNN gets correlated features (low intrinsic dimension): campaign
    // features all ride the same temperature/voltage operating point, and
    // that correlation — preserved by z-scoring — is what makes a single
    // axis distance a useful lower bound on the full distance (on
    // isotropic random data a single-axis bound prunes nothing). The
    // Test-scale campaign dataset itself is too small to measure a scan
    // (34 rows), so the bench mirrors its correlation structure at
    // serving scale.
    let knn_x: Vec<Vec<f64>> = (0..600)
        .map(|_| {
            let t = next() * 10.0;
            (0..dim).map(|j| t * (1.0 + 0.1 * j as f64) + next() * 0.3).collect()
        })
        .collect();
    let knn_y: Vec<f64> = knn_x.iter().map(|r| r[0] * 2.0 + r[3]).collect();
    // Near-miss queries (perturbed training rows): KNN's exact-hit
    // short-circuit must not mask the scan cost being compared.
    let knn_queries: Vec<Vec<f64>> = (0..2000)
        .map(|i| {
            let row = &knn_x[i % knn_x.len()];
            row.iter().enumerate().map(|(j, v)| v * 1.0009 + 0.001 * j as f64).collect()
        })
        .collect();
    let knn_model = KnnTrainer::paper_default().train(&knn_x, &knn_y);
    let knn_exhaustive_ms = median_ms(ref_samples, || {
        let out: Vec<f64> = knn_queries.iter().map(|q| knn_model.predict_exhaustive(q)).collect();
        std::hint::black_box(out);
    });
    let knn_pruned_ms = median_ms(cur_samples, || {
        let out: Vec<f64> = knn_queries.iter().map(|q| knn_model.predict(q)).collect();
        std::hint::black_box(out);
    });
    let payload = train_error_model(data, MlKind::Rdf, FeatureSet::Set1).to_json().unwrap();
    let warm_tree_ms = median_ms(ref_samples, || {
        std::hint::black_box(serde_json::from_str_value::<ErrorModel>(&payload).unwrap());
    });
    let warm_streaming_ms = median_ms(cur_samples, || {
        std::hint::black_box(serde_json::from_str::<ErrorModel>(&payload).unwrap());
    });
    // The same model in the store's exact payload codec.
    let streamed = serde_json::from_str::<ErrorModel>(&payload).unwrap();
    let exact_payload = serde_json::to_string_exact(&streamed).unwrap();
    let warm_exact_ms = median_ms(cur_samples, || {
        std::hint::black_box(serde_json::from_str_exact::<ErrorModel>(&exact_payload).unwrap());
    });
    // The store codec over fold models, one-pass against the per-element
    // reference; each model is one interleaved batch.
    let models = fold_models(data);
    let payloads: Vec<String> =
        models.iter().map(|m| serde_json::to_string_exact(m).unwrap()).collect();
    let payload_mb = payloads.iter().map(String::len).sum::<usize>() as f64 / 1e6;
    let [decode_reference_ms, decode_ms] = interleaved_min_ms(&payloads, |side, payload| {
        std::hint::black_box(if side == 0 {
            serde_json::from_str_exact_per_element::<AnyModel>(payload).unwrap()
        } else {
            serde_json::from_str_exact::<AnyModel>(payload).unwrap()
        });
    });
    let [encode_reference_ms, encode_ms] = interleaved_min_ms(&models, |side, model| {
        std::hint::black_box(if side == 0 {
            serde_json::to_string_exact_per_element(model).unwrap()
        } else {
            serde_json::to_string_exact(model).unwrap()
        });
    });
    let codec_identical = payloads.iter().all(|payload| {
        let fast = serde_json::from_str_exact::<AnyModel>(payload).unwrap();
        let reference = serde_json::from_str_exact_per_element::<AnyModel>(payload).unwrap();
        serde_json::to_string_exact(&fast).unwrap() == *payload
            && serde_json::to_string_exact_per_element(&reference).unwrap() == *payload
    });
    let mb_per_s = |ms: f64| round(payload_mb / (ms.max(1e-9) / 1e3), 1);
    let identical = codec_identical && {
        let bits = |preds: Vec<f64>| preds.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let arena = bits(queries.iter().map(|q| arena_forest.predict(q)).collect());
        let pointer = bits(queries.iter().map(|q| pointer_forest.predict(q)).collect());
        let pruned = bits(knn_queries.iter().map(|q| knn_model.predict(q)).collect());
        let exhaustive =
            bits(knn_queries.iter().map(|q| knn_model.predict_exhaustive(q)).collect());
        let treed = serde_json::from_str_value::<ErrorModel>(&payload).unwrap();
        let exact = serde_json::from_str_exact::<ErrorModel>(&exact_payload).unwrap();
        arena == pointer
            && pruned == exhaustive
            && streamed.to_json().unwrap() == treed.to_json().unwrap()
            && exact.to_json().unwrap() == streamed.to_json().unwrap()
    };
    map([
        ("rows", count(queries.len())),
        ("forest_nodes", count(arena_forest.node_count())),
        ("pointer_forest_ms", ms(pointer_ms)),
        ("arena_forest_ms", ms(arena_ms)),
        ("speedup_arena_vs_pointer", speedup(pointer_ms, arena_ms)),
        ("knn_train_rows", count(knn_x.len())),
        ("knn_exhaustive_ms", ms(knn_exhaustive_ms)),
        ("knn_pruned_ms", ms(knn_pruned_ms)),
        ("speedup_pruned_vs_exhaustive", speedup(knn_exhaustive_ms, knn_pruned_ms)),
        ("model_payload_bytes", count(payload.len())),
        ("warm_read_tree_ms", ms(warm_tree_ms)),
        ("warm_read_streaming_ms", ms(warm_streaming_ms)),
        ("speedup_streaming_vs_tree", speedup(warm_tree_ms, warm_streaming_ms)),
        ("exact_payload_bytes", count(exact_payload.len())),
        ("warm_read_exact_ms", ms(warm_exact_ms)),
        ("speedup_exact_vs_streaming", speedup(warm_streaming_ms, warm_exact_ms)),
        ("fold_models", count(models.len())),
        ("fold_payload_mb", round(payload_mb, 3)),
        ("decode_reference_mb_per_s", mb_per_s(decode_reference_ms)),
        ("decode_mb_per_s", mb_per_s(decode_ms)),
        ("speedup_decode_vs_reference", speedup(decode_reference_ms, decode_ms)),
        ("encode_reference_mb_per_s", mb_per_s(encode_reference_ms)),
        ("encode_mb_per_s", mb_per_s(encode_ms)),
        ("speedup_encode_vs_reference", speedup(encode_reference_ms, encode_ms)),
        ("byte_identical", Value::Bool(identical)),
    ])
}

/// Every learner's leave-one-workload-out fold models on the campaign's
/// WER datasets, one per (feature set, rank, held-out workload) whose
/// training split passes the grid's 4-sample floor: the SVM, KNN and RDF
/// mix of payloads a warm `repro_all` decodes from the store.
fn fold_models(data: &CampaignData) -> Vec<AnyModel> {
    let mut models = Vec::new();
    for set in FeatureSet::ALL {
        for rank in 0..RANK_COUNT {
            let dataset = build_wer_dataset(data, set, rank);
            for group in dataset.groups() {
                let (x, y, _, _) = dataset.split_xy_leave_group_out(&group);
                if x.len() >= 4 {
                    models.extend(MlKind::ALL.map(|kind| kind.train_any(&x, &y)));
                }
            }
        }
    }
    models
}

/// `predict_rows_batches`: µs per row of `ErrorModel::predict_rows` for
/// each learner (quick campaign, Set 1) at batch sizes 1, 2, 8 and 32,
/// inside a 1-thread pool and on the default pool. `predict_rows` is one
/// serial pass, so the pool must not lose to one thread (CI bounds it at
/// 1.2×). Each figure is the fastest of [`interleaved_min_ms`]'s sweeps
/// over 256 rows.
fn predict_rows_batches(data: &CampaignData) -> Value {
    let rows: Vec<_> = data.rows.iter().map(|r| (r.features.clone(), r.op)).collect();
    let single = pool(1);
    let learners = MlKind::ALL.map(|kind| {
        let model = train_error_model(data, kind, FeatureSet::Set1);
        let sizes = [1usize, 2, 8, 32].map(|size| {
            let batches: Vec<Vec<_>> = (0..256 / size)
                .map(|b| (0..size).map(|i| rows[(b * size + i) % rows.len()].clone()).collect())
                .collect();
            // [1-thread pool, default pool]
            let best = interleaved_min_ms(&batches, |side, batch| {
                let run = || std::hint::black_box(model.predict_rows(batch));
                let _ = if side == 0 { single.install(run) } else { run() };
            });
            let us_per_row = |side: usize| ms(best[side] * 1e3 / 256.0);
            let entry = map([
                ("one_thread_us_per_row", us_per_row(0)),
                ("pool_us_per_row", us_per_row(1)),
            ]);
            (format!("batch_{size}"), entry)
        });
        (kind.label().to_string(), Value::Map(sizes.into()))
    });
    Value::Map(learners.into())
}

/// `fleet` (ARCHITECTURE.md §15): a heterogeneous device population swept
/// cold (simulate + persist per-(shard, epoch) slice artifacts into a
/// scratch store) versus warm (pure store reads). The warm engine's
/// simulation counter must stay at zero, and the merged fleet must be
/// byte-identical cold-vs-warm and to the serial device-major replay of
/// every device.
fn fleet(smoke: bool) -> Value {
    let mut spec = wade_fleet::FleetSpec::test_default();
    (spec.devices, spec.shards, spec.epochs, spec.max_workloads) =
        if smoke { (32, 4, 3, 3) } else { (64, 8, 4, 4) };
    let seed = 7u64;
    let root = std::env::temp_dir().join(format!("wade-bench-fleet-{}", std::process::id()));
    let store = wade_store::ArtifactStore::open(&root);
    let cold_engine = wade_fleet::FleetSweep::new(spec, seed);
    let start = Instant::now();
    let cold = cold_engine.sweep_stored(&store);
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;
    let warm_engine = wade_fleet::FleetSweep::new(spec, seed);
    let warm = warm_engine.sweep_stored(&store);
    let warm_ms = median_ms(samples(smoke).1, || {
        wade_fleet::FleetSweep::new(spec, seed).sweep_stored(&store);
    });
    let serial_json = {
        let engine = wade_fleet::FleetSweep::new(spec, seed);
        let devices = (0..spec.devices).map(|k| engine.device_history(k)).collect();
        wade_fleet::FleetOutcome { spec, seed, devices }.devices_json()
    };
    let identical =
        cold.devices_json() == warm.devices_json() && cold.devices_json() == serial_json;
    map([
        ("devices", Value::U64(spec.devices.into())),
        ("shards", Value::U64(spec.shards.into())),
        ("epochs", Value::U64(spec.epochs.into())),
        ("failures", count(cold.failures().len())),
        ("cold_simulations", Value::U64(cold_engine.simulations())),
        ("cold_ms", ms(cold_ms)),
        ("warm_ms", ms(warm_ms)),
        ("speedup_warm_vs_cold", speedup(cold_ms, warm_ms)),
        ("warm_simulations", Value::U64(warm_engine.simulations())),
        ("byte_identical", Value::Bool(identical)),
    ])
}

/// A fleet swept through a store that already holds its first
/// `base_epochs` epochs, extended to its spec's epoch count.
struct Extension {
    engine: wade_fleet::FleetSweep,
    outcome: wade_fleet::FleetOutcome,
    /// Wall time of the extending sweep.
    ms: f64,
    /// Device-epochs at or past `base_epochs`: all the extension may
    /// simulate.
    delta: u64,
    /// Simulations beyond the delta; any is a prefix-reuse bug.
    prefix_simulations: u64,
}

/// Sweeps `spec` through `store` with a fresh engine, timing the sweep
/// and counting the device-epochs past `base_epochs`.
fn extend_fleet(
    store: &wade_store::ArtifactStore,
    spec: wade_fleet::FleetSpec,
    seed: u64,
    base_epochs: u32,
) -> Extension {
    let engine = wade_fleet::FleetSweep::new(spec, seed);
    let start = Instant::now();
    let outcome = engine.sweep_stored(store);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let delta: u64 = outcome
        .devices
        .iter()
        .map(|d| d.epochs.iter().filter(|e| e.epoch >= base_epochs).count() as u64)
        .sum();
    let prefix_simulations = engine.simulations().saturating_sub(delta);
    Extension { engine, outcome, ms, delta, prefix_simulations }
}

/// `fleet_incremental`: warm a fleet at E epochs, extend the same spec to
/// E′ against the same store — the persisted epoch slices are keyed by an
/// epoch-invariant spec prefix, so the extension must simulate *only* the
/// new epochs' alive device-epochs (prefix simulations counter-asserted
/// at zero) and be byte-identical to a cold full sweep at E′.
fn fleet_incremental(smoke: bool) -> Value {
    let seed = 7u64;
    let mut spec = wade_fleet::FleetSpec::test_default();
    let (base_epochs, ext_epochs);
    (spec.devices, spec.shards, spec.max_workloads, base_epochs, ext_epochs) =
        if smoke { (48, 6, 3, 10u32, 14u32) } else { (1000, 16, 4, 20, 24) };
    let mut base_spec = spec;
    base_spec.epochs = base_epochs;
    let mut ext_spec = spec;
    ext_spec.epochs = ext_epochs;
    let scratch = |name: &str| {
        std::env::temp_dir().join(format!("wade-bench-fleet-{name}-{}", std::process::id()))
    };
    let store = wade_store::ArtifactStore::open(scratch("inc"));
    let start = Instant::now();
    let _ = wade_fleet::FleetSweep::new(base_spec, seed).sweep_stored(&store);
    let base_ms = start.elapsed().as_secs_f64() * 1e3;
    let ext = extend_fleet(&store, ext_spec, seed, base_epochs);
    // Cold full reference at E′ in its own scratch store: the speedup
    // denominator and the byte-identity reference.
    let cold_store = wade_store::ArtifactStore::open(scratch("inc-cold"));
    let start = Instant::now();
    let cold = wade_fleet::FleetSweep::new(ext_spec, seed).sweep_stored(&cold_store);
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;
    let identical = ext.outcome.devices_json() == cold.devices_json();
    map([
        ("devices", Value::U64(spec.devices.into())),
        ("shards", Value::U64(spec.shards.into())),
        ("base_epochs", Value::U64(base_epochs.into())),
        ("extended_epochs", Value::U64(ext_epochs.into())),
        ("base_ms", ms(base_ms)),
        ("extension_ms", ms(ext.ms)),
        ("cold_full_ms", ms(cold_ms)),
        ("extension_simulations", Value::U64(ext.engine.simulations())),
        ("expected_delta", Value::U64(ext.delta)),
        ("prefix_simulations", Value::U64(ext.prefix_simulations)),
        ("extension_profilings", Value::U64(ext.engine.profilings())),
        ("speedup_extension_vs_cold", speedup(cold_ms, ext.ms)),
        ("byte_identical", Value::Bool(identical)),
    ])
}

/// A JSON object with its keys in the given order.
fn map<const N: usize>(entries: [(&str, Value); N]) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// `x` rounded to `decimals` places, the precision the snapshot records.
fn round(x: f64, decimals: i32) -> Value {
    let scale = 10f64.powi(decimals);
    Value::F64((x * scale).round() / scale)
}

/// A wall time in milliseconds, to the microsecond.
fn ms(x: f64) -> Value {
    round(x, 3)
}

/// The ratio `before / after`, to two decimals.
fn speedup(before: f64, after: f64) -> Value {
    round(before / after.max(1e-9), 2)
}

/// A count or size as a JSON integer.
fn count(n: usize) -> Value {
    Value::U64(n as u64)
}

/// A rayon pool of exactly `threads` workers.
fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("build a rayon pool")
}

/// Parses a numeric flag value, exiting with status 2 and the usage line
/// on malformed input.
fn flag_num<T: std::str::FromStr>(args: &Args, name: &str, default: T) -> T {
    let Some(v) = args.value(name) else { return default };
    v.trim().parse().unwrap_or_else(|_| usage_error(&format!("{name} expects a number, got {v:?}")))
}

/// The most threads `--threads` may ask `store torture` or `serve load`
/// to start.
const MAX_THREADS: usize = 64;

/// `--threads` (default 4), exiting with status 2 and the usage line,
/// before any thread starts, unless it is in `1..=MAX_THREADS`.
fn flag_threads(args: &Args) -> usize {
    let threads = flag_num(args, "--threads", 4usize);
    if !(1..=MAX_THREADS).contains(&threads) {
        usage_error(&format!("--threads must be in 1..={MAX_THREADS}, got {threads}"));
    }
    threads
}

/// Runs the store torture harness against a fresh scratch root under the
/// temp directory, never the user's store, and removes the root after.
/// Returns the run's wall time in ms and its report.
fn torture_in_scratch(config: &TortureConfig) -> (f64, TortureReport) {
    let root =
        std::env::temp_dir().join(format!("wade-torture-{}-{}", std::process::id(), config.seed));
    let _ = std::fs::remove_dir_all(&root);
    eprintln!(
        "[torture] scratch store {} — seed {}, {} ops, {} threads, fault rate {}",
        root.display(),
        config.seed,
        config.ops,
        config.threads,
        config.fault_rate,
    );
    let start = Instant::now();
    let report = wade_store::torture::run(&root, config);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_dir_all(&root);
    (ms, report)
}

/// `bench store <ls|gc|clear|torture>`: maintenance and chaos-testing of
/// the shared artifact store (`--store-dir` / `WADE_STORE_DIR` /
/// `target/wade-store`). `torture` deliberately ignores `--store-dir` and
/// runs against a scratch directory — a fault schedule must never chew
/// through the user's real cache.
fn store_command(action: Option<&str>, args: &Args) {
    match action {
        Some("ls") => {
            let store = wade_store::ArtifactStore::open(args.store_dir());
            let entries = store.ls();
            println!("store: {} ({} entries)", store.root().display(), entries.len());
            for meta in entries {
                println!(
                    "{:<10} {:>10} B  {}  {}",
                    meta.kind,
                    meta.file_bytes,
                    if meta.ok { "ok     " } else { "CORRUPT" },
                    meta.key.as_deref().unwrap_or("<unreadable>"),
                );
            }
        }
        Some("gc") => {
            let store = wade_store::ArtifactStore::open(args.store_dir());
            // Absent means no cap.
            let max_bytes =
                args.value("--max-bytes").is_some().then(|| flag_num(args, "--max-bytes", 0u64));
            let report = store.gc(max_bytes);
            println!(
                "store: {} — kept {}, removed {} corrupt, evicted {} over cap, {} B live",
                store.root().display(),
                report.kept,
                report.removed,
                report.evicted,
                report.bytes_kept,
            );
        }
        Some("clear") => {
            let store = wade_store::ArtifactStore::open(args.store_dir());
            let removed = store.clear();
            println!("store: {} — removed {removed} entries", store.root().display());
        }
        Some("torture") => {
            let config = TortureConfig {
                seed: flag_num(args, "--seed", 1u64),
                ops: flag_num(args, "--ops", 5_000u64),
                threads: flag_threads(args),
                fault_rate: flag_num(args, "--fault-rate", 0.10f64),
            };
            // NaN injects nothing and would still print OK.
            if !(0.0..=1.0).contains(&config.fault_rate) {
                usage_error(&format!("--fault-rate must be in [0, 1], got {}", config.fault_rate));
            }
            let (ms, report) = torture_in_scratch(&config);
            println!(
                "torture: {} ops in {ms:.1} ms — {} puts ({} failed), {} gets \
                 ({} hits, {} misses), {} gc, {} ls",
                report.ops,
                report.puts,
                report.put_errors,
                report.gets,
                report.hits,
                report.misses,
                report.gcs,
                report.lss,
            );
            println!(
                "torture: {} faults injected, {} retries, {} hard I/O errors, \
                 {} corrupt-as-miss, {} ops skipped degraded (degraded at exit: {})",
                report.faults.total(),
                report.retries,
                report.io_errors,
                report.corrupt,
                report.degraded_ops,
                report.degraded,
            );
            if report.ok() {
                println!("torture: OK — 0 wrong-value reads");
            } else {
                eprintln!(
                    "torture: FAIL — {} wrong-value reads (corruption served as a hit)",
                    report.wrong_reads
                );
                std::process::exit(1);
            }
        }
        other => wade_bench::cli::exit_usage(
            &format!("expected a store action, got {other:?}"),
            "bench store <ls|gc [--max-bytes N]|clear|torture [--seed N] [--ops M] \
             [--threads T] [--fault-rate F]> [--store-dir DIR]",
        ),
    }
}

/// Boots an in-process wade-serve instance over `data` (store-free: the
/// bench must not warm or depend on the real store) and drives the seeded
/// load generator against it with golden verification on. Returns the load
/// report and the server's batch-size histogram.
fn serve_load(
    data: &CampaignData,
    threads: usize,
    requests: u64,
    seed: u64,
) -> (wade_serve::LoadReport, Vec<u64>) {
    let mut server =
        wade_serve::Server::start(wade_serve::ServeConfig::default(), data.clone(), None)
            .expect("bind loopback serving socket");
    let report = wade_serve::run_load(
        server.addr(),
        data,
        Some(server.registry().as_ref()),
        wade_serve::LoadConfig { threads, requests, seed },
    )
    .expect("drive load against the loopback server");
    let hist = server.metrics().batch_histogram();
    server.shutdown();
    (report, hist)
}

/// `bench serve load [--threads T] [--requests N] [--seed S]`: the seeded
/// load generator against a live in-process server, with byte-identity
/// against direct `predict_rows` verified per response. Exits 1 on any
/// error or mismatch — the CI smoke gate.
fn serve_command(action: Option<&str>, args: &Args) {
    match action {
        Some("load") => {
            let threads = flag_threads(args);
            let requests = flag_num(args, "--requests", 256u64);
            let seed = flag_num(args, "--seed", 11u64);
            eprintln!("[serve] load: {threads} threads × {requests} total requests, seed {seed}");
            let (report, hist) = serve_load(&quick_campaign(), threads, requests, seed);
            println!(
                "serve load: {} requests ({} rows) in {:.1} ms — p50 {:.3} ms, \
                 p99 {:.3} ms, {:.0} req/s",
                report.requests,
                report.rows,
                report.elapsed_ms,
                report.p50_ms,
                report.p99_ms,
                report.throughput_rps,
            );
            println!(
                "serve load: batch-size histogram {hist:?}, {} errors, {} mismatches",
                report.errors, report.mismatches,
            );
            if report.errors > 0 || report.mismatches > 0 {
                eprintln!("serve load: FAIL — served bytes diverged from direct predictions");
                std::process::exit(1);
            }
            println!("serve load: OK — byte-identical to direct predict_rows");
        }
        other => wade_bench::cli::exit_usage(
            &format!("expected a serve action, got {other:?}"),
            "bench serve load [--threads T] [--requests N] [--seed S]",
        ),
    }
}
/// Bitwise equality of two evaluated grids (NaN-safe: compares the bit
/// patterns, which is the byte-identity the engine promises).
fn grids_equal(a: &EvalGrid, b: &EvalGrid) -> bool {
    MlKind::ALL.iter().all(|&kind| {
        FeatureSet::ALL.iter().all(|&set| {
            report_eq(a.wer_report(kind, set), b.wer_report(kind, set))
                && a.pue_error(kind, set).to_bits() == b.pue_error(kind, set).to_bits()
        })
    })
}

fn report_eq(a: &AccuracyReport, b: &AccuracyReport) -> bool {
    a.average.to_bits() == b.average.to_bits()
        && a.per_rank.len() == b.per_rank.len()
        && a.per_rank.iter().zip(b.per_rank.iter()).all(|(x, y)| match (x, y) {
            (Some(x), Some(y)) => x.to_bits() == y.to_bits(),
            (None, None) => true,
            _ => false,
        })
        && a.per_workload.len() == b.per_workload.len()
        && a.per_workload
            .iter()
            .zip(b.per_workload.iter())
            .all(|((wa, ea), (wb, eb))| wa == wb && ea.to_bits() == eb.to_bits())
}

/// The `store:` line `bench fleet sweep` and `bench fleet extend` end a
/// pass with: what the pass read, refused, wrote and left on disk.
fn print_store_line(store: &wade_store::ArtifactStore) {
    println!(
        "store: {} — {} hits, {} misses, {} corrupt, {} unfit, {} writes, {} B live",
        store.root().display(),
        store.hits(),
        store.misses(),
        store.corrupt(),
        store.unfit(),
        store.writes(),
        store.live_bytes(),
    );
}

/// `bench fleet <sweep|extend|eval>`: sweep a heterogeneous device fleet
/// through the shared store (per-`(shard, epoch)` slice artifacts; warm
/// slices are pure reads); `extend` grows the same fleet's epoch count
/// reusing the persisted prefix and self-asserts the extension simulated
/// nothing but the delta; `eval` runs the field-style failure-prediction
/// evaluation on the swept histories.
fn fleet_command(action: Option<&str>, args: &Args) {
    let mut spec = wade_fleet::FleetSpec::test_default();
    spec.devices = flag_num(args, "--devices", spec.devices);
    spec.shards = flag_num(args, "--shards", spec.shards);
    spec.epochs = flag_num(args, "--epochs", spec.epochs);
    if let Err(err) = spec.validate() {
        usage_error(&format!("invalid fleet spec: {err}"));
    }
    let seed = flag_num(args, "--seed", 7u64);
    let run_sweep = || {
        let store = wade_store::ArtifactStore::open(args.store_dir());
        let engine = wade_fleet::FleetSweep::new(spec, seed);
        let start = Instant::now();
        let outcome = engine.sweep_stored(&store);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        println!(
            "fleet: {} devices / {} shards / {} epochs (seed {seed}) in {ms:.1} ms — \
             {} failed, {} survived, {} simulations ({})",
            spec.devices,
            spec.shards,
            spec.epochs,
            outcome.failures().len(),
            outcome.survivors(),
            engine.simulations(),
            if engine.simulations() == 0 { "fully warm" } else { "cold slices simulated" },
        );
        print_store_line(&store);
        (engine, outcome)
    };
    match action {
        Some("sweep") => {
            run_sweep();
        }
        Some("extend") => {
            let extend_to = flag_num(args, "--extend-to", spec.epochs + 4);
            if extend_to <= spec.epochs {
                let epochs = spec.epochs;
                usage_error(&format!("--extend-to must exceed --epochs ({extend_to} <= {epochs})"));
            }
            let mut extended_spec = spec;
            extended_spec.epochs = extend_to;
            if let Err(err) = extended_spec.validate() {
                usage_error(&format!("invalid extended fleet spec: {err}"));
            }
            // Warm (or verify) the base prefix first: after this, every
            // slice below `spec.epochs` is on disk, so any extension
            // simulation beyond the delta is a prefix-reuse bug.
            // Slice keys omit the epoch count, so the base engine's key
            // prefix enumerates the extended spec's slices too.
            let (base_engine, _) = run_sweep();
            let store = wade_store::ArtifactStore::open(args.store_dir());
            let prefix_slices = store
                .keys_with_prefix(wade_fleet::FLEET_SLICE_KIND, &base_engine.slice_key_prefix())
                .len();
            let Extension { engine, outcome, ms, delta, prefix_simulations } =
                extend_fleet(&store, extended_spec, seed, spec.epochs);
            println!(
                "fleet extend: {} → {extend_to} epochs (seed {seed}) in {ms:.1} ms — \
                 {} failed, {} survived, {} simulations for a {delta} device-epoch delta",
                spec.epochs,
                outcome.failures().len(),
                outcome.survivors(),
                engine.simulations(),
            );
            println!(
                "prefix warm: {prefix_simulations} prefix simulations, {} delta simulations \
                 ({prefix_slices} slices on disk before extension)",
                engine.simulations().min(delta),
            );
            print_store_line(&store);
            if prefix_simulations != 0 {
                eprintln!(
                    "error: extension re-simulated the epoch prefix \
                     ({} simulations for a {delta} device-epoch delta)",
                    engine.simulations(),
                );
                std::process::exit(1);
            }
        }
        Some("eval") => {
            let (engine, outcome) = run_sweep();
            let eval = wade_fleet::FleetEval::evaluate(
                &outcome,
                wade_fleet::FleetEvalConfig::for_spec(&spec),
            );
            for report in eval.lead_time_reports() {
                println!(
                    "lead {:>6.0} s: precision {:.3} ({}/{} alerts justified), \
                     recall {:.3} ({}/{} failures caught)",
                    report.lead_s,
                    report.precision,
                    report.justified_alerts,
                    report.alerts,
                    report.recall,
                    report.caught_failures,
                    report.caught_failures + report.missed_failures,
                );
            }
            let curve = eval.cost_curve(1.0, 25.0);
            let best = curve
                .iter()
                .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("costs are finite"))
                .expect("curve is never empty");
            let never = curve.last().expect("curve is never empty");
            println!(
                "cost (migrate 1, crash 25): best θ={:.3e} → {} migrations + {} crashes \
                 = {:.0}; never-migrate = {:.0}",
                best.threshold, best.migrations, best.crashes, best.cost, never.cost,
            );
            let store = wade_store::ArtifactStore::open(args.store_dir());
            let matrix = wade_fleet::transfer_matrix(
                &engine,
                &outcome,
                MlKind::Rdf,
                FeatureSet::Set1,
                Some(&store),
            );
            println!("transfer (Rdf/Set1, WER MPE %): train vintage ↓ / test vintage →");
            for a in 0..matrix.vintages {
                let row: Vec<String> = (0..matrix.vintages)
                    .map(|b| format!("{:>8.1}", matrix.cell(a, b).mpe))
                    .collect();
                println!("  v{a}: {}", row.join(" "));
            }
            println!(
                "transfer: in-vintage mean {:.1} %, cross-vintage mean {:.1} %",
                matrix.mean_diagonal(),
                matrix.mean_off_diagonal(),
            );
        }
        other => wade_bench::cli::exit_usage(
            &format!("expected a fleet action, got {other:?}"),
            "bench fleet <sweep|extend|eval> [--devices N] [--shards S] [--epochs E] \
             [--extend-to E2] [--seed K] [--store-dir DIR]",
        ),
    }
}

/// Times two sides of a comparison over the same batches, alternating
/// batch by batch so a shift in the host's speed lands on both alike. The
/// side that goes first flips with every batch and every sweep, since the
/// second call finds the batch in cache. Returns each side's fastest of 9
/// sweeps over all batches, in ms.
fn interleaved_min_ms<B>(batches: &[B], mut run: impl FnMut(usize, &B)) -> [f64; 2] {
    let mut best = [f64::INFINITY; 2];
    for s in 0..9 {
        let mut sweep = [0.0; 2];
        for (i, batch) in batches.iter().enumerate() {
            let first = (s + i) % 2;
            for side in [first, 1 - first] {
                let start = Instant::now();
                run(side, batch);
                sweep[side] += start.elapsed().as_secs_f64() * 1e3;
            }
        }
        best = [best[0].min(sweep[0]), best[1].min(sweep[1])];
    }
    best
}

fn median_ms(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}
