//! The WADE benchmark: runs one workload against the shipped crates,
//! checks every output, and prints its metrics.
//!
//! ```text
//! perfbench --workload <repro-cold|repro-warm|fleet-sweep>
//!           --seed <n> --seconds <s> --trace <0|1> [--repro-bin <path>]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer metrics of a traced run (README.md defines each one). The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. A report with the host block, the stage table
//! and every span goes to `perfbench/out/`; scratch stores live under
//! `perfbench/work/` and are removed before exit.

mod fleet;
mod repro;
mod serve;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use trace::Tracer;

/// The end-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed by every traced run. Busy time is given
/// as a share of the traced wall clock and per-call cost as a rate, so a
/// layer that a workload does not reach reads 0 without faking a time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.wall_s", "s"),
    ("trace.coverage", "share"),
    ("trace.overhead", "share"),
    ("profile.busy_share", "share"),
    ("profile.workloads", "count"),
    ("profile.cache_hit_ratio", "share"),
    ("dram.busy_share", "share"),
    ("dram.runs", "count"),
    ("dram.runs_per_s", "1/s"),
    ("ml.folds", "count"),
    ("ml.folds_per_s.svm", "1/s"),
    ("ml.folds_per_s.knn", "1/s"),
    ("ml.folds_per_s.rdf", "1/s"),
    ("grid.busy_share.svm", "share"),
    ("grid.busy_share.knn", "share"),
    ("grid.busy_share.rdf", "share"),
    ("grid.trainings", "count"),
    ("grid.store_hits", "count"),
    ("model.busy_share", "share"),
    ("model.predictions_per_s", "1/s"),
    ("store.artifacts.svm", "count"),
    ("store.artifacts.knn", "count"),
    ("store.artifacts.rdf", "count"),
    ("store.read_mb.svm", "MB"),
    ("store.read_mb.knn", "MB"),
    ("store.read_mb.rdf", "MB"),
    ("store.read_mb_per_s.svm", "MB/s"),
    ("store.read_mb_per_s.knn", "MB/s"),
    ("store.read_mb_per_s.rdf", "MB/s"),
    ("store.write_mb_per_s", "MB/s"),
    ("store.hit_ratio", "share"),
    ("store.corrupt", "count"),
    ("store.retries", "count"),
    ("store.io_errors", "count"),
    ("store.degraded_ops", "count"),
    ("serve.busy_share", "share"),
    ("serve.open.sent", "count"),
    ("serve.open.ok", "count"),
    ("serve.open.failed", "count"),
    ("serve.closed.sent", "count"),
    ("serve.closed.ok", "count"),
    ("serve.closed.failed", "count"),
    ("serve.batches", "count"),
    ("serve.rows_per_batch", "ratio"),
    ("serve.batch_hist.le_1", "count"),
    ("serve.batch_hist.le_2", "count"),
    ("serve.batch_hist.le_4", "count"),
    ("serve.batch_hist.le_8", "count"),
    ("serve.batch_hist.le_16", "count"),
    ("serve.batch_hist.le_32", "count"),
    ("serve.batch_hist.inf", "count"),
    ("serve.rows_per_s.svm", "1/s"),
    ("serve.rows_per_s.knn", "1/s"),
    ("serve.rows_per_s.rdf", "1/s"),
    ("serve.capacity_per_s", "1/s"),
    ("serve.model_share", "share"),
    ("serve.p99_over_p50", "ratio"),
    ("serve.gen_late_p99_share", "share"),
    ("serve.gen_late_max_share", "share"),
    ("fleet.busy_share", "share"),
    ("fleet.simulations", "count"),
    ("fleet.profilings", "count"),
    ("fleet.simulations_per_s", "1/s"),
    ("fleet.extend_simulations", "count"),
    ("fleet.prefix_simulations", "count"),
    ("fleet.extend_share", "share"),
    ("fleet.eval_share", "share"),
    ("fleet.transfer_share", "share"),
    ("fleet.slice_mb", "MB"),
];

/// Everything one workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one operation; a failed check marks it failed with `why`.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let why = why();
            eprintln!("[perfbench] FAILED: {why}");
            self.problems.push(why);
        }
    }

    /// Marks the run invalid (its numbers mean nothing) without failing
    /// an operation.
    pub fn invalid(&mut self, why: String) {
        eprintln!("[perfbench] INVALID: {why}");
        self.problems.push(why);
    }

    /// Sets a metric; `name` must be in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Sets the trace metrics of a traced section that took `wall_s`: its
/// coverage, the `overhead` the workload measured against an untraced
/// twin of the section in the same run, and each layer's busy share (its
/// spans' self time over the traced wall). The tracer must hold only
/// spans of that section.
pub fn finish_trace(ctx: &Ctx, out: &mut Outcome, wall_s: f64, overhead: f64) {
    let tracer = &ctx.tracer;
    out.set("trace.wall_s", wall_s);
    out.set("trace.coverage", tracer.covered_s() / wall_s);
    out.set("trace.overhead", overhead);
    for (metric, prefix) in [
        ("profile.busy_share", "profile."),
        ("dram.busy_share", "dram."),
        ("grid.busy_share.svm", "grid.evaluate.SVM"),
        ("grid.busy_share.knn", "grid.evaluate.KNN"),
        ("grid.busy_share.rdf", "grid.evaluate.RDF"),
        ("model.busy_share", "model."),
        ("serve.busy_share", "serve."),
        ("fleet.busy_share", "fleet."),
        ("fleet.extend_share", "fleet.extend"),
        ("fleet.eval_share", "fleet.evaluate"),
        ("fleet.transfer_share", "fleet.transfer_matrix"),
    ] {
        out.set(metric, tracer.self_s(prefix) / wall_s);
    }
}

/// The run's fixed inputs.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Span recorder (disabled for untraced runs).
    pub tracer: Tracer,
    /// Absolute scratch directory of this run.
    pub work: PathBuf,
    /// The shipped `repro_all` binary.
    pub repro_bin: PathBuf,
    /// Run a single fleet round and report it (`--one-round 1`, how the
    /// fleet workload starts its per-round child processes).
    pub one_round: bool,
}

impl Ctx {
    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }
}

const WORKLOADS: [&str; 3] = ["repro-cold", "repro-warm", "fleet-sweep"];

fn usage(why: &str) -> ! {
    eprintln!("error: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--repro-bin <path>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [flag, value]
                if [
                    "--workload",
                    "--seed",
                    "--seconds",
                    "--trace",
                    "--repro-bin",
                    "--one-round",
                ]
                .contains(&flag.as_str()) =>
            {
                flags.insert(flag.as_str(), value.as_str());
            }
            _ => usage(&format!("unexpected arguments {pair:?}")),
        }
    }
    let workload = flags
        .get("--workload")
        .copied()
        .unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload) {
        usage(&format!("unknown workload {workload:?}"));
    }
    let seed: u64 = flags
        .get("--seed")
        .map_or(Some(1), |v| v.parse().ok())
        .unwrap_or_else(|| usage("bad --seed"));
    let seconds: f64 = flags
        .get("--seconds")
        .map_or(Some(10.0), |v| v.parse().ok())
        .filter(|s: &f64| s.is_finite() && *s >= 1.0)
        .unwrap_or_else(|| usage("--seconds must be a number >= 1"));
    let traced = match flags.get("--trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage("--trace must be 0 or 1"),
    };
    let cwd = std::env::current_dir().expect("the working directory is readable");
    let repro_bin = flags.get("--repro-bin").map_or_else(
        || cwd.join("perfbench/target/release/repro_all"),
        |p| cwd.join(p),
    );
    let work = cwd
        .join("perfbench/work")
        .join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let one_round = flags.get("--one-round") == Some(&"1");
    let ctx = Ctx {
        seed,
        seconds,
        tracer: Tracer::new(workload, traced),
        work,
        repro_bin,
        one_round,
    };

    eprintln!(
        "[perfbench] {workload} seed {seed} for {seconds} s, trace {}",
        u8::from(traced)
    );
    let result = match workload {
        "repro-cold" => repro::run(&ctx, false),
        "repro-warm" => repro::run(&ctx, true),
        _ => fleet::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {workload} did not complete: {e}");
            std::process::exit(1);
        }
    };
    let catalog = if traced { PER_LAYER } else { END_TO_END };
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    for &(name, unit) in catalog {
        // A layer the workload never reached reads 0; end-to-end metrics
        // have no such default.
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if traced && unit != "s" => 0.0,
            None => {
                eprintln!("error: {workload} did not measure {name}");
                std::process::exit(1);
            }
        };
        if !value.is_finite() {
            eprintln!("error: {name} is not finite ({value})");
            std::process::exit(1);
        }
        metrics.push((name, value, unit));
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    let result = result_json(correct, outcome.attempted, outcome.failed, &metrics);
    if !ctx.one_round {
        write_report(
            &ctx,
            workload,
            &result,
            outcome.metrics.get("trace.wall_s").copied(),
        );
    }
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    println!("{result}");
}

/// The final output line.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

/// The number after `"key": ` (a result-line count) or after
/// `"key": {"value": ` (a metric) in a line printed by [`result_json`].
pub fn result_field(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let rest = rest.strip_prefix("{\"value\": ").unwrap_or(rest);
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// The machine the numbers come from, so that they are never compared
/// blind against another host's.
fn host_json() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_default();
    let output = |program: &str, args: &[&str]| -> String {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    // Only ask git inside a git checkout: a bare source tree must not
    // pick up the revision of some enclosing repository.
    let revision = if Path::new(".git").exists() {
        output("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    };
    format!(
        "{{\"logical_cores\": {cores}, \"rayon_threads\": {}, \"wade_threads\": \"{}\", \"wade_scale\": \"test\", \"git_revision\": \"{revision}\", \"rustc\": \"{}\"}}",
        rayon::current_num_threads(),
        env("WADE_THREADS"),
        output("rustc", &["--version"]),
    )
}

/// Writes the run report (host block, result, stage table and spans) to
/// `perfbench/out/`, and the stage table to stderr.
fn write_report(ctx: &Ctx, workload: &str, result: &str, wall_s: Option<f64>) {
    let mut report = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"host\": {}, \"result\": {result}",
        ctx.seed,
        ctx.seconds,
        host_json()
    );
    if let Some(wall_s) = wall_s {
        eprint!("{}", ctx.tracer.stage_table(wall_s));
        let stages: Vec<String> = ctx
            .tracer
            .stages()
            .iter()
            .map(|s| {
                format!(
                    "{{\"stage\": \"{}\", \"calls\": {}, \"self_ms\": {}}}",
                    s.name, s.calls, s.self_ms
                )
            })
            .collect();
        let _ = write!(
            report,
            ", \"stages\": [{}], \"spans\": {}",
            stages.join(", "),
            ctx.tracer.spans_json()
        );
    }
    report.push_str("}\n");
    let dir = Path::new("perfbench/out");
    let path = dir.join(format!(
        "{workload}-seed{}-trace{}.json",
        ctx.seed,
        u8::from(ctx.traced())
    ));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, report)) {
        eprintln!("[perfbench] cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units the benchmark prints are the ones
    /// `BENCHMARK.json` declares, in both sections.
    #[test]
    fn catalog_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = spec.find(&format!("\"{key}\"")).expect("section present");
            let body = &spec[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = entry.split('"').next().expect("name").to_string();
                    let unit = entry.split("\"unit\": \"").nth(1).expect("unit");
                    (name, unit.split('"').next().expect("unit").to_string())
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(END_TO_END));
        assert_eq!(section("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_has_the_contract_keys_and_reads_back() {
        let line = result_json(
            true,
            3,
            0,
            &[("setup_s", 1.25, "s"), ("latency_ms", 7e-5, "ms")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"latency_ms\": {\"value\": 0.00007, \"unit\": \"ms\"}}}"
        );
        assert_eq!(result_field(&line, "attempted"), Some(3.0));
        assert_eq!(result_field(&line, "failed"), Some(0.0));
        assert_eq!(result_field(&line, "setup_s"), Some(1.25));
        assert_eq!(result_field(&line, "latency_ms"), Some(7e-5));
        assert_eq!(result_field(&line, "peak_rss_mb"), None);
    }
}
