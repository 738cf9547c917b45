//! `fleet-sweep`: `FleetSpec::test_default()` (192 devices, 8 shards,
//! 3 vintages), swept through a fresh store.
//!
//! One round: set-up builds the sweep engine and profiles its workload
//! suite; the timed session is a cold 6-epoch `sweep_stored`, an extension
//! to 10 epochs that must reuse the persisted prefix, a warm re-read of the
//! 6-epoch fleet that must equal the cold sweep byte for byte, and the
//! field-style evaluation (`FleetEval::evaluate`, `transfer_matrix` on
//! Rdf/Set1) of the extended fleet. Rounds repeat, each in a fresh store
//! and a child process of its own, until the run has measured for
//! `--seconds`.
//!
//! The session's cost depends on the fleet (how many devices survive into
//! the new epochs, and at which temperatures), so round `r` sweeps the
//! fleet seeded `mix64(seed, r)` (round 0: `seed` itself) and the median
//! is over several fleets rather than one. The extension alone varied too
//! much between runs to carry a bound (README.md); its share of the
//! session is in the traced run.
//!
//! A traced run does one untraced and one traced round of the same fleet
//! (their ratio is the tracing overhead), then the serving phase
//! (`crate::serve`), which has no end-to-end metric of its own.

use std::io::Read as _;
use std::process::{Command, Stdio};
use std::time::Instant;

use wade_core::MlKind;
use wade_features::FeatureSet;
use wade_fleet::{transfer_matrix, FleetEval, FleetEvalConfig, FleetSpec, FleetSweep};
use wade_store::{mix64, ArtifactStore};

use crate::stats::{digest, median};
use crate::trace::Tracer;
use crate::{finish_trace, Ctx, Outcome};

const BASE_EPOCHS: u32 = 6;
const EXTENDED_EPOCHS: u32 = 10;
/// Fewest rounds per untraced run.
const MIN_ROUNDS: usize = 3;

/// The fleet seed with recorded digests, and the `devices_json()` digests
/// of its cold 6- and 10-epoch sweeps.
const GOLDEN_SEED: u64 = 7;
const GOLDEN_6: &str = "19c00b6ba9c4ff5b";
const GOLDEN_10: &str = "d626fb26b5b6d246";

/// What one round measured.
struct Round {
    /// Engine construction and suite profiling.
    setup_s: f64,
    /// Cold sweep through the transfer matrix.
    session_s: f64,
    sweep_s: f64,
    wall_s: f64,
    simulations: u64,
    profilings: u64,
    extend_simulations: u64,
    prefix_simulations: u64,
    store: ArtifactStore,
}

/// One round over the fleet seeded `seed`, in store `n`, with spans
/// recorded into `tr`.
fn round(ctx: &Ctx, tr: &Tracer, out: &mut Outcome, seed: u64, n: usize) -> Round {
    let start = Instant::now();
    let mut spec = FleetSpec::test_default();
    spec.epochs = BASE_EPOCHS;
    let store = ArtifactStore::open(ctx.work.join(format!("fleet-store-{n}")));

    let engine = FleetSweep::new(spec, seed);
    tr.time("fleet.profiles", || engine.profiles().len());
    let setup_s = start.elapsed().as_secs_f64();
    let sweep_start = Instant::now();
    let base = tr.time("fleet.sweep_stored", || engine.sweep_stored(&store));
    let sweep_s = sweep_start.elapsed().as_secs_f64();

    let mut extended_spec = spec;
    extended_spec.epochs = EXTENDED_EPOCHS;
    let extension = FleetSweep::new(extended_spec, seed);
    let extended = tr.time("fleet.extend", || extension.sweep_stored(&store));
    let delta: u64 = extended
        .devices
        .iter()
        .map(|d| d.epochs.iter().filter(|e| e.epoch >= BASE_EPOCHS).count() as u64)
        .sum();
    let prefix = extension.simulations().saturating_sub(delta);
    out.op(prefix == 0 && extension.simulations() == delta, || {
        format!(
            "extension: {} simulations for a {delta} device-epoch delta",
            extension.simulations()
        )
    });

    let reread = FleetSweep::new(spec, seed);
    let warm = tr.time("fleet.reread", || reread.sweep_stored(&store));
    out.op(
        reread.simulations() == 0 && warm.devices_json() == base.devices_json(),
        || {
            format!(
                "warm re-read: {} simulations, equal to the cold sweep: {}",
                reread.simulations(),
                warm == base
            )
        },
    );
    if seed == GOLDEN_SEED {
        for (outcome, golden, epochs) in [
            (&base, GOLDEN_6, BASE_EPOCHS),
            (&extended, GOLDEN_10, EXTENDED_EPOCHS),
        ] {
            let got = digest(outcome.devices_json().as_bytes());
            out.op(got == golden, || {
                format!("{epochs}-epoch fleet digest {got}, recorded {golden}")
            });
        }
    }

    let eval = tr.time("fleet.evaluate", || {
        FleetEval::evaluate(&extended, FleetEvalConfig::for_spec(&extended_spec))
    });
    out.op(
        eval.devices() == extended.devices.len() && !eval.lead_time_reports().is_empty(),
        || {
            format!(
                "evaluation saw {} of {} devices",
                eval.devices(),
                extended.devices.len()
            )
        },
    );
    let matrix = tr.time("fleet.transfer_matrix", || {
        transfer_matrix(
            &extension,
            &extended,
            MlKind::Rdf,
            FeatureSet::Set1,
            Some(&store),
        )
    });
    out.op(
        matrix.cells.len() == (extended_spec.vintages * extended_spec.vintages) as usize,
        || format!("transfer matrix has {} cells", matrix.cells.len()),
    );

    Round {
        setup_s,
        session_s: sweep_start.elapsed().as_secs_f64(),
        sweep_s,
        wall_s: start.elapsed().as_secs_f64(),
        simulations: engine.simulations(),
        profilings: engine.profilings() + extension.profilings() + reread.profilings(),
        extend_simulations: extension.simulations(),
        prefix_simulations: prefix,
        store,
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if ctx.traced() {
        return run_traced(ctx, out);
    }
    if ctx.one_round {
        let r = round(ctx, &ctx.tracer, &mut out, ctx.seed, 0);
        out.set("setup_s", r.setup_s);
        out.set("latency_ms", r.session_s * 1e3);
        out.set("peak_rss_mb", crate::sys::self_peak_rss_mb());
        return Ok(out);
    }
    // Each round runs in a child process of its own, so that its peak
    // memory is its own and not the high-water mark of every round before.
    let (mut setup, mut session, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while setup.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < ctx.seconds {
        let n = setup.len() as u64;
        let seed = if n == 0 { ctx.seed } else { mix64(ctx.seed, n) };
        let mut child =
            Command::new(std::env::current_exe().map_err(|e| format!("own path: {e}"))?)
                .args([
                    "--workload",
                    "fleet-sweep",
                    "--seed",
                    &seed.to_string(),
                    "--trace",
                    "0",
                    "--one-round",
                    "1",
                ])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("start a fleet round: {e}"))?;
        let mut stdout = String::new();
        let read = child
            .stdout
            .take()
            .expect("piped")
            .read_to_string(&mut stdout);
        // Reap the child before acting on a read error.
        let (status, peak_mb) =
            crate::sys::wait_with_peak_rss(child).map_err(|e| format!("wait: {e}"))?;
        read.map_err(|e| format!("read a fleet round: {e}"))?;
        let line = stdout.lines().last().unwrap_or_default();
        let field = |key: &str| -> Result<f64, String> {
            crate::result_field(line, key)
                .ok_or_else(|| format!("fleet round {n} ({status}) printed no {key}"))
        };
        out.attempted += field("attempted")? as u64;
        out.failed += field("failed")? as u64;
        setup.push(field("setup_s")?);
        session.push(field("latency_ms")?);
        rss.push(peak_mb);
    }
    eprintln!(
        "[perfbench] rounds: set-up {setup:.4?} s, session {session:.1?} ms, peak {rss:.1?} MB"
    );
    out.set("setup_s", median(&setup));
    out.set("latency_ms", median(&session));
    out.set("peak_rss_mb", median(&rss));
    Ok(out)
}

fn run_traced(ctx: &Ctx, mut out: Outcome) -> Result<Outcome, String> {
    let untraced = round(
        ctx,
        &Tracer::new("fleet-sweep", false),
        &mut out,
        ctx.seed,
        0,
    );
    let start = Instant::now();
    let traced = round(ctx, &ctx.tracer, &mut out, ctx.seed, 1);
    crate::serve::phase(ctx, &mut out)?;
    let wall_s = start.elapsed().as_secs_f64();
    finish_trace(ctx, &mut out, wall_s, traced.wall_s / untraced.wall_s - 1.0);
    out.set("fleet.simulations", traced.simulations as f64);
    out.set("fleet.profilings", traced.profilings as f64);
    out.set(
        "fleet.simulations_per_s",
        traced.simulations as f64 / traced.sweep_s,
    );
    out.set("fleet.extend_simulations", traced.extend_simulations as f64);
    out.set("fleet.prefix_simulations", traced.prefix_simulations as f64);
    let s = &traced.store;
    out.set("fleet.slice_mb", s.live_bytes() as f64 / 1e6);
    out.set(
        "store.hit_ratio",
        s.hits() as f64 / (s.hits() + s.misses()).max(1) as f64,
    );
    out.set("store.corrupt", s.corrupt() as f64);
    out.set("store.retries", s.retries() as f64);
    out.set("store.io_errors", s.io_errors() as f64);
    out.set("store.degraded_ops", s.degraded_ops() as f64);
    Ok(out)
}
