//! The serving phase: an in-process `wade-serve` on loopback under the
//! seeded `wade_serve::request_for` mix (SVM, KNN or RDF; 1–4 rows a
//! request). It serves the models the `serve` binary boots at test scale:
//! the phase collects the test-scale campaign and boots on it store-free.
//!
//! Load comes from two client threads, each on its own keep-alive
//! connection, in two phases:
//!
//! * an **open loop** at a fixed 400 req/s (the arrival schedule does not
//!   wait for the server), each request timed from when it was due, so a
//!   stall is charged to every request it delays;
//! * a **closed loop**: both clients send back to back, for capacity.
//!
//! Requests and the bodies a correct server answers (the registry's own
//! `predict_rows`, serialized) are built before the phases; a client only
//! compares each body with its golden bytes, so it measures the server and
//! not its own bookkeeping.
//!
//! Served latency on a small shared host moves with the host's scheduling
//! far more than any end-to-end bound allows (README.md has the spreads),
//! so this phase runs only in the fleet workload's traced run and reports
//! per-layer metrics.

use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use std::sync::Arc;

use wade_core::{Campaign, CampaignConfig, CampaignData, MlKind, ProfileCache};
use wade_serve::{
    feature_set_label, parse_model_kind, read_response, request_for, ModelRegistry,
    PredictResponse, ServeConfig, Server, BATCH_BUCKETS,
};
use wade_workloads::{full_suite, Scale};

use crate::stats::percentile_rank;
use crate::{Ctx, Outcome};

/// Open-loop arrival rate, requests per second.
const OPEN_RATE: f64 = 400.0;
/// Open-loop requests: enough that 20 samples lie beyond the p99.
const OPEN_REQUESTS: u64 = 2000;
/// Length of the closed loop.
const CLOSED_LENGTH: Duration = Duration::from_secs(3);
/// Client threads, one connection each.
const CLIENTS: usize = 2;
/// Distinct requests the closed loop cycles through.
const CLOSED_POOL: u64 = 2048;
/// Generator lateness (send time minus due time) at the p99 beyond which
/// the open loop no longer held its schedule and the run is invalid.
const MAX_LATE_P99: Duration = Duration::from_millis(50);

/// One request as the client saw it.
struct Sample {
    /// Index into the request list of its phase.
    index: usize,
    status: Option<u16>,
    /// Whether the body equalled the golden body byte for byte.
    matches: bool,
    /// When the request was due (open loop) or sent (closed loop).
    due: Instant,
    sent: Instant,
    done: Instant,
}

/// A request ready to send, with the answer a correct server gives.
struct Prepared {
    wire: Vec<u8>,
    /// The registry's own `predict_rows` answer, serialized.
    golden: Vec<u8>,
    rows: usize,
    /// Index of the request's model in `MlKind::ALL`.
    kind: usize,
    /// How long `predict_rows` alone took for this request.
    predict: Duration,
}

/// Builds requests `keys` of the seeded mix and their golden bodies.
fn prepare(
    data: &CampaignData,
    registry: &ModelRegistry,
    seed: u64,
    keys: std::ops::Range<u64>,
) -> Vec<Prepared> {
    let set = feature_set_label(registry.set()).to_string();
    keys.map(|k| {
        let request = request_for(data, seed, k);
        let body = serde_json::to_string(&request).expect("requests serialize");
        let mut wire = format!(
            "POST /predict HTTP/1.1\r\nHost: wade\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body.as_bytes());
        let kind = parse_model_kind(&request.model).expect("generated label");
        let rows: Vec<_> =
            request.rows.into_iter().map(|r| r.into_input().expect("generated rows are valid")).collect();
        let model = registry.model(kind);
        let start = Instant::now();
        let predictions = model.predict_rows(&rows);
        let predict = start.elapsed();
        let response = PredictResponse { model: kind.label().to_string(), set: set.clone(), rows: predictions };
        let golden = serde_json::to_string(&response).expect("responses serialize").into_bytes();
        let kind = MlKind::ALL.iter().position(|&k| k == kind).expect("known kind");
        Prepared { wire, golden, rows: rows.len(), kind, predict }
    })
    .collect()
}

/// A keep-alive client connection that reconnects after a failure.
struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Client {
    fn exchange(&mut self, wire: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let result = stream.write_all(wire).and_then(|()| read_response(stream));
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    /// Sends request `index`; the body is compared with its golden answer
    /// (a memory compare) instead of being kept.
    fn send(&mut self, index: usize, prepared: &Prepared, due: Instant) -> Sample {
        let sent = Instant::now();
        let (status, matches) = match self.exchange(&prepared.wire) {
            Ok((status, body)) => (Some(status), body == prepared.golden),
            Err(_) => (None, false),
        };
        Sample {
            index,
            status,
            matches,
            due,
            sent,
            done: Instant::now(),
        }
    }
}

/// Open loop: client `c` sends requests `c, c + CLIENTS, …` at their due
/// times `t0 + i / OPEN_RATE`.
fn open_loop(ctx: &Ctx, addr: SocketAddr, requests: &[Prepared]) -> Vec<Sample> {
    let parent = ctx.tracer.current();
    let t0 = Instant::now() + Duration::from_millis(20);
    let interval = Duration::from_secs_f64(1.0 / OPEN_RATE);
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client { addr, stream: None };
                    let mut samples = Vec::new();
                    for (i, prepared) in requests.iter().enumerate().skip(c).step_by(CLIENTS) {
                        let due = t0 + interval * i as u32;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sample = client.send(i, prepared, due);
                        ctx.tracer
                            .record("serve.request", sample.sent, sample.done, parent);
                        samples.push(sample);
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client panicked"))
            .collect()
    });
    let mut samples: Vec<Sample> = per_client.into_iter().flatten().collect();
    samples.sort_by_key(|s| s.index);
    samples
}

/// Closed loop for `length`: both clients send back to back, cycling
/// through `requests`.
fn closed_loop(
    ctx: &Ctx,
    addr: SocketAddr,
    requests: &[Prepared],
    length: Duration,
) -> Vec<Sample> {
    let parent = ctx.tracer.current();
    let next = AtomicU64::new(0);
    let end = Instant::now() + length;
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client { addr, stream: None };
                    let mut samples = Vec::new();
                    while Instant::now() < end {
                        let i =
                            (next.fetch_add(1, Ordering::Relaxed) % requests.len() as u64) as usize;
                        let sample = client.send(i, &requests[i], Instant::now());
                        ctx.tracer
                            .record("serve.request", sample.sent, sample.done, parent);
                        samples.push(sample);
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    per_client.into_iter().flatten().collect()
}

/// Open-loop latency of each sample in ms, from when it was due; a failed
/// request misses any latency limit, so it counts as infinitely slow.
fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    let mut ms: Vec<f64> = samples
        .iter()
        .map(|s| {
            if s.matches {
                (s.done - s.due).as_secs_f64() * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// Collects the campaign, boots a server on it, drives both load phases,
/// with spans, and sets the serving layer's metrics. Every served body
/// must equal the registry's own answer byte for byte; each request is one
/// operation.
pub fn phase(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let tr = &ctx.tracer;
    let suite = full_suite(Scale::Test);
    let cache = Arc::new(ProfileCache::new());
    let campaign = Campaign::new(wade_bench::server(), CampaignConfig::paper_full())
        .with_profile_cache(cache.clone());
    tr.time("profile.profile_suite", || {
        campaign.profile_suite(&suite, wade_bench::CAMPAIGN_SEED)
    });
    let data = tr.time("dram.collect", || {
        campaign.collect(&suite, wade_bench::CAMPAIGN_SEED)
    });
    let runs: u64 = data
        .rows
        .iter()
        .map(|r| u64::from(r.wer_run.is_some()) + r.pue_runs.len() as u64)
        .sum();
    out.set("profile.workloads", suite.len() as f64);
    let (hits, misses) = (cache.hits() + cache.disk_hits(), cache.misses());
    out.set(
        "profile.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("dram.runs", runs as f64);
    out.set("dram.runs_per_s", runs as f64 / tr.self_s("dram."));
    let mut server = tr
        .time("serve.start", || {
            Server::start(ServeConfig::default(), data.clone(), None)
        })
        .map_err(|e| format!("cannot start the server: {e}"))?;
    let registry = server.registry();
    let (open_requests, closed_requests) = tr.time("model.predict_rows", || {
        (
            prepare(&data, registry, ctx.seed, 0..OPEN_REQUESTS),
            prepare(
                &data,
                registry,
                ctx.seed,
                OPEN_REQUESTS..OPEN_REQUESTS + CLOSED_POOL,
            ),
        )
    });
    let addr = server.addr();
    let open = tr.time("serve.open_loop", || open_loop(ctx, addr, &open_requests));
    let closed = tr.time("serve.closed_loop", || {
        closed_loop(ctx, addr, &closed_requests, CLOSED_LENGTH)
    });

    let mut rows_ok = 0;
    for (phase, samples, requests) in [
        ("open", &open, &open_requests),
        ("closed", &closed, &closed_requests),
    ] {
        for s in samples.iter() {
            out.op(s.matches, || match s.status {
                Some(200) => format!(
                    "{phase} request {}: served body differs from predict_rows",
                    s.index
                ),
                Some(status) => format!("{phase} request {}: HTTP {status}", s.index),
                None => format!("{phase} request {}: transport error", s.index),
            });
            if s.matches {
                rows_ok += requests[s.index].rows;
            }
        }
    }
    let ok = |samples: &[Sample]| samples.iter().filter(|s| s.matches).count() as f64;
    out.set("serve.open.sent", open.len() as f64);
    out.set("serve.open.ok", ok(&open));
    out.set("serve.open.failed", open.len() as f64 - ok(&open));
    out.set("serve.closed.sent", closed.len() as f64);
    out.set("serve.closed.ok", ok(&closed));
    out.set("serve.closed.failed", closed.len() as f64 - ok(&closed));
    out.set(
        "serve.capacity_per_s",
        ok(&closed) / CLOSED_LENGTH.as_secs_f64(),
    );

    let latency = latencies_ms(&open);
    let (p50, p99) = (
        percentile_rank(&latency, 50.0),
        percentile_rank(&latency, 99.0),
    );
    let mut late: Vec<f64> = open
        .iter()
        .map(|s| s.sent.saturating_duration_since(s.due).as_secs_f64())
        .collect();
    late.sort_by(f64::total_cmp);
    let late_p99 = percentile_rank(&late, 99.0);
    if late_p99 > MAX_LATE_P99.as_secs_f64() {
        out.invalid(format!(
            "open-loop generator fell behind: p99 lateness {:.1} ms",
            late_p99 * 1e3
        ));
    }
    eprintln!(
        "[perfbench] serving: open loop p50 {p50:.3} ms, p99 {p99:.3} ms, generator late p99 {:.3} ms; closed loop {:.0} req/s",
        late_p99 * 1e3,
        ok(&closed) / CLOSED_LENGTH.as_secs_f64(),
    );
    out.set("serve.p99_over_p50", p99 / p50);
    let interval = 1.0 / OPEN_RATE;
    out.set("serve.gen_late_p99_share", late_p99 / interval);
    out.set(
        "serve.gen_late_max_share",
        late.last().copied().unwrap_or(0.0) / interval,
    );

    let metrics = server.metrics();
    out.set("serve.batches", metrics.batches() as f64);
    out.set(
        "serve.rows_per_batch",
        rows_ok as f64 / metrics.batches().max(1) as f64,
    );
    let names = [
        "serve.batch_hist.le_1",
        "serve.batch_hist.le_2",
        "serve.batch_hist.le_4",
        "serve.batch_hist.le_8",
        "serve.batch_hist.le_16",
        "serve.batch_hist.le_32",
        "serve.batch_hist.inf",
    ];
    assert_eq!(
        names.len(),
        BATCH_BUCKETS.len() + 1,
        "one metric per batch-size bucket"
    );
    for (name, count) in names.iter().zip(metrics.batch_histogram()) {
        out.set(name, count as f64);
    }
    let (mut rows, mut busy) = ([0usize; 3], [0f64; 3]);
    for prepared in open_requests.iter().chain(&closed_requests) {
        rows[prepared.kind] += prepared.rows;
        busy[prepared.kind] += prepared.predict.as_secs_f64();
    }
    for (k, name) in [
        "serve.rows_per_s.svm",
        "serve.rows_per_s.knn",
        "serve.rows_per_s.rdf",
    ]
    .iter()
    .enumerate()
    {
        out.set(name, rows[k] as f64 / busy[k]);
    }
    let model_s: f64 = open
        .iter()
        .map(|s| open_requests[s.index].predict.as_secs_f64())
        .sum();
    let request_s: f64 = open.iter().map(|s| (s.done - s.sent).as_secs_f64()).sum();
    out.set("serve.model_share", model_s / request_s);
    server.shutdown();
    Ok(())
}
