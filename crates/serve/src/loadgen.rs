//! Deterministic load generator for the serving layer.
//!
//! Request `k` of a run is a pure function of `(seed, k)` — the SimRng
//! discipline the rest of the workspace uses: an [`FaultRng`] seeded with
//! `mix64(seed, k)` draws the model kind, the row count, the sampled
//! campaign rows and the operating points. Any request mix is replayable
//! from the seed alone, on any thread count, because threads partition
//! the index space instead of sharing an RNG.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use wade_core::{CampaignData, MlKind};
use wade_dram::OperatingPoint;
use wade_store::{mix64, FaultRng};

use crate::http::read_response;
use crate::models::ModelRegistry;
use crate::protocol::{feature_set_label, PredictRequest, PredictResponse, PredictRow};

/// Shape of one load run.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Concurrent client threads (each with its own keep-alive
    /// connection).
    pub threads: usize,
    /// Total requests across all threads.
    pub requests: u64,
    /// Seed of the request mix.
    pub seed: u64,
}

/// What one load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests sent (== the configured count).
    pub requests: u64,
    /// Rows predicted across all requests.
    pub rows: u64,
    /// Non-200 responses and transport failures.
    pub errors: u64,
    /// Responses that differed from the golden registry's bytes (always
    /// zero without a golden registry).
    pub mismatches: u64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Requests per second over the whole run.
    pub throughput_rps: f64,
    /// Wall-clock of the whole run, milliseconds.
    pub elapsed_ms: f64,
}

/// The `k`-th request of a run seeded with `seed`: model kind, 1–4 rows
/// sampled from `data`, and operating points drawn from the paper's
/// sweep palette. Pure in `(data, seed, k)`.
pub fn request_for(data: &CampaignData, seed: u64, k: u64) -> PredictRequest {
    let mut rng = FaultRng::seed_from_u64(mix64(seed, k));
    let kind = MlKind::ALL[rng.next_below(MlKind::ALL.len() as u64) as usize];
    let n_rows = 1 + rng.next_below(4);
    let rows = (0..n_rows)
        .map(|_| {
            let row = &data.rows[rng.next_below(data.rows.len() as u64) as usize];
            let op = OperatingPoint {
                trefp_s: OperatingPoint::WER_TREFP_SWEEP
                    [rng.next_below(OperatingPoint::WER_TREFP_SWEEP.len() as u64) as usize],
                vdd_v: [OperatingPoint::VDD_NOMINAL, OperatingPoint::VDD_MIN]
                    [rng.next_below(2) as usize],
                temp_c: OperatingPoint::TEMPERATURES
                    [rng.next_below(OperatingPoint::TEMPERATURES.len() as u64) as usize],
            };
            PredictRow::new(&row.features, op)
        })
        .collect();
    PredictRequest { model: kind.label().to_string(), rows }
}

/// Runs the load against a live server. With `golden`, every 200 body is
/// compared byte-for-byte against serializing the registry's own
/// [`wade_core::ErrorModel::predict_rows`] on the same rows.
///
/// # Errors
/// Transport errors while connecting (per-request failures count into
/// [`LoadReport::errors`] instead).
pub fn run_load(
    addr: SocketAddr,
    data: &CampaignData,
    golden: Option<&ModelRegistry>,
    config: LoadConfig,
) -> io::Result<LoadReport> {
    assert!(!data.rows.is_empty(), "load generation needs campaign rows");
    let threads = config.threads.max(1);
    let started = Instant::now();
    let mut outcomes: Vec<io::Result<ThreadTally>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || run_thread(addr, data, golden, config, t as u64))
            })
            .collect();
        outcomes.extend(handles.into_iter().map(|h| match h.join() {
            Ok(outcome) => outcome,
            Err(_) => Err(io::Error::other("load thread panicked")),
        }));
    });
    let elapsed = started.elapsed();

    let mut latencies_us: Vec<u64> = Vec::new();
    let (mut rows, mut errors, mut mismatches) = (0u64, 0u64, 0u64);
    for outcome in outcomes {
        let tally = outcome?;
        rows += tally.rows;
        errors += tally.errors;
        mismatches += tally.mismatches;
        latencies_us.extend(tally.latencies_us);
    }
    latencies_us.sort_unstable();
    let elapsed_s = elapsed.as_secs_f64().max(1e-9);
    Ok(LoadReport {
        requests: config.requests,
        rows,
        errors,
        mismatches,
        p50_ms: percentile_ms(&latencies_us, 50.0),
        p99_ms: percentile_ms(&latencies_us, 99.0),
        throughput_rps: config.requests as f64 / elapsed_s,
        elapsed_ms: elapsed_s * 1e3,
    })
}

struct ThreadTally {
    rows: u64,
    errors: u64,
    mismatches: u64,
    latencies_us: Vec<u64>,
}

/// One client thread: requests `k ≡ t (mod threads)` over a single
/// keep-alive connection.
fn run_thread(
    addr: SocketAddr,
    data: &CampaignData,
    golden: Option<&ModelRegistry>,
    config: LoadConfig,
    t: u64,
) -> io::Result<ThreadTally> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let mut tally = ThreadTally { rows: 0, errors: 0, mismatches: 0, latencies_us: Vec::new() };
    let mut k = t;
    while k < config.requests {
        let request = request_for(data, config.seed, k);
        tally.rows += request.rows.len() as u64;
        let body = serde_json::to_string(&request).expect("request serializes");
        let head = format!(
            "POST /predict HTTP/1.1\r\nHost: wade\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len(),
        );
        let sent = Instant::now();
        let exchange = stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.write_all(body.as_bytes()))
            .and_then(|()| read_response(&mut stream));
        match exchange {
            Ok((200, served)) => {
                tally.latencies_us.push(sent.elapsed().as_micros() as u64);
                if let Some(registry) = golden {
                    if golden_body(registry, &request) != served {
                        tally.mismatches += 1;
                    }
                }
            }
            Ok(_) => tally.errors += 1,
            Err(_) => {
                tally.errors += 1;
                // The connection is gone; reconnect for the next request.
                stream = TcpStream::connect(addr)?;
                let _ = stream.set_nodelay(true);
            }
        }
        k += config.threads.max(1) as u64;
    }
    Ok(tally)
}

/// The byte-exact body a correct server must answer for `request`.
fn golden_body(registry: &ModelRegistry, request: &PredictRequest) -> Vec<u8> {
    let kind = crate::protocol::parse_model_kind(&request.model).expect("generated label");
    let rows: Vec<_> = request
        .rows
        .iter()
        .map(|row| row.clone().into_input().expect("generated row is valid"))
        .collect();
    let response = PredictResponse {
        model: kind.label().to_string(),
        set: feature_set_label(registry.set()).to_string(),
        rows: registry.model(kind).predict_rows(&rows),
    };
    serde_json::to_string(&response).expect("response serializes").into_bytes()
}

/// Nearest-rank percentile of sorted microsecond latencies, in ms.
fn percentile_ms(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)] as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_data() -> CampaignData {
        use wade_core::{Campaign, CampaignConfig, SimulatedServer};
        use wade_workloads::{paper_suite, Scale};
        Campaign::new(SimulatedServer::with_seed(39), CampaignConfig::quick())
            .collect(&paper_suite(Scale::Test), 7)
    }

    #[test]
    fn requests_are_pure_in_seed_and_index() {
        let data = tiny_data();
        for k in 0..16 {
            assert_eq!(request_for(&data, 11, k), request_for(&data, 11, k));
        }
        assert_ne!(request_for(&data, 11, 0), request_for(&data, 12, 0));
    }

    #[test]
    fn generated_requests_are_well_formed() {
        let data = tiny_data();
        for k in 0..32 {
            let request = request_for(&data, 5, k);
            assert!(crate::protocol::parse_model_kind(&request.model).is_some());
            assert!((1..=4).contains(&request.rows.len()));
            for row in request.rows {
                assert!(row.clone().into_input().is_ok());
                assert!(OperatingPoint::WER_TREFP_SWEEP.contains(&row.trefp_s));
            }
        }
    }

    #[test]
    fn percentiles_hit_the_expected_ranks() {
        let us: Vec<u64> = (1..=100).map(|v| v * 1000).collect();
        assert!((percentile_ms(&us, 50.0) - 50.0).abs() < 2.0);
        assert!((percentile_ms(&us, 99.0) - 99.0).abs() < 2.0);
        assert_eq!(percentile_ms(&[], 50.0), 0.0);
    }
}
