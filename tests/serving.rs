//! The serving test pyramid (ARCHITECTURE.md §13): a live `wade-serve`
//! instance must answer `POST /predict` with bytes identical to
//! serializing `ErrorModel::predict_rows` directly — across model kinds,
//! client thread counts, and cold/warm stores — while surviving every
//! protocol abuse (malformed JSON, oversized bodies, trickled reads,
//! abrupt disconnects) without a panic or a dropped listener. Hot-reload
//! and fault-schedule behaviour ride on the same store seam as the rest
//! of the pipeline: artifact swaps are picked up by mtime polling, store
//! faults degrade to the in-memory models and never surface as 5xx.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use wade_core::{
    build_pue_dataset, train_error_model, train_error_model_stored, Campaign, CampaignConfig,
    CampaignData, MlKind, SimulatedServer, MODEL_KIND,
};
use wade_dram::OperatingPoint;
use wade_serve::{
    feature_set_label, parse_model_kind, read_response, request_for, run_load, LoadConfig,
    PredictRequest, PredictResponse, PredictRow, ServeConfig, Server,
};
use wade_store::{ArtifactStore, FaultPlan, FaultyFs, RealFs};
use wade_workloads::{paper_suite, Scale};

/// The campaign every serving test trains and predicts against —
/// collected once, deterministic in its seeds.
fn campaign_data() -> &'static CampaignData {
    static DATA: OnceLock<CampaignData> = OnceLock::new();
    DATA.get_or_init(|| {
        Campaign::new(SimulatedServer::with_seed(5), CampaignConfig::quick())
            .collect(&paper_suite(Scale::Test), 8)
    })
}

/// A unique scratch directory per test (removed at entry so reruns start
/// cold).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wade-serving-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(store: Option<Arc<ArtifactStore>>) -> Server {
    Server::start(ServeConfig::default(), campaign_data().clone(), store).expect("bind loopback")
}

/// One HTTP exchange over a fresh connection.
fn exchange(server: &Server, method: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    send_request(&mut stream, method, path, body);
    read_response(&mut stream).expect("response")
}

fn send_request(stream: &mut TcpStream, method: &str, path: &str, body: &str) {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: wade\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("send head");
    stream.write_all(body.as_bytes()).expect("send body");
}

/// A fixed 3-row request for `kind`, built from real campaign rows.
fn sample_request(kind: MlKind) -> PredictRequest {
    let data = campaign_data();
    let rows = [0usize, data.rows.len() / 2, data.rows.len() - 1]
        .iter()
        .map(|&i| {
            let row = &data.rows[i];
            PredictRow::new(
                &row.features,
                OperatingPoint::relaxed(OperatingPoint::WER_TREFP_SWEEP[i % 4], 60.0),
            )
        })
        .collect();
    PredictRequest { model: kind.label().to_string(), rows }
}

/// The byte-exact body a correct server must answer: the served model
/// snapshot's own `predict_rows`, serialized through the same derive.
fn golden_body(server: &Server, request: &PredictRequest) -> Vec<u8> {
    let registry = server.registry();
    let kind = parse_model_kind(&request.model).expect("known label");
    let rows: Vec<_> =
        request.rows.iter().map(|r| r.clone().into_input().expect("valid row")).collect();
    let response = PredictResponse {
        model: kind.label().to_string(),
        set: feature_set_label(registry.set()).to_string(),
        rows: registry.model(kind).predict_rows(&rows),
    };
    serde_json::to_string(&response).expect("serializes").into_bytes()
}

// ---- golden suite -----------------------------------------------------------

#[test]
fn golden_served_bytes_match_direct_predictions_for_every_kind() {
    let server = start_server(None);
    for kind in MlKind::ALL {
        let request = sample_request(kind);
        let body = serde_json::to_string(&request).unwrap();
        let (status, served) = exchange(&server, "POST", "/predict", &body);
        assert_eq!(status, 200, "kind {kind:?}");
        assert_eq!(served, golden_body(&server, &request), "kind {kind:?}");
        // The response parses back into the typed protocol.
        let parsed: PredictResponse =
            serde_json::from_str(std::str::from_utf8(&served).unwrap()).expect("typed response");
        assert_eq!(parsed.rows.len(), request.rows.len());
    }
}

#[test]
fn golden_concurrent_load_is_byte_identical_to_direct_predictions() {
    let server = start_server(None);
    for threads in [1usize, 8] {
        let report = run_load(
            server.addr(),
            campaign_data(),
            Some(server.registry().as_ref()),
            LoadConfig { threads, requests: 48, seed: 31 },
        )
        .expect("load run");
        assert_eq!(report.errors, 0, "threads {threads}");
        assert_eq!(report.mismatches, 0, "threads {threads}");
        assert!(report.rows >= report.requests);
    }
    // Every request was one model dispatch on its connection worker, and
    // the batch-size histogram accounts for each of them.
    let metrics = server.metrics();
    assert_eq!(metrics.batches(), 96);
    assert_eq!(metrics.batch_histogram().iter().sum::<u64>(), 96);
}

#[test]
fn golden_cold_and_warm_store_serve_identical_bytes() {
    let root = scratch("cold-warm");
    let requests: Vec<PredictRequest> = MlKind::ALL.into_iter().map(sample_request).collect();

    let cold_store = Arc::new(ArtifactStore::open(&root));
    let cold = start_server(Some(cold_store.clone()));
    let cold_bodies: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| {
            let (status, body) =
                exchange(&cold, "POST", "/predict", &serde_json::to_string(r).unwrap());
            assert_eq!(status, 200);
            body
        })
        .collect();
    assert!(cold_store.writes() > 0, "cold boot publishes trained models");
    drop(cold);

    let warm_store = Arc::new(ArtifactStore::open(&root));
    let warm = start_server(Some(warm_store.clone()));
    assert!(warm_store.hits() > 0, "warm boot loads models from the store");
    assert_eq!(warm_store.writes(), 0, "warm boot re-publishes nothing");
    for (request, cold_body) in requests.iter().zip(&cold_bodies) {
        let (status, body) =
            exchange(&warm, "POST", "/predict", &serde_json::to_string(request).unwrap());
        assert_eq!(status, 200);
        assert_eq!(&body, cold_body, "warm bytes == cold bytes ({})", request.model);
    }
    let _ = std::fs::remove_dir_all(&root);
}

// ---- protocol robustness ----------------------------------------------------

#[test]
fn protocol_malformed_requests_get_400_and_the_server_keeps_serving() {
    let server = start_server(None);
    let cases = [
        "this is not json",
        "{\"model\":\"GPT\",\"rows\":[]}",
        "{\"model\":\"KNN\",\"rows\":[{\"features\":[1.0],\"trefp_s\":1.0,\"temp_c\":60.0,\"vdd_v\":1.5}]}",
        "{\"rows\":[]}",
    ];
    for body in cases {
        let (status, _) = exchange(&server, "POST", "/predict", body);
        assert_eq!(status, 400, "body {body:?}");
    }
    let (status, body) = exchange(&server, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.starts_with(b"{\"status\":\"ok\""));
    assert!(server.metrics().errors_4xx() >= cases.len() as u64);
    assert_eq!(server.metrics().errors_5xx(), 0);
}

#[test]
fn protocol_unknown_routes_get_404() {
    let server = start_server(None);
    for (method, path) in [("GET", "/predict"), ("POST", "/healthz"), ("GET", "/nope")] {
        let (status, _) = exchange(&server, method, path, "");
        assert_eq!(status, 404, "{method} {path}");
    }
}

#[test]
fn protocol_oversized_bodies_get_413_without_reading_the_payload() {
    let server = start_server(None);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    // Declare a 64 MiB body but never send it: the bound must trip on the
    // declaration alone.
    stream
        .write_all(b"POST /predict HTTP/1.1\r\nHost: wade\r\nContent-Length: 67108864\r\n\r\n")
        .expect("send head");
    let (status, _) = read_response(&mut stream).expect("response");
    assert_eq!(status, 413);
    // And the server is still alive for the next client.
    let (status, _) = exchange(&server, "GET", "/healthz", "");
    assert_eq!(status, 200);
}

#[test]
fn protocol_trickled_requests_parse_identically() {
    let server = start_server(None);
    let request = sample_request(MlKind::Knn);
    let body = serde_json::to_string(&request).unwrap();
    let wire = format!(
        "POST /predict HTTP/1.1\r\nHost: wade\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    for chunk in wire.as_bytes().chunks(512) {
        stream.write_all(chunk).expect("send chunk");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(2));
    }
    let (status, served) = read_response(&mut stream).expect("response");
    assert_eq!(status, 200);
    assert_eq!(served, golden_body(&server, &request));
}

#[test]
fn protocol_keep_alive_serves_many_requests_on_one_connection() {
    let server = start_server(None);
    let request = sample_request(MlKind::Svm);
    let body = serde_json::to_string(&request).unwrap();
    let golden = golden_body(&server, &request);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    for i in 0..5 {
        send_request(&mut stream, "POST", "/predict", &body);
        let (status, served) = read_response(&mut stream).expect("response");
        assert_eq!(status, 200, "request {i} on the same connection");
        assert_eq!(served, golden);
    }
}

#[test]
fn protocol_abrupt_disconnects_leave_the_server_serving() {
    let server = start_server(None);
    // Half a request line, then gone.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(b"POST /pred").expect("partial head");
    drop(stream);
    // Full headers, half the promised body, then gone.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(b"POST /predict HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"model\"")
        .expect("partial body");
    drop(stream);
    // The pool still answers.
    let request = sample_request(MlKind::Rdf);
    let (status, served) =
        exchange(&server, "POST", "/predict", &serde_json::to_string(&request).unwrap());
    assert_eq!(status, 200);
    assert_eq!(served, golden_body(&server, &request));
}

// ---- hot reload -------------------------------------------------------------

#[test]
fn reload_hot_swaps_published_models_and_keeps_old_snapshots_valid() {
    let root = scratch("reload");
    let store = Arc::new(ArtifactStore::open(&root));
    let server = start_server(Some(store.clone()));
    let kind = MlKind::Knn;
    let set = server.registry().set();
    let request = sample_request(kind);
    let body = serde_json::to_string(&request).unwrap();
    let (status, before) = exchange(&server, "POST", "/predict", &body);
    assert_eq!(status, 200);
    let old_model = server.registry().model(kind);

    // Publish a deliberately different PUE model under the serving key:
    // same dataset, targets shifted — predictions must change.
    // The server booted on this store, so the call only reads its entries.
    let keys = train_error_model_stored(Some(&store), campaign_data(), kind, set).1;
    let pue_key = keys.last().expect("trainable pue slot").clone();
    let ds = build_pue_dataset(campaign_data(), set);
    let shifted: Vec<f64> = ds.targets().iter().map(|t| (t + 0.31).min(1.0)).collect();
    let swapped = kind.train_any(&ds.features(), &shifted);
    std::thread::sleep(Duration::from_millis(20)); // distinct mtime
    store.put(MODEL_KIND, &pue_key, &swapped).expect("publish swapped model");

    assert!(server.registry().poll_reload() >= 1, "mtime change triggers a reload");
    let (status, after) = exchange(&server, "POST", "/predict", &body);
    assert_eq!(status, 200);
    assert_ne!(after, before, "swapped model changes served predictions");
    assert_eq!(after, golden_body(&server, &request), "post-reload bytes still golden");

    // The pre-reload snapshot stays fully usable: in-flight requests that
    // grabbed it finish on the old model and reproduce the old bytes.
    let rows: Vec<_> =
        request.rows.iter().map(|r| r.clone().into_input().expect("valid")).collect();
    let old_response = PredictResponse {
        model: kind.label().to_string(),
        set: feature_set_label(set).to_string(),
        rows: old_model.predict_rows(&rows),
    };
    assert_eq!(serde_json::to_string(&old_response).unwrap().into_bytes(), before);

    // A poll with nothing new is a no-op.
    assert_eq!(server.registry().poll_reload(), 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn reload_watcher_thread_swaps_published_models_until_shutdown() {
    let root = scratch("watcher");
    let store = Arc::new(ArtifactStore::open(&root));
    let config =
        ServeConfig { reload_poll: Some(Duration::from_millis(10)), ..ServeConfig::default() };
    let mut server =
        Server::start(config, campaign_data().clone(), Some(store.clone())).expect("bind loopback");
    let kind = MlKind::Knn;
    let set = server.registry().set();
    let request = sample_request(kind);
    let body = serde_json::to_string(&request).unwrap();
    let (status, before) = exchange(&server, "POST", "/predict", &body);
    assert_eq!(status, 200);

    // Publish a PUE model trained on shifted targets under the serving key.
    let keys = train_error_model_stored(Some(&store), campaign_data(), kind, set).1;
    let ds = build_pue_dataset(campaign_data(), set);
    let shifted: Vec<f64> = ds.targets().iter().map(|t| (t + 0.31).min(1.0)).collect();
    let swapped = kind.train_any(&ds.features(), &shifted);
    std::thread::sleep(Duration::from_millis(20)); // distinct mtime
    store.put(MODEL_KIND, keys.last().expect("trainable pue slot"), &swapped).expect("publish");
    // The new golden: the error model the store now holds, predicted directly.
    let reloaded = train_error_model_stored(Some(&store), campaign_data(), kind, set).0;
    let rows: Vec<_> =
        request.rows.iter().map(|r| r.clone().into_input().expect("valid")).collect();
    let golden = PredictResponse {
        model: kind.label().to_string(),
        set: feature_set_label(set).to_string(),
        rows: reloaded.predict_rows(&rows),
    };
    let golden = serde_json::to_string(&golden).unwrap().into_bytes();
    assert_ne!(golden, before, "the swapped model changes predictions");

    // No manual poll: only the watcher thread can pick the swap up.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (_, metrics) = exchange(&server, "GET", "/metrics", "");
        let metrics = String::from_utf8(metrics).unwrap();
        let reloads: u64 = metrics
            .split("\"reloads\":")
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|n| n.parse().ok())
            .expect("reloads counter in /metrics");
        let (status, served) = exchange(&server, "POST", "/predict", &body);
        assert_eq!(status, 200);
        if reloads >= 1 && served == golden {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "watcher never reloaded: {metrics}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Shutdown stops the watcher mid-wait and returns.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    done_rx.recv_timeout(Duration::from_secs(10)).expect("shutdown returns");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn reload_refuses_published_models_that_do_not_fit_the_served_rows() {
    let root = scratch("refuse");
    let store = Arc::new(ArtifactStore::open(&root));
    let server = start_server(Some(store.clone()));
    let set = server.registry().set();
    let width = build_pue_dataset(campaign_data(), set).dim();
    let requests = [sample_request(MlKind::Rdf), sample_request(MlKind::Knn)];
    let goldens: Vec<Vec<u8>> = requests.iter().map(|r| golden_body(&server, r)).collect();
    // The golden is the store-free model's own prediction.
    for (request, golden) in requests.iter().zip(&goldens) {
        let kind = parse_model_kind(&request.model).expect("known label");
        let rows: Vec<_> =
            request.rows.iter().map(|r| r.clone().into_input().expect("valid")).collect();
        let direct = PredictResponse {
            model: request.model.clone(),
            set: feature_set_label(set).to_string(),
            rows: train_error_model(campaign_data(), kind, set).predict_rows(&rows),
        };
        assert_eq!(&serde_json::to_string(&direct).unwrap().into_bytes(), golden);
    }

    // A forest over rows twice the served width whose signal sits only in
    // the extra half (its splits index past every served row), and a KNN
    // trained on rows one feature short.
    let (x, y): (Vec<Vec<f64>>, Vec<f64>) = (0..32)
        .map(|i| {
            let mut row = vec![0.0; width];
            row.extend(std::iter::repeat_n(f64::from(i), width));
            (row, f64::from(i))
        })
        .unzip();
    let wide = MlKind::Rdf.train_any(&x, &y);
    let narrow_x: Vec<Vec<f64>> = x.iter().map(|row| row[..width - 1].to_vec()).collect();
    let narrow = MlKind::Knn.train_any(&narrow_x, &y);
    // The server booted on this store, so these calls only read its entries.
    let rdf_keys = train_error_model_stored(Some(&store), campaign_data(), MlKind::Rdf, set).1;
    let knn_keys = train_error_model_stored(Some(&store), campaign_data(), MlKind::Knn, set).1;
    std::thread::sleep(Duration::from_millis(20)); // distinct mtime
    store.put(MODEL_KIND, &rdf_keys[0], &wide).expect("publish the wide forest");
    store.put(MODEL_KIND, knn_keys.last().expect("trainable pue slot"), &narrow).expect("publish");
    std::thread::sleep(Duration::from_millis(20)); // the rewrites get a distinct mtime

    let serves_goldens = |server: &Server| {
        for (request, golden) in requests.iter().zip(&goldens) {
            let body = serde_json::to_string(request).unwrap();
            let (status, served) = exchange(server, "POST", "/predict", &body);
            assert_eq!(status, 200, "{}", request.model);
            assert_eq!(&served, golden, "{} serves the boot-time bytes", request.model);
        }
    };
    // Both changed families reload, refuse the misfit and rewrite it; the
    // rewrites are changes too, so both reload once more, now from a fit
    // entry; then nothing is left to reload.
    assert_eq!(server.registry().poll_reload(), 2, "both published models are changes");
    assert_eq!(store.unfit(), 2, "both published models are refused");
    serves_goldens(&server);
    assert_eq!(server.registry().poll_reload(), 2, "the rewrites are changes");
    assert_eq!(server.registry().poll_reload(), 0);
    assert_eq!(store.unfit(), 2, "the rewritten entries fit");
    serves_goldens(&server);
    let (_, metrics) = exchange(&server, "GET", "/metrics", "");
    let metrics = String::from_utf8(metrics).unwrap();
    assert!(metrics.ends_with(",\"store_unfit\":2}"), "refusals in /metrics: {metrics}");
    assert_eq!(server.metrics().errors_5xx(), 0);
    drop(server);

    // A misfit under a serving key is refused at boot too.
    store.put(MODEL_KIND, &rdf_keys[0], &wide).expect("publish the wide forest again");
    let booted_store = Arc::new(ArtifactStore::open(&root));
    let booted = start_server(Some(booted_store.clone()));
    assert_eq!(booted_store.unfit(), 1, "boot refuses the wide forest");
    serves_goldens(&booted);
    let _ = std::fs::remove_dir_all(&root);
}

// ---- fault schedules --------------------------------------------------------

#[test]
fn fault_schedule_degrades_the_store_tier_without_a_single_5xx() {
    let root = scratch("faulty");
    let store = Arc::new(ArtifactStore::open_with_fs(
        &root,
        FaultyFs::new(RealFs, FaultPlan::uniform(23, 0.10)),
    ));
    let server = start_server(Some(store));
    let report = run_load(
        server.addr(),
        campaign_data(),
        Some(server.registry().as_ref()),
        LoadConfig { threads: 4, requests: 32, seed: 19 },
    )
    .expect("load over faulty store");
    assert_eq!(report.errors, 0, "store faults never surface as serving errors");
    assert_eq!(report.mismatches, 0, "faulty-store predictions stay byte-identical");
    // Reload polls ride the same faulty seam: they must neither panic nor
    // forget the served models.
    for _ in 0..8 {
        server.registry().poll_reload();
    }
    let (status, body) = exchange(&server, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(std::str::from_utf8(&body).unwrap().contains("\"degraded\":"));
    assert_eq!(server.metrics().errors_5xx(), 0);
    let _ = std::fs::remove_dir_all(&root);
}

// ---- load generator ---------------------------------------------------------

#[test]
fn loadgen_request_mix_is_replayable_from_the_seed_alone() {
    let data = campaign_data();
    // Pure in (seed, k): two independent replays produce the same bytes.
    let replay_a: Vec<String> =
        (0..32).map(|k| serde_json::to_string(&request_for(data, 11, k)).unwrap()).collect();
    let replay_b: Vec<String> =
        (0..32).map(|k| serde_json::to_string(&request_for(data, 11, k)).unwrap()).collect();
    assert_eq!(replay_a, replay_b);
    // Schema: every generated body parses back into the typed request.
    for json in &replay_a {
        let parsed: PredictRequest = serde_json::from_str(json).expect("typed request");
        assert!(parse_model_kind(&parsed.model).is_some());
        assert!(!parsed.rows.is_empty());
    }
    // And a live pinned-seed run is clean end to end.
    let server = start_server(None);
    let report = run_load(
        server.addr(),
        data,
        Some(server.registry().as_ref()),
        LoadConfig { threads: 2, requests: 24, seed: 11 },
    )
    .expect("pinned-seed load");
    assert_eq!((report.errors, report.mismatches), (0, 0), "no_errors:true");
    assert_eq!(report.requests, 24);
}

#[test]
fn metrics_endpoint_reflects_served_traffic() {
    let server = start_server(None);
    let request = sample_request(MlKind::Knn);
    let (status, _) =
        exchange(&server, "POST", "/predict", &serde_json::to_string(&request).unwrap());
    assert_eq!(status, 200);
    let (status, body) = exchange(&server, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let text = std::str::from_utf8(&body).unwrap();
    for needle in ["\"predict_requests\":1", "\"rows_predicted\":3", "\"errors_5xx\":0"] {
        assert!(text.contains(needle), "missing {needle} in {text}");
    }
}
