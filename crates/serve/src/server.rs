//! The long-running server: accept loop, worker pool, routes, shutdown.
//!
//! Topology: one accept thread feeds connections to a fixed worker pool
//! through a channel; each worker runs a keep-alive loop per connection
//! and answers `POST /predict` itself, with one `predict_rows` call on
//! the request's rows. An optional watcher thread polls the store for
//! artifact changes and hot-swaps the in-memory models. Every handler
//! path is panic-isolated: a panicking model answers that request with a
//! 500, a panicking connection kills that connection, never the server.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wade_core::CampaignData;
use wade_features::FeatureSet;
use wade_store::ArtifactStore;

use crate::http::{read_request, write_response, Request, RequestError};
use crate::metrics::Metrics;
use crate::models::ModelRegistry;
use crate::protocol::{feature_set_label, parse_model_kind, PredictRequest, PredictResponse};

/// Feature set the served models are trained on.
const SERVED_SET: FeatureSet = FeatureSet::Set1;
/// Connection-handling worker threads.
const WORKERS: usize = 8;
/// Request-body bound; larger declared bodies answer `413`.
const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Per-read socket timeout; an idle keep-alive connection is dropped after
/// this long.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// The deployment settings of one [`Server`] instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks a free port (read it back from
    /// [`Server::addr`]).
    pub addr: String,
    /// Hot-reload poll interval; `None` disables the watcher thread
    /// ([`ModelRegistry::poll_reload`] can still be driven manually).
    pub reload_poll: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { addr: "127.0.0.1:0".into(), reload_poll: None }
    }
}

/// A running inference server; dropping it shuts it down.
pub struct Server {
    addr: SocketAddr,
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// The reload watcher and its stop sender: dropping the sender ends
    /// the watcher's wait at once.
    watcher: Option<(mpsc::Sender<()>, JoinHandle<()>)>,
}

impl Server {
    /// Binds, boots the models (loading from `store` or training cold)
    /// and starts serving.
    ///
    /// # Errors
    /// The bind error when `config.addr` is unavailable.
    pub fn start(
        config: ServeConfig,
        data: CampaignData,
        store: Option<Arc<ArtifactStore>>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(ModelRegistry::new(data, SERVED_SET, store));
        let metrics = Arc::new(Metrics::new());
        let stop = Arc::new(AtomicBool::new(false));

        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        if conn_tx.send(stream).is_err() {
                            break;
                        }
                    }
                }
                // conn_tx drops here; workers drain and exit.
            })
        };

        let workers = (0..WORKERS)
            .map(|_| {
                let conn_rx = Arc::clone(&conn_rx);
                let registry = Arc::clone(&registry);
                let metrics = Arc::clone(&metrics);
                std::thread::spawn(move || loop {
                    let stream = {
                        let rx = conn_rx.lock().expect("connection channel poisoned");
                        rx.recv()
                    };
                    let Ok(stream) = stream else { break };
                    // A panicking connection (bad model invariant, …)
                    // must not take the worker down with it.
                    let _ = catch_unwind(AssertUnwindSafe(|| {
                        handle_connection(stream, &registry, &metrics);
                    }));
                })
            })
            .collect();

        let watcher = config.reload_poll.map(|period| {
            let (stop_tx, stop_rx) = mpsc::channel::<()>();
            let registry = Arc::clone(&registry);
            let metrics = Arc::clone(&metrics);
            // Nothing is ever sent: the wait times out once per period
            // until `shutdown` drops the sender.
            let handle = std::thread::spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = stop_rx.recv_timeout(period) {
                    metrics.record_reloads(registry.poll_reload());
                }
            });
            (stop_tx, handle)
        });

        Ok(Self {
            addr,
            registry,
            metrics,
            stop,
            accept: Some(accept),
            workers,
            watcher,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's counters.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The served model snapshots (e.g. to compute golden expectations or
    /// drive [`ModelRegistry::poll_reload`] manually in tests).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Stops accepting, drains in-flight work and joins every thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some((stop_tx, watcher)) = self.watcher.take() {
            drop(stop_tx);
            let _ = watcher.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Keep-alive loop over one connection: read, route, answer, repeat.
fn handle_connection(mut stream: TcpStream, registry: &ModelRegistry, metrics: &Metrics) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    loop {
        let request = match read_request(&mut stream, MAX_BODY_BYTES) {
            Ok(request) => request,
            Err(RequestError::Closed) => return,
            Err(RequestError::Malformed(reason)) => {
                metrics.record_request(400);
                let _ = write_response(&mut stream, 400, "Bad Request", &error_body(reason), false);
                return;
            }
            Err(RequestError::TooLarge) => {
                metrics.record_request(413);
                let body = error_body("body exceeds the configured bound");
                let _ = write_response(&mut stream, 413, "Content Too Large", &body, false);
                return;
            }
        };
        let keep_alive = !request.wants_close();
        let (status, reason, body) = route(&request, registry, metrics);
        metrics.record_request(status);
        if write_response(&mut stream, status, reason, &body, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// Dispatches one parsed request to `(status, reason, body)`.
fn route(
    request: &Request,
    registry: &ModelRegistry,
    metrics: &Metrics,
) -> (u16, &'static str, String) {
    match (request.method.as_str(), request.target.as_str()) {
        ("GET", "/healthz") => {
            let body = format!(
                "{{\"status\":\"ok\",\"set\":\"{}\",\"degraded\":{}}}",
                feature_set_label(registry.set()),
                registry.degraded(),
            );
            (200, "OK", body)
        }
        ("GET", "/metrics") => {
            (200, "OK", metrics.render_json(registry.degraded(), registry.store_unfit()))
        }
        ("POST", "/predict") => predict(request, registry, metrics),
        _ => (404, "Not Found", error_body("no such route")),
    }
}

/// The `POST /predict` handler: validate, then predict on this worker.
fn predict(
    request: &Request,
    registry: &ModelRegistry,
    metrics: &Metrics,
) -> (u16, &'static str, String) {
    let started = Instant::now();
    let bad = |reason: &'static str| (400, "Bad Request", error_body(reason));
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return bad("body is not UTF-8");
    };
    let Ok(parsed) = serde_json::from_str::<PredictRequest>(text) else {
        return bad("body is not a predict request");
    };
    let Some(kind) = parse_model_kind(&parsed.model) else {
        return bad("unknown model label");
    };
    let mut rows = Vec::with_capacity(parsed.rows.len());
    for row in parsed.rows {
        match row.into_input() {
            Ok(input) => rows.push(input),
            Err(reason) => return bad(reason),
        }
    }
    let model = registry.model(kind);
    let Ok(predictions) = catch_unwind(AssertUnwindSafe(|| model.predict_rows(&rows))) else {
        // A panicking model answers this request only; the worker and its
        // connection keep serving.
        return (500, "Internal Server Error", error_body("prediction failed"));
    };
    let response = PredictResponse {
        model: kind.label().to_string(),
        set: feature_set_label(registry.set()).to_string(),
        rows: predictions,
    };
    let body = serde_json::to_string(&response).expect("response serializes");
    metrics.record_predict(rows.len() as u64, started.elapsed().as_micros() as u64);
    (200, "OK", body)
}

fn error_body(reason: &str) -> String {
    format!("{{\"error\":\"{reason}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::read_response;
    use crate::protocol::PredictRow;
    use serde::{Deserialize, Serialize, Value};
    use std::io::Write;
    use wade_core::{
        build_pue_dataset, Campaign, CampaignConfig, ErrorModel, MlKind, SimulatedServer,
    };
    use wade_dram::OperatingPoint;
    use wade_workloads::{paper_suite, Scale};

    fn send_request(stream: &mut TcpStream, method: &str, path: &str, body: &str) {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: wade\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).expect("send head");
        stream.write_all(body.as_bytes()).expect("send body");
    }

    #[test]
    fn protocol_a_panicking_model_answers_500_and_the_connection_keeps_serving() {
        let data = Campaign::new(SimulatedServer::with_seed(5), CampaignConfig::quick())
            .collect(&paper_suite(Scale::Test), 8);
        let server =
            Server::start(ServeConfig::default(), data.clone(), None).expect("bind loopback");
        let kind = MlKind::Rdf;
        // A forest over rows twice the served width whose signal sits only
        // in the extra half: its splits index past the end of every served
        // row.
        let width = build_pue_dataset(&data, SERVED_SET).dim();
        let (x, y): (Vec<Vec<f64>>, Vec<f64>) = (0..32)
            .map(|i| {
                let mut row = vec![0.0; width];
                row.extend(std::iter::repeat_n(f64::from(i), width));
                (row, f64::from(i))
            })
            .unzip();
        let wide = kind.train_any(&x, &y);
        // The served model with the wide forest in its PUE slot. The store
        // refuses such a model, so it is installed straight into the slot.
        let mut tree = server.registry().model(kind).to_value();
        let Value::Map(fields) = &mut tree else { panic!("an error model is a map") };
        fields.iter_mut().find(|(name, _)| name == "pue_model").expect("PUE slot").1 =
            Some(wide).to_value();
        server.registry().install(kind, ErrorModel::from_value(&tree).expect("model rebuilds"));

        let op = OperatingPoint::relaxed(OperatingPoint::WER_TREFP_SWEEP[0], 60.0);
        let rows = data.rows.iter().take(3).map(|row| PredictRow::new(&row.features, op));
        let request = PredictRequest { model: kind.label().to_string(), rows: rows.collect() };
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        send_request(&mut stream, "POST", "/predict", &serde_json::to_string(&request).unwrap());
        let (status, served) = read_response(&mut stream).expect("response");
        assert_eq!(status, 500);
        assert_eq!(served, b"{\"error\":\"prediction failed\"}");
        // The same keep-alive connection is still served.
        send_request(&mut stream, "GET", "/healthz", "");
        let (status, _) = read_response(&mut stream).expect("healthz after the 500");
        assert_eq!(status, 200);
        assert_eq!(server.metrics().errors_5xx(), 1);
    }
}
