//! # wade-serve — prediction-as-a-service
//!
//! The paper's end product is a trained predictor that answers in
//! microseconds what a characterization campaign answers in hours; this
//! crate puts that predictor behind a long-running HTTP/JSON server, the
//! layer field deployments place between telemetry and mitigation. The
//! stack is deliberately dependency-free — a minimal vendored-style
//! HTTP/1.1 implementation over `std::net::TcpListener`, the same
//! no-crates.io discipline as the rest of the workspace.
//!
//! The serving contract (normative; ARCHITECTURE.md §13):
//!
//! * **Byte-identity.** A `POST /predict` response is byte-identical to
//!   serializing [`wade_core::ErrorModel::predict_rows`] on the same rows:
//!   the connection worker that read the request makes exactly that one
//!   `predict_rows` call on the current model snapshot, so concurrent
//!   requests predict in parallel on their own workers and never share a
//!   call — `tests/serving.rs` asserts this at 1 and 8 client threads,
//!   cold and warm store, for all three model kinds.
//! * **Store-backed models.** On boot, models load from the artifact
//!   store (kind `model`, keyed by trainer config + dataset fingerprint,
//!   fold `""`) and are trained and published on a cold store. The
//!   registry is indifferent to where the campaign came from: a
//!   fleet-swept population lowered through `wade-fleet`'s
//!   `fleet_campaign_data` trains and serves identically to a
//!   single-server characterization campaign (`tests/fleet_scale.rs`). A watcher
//!   polls the entries' mtimes through the `wade_fault::StoreFs` seam
//!   (fault schedules apply to serving too) and hot-swaps the in-memory
//!   models when an artifact changes; in-flight requests finish on the
//!   model snapshot they started with. Boot and reload read through the
//!   store's fit check: a published model of the wrong input width is
//!   refused, retrained and rewritten, never served.
//! * **Failure degrades, never aborts.** Store faults fall back to the
//!   in-memory models (no 5xx from the disk tier); malformed requests get
//!   400, oversized bodies 413, unknown routes 404 — and the server keeps
//!   serving after every one of them, including abrupt client disconnects.
//!   A model that panics answers that request 500 and the connection
//!   keeps serving; since the store refuses every model that could panic
//!   on a served row, only this crate's tests reach that path, by
//!   installing such a model in a registry slot directly.
//! * **Observability.** `GET /healthz` reports liveness and
//!   degraded-mode state; `GET /metrics` exposes request/error counters,
//!   the batch-size histogram (rows per `predict_rows` call, one call per
//!   served request), latency aggregates, reload counts and the store's
//!   count of refused (unfit) models.
//!
//! ```no_run
//! use wade_core::{Campaign, CampaignConfig, SimulatedServer};
//! use wade_serve::{ServeConfig, Server};
//! use wade_workloads::{paper_suite, Scale};
//!
//! let data = Campaign::new(SimulatedServer::with_seed(39), CampaignConfig::quick())
//!     .collect(&paper_suite(Scale::Test), 7);
//! let server = Server::start(ServeConfig::default(), data, None).expect("bind");
//! println!("serving on http://{}", server.addr());
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unreachable_pub, unnameable_types)]

mod http;
mod loadgen;
mod metrics;
mod models;
mod protocol;
mod server;

pub use http::read_response;
pub use loadgen::{request_for, run_load, LoadConfig, LoadReport};
pub use metrics::{Metrics, BATCH_BUCKETS};
pub use models::ModelRegistry;
pub use protocol::{
    feature_set_label, parse_model_kind, PredictRequest, PredictResponse, PredictRow,
};
pub use server::{ServeConfig, Server};
