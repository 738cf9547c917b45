//! Serving counters behind `GET /metrics`.
//!
//! All counters are relaxed atomics — observability must never serialize
//! the request path. The rendered body is hand-rolled JSON with a fixed
//! key order, so the `serving` bench section and CI schema gates can parse
//! it without schema drift.

use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bounds (inclusive) of the batch-size histogram buckets; the last
/// bucket is unbounded. A batch — the rows of one served `POST /predict`,
/// predicted in one `predict_rows` call — of `n` rows lands in the first
/// bucket with `n <= bound`.
pub const BATCH_BUCKETS: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// Request/error/batch/latency counters of one server instance.
#[derive(Debug, Default)]
pub struct Metrics {
    requests: AtomicU64,
    predict_requests: AtomicU64,
    rows_predicted: AtomicU64,
    errors_4xx: AtomicU64,
    errors_5xx: AtomicU64,
    batch_hist: [AtomicU64; BATCH_BUCKETS.len() + 1],
    latency_us_sum: AtomicU64,
    latency_us_max: AtomicU64,
    reloads: AtomicU64,
}

impl Metrics {
    /// A zeroed instance.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one answered HTTP exchange with its response status.
    pub(crate) fn record_request(&self, status: u16) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if (400..500).contains(&status) {
            self.errors_4xx.fetch_add(1, Ordering::Relaxed);
        } else if status >= 500 {
            self.errors_5xx.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one served `POST /predict` (row count + handling latency):
    /// one `predict_rows` call, so one batch of `rows` rows.
    pub(crate) fn record_predict(&self, rows: u64, latency_us: u64) {
        self.predict_requests.fetch_add(1, Ordering::Relaxed);
        self.rows_predicted.fetch_add(rows, Ordering::Relaxed);
        let bucket = BATCH_BUCKETS
            .iter()
            .position(|&b| rows <= b)
            .unwrap_or(BATCH_BUCKETS.len());
        self.batch_hist[bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_us_sum.fetch_add(latency_us, Ordering::Relaxed);
        self.latency_us_max.fetch_max(latency_us, Ordering::Relaxed);
    }

    /// Records hot-reloads of model snapshots.
    pub(crate) fn record_reloads(&self, n: u64) {
        self.reloads.fetch_add(n, Ordering::Relaxed);
    }

    /// HTTP exchanges answered so far.
    pub(crate) fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// `4xx` responses so far.
    pub fn errors_4xx(&self) -> u64 {
        self.errors_4xx.load(Ordering::Relaxed)
    }

    /// `5xx` responses so far.
    pub fn errors_5xx(&self) -> u64 {
        self.errors_5xx.load(Ordering::Relaxed)
    }

    /// Model dispatches so far: one per served `POST /predict`.
    pub fn batches(&self) -> u64 {
        self.predict_requests.load(Ordering::Relaxed)
    }

    /// Model hot-reloads so far.
    pub(crate) fn reloads(&self) -> u64 {
        self.reloads.load(Ordering::Relaxed)
    }

    /// The batch-size histogram: one count per [`BATCH_BUCKETS`] bound
    /// plus the final unbounded bucket.
    pub fn batch_histogram(&self) -> Vec<u64> {
        self.batch_hist.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Renders the `GET /metrics` body (fixed key order; `degraded` is the
    /// artifact store's degradation state, `false` without a store, and
    /// `store_unfit` its count of stored models refused for not fitting
    /// their rows, 0 without a store).
    pub(crate) fn render_json(&self, degraded: bool, store_unfit: u64) -> String {
        let hist = self.batch_histogram();
        let mut hist_fields: Vec<String> = BATCH_BUCKETS
            .iter()
            .zip(hist.iter())
            .map(|(b, c)| format!("\"le_{b}\":{c}"))
            .collect();
        hist_fields.push(format!("\"inf\":{}", hist[BATCH_BUCKETS.len()]));
        // A served predict is one batch and one latency sample.
        let served = self.batches();
        format!(
            "{{\"requests\":{},\"predict_requests\":{},\"rows_predicted\":{},\"errors_4xx\":{},\"errors_5xx\":{},\"batches\":{},\"batch_size_hist\":{{{}}},\"latency_us\":{{\"count\":{},\"sum\":{},\"max\":{}}},\"reloads\":{},\"degraded\":{},\"store_unfit\":{}}}",
            self.requests(),
            served,
            self.rows_predicted.load(Ordering::Relaxed),
            self.errors_4xx(),
            self.errors_5xx(),
            served,
            hist_fields.join(","),
            served,
            self.latency_us_sum.load(Ordering::Relaxed),
            self.latency_us_max.load(Ordering::Relaxed),
            self.reloads(),
            degraded,
            store_unfit,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_land_in_the_right_buckets() {
        let m = Metrics::new();
        for rows in [1, 2, 3, 8, 33, 1000] {
            m.record_predict(rows, 0);
        }
        assert_eq!(m.batch_histogram(), vec![1, 1, 1, 1, 0, 0, 2]);
        assert_eq!(m.batches(), 6);
    }

    #[test]
    fn status_classes_are_counted() {
        let m = Metrics::new();
        for status in [200, 200, 404, 400, 413, 500] {
            m.record_request(status);
        }
        assert_eq!((m.requests(), m.errors_4xx(), m.errors_5xx()), (6, 3, 1));
    }

    #[test]
    fn rendered_metrics_carry_every_counter() {
        let m = Metrics::new();
        m.record_predict(5, 1200);
        m.record_request(200);
        let json = m.render_json(false, 2);
        for needle in [
            "\"requests\":1",
            "\"predict_requests\":1",
            "\"rows_predicted\":5",
            "\"batch_size_hist\":{\"le_1\":0,\"le_2\":0,\"le_4\":0,\"le_8\":1,",
            "\"latency_us\":{\"count\":1,\"sum\":1200,\"max\":1200}",
            "\"reloads\":0",
            "\"degraded\":false,\"store_unfit\":2}",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert!(m.render_json(true, 0).contains("\"degraded\":true"));
    }
}
