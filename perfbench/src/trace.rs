//! Outside-in tracing: spans that the benchmark wraps around its own calls
//! into each crate's public functions.
//!
//! A span's name is `<layer>.<call>`; the layer is the part before the
//! first dot. Spans opened with [`Tracer::span`] nest on the calling
//! thread's stack; [`Tracer::record`] adds a finished span under an
//! explicit parent (the serve workload's per-request spans, which client
//! threads time themselves). Spans stay in memory until the run writes
//! them out. A disabled tracer records nothing, so untraced runs pay only
//! a branch per call site.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One finished (or still open, `end_us == None`) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: String,
    /// Start, microseconds since the tracer's origin.
    pub start_us: f64,
    /// End, microseconds since the tracer's origin.
    pub end_us: Option<f64>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// The per-run span recorder.
pub struct Tracer {
    enabled: bool,
    workload: String,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    stack: Mutex<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let now = self.tracer.now_us();
            if let Ok(mut spans) = self.tracer.spans.lock() {
                spans[index].end_us = Some(now);
            }
            if let Ok(mut stack) = self.tracer.stack.lock() {
                stack.retain(|&i| i != index);
            }
        }
    }
}

/// One row of the stage table.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Span name.
    pub name: String,
    /// Spans of that name.
    pub calls: u64,
    /// Summed self time, ms.
    pub self_ms: f64,
}

impl Tracer {
    /// A tracer for `workload`; `enabled == false` records nothing.
    pub fn new(workload: &str, enabled: bool) -> Self {
        Self {
            enabled,
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            stack: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds since the tracer's origin.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Microseconds from the tracer's origin to `at`.
    pub fn us_at(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span nested under the innermost open span of [`Tracer::span`].
    pub fn span(&self, name: &str) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                index: None,
            };
        }
        let start_us = self.now_us();
        let mut stack = self.stack.lock().expect("span stack poisoned");
        let mut spans = self.spans.lock().expect("span list poisoned");
        let index = spans.len();
        spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: None,
            parent: stack.last().copied(),
        });
        stack.push(index);
        Guard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let _guard = self.span(name);
        f()
    }

    /// The innermost open span, to pass as [`Tracer::record`]'s parent.
    pub fn current(&self) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.stack
            .lock()
            .expect("span stack poisoned")
            .last()
            .copied()
    }

    /// Adds a finished span from `start` to `end` under `parent`.
    pub fn record(&self, name: &str, start: Instant, end: Instant, parent: Option<usize>) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name: name.to_string(),
            start_us: self.us_at(start),
            end_us: Some(self.us_at(end)),
            parent,
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Self time of every span: the part of the timeline on which it is
    /// the innermost open span. Concurrent siblings (client threads'
    /// requests) split the time they overlap instead of counting it twice,
    /// so the self times of all spans add up to the union of their
    /// intervals.
    pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
        let depth = |mut i: usize| {
            let mut d = 0;
            while let Some(p) = spans[i].parent {
                d += 1;
                i = p;
            }
            d
        };
        let depths: Vec<usize> = (0..spans.len()).map(depth).collect();
        // (time, opens, span): closes sort before opens at equal times.
        let mut events: Vec<(f64, bool, usize)> = Vec::with_capacity(2 * spans.len());
        for (i, span) in spans.iter().enumerate() {
            if let Some(end) = span.end_us {
                events.push((span.start_us, true, i));
                events.push((end, false, i));
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut self_us = vec![0.0; spans.len()];
        let mut active: Vec<usize> = Vec::new();
        let mut last = 0.0;
        for (t, opens, i) in events {
            // The innermost active span owns the interval since the last
            // event; among equally deep ones, the earliest recorded.
            if let Some(&owner) = active
                .iter()
                .max_by(|&&a, &&b| depths[a].cmp(&depths[b]).then(b.cmp(&a)))
            {
                self_us[owner] += t - last;
            }
            if opens {
                active.push(i);
            } else {
                active.retain(|&j| j != i);
            }
            last = t;
        }
        self_us
    }

    /// Stage table: per span name, calls and summed self time, in order of
    /// first appearance.
    pub fn stages(&self) -> Vec<Stage> {
        let spans = self.spans();
        let self_us = Self::self_times_us(&spans);
        let mut stages: Vec<Stage> = Vec::new();
        for (span, us) in spans.iter().zip(self_us) {
            match stages.iter_mut().find(|s| s.name == span.name) {
                Some(stage) => {
                    stage.calls += 1;
                    stage.self_ms += us / 1e3;
                }
                None => stages.push(Stage {
                    name: span.name.clone(),
                    calls: 1,
                    self_ms: us / 1e3,
                }),
            }
        }
        stages
    }

    /// Summed self time, in seconds, of the spans whose name starts with
    /// `prefix`.
    pub fn self_s(&self, prefix: &str) -> f64 {
        self.stages()
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .fold(0.0, |acc, s| acc + s.self_ms)
            / 1e3
    }

    /// Summed self time of all spans, in seconds: the part of the traced
    /// wall clock that some span accounts for.
    pub fn covered_s(&self) -> f64 {
        self.self_s("")
    }

    /// The stage table as text, percentages against `wall_s`.
    pub fn stage_table(&self, wall_s: f64) -> String {
        let mut out = format!(
            "{:<36} {:>8} {:>12} {:>8}\n",
            "stage", "calls", "self ms", "% wall"
        );
        for stage in self.stages() {
            let _ = writeln!(
                out,
                "{:<36} {:>8} {:>12.3} {:>8.2}",
                stage.name,
                stage.calls,
                stage.self_ms,
                100.0 * stage.self_ms / 1e3 / wall_s
            );
        }
        out
    }

    /// Every span as a JSON array (name, start, end, parent, workload).
    pub fn spans_json(&self) -> String {
        let rows: Vec<String> = self
            .spans()
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{},\"parent\":{},\"workload\":\"{}\"}}",
                    s.name,
                    s.start_us,
                    s.end_us.map_or("null".to_string(), |e| format!("{e:.1}")),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    self.workload,
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name: "x.y".into(),
            start_us,
            end_us: Some(end_us),
            parent,
        }
    }

    #[test]
    fn self_times_partition_the_union_of_spans() {
        let spans = vec![
            span(0.0, 100.0, None),
            span(10.0, 40.0, Some(0)),
            span(30.0, 60.0, Some(0)),  // overlaps its sibling
            span(90.0, 120.0, Some(0)), // runs past its parent
            span(20.0, 25.0, Some(1)),  // grandchild
        ];
        let self_us = Tracer::self_times_us(&spans);
        assert_eq!(self_us, vec![40.0, 25.0, 20.0, 30.0, 5.0]);
        assert_eq!(self_us.iter().sum::<f64>(), 120.0);
    }

    #[test]
    fn nested_spans_cover_the_outer_span_once() {
        let tracer = Tracer::new("w", true);
        {
            let _outer = tracer.span("a.outer");
            tracer.time("b.inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        }
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        let total = spans[0].end_us.unwrap() - spans[0].start_us;
        assert!((tracer.covered_s() * 1e6 - total).abs() < 1.0);
        assert!(tracer.self_s("b.") >= 0.002);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new("w", false);
        tracer.time("a.b", || ());
        tracer.record("a.c", Instant::now(), Instant::now(), None);
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.current(), None);
    }
}
