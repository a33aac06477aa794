//! Structured metrics and tracing for the socsense workspace.
//!
//! The estimator hot paths (EM-Ext fits, Gibbs bound chains, ingest
//! sharding, the serve worker) accept an [`Obs`] handle — a cheap,
//! cloneable reference to an optional [`MetricsSink`]. With no sink
//! attached every emission is a single `Option` check and no
//! allocation, so instrumented code costs nothing in the default
//! configuration. With a sink attached, the same code reports:
//!
//! - **counters** — monotone event totals (`em.runs_total`),
//! - **gauges** — last-value observations (`ingest.cluster.clusters`),
//! - **histograms** — distributions over fixed log-spaced buckets
//!   (`serve.request.posterior.seconds`), fed via [`Obs::observe`] or
//!   the span-style [`SpanTimer`] returned by [`Obs::timer`].
//!
//! Three sinks are provided: the implicit no-op (an [`Obs`] with no
//! sink), the in-memory [`Recorder`] whose [`MetricsSnapshot`] is
//! serialisable and queryable, and the streaming [`JsonLinesSink`]
//! that writes one JSON object per event. [`Tee`] fans out to two
//! sinks (e.g. a service-owned recorder plus a caller's).
//!
//! # Determinism
//!
//! Metrics are observation-only: sinks receive values but nothing in
//! an instrumented computation reads them back, so enabling a recorder
//! cannot change a posterior bit. Counter increments and histogram
//! observations are commutative, which keeps recorded totals
//! deterministic even when emitted from deterministic parallel regions
//! (gauges are last-write-wins and must only be set from serial code).

// detlint: contract = tooling
// Timing is this crate's job; its clock reads feed metrics only.
#![allow(clippy::disallowed_methods)]

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};
use serde_json::json;

// ---------------------------------------------------------------------
// Sink trait + Obs handle
// ---------------------------------------------------------------------

/// Receiver for metric events. Implementations must tolerate being
/// called concurrently from worker threads.
pub trait MetricsSink: Send + Sync + fmt::Debug {
    /// Adds `delta` to the named monotone counter.
    fn counter(&self, name: &str, delta: u64);
    /// Sets the named gauge to `value` (last write wins).
    fn gauge(&self, name: &str, value: f64);
    /// Records `value` into the named histogram.
    fn observe(&self, name: &str, value: f64);
}

/// A sink that drops every event. [`Obs::none`] is the usual way to
/// get no-op behaviour (it skips the virtual call entirely); this type
/// exists for APIs that need a concrete `Arc<dyn MetricsSink>`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl MetricsSink for NoopSink {
    fn counter(&self, _name: &str, _delta: u64) {}
    fn gauge(&self, _name: &str, _value: f64) {}
    fn observe(&self, _name: &str, _value: f64) {}
}

/// Handle threaded through instrumented code. `Default`/[`Obs::none`]
/// is the disabled state: emissions are a single `Option` check.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    sink: Option<Arc<dyn MetricsSink>>,
}

impl Obs {
    /// The disabled handle: every emission is a no-op.
    pub fn none() -> Self {
        Self { sink: None }
    }

    /// A handle forwarding to `sink`.
    pub fn new(sink: Arc<dyn MetricsSink>) -> Self {
        Self { sink: Some(sink) }
    }

    /// A handle backed by a fresh in-memory [`Recorder`], returned
    /// alongside it for snapshotting.
    pub fn recorder() -> (Self, Arc<Recorder>) {
        let rec = Arc::new(Recorder::new());
        (Self::new(rec.clone()), rec)
    }

    /// Whether a sink is attached.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The attached sink, if any — lets composers (e.g. a [`Tee`])
    /// reuse an existing handle's destination.
    pub fn sink(&self) -> Option<Arc<dyn MetricsSink>> {
        self.sink.clone()
    }

    /// Adds `delta` to the named counter.
    pub fn counter(&self, name: &str, delta: u64) {
        if let Some(sink) = &self.sink {
            sink.counter(name, delta);
        }
    }

    /// Sets the named gauge. Only call from serial code — gauges are
    /// last-write-wins and parallel emission would be nondeterministic.
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(sink) = &self.sink {
            sink.gauge(name, value);
        }
    }

    /// Records `value` into the named histogram.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(sink) = &self.sink {
            sink.observe(name, value);
        }
    }

    /// Starts a span timer that records elapsed seconds into the named
    /// histogram when dropped (or [`SpanTimer::stop`]ped). Allocates
    /// the name only when a sink is attached.
    pub fn timer(&self, name: &str) -> SpanTimer {
        SpanTimer {
            start: Instant::now(),
            target: self.sink.clone().map(|sink| (sink, name.to_string())),
        }
    }
}

/// Span-style timer from [`Obs::timer`]. Records elapsed wall time (in
/// seconds) into its histogram exactly once: on drop, or explicitly
/// via [`SpanTimer::stop`] when the caller wants the reading back.
#[derive(Debug)]
pub struct SpanTimer {
    start: Instant,
    target: Option<(Arc<dyn MetricsSink>, String)>,
}

impl SpanTimer {
    /// Records and returns the elapsed seconds.
    pub fn stop(mut self) -> f64 {
        let secs = self.start.elapsed().as_secs_f64();
        if let Some((sink, name)) = self.target.take() {
            sink.observe(&name, secs);
        }
        secs
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some((sink, name)) = self.target.take() {
            sink.observe(&name, self.start.elapsed().as_secs_f64());
        }
    }
}

// ---------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------

/// Log-spaced bucket upper bounds: `1e-6 · 2^k` for `k = 0..=39`,
/// covering ~1 µs latencies up to ~6 days (and iteration counts up to
/// ~5.5e5); values above the last bound land in an overflow bucket.
const BUCKET_COUNT: usize = 40;

fn bucket_bound(k: usize) -> f64 {
    1e-6 * (1u64 << k) as f64
}

fn bucket_index(value: f64) -> usize {
    // Linear scan: 40 comparisons worst case, and observation paths
    // are not hot enough (per-request, per-EM-run) for this to matter.
    for k in 0..BUCKET_COUNT {
        if value <= bucket_bound(k) {
            return k;
        }
    }
    BUCKET_COUNT // overflow
}

#[derive(Debug, Clone)]
struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; BUCKET_COUNT + 1],
}

impl Histogram {
    fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; BUCKET_COUNT + 1],
        }
    }

    fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(k, &c)| {
                    let bound = if k < BUCKET_COUNT {
                        bucket_bound(k)
                    } else {
                        f64::INFINITY
                    };
                    (bound, c)
                })
                .collect(),
        }
    }
}

/// Exported histogram state: totals plus the non-empty buckets as
/// `(upper_bound, count)` pairs (the final bound may be `inf`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Non-empty `(upper_bound, count)` buckets, in bound order.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSummary {
    /// Mean observed value (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }

    /// Upper-bound quantile estimate (Prometheus-style): the bound of
    /// the first bucket whose cumulative count reaches `p · count`,
    /// clamped to the exact observed `[min, max]` range. `NaN` when
    /// empty.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(bound, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return bound.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

// ---------------------------------------------------------------------
// In-memory recorder
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct RecorderState {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// In-memory sink aggregating counters, gauges, and histograms under a
/// single mutex; [`Recorder::snapshot`] exports the current state.
#[derive(Debug, Default)]
pub struct Recorder {
    state: Mutex<RecorderState>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderState> {
        // A panic while holding the lock poisons it; metrics should
        // keep flowing for the surviving threads.
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Copies out the current state. Keys are sorted, so exports are
    /// deterministic given deterministic emission.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let state = self.lock();
        MetricsSnapshot {
            counters: state.counters.clone(),
            gauges: state.gauges.clone(),
            histograms: state
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
        }
    }

    /// Current value of a counter (0 when never incremented).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Renders the snapshot as JSON lines (see
    /// [`MetricsSnapshot::to_jsonl`]).
    pub fn export_jsonl(&self) -> String {
        self.snapshot().to_jsonl()
    }
}

impl MetricsSink for Recorder {
    fn counter(&self, name: &str, delta: u64) {
        *self.lock().counters.entry(name.to_string()).or_insert(0) += delta;
    }

    fn gauge(&self, name: &str, value: f64) {
        self.lock().gauges.insert(name.to_string(), value);
    }

    fn observe(&self, name: &str, value: f64) {
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_insert_with(Histogram::new)
            .observe(value);
    }
}

/// Point-in-time export of a [`Recorder`]: sorted maps from metric
/// name to value, serialisable for transport (the serve `Metrics`
/// request returns one) and for file export.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Last gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// Counter total (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram summary, if observed.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.get(name)
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// One JSON object per metric, sorted by kind then name:
    ///
    /// ```json
    /// {"kind":"counter","name":"em.runs_total","value":12}
    /// {"kind":"histogram","name":"em.run.seconds","count":12,...}
    /// ```
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&line(json!({
                "kind": "counter",
                "name": name,
                "value": value
            })));
        }
        for (name, value) in &self.gauges {
            out.push_str(&line(json!({
                "kind": "gauge",
                "name": name,
                "value": value
            })));
        }
        for (name, h) in &self.histograms {
            out.push_str(&line(json!({
                "kind": "histogram",
                "name": name,
                "count": h.count,
                "sum": h.sum,
                "min": h.min,
                "max": h.max,
                "mean": h.mean(),
                "p50": h.quantile(0.50),
                "p99": h.quantile(0.99),
                "buckets": h.buckets
            })));
        }
        out
    }
}

fn line(value: serde_json::Value) -> String {
    let mut s = serde_json::to_string(&value).expect("metric line serialises");
    s.push('\n');
    s
}

// ---------------------------------------------------------------------
// Streaming + fan-out sinks
// ---------------------------------------------------------------------

/// Streaming sink: writes one JSON object per event to the wrapped
/// writer. Write errors are swallowed — metrics must never fail the
/// computation they observe.
pub struct JsonLinesSink<W> {
    out: Mutex<W>,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wraps `out`.
    pub fn new(out: W) -> Self {
        Self {
            out: Mutex::new(out),
        }
    }

    /// Flushes and returns the writer.
    pub fn into_inner(self) -> W {
        let mut w = self.out.into_inner().unwrap_or_else(|p| p.into_inner());
        let _ = w.flush();
        w
    }

    fn emit(&self, value: serde_json::Value) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.write_all(line(value).as_bytes());
        }
    }
}

impl<W> fmt::Debug for JsonLinesSink<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonLinesSink").finish_non_exhaustive()
    }
}

impl<W: Write + Send> MetricsSink for JsonLinesSink<W> {
    fn counter(&self, name: &str, delta: u64) {
        self.emit(json!({"event": "counter", "name": name, "delta": delta}));
    }

    fn gauge(&self, name: &str, value: f64) {
        self.emit(json!({"event": "gauge", "name": name, "value": value}));
    }

    fn observe(&self, name: &str, value: f64) {
        self.emit(json!({"event": "observe", "name": name, "value": value}));
    }
}

/// Fans every event out to two sinks (e.g. a service-owned
/// [`Recorder`] plus a caller-supplied exporter).
#[derive(Debug, Clone)]
pub struct Tee {
    a: Arc<dyn MetricsSink>,
    b: Arc<dyn MetricsSink>,
}

impl Tee {
    /// Forwards to `a` then `b`.
    pub fn new(a: Arc<dyn MetricsSink>, b: Arc<dyn MetricsSink>) -> Self {
        Self { a, b }
    }
}

impl MetricsSink for Tee {
    fn counter(&self, name: &str, delta: u64) {
        self.a.counter(name, delta);
        self.b.counter(name, delta);
    }

    fn gauge(&self, name: &str, value: f64) {
        self.a.gauge(name, value);
        self.b.gauge(name, value);
    }

    fn observe(&self, name: &str, value: f64) {
        self.a.observe(name, value);
        self.b.observe(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_is_noop_and_cheap() {
        let obs = Obs::none();
        assert!(!obs.enabled());
        obs.counter("c", 1);
        obs.gauge("g", 1.0);
        obs.observe("h", 1.0);
        let t = obs.timer("t");
        // No sink: the timer carries no allocation.
        assert!(t.target.is_none());
        let secs = t.stop();
        assert!(secs >= 0.0);
    }

    #[test]
    fn recorder_aggregates_all_kinds() {
        let (obs, rec) = Obs::recorder();
        assert!(obs.enabled());
        obs.counter("em.runs_total", 2);
        obs.counter("em.runs_total", 3);
        obs.gauge("clusters", 7.0);
        obs.gauge("clusters", 9.0);
        obs.observe("iters", 4.0);
        obs.observe("iters", 10.0);

        let snap = rec.snapshot();
        assert_eq!(snap.counter("em.runs_total"), 5);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("clusters"), Some(9.0));
        let h = snap.histogram("iters").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 14.0);
        assert_eq!(h.min, 4.0);
        assert_eq!(h.max, 10.0);
        assert_eq!(h.mean(), 7.0);
        assert_eq!(rec.counter_value("em.runs_total"), 5);
        assert!(!snap.is_empty());
    }

    #[test]
    fn timer_records_on_drop_and_on_stop() {
        let (obs, rec) = Obs::recorder();
        {
            let _t = obs.timer("span.seconds");
        }
        let secs = obs.timer("span.seconds").stop();
        assert!(secs >= 0.0);
        let snap = rec.snapshot();
        let h = snap.histogram("span.seconds").unwrap();
        assert_eq!(h.count, 2, "drop and stop each record exactly once");
        assert!(h.min >= 0.0);
    }

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.observe(i as f64 * 1e-3); // 1ms .. 100ms
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        let p50 = s.quantile(0.50);
        let p99 = s.quantile(0.99);
        // Upper-bound estimates: at least the true quantile, at most
        // one bucket (2x) above, clamped to the observed max.
        assert!((0.050..=0.128).contains(&p50), "p50={p50}");
        assert!((0.099..=0.1).contains(&p99), "p99={p99}");
        let p0 = s.quantile(0.0);
        assert!((s.min..=0.002).contains(&p0), "p0={p0}");
        assert_eq!(s.quantile(1.0), s.max);
        assert!(HistogramSummary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: vec![],
        }
        .quantile(0.5)
        .is_nan());
    }

    #[test]
    fn bucket_bounds_cover_overflow() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(1e-6), 0);
        assert_eq!(bucket_index(2e-6), 1);
        assert_eq!(bucket_index(f64::MAX), BUCKET_COUNT);
        let mut h = Histogram::new();
        h.observe(1e12);
        let s = h.summary();
        assert_eq!(s.buckets, vec![(f64::INFINITY, 1)]);
        assert_eq!(s.quantile(0.5), 1e12, "clamped to observed max");
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let (obs, rec) = Obs::recorder();
        obs.counter("a.total", 3);
        obs.gauge("b.level", 2.5);
        obs.observe("c.seconds", 0.25);
        let snap = rec.snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn jsonl_export_has_one_line_per_metric() {
        let (obs, rec) = Obs::recorder();
        obs.counter("a.total", 1);
        obs.gauge("b.level", 2.0);
        obs.observe("c.seconds", 0.5);
        let out = rec.export_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        for l in &lines {
            let v: serde_json::Value = serde_json::from_str(l).unwrap();
            assert!(v.as_object().unwrap().contains_key("kind"), "{l}");
        }
        assert!(lines[0].contains("\"counter\""), "{}", lines[0]);
        assert!(lines[1].contains("\"gauge\""), "{}", lines[1]);
        assert!(lines[2].contains("\"histogram\""), "{}", lines[2]);
    }

    #[test]
    fn json_lines_sink_streams_events() {
        let sink = JsonLinesSink::new(Vec::new());
        sink.counter("x", 2);
        sink.observe("y", 0.125);
        sink.gauge("z", 1.5);
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"counter\"") && lines[0].contains("\"x\""));
        assert!(lines[1].contains("\"observe\"") && lines[1].contains("0.125"));
        assert!(lines[2].contains("\"gauge\""));
    }

    #[test]
    fn tee_feeds_both_sinks() {
        let rec_a = Arc::new(Recorder::new());
        let rec_b = Arc::new(Recorder::new());
        let obs = Obs::new(Arc::new(Tee::new(rec_a.clone(), rec_b.clone())));
        obs.counter("n", 4);
        obs.gauge("g", 1.0);
        obs.observe("h", 2.0);
        assert_eq!(rec_a.counter_value("n"), 4);
        assert_eq!(rec_b.counter_value("n"), 4);
        assert_eq!(rec_a.snapshot(), rec_b.snapshot());
    }

    #[test]
    fn recorder_is_thread_safe() {
        let (obs, rec) = Obs::recorder();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let obs = obs.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        obs.counter("hits", 1);
                        obs.observe("vals", 1.0);
                    }
                });
            }
        });
        let snap = rec.snapshot();
        assert_eq!(snap.counter("hits"), 4000);
        assert_eq!(snap.histogram("vals").unwrap().count, 4000);
    }
}
