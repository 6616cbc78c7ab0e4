//! Telemetry for pipeline runs: hierarchical span tracing and a
//! deterministic metrics registry.
//!
//! A [`Telemetry`] handle is attached to a pipeline with
//! [`PipelineBuilder::telemetry`] and shared (it is a cheap `Arc` clone)
//! across as many pipelines as should land in one snapshot. Every run
//! then records a **span tree** — run → iteration → stage → shard, plus
//! barrier-stall spans under the threaded schedule — and a set of
//! **metrics** (counters, gauges, log₂-bucketed histograms). Both are
//! snapshotted on demand:
//!
//! * [`Telemetry::write_chrome_trace`] — Chrome trace-event JSON
//!   (`trace.json`), loadable in Perfetto or `chrome://tracing`. Each run
//!   is a process; lane 0 is the driver thread, lanes 1–5 are the
//!   threaded schedule's stages, lanes 100+ are `DataParallel` workers.
//! * [`Telemetry::write_metrics_json`] — machine-readable `METRICS.json`
//!   (consumed by `audit_check --metrics` for exact reconciliation
//!   against the audit stream's `stage_nanos`).
//! * [`Telemetry::write_prometheus`] — Prometheus-style text exposition.
//!
//! # Determinism
//!
//! Histogram buckets are fixed powers of two (upper bounds 2⁰ … 2⁶³,
//! then +Inf) — no wall-clock feeds a bucket *boundary*, only observed
//! values. Every metric whose value is not a wall-clock measurement
//! (cache stats, shard/task counts, recovery counters, iteration counts)
//! is bit-identical across same-seed runs at any pool width;
//! [`Telemetry::deterministic_digest`] renders exactly that stable
//! subset, plus the structural span tree (which spans exist, on which
//! lanes — not how long they took), for tests to compare.
//!
//! # Overhead contract
//!
//! A pipeline without a telemetry handle pays one `Option` check per
//! hook — the same pattern as fault injection — so the disabled hot path
//! is byte-for-byte the pre-telemetry code path. The
//! `telemetry_overhead` bench bin asserts the enabled path stays within
//! a few percent. See `docs/observability.md` for the full contract and
//! metric catalog.
//!
//! [`PipelineBuilder::telemetry`]: crate::pipeline::PipelineBuilder::telemetry

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use serde::Value;

use crate::scratchpad::ScratchpadManager;
use crate::workers::ShardTiming;

/// The lane (Chrome-trace `tid`) a span renders on: which thread-like
/// execution context did the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The driver thread (sync / sequential / data-parallel schedules).
    Main,
    /// Stage `s` (0 = Plan … 4 = Train) of the threaded schedule. Stages
    /// that share a thread there (Collect and Exchange) keep their own
    /// lanes, so a trace reads the same whatever the grouping.
    Stage(u8),
    /// Worker `w` of a data-parallel shard region (0 = the thread that
    /// entered the region).
    Worker(u16),
}

impl Lane {
    /// The Chrome-trace thread ID this lane renders as.
    fn tid(self) -> u64 {
        match self {
            Lane::Main => 0,
            Lane::Stage(s) => 1 + u64::from(s),
            Lane::Worker(w) => 100 + u64::from(w),
        }
    }
}

/// Synthetic lanes used by the trace writer for derived spans.
const LANE_RUN: u64 = 89;
const LANE_ITER_BASE: u64 = 90;
/// Overlapping in-flight iterations round-robin over this many lanes so
/// the trace renders them side by side instead of stacked.
const ITER_LANES: u64 = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SpanKind {
    Run,
    Stage,
    Shard,
    Stall,
}

impl SpanKind {
    fn category(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Stage => "stage",
            SpanKind::Shard => "shard",
            SpanKind::Stall => "stall",
        }
    }
}

#[derive(Debug, Clone)]
struct SpanRecord {
    run: u32,
    kind: SpanKind,
    lane: Lane,
    iteration: u32,
    /// Stage the span belongs to (`""` for run spans).
    stage: &'static str,
    /// Stall spans: the watched stage the waiter blocked on.
    aux: &'static str,
    /// Shard spans: worker that ran the task.
    worker: u16,
    start_ns: u64,
    dur_ns: u64,
}

/// Fixed log₂ histogram: bucket `i` has upper bound `2^i` nanoseconds
/// (or units) for `i` in `0..64`, plus an implicit `+Inf` bucket. The
/// boundaries never depend on observed values or wall-clock state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Histogram {
    count: u64,
    sum: u64,
    /// `buckets[i]` counts observations `v` with `2^(i-1) < v <= 2^i`
    /// (index 0: `v <= 1`); index [`Histogram::BUCKETS`] is `+Inf`.
    buckets: Vec<u64>,
}

impl Histogram {
    const BUCKETS: usize = 64;

    fn observe(&mut self, v: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; Self::BUCKETS + 1];
        }
        let idx = if v <= 1 {
            0
        } else {
            (64 - (v - 1).leading_zeros() as usize).min(Self::BUCKETS)
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// `(upper-bound label, bucket count)` for every non-empty bucket.
    fn nonzero_buckets(&self) -> Vec<(String, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let le = if i >= Self::BUCKETS {
                    "+Inf".to_owned()
                } else {
                    (1u128 << i).to_string()
                };
                (le, c)
            })
            .collect()
    }
}

#[derive(Debug, Clone)]
enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

/// Registry key: metric name plus labels sorted by label name.
type MetricKey = (&'static str, Vec<(&'static str, String)>);

/// Static metric metadata: exposition type/unit/help and whether the
/// *value* is deterministic across same-seed runs (wall-clock-valued
/// metrics and timing-dependent ones are not).
struct MetricMeta {
    kind: &'static str,
    unit: &'static str,
    help: &'static str,
    deterministic: bool,
}

fn meta(name: &str) -> MetricMeta {
    let m = |kind, unit, help, deterministic| MetricMeta {
        kind,
        unit,
        help,
        deterministic,
    };
    match name {
        "sp_run_iterations_total" => m("counter", "iterations", "Iterations the run committed", true),
        "sp_run_elapsed_ns" => m("gauge", "ns", "Wall-clock duration of the run", false),
        "sp_worker_pool_width" => m("gauge", "workers", "Configured worker-pool width", true),
        "sp_stage_latency_ns" => m(
            "histogram",
            "ns",
            "Per-iteration wall-clock latency of one stage (sum reconciles exactly with the audit stream's stage_nanos)",
            false,
        ),
        "sp_shard_latency_ns" => m(
            "histogram",
            "ns",
            "Wall-clock latency of one worker-pool shard task",
            false,
        ),
        "sp_shard_tasks_total" => m("counter", "tasks", "Shard tasks run through the worker pool", true),
        "sp_worker_busy_ns_total" => m("counter", "ns", "Nanoseconds workers spent running shard tasks", false),
        "sp_worker_idle_ns_total" => m(
            "counter",
            "ns",
            "Nanoseconds workers sat idle inside shard regions (region wall-clock x workers - busy)",
            false,
        ),
        "sp_barrier_stalls_total" => m(
            "counter",
            "stalls",
            "Watermark-barrier waits that actually blocked (threaded schedule)",
            false,
        ),
        "sp_barrier_stall_ns_total" => m(
            "counter",
            "ns",
            "Nanoseconds stage threads spent blocked on watermark barriers",
            false,
        ),
        "sp_channel_queue_depth" => m(
            "histogram",
            "payloads",
            "Depth of the bounded inter-stage channel at each send (threaded schedule; labelled by receiving stage)",
            false,
        ),
        "sp_scratchpad_occupancy_rows" => m("gauge", "rows", "Rows resident in the scratchpad at run end", true),
        "sp_scratchpad_slots" => m("gauge", "rows", "Provisioned scratchpad slots", true),
        "sp_scratchpad_peak_held_rows" => m(
            "gauge",
            "rows",
            "Peak slots simultaneously protected or pending (working-set size)",
            true,
        ),
        "sp_scratchpad_hits_total" => m("counter", "rows", "Unique-ID scratchpad hits", true),
        "sp_scratchpad_misses_total" => m("counter", "rows", "Unique-ID scratchpad misses (fills)", true),
        "sp_scratchpad_evictions_total" => m(
            "counter",
            "rows",
            "Scratchpad evictions (write-backs) - eviction pressure",
            true,
        ),
        "sp_scratchpad_hit_rate" => m("gauge", "ratio", "Unique-ID hit rate over the whole run", true),
        "sp_recovery_rollbacks_total" => m("counter", "events", "Segments rolled back by the supervisor", true),
        "sp_recovery_retries_total" => m("counter", "events", "Same-rung retries by the supervisor", true),
        "sp_recovery_degradations_total" => m(
            "counter",
            "events",
            "Schedule-ladder degradations by the supervisor",
            true,
        ),
        "sp_recovery_faults_injected_total" => m("counter", "events", "Faults the injector fired", true),
        "sp_recovery_aborts_total" => m("counter", "events", "Supervised runs that aborted", true),
        _ => m("gauge", "", "", false),
    }
}

#[derive(Debug)]
struct RunInfo {
    label: String,
    schedule: String,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    runs: Mutex<Vec<RunInfo>>,
    metrics: Mutex<BTreeMap<MetricKey, MetricValue>>,
}

/// A shared telemetry collector. Cloning is cheap (`Arc`); attach one
/// handle to every pipeline whose runs should land in the same
/// `trace.json` / `METRICS.json` snapshot. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// Creates an empty collector; its epoch (trace time zero) is now.
    pub fn new() -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
                runs: Mutex::new(Vec::new()),
                metrics: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Nanoseconds since the collector's epoch.
    pub fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a per-run recording session. Called by the pipeline at the
    /// start of every run; the session's run label is the pipeline's
    /// audit name, which is what joins metrics to audit events.
    pub(crate) fn begin_run(&self, label: &str, schedule: &str) -> RunTelemetry {
        let run = {
            let mut runs = self.inner.runs.lock();
            runs.push(RunInfo {
                label: label.to_owned(),
                schedule: schedule.to_owned(),
            });
            (runs.len() - 1) as u32
        };
        RunTelemetry {
            telemetry: self.clone(),
            run,
            label: label.to_owned(),
            start_ns: self.now_ns(),
        }
    }

    fn push_span(&self, span: SpanRecord) {
        self.inner.spans.lock().push(span);
    }

    fn add_counter(&self, key: MetricKey, v: u64) {
        let mut metrics = self.inner.metrics.lock();
        match metrics.entry(key).or_insert(MetricValue::Counter(0)) {
            MetricValue::Counter(c) => *c += v,
            _ => unreachable!("metric kind is fixed per name"),
        }
    }

    fn set_counter(&self, key: MetricKey, v: u64) {
        self.inner
            .metrics
            .lock()
            .insert(key, MetricValue::Counter(v));
    }

    fn set_gauge(&self, key: MetricKey, v: f64) {
        self.inner.metrics.lock().insert(key, MetricValue::Gauge(v));
    }

    fn observe(&self, key: MetricKey, v: u64) {
        let mut metrics = self.inner.metrics.lock();
        match metrics
            .entry(key)
            .or_insert_with(|| MetricValue::Histogram(Histogram::default()))
        {
            MetricValue::Histogram(h) => h.observe(v),
            _ => unreachable!("metric kind is fixed per name"),
        }
    }

    /// A snapshot of the recorded spans, sorted for stable output.
    fn span_snapshot(&self) -> Vec<SpanRecord> {
        let mut spans = self.inner.spans.lock().clone();
        spans.sort_by_key(|s| {
            (
                s.run,
                s.iteration,
                s.kind,
                s.stage,
                s.lane.tid(),
                s.worker,
                s.start_ns,
            )
        });
        spans
    }

    /// Renders the span tree as Chrome trace-event JSON (the
    /// `chrome://tracing` / Perfetto format). Each run is a process;
    /// see the [module docs](self) for the lane layout. Iteration spans
    /// are derived from their stage spans and rendered on round-robin
    /// side lanes so overlapping in-flight iterations stay readable.
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.span_snapshot();
        let runs = self.inner.runs.lock();
        let mut events: Vec<Value> = Vec::new();
        let str_v = |s: &str| Value::Str(s.to_owned());
        let map = |entries: Vec<(&str, Value)>| {
            Value::Map(
                entries
                    .into_iter()
                    .map(|(k, v)| (k.to_owned(), v))
                    .collect(),
            )
        };
        let metadata = |name: &str, pid: u64, tid: Option<u64>, arg: Value| {
            let mut entries = vec![
                ("ph", str_v("M")),
                ("name", str_v(name)),
                ("pid", Value::UInt(pid)),
            ];
            if let Some(tid) = tid {
                entries.push(("tid", Value::UInt(tid)));
            }
            entries.push(("args", map(vec![("name", arg)])));
            map(entries)
        };

        // Process metadata: one process per run, named by the run label
        // (exactly the audit `run` field, so traces join to the stream).
        for (run, info) in runs.iter().enumerate() {
            let pid = run as u64 + 1;
            events.push(metadata("process_name", pid, None, str_v(&info.label)));
            events.push(metadata("process_labels", pid, None, str_v(&info.schedule)));
        }
        // Thread metadata for every lane that actually appears.
        let mut lanes: BTreeMap<(u64, u64), String> = BTreeMap::new();
        for s in &spans {
            let pid = u64::from(s.run) + 1;
            match s.kind {
                SpanKind::Run => {
                    lanes
                        .entry((pid, LANE_RUN))
                        .or_insert_with(|| "run".to_owned());
                }
                SpanKind::Stage | SpanKind::Stall => {
                    lanes
                        .entry((pid, s.lane.tid()))
                        .or_insert_with(|| match s.lane {
                            Lane::Main => "driver".to_owned(),
                            Lane::Stage(_) => format!("stage {}", s.stage),
                            Lane::Worker(w) => format!("worker {w}"),
                        });
                }
                SpanKind::Shard => {
                    lanes
                        .entry((pid, s.lane.tid()))
                        .or_insert_with(|| match s.lane {
                            Lane::Worker(w) => format!("worker {w}"),
                            Lane::Main => "driver".to_owned(),
                            Lane::Stage(_) => format!("stage {}", s.stage),
                        });
                }
            }
        }
        // Derived iteration lanes.
        let mut iter_bounds: BTreeMap<(u32, u32), (u64, u64)> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.kind == SpanKind::Stage) {
            let end = s.start_ns + s.dur_ns;
            iter_bounds
                .entry((s.run, s.iteration))
                .and_modify(|(lo, hi)| {
                    *lo = (*lo).min(s.start_ns);
                    *hi = (*hi).max(end);
                })
                .or_insert((s.start_ns, end));
        }
        for &(run, iteration) in iter_bounds.keys() {
            let pid = u64::from(run) + 1;
            let tid = LANE_ITER_BASE + u64::from(iteration) % ITER_LANES;
            lanes
                .entry((pid, tid))
                .or_insert_with(|| format!("iterations +{}", u64::from(iteration) % ITER_LANES));
        }
        for ((pid, tid), name) in &lanes {
            events.push(metadata("thread_name", *pid, Some(*tid), str_v(name)));
        }

        let us = |ns: u64| Value::Float(ns as f64 / 1000.0);
        for ((run, iteration), (lo, hi)) in &iter_bounds {
            events.push(map(vec![
                ("ph", str_v("X")),
                ("cat", str_v("iteration")),
                ("name", str_v(&format!("iter {iteration}"))),
                ("pid", Value::UInt(u64::from(*run) + 1)),
                (
                    "tid",
                    Value::UInt(LANE_ITER_BASE + u64::from(*iteration) % ITER_LANES),
                ),
                ("ts", us(*lo)),
                ("dur", us(hi.saturating_sub(*lo))),
                (
                    "args",
                    map(vec![
                        ("iteration", Value::UInt(u64::from(*iteration))),
                        ("start_ns", Value::UInt(*lo)),
                        ("dur_ns", Value::UInt(hi.saturating_sub(*lo))),
                    ]),
                ),
            ]));
        }
        for s in &spans {
            let pid = u64::from(s.run) + 1;
            let (tid, name) = match s.kind {
                SpanKind::Run => (LANE_RUN, "run".to_owned()),
                SpanKind::Stage => (s.lane.tid(), s.stage.to_owned()),
                SpanKind::Shard => (s.lane.tid(), format!("{}[{}]", s.stage, s.worker)),
                SpanKind::Stall => (s.lane.tid(), format!("stall:{}<-{}", s.stage, s.aux)),
            };
            let mut args = vec![
                ("iteration", Value::UInt(u64::from(s.iteration))),
                ("start_ns", Value::UInt(s.start_ns)),
                ("dur_ns", Value::UInt(s.dur_ns)),
            ];
            if s.kind == SpanKind::Shard {
                args.push(("worker", Value::UInt(u64::from(s.worker))));
            }
            if !s.stage.is_empty() {
                args.push(("stage", str_v(s.stage)));
            }
            events.push(map(vec![
                ("ph", str_v("X")),
                ("cat", str_v(s.kind.category())),
                ("name", str_v(&name)),
                ("pid", Value::UInt(pid)),
                ("tid", Value::UInt(tid)),
                ("ts", us(s.start_ns)),
                ("dur", us(s.dur_ns)),
                ("args", map(args)),
            ]));
        }
        let doc = map(vec![
            ("traceEvents", Value::Seq(events)),
            ("displayTimeUnit", str_v("ms")),
        ]);
        serde_json::to_string(&doc).expect("trace serialization is infallible")
    }

    /// Writes [`Telemetry::chrome_trace_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_file(path, &self.chrome_trace_json())
    }

    /// Renders the metrics registry as machine-readable JSON
    /// (`METRICS.json`): `{"version": 1, "metrics": [...]}` with one
    /// entry per `(name, labels)` pair, sorted, carrying `type`, `unit`,
    /// structured `labels`, and either `value` or
    /// `count`/`sum`/`buckets` (non-empty buckets as `[le, count]`
    /// pairs, `le` the power-of-two upper bound or `"+Inf"`).
    pub fn metrics_json(&self) -> String {
        let metrics = self.inner.metrics.lock();
        let mut out: Vec<Value> = Vec::new();
        for ((name, labels), value) in metrics.iter() {
            let info = meta(name);
            let mut entries = vec![
                ("name".to_owned(), Value::Str((*name).to_owned())),
                ("type".to_owned(), Value::Str(info.kind.to_owned())),
                ("unit".to_owned(), Value::Str(info.unit.to_owned())),
                (
                    "labels".to_owned(),
                    Value::Map(
                        labels
                            .iter()
                            .map(|(k, v)| ((*k).to_owned(), Value::Str(v.clone())))
                            .collect(),
                    ),
                ),
            ];
            match value {
                MetricValue::Counter(c) => entries.push(("value".to_owned(), Value::UInt(*c))),
                MetricValue::Gauge(g) => entries.push(("value".to_owned(), Value::Float(*g))),
                MetricValue::Histogram(h) => {
                    entries.push(("count".to_owned(), Value::UInt(h.count)));
                    entries.push(("sum".to_owned(), Value::UInt(h.sum)));
                    entries.push((
                        "buckets".to_owned(),
                        Value::Seq(
                            h.nonzero_buckets()
                                .into_iter()
                                .map(|(le, c)| Value::Seq(vec![Value::Str(le), Value::UInt(c)]))
                                .collect(),
                        ),
                    ));
                }
            }
            out.push(Value::Map(entries));
        }
        let doc = Value::Map(vec![
            ("version".to_owned(), Value::UInt(1)),
            ("metrics".to_owned(), Value::Seq(out)),
        ]);
        serde_json::to_string(&doc).expect("metrics serialization is infallible")
    }

    /// Writes [`Telemetry::metrics_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_metrics_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_file(path, &self.metrics_json())
    }

    /// Renders the metrics registry as Prometheus-style text exposition
    /// (`# HELP` / `# TYPE` comments, cumulative histogram buckets,
    /// `_sum` / `_count` series).
    pub fn prometheus_text(&self) -> String {
        let metrics = self.inner.metrics.lock();
        let mut out = String::new();
        let mut last_name = "";
        let render_labels = |labels: &[(&'static str, String)], extra: Option<(&str, &str)>| {
            let mut pairs: Vec<String> =
                labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
            if let Some((k, v)) = extra {
                pairs.push(format!("{k}=\"{v}\""));
            }
            if pairs.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", pairs.join(","))
            }
        };
        for ((name, labels), value) in metrics.iter() {
            let info = meta(name);
            if *name != last_name {
                let _ = writeln!(out, "# HELP {name} {}", info.help);
                let _ = writeln!(out, "# TYPE {name} {}", info.kind);
                last_name = name;
            }
            match value {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "{name}{} {c}", render_labels(labels, None));
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "{name}{} {g}", render_labels(labels, None));
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0;
                    for (le, c) in h.nonzero_buckets() {
                        cumulative += c;
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cumulative}",
                            render_labels(labels, Some(("le", &le)))
                        );
                    }
                    if h.buckets.last().copied().unwrap_or(0) == 0 {
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cumulative}",
                            render_labels(labels, Some(("le", "+Inf")))
                        );
                    }
                    let _ = writeln!(out, "{name}_sum{} {}", render_labels(labels, None), h.sum);
                    let _ = writeln!(
                        out,
                        "{name}_count{} {}",
                        render_labels(labels, None),
                        h.count
                    );
                }
            }
        }
        out
    }

    /// Writes [`Telemetry::prometheus_text`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_prometheus(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_file(path, &self.prometheus_text())
    }

    /// Renders the deterministic subset of the telemetry: the structural
    /// span tree (which spans exist, on which lanes, with which workers —
    /// durations and stall spans excluded) and every metric whose value
    /// does not derive from wall-clock time (histograms contribute their
    /// observation *count*). Two same-seed runs at the same pool width
    /// produce identical digests, whatever the machine is doing.
    pub fn deterministic_digest(&self) -> String {
        let mut out = String::new();
        {
            let runs = self.inner.runs.lock();
            for (i, info) in runs.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "run {i} label={} schedule={}",
                    info.label, info.schedule
                );
            }
        }
        let spans = self.span_snapshot();
        let mut i = 0;
        while i < spans.len() {
            let s = &spans[i];
            match s.kind {
                // Stall spans (and their count) are timing-dependent.
                SpanKind::Stall => i += 1,
                SpanKind::Run => {
                    let _ = writeln!(out, "span run r{}", s.run);
                    i += 1;
                }
                SpanKind::Stage => {
                    let _ = writeln!(
                        out,
                        "span stage r{} i{} {} lane={}",
                        s.run,
                        s.iteration,
                        s.stage,
                        s.lane.tid()
                    );
                    i += 1;
                }
                SpanKind::Shard => {
                    // Group the contiguous shard spans of one
                    // (run, iteration, stage) region into one line.
                    let (run, iteration, stage) = (s.run, s.iteration, s.stage);
                    let mut workers = Vec::new();
                    while i < spans.len() {
                        let t = &spans[i];
                        if t.kind != SpanKind::Shard
                            || t.run != run
                            || t.iteration != iteration
                            || t.stage != stage
                        {
                            break;
                        }
                        workers.push(format!("{}:{}", t.lane.tid(), t.worker));
                        i += 1;
                    }
                    let _ = writeln!(
                        out,
                        "span shards r{run} i{iteration} {stage} [{}]",
                        workers.join(",")
                    );
                }
            }
        }
        let metrics = self.inner.metrics.lock();
        for ((name, labels), value) in metrics.iter() {
            let info = meta(name);
            let labels_s: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let labels_s = labels_s.join(",");
            match value {
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "metric {name}{{{labels_s}}} count={}", h.count);
                }
                MetricValue::Counter(c) if info.deterministic => {
                    let _ = writeln!(out, "metric {name}{{{labels_s}}} {c}");
                }
                MetricValue::Gauge(g) if info.deterministic => {
                    let _ = writeln!(out, "metric {name}{{{labels_s}}} {g}");
                }
                // Wall-clock-valued: presence only.
                MetricValue::Counter(_) | MetricValue::Gauge(_) => {
                    let _ = writeln!(out, "metric {name}{{{labels_s}}} present");
                }
            }
        }
        out
    }
}

fn write_file(path: impl AsRef<Path>, content: &str) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(content.as_bytes())?;
    writeln!(f)?;
    f.flush()
}

/// One pipeline run's recording session, created internally by the
/// pipeline from its attached [`Telemetry`] handle and carried through
/// [`StageCtx`](crate::stage::StageCtx) (as `Option<&RunTelemetry>` —
/// `None` keeps every hook a single branch). Stage implementors may use
/// it to record extra spans or shard regions of their own.
#[derive(Debug)]
pub struct RunTelemetry {
    telemetry: Telemetry,
    run: u32,
    label: String,
    start_ns: u64,
}

impl RunTelemetry {
    /// Nanoseconds since the collector's epoch (span timestamps).
    pub fn now_ns(&self) -> u64 {
        self.telemetry.now_ns()
    }

    /// The run label (the pipeline's audit name).
    pub fn label(&self) -> &str {
        &self.label
    }

    fn run_labels(&self) -> Vec<(&'static str, String)> {
        vec![("run", self.label.clone())]
    }

    fn stage_labels(&self, stage: &'static str) -> Vec<(&'static str, String)> {
        vec![("run", self.label.clone()), ("stage", stage.to_owned())]
    }

    /// Records one stage execution: a span on `lane` plus an observation
    /// in the `sp_stage_latency_ns` histogram. `dur_ns` must be exactly
    /// the value reported to the audit stream's `stage_nanos`, which is
    /// what makes `audit_check --metrics` reconcile exactly.
    pub fn stage_span(
        &self,
        lane: Lane,
        iteration: usize,
        stage: &'static str,
        start_ns: u64,
        dur_ns: u64,
    ) {
        self.telemetry.push_span(SpanRecord {
            run: self.run,
            kind: SpanKind::Stage,
            lane,
            iteration: iteration as u32,
            stage,
            aux: "",
            worker: 0,
            start_ns,
            dur_ns,
        });
        self.telemetry
            .observe(("sp_stage_latency_ns", self.stage_labels(stage)), dur_ns);
    }

    /// Records one worker-pool shard region: a span per shard task (on
    /// worker lanes when the region ran pooled, on `lane` when it ran
    /// inline), shard-latency observations, task counts and the region's
    /// busy/idle nanoseconds. `region_start_ns` is [`RunTelemetry::now_ns`]
    /// sampled just before `run_tasks`; `timings` is what `run_tasks`
    /// returned.
    pub fn shard_region(
        &self,
        lane: Lane,
        iteration: usize,
        stage: &'static str,
        region_start_ns: u64,
        timings: &[ShardTiming],
        pooled: bool,
    ) {
        if timings.is_empty() {
            return;
        }
        let mut busy = 0u64;
        let mut region_end = 0u64;
        let mut max_worker = 0u16;
        for t in timings {
            self.telemetry.push_span(SpanRecord {
                run: self.run,
                kind: SpanKind::Shard,
                lane: if pooled { Lane::Worker(t.worker) } else { lane },
                iteration: iteration as u32,
                stage,
                aux: "",
                worker: t.worker,
                start_ns: region_start_ns + t.start_ns,
                dur_ns: t.dur_ns,
            });
            self.telemetry
                .observe(("sp_shard_latency_ns", self.stage_labels(stage)), t.dur_ns);
            busy += t.dur_ns;
            region_end = region_end.max(t.start_ns + t.dur_ns);
            max_worker = max_worker.max(t.worker);
        }
        let labels = self.stage_labels(stage);
        self.telemetry.add_counter(
            ("sp_shard_tasks_total", labels.clone()),
            timings.len() as u64,
        );
        self.telemetry
            .add_counter(("sp_worker_busy_ns_total", labels.clone()), busy);
        let width = u64::from(max_worker) + 1;
        let idle = (width * region_end).saturating_sub(busy);
        self.telemetry
            .add_counter(("sp_worker_idle_ns_total", labels), idle);
    }

    /// Records one watermark-barrier wait that actually blocked:
    /// `stage`'s thread waited from `start_ns` until now for `watched`
    /// to reach its lagged batch index.
    pub fn barrier_stall(
        &self,
        lane: Lane,
        iteration: usize,
        stage: &'static str,
        watched: &'static str,
        start_ns: u64,
    ) {
        let dur_ns = self.now_ns().saturating_sub(start_ns);
        self.telemetry.push_span(SpanRecord {
            run: self.run,
            kind: SpanKind::Stall,
            lane,
            iteration: iteration as u32,
            stage,
            aux: watched,
            worker: 0,
            start_ns,
            dur_ns,
        });
        let labels = self.stage_labels(stage);
        self.telemetry
            .add_counter(("sp_barrier_stalls_total", labels.clone()), 1);
        self.telemetry
            .add_counter(("sp_barrier_stall_ns_total", labels), dur_ns);
    }

    /// Observes the bounded inter-stage channel's depth at a send
    /// (threaded schedule), labelled by the receiving stage.
    pub fn channel_depth(&self, receiver: &'static str, depth: u64) {
        self.telemetry.observe(
            ("sp_channel_queue_depth", self.stage_labels(receiver)),
            depth,
        );
    }

    /// Sets a run-labelled counter to an absolute value (recovery
    /// counters are published once, at run end, from the supervisor's
    /// stats — so they equal the audit stream's event counts exactly).
    pub(crate) fn set_run_counter(&self, name: &'static str, value: u64) {
        self.telemetry.set_counter((name, self.run_labels()), value);
    }

    /// Closes the run: records the run span, run-level gauges and the
    /// end-of-run scratchpad stats.
    pub(crate) fn finish_run(
        &self,
        elapsed_ns: u64,
        iterations: usize,
        pool_width: usize,
        slots_per_table: usize,
        managers: &[ScratchpadManager],
    ) {
        self.telemetry.push_span(SpanRecord {
            run: self.run,
            kind: SpanKind::Run,
            lane: Lane::Main,
            iteration: 0,
            stage: "",
            aux: "",
            worker: 0,
            start_ns: self.start_ns,
            dur_ns: self.now_ns().saturating_sub(self.start_ns),
        });
        let run = self.run_labels();
        self.telemetry
            .set_counter(("sp_run_iterations_total", run.clone()), iterations as u64);
        self.telemetry
            .set_gauge(("sp_run_elapsed_ns", run.clone()), elapsed_ns as f64);
        self.telemetry
            .set_gauge(("sp_worker_pool_width", run.clone()), pool_width as f64);
        let (mut hits, mut misses) = (0u64, 0u64);
        for (t, manager) in managers.iter().enumerate() {
            let stats = manager.stats();
            hits += stats.hits;
            misses += stats.misses;
            let labels = || vec![("run", self.label.clone()), ("table", t.to_string())];
            self.telemetry.set_gauge(
                ("sp_scratchpad_occupancy_rows", labels()),
                manager.occupancy() as f64,
            );
            self.telemetry
                .set_gauge(("sp_scratchpad_slots", labels()), slots_per_table as f64);
            self.telemetry.set_gauge(
                ("sp_scratchpad_peak_held_rows", labels()),
                stats.peak_held as f64,
            );
            self.telemetry
                .set_counter(("sp_scratchpad_hits_total", labels()), stats.hits);
            self.telemetry
                .set_counter(("sp_scratchpad_misses_total", labels()), stats.misses);
            self.telemetry
                .set_counter(("sp_scratchpad_evictions_total", labels()), stats.evictions);
        }
        let total = hits + misses;
        let hit_rate = if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        };
        self.telemetry
            .set_gauge(("sp_scratchpad_hit_rate", run), hit_rate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 5, 1023, 1024, 1025] {
            h.observe(v);
        }
        assert_eq!(h.count, 9);
        assert_eq!(h.sum, 3087);
        // v <= 1 -> bucket 0; v = 2 -> le 2; v in (2,4] -> le 4.
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[10], 2, "1023 and 1024 land in le=1024");
        assert_eq!(h.buckets[11], 1, "1025 lands in le=2048");
        let huge = u64::MAX;
        h.observe(huge);
        assert_eq!(h.buckets[Histogram::BUCKETS], 1, "overflow lands in +Inf");
    }

    #[test]
    fn metrics_render_in_stable_order() {
        let tel = Telemetry::new();
        let run = tel.begin_run("t", "sync");
        run.stage_span(Lane::Main, 0, "Plan", 0, 100);
        run.stage_span(Lane::Main, 0, "Train", 10, 50);
        let a = tel.prometheus_text();
        let b = tel.prometheus_text();
        assert_eq!(a, b);
        assert!(a.contains("# TYPE sp_stage_latency_ns histogram"));
        assert!(a.contains("sp_stage_latency_ns_sum{run=\"t\",stage=\"Plan\"} 100"));
        assert!(a.contains("sp_stage_latency_ns_count{run=\"t\",stage=\"Train\"} 1"));
        let json = tel.metrics_json();
        assert!(json.starts_with("{\"version\":1,"));
        assert!(json.contains("\"name\":\"sp_stage_latency_ns\""));
    }

    #[test]
    fn digest_excludes_wall_clock_values() {
        let tel = Telemetry::new();
        let run = tel.begin_run("d", "sync");
        run.stage_span(Lane::Main, 0, "Plan", 0, 12345);
        let digest = tel.deterministic_digest();
        assert!(digest.contains("span stage r0 i0 Plan lane=0"));
        assert!(digest.contains("metric sp_stage_latency_ns{run=d,stage=Plan} count=1"));
        assert!(
            !digest.contains("12345"),
            "durations must not leak into the digest:\n{digest}"
        );
    }

    #[test]
    fn chrome_trace_is_valid_json_with_lanes() {
        let tel = Telemetry::new();
        let run = tel.begin_run("trace-me", "threaded");
        run.stage_span(Lane::Stage(1), 0, "Collect", 100, 500);
        run.barrier_stall(Lane::Stage(1), 1, "Collect", "Train", 700);
        run.shard_region(
            Lane::Main,
            0,
            "Train",
            1000,
            &[
                ShardTiming {
                    start_ns: 0,
                    dur_ns: 10,
                    worker: 0,
                },
                ShardTiming {
                    start_ns: 2,
                    dur_ns: 8,
                    worker: 1,
                },
            ],
            true,
        );
        let json = tel.chrome_trace_json();
        let parsed = serde_json::from_str(&json).expect("trace must parse");
        let Value::Map(entries) = parsed else {
            panic!("trace root must be a map");
        };
        assert!(entries.iter().any(|(k, _)| k == "traceEvents"));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("stall:Collect<-Train"));
        assert!(json.contains("\"worker 1\""));
    }
}
