//! Functional-pipeline throughput baseline — the repo's machine-readable
//! perf trajectory.
//!
//! Runs the *functional* ScratchPipe pipeline (real embedding rows moving
//! through the flat staging arenas, real SGD) at fixed shapes, under the
//! synchronous, per-stage-thread and intra-stage data-parallel schedules
//! of the single [`Pipeline`] driver, and writes `BENCH_pipeline.json`:
//! iterations per second per schedule, the explicit speedup ratios over
//! sync, bytes staged across PCIe, and the peak rows held per table (the
//! §VI-D working-set measurement).
//!
//! Every run attaches an audit sink, and **every reported number is
//! parsed back out of the audit JSONL stream** rather than read from the
//! in-process `PipelineReport` — the benchmark doubles as an end-to-end
//! test that the audit log alone reproduces the perf numbers.
//!
//! ```bash
//! cargo run --release -p sp-bench --bin bench_pipeline_throughput            # full
//! cargo run --release -p sp-bench --bin bench_pipeline_throughput -- --quick # CI
//! cargo run --release -p sp-bench --bin bench_pipeline_throughput -- \
//!     --quick --audit BENCH_pipeline_audit.jsonl \
//!     --audit-parallel BENCH_pipeline_audit_parallel.jsonl                   # + JSONL
//! cargo run --release -p sp-bench --bin bench_pipeline_throughput -- \
//!     --quick --trace trace.json --metrics METRICS.json --prom metrics.prom  # + telemetry
//! ```
//!
//! `--trace` / `--metrics` / `--prom` attach one shared [`Telemetry`]
//! collector to every run and write its Chrome trace, `METRICS.json`
//! and Prometheus snapshots (inputs to `trace_report` and
//! `audit_check --metrics`); without those flags the bench runs
//! un-instrumented. The report's `host` envelope records the machine
//! (CPU count, default pool width, rustc version, quick/full mode) the
//! numbers came from.
//!
//! The JSON is an append-only perf contract: regressions in a PR show up
//! as a drop in `*_iters_per_sec` against the artifact of the previous
//! run, with everything else (shapes, seeds, trace) held fixed. The
//! `auto_schedule` field records which schedule [`Schedule::Auto`] picks
//! for the shape (the overlapped `threaded` schedule on a host with at
//! least two CPUs, `sync` otherwise or when an iteration is too small to
//! pay for its channel hops), and the bench prints the *regret* of that
//! pick — how far it fell short of the fastest schedule just measured —
//! exiting non-zero above 25 % on a host with two or more CPUs. The
//! `speedup_*_vs_sync` fields are derived from the same audit-sourced
//! throughputs (`audit_check --bench` re-verifies the arithmetic), and
//! `parallelism` records the worker-pool width the data-parallel run
//! actually used — on a single-core host it is 1 and the data-parallel
//! schedule degrades to the sync register pipeline.
//!
//! `--calibrate` runs the sweep `Auto`'s rule is derived from instead
//! (docs/perf.md, "Schedule calibration"): iteration sizes from 16 to
//! 32 768 lookups at two embedding widths, best of five runs per
//! schedule, printed as a markdown table. It writes no file.

use embeddings::EmbeddingTable;
use scratchpipe::{
    MemorySink, Pipeline, PipelineConfig, Schedule, StageTraffic, Telemetry, UnitBackend,
    WorkerPool,
};
use serde::{Deserialize as _, Serialize, Value};
use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

/// One fixed benchmark shape.
struct Shape {
    name: &'static str,
    num_tables: usize,
    rows_per_table: u64,
    dim: usize,
    lookups_per_sample: usize,
    batch_size: usize,
    slots_per_table: usize,
    /// Only run when not in `--quick` mode.
    full_only: bool,
}

const SHAPES: [Shape; 3] = [
    Shape {
        name: "small",
        num_tables: 4,
        rows_per_table: 20_000,
        dim: 16,
        lookups_per_sample: 4,
        batch_size: 64,
        slots_per_table: 2_000,
        full_only: false,
    },
    Shape {
        name: "medium",
        num_tables: 4,
        rows_per_table: 50_000,
        dim: 32,
        lookups_per_sample: 8,
        batch_size: 128,
        slots_per_table: 6_800,
        full_only: false,
    },
    Shape {
        name: "wide",
        num_tables: 8,
        rows_per_table: 100_000,
        dim: 32,
        lookups_per_sample: 8,
        batch_size: 256,
        slots_per_table: 13_500,
        full_only: true,
    },
];

#[derive(Debug, Serialize)]
struct ShapeResult {
    name: String,
    num_tables: usize,
    rows_per_table: u64,
    dim: usize,
    lookups_per_sample: usize,
    batch_size: usize,
    slots_per_table: usize,
    iterations: usize,
    sync_iters_per_sec: f64,
    threaded_iters_per_sec: f64,
    /// Throughput of `Schedule::DataParallel` at the pool width below.
    parallel_iters_per_sec: f64,
    /// Worker-pool width the data-parallel run used (machine-dependent:
    /// the available parallelism of the benchmarking host).
    parallelism: usize,
    /// `threaded_iters_per_sec / sync_iters_per_sec`.
    speedup_threaded_vs_sync: f64,
    /// `parallel_iters_per_sec / sync_iters_per_sec`.
    speedup_parallel_vs_sync: f64,
    /// Which schedule `Schedule::Auto` resolves to for this shape.
    auto_schedule: String,
    /// Throughput of the schedule `Auto` picks (one of the above).
    auto_iters_per_sec: f64,
    /// Total bytes staged across PCIe (fills + evictions) by the sync run.
    bytes_staged: u64,
    /// Unique-to-raw lookup ratio of the sync run: Σ unique rows per
    /// (table, batch) / Σ raw lookups. Below 1.0 the trace repeats IDs
    /// within batches and the Plan-time dedup pays off.
    unique_lookup_ratio: f64,
    /// Bytes the deduplicated hot path moves host-to-device in total:
    /// the Plan-stage compact index upload (4 bytes per unique slot + 4
    /// per raw-lookup index) plus the staged fill/eviction rows above.
    /// `audit_check --bench` re-derives this from the audit stream and
    /// fails if the dedup accounting disagrees.
    bytes_staged_dedup: u64,
    /// Max over tables of the peak held (non-evictable) slots.
    peak_rows_held: usize,
    hit_rate: f64,
}

/// The machine the numbers came from — perf artifacts are meaningless
/// without it. `rustc` falls back to `"unknown"` when the compiler is
/// not on PATH at bench time (the artifact must still be writable).
#[derive(Debug, Serialize)]
struct HostEnvelope {
    /// `std::thread::available_parallelism` (1 if undeterminable).
    cpus: usize,
    /// Width of the machine-sized [`WorkerPool::auto`] the data-parallel
    /// schedule defaults to.
    pool_parallelism: usize,
    /// `rustc --version` of the toolchain on PATH, or `"unknown"`.
    rustc: String,
    /// `"quick"` (CI) or `"full"` — how many iterations backed the run.
    mode: String,
}

fn host_envelope(quick: bool) -> HostEnvelope {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|v| v.trim().to_owned())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_owned());
    HostEnvelope {
        cpus: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        pool_parallelism: WorkerPool::auto().threads(),
        rustc,
        mode: if quick { "quick" } else { "full" }.to_owned(),
    }
}

#[derive(Debug, Serialize)]
struct BenchReport {
    bench: String,
    mode: String,
    host: HostEnvelope,
    shapes: Vec<ShapeResult>,
}

/// Everything one audit stream tells us about its run.
struct AuditNumbers {
    iterations: u64,
    elapsed_ns: u64,
    bytes_staged: u64,
    /// Σ over iteration events of the Plan stage's PCIe H2D bytes (the
    /// compact dedup-index upload).
    plan_h2d_bytes: u64,
    /// Σ raw lookups across iterations.
    total_lookups: u64,
    /// Σ unique rows per (table, batch) across iterations.
    unique_rows: u64,
    peak_rows_held: usize,
    hit_rate: f64,
}

fn field_u64(event: &Value, key: &str) -> u64 {
    match event.get(key) {
        Some(Value::UInt(n)) => *n,
        other => panic!("audit field {key}: expected UInt, got {other:?}"),
    }
}

fn field_f64(event: &Value, key: &str) -> f64 {
    match event.get(key) {
        Some(Value::Float(x)) => *x,
        Some(Value::UInt(n)) => *n as f64,
        other => panic!("audit field {key}: expected number, got {other:?}"),
    }
}

/// Reconstructs the benchmark numbers from the audit JSONL alone.
fn parse_audit(lines: &[String]) -> AuditNumbers {
    let mut bytes_staged = 0u64;
    let mut plan_h2d_bytes = 0u64;
    let mut total_lookups = 0u64;
    let mut unique_rows = 0u64;
    let mut completed = None;
    for line in lines {
        let event: Value = serde_json::from_str(line).expect("audit line parses");
        match event.get("event") {
            Some(Value::Str(kind)) if kind == "iteration" => {
                let traffic = event.get("traffic").expect("iteration.traffic");
                let st = StageTraffic::from_value(traffic).expect("StageTraffic");
                bytes_staged += st.exchange.pcie_h2d_bytes + st.exchange.pcie_d2h_bytes;
                plan_h2d_bytes += st.plan.pcie_h2d_bytes;
                total_lookups += field_u64(&event, "total_lookups");
                unique_rows += field_u64(&event, "unique_rows");
            }
            Some(Value::Str(kind)) if kind == "run_completed" => {
                let peak = match event.get("peak_held_slots") {
                    Some(Value::Seq(items)) => items
                        .iter()
                        .map(|v| match v {
                            Value::UInt(n) => *n as usize,
                            other => panic!("peak_held_slots entry: {other:?}"),
                        })
                        .max()
                        .unwrap_or(0),
                    other => panic!("peak_held_slots: expected Seq, got {other:?}"),
                };
                completed = Some(AuditNumbers {
                    iterations: field_u64(&event, "iterations"),
                    elapsed_ns: field_u64(&event, "elapsed_ns"),
                    bytes_staged: 0,
                    plan_h2d_bytes: 0,
                    total_lookups: 0,
                    unique_rows: 0,
                    peak_rows_held: peak,
                    hit_rate: field_f64(&event, "hit_rate"),
                });
            }
            _ => {}
        }
    }
    let mut numbers = completed.expect("audit stream has run_completed");
    numbers.bytes_staged = bytes_staged;
    numbers.plan_h2d_bytes = plan_h2d_bytes;
    numbers.total_lookups = total_lookups;
    numbers.unique_rows = unique_rows;
    numbers
}

fn make_tables(shape: &Shape) -> Vec<EmbeddingTable> {
    (0..shape.num_tables)
        .map(|t| EmbeddingTable::seeded(shape.rows_per_table as usize, shape.dim, t as u64))
        .collect()
}

/// Runs of each (shape, schedule) cell; its throughput is the best of
/// them. One un-warmed run of a few milliseconds is too noisy to judge
/// `Auto`'s pick against.
const REPS: usize = 3;

/// Runs one shape under `schedule` [`REPS`] times and returns the
/// audit-derived numbers plus the raw audit lines of the last run — the
/// only one `telemetry` is attached to, so the trace and metrics describe
/// exactly the run the audit artifact does. `elapsed_ns` is the smallest
/// of the runs' (each read from its own audit stream); everything else is
/// deterministic for the trace.
fn run_schedule(
    shape: &Shape,
    batches: &[embeddings::SparseBatch],
    schedule: Schedule,
    telemetry: Option<&Telemetry>,
) -> (AuditNumbers, Vec<String>) {
    let mut best_ns = u64::MAX;
    let mut last = None;
    for rep in 0..REPS {
        let sink = MemorySink::new();
        let mut builder = Pipeline::builder()
            .config(PipelineConfig::functional(shape.dim, shape.slots_per_table))
            .tables(make_tables(shape))
            .backend(UnitBackend::new(0.01))
            .schedule(schedule)
            .audit(sink.clone())
            .named(&format!("bench-{}-{}", shape.name, schedule.name()));
        if let (Some(t), true) = (telemetry, rep + 1 == REPS) {
            builder = builder.telemetry(t.clone());
        }
        let mut rt = builder.build().expect("pipeline");
        rt.run(batches).expect("run");
        let lines = sink.lines();
        let numbers = parse_audit(&lines);
        best_ns = best_ns.min(numbers.elapsed_ns);
        last = Some((numbers, lines));
    }
    let (mut numbers, lines) = last.expect("at least one run");
    numbers.elapsed_ns = best_ns;
    (numbers, lines)
}

fn run_shape(
    shape: &Shape,
    iterations: usize,
    telemetry: Option<&Telemetry>,
    audit_lines: &mut Vec<String>,
    parallel_lines: &mut Vec<String>,
) -> ShapeResult {
    let tc = TraceConfig {
        num_tables: shape.num_tables,
        rows_per_table: shape.rows_per_table,
        lookups_per_sample: shape.lookups_per_sample,
        batch_size: shape.batch_size,
        profile: LocalityProfile::Medium,
        seed: 0xBE_AC,
    };
    let batches = TraceGenerator::new(tc).take_batches(iterations);

    let (sync, sync_log) = run_schedule(shape, &batches, Schedule::Sync, telemetry);
    let (threaded, threaded_log) = run_schedule(shape, &batches, Schedule::Threaded, telemetry);
    let (parallel, parallel_log) = run_schedule(shape, &batches, Schedule::DataParallel, telemetry);
    assert_eq!(sync.iterations as usize, iterations);
    assert_eq!(threaded.iterations as usize, iterations);
    assert_eq!(parallel.iterations as usize, iterations);
    audit_lines.extend(sync_log);
    audit_lines.extend(threaded_log);
    parallel_lines.extend(parallel_log);

    // What would `Schedule::Auto` have picked for this shape, and how
    // wide is the default (machine-sized) worker pool?
    let auto_probe = Pipeline::builder()
        .config(PipelineConfig::functional(shape.dim, shape.slots_per_table))
        .tables(make_tables(shape))
        .backend(UnitBackend::new(0.01))
        .schedule(Schedule::Auto)
        .build()
        .expect("pipeline");
    let resolved = auto_probe.effective_schedule(&batches).expect("resolve");
    let parallelism = auto_probe.workers().threads();

    let sync_ips = iterations as f64 / (sync.elapsed_ns as f64 / 1e9);
    let threaded_ips = iterations as f64 / (threaded.elapsed_ns as f64 / 1e9);
    let parallel_ips = iterations as f64 / (parallel.elapsed_ns as f64 / 1e9);
    ShapeResult {
        name: shape.name.to_owned(),
        num_tables: shape.num_tables,
        rows_per_table: shape.rows_per_table,
        dim: shape.dim,
        lookups_per_sample: shape.lookups_per_sample,
        batch_size: shape.batch_size,
        slots_per_table: shape.slots_per_table,
        iterations,
        sync_iters_per_sec: sync_ips,
        threaded_iters_per_sec: threaded_ips,
        parallel_iters_per_sec: parallel_ips,
        parallelism,
        speedup_threaded_vs_sync: threaded_ips / sync_ips,
        speedup_parallel_vs_sync: parallel_ips / sync_ips,
        auto_schedule: resolved.name().to_owned(),
        auto_iters_per_sec: match resolved {
            Schedule::Threaded => threaded_ips,
            Schedule::DataParallel => parallel_ips,
            _ => sync_ips,
        },
        bytes_staged: sync.bytes_staged,
        unique_lookup_ratio: sync.unique_rows as f64 / sync.total_lookups as f64,
        bytes_staged_dedup: sync.plan_h2d_bytes + sync.bytes_staged,
        peak_rows_held: sync.peak_rows_held,
        hit_rate: sync.hit_rate,
    }
}

/// `Auto`'s shortfall against the fastest schedule measured for a shape,
/// as a fraction of the fastest (0 = `Auto` picked the winner).
fn auto_regret(r: &ShapeResult) -> f64 {
    let best = r
        .sync_iters_per_sec
        .max(r.threaded_iters_per_sec)
        .max(r.parallel_iters_per_sec);
    1.0 - r.auto_iters_per_sec / best
}

/// Regret above which `--quick` fails on a host with at least two CPUs.
const MAX_AUTO_REGRET: f64 = 0.25;

/// The calibration sweep behind `Auto`'s rule: µs per iteration under
/// each schedule (best of `SWEEP_REPS` runs, dedup and flush on the clock) as
/// the iteration grows, at two embedding widths.
fn calibrate() {
    const SWEEP_REPS: usize = 5;
    const ITERATIONS: usize = 200;
    // (samples per batch, lookups per sample) over four tables.
    let sizes = [
        (1, 4),
        (4, 4),
        (8, 4),
        (16, 4),
        (24, 4),
        (32, 4),
        (64, 4),
        (128, 4),
        (128, 8),
        (1024, 8),
    ];
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("cpus: {cpus}, {ITERATIONS} iterations per run, best of {SWEEP_REPS}\n");
    println!("| lookups/iter | dim | sync µs | threaded µs | data_parallel µs | fastest | `Auto` picks |");
    println!("|---:|---:|---:|---:|---:|---|---|");
    for dim in [8, 64] {
        for (batch_size, lookups_per_sample) in sizes {
            let shape = Shape {
                name: "sweep",
                num_tables: 4,
                rows_per_table: 20_000,
                dim,
                lookups_per_sample,
                batch_size,
                // Six all-distinct batches fit: no shape can run out.
                slots_per_table: 6 * batch_size * lookups_per_sample + 64,
                full_only: false,
            };
            let batches = TraceGenerator::new(TraceConfig {
                num_tables: shape.num_tables,
                rows_per_table: shape.rows_per_table,
                lookups_per_sample,
                batch_size,
                profile: LocalityProfile::Medium,
                seed: 0xCA_11B,
            })
            .take_batches(ITERATIONS);
            let build = |schedule: Schedule| {
                Pipeline::builder()
                    .config(PipelineConfig::functional(dim, shape.slots_per_table))
                    .tables(make_tables(&shape))
                    .backend(UnitBackend::new(0.01))
                    .schedule(schedule)
                    .build()
                    .expect("pipeline")
            };
            let schedules = [Schedule::Sync, Schedule::Threaded, Schedule::DataParallel];
            let micros = schedules.map(|schedule| {
                (0..SWEEP_REPS)
                    .map(|_| {
                        let mut rt = build(schedule);
                        let t0 = std::time::Instant::now();
                        rt.run(&batches).expect("run");
                        t0.elapsed().as_secs_f64() * 1e6 / ITERATIONS as f64
                    })
                    .fold(f64::INFINITY, f64::min)
            });
            let fastest = (0..schedules.len())
                .min_by(|&a, &b| micros[a].total_cmp(&micros[b]))
                .expect("three schedules");
            let picked = build(Schedule::Auto)
                .effective_schedule(&batches)
                .expect("resolve");
            println!(
                "| {} | {dim} | {:.1} | {:.1} | {:.1} | {} | {} |",
                batches[0].total_lookups(),
                micros[0],
                micros[1],
                micros[2],
                schedules[fastest].name(),
                picked.name()
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--calibrate") {
        calibrate();
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_pipeline.json".to_owned());
    let audit_path = args
        .iter()
        .position(|a| a == "--audit")
        .and_then(|i| args.get(i + 1).cloned());
    let parallel_audit_path = args
        .iter()
        .position(|a| a == "--audit-parallel")
        .and_then(|i| args.get(i + 1).cloned());
    let flag_path = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let trace_path = flag_path("--trace");
    let metrics_path = flag_path("--metrics");
    let prom_path = flag_path("--prom");
    let iterations = if quick { 24 } else { 120 };
    // One shared collector across every shape and schedule, so the trace
    // renders each `bench-{shape}-{schedule}` run as its own process and
    // METRICS.json joins to the audit JSONL on those labels. Only
    // attached when an output was requested: the default bench stays
    // un-instrumented.
    let telemetry = (trace_path.is_some() || metrics_path.is_some() || prom_path.is_some())
        .then(Telemetry::new);

    let mut shapes = Vec::new();
    let mut audit_lines = Vec::new();
    let mut parallel_lines = Vec::new();
    println!(
        "{:<8} {:>6} {:>12} {:>14} {:>14} {:>13} {:>12} {:>10}",
        "shape",
        "iters",
        "sync it/s",
        "threaded it/s",
        "parallel it/s",
        "auto",
        "staged MiB",
        "peak rows"
    );
    for shape in &SHAPES {
        if shape.full_only && quick {
            continue;
        }
        let r = run_shape(
            shape,
            iterations,
            telemetry.as_ref(),
            &mut audit_lines,
            &mut parallel_lines,
        );
        println!(
            "{:<8} {:>6} {:>12.1} {:>14.1} {:>14.1} {:>13} {:>12.2} {:>10}",
            r.name,
            r.iterations,
            r.sync_iters_per_sec,
            r.threaded_iters_per_sec,
            r.parallel_iters_per_sec,
            r.auto_schedule,
            r.bytes_staged as f64 / (1024.0 * 1024.0),
            r.peak_rows_held
        );
        shapes.push(r);
    }

    let host = host_envelope(quick);
    let cpus = host.cpus;
    let mut worst_regret = 0.0f64;
    println!();
    for r in &shapes {
        let regret = auto_regret(r);
        worst_regret = worst_regret.max(regret);
        println!(
            "{:<8} auto = {:<13} regret vs fastest measured: {:>5.1} %",
            r.name,
            r.auto_schedule,
            regret * 100.0
        );
    }

    let report = BenchReport {
        bench: "pipeline_throughput".to_owned(),
        mode: if quick { "quick" } else { "full" }.to_owned(),
        host,
        shapes,
    };
    let json = serde_json::to_string(&report).expect("serialize");
    std::fs::write(&out_path, &json).expect("write BENCH_pipeline.json");
    println!("\nwrote {out_path}");
    if let Some(path) = audit_path {
        let mut body = audit_lines.join("\n");
        body.push('\n');
        std::fs::write(&path, body).expect("write audit JSONL");
        println!("wrote {path} ({} events)", audit_lines.len());
    }
    if let Some(path) = parallel_audit_path {
        let mut body = parallel_lines.join("\n");
        body.push('\n');
        std::fs::write(&path, body).expect("write parallel audit JSONL");
        println!("wrote {path} ({} events)", parallel_lines.len());
    }
    if let Some(tel) = &telemetry {
        if let Some(path) = &trace_path {
            tel.write_chrome_trace(path).expect("write trace.json");
            println!("wrote {path}");
        }
        if let Some(path) = &metrics_path {
            tel.write_metrics_json(path).expect("write METRICS.json");
            println!("wrote {path}");
        }
        if let Some(path) = &prom_path {
            tel.write_prometheus(path).expect("write Prometheus text");
            println!("wrote {path}");
        }
    }
    // Last, so every artifact is written either way. One CPU has no
    // overlap to get right; `Auto` is `sync` there by construction.
    if cpus >= 2 && worst_regret > MAX_AUTO_REGRET {
        eprintln!(
            "Auto's pick is {:.1} % slower than the fastest schedule measured (limit {:.0} %)",
            worst_regret * 100.0,
            MAX_AUTO_REGRET * 100.0
        );
        std::process::exit(1);
    }
}
