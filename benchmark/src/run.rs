//! One workload, one pass: the untraced end-to-end repetitions, or the
//! traced pass (layer replay + probes + A/B runs).
//!
//! End-to-end numbers come only from untraced repetitions with every
//! observer off. Each repetition regenerates the trace from the seed,
//! seeds fresh tables, builds the pipeline, and times the single public
//! call; its trained tables are then verified against `train_direct`.

use std::time::Instant;

use embeddings::{EmbeddingTable, SparseBatch};
use scratchpipe::runtime::train_direct;
use scratchpipe::{DenseBackend, PipelineReport, Schedule, UnitBackend, WorkerPool};
use systems::{DlrmBackend, TrainingSystem};

use crate::probes;
use crate::replay::{self, layer, Model, Replay};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{
    pcie_bytes_per_iter, sim_iter_us, tables_hash, timed_call, Call, Dense, Kind, Workload, LR,
};

/// End-to-end metrics `(name, unit)`, in report order. Every workload
/// reports all of them from `--trace 0` runs.
pub const END_TO_END: [(&str, &str); 5] = [
    ("train_samples_per_s", "samples/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("pcie_bytes_per_iter", "bytes"),
    ("sim_iter_us", "us"),
];

/// Per-layer metrics `(name, unit)`, in report order, from `--trace 1`
/// runs. A metric whose layer a workload does not execute reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tracegen.gen_ns_per_lookup", "ns"),
    ("embeddings.dedup_ns_per_lookup", "ns"),
    ("embeddings.unique_ratio", "ratio"),
    ("index.get_ns", "ns"),
    ("index.insert_remove_ns", "ns"),
    ("policy.touch_ns", "ns"),
    ("policy.pop_insert_ns", "ns"),
    ("scratchpad.plan_ns_per_unique", "ns"),
    ("scratchpad.hit_rate", "ratio"),
    ("scratchpad.evictions_per_iter", "count"),
    ("scratchpad.peak_held_share", "ratio"),
    ("stages.index_lookups_ns_per_lookup", "ns"),
    ("stages.collect_ns_per_row", "ns"),
    ("stages.collect_gbps", "GB/s"),
    ("stages.insert_ns_per_row", "ns"),
    ("stages.insert_gbps", "GB/s"),
    ("stages.flush_ms", "ms"),
    ("embeddings.gather_ns_per_lookup", "ns"),
    ("embeddings.gather_gbps", "GB/s"),
    ("embeddings.scatter_ns_per_unique", "ns"),
    ("dlrm.step_ms", "ms"),
    ("dlrm.step_gflops", "GFLOP/s"),
    ("stages.plan_share", "ratio"),
    ("stages.collect_share", "ratio"),
    ("stages.insert_share", "ratio"),
    ("stages.train_emb_share", "ratio"),
    ("stages.dense_share", "ratio"),
    ("pipeline.wall_over_kernels", "ratio"),
    ("pipeline.observer_overhead_share", "ratio"),
    ("pipeline.replay_over_e2e_wall", "ratio"),
    ("workers.dispatch_us", "us"),
    ("workers.pool_width", "count"),
    ("recovery.supervised_cost_share", "ratio"),
    ("systems.sim_speedup_vs_static", "ratio"),
    ("host.copy_gbps", "GB/s"),
    ("host.gather_gbps", "GB/s"),
];

/// Unit of a metric from either catalogue.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Trace seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds of timed public calls to accumulate (untraced pass).
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// ~1/20 of the iterations, one repetition, no warm-up.
    pub smoke: bool,
}

/// The result of one pass over one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every verification held.
    pub correct: bool,
    /// Verified runs attempted.
    pub attempted: u64,
    /// Runs that errored or failed verification.
    pub failed: u64,
    /// Metrics in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Schedule the timed call resolved to.
    pub schedule: String,
    /// Worker-pool width that schedule used.
    pub pool_width: usize,
    /// Timed repetitions behind each end-to-end median.
    pub repetitions: usize,
    /// JSON span tree of the traced pass.
    pub spans_json: Option<String>,
}

/// Runs one pass of `w`.
pub fn run(w: &Workload, opts: Options) -> Result<Outcome, String> {
    match w.kind {
        Kind::Analytic if opts.trace => analytic_traced(w, opts),
        Kind::Analytic => analytic_end_to_end(w, opts),
        Kind::Functional { call, dense } => match dense {
            Dense::Unit => functional(w, call, opts, &|| UnitBackend::new(LR)),
            Dense::Dlrm => {
                let cfg = w.dlrm_config();
                functional(w, call, opts, &|| DlrmBackend::new(&cfg, LR, opts.seed))
            }
        },
    }
}

fn functional<B: DenseBackend + Send + Clone>(
    w: &Workload,
    call: Call,
    opts: Options,
    make_backend: &dyn Fn() -> B,
) -> Result<Outcome, String> {
    if opts.trace {
        traced(w, call, opts, make_backend)
    } else {
        end_to_end(w, call, opts, make_backend)
    }
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// The deterministic outputs of one run, which must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Exact {
    pcie_bytes_per_iter: f64,
    sim_iter_us: f64,
    hit_rate: f64,
    tables_hash: u64,
}

impl Exact {
    fn of(report: &PipelineReport, batches: &[SparseBatch], dim: usize, tables_hash: u64) -> Self {
        Exact {
            pcie_bytes_per_iter: pcie_bytes_per_iter(report),
            sim_iter_us: sim_iter_us(report, batches, dim),
            hit_rate: report.hit_rate(),
            tables_hash,
        }
    }
}

/// One repetition's measurements.
#[derive(Debug, Clone, Copy)]
struct Rep {
    setup_s: f64,
    wall_s: f64,
    exact: Exact,
}

/// What a functional repetition leaves behind for verification.
struct Trained {
    report: PipelineReport,
    tables: Vec<EmbeddingTable>,
    /// Schedule name and pool width the timed call resolved to here.
    schedule: String,
    pool_width: usize,
}

/// Set-up + timed call of a functional workload.
fn functional_rep<B: DenseBackend + Send + Clone>(
    w: &Workload,
    seed: u64,
    iterations: usize,
    call: Call,
    observed: bool,
    backend: &dyn Fn() -> B,
) -> Result<(Rep, Trained), String> {
    let setup = Instant::now();
    let batches = w.trace(seed, iterations);
    let tables = w.tables(seed);
    let mut pipeline = w.build(tables, backend(), call, observed)?;
    let setup_s = setup.elapsed().as_secs_f64();
    let schedule = pipeline
        .effective_schedule(&batches)
        .map_err(|e| e.to_string())?;
    let pool_width = match schedule {
        Schedule::DataParallel => pipeline.workers().threads(),
        _ => 1,
    };
    let (report, wall_s) = timed_call(call, &mut pipeline, &batches)?;
    let tables = pipeline.into_tables();
    let rep = Rep {
        setup_s,
        wall_s,
        exact: Exact::of(&report, &batches, w.dim, tables_hash(&tables)),
    };
    let trained = Trained {
        report,
        tables,
        schedule: schedule.name().to_owned(),
        pool_width,
    };
    Ok((rep, trained))
}

/// `train_direct` over the same trace on fresh tables: the reference
/// every functional run and the replay must match bit for bit.
fn reference_tables<B: DenseBackend>(
    w: &Workload,
    batches: &[SparseBatch],
    seed: u64,
    mut backend: B,
) -> Vec<EmbeddingTable> {
    let mut tables = w.tables(seed);
    train_direct(&mut tables, batches, &mut backend);
    tables
}

fn bit_eq(a: &[EmbeddingTable], b: &[EmbeddingTable]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bit_eq(y))
}

/// The untraced pass's repetition policy around `one(iterations)`: a
/// warm-up on a quarter-length prefix (page cache, allocator and CPU
/// clocks settle before anything is timed), then at least three timed
/// repetitions, then more until `--seconds` of timed calls have
/// accumulated. Returns every repetition's measurements, what the final
/// repetition left behind, and how many repetitions errored.
///
/// Only the final repetition's leftovers are kept; earlier ones are
/// dropped before the next set-up, so peak RSS holds one model, not two.
fn repetitions<R>(
    w: &Workload,
    opts: Options,
    one: impl Fn(usize) -> Result<(Rep, R), String>,
) -> Result<(Vec<Rep>, R, u64), String> {
    /// A failing workload fails every time; stop after a few.
    const MAX_ERRORS: u64 = 3;
    /// Upper bound for very short repetitions.
    const MAX_REPS: usize = 64;
    let iterations = w.iterations(opts.smoke);
    let (min_reps, seconds) = if opts.smoke {
        (1, 0.0)
    } else {
        one(iterations.div_ceil(4))?;
        (3, opts.seconds)
    };
    let mut reps = Vec::new();
    let mut measured = 0.0;
    let mut errors = 0;
    while errors < MAX_ERRORS {
        match one(iterations) {
            Ok((rep, leftovers)) => {
                eprintln!(
                    "{}: repetition {} set-up {:.4} s, timed call {:.4} s",
                    w.name,
                    reps.len(),
                    rep.setup_s,
                    rep.wall_s
                );
                measured += rep.wall_s;
                reps.push(rep);
                if (reps.len() >= min_reps && measured >= seconds) || reps.len() >= MAX_REPS {
                    return Ok((reps, leftovers, errors));
                }
            }
            Err(e) => {
                eprintln!("{}: repetition failed: {e}", w.name);
                errors += 1;
            }
        }
    }
    Err(format!("{}: {errors} repetitions failed", w.name))
}

fn end_to_end_metrics(
    w: &Workload,
    iterations: usize,
    reps: &[Rep],
    peak: f64,
) -> Vec<(&'static str, f64)> {
    let throughput: Vec<f64> = reps
        .iter()
        .map(|r| w.samples(iterations) / r.wall_s)
        .collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let values = [
        median(&throughput),
        median(&setups),
        peak,
        reps[0].exact.pcie_bytes_per_iter,
        reps[0].exact.sim_iter_us,
    ];
    END_TO_END.iter().map(|&(n, _)| n).zip(values).collect()
}

/// The untraced pass of a functional workload.
fn end_to_end<B: DenseBackend + Send + Clone>(
    w: &Workload,
    call: Call,
    opts: Options,
    make_backend: &dyn Fn() -> B,
) -> Result<Outcome, String> {
    let iterations = w.iterations(opts.smoke);
    let (reps, last, errors) = repetitions(w, opts, |iterations| {
        functional_rep(w, opts.seed, iterations, call, false, make_backend)
    })?;
    // Read before verification allocates a second model.
    let peak = peak_rss_mib()?;

    let batches = w.trace(opts.seed, iterations);
    let reference = reference_tables(w, &batches, opts.seed, make_backend());
    let reference_hash = tables_hash(&reference);
    let mut failed = errors;
    let last_matches = bit_eq(&last.tables, &reference);
    if !last_matches {
        eprintln!("{}: tables differ from train_direct", w.name);
    }
    for (k, rep) in reps.iter().enumerate() {
        if rep.exact.tables_hash != reference_hash {
            eprintln!("{}: repetition {k} trained different tables", w.name);
            failed += 1;
        } else if rep.exact != reps[0].exact {
            eprintln!("{}: repetition {k} deterministic metrics drifted", w.name);
            failed += 1;
        }
    }
    Ok(Outcome {
        correct: failed == 0 && last_matches,
        attempted: reps.len() as u64 + errors,
        failed,
        metrics: end_to_end_metrics(w, iterations, &reps, peak),
        schedule: last.schedule,
        pool_width: last.pool_width,
        repetitions: reps.len(),
        spans_json: None,
    })
}

/// Set-up + timed `simulate()` of the analytic system, with its checks;
/// returns the program's own cache report beside the measurements.
fn analytic_rep(
    w: &Workload,
    seed: u64,
    iterations: usize,
) -> Result<(Rep, PipelineReport), String> {
    let setup = Instant::now();
    let batches = w.trace(seed, iterations);
    let mut system = w.analytic_system(seed);
    let setup_s = setup.elapsed().as_secs_f64();
    let started = Instant::now();
    let simulated = system.simulate(&batches);
    let wall_s = started.elapsed().as_secs_f64();
    let simulated = simulated.map_err(|e| e.to_string())?;
    let report = system
        .last_pipeline_report()
        .ok_or("simulate left no pipeline report")?
        .clone();
    let exact = Exact::of(&report, &batches, w.dim, 0);
    // The harness's sim-time helper must reproduce simulate() exactly.
    let simulated_us = simulated.iteration_time.as_micros();
    if exact.sim_iter_us.to_bits() != simulated_us.to_bits() {
        return Err(format!(
            "sim_iter_us helper {} != simulate() {simulated_us}",
            exact.sim_iter_us
        ));
    }
    let conserved = report.iterations == iterations
        && report
            .records
            .iter()
            .all(|r| r.hits + r.misses == r.unique_rows && r.evictions <= r.misses);
    if !conserved {
        return Err("analytic report violates hit/miss conservation".to_owned());
    }
    let rep = Rep {
        setup_s,
        wall_s,
        exact,
    };
    Ok((rep, report))
}

/// The untraced pass of `paper_analytic`.
fn analytic_end_to_end(w: &Workload, opts: Options) -> Result<Outcome, String> {
    let (reps, _, errors) =
        repetitions(w, opts, |iterations| analytic_rep(w, opts.seed, iterations))?;
    let peak = peak_rss_mib()?;
    let drifted = reps.iter().filter(|r| r.exact != reps[0].exact).count() as u64;
    let failed = errors + drifted;
    Ok(Outcome {
        correct: failed == 0,
        attempted: reps.len() as u64 + errors,
        failed,
        metrics: end_to_end_metrics(w, w.iterations(opts.smoke), &reps, peak),
        schedule: Schedule::Sync.name().to_owned(),
        pool_width: 1,
        repetitions: reps.len(),
        spans_json: None,
    })
}

/// Ratio with a zero guard.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What the traced pass measured around the replay.
#[derive(Debug, Clone, Copy, Default)]
struct Measured {
    /// FLOPs one dense step performs (0 for `UnitBackend`).
    step_flops: f64,
    /// Median wall of the plain end-to-end runs.
    e2e_wall_s: f64,
    /// Median wall with observers attached.
    observed_wall_s: f64,
    supervised_cost_share: f64,
    sim_speedup_vs_static: f64,
}

/// Every per-layer metric: the replay's spans and counts, what was
/// measured around it, and the probes (run here, on the replay's stream).
fn layer_metrics(
    w: &Workload,
    seed: u64,
    rec: &Recorder,
    replayed: &Replay,
    prewarm: Option<&[Vec<u64>]>,
    m: Measured,
) -> Vec<(&'static str, f64)> {
    let index = probes::index_probe(w.slots, &replayed.uniq, &replayed.plans, prewarm);
    let policy = probes::policy_probe(w.slots, &replayed.plans);
    let host = probes::host_probe(w.dim, seed);
    let pool = WorkerPool::auto();

    let ns = |name| rec.total_ns(name) as f64;
    let c = replayed.counts;
    let (lookups, uniques, iters) = (c.lookups as f64, c.uniques as f64, c.iterations as f64);
    let moved_rows = (c.fills + c.evictions) as f64;
    let row_bytes = (w.dim * 4) as f64;
    // GB/s = bytes ÷ ns.
    let gbps = |bytes: f64, name| ratio(bytes, ns(name));
    let dense = ns(layer::DENSE_STEP);
    let stage_sum = ns(layer::PLAN) + ns(layer::COLLECT) + ns(layer::INSERT) + ns(layer::TRAIN);
    // Kernel time: the layer spans only, without the harness's own
    // bookkeeping between them (the iteration spans' self time).
    let kernels = ns(layer::DEDUP) + ns(layer::ITERATION) + ns(layer::FLUSH)
        - rec.self_ns(layer::ITERATION) as f64;
    let values = [
        ratio(ns(layer::TRACEGEN), lookups),
        ratio(ns(layer::DEDUP), lookups),
        ratio(uniques, lookups),
        index.get_ns,
        index.insert_remove_ns,
        policy.touch_ns,
        policy.pop_insert_ns,
        ratio(ns(layer::SCRATCHPAD_PLAN), uniques),
        ratio(c.hits as f64, uniques),
        ratio(c.evictions as f64, iters),
        replayed.peak_held_share,
        ratio(ns(layer::INDEX_LOOKUPS), lookups),
        ratio(ns(layer::COLLECT), moved_rows),
        gbps(moved_rows * row_bytes, layer::COLLECT),
        ratio(ns(layer::INSERT), moved_rows),
        gbps(moved_rows * row_bytes, layer::INSERT),
        ns(layer::FLUSH) / 1e6,
        ratio(ns(layer::GATHER), lookups),
        gbps(lookups * row_bytes, layer::GATHER),
        ratio(ns(layer::SCATTER), uniques),
        ratio(dense / 1e6, iters),
        ratio(m.step_flops * iters, dense),
        ratio(ns(layer::PLAN), stage_sum),
        ratio(ns(layer::COLLECT), stage_sum),
        ratio(ns(layer::INSERT), stage_sum),
        ratio(ns(layer::TRAIN) - dense, stage_sum),
        ratio(dense, stage_sum),
        ratio(m.e2e_wall_s * 1e9, kernels),
        ratio(m.observed_wall_s, m.e2e_wall_s) - 1.0,
        ratio(ns(layer::REPLAY), m.e2e_wall_s * 1e9),
        probes::dispatch_us(pool),
        pool.threads() as f64,
        m.supervised_cost_share,
        m.sim_speedup_vs_static,
        host.copy_gbps,
        host.gather_gbps,
    ];
    assert_eq!(values.len(), PER_LAYER.len(), "per-layer catalogue");
    PER_LAYER.iter().map(|&(n, _)| n).zip(values).collect()
}

/// Verification bookkeeping of the traced pass's runs.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    exacts: Vec<Exact>,
}

/// Per-iteration `(hits, misses, evictions)` of a pipeline report.
fn cache_events(report: &PipelineReport) -> Vec<(u64, u64, u64)> {
    report
        .records
        .iter()
        .map(|r| (r.hits, r.misses, r.evictions))
        .collect()
}

/// The traced pass of a functional workload.
fn traced<B: DenseBackend + Send + Clone>(
    w: &Workload,
    call: Call,
    opts: Options,
    make_backend: &dyn Fn() -> B,
) -> Result<Outcome, String> {
    let iterations = w.iterations(opts.smoke);
    let mut rec = Recorder::new(format!("{}-seed-{}", w.name, opts.seed));
    let root = rec.open("benchmark.run", None);
    let batches = rec.time(layer::TRACEGEN, root, || w.trace(opts.seed, iterations));
    let reference = reference_tables(w, &batches, opts.seed, make_backend());
    let reference_hash = tables_hash(&reference);

    // Every run in this pass trains the same trace, whatever its entry
    // point or observers, so each must reach the reference tables.
    let mut tally = Tally::default();
    let mut verified_run = |call: Call, observed: bool| {
        let (rep, trained) =
            functional_rep(w, opts.seed, iterations, call, observed, make_backend)?;
        tally.attempted += 1;
        if rep.exact.tables_hash != reference_hash {
            eprintln!("{}: {call:?} run trained different tables", w.name);
            tally.failed += 1;
        }
        tally.exacts.push(rep.exact);
        Ok::<_, String>((rep.wall_s, trained))
    };

    // A/B, alternating which side goes first: observers off vs
    // MemorySink + Telemetry attached.
    if !opts.smoke {
        verified_run(call, false)?;
    }
    let pairs = if opts.smoke { 1 } else { 2 };
    let (mut plain, mut observed) = (Vec::new(), Vec::new());
    let mut plain_run = None;
    for k in 0..pairs {
        for side in [k % 2 == 1, k % 2 == 0] {
            let (wall, trained) = verified_run(call, side)?;
            if side {
                observed.push(wall);
            } else {
                plain.push(wall);
                plain_run = Some(trained);
            }
        }
    }
    let plain_run = plain_run.expect("every pair holds a plain run");
    let e2e_wall_s = median(&plain);

    // Supervision cost on the same trace: plain Sync vs supervised.
    let sync_wall = match call {
        Call::Run(Schedule::Sync) => e2e_wall_s,
        _ => verified_run(Call::Run(Schedule::Sync), false)?.0,
    };
    let supervised_wall = match call {
        Call::Supervised => e2e_wall_s,
        _ => verified_run(Call::Supervised, false)?.0,
    };
    let Tally {
        mut attempted,
        mut failed,
        exacts,
    } = tally;
    if exacts.iter().any(|e| *e != exacts[0]) {
        eprintln!("{}: deterministic metrics differ between runs", w.name);
        failed += 1;
    }

    // The layer replay.
    attempted += 1;
    let mut model = Model {
        tables: w.tables(opts.seed),
        backend: make_backend(),
    };
    let step_flops = model.backend.traffic(w.batch).gpu_flops as f64;
    let replayed = replay::replay(
        &mut rec,
        root,
        &batches,
        w.dim,
        w.slots,
        None,
        Some(&mut model),
    )?;
    if !bit_eq(&model.tables, &reference) {
        eprintln!("{}: replay tables differ from train_direct", w.name);
        failed += 1;
    } else if replayed.per_iteration != cache_events(&plain_run.report) {
        eprintln!("{}: replay cache events differ from the pipeline's", w.name);
        failed += 1;
    }
    drop((model, reference));
    // The bases behind the traced pass's ratios.
    eprintln!(
        "{}: end-to-end wall {e2e_wall_s:.4} s (median of {} plain runs), observed {:.4} s, \
         plain Sync {sync_wall:.4} s, supervised {supervised_wall:.4} s, replay {:.4} s",
        w.name,
        plain.len(),
        median(&observed),
        rec.total_ns(layer::REPLAY) as f64 / 1e9,
    );

    let measured = Measured {
        step_flops,
        e2e_wall_s,
        observed_wall_s: median(&observed),
        supervised_cost_share: 1.0 - ratio(sync_wall, supervised_wall),
        sim_speedup_vs_static: 0.0,
    };
    let metrics = layer_metrics(w, opts.seed, &rec, &replayed, None, measured);
    rec.close(root);
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        schedule: plain_run.schedule,
        pool_width: plain_run.pool_width,
        repetitions: plain.len(),
        spans_json: Some(rec.to_json()),
    })
}

/// The traced pass of `paper_analytic`: Plan-only replay (all the
/// analytic pipeline executes), the static-cache comparator, probes.
fn analytic_traced(w: &Workload, opts: Options) -> Result<Outcome, String> {
    let iterations = w.iterations(opts.smoke);
    let mut rec = Recorder::new(format!("{}-seed-{}", w.name, opts.seed));
    let root = rec.open("benchmark.run", None);
    let batches = rec.time(layer::TRACEGEN, root, || w.trace(opts.seed, iterations));

    let runs = if opts.smoke { 1 } else { 2 };
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..runs {
        let (rep, report) = analytic_rep(w, opts.seed, iterations)?;
        walls.push(rep.wall_s);
        last = Some((rep, report));
    }
    let (last_rep, last_report) = last.expect("at least one analytic run");
    let mut attempted = runs as u64;
    let mut failed = 0u64;

    attempted += 1;
    let hot = w.hot_rows(opts.seed);
    let replayed =
        replay::replay::<UnitBackend>(&mut rec, root, &batches, w.dim, w.slots, Some(&hot), None)?;
    if replayed.per_iteration != cache_events(&last_report) {
        eprintln!("{}: replay cache events differ from simulate()'s", w.name);
        failed += 1;
    }

    // Fig. 13's quantity: simulated static-cache ÷ ScratchPipe iteration
    // time. Unvalidated against hardware: the repo holds no reference
    // measurements.
    let static_report = w
        .static_cache_system(opts.seed)
        .simulate(&batches)
        .map_err(|e| e.to_string())?;
    let e2e_wall_s = median(&walls);
    let measured = Measured {
        e2e_wall_s,
        // No observer can be attached through simulate().
        observed_wall_s: e2e_wall_s,
        sim_speedup_vs_static: ratio(
            static_report.iteration_time.as_micros(),
            last_rep.exact.sim_iter_us,
        ),
        ..Measured::default()
    };
    let metrics = layer_metrics(w, opts.seed, &rec, &replayed, Some(&hot), measured);
    rec.close(root);
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        schedule: Schedule::Sync.name().to_owned(),
        pool_width: 1,
        repetitions: walls.len(),
        spans_json: Some(rec.to_json()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn smoke(trace: bool) -> Options {
        Options {
            seed: 7,
            seconds: 0.0,
            trace,
            smoke: true,
        }
    }

    #[test]
    fn catalogues_have_unique_names_and_units() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, (name, unit)) in all.iter().enumerate() {
            assert!(all[..i].iter().all(|(n, _)| n != name), "{name} twice");
            assert_eq!(unit_of(name), Some(*unit));
        }
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn smoke_pass_of_a_functional_workload_is_correct_and_complete() {
        let w = &WORKLOADS[3]; // default_auto
        let e2e = run(w, smoke(false)).unwrap();
        assert!(e2e.correct && e2e.failed == 0 && e2e.attempted == 1);
        assert_eq!(e2e.metrics.len(), END_TO_END.len());
        assert!(e2e.metrics.iter().all(|&(_, v)| v > 0.0));

        let traced = run(w, smoke(true)).unwrap();
        assert!(traced.correct, "traced pass failed verification");
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        let get = |name: &str| traced.metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        let shares = get("stages.plan_share")
            + get("stages.collect_share")
            + get("stages.insert_share")
            + get("stages.train_emb_share")
            + get("stages.dense_share");
        assert!((shares - 1.0).abs() < 1e-9, "shares sum to {shares}");
        assert!(get("scratchpad.hit_rate") > 0.0 && get("scratchpad.hit_rate") < 1.0);
        assert!(traced.spans_json.is_some());
    }
}
