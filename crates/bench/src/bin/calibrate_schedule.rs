//! The three calibration sweeps the pipeline's schedule constants are
//! derived from. Observers off, dedup and final flush on the clock, five
//! runs per cell; prints markdown tables and writes no file (~4 min;
//! `--quick` takes two runs per cell of half the iterations).
//!
//! 1. **`Schedule::Auto`** (`AUTO_OVERLAP_MIN_LOOKUPS` in
//!    `crates/core/src/pipeline.rs`; docs/perf.md, "Schedule
//!    calibration"): the functional pipeline at iteration sizes from 16
//!    to 32 768 lookups and two embedding widths under the synchronous,
//!    overlapped and data-parallel schedules — µs per iteration (best
//!    run), the fastest schedule and what `Auto` picks on this host.
//! 2. **\[Plan\] by table** (`stages::PLAN_FAN_OUT_MIN_UNIQUES`;
//!    docs/perf.md, "Plan by table"): `Schedule::Sync` over the harness
//!    workloads' shapes and scaled-up ones, at pool width 1 (\[Plan\]
//!    plans its tables one after another) and at the machine's width
//!    (side by side once a batch clears the floor), as alternating pairs
//!    — µs per iteration (medians) and how many pairs the pool won.
//!    Measured through the whole pipeline because that is where the floor
//!    has to hold: the launch, and what the other stages pay for plans
//!    written on another CPU, cost several times what a stand-alone
//!    region reads. A shape under the floor runs the same code at both
//!    widths, so its two columns gauge the sweep's noise. To look for a
//!    lower floor on another host, lower the constant and run this again.
//!
//!    Its analytic shapes also time the **dedup region** alone — every
//!    batch of the trace entering a `UniqueWindow`, which deduplicates it
//!    by table side by side from the same floor (counted in lookups) —
//!    at width 1 and at the machine's width, as alternating pairs: the
//!    check that the floor \[Plan\] measured holds for the dedup too.
//! 3. **The dense step across the pool** (`stages::DENSE_FAN_OUT_MIN_FLOPS`;
//!    docs/perf.md, "Dense step across the pool"): `train_bound`'s DLRM
//!    model, one `DlrmBackend::step_on` at pool width 1 against the
//!    machine's width, batch 8 … 1 024, as alternating pairs — µs per step
//!    (medians), how many pairs the pool won, and the floor that implies.
//!    The step is called directly, so every batch runs both widths
//!    whatever the floor says.
//!
//! ```bash
//! cargo run --release -p sp-bench --bin calibrate_schedule [-- --quick]
//! ```

use dlrm::{interaction, DlrmConfig};
use embeddings::{EmbeddingTable, SparseBatch};
use scratchpipe::stages::{UniqueWindow, DENSE_FAN_OUT_MIN_FLOPS, PLAN_FAN_OUT_MIN_UNIQUES};
use scratchpipe::{
    DenseBackend, Pipeline, PipelineConfig, PooledView, Schedule, UnitBackend, WindowConfig,
    WorkerPool,
};
use systems::DlrmBackend;
use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

const NUM_TABLES: usize = 4;
const ROWS_PER_TABLE: u64 = 20_000;
/// (samples per batch, lookups per sample) over the four tables.
const SIZES: [(usize, usize); 10] = [
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

/// One row of the \[Plan\] sweep: `(label, tables, rows per table,
/// embedding width, lookups per sample, batch size, locality, slots per
/// table, iterations)`. No embedding width is an analytic pipeline
/// (metadata only, prewarmed with the hottest rows): \[Plan\] and nothing
/// else.
type PlanShape = (
    &'static str,
    usize,
    u64,
    Option<usize>,
    usize,
    usize,
    LocalityProfile,
    usize,
    usize,
);

/// The harness workloads' shapes (`benchmark/src/workloads.rs`) under
/// their names, `plan_bound`'s recipe at larger batches, and the paper
/// scale at smaller ones.
#[rustfmt::skip]
const PLAN_SHAPES: [PlanShape; 11] = {
    use LocalityProfile::{High, Low, Medium, Random};
    [
        ("copy_bound", 4, 50_000, Some(256), 1, 256, Random, 2_200, 400),
        ("default_auto / supervised", 4, 50_000, Some(32), 8, 128, Medium, 6_800, 400),
        ("train_bound (unit backend)", 4, 50_000, Some(64), 8, 256, High, 9_000, 200),
        ("plan_bound", 8, 100_000, Some(16), 8, 256, Low, 13_500, 120),
        ("plan_bound x2", 8, 200_000, Some(8), 8, 512, Low, 27_000, 80),
        ("plan_bound x4", 8, 200_000, Some(8), 8, 1_024, Low, 54_000, 48),
        ("plan_bound x8", 8, 200_000, Some(8), 8, 2_048, Low, 108_000, 32),
        ("analytic, batch 64", 8, 10_000_000, None, 20, 64, Medium, 200_000, 200),
        ("analytic, batch 256", 8, 10_000_000, None, 20, 256, Medium, 200_000, 80),
        ("analytic, batch 1024", 8, 10_000_000, None, 20, 1_024, Medium, 200_000, 32),
        ("paper_analytic", 8, 10_000_000, None, 20, 2_048, Medium, 200_000, 16),
    ]
};

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// The \[Plan\]-by-table sweep (see the module docs): per shape, `pairs`
/// runs at width 1 and at width `cpus`, taking turns so a drift of the
/// host lands on both; medians, because on a shared host the best run is
/// the one the neighbours left alone.
fn plan_sweep(cpus: usize, pairs: usize, quick: bool) {
    println!(
        "\n[Plan] by table: `Schedule::Sync`, pool width 1 vs {cpus}, medians of {pairs} \
         alternating pairs; floor {PLAN_FAN_OUT_MIN_UNIQUES} unique IDs a batch\n"
    );
    println!(
        "| shape | unique IDs/iter | width 1 µs | width {cpus} µs | [Plan] fans out \
         | width 1 / width {cpus} | width {cpus} ahead |"
    );
    println!("|---|---:|---:|---:|---|---:|---:|");
    // (uniques, median ratio) of the shapes on either side of the floor.
    let (mut below, mut above) = (Vec::new(), Vec::new());
    for (
        label,
        num_tables,
        rows_per_table,
        dim,
        lookups_per_sample,
        batch_size,
        profile,
        slots,
        iterations,
    ) in PLAN_SHAPES
    {
        let iterations = iterations / if quick { 2 } else { 1 };
        let trace = TraceConfig {
            num_tables,
            rows_per_table,
            lookups_per_sample,
            batch_size,
            profile,
            seed: 0xCA_11B,
        };
        let batches = TraceGenerator::new(trace).take_batches(iterations);
        let hot_rows: Vec<Vec<u64>> = (0..num_tables)
            .map(|t| TraceGenerator::new(trace).hot_rows(t, slots as u64))
            .collect();
        let mut uniques = 0;
        let micros_at = |width: usize| {
            let builder = Pipeline::builder()
                .backend(UnitBackend::new(0.01))
                .schedule(Schedule::Sync)
                .parallelism(width);
            let mut rt = match dim {
                Some(dim) => builder
                    .config(PipelineConfig::functional(dim, slots))
                    .tables(
                        (0..num_tables)
                            .map(|t| EmbeddingTable::seeded(rows_per_table as usize, dim, t as u64))
                            .collect(),
                    )
                    .build()
                    .expect("pipeline"),
                None => {
                    let mut rt = builder
                        .config(PipelineConfig::analytic(128, slots))
                        .analytic_tables(num_tables, rows_per_table)
                        .build()
                        .expect("pipeline");
                    rt.prewarm(&hot_rows).expect("prewarm");
                    rt
                }
            };
            let t0 = std::time::Instant::now();
            let report = rt.run(&batches).expect("run");
            let micros = t0.elapsed().as_secs_f64() * 1e6 / iterations as f64;
            uniques = report.records.iter().map(|r| r.unique_rows).sum::<u64>() / iterations as u64;
            micros
        };
        let (inline, wide, ratio, ahead) = alternate(cpus, pairs, micros_at);
        let fans_out = cpus >= 2 && uniques as usize >= PLAN_FAN_OUT_MIN_UNIQUES;
        (if fans_out { &mut above } else { &mut below }).push((uniques, ratio));
        println!(
            "| {label} | {uniques} | {inline:.1} | {wide:.1} | {} | {ratio:.2} | {ahead}/{pairs} |",
            if fans_out { "yes" } else { "no" },
        );
    }
    let noise = below.iter().map(|&(_, ratio): &(u64, f64)| ratio);
    println!(
        "\nunder the floor (the same code at both widths, i.e. this sweep's noise): \
         {:.2}-{:.2}",
        noise.clone().fold(f64::INFINITY, f64::min),
        noise.fold(0.0, f64::max)
    );
    let smallest = above.iter().map(|&(uniques, _)| uniques).min();
    match above.iter().min_by(|a, b| a.1.total_cmp(&b.1)) {
        None => println!("nothing fanned out on this host"),
        Some(&(uniques, ratio)) if ratio < 1.0 => println!(
            "the pool LOST at {uniques} unique IDs a batch ({ratio:.2}x): the floor this sweep \
             implies is above that"
        ),
        Some(&(_, ratio)) => println!(
            "the pool won at every shape over the floor (from {} unique IDs a batch up, by \
             {ratio:.2}x at worst): the floor this sweep implies is at or under that",
            smallest.expect("non-empty")
        ),
    }
}

/// Runs `measure(1)` and `measure(cpus)` `pairs` times, taking turns so a
/// drift of the host lands on both sides; returns the two medians, the
/// median width-1 / width-`cpus` ratio and the pairs the pool won.
fn alternate(
    cpus: usize,
    pairs: usize,
    mut measure: impl FnMut(usize) -> f64,
) -> (f64, f64, f64, usize) {
    let (mut inline, mut wide, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..pairs {
        let (a, b) = if pair % 2 == 0 {
            let a = measure(1);
            (a, measure(cpus))
        } else {
            let b = measure(cpus);
            (measure(1), b)
        };
        inline.push(a);
        wide.push(b);
        ratios.push(a / b);
    }
    let ahead = ratios.iter().filter(|&&ratio| ratio > 1.0).count();
    (
        median(&mut inline),
        median(&mut wide),
        median(&mut ratios),
        ahead,
    )
}

/// The dedup region of the \[Plan\] sweep's analytic shapes (see the
/// module docs): µs per batch of walking a `UniqueWindow` the pipeline's
/// size over the trace, at pool width 1 and `cpus`.
fn dedup_sweep(cpus: usize, pairs: usize, quick: bool) {
    println!(
        "\nDedup by table (`UniqueWindow::advance`): pool width 1 vs {cpus}, medians of {pairs} \
         alternating pairs; floor {PLAN_FAN_OUT_MIN_UNIQUES} lookups a batch\n"
    );
    println!(
        "| shape | lookups/iter | width 1 µs | width {cpus} µs | dedup fans out \
         | width 1 / width {cpus} | width {cpus} ahead |"
    );
    println!("|---|---:|---:|---:|---|---:|---:|");
    let window = WindowConfig::PAPER;
    for (
        label,
        num_tables,
        rows_per_table,
        dim,
        lookups_per_sample,
        batch_size,
        profile,
        _,
        iterations,
    ) in PLAN_SHAPES
    {
        if dim.is_some() {
            continue;
        }
        let iterations = iterations / if quick { 2 } else { 1 };
        let batches: Vec<SparseBatch> = TraceGenerator::new(TraceConfig {
            num_tables,
            rows_per_table,
            lookups_per_sample,
            batch_size,
            profile,
            seed: 0xCA_11B,
        })
        .take_batches(iterations);
        let lookups = batches[0].total_lookups();
        let mut window = UniqueWindow::new(window.past as usize, window.future as usize);
        let (inline, wide, ratio, ahead) = alternate(cpus, pairs, |width| {
            window.reset();
            let t0 = std::time::Instant::now();
            for i in 0..batches.len() {
                window
                    .advance(&batches, i, WorkerPool::new(width))
                    .expect("dedup");
            }
            t0.elapsed().as_secs_f64() * 1e6 / iterations as f64
        });
        let fans_out = cpus >= 2 && num_tables >= 2 && lookups >= PLAN_FAN_OUT_MIN_UNIQUES;
        println!(
            "| {label} | {lookups} | {inline:.1} | {wide:.1} | {} | {ratio:.2} | {ahead}/{pairs} |",
            if fans_out { "yes" } else { "no" },
        );
    }
}

fn main() {
    let quick = std::env::args().any(|arg| arg == "--quick");
    let (reps, auto_iterations) = if quick { (2, 100) } else { (5, 200) };
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("cpus: {cpus}, {reps} runs per cell\n");
    auto_sweep(reps, auto_iterations);
    plan_sweep(cpus, reps, quick);
    dedup_sweep(cpus, reps, quick);
    dense_sweep(cpus, reps, quick);
}

/// Batch sizes of the dense-step sweep.
const DENSE_BATCHES: [usize; 8] = [8, 16, 32, 64, 128, 256, 512, 1_024];

/// The dense-step sweep (see the module docs): per batch, `pairs` runs of
/// µs per `DlrmBackend::step_on` at pool width 1 and at width `cpus`,
/// taking turns; each run trains a fresh backend for ≈ 1.5 M samples'
/// worth of steps (half under `--quick`) after one warm-up step.
fn dense_sweep(cpus: usize, pairs: usize, quick: bool) {
    // `train_bound`'s dense model (benchmark/src/workloads.rs).
    let (tables, dim) = (4, 64);
    let cfg = DlrmConfig {
        dense_dim: 13,
        bottom_widths: vec![13, 128, 64, dim],
        top_widths: vec![interaction::output_dim(tables, dim), 256, 128, 1],
        emb_dim: dim,
        num_tables: tables,
    };
    println!(
        "\nDense step across the pool (`train_bound`'s model, `DlrmBackend::step_on`): pool width \
         1 vs {cpus}, medians of {pairs} alternating pairs; floor {DENSE_FAN_OUT_MIN_FLOPS} FLOPs \
         a step\n"
    );
    println!(
        "| batch | MFLOP/step | width 1 µs | width {cpus} µs | [Train] fans out \
         | width 1 / width {cpus} | width {cpus} ahead |"
    );
    println!("|---:|---:|---:|---:|---|---:|---:|");
    let (mut below, mut above) = (Vec::new(), Vec::new());
    for batch_size in DENSE_BATCHES {
        let steps = (if quick { 1_536 } else { 3_072 }) / batch_size;
        let rows: Vec<Vec<Vec<u64>>> = (0..batch_size)
            .map(|s| (0..tables).map(|t| vec![(s + t) as u64]).collect())
            .collect();
        let sparse = SparseBatch::from_rows(tables, &rows);
        let pooled: Vec<f32> = (0..tables * batch_size * dim)
            .map(|i| (i % 23) as f32 / 46.0 - 0.25)
            .collect();
        let mut grads = vec![0.0f32; pooled.len()];
        let micros_at = |width: usize| {
            let mut backend = DlrmBackend::new(&cfg, 0.01, 3);
            let pool = WorkerPool::new(width);
            let mut step = |i: usize| {
                let view = PooledView::new(&pooled, tables, batch_size, dim);
                backend
                    .step_on(pool, i, &sparse, view, &mut grads)
                    .expect("step");
            };
            step(0);
            let t0 = std::time::Instant::now();
            for i in 1..=steps {
                step(i);
            }
            t0.elapsed().as_secs_f64() * 1e6 / steps as f64
        };
        let (inline, wide, ratio, ahead) = alternate(cpus, pairs, micros_at);
        let flops = cfg.train_flops(batch_size);
        let fans_out = cpus >= 2 && flops >= DENSE_FAN_OUT_MIN_FLOPS;
        (if fans_out { &mut above } else { &mut below }).push((batch_size, ratio));
        println!(
            "| {batch_size} | {:.1} | {inline:.1} | {wide:.1} | {} | {ratio:.2} | {ahead}/{pairs} |",
            flops as f64 / 1e6,
            if fans_out { "yes" } else { "no" },
        );
    }
    let lost_below = below.iter().filter(|&&(_, ratio)| ratio > 1.0);
    match lost_below.map(|&(batch, _)| batch).max() {
        Some(batch) => println!(
            "\nunder the floor, the pool would have won at batch {batch}: the floor this sweep \
             implies is at or under that"
        ),
        None => println!("\nunder the floor, the pool would have won nowhere"),
    }
    match above.iter().min_by(|a, b| a.1.total_cmp(&b.1)) {
        None => println!("nothing fans out on this host"),
        Some(&(batch, ratio)) if ratio < 1.0 => println!(
            "the pool LOST at batch {batch} ({ratio:.2}x): the floor this sweep implies is above \
             that"
        ),
        Some(&(_, ratio)) => {
            println!("the pool won at every batch over the floor (by {ratio:.2}x at worst)")
        }
    }
}

/// The `Schedule::Auto` sweep (see the module docs).
fn auto_sweep(reps: usize, iterations: usize) {
    println!("`Schedule::Auto`: {iterations} iterations per run, best of {reps}\n");
    println!("| lookups/iter | dim | sync µs | threaded µs | data_parallel µs | fastest | `Auto` picks |");
    println!("|---:|---:|---:|---:|---:|---|---|");
    for dim in [8, 64] {
        for (batch_size, lookups_per_sample) in SIZES {
            // Six all-distinct batches fit: no shape can run out.
            let slots_per_table = 6 * batch_size * lookups_per_sample + 64;
            let batches = TraceGenerator::new(TraceConfig {
                num_tables: NUM_TABLES,
                rows_per_table: ROWS_PER_TABLE,
                lookups_per_sample,
                batch_size,
                profile: LocalityProfile::Medium,
                seed: 0xCA_11B,
            })
            .take_batches(iterations);
            let build = |schedule: Schedule| {
                let tables = (0..NUM_TABLES)
                    .map(|t| EmbeddingTable::seeded(ROWS_PER_TABLE as usize, dim, t as u64))
                    .collect();
                Pipeline::builder()
                    .config(PipelineConfig::functional(dim, slots_per_table))
                    .tables(tables)
                    .backend(UnitBackend::new(0.01))
                    .schedule(schedule)
                    .build()
                    .expect("pipeline")
            };
            let schedules = [Schedule::Sync, Schedule::Threaded, Schedule::DataParallel];
            let micros = schedules.map(|schedule| {
                (0..reps)
                    .map(|_| {
                        let mut rt = build(schedule);
                        let t0 = std::time::Instant::now();
                        rt.run(&batches).expect("run");
                        t0.elapsed().as_secs_f64() * 1e6 / iterations as f64
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
