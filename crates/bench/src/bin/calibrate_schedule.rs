//! The calibration sweep `Schedule::Auto`'s rule is derived from
//! (`AUTO_OVERLAP_MIN_LOOKUPS` in `crates/core/src/pipeline.rs`; table in
//! docs/perf.md, "Schedule calibration").
//!
//! Runs the functional pipeline at iteration sizes from 16 to 32 768
//! lookups and two embedding widths under the synchronous, overlapped and
//! data-parallel schedules — observers off, dedup and final flush on the
//! clock, best of five runs of 200 iterations — and prints µs per
//! iteration as a markdown table, with the fastest schedule and what
//! `Auto` picks on this host. Takes no arguments and writes no file
//! (~1 min).
//!
//! ```bash
//! cargo run --release -p sp-bench --bin calibrate_schedule
//! ```

use embeddings::EmbeddingTable;
use scratchpipe::{Pipeline, PipelineConfig, Schedule, UnitBackend};
use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

const REPS: usize = 5;
const ITERATIONS: usize = 200;
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

fn main() {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("cpus: {cpus}, {ITERATIONS} iterations per run, best of {REPS}\n");
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
            .take_batches(ITERATIONS);
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
                (0..REPS)
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
