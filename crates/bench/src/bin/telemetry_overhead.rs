//! Telemetry overhead gate — proof that observing the pipeline is
//! close to free.
//!
//! Runs the same functional pipeline shape repeatedly in **alternating
//! A/B pairs** — one run without a telemetry handle, one with a fresh
//! [`Telemetry`] collector attached — and compares the median wall-clock
//! of the two arms. Alternation cancels slow drift (thermal, cache,
//! scheduler) that would bias a run-all-A-then-all-B design; the median
//! shrugs off stray outlier trials. The gate fails (non-zero exit) when
//! the enabled arm's median exceeds the disabled arm's by more than
//! `--max-overhead` (default 2%).
//!
//! The **disabled** side of the contract is structural, not measured: a
//! pipeline with no observer pays exactly one `Option` check per
//! recording site — the same pattern as fault injection — and never reads
//! the clock. What this bench bounds is the **enabled** side: one clock
//! read and one event pushed under the run's lock per recording, plus
//! handing the log to the collector when the run closes.
//!
//! Writes `TELEMETRY_overhead.json` with both arms' raw trial times so a
//! regression is diagnosable from the artifact alone. The enabled arm's
//! warm-up run — outside the measurement — also attaches an audit sink
//! and leaves the three views of its event log behind as the observed
//! run's artifacts: `TELEMETRY_audit.jsonl`, `TELEMETRY_metrics.json` and
//! `TELEMETRY_trace.json` (the last is `trace_report`'s input).
//!
//! ```bash
//! cargo run --release -p sp-bench --bin telemetry_overhead -- --quick
//! cargo run --release -p sp-bench --bin telemetry_overhead -- --max-overhead 0.02
//! ```

use std::process::ExitCode;
use std::time::Instant;

use embeddings::EmbeddingTable;
use scratchpipe::{FileSink, Pipeline, PipelineConfig, Schedule, Telemetry, UnitBackend};
use serde::Serialize;
use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

const NUM_TABLES: usize = 4;
const ROWS_PER_TABLE: u64 = 50_000;
const DIM: usize = 32;
const SLOTS_PER_TABLE: usize = 6_800;

#[derive(Debug, Serialize)]
struct OverheadReport {
    bench: String,
    mode: String,
    schedule: String,
    iterations: usize,
    trials: usize,
    disabled_ns: Vec<u64>,
    enabled_ns: Vec<u64>,
    disabled_median_ns: u64,
    enabled_median_ns: u64,
    /// `enabled_median / disabled_median - 1` (negative = in the noise).
    overhead_frac: f64,
    max_overhead: f64,
    pass: bool,
}

fn median(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

/// One timed run over `batches`; only `run()` is measured — building the
/// pipeline (table seeding, arena allocation) is setup, not pipeline.
fn timed_run(
    batches: &[embeddings::SparseBatch],
    telemetry: Option<&Telemetry>,
    audit: Option<FileSink>,
) -> u64 {
    let tables: Vec<EmbeddingTable> = (0..NUM_TABLES)
        .map(|t| EmbeddingTable::seeded(ROWS_PER_TABLE as usize, DIM, t as u64))
        .collect();
    let mut builder = Pipeline::builder()
        .config(PipelineConfig::functional(DIM, SLOTS_PER_TABLE))
        .tables(tables)
        .backend(UnitBackend::new(0.01))
        .schedule(Schedule::Sync)
        .named("telemetry-overhead");
    if let Some(t) = telemetry {
        builder = builder.telemetry(t.clone());
    }
    if let Some(sink) = audit {
        builder = builder.audit(sink);
    }
    let mut rt = builder.build().expect("pipeline");
    let t0 = Instant::now();
    rt.run(batches).expect("run");
    t0.elapsed().as_nanos() as u64
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "TELEMETRY_overhead.json".to_owned());
    let max_overhead = args
        .iter()
        .position(|a| a == "--max-overhead")
        .and_then(|i| args.get(i + 1)?.parse::<f64>().ok())
        .unwrap_or(0.02);
    let (trials, iterations) = if quick { (7, 30) } else { (9, 60) };

    let tc = TraceConfig {
        num_tables: NUM_TABLES,
        rows_per_table: ROWS_PER_TABLE,
        lookups_per_sample: 8,
        batch_size: 128,
        profile: LocalityProfile::Medium,
        seed: 0xBE_AC,
    };
    let batches = TraceGenerator::new(tc).take_batches(iterations);

    // Warm both arms once (page-in, branch predictors) before measuring.
    // The enabled arm's warm-up is also the observed run CI inspects.
    timed_run(&batches, None, None);
    let observed = Telemetry::new();
    let sink = FileSink::create("TELEMETRY_audit.jsonl").expect("create TELEMETRY_audit.jsonl");
    timed_run(&batches, Some(&observed), Some(sink));
    observed
        .write_metrics_json("TELEMETRY_metrics.json")
        .expect("write TELEMETRY_metrics.json");
    observed
        .write_chrome_trace("TELEMETRY_trace.json")
        .expect("write TELEMETRY_trace.json");

    let mut disabled_ns = Vec::with_capacity(trials);
    let mut enabled_ns = Vec::with_capacity(trials);
    for trial in 0..trials {
        let off = timed_run(&batches, None, None);
        // A fresh collector per run: steady-state cost, no accumulation.
        let on = timed_run(&batches, Some(&Telemetry::new()), None);
        disabled_ns.push(off);
        enabled_ns.push(on);
        println!(
            "trial {trial}: disabled {:.3} ms, enabled {:.3} ms ({:+.2}%)",
            off as f64 / 1e6,
            on as f64 / 1e6,
            (on as f64 / off as f64 - 1.0) * 100.0
        );
    }

    let disabled_median_ns = median(&disabled_ns);
    let enabled_median_ns = median(&enabled_ns);
    let overhead_frac = enabled_median_ns as f64 / disabled_median_ns as f64 - 1.0;
    let pass = overhead_frac <= max_overhead;
    println!(
        "median: disabled {:.3} ms, enabled {:.3} ms -> overhead {:+.2}% (gate {:.1}%): {}",
        disabled_median_ns as f64 / 1e6,
        enabled_median_ns as f64 / 1e6,
        overhead_frac * 100.0,
        max_overhead * 100.0,
        if pass { "PASS" } else { "FAIL" }
    );

    let report = OverheadReport {
        bench: "telemetry_overhead".to_owned(),
        mode: if quick { "quick" } else { "full" }.to_owned(),
        schedule: "sync".to_owned(),
        iterations,
        trials,
        disabled_ns,
        enabled_ns,
        disabled_median_ns,
        enabled_median_ns,
        overhead_frac,
        max_overhead,
        pass,
    };
    let json = serde_json::to_string(&report).expect("serialize");
    std::fs::write(&out_path, &json).expect("write TELEMETRY_overhead.json");
    println!("wrote {out_path}");
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
