//! Chaos harness — CI's executable proof of the recovery contract.
//!
//! For every seed in the matrix this binary arms a seeded
//! [`FaultPlan`] against a supervised
//! data-parallel pipeline run and verifies the headline chaos property:
//!
//! * the recovered `PipelineReport` serializes **byte-identically** to a
//!   fault-free run over the same trace, and the trained tables are
//!   **bit-identical**;
//! * a persistent (unrecoverable) fault aborts cleanly with
//!   `ScratchError::Aborted` and leaves the tables exactly at the last
//!   committed iteration (cross-checked against direct training of the
//!   committed prefix).
//!
//! Every audit line of every chaos run is appended to the output JSONL
//! artifact, which CI then reconciles with `audit_check --faults`.
//! Exits non-zero on the first violated seed.
//!
//! ```bash
//! cargo run --release -p sp-bench --bin chaos_run -- \
//!     --out BENCH_chaos_audit.jsonl --seeds 11,23,37,58 --iterations 16
//! ```

use std::io::Write as _;
use std::process::ExitCode;

use embeddings::EmbeddingTable;
use scratchpipe::runtime::train_direct;
use scratchpipe::{
    Fault, FaultKind, FaultPlan, MemorySink, Pipeline, PipelineConfig, RecoveryPolicy, Schedule,
    ScratchError, UnitBackend,
};
use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

const DIM: usize = 8;
const ROWS: u64 = 500;
const NUM_TABLES: usize = 3;
const SLOTS: usize = 192;
const LEARNING_RATE: f32 = 0.05;

fn trace(iterations: usize) -> Vec<embeddings::SparseBatch> {
    let tc = TraceConfig {
        num_tables: NUM_TABLES,
        rows_per_table: ROWS,
        lookups_per_sample: 4,
        batch_size: 8,
        profile: LocalityProfile::Medium,
        seed: 0xC4A0,
    };
    TraceGenerator::new(tc).take_batches(iterations)
}

fn tables() -> Vec<EmbeddingTable> {
    (0..NUM_TABLES)
        .map(|t| EmbeddingTable::seeded(ROWS as usize, DIM, 900 + t as u64))
        .collect()
}

fn build(plan: Option<FaultPlan>, sink: Option<MemorySink>, name: &str) -> Pipeline<UnitBackend> {
    let mut b = Pipeline::builder()
        .config(PipelineConfig::functional(DIM, SLOTS))
        .tables(tables())
        .backend(UnitBackend::new(LEARNING_RATE))
        .schedule(Schedule::DataParallel)
        .parallelism(2)
        .named(name);
    if let Some(plan) = plan {
        b = b.faults(plan);
    }
    if let Some(sink) = sink {
        b = b.audit(sink);
    }
    b.build().expect("pipeline builds")
}

/// Verifies one recoverable seed; returns its audit lines.
fn check_seed(
    seed: u64,
    iterations: usize,
    base_json: &str,
    base_tables: &[EmbeddingTable],
) -> Result<Vec<String>, String> {
    let plan = FaultPlan::seeded(seed, iterations, 4);
    let sink = MemorySink::new();
    let mut rt = build(Some(plan), Some(sink.clone()), &format!("chaos-{seed}"));
    let run = rt
        .run_supervised(&trace(iterations), RecoveryPolicy::default())
        .map_err(|e| format!("seed {seed}: supervised run failed: {e}"))?;
    let json = serde_json::to_string(&run.report).expect("serialize report");
    if json != base_json {
        return Err(format!(
            "seed {seed}: recovered report is not byte-identical to fault-free"
        ));
    }
    for (t, (got, want)) in rt.into_tables().iter().zip(base_tables).enumerate() {
        if !got.bit_eq(want) {
            return Err(format!(
                "seed {seed}: table {t} diverged from the fault-free run"
            ));
        }
    }
    println!(
        "seed {seed}: OK ({} faults, {} rollbacks, {} degradations, final schedule {:?})",
        run.stats.faults_injected,
        run.stats.rollbacks,
        run.stats.degradations,
        run.stats.final_schedule
    );
    Ok(sink.lines())
}

/// Verifies the unrecoverable case; returns its audit lines.
fn check_abort(iterations: usize) -> Result<Vec<String>, String> {
    let abort_at = iterations / 2;
    let plan = FaultPlan::new(vec![Fault {
        iteration: abort_at,
        stage: "Train".to_owned(),
        shard: 0,
        kind: FaultKind::StageError,
        fires: u32::MAX,
        slow_nanos: 0,
    }]);
    let sink = MemorySink::new();
    let mut rt = build(Some(plan), Some(sink.clone()), "chaos-abort");
    let err = match rt.run_supervised(&trace(iterations), RecoveryPolicy::default()) {
        Err(e) => e,
        Ok(_) => return Err("persistent fault did not abort".to_owned()),
    };
    match &err {
        ScratchError::Aborted {
            iteration,
            schedule,
            ..
        } => {
            if *iteration != abort_at {
                return Err(format!("aborted at {iteration}, expected {abort_at}"));
            }
            if schedule != "sync" {
                return Err(format!(
                    "abort must come off the ladder's last rung (sync), got {schedule}"
                ));
            }
        }
        other => return Err(format!("expected Aborted, got {other:?}")),
    }
    let mut expected = tables();
    let mut backend = UnitBackend::new(LEARNING_RATE);
    train_direct(&mut expected, &trace(iterations)[..abort_at], &mut backend);
    for (t, (got, want)) in rt.into_tables().iter().zip(&expected).enumerate() {
        if !got.bit_eq(want) {
            return Err(format!("table {t} not at the committed prefix after abort"));
        }
    }
    println!("abort case: OK (clean Aborted at iteration {abort_at}, tables at committed prefix)");
    Ok(sink.lines())
}

fn main() -> ExitCode {
    // Injected worker panics are caught by the pool and recovered from;
    // keep their default-hook backtraces out of the CI log. Anything
    // else still reports through the original hook.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("injected worker panic"));
        if !injected {
            default_hook(info);
        }
    }));

    let mut out_path = "BENCH_chaos_audit.jsonl".to_owned();
    let mut seeds: Vec<u64> = vec![11, 23, 37, 58];
    let mut iterations = 16usize;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--seeds" => {
                let Some(spec) = it.next() else {
                    eprintln!("--seeds needs a comma-separated list");
                    return ExitCode::FAILURE;
                };
                match spec.split(',').map(str::parse).collect() {
                    Ok(parsed) => seeds = parsed,
                    Err(e) => {
                        eprintln!("--seeds: bad seed in {spec:?}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--iterations" => {
                let Some(spec) = it.next() else {
                    eprintln!("--iterations needs a count");
                    return ExitCode::FAILURE;
                };
                match spec.parse() {
                    Ok(n) => iterations = n,
                    Err(e) => {
                        eprintln!("--iterations: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: chaos_run [--out FILE.jsonl] [--seeds 1,2,3] [--iterations N]");
                return ExitCode::FAILURE;
            }
        }
    }

    // Fault-free baseline: the byte-identity reference for every seed.
    let mut baseline = build(None, None, "chaos-baseline");
    let base_report = baseline.run(&trace(iterations)).expect("baseline run");
    let base_json = serde_json::to_string(&base_report).expect("serialize baseline");
    let base_tables = baseline.into_tables();

    let mut artifact: Vec<String> = Vec::new();
    let mut failed = false;
    for &seed in &seeds {
        match check_seed(seed, iterations, &base_json, &base_tables) {
            Ok(lines) => artifact.extend(lines),
            Err(e) => {
                failed = true;
                eprintln!("FAIL {e}");
            }
        }
    }
    match check_abort(iterations) {
        Ok(lines) => artifact.extend(lines),
        Err(e) => {
            failed = true;
            eprintln!("FAIL abort case: {e}");
        }
    }

    let write = std::fs::File::create(&out_path).and_then(|mut f| {
        for line in &artifact {
            writeln!(f, "{line}")?;
        }
        f.flush()
    });
    if let Err(e) = write {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} audit lines from {} chaos runs to {out_path}",
        artifact.len(),
        seeds.len() + 1
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
