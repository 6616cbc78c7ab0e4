//! Telemetry determinism and reconciliation — the observability layer's
//! two contracts, tested in-process.
//!
//! **Determinism:** [`Telemetry::deterministic_digest`] renders the
//! structural span tree (which spans exist, on which lanes) and every
//! non-wall-clock metric value. Re-running the same seeded trace at the
//! same pool width must reproduce it byte-for-byte — at widths 1, 2
//! and 4, under every schedule. This is what "identical METRICS.json
//! modulo wall-clock durations" means operationally: the digest *is*
//! the wall-clock-stripped view of METRICS.json plus the span tree.
//!
//! **Reconciliation:** the pipeline records one integer per stage
//! execution, in one event log, and the audit stream (`stage_nanos`),
//! the `sp_stage_latency_ns` histogram and the trace's stage spans are
//! all folds over that log — so the histogram's `sum` and the summed span
//! durations equal the summed audit nanos **exactly**, and the recovery
//! counters equal the audit stream's event counts. A supervised run that
//! rolled iterations back also metered the failed attempts, which the
//! audit stream (committed iterations only) leaves out: there the stage
//! totals relax to `>=`, everything else stays exact.

use proptest::prelude::*;
use scratchpipe::{
    Fault, FaultKind, FaultPlan, MemorySink, Pipeline, PipelineConfig, RecoveryPolicy, Schedule,
    Telemetry, UnitBackend,
};
use serde::Value;
use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

const NUM_TABLES: usize = 2;
const ROWS: u64 = 300;
const DIM: usize = 8;
const SLOTS: usize = 120;
const ITERS: usize = 12;

fn batches(seed: u64) -> Vec<embeddings::SparseBatch> {
    let tc = TraceConfig {
        num_tables: NUM_TABLES,
        rows_per_table: ROWS,
        lookups_per_sample: 4,
        batch_size: 8,
        profile: LocalityProfile::Medium,
        seed,
    };
    TraceGenerator::new(tc).take_batches(ITERS)
}

/// One audited, metered run; returns the collector and the audit lines.
fn run_once(seed: u64, schedule: Schedule, width: usize, label: &str) -> (Telemetry, Vec<String>) {
    observed(seed, schedule, width, label, None)
}

/// [`run_once`], or — with a fault plan — the same trace under
/// `run_supervised` with that plan armed.
fn observed(
    seed: u64,
    schedule: Schedule,
    width: usize,
    label: &str,
    faults: Option<FaultPlan>,
) -> (Telemetry, Vec<String>) {
    let tables: Vec<embeddings::EmbeddingTable> = (0..NUM_TABLES)
        .map(|t| embeddings::EmbeddingTable::seeded(ROWS as usize, DIM, 40 + t as u64))
        .collect();
    let telemetry = Telemetry::new();
    let sink = MemorySink::new();
    let mut builder = Pipeline::builder()
        .config(PipelineConfig::functional(DIM, SLOTS))
        .tables(tables)
        .backend(UnitBackend::new(0.05))
        .schedule(schedule)
        .parallelism(width)
        .telemetry(telemetry.clone())
        .audit(sink.clone())
        .named(label);
    let supervised = faults.is_some();
    if let Some(plan) = faults {
        builder = builder.faults(plan);
    }
    let mut rt = builder.build().expect("pipeline");
    if supervised {
        rt.run_supervised(&batches(seed), RecoveryPolicy::default())
            .expect("every fault is recoverable");
    } else {
        rt.run(&batches(seed)).expect("run");
    }
    (telemetry, sink.lines())
}

/// Recoverable faults of both kinds, spread over the trace; every
/// `fires` stays below the default retry budget of 3.
fn recoverable_plan() -> FaultPlan {
    let fault = |iteration, stage: &str, shard, kind, fires| Fault {
        iteration,
        stage: stage.to_owned(),
        shard,
        kind,
        fires,
    };
    FaultPlan::new(vec![
        fault(2, "Plan", 0, FaultKind::StageError, 2),
        fault(5, "Collect", 1, FaultKind::WorkerPanic, 1),
        fault(7, "Insert", 0, FaultKind::WorkerPanic, 1),
        fault(9, "Insert", 0, FaultKind::StageError, 1),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed, same width, same schedule -> byte-identical digest:
    /// the span tree and every non-wall-clock metric reproduce exactly,
    /// whatever the machine was doing between the two runs.
    #[test]
    fn digest_is_seed_deterministic_at_every_width(seed in 0u64..1_000) {
        for schedule in [Schedule::Sync, Schedule::Threaded, Schedule::DataParallel] {
            for width in [1usize, 2, 4] {
                let label = format!("det-{}-w{width}", schedule.name());
                let (a, _) = run_once(seed, schedule, width, &label);
                let (b, _) = run_once(seed, schedule, width, &label);
                prop_assert_eq!(
                    a.deterministic_digest(),
                    b.deterministic_digest(),
                    "schedule {:?} width {} digest diverged",
                    schedule,
                    width
                );
            }
        }
    }
}

fn uint(v: &Value, key: &str) -> u64 {
    match v.get(key) {
        Some(Value::UInt(n)) => *n,
        other => panic!("field {key}: expected UInt, got {other:?}"),
    }
}

fn label<'v>(metric: &'v Value, key: &str) -> Option<&'v str> {
    let Some(Value::Map(labels)) = metric.get("labels") else {
        panic!("metric lacks labels map");
    };
    labels
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
}

#[test]
fn stage_histograms_reconcile_exactly_with_the_audit_stream() {
    for (schedule, width, faults) in [
        (Schedule::Sync, 1, None),
        (Schedule::Threaded, 1, None),
        (Schedule::DataParallel, 2, None),
        (Schedule::DataParallel, 2, Some(recoverable_plan())),
    ] {
        let name = format!("reconcile-{}-{}", schedule.name(), faults.is_some());
        let (telemetry, lines) = observed(7, schedule, width, &name, faults);

        // Audit side: per-stage sums over iteration events, cache totals,
        // and a count of every event kind.
        let mut audit_ns: std::collections::BTreeMap<String, u64> = Default::default();
        let mut kinds: std::collections::BTreeMap<String, u64> = Default::default();
        let (mut hits, mut misses) = (0u64, 0u64);
        for line in &lines {
            let event: Value = serde_json::from_str(line).expect("audit line parses");
            let Some(Value::Str(kind)) = event.get("event") else {
                panic!("audit line lacks an event kind");
            };
            *kinds.entry(kind.clone()).or_default() += 1;
            if kind != "iteration" {
                continue;
            }
            hits += uint(&event, "hits");
            misses += uint(&event, "misses");
            let Some(Value::Map(nanos)) = event.get("stage_nanos") else {
                panic!("iteration lacks stage_nanos");
            };
            for (stage, v) in nanos {
                let Value::UInt(ns) = v else {
                    panic!("stage_nanos.{stage} not UInt");
                };
                *audit_ns.entry(stage.clone()).or_default() += ns;
            }
        }
        let count = |kind: &str| kinds.get(kind).copied().unwrap_or(0);
        let iterations = count("iteration");
        assert_eq!(iterations, ITERS as u64);
        let rolled_back = count("iteration_rolled_back") > 0;
        // Failed attempts were metered but never audited: `==` for clean
        // runs, `>=` once iterations were replayed.
        let reconcile = |what: &str, metered: u64, audited: u64| {
            if rolled_back {
                assert!(
                    metered >= audited,
                    "{name}: {what} {metered} < audit {audited}"
                );
            } else {
                assert_eq!(metered, audited, "{name}: {what}");
            }
        };

        // Telemetry side: the metrics registry.
        let doc: Value =
            serde_json::from_str(&telemetry.metrics_json()).expect("METRICS.json parses");
        let Some(Value::Seq(metrics)) = doc.get("metrics") else {
            panic!("metrics: expected a sequence");
        };
        let mut stages_checked = 0;
        let mut recovery_checked = 0;
        let (mut table_hits, mut table_misses) = (0u64, 0u64);
        for m in metrics {
            let Some(Value::Str(metric)) = m.get("name") else {
                panic!("metric lacks a name");
            };
            assert_eq!(label(m, "run"), Some(name.as_str()));
            let recovery_event = match metric.as_str() {
                "sp_stage_latency_ns" => {
                    let stage = label(m, "stage").expect("stage label").to_owned();
                    // The heart of the contract: both sides summed the
                    // *same* integers, so equality is exact - no tolerance.
                    reconcile(
                        &format!("stage {stage} histogram sum vs summed stage_nanos"),
                        uint(m, "sum"),
                        audit_ns[&stage],
                    );
                    reconcile(
                        &format!("stage {stage} count"),
                        uint(m, "count"),
                        iterations,
                    );
                    stages_checked += 1;
                    continue;
                }
                "sp_run_iterations_total" => {
                    assert_eq!(uint(m, "value"), iterations, "{name}: committed iterations");
                    continue;
                }
                "sp_scratchpad_hits_total" => {
                    table_hits += uint(m, "value");
                    continue;
                }
                "sp_scratchpad_misses_total" => {
                    table_misses += uint(m, "value");
                    continue;
                }
                "sp_recovery_rollbacks_total" => "iteration_rolled_back",
                "sp_recovery_retries_total" => "stage_retried",
                "sp_recovery_degradations_total" => "schedule_degraded",
                "sp_recovery_faults_injected_total" => "fault_injected",
                "sp_recovery_aborts_total" => "run_aborted",
                _ => continue,
            };
            assert_eq!(
                uint(m, "value"),
                count(recovery_event),
                "{name}: {metric} vs {recovery_event} events"
            );
            recovery_checked += 1;
        }
        assert_eq!(stages_checked, 5, "{schedule:?}: all five stages metered");
        // A rollback restores the managers, statistics included, so the
        // per-table totals count the committed iterations only.
        assert_eq!(table_hits, hits, "{name}: summed table hits");
        assert_eq!(table_misses, misses, "{name}: summed table misses");
        if rolled_back {
            assert_eq!(recovery_checked, 5, "{name}: every recovery counter");
            assert_eq!(count("fault_injected"), 5);
            assert_eq!(count("iteration_rolled_back"), 5);
            assert_eq!(count("stage_retried"), 5);
        } else {
            assert_eq!(recovery_checked, 0, "{name}: plain runs publish none");
        }

        // Trace side: the stage spans carry the same integers in `args`.
        let trace: Value =
            serde_json::from_str(&telemetry.chrome_trace_json()).expect("trace.json parses");
        let Some(Value::Seq(events)) = trace.get("traceEvents") else {
            panic!("traceEvents: expected a sequence");
        };
        let mut span_ns: std::collections::BTreeMap<String, u64> = Default::default();
        for ev in events {
            if !matches!(ev.get("cat"), Some(Value::Str(cat)) if cat == "stage") {
                continue;
            }
            let args = ev.get("args").expect("span args");
            let Some(Value::Str(stage)) = args.get("stage") else {
                panic!("stage span lacks args.stage");
            };
            *span_ns.entry(stage.clone()).or_default() += uint(args, "dur_ns");
        }
        assert_eq!(span_ns.len(), 5, "{name}: all five stages traced");
        for (stage, &traced) in &span_ns {
            reconcile(
                &format!("stage {stage} span total vs summed stage_nanos"),
                traced,
                audit_ns[stage],
            );
        }
    }
}

#[test]
fn attaching_telemetry_does_not_perturb_results_or_audit() {
    // Telemetry must be a pure observer, like audit: same report, same
    // audit stream (minus nothing - the stream has no telemetry fields),
    // with and without a collector attached.
    let run = |telemetry: Option<Telemetry>| {
        let tables: Vec<embeddings::EmbeddingTable> = (0..NUM_TABLES)
            .map(|t| embeddings::EmbeddingTable::seeded(ROWS as usize, DIM, 40 + t as u64))
            .collect();
        let sink = MemorySink::new();
        let mut b = Pipeline::builder()
            .config(PipelineConfig::functional(DIM, SLOTS))
            .tables(tables)
            .backend(UnitBackend::new(0.05))
            .schedule(Schedule::DataParallel)
            .parallelism(2)
            .audit(sink.clone())
            .named("observer-purity");
        if let Some(t) = telemetry {
            b = b.telemetry(t);
        }
        let mut rt = b.build().expect("pipeline");
        let report = rt.run(&batches(3)).expect("run");
        let body = serde_json::to_string(&report).expect("serialize");
        (body, sink.lines(), rt.into_tables())
    };
    let (metered_report, metered_lines, metered_tables) = run(Some(Telemetry::new()));
    let (plain_report, plain_lines, plain_tables) = run(None);
    assert_eq!(
        metered_report, plain_report,
        "telemetry must be a pure observer"
    );
    // Audit lines differ only in the random run_id and wall-clock nanos;
    // compare their deterministic shape: event kinds in order.
    let kinds = |lines: &[String]| -> Vec<String> {
        lines
            .iter()
            .map(|l| {
                let v: Value = serde_json::from_str(l).expect("parse");
                match v.get("event") {
                    Some(Value::Str(k)) => k.clone(),
                    other => panic!("event: {other:?}"),
                }
            })
            .collect()
    };
    assert_eq!(kinds(&metered_lines), kinds(&plain_lines));
    for (a, b) in metered_tables.iter().zip(&plain_tables) {
        assert!(a.bit_eq(b), "trained tables diverged under telemetry");
    }
}
