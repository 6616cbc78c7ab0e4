//! Audit-JSONL sanity checker — the CI gate on the audit schema.
//!
//! Reads one or more audit JSONL files (as written by any [`FileSink`]
//! run, `telemetry_overhead` or `chaos_run`) and verifies, without any
//! external tooling:
//!
//! * every line parses as a JSON object carrying the documented envelope
//!   (`event`, `run_id`, `run`, `seq`);
//! * `seq` numbers each run's lines consecutively from 0;
//! * each run is well-formed: `run_started` first, `run_completed` or
//!   `run_aborted` last, and the number of `iteration` events equals the
//!   `iterations` field claimed by *both* bracketing events;
//! * each `iteration` event deserializes as an
//!   [`IterationRecord`] and carries a
//!   five-stage `stage_nanos` map;
//! * when an `iteration` event carries a `stage_shards` map (the
//!   shard-timing breakdown), every key names a stage from `stage_nanos`
//!   and every value is a non-empty sequence of unsigned shard nanos;
//! * the hit rate recomputed from the iteration events matches the
//!   `run_completed.hit_rate` within 1e-9;
//! * the recovery events (`fault_injected`, `iteration_rolled_back`,
//!   `stage_retried`, `schedule_degraded`, `run_aborted`) carry their
//!   documented fields, and an aborted run's `iteration` events equal its
//!   `run_aborted.committed` count;
//! * each run tells a consistent recovery story: every rollback is
//!   answered by exactly one retry, degradation or abort
//!   (`rollbacks == retries + degradations + aborted`). A run that
//!   aborted without a single rollback is a plain `Pipeline::run` whose
//!   error propagated; it must have committed nothing.
//!
//! With `--faults` the file must additionally contain at least one
//! `fault_injected` event. CI runs this over the chaos suite's artifact.
//!
//! That the stream agrees with the metrics registry and the trace is not
//! checked here: all three are folds over one event log
//! (`scratchpipe::telemetry`), and `tests/telemetry_determinism.rs`
//! asserts the agreement in-process.
//!
//! ```bash
//! cargo run --release -p sp-bench --bin audit_check -- TELEMETRY_audit.jsonl
//! cargo run --release -p sp-bench --bin audit_check -- --faults BENCH_chaos_audit.jsonl
//! ```
//!
//! Exits non-zero on the first violated file, printing every violation.
//!
//! [`FileSink`]: scratchpipe::FileSink

use std::collections::HashMap;
use std::process::ExitCode;

use scratchpipe::IterationRecord;
use serde::{Deserialize as _, Value};

/// Per-run accumulated state while scanning a file.
#[derive(Default)]
struct RunState {
    next_seq: u64,
    started: bool,
    completed: bool,
    aborted: bool,
    claimed_iterations: Option<u64>,
    iteration_events: u64,
    hits: u64,
    misses: u64,
    completed_hit_rate: Option<f64>,
    faults_injected: u64,
    rollbacks: u64,
    retries: u64,
    degradations: u64,
    aborted_committed: Option<u64>,
}

fn get_str<'v>(event: &'v Value, key: &str) -> Result<&'v str, String> {
    match event.get(key) {
        Some(Value::Str(s)) => Ok(s),
        other => Err(format!("field {key}: expected string, got {other:?}")),
    }
}

fn get_u64(event: &Value, key: &str) -> Result<u64, String> {
    match event.get(key) {
        Some(Value::UInt(n)) => Ok(*n),
        other => Err(format!("field {key}: expected unsigned int, got {other:?}")),
    }
}

fn check_line(event: &Value, runs: &mut HashMap<String, RunState>) -> Result<(), String> {
    let kind = get_str(event, "event")?;
    let run_id = get_str(event, "run_id")?.to_owned();
    get_str(event, "run")?;
    let seq = get_u64(event, "seq")?;

    let state = runs.entry(run_id).or_default();
    if seq != state.next_seq {
        return Err(format!("seq {seq}, expected {}", state.next_seq));
    }
    state.next_seq += 1;
    if state.completed {
        return Err("event after the terminal run_completed/run_aborted".to_owned());
    }
    match kind {
        "run_started" => {
            if state.started {
                return Err("duplicate run_started".to_owned());
            }
            state.started = true;
            state.claimed_iterations = Some(get_u64(event, "iterations")?);
            get_u64(event, "num_tables")?;
            get_u64(event, "dim")?;
            get_str(event, "schedule")?;
        }
        "iteration" => {
            if !state.started {
                return Err("iteration before run_started".to_owned());
            }
            let rec = IterationRecord::from_value(event)
                .map_err(|e| format!("not an IterationRecord: {e}"))?;
            // Committed iterations arrive in index order even when a
            // supervised run retried them out of wall-clock order.
            if rec.index as u64 != state.iteration_events {
                return Err(format!(
                    "iteration index {} out of order (expected {})",
                    rec.index, state.iteration_events
                ));
            }
            state.iteration_events += 1;
            state.hits += rec.hits;
            state.misses += rec.misses;
            let stage_names: Vec<&str> = match event.get("stage_nanos") {
                Some(Value::Map(entries)) if entries.len() == 5 => {
                    for (stage, v) in entries {
                        if !matches!(v, Value::UInt(_)) {
                            return Err(format!("stage_nanos.{stage}: expected UInt, got {v:?}"));
                        }
                    }
                    entries.iter().map(|(k, _)| k.as_str()).collect()
                }
                other => return Err(format!("stage_nanos: expected 5-stage map, got {other:?}")),
            };
            match event.get("stage_shards") {
                None => {}
                Some(Value::Map(entries)) => {
                    for (stage, shards) in entries {
                        if !stage_names.contains(&stage.as_str()) {
                            return Err(format!("stage_shards: unknown stage {stage:?}"));
                        }
                        match shards {
                            Value::Seq(items) if !items.is_empty() => {
                                if items.iter().any(|v| !matches!(v, Value::UInt(_))) {
                                    return Err(format!(
                                        "stage_shards.{stage}: non-integer shard nanos"
                                    ));
                                }
                            }
                            other => {
                                return Err(format!(
                                    "stage_shards.{stage}: expected non-empty seq, got {other:?}"
                                ))
                            }
                        }
                    }
                }
                other => return Err(format!("stage_shards: expected map, got {other:?}")),
            }
        }
        "run_completed" => {
            if !state.started {
                return Err("run_completed before run_started".to_owned());
            }
            state.completed = true;
            let n = get_u64(event, "iterations")?;
            if Some(n) != state.claimed_iterations {
                return Err(format!(
                    "run_completed.iterations {n} != run_started.iterations {:?}",
                    state.claimed_iterations
                ));
            }
            if n != state.iteration_events {
                return Err(format!(
                    "run_completed.iterations {n} != {} iteration events",
                    state.iteration_events
                ));
            }
            get_u64(event, "elapsed_ns")?;
            state.completed_hit_rate = Some(match event.get("hit_rate") {
                Some(Value::Float(x)) => *x,
                Some(Value::UInt(n)) => *n as f64,
                other => return Err(format!("hit_rate: expected number, got {other:?}")),
            });
        }
        "fault_injected" => {
            if !state.started {
                return Err("fault_injected before run_started".to_owned());
            }
            state.faults_injected += 1;
            get_u64(event, "iteration")?;
            get_u64(event, "attempt")?;
            get_str(event, "stage")?;
            get_u64(event, "shard")?;
            let kind = get_str(event, "kind")?;
            const KINDS: [&str; 4] = [
                "stage_error",
                "worker_panic",
                "slow_shard",
                "corrupt_payload",
            ];
            if !KINDS.contains(&kind) {
                return Err(format!("fault_injected: unknown fault kind {kind:?}"));
            }
        }
        "iteration_rolled_back" => {
            if !state.started {
                return Err("iteration_rolled_back before run_started".to_owned());
            }
            state.rollbacks += 1;
            get_u64(event, "iteration")?;
            get_u64(event, "attempt")?;
            get_str(event, "cause")?;
        }
        "stage_retried" => {
            state.retries += 1;
            get_u64(event, "iteration")?;
            get_u64(event, "attempt")?;
            get_str(event, "schedule")?;
        }
        "schedule_degraded" => {
            state.degradations += 1;
            get_u64(event, "iteration")?;
            let from = get_str(event, "from")?;
            let to = get_str(event, "to")?;
            if from == to {
                return Err(format!("schedule_degraded: from == to ({from:?})"));
            }
        }
        "run_aborted" => {
            if !state.started {
                return Err("run_aborted before run_started".to_owned());
            }
            state.completed = true;
            state.aborted = true;
            state.aborted_committed = Some(get_u64(event, "committed")?);
            get_u64(event, "iteration")?;
            get_u64(event, "attempts")?;
            get_str(event, "schedule")?;
            get_str(event, "cause")?;
        }
        other => return Err(format!("unknown event kind {other:?}")),
    }
    Ok(())
}

fn check_file(path: &str, faults_mode: bool) -> Result<(), Vec<String>> {
    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) => return Err(vec![format!("cannot read: {e}")]),
    };
    let mut errors = Vec::new();
    let mut runs: HashMap<String, RunState> = HashMap::new();
    for (i, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event: Value = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(e) => {
                errors.push(format!("line {}: invalid JSON: {e}", i + 1));
                continue;
            }
        };
        if let Err(e) = check_line(&event, &mut runs) {
            errors.push(format!("line {}: {e}", i + 1));
        }
    }
    if runs.is_empty() {
        errors.push("no audit events found".to_owned());
    }
    for (run_id, state) in &runs {
        if !state.completed {
            errors.push(format!(
                "run {run_id}: missing terminal run_completed/run_aborted"
            ));
            continue;
        }
        if state.aborted {
            // An aborted run audits exactly the committed prefix.
            let committed = state.aborted_committed.unwrap_or(u64::MAX);
            if state.iteration_events != committed {
                errors.push(format!(
                    "run {run_id}: {} iteration events != run_aborted.committed {committed}",
                    state.iteration_events
                ));
            }
        } else {
            let recomputed = if state.hits + state.misses > 0 {
                state.hits as f64 / (state.hits + state.misses) as f64
            } else {
                0.0
            };
            let claimed = state.completed_hit_rate.unwrap_or(f64::NAN);
            if (recomputed - claimed).abs() > 1e-9 {
                errors.push(format!(
                    "run {run_id}: recomputed hit rate {recomputed} != claimed {claimed}"
                ));
            }
        }
        if state.aborted && state.rollbacks == 0 {
            // No supervisor: a plain run's error propagated.
            if state.aborted_committed != Some(0) {
                errors.push(format!(
                    "run {run_id}: aborted without a rollback, yet claims committed iterations"
                ));
            }
            continue;
        }
        // Every rollback must be answered by exactly one retry,
        // degradation or abort — the supervisor's decision invariant.
        let answered = state.retries + state.degradations + u64::from(state.aborted);
        if state.rollbacks != answered {
            errors.push(format!(
                "run {run_id}: {} rollbacks != {} retries + {} degradations + {} aborts",
                state.rollbacks,
                state.retries,
                state.degradations,
                u64::from(state.aborted)
            ));
        }
    }
    if faults_mode && !runs.is_empty() && runs.values().all(|s| s.faults_injected == 0) {
        errors.push("--faults: no fault_injected events in the file".to_owned());
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn main() -> ExitCode {
    let (flags, paths): (Vec<String>, Vec<String>) = std::env::args()
        .skip(1)
        .partition(|arg| arg.starts_with("--"));
    if paths.is_empty() || flags.iter().any(|flag| flag != "--faults") {
        eprintln!("usage: audit_check [--faults] <audit.jsonl> [more.jsonl ...]");
        return ExitCode::FAILURE;
    }
    let faults_mode = !flags.is_empty();
    let mut failed = false;
    for path in &paths {
        match check_file(path, faults_mode) {
            Ok(()) => println!("{path}: OK"),
            Err(errors) => {
                failed = true;
                eprintln!("{path}: {} violation(s)", errors.len());
                for e in &errors {
                    eprintln!("  {e}");
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
