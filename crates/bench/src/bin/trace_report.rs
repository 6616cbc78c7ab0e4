//! Critical-path profiler over a telemetry trace — answers "which stage
//! do I shard next?" from artifacts alone.
//!
//! Consumes the Chrome trace-event JSON written by
//! [`Telemetry::write_chrome_trace`] and prints, per run:
//!
//! * the wall-clock critical path (the run span) and total stage work;
//! * **overlap %** — how much concurrent stage work exceeded wall-clock
//!   (`0%` means no pipelining; `+80%` means stages ran 1.8× wall);
//! * a per-stage breakdown: self time, share of stage work, barrier
//!   stall time, shard-task count;
//! * the top-k slowest shard tasks (stage, iteration, worker, duration);
//! * a verdict naming the **dominant stage** — the one to shard or
//!   optimize next — with its share of total stage work.
//!
//! ```bash
//! cargo run --release -p sp-bench --bin telemetry_overhead -- --quick
//! cargo run --release -p sp-bench --bin trace_report -- TELEMETRY_trace.json
//! ```
//!
//! Exits non-zero on unreadable or structurally empty inputs; it never
//! fails on slow runs — it is a profiler, not a perf gate. (The trace
//! needs no reconciling against the audit stream: both are folds over the
//! run's one event log.)
//!
//! [`Telemetry::write_chrome_trace`]: scratchpipe::Telemetry::write_chrome_trace

use std::collections::BTreeMap;
use std::process::ExitCode;

use scratchpipe::StageId;
use serde::Value;

/// One duration span pulled out of the trace (`ph == "X"` events carry
/// their exact integer nanos in `args`; the float `ts`/`dur` fields are
/// only for the trace viewer).
struct Span {
    pid: u64,
    cat: String,
    name: String,
    stage: String,
    iteration: u64,
    worker: u64,
    dur_ns: u64,
}

#[derive(Default)]
struct StageStats {
    self_ns: u64,
    spans: u64,
    stall_ns: u64,
    stalls: u64,
    shard_tasks: u64,
    shard_busy_ns: u64,
}

#[derive(Default)]
struct RunReport {
    label: String,
    schedule: String,
    wall_ns: u64,
    iterations: u64,
    stages: BTreeMap<String, StageStats>,
    /// `(dur_ns, stage, iteration, worker)`, kept sorted, top-k only.
    slowest_shards: Vec<(u64, String, u64, u64)>,
}

fn get_str(v: &Value, key: &str) -> Option<String> {
    match v.get(key) {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    match v.get(key) {
        Some(Value::UInt(n)) => Some(*n),
        Some(Value::Int(n)) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

/// Position of stage `name` in pipeline order, for stable tables;
/// anything else sorts last.
fn stage_sort_key(name: &str) -> usize {
    StageId::from_name(name).map_or(StageId::COUNT, StageId::index)
}

fn parse_trace(body: &str, top_k: usize) -> Result<Vec<RunReport>, String> {
    let doc: Value = serde_json::from_str(body).map_err(|e| format!("invalid JSON: {e}"))?;
    let Some(Value::Seq(events)) = doc.get("traceEvents") else {
        return Err("traceEvents: expected a sequence".to_owned());
    };
    // pid -> (label, schedule) from the metadata events.
    let mut processes: BTreeMap<u64, (String, String)> = BTreeMap::new();
    let mut spans: Vec<Span> = Vec::new();
    for ev in events {
        let Some(ph) = get_str(ev, "ph") else {
            continue;
        };
        let Some(pid) = get_u64(ev, "pid") else {
            continue;
        };
        match ph.as_str() {
            "M" => {
                let Some(name) = get_str(ev, "name") else {
                    continue;
                };
                let arg = ev
                    .get("args")
                    .and_then(|a| get_str(a, "name"))
                    .unwrap_or_default();
                let entry = processes.entry(pid).or_default();
                match name.as_str() {
                    "process_name" => entry.0 = arg,
                    "process_labels" => entry.1 = arg,
                    _ => {}
                }
            }
            "X" => {
                let args = ev.get("args").cloned().unwrap_or(Value::Null);
                spans.push(Span {
                    pid,
                    cat: get_str(ev, "cat").unwrap_or_default(),
                    name: get_str(ev, "name").unwrap_or_default(),
                    stage: get_str(&args, "stage").unwrap_or_default(),
                    iteration: get_u64(&args, "iteration").unwrap_or(0),
                    worker: get_u64(&args, "worker").unwrap_or(0),
                    dur_ns: get_u64(&args, "dur_ns").unwrap_or(0),
                });
            }
            _ => {}
        }
    }
    if spans.is_empty() {
        return Err("no duration spans in the trace".to_owned());
    }

    let mut runs: BTreeMap<u64, RunReport> = BTreeMap::new();
    for span in &spans {
        let run = runs.entry(span.pid).or_default();
        match span.cat.as_str() {
            "run" => run.wall_ns = run.wall_ns.max(span.dur_ns),
            "iteration" => run.iterations += 1,
            "stage" => {
                let st = run.stages.entry(span.stage.clone()).or_default();
                st.self_ns += span.dur_ns;
                st.spans += 1;
            }
            "stall" => {
                // Stall spans carry the *waiting* stage in args.stage.
                let st = run.stages.entry(span.stage.clone()).or_default();
                st.stall_ns += span.dur_ns;
                st.stalls += 1;
            }
            "shard" => {
                let st = run.stages.entry(span.stage.clone()).or_default();
                st.shard_tasks += 1;
                st.shard_busy_ns += span.dur_ns;
                run.slowest_shards.push((
                    span.dur_ns,
                    span.stage.clone(),
                    span.iteration,
                    span.worker,
                ));
                run.slowest_shards.sort_by_key(|s| std::cmp::Reverse(s.0));
                run.slowest_shards.truncate(top_k);
            }
            _ => {
                let _ = &span.name;
            }
        }
    }
    for (pid, run) in &mut runs {
        if let Some((label, schedule)) = processes.get(pid) {
            run.label = label.clone();
            run.schedule = schedule.clone();
        }
        if run.label.is_empty() {
            run.label = format!("run-{pid}");
        }
    }
    Ok(runs.into_values().collect())
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn print_run(run: &RunReport) {
    println!("run {:?} (schedule {})", run.label, run.schedule);
    let stage_work: u64 = run.stages.values().map(|s| s.self_ns).sum();
    let overlap_pct = if run.wall_ns > 0 {
        (stage_work as f64 / run.wall_ns as f64 - 1.0) * 100.0
    } else {
        0.0
    };
    println!(
        "  wall {:.2} ms over {} iterations; stage work {:.2} ms; overlap {:+.1}%",
        ms(run.wall_ns),
        run.iterations,
        ms(stage_work),
        overlap_pct.max(-100.0)
    );
    println!(
        "  {:<10} {:>12} {:>7} {:>12} {:>8} {:>12}",
        "stage", "self ms", "share", "stall ms", "shards", "shard ms"
    );
    let mut stages: Vec<(&String, &StageStats)> = run.stages.iter().collect();
    stages.sort_by_key(|(name, _)| stage_sort_key(name));
    for (name, st) in &stages {
        let share = if stage_work > 0 {
            st.self_ns as f64 / stage_work as f64 * 100.0
        } else {
            0.0
        };
        println!(
            "  {:<10} {:>12.3} {:>6.1}% {:>12.3} {:>8} {:>12.3}",
            name,
            ms(st.self_ns),
            share,
            ms(st.stall_ns),
            st.shard_tasks,
            ms(st.shard_busy_ns)
        );
    }
    for (dur, stage, iteration, worker) in &run.slowest_shards {
        println!(
            "  slow shard: {stage} iter {iteration} worker {worker}  {:.3} ms",
            ms(*dur)
        );
    }
    // The verdict: where does the next unit of optimization effort go?
    if let Some((name, st)) = stages.iter().max_by_key(|(_, s)| s.self_ns) {
        let share = if stage_work > 0 {
            st.self_ns as f64 / stage_work as f64 * 100.0
        } else {
            0.0
        };
        let advice = if !StageId::from_name(name).is_some_and(StageId::shards) {
            "not yet sharded - add data parallelism to it next"
        } else if st.shard_tasks == 0 {
            // [Plan] records its table shards only when they fan out.
            "sharded, but ran inline here (batches under its fan-out floor, or lanes)"
        } else {
            "already sharded - widen the pool or split its shards finer"
        };
        println!(
            "  dominant stage: {name} ({share:.1}% of stage work, overlap {:+.1}%) - {advice}",
            overlap_pct.max(-100.0)
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_path = None;
    let mut top_k = 5usize;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => match it.next().and_then(|v| v.parse().ok()) {
                Some(k) => top_k = k,
                None => {
                    eprintln!("--top needs a count");
                    return ExitCode::FAILURE;
                }
            },
            _ if trace_path.is_none() => trace_path = Some(arg),
            other => {
                eprintln!("unexpected argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(trace_path) = trace_path else {
        eprintln!("usage: trace_report <trace.json> [--top K]");
        return ExitCode::FAILURE;
    };
    let body = match std::fs::read_to_string(&trace_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{trace_path}: cannot read: {e}");
            return ExitCode::FAILURE;
        }
    };
    let runs = match parse_trace(&body, top_k) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for run in &runs {
        print_run(run);
    }
    ExitCode::SUCCESS
}
