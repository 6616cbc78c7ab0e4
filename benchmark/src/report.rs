//! Result files: what `suite` writes and `compare` reads, the contract's
//! one-line result, and `BENCHMARK.json`'s bounds.

use serde::{Deserialize, Serialize, Value};

use crate::run::{unit_of, Outcome};
use crate::stats::{median, quartiles, verdict, worsening, Better, Verdict};

/// Where and how a result file was produced. `BENCH_pipeline.json`'s
/// stale `cpus: 1` is the cautionary tale: a number without its host is
/// not comparable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `rustc --version`, or "unknown".
    pub rustc: String,
    /// `git rev-parse HEAD`, or "unknown" outside a git checkout.
    pub git_commit: String,
    /// First seed; run `k` of a workload uses `seed + k`.
    pub seed: u64,
    /// End-to-end runs (child processes) per workload.
    pub runs: usize,
    /// `--seconds` handed to every run.
    pub seconds: f64,
    /// Whether `--smoke` was on.
    pub smoke: bool,
}

/// One metric's value from each run of a workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricRuns {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// One value per run, in seed order.
    pub values: Vec<f64>,
}

/// One per-layer metric from the traced run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value.
    pub value: f64,
}

/// Everything measured for one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Schedule the timed call resolved to on this host.
    pub schedule: String,
    /// Worker-pool width under that schedule.
    pub pool_width: usize,
    /// Timed repetitions inside each run (the n behind each median).
    pub repetitions: Vec<usize>,
    /// Verified runs attempted, over all runs.
    pub attempted: u64,
    /// Runs that errored or failed verification.
    pub failed: u64,
    /// End-to-end metrics, one value per run.
    pub end_to_end: Vec<MetricRuns>,
    /// Per-layer metrics of the traced run.
    pub per_layer: Vec<MetricValue>,
}

/// A `suite` result file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteResult {
    /// Host envelope.
    pub host: Host,
    /// One entry per workload, in report order.
    pub workloads: Vec<WorkloadResult>,
}

fn metrics_value(metrics: &[(&'static str, f64)]) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|&(name, value)| {
                let unit = unit_of(name).expect("metric is in a catalogue");
                let entry = Value::Map(vec![
                    ("value".to_owned(), Value::Float(value)),
                    ("unit".to_owned(), Value::Str(unit.to_owned())),
                ]);
                (name.to_owned(), entry)
            })
            .collect(),
    )
}

/// The contract's result object: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let doc = Value::Map(vec![
        ("correct".to_owned(), Value::Bool(outcome.correct)),
        ("attempted".to_owned(), Value::UInt(outcome.attempted)),
        ("failed".to_owned(), Value::UInt(outcome.failed)),
        ("metrics".to_owned(), metrics_value(&outcome.metrics)),
    ]);
    serde_json::to_string(&doc).expect("metrics are finite")
}

/// The line printed just before the result: how the run resolved on
/// this host. `suite` folds it into the host envelope.
pub fn info_line(workload: &str, outcome: &Outcome) -> String {
    let doc = Value::Map(vec![
        ("workload".to_owned(), Value::Str(workload.to_owned())),
        ("schedule".to_owned(), Value::Str(outcome.schedule.clone())),
        (
            "pool_width".to_owned(),
            Value::UInt(outcome.pool_width as u64),
        ),
        (
            "repetitions".to_owned(),
            Value::UInt(outcome.repetitions as u64),
        ),
    ]);
    serde_json::to_string(&doc).expect("no floats")
}

/// A child run's two trailing stdout lines, parsed back.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildRun {
    /// Resolved schedule.
    pub schedule: String,
    /// Pool width.
    pub pool_width: usize,
    /// Timed repetitions.
    pub repetitions: usize,
    /// `correct` of the result line.
    pub correct: bool,
    /// `attempted` of the result line.
    pub attempted: u64,
    /// `failed` of the result line.
    pub failed: u64,
    /// `(name, unit, value)` in printed order.
    pub metrics: Vec<(String, String, f64)>,
}

fn field<T: Deserialize>(doc: &Value, key: &str) -> Result<T, String> {
    let v = doc.get(key).ok_or_else(|| format!("missing `{key}`"))?;
    T::from_value(v).map_err(|e| format!("`{key}`: {e}"))
}

/// Parses the info and result lines a single-workload run prints last.
pub fn parse_child(stdout: &str) -> Result<ChildRun, String> {
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let result = lines.next().ok_or("no result line")?;
    let info = lines.next().ok_or("no info line")?;
    let result = serde_json::parse(result).map_err(|e| e.to_string())?;
    let info = serde_json::parse(info).map_err(|e| e.to_string())?;
    let Some(Value::Map(entries)) = result.get("metrics") else {
        return Err("missing `metrics`".to_owned());
    };
    let metrics = entries
        .iter()
        .map(|(name, entry)| Ok((name.clone(), field(entry, "unit")?, field(entry, "value")?)))
        .collect::<Result<_, String>>()?;
    Ok(ChildRun {
        schedule: field(&info, "schedule")?,
        pool_width: field(&info, "pool_width")?,
        repetitions: field(&info, "repetitions")?,
        correct: field(&result, "correct")?,
        attempted: field(&result, "attempted")?,
        failed: field(&result, "failed")?,
        metrics,
    })
}

/// One end-to-end metric's contract from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds out of `BENCHMARK.json` text.
pub fn parse_bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = serde_json::parse(benchmark_json).map_err(|e| e.to_string())?;
    let Some(Value::Seq(items)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no `end_to_end` list".to_owned());
    };
    items
        .iter()
        .map(|item| {
            let better: String = field(item, "better")?;
            Ok(Bound {
                name: field(item, "name")?,
                better: Better::parse(&better).ok_or_else(|| format!("better: {better}"))?,
                bound: field(item, "bound")?,
            })
        })
        .collect()
}

/// Renders `suite`'s summary: every metric by name with its unit.
pub fn render_suite(result: &SuiteResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let h = &result.host;
    let _ = writeln!(
        out,
        "host: nproc={} rustc=\"{}\" commit={} seed={} runs={} seconds={} smoke={}",
        h.nproc, h.rustc, h.git_commit, h.seed, h.runs, h.seconds, h.smoke
    );
    for w in &result.workloads {
        let _ = writeln!(
            out,
            "\n== {} (schedule {}, pool width {}, repetitions per run {:?}, failed {}/{})",
            w.name, w.schedule, w.pool_width, w.repetitions, w.failed, w.attempted
        );
        for m in &w.end_to_end {
            let (q1, _, q3) = quartiles(&m.values);
            let _ = writeln!(
                out,
                "  {:<36} {:>16.4} {:<10} [q1 {:.4}, q3 {:.4}, n={}]",
                m.name,
                median(&m.values),
                m.unit,
                q1,
                q3,
                m.values.len()
            );
        }
        for m in &w.per_layer {
            let _ = writeln!(out, "  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
    out
}

/// Renders `compare A B`: one row per workload × end-to-end metric.
/// Returns the table and whether any row is `regressed` or `unresolved`.
pub fn render_compare(a: &SuiteResult, b: &SuiteResult, bounds: &[Bound]) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut flagged = false;
    let _ = writeln!(
        out,
        "{:<15} {:<22} {:>14} {:>25} {:>14} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "change", "bound"
    );
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            let _ = writeln!(out, "{:<15} missing from B", wa.name);
            flagged = true;
            continue;
        };
        for bound in bounds {
            let find = |w: &WorkloadResult| {
                w.end_to_end
                    .iter()
                    .find(|m| m.name == bound.name)
                    .map(|m| m.values.clone())
            };
            let (Some(va), Some(vb)) = (find(wa), find(wb)) else {
                let _ = writeln!(out, "{:<15} {:<22} missing", wa.name, bound.name);
                flagged = true;
                continue;
            };
            let v = verdict(&va, &vb, bound.better, bound.bound);
            flagged |= v != Verdict::Ok;
            let (a1, _, a3) = quartiles(&va);
            let (b1, _, b3) = quartiles(&vb);
            let _ = writeln!(
                out,
                "{:<15} {:<22} {:>14.4} {:>25} {:>14.4} {:>25} {:>+7.2}% {:>5.1}%  {}",
                wa.name,
                bound.name,
                median(&va),
                format!("[{a1:.4}, {a3:.4}]"),
                median(&vb),
                format!("[{b1:.4}, {b3:.4}]"),
                100.0 * worsening(median(&va), median(&vb), bound.better),
                100.0 * bound.bound,
                v.name()
            );
        }
    }
    let _ = writeln!(
        out,
        "(change = share by which B's median is worse than A's; negative is better)"
    );
    (out, flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SuiteResult {
        SuiteResult {
            host: Host {
                nproc: 2,
                rustc: "rustc 1.0".to_owned(),
                git_commit: "unknown".to_owned(),
                seed: 42,
                runs: 3,
                seconds: 10.0,
                smoke: false,
            },
            workloads: vec![WorkloadResult {
                name: "plan_bound".to_owned(),
                schedule: "sync".to_owned(),
                pool_width: 1,
                repetitions: vec![4, 4, 5],
                attempted: 13,
                failed: 0,
                end_to_end: vec![MetricRuns {
                    name: "train_samples_per_s".to_owned(),
                    unit: "samples/s".to_owned(),
                    values: vec![100.0, 101.5, 100.0 + 0.1 + 0.2],
                }],
                per_layer: vec![MetricValue {
                    name: "index.get_ns".to_owned(),
                    unit: "ns".to_owned(),
                    value: 3.25,
                }],
            }],
        }
    }

    #[test]
    fn result_file_round_trips_through_serde_json() {
        let result = sample();
        let text = serde_json::to_string(&result).unwrap();
        let back: SuiteResult = serde_json::from_str(&text).unwrap();
        assert_eq!(back, result);
        // All digits survive the text form.
        let v = back.workloads[0].end_to_end[0].values[2];
        assert_eq!(v.to_bits(), (100.0f64 + 0.1 + 0.2).to_bits());
    }

    #[test]
    fn child_lines_round_trip() {
        let outcome = Outcome {
            correct: true,
            attempted: 4,
            failed: 0,
            metrics: vec![("setup_s", 0.8127), ("sim_iter_us", 1234.5)],
            schedule: "data_parallel".to_owned(),
            pool_width: 2,
            repetitions: 4,
            spans_json: None,
        };
        let stdout = format!(
            "noise\n{}\n{}\n",
            info_line("default_auto", &outcome),
            result_line(&outcome)
        );
        let child = parse_child(&stdout).unwrap();
        assert_eq!(child.schedule, "data_parallel");
        assert_eq!((child.pool_width, child.repetitions), (2, 4));
        assert!(child.correct);
        assert_eq!((child.attempted, child.failed), (4, 0));
        assert_eq!(
            child.metrics,
            vec![
                ("setup_s".to_owned(), "s".to_owned(), 0.8127),
                ("sim_iter_us".to_owned(), "us".to_owned(), 1234.5)
            ]
        );
        // The result line carries exactly the contract's four keys.
        match serde_json::parse(&result_line(&outcome)).unwrap() {
            Value::Map(entries) => {
                let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn compare_flags_regressions_only() {
        let bounds = parse_bounds(
            r#"{"end_to_end":[{"name":"train_samples_per_s","unit":"samples/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let a = sample();
        let (table, flagged) = render_compare(&a, &a, &bounds);
        assert!(!flagged && table.contains(" ok"), "{table}");
        let mut slower = sample();
        slower.workloads[0].end_to_end[0].values = vec![50.0, 50.5, 50.2];
        let (table, flagged) = render_compare(&a, &slower, &bounds);
        assert!(flagged && table.contains("regressed"), "{table}");
    }
}
