//! The repo's benchmark harness. Three ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]`
//!   — one pass over one workload; the last stdout line is the result
//!   object `BENCHMARK.json`'s contract describes.
//! * `suite [--seed n] [--seconds s] [--runs k] [--smoke] [--out file]`
//!   — every workload: `k` end-to-end runs on seeds `n..n+k` plus one
//!   traced run, each in a child process of its own (so peak RSS is per
//!   run), written to a result file with a host envelope.
//! * `compare A.json B.json` — holds two result files against the
//!   bounds in `BENCHMARK.json`.
//!
//! See `README.md` beside this crate for the metric catalogue.

mod probes;
mod replay;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use report::{ChildRun, Host, MetricRuns, MetricValue, SuiteResult, WorkloadResult};
use run::Options;
use workloads::WORKLOADS;

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 20_220_618;
/// `run_seconds` of `BENCHMARK.json`, used when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 10.0;
/// End-to-end runs per workload in `suite` when `--runs` is absent.
const DEFAULT_RUNS: usize = 10;
/// Where traces and suite results land (gitignored).
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--smoke]
  benchmark suite [--seed <u64>] [--seconds <s>] [--runs <k>] [--smoke] [--out <file>]
  benchmark compare <A.json> <B.json>";

/// `--flag value` pairs and bare `--smoke`, after any subcommand word.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    runs: Option<usize>,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--smoke" {
            flags.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
        let bad = |what: &str| format!("{arg}: `{value}` is not {what}");
        match arg.as_str() {
            "--workload" => flags.workload = Some(value.clone()),
            "--seed" => flags.seed = Some(value.parse().map_err(|_| bad("a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a non-negative number"));
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                flags.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--runs" => {
                let k: usize = value.parse().map_err(|_| bad("a count"))?;
                if k == 0 {
                    return Err(bad("at least 1"));
                }
                flags.runs = Some(k);
            }
            "--out" => flags.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {arg}")),
        }
    }
    Ok(flags)
}

/// One pass over one workload, contract output.
fn run_one(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.workload.as_deref().ok_or("--workload is required")?;
    let workload = workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let opts = Options {
        seed: flags.seed.unwrap_or(DEFAULT_SEED),
        seconds: flags.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: flags.trace.unwrap_or(false),
        smoke: flags.smoke,
    };
    let outcome = run::run(workload, opts)?;
    if let Some(spans) = &outcome.spans_json {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = Path::new(OUT_DIR).join(format!("trace-{name}.json"));
        std::fs::write(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", report::info_line(name, &outcome));
    println!("{}", report::result_line(&outcome));
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// First stdout line of `program args`, or "unknown".
fn probe_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Runs this binary on one workload in a child process and parses its
/// trailing lines. The child's stderr passes through.
fn child_run(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    // `output()` waits for the child, so none outlives the suite.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    report::parse_child(&stdout)
        .map_err(|e| format!("{name} seed {seed}: {e} (exit {})", output.status))
}

fn suite(flags: &Flags) -> Result<ExitCode, String> {
    let host = Host {
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        rustc: probe_version("rustc", &["--version"]),
        git_commit: probe_version("git", &["rev-parse", "HEAD"]),
        seed: flags.seed.unwrap_or(DEFAULT_SEED),
        // Smoke means no repetitions: one run per workload.
        runs: if flags.smoke {
            1
        } else {
            flags.runs.unwrap_or(DEFAULT_RUNS)
        },
        seconds: flags.seconds.unwrap_or(DEFAULT_SECONDS),
        smoke: flags.smoke,
    };
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        let mut result = WorkloadResult {
            name: w.name.to_owned(),
            schedule: String::new(),
            pool_width: 0,
            repetitions: Vec::new(),
            attempted: 0,
            failed: 0,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        };
        for k in 0..host.runs {
            eprintln!("suite: {} run {}/{}", w.name, k + 1, host.runs);
            let child = child_run(
                w.name,
                host.seed + k as u64,
                host.seconds,
                false,
                host.smoke,
            )?;
            all_correct &= child.correct;
            result.attempted += child.attempted;
            result.failed += child.failed;
            result.repetitions.push(child.repetitions);
            result.schedule = child.schedule;
            result.pool_width = child.pool_width;
            for (name, unit, value) in child.metrics {
                match result.end_to_end.iter_mut().find(|m| m.name == name) {
                    Some(m) => m.values.push(value),
                    None => result.end_to_end.push(MetricRuns {
                        name,
                        unit,
                        values: vec![value],
                    }),
                }
            }
        }
        eprintln!("suite: {} traced run", w.name);
        let traced = child_run(w.name, host.seed, host.seconds, true, host.smoke)?;
        all_correct &= traced.correct;
        result.attempted += traced.attempted;
        result.failed += traced.failed;
        result.per_layer = traced
            .metrics
            .into_iter()
            .map(|(name, unit, value)| MetricValue { name, unit, value })
            .collect();
        workloads.push(result);
    }
    let result = SuiteResult { host, workloads };
    print!("{}", report::render_suite(&result));
    let out = flags
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join("result.json"));
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string(&result).map_err(|e| e.to_string())?;
    std::fs::write(&out, text).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("\nresult file: {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn read_result(path: &str) -> Result<SuiteResult, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes exactly two result files".to_owned());
    };
    let contract = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let bounds = report::parse_bounds(&contract)?;
    let (table, flagged) = report::render_compare(&read_result(a)?, &read_result(b)?, &bounds);
    print!("{table}");
    Ok(if flagged {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("suite") => parse_flags(&args[1..]).and_then(|f| suite(&f)),
        Some("compare") => compare(&args[1..]),
        Some(_) => parse_flags(&args).and_then(|f| run_one(&f)),
        None => Err(USAGE.to_owned()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let f = parse_flags(&strings(&[
            "--workload",
            "plan_bound",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(f.workload.as_deref(), Some("plan_bound"));
        assert_eq!(
            (f.seed, f.seconds, f.trace),
            (Some(7), Some(10.0), Some(true))
        );
        assert!(!f.smoke);
        assert!(parse_flags(&strings(&["--trace", "2"])).is_err());
        assert!(parse_flags(&strings(&["--seed"])).is_err());
        assert!(parse_flags(&strings(&["--seconds", "-1"])).is_err());
        assert!(parse_flags(&strings(&["--bogus", "1"])).is_err());
    }

    /// `BENCHMARK.json` and the harness must name the same workloads and
    /// metrics with the same units — the file is the contract, the
    /// catalogues in `run.rs` are what actually gets printed.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = serde_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str, sub: &str| -> Vec<String> {
            match doc.get(key) {
                Some(Value::Seq(items)) => items
                    .iter()
                    .map(|i| match i.get(sub) {
                        Some(Value::Str(s)) => s.clone(),
                        other => panic!("{key}.{sub}: {other:?}"),
                    })
                    .collect(),
                other => panic!("{key}: {other:?}"),
            }
        };
        let workload_names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads", "name"), workload_names);
        let pairs = |key: &str| -> Vec<(String, String)> {
            names(key, "name")
                .into_iter()
                .zip(names(key, "unit"))
                .collect()
        };
        let own = |cat: &[(&str, &str)]| -> Vec<(String, String)> {
            cat.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), own(&run::END_TO_END));
        assert_eq!(pairs("per_layer"), own(run::PER_LAYER));
        assert_eq!(
            doc.get("run_seconds"),
            Some(&Value::UInt(DEFAULT_SECONDS as u64))
        );
        let bounds = report::parse_bounds(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }
}
