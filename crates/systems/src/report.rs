//! The [`TrainingSystem`] interface and its [`SystemReport`] output.

use embeddings::SparseBatch;
use memsim::pipeline::{PipelineSim, Resource, StageDef, StageTimes};
use memsim::{EnergyReport, PowerModel, SimTime};
use scratchpipe::{Schedule, ScratchError, StageId};
use serde::Serialize;

/// Errors from system simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemError {
    /// Error from the ScratchPipe runtime.
    Scratch(ScratchError),
    /// Workload/system shape inconsistency.
    Shape(String),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::Scratch(e) => write!(f, "scratchpipe runtime: {e}"),
            SystemError::Shape(s) => write!(f, "shape error: {s}"),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<ScratchError> for SystemError {
    fn from(e: ScratchError) -> Self {
        SystemError::Scratch(e)
    }
}

/// A simulated RecSys training system.
pub trait TrainingSystem {
    /// Display name of the design point (e.g. `"ScratchPipe"`).
    fn name(&self) -> &'static str;

    /// Simulates training over `batches`, returning timing/energy/cache
    /// statistics.
    ///
    /// # Errors
    ///
    /// Returns a [`SystemError`] on shape mismatches or runtime failures
    /// (e.g. scratchpad capacity exhaustion).
    fn simulate(&mut self, batches: &[SparseBatch]) -> Result<SystemReport, SystemError>;
}

/// Timing, energy and cache statistics of one simulated run.
#[derive(Debug, Clone, Serialize)]
pub struct SystemReport {
    /// System display name.
    pub system: String,
    /// Number of mini-batches simulated.
    pub iterations: usize,
    /// Stage names, in execution order.
    pub stage_names: Vec<String>,
    /// The hardware resource each stage occupies.
    pub stage_resources: Vec<Resource>,
    /// Per-iteration per-stage latencies.
    pub stage_times: Vec<Vec<SimTime>>,
    /// Steady-state time per training iteration (the paper's "Iter. Time").
    pub iteration_time: SimTime,
    /// End-to-end wall clock of the simulated run.
    pub makespan: SimTime,
    /// Energy per iteration at steady state.
    pub energy_per_iteration: EnergyReport,
    /// Cache hit rate, where the system has a cache.
    pub hit_rate: Option<f64>,
    /// Steady-state mean latency per stage (same order as `stage_names`).
    pub breakdown: Vec<(String, SimTime)>,
    /// Iterations skipped (cold cache) when averaging steady-state values.
    pub steady_skip: usize,
}

impl SystemReport {
    /// Builds a report for a system whose stages run **sequentially**
    /// within each iteration (the paper's baselines and straw-man):
    /// iteration time is the sum of its stage times.
    pub(crate) fn from_sequential_stages(
        system: impl Into<String>,
        stage_names: Vec<String>,
        stage_resources: Vec<Resource>,
        stage_times: Vec<Vec<SimTime>>,
        power: &PowerModel,
        steady_skip: usize,
    ) -> Self {
        assert_eq!(stage_names.len(), stage_resources.len());
        let iterations = stage_times.len();
        let totals: Vec<SimTime> = stage_times
            .iter()
            .map(|t| t.iter().copied().sum())
            .collect();
        let makespan: SimTime = totals.iter().copied().sum();
        let skip = steady_skip.min(iterations.saturating_sub(1));
        let tail = &totals[skip..];
        let iteration_time = if tail.is_empty() {
            SimTime::ZERO
        } else {
            tail.iter().copied().sum::<SimTime>() / tail.len() as f64
        };
        let breakdown = steady_breakdown(&stage_names, &stage_times, skip);
        let (cpu_busy, gpu_busy) = steady_busy(&stage_resources, &breakdown);
        let energy_per_iteration = power.energy(iteration_time, cpu_busy, gpu_busy);
        SystemReport {
            system: system.into(),
            iterations,
            stage_names,
            stage_resources,
            stage_times,
            iteration_time,
            makespan,
            energy_per_iteration,
            hit_rate: None,
            breakdown,
            steady_skip: skip,
        }
    }

    /// Builds a report for a system whose five stages are **pipelined**
    /// across iterations (ScratchPipe): iteration time is the steady-state
    /// initiation interval under resource contention, on the runtime's
    /// dependency graph ([`Schedule::edges`]). Panics on another count.
    pub fn from_pipelined_stages(
        system: impl Into<String>,
        stage_names: Vec<String>,
        stage_resources: Vec<Resource>,
        stage_times: Vec<Vec<SimTime>>,
        power: &PowerModel,
        steady_skip: usize,
    ) -> Self {
        assert_eq!(stage_names.len(), stage_resources.len());
        let iterations = stage_times.len();
        let sched = pipelined_schedule(&stage_resources, &stage_times);
        let iteration_time = if iterations == 0 {
            SimTime::ZERO
        } else {
            sched.steady_state_iteration_time()
        };
        let skip = steady_skip.min(iterations.saturating_sub(1));
        let breakdown = steady_breakdown(&stage_names, &stage_times, skip);
        // Busy time per iteration from the schedule's aggregate residency.
        let n = iterations.max(1) as f64;
        let cpu_busy = (sched.resource_busy[Resource::CpuMem.index()]
            + sched.resource_busy[Resource::Host.index()])
            / n;
        let gpu_busy = sched.resource_busy[Resource::Gpu.index()] / n;
        let energy_per_iteration = power.energy(iteration_time, cpu_busy, gpu_busy);
        SystemReport {
            system: system.into(),
            iterations,
            stage_names,
            stage_resources,
            stage_times,
            iteration_time,
            makespan: sched.makespan,
            energy_per_iteration,
            hit_rate: None,
            breakdown,
            steady_skip: skip,
        }
    }

    /// Speedup of `self` over `other` (>1 means `self` is faster).
    pub fn speedup_over(&self, other: &SystemReport) -> f64 {
        other.iteration_time / self.iteration_time
    }

    /// Sums the steady-state breakdown over named stage groups — e.g. the
    /// paper's Figure 5 grouping into
    /// `{CPU embedding forward, CPU embedding backward, GPU}`.
    ///
    /// # Panics
    ///
    /// Panics if a stage index is out of range.
    pub fn grouped_breakdown(&self, groups: &[(&str, &[usize])]) -> Vec<(String, SimTime)> {
        groups
            .iter()
            .map(|(name, idxs)| {
                let sum = idxs.iter().map(|&i| self.breakdown[i].1).sum();
                ((*name).to_owned(), sum)
            })
            .collect()
    }
}

/// The schedule [`SystemReport::from_pipelined_stages`] reports on.
fn pipelined_schedule(
    resources: &[Resource],
    times: &[Vec<SimTime>],
) -> memsim::pipeline::Schedule {
    assert_eq!(resources.len(), StageId::COUNT, "one resource per stage");
    let defs = (StageId::ALL.iter().zip(resources))
        .map(|(s, &r)| StageDef::new(s.name(), r))
        .collect();
    let iters: Vec<StageTimes> = times.iter().map(|t| StageTimes(t.clone())).collect();
    PipelineSim::new(defs, Schedule::Sync.edges()).schedule(&iters)
}

fn steady_breakdown(
    stage_names: &[String],
    stage_times: &[Vec<SimTime>],
    skip: usize,
) -> Vec<(String, SimTime)> {
    let tail = &stage_times[skip.min(stage_times.len())..];
    stage_names
        .iter()
        .enumerate()
        .map(|(s, name)| {
            let mean = if tail.is_empty() {
                SimTime::ZERO
            } else {
                tail.iter().map(|t| t[s]).sum::<SimTime>() / tail.len() as f64
            };
            (name.clone(), mean)
        })
        .collect()
}

fn steady_busy(resources: &[Resource], breakdown: &[(String, SimTime)]) -> (SimTime, SimTime) {
    let mut cpu = SimTime::ZERO;
    let mut gpu = SimTime::ZERO;
    for (r, (_, t)) in resources.iter().zip(breakdown) {
        match r {
            Resource::CpuMem | Resource::Host => cpu += *t,
            Resource::Gpu => gpu += *t,
            _ => {}
        }
    }
    (cpu, gpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: f64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn sequential_report_sums_stages() {
        let power = PowerModel::isca_paper();
        let r = SystemReport::from_sequential_stages(
            "test",
            names(&["a", "b"]),
            vec![Resource::CpuMem, Resource::Gpu],
            vec![vec![ms(10.0), ms(5.0)]; 4],
            &power,
            0,
        );
        assert!((r.iteration_time.as_millis() - 15.0).abs() < 1e-9);
        assert!((r.makespan.as_millis() - 60.0).abs() < 1e-9);
        assert_eq!(r.breakdown.len(), 2);
        assert!((r.breakdown[0].1.as_millis() - 10.0).abs() < 1e-9);
        assert!(r.energy_per_iteration.total_joules() > 0.0);
    }

    #[test]
    fn pipelined_report_overlaps_stages() {
        let power = PowerModel::isca_paper();
        let stage_names = StageId::ALL.map(|s| s.name().to_owned()).to_vec();
        let stage_resources = StageId::ALL.map(StageId::resource).to_vec();
        // Plan and Train share the GPU (11 ms), Collect and Insert the CPU.
        let stage_times = vec![vec![ms(1.0), ms(4.0), ms(2.0), ms(4.0), ms(10.0)]; 60];
        let seq = SystemReport::from_sequential_stages(
            "seq",
            stage_names.clone(),
            stage_resources.clone(),
            stage_times.clone(),
            &power,
            5,
        );
        let pipe = SystemReport::from_pipelined_stages(
            "pipe",
            stage_names,
            stage_resources,
            stage_times,
            &power,
            5,
        );
        assert!((seq.iteration_time.as_millis() - 21.0).abs() < 1e-6);
        assert!((pipe.iteration_time.as_millis() - 11.0).abs() < 0.5);
        assert!((pipe.speedup_over(&seq) - 21.0 / 11.0).abs() < 0.1);
    }

    /// Every slot of the schedule behind a paper-scale ScratchPipe report
    /// starts after every stage instance the runtime's graph makes it wait
    /// for has finished.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper scale: run with --release")]
    fn pipelined_schedules_obey_the_runtimes_graph() {
        use crate::runner::{run_system, ExperimentConfig, SystemKind};
        use tracegen::LocalityProfile;

        let edges = Schedule::Sync.edges();
        let profiles = [
            LocalityProfile::Random,
            LocalityProfile::Low,
            LocalityProfile::Medium,
            LocalityProfile::High,
        ];
        for profile in profiles {
            for fraction in [0.02, 0.10] {
                let cfg = ExperimentConfig::paper(profile, fraction, 40);
                let report = run_system(SystemKind::ScratchPipe, &cfg).expect("simulate");
                let sched = pipelined_schedule(&report.stage_resources, &report.stage_times);
                let names = &report.stage_names;
                assert_eq!(sched.makespan, report.makespan);
                let mut finish = vec![[SimTime::ZERO; StageId::COUNT]; report.iterations];
                for slot in &sched.slots {
                    finish[slot.iteration][slot.stage] = slot.finish;
                }
                for slot in &sched.slots {
                    let (i, s) = (slot.iteration, slot.stage);
                    for e in edges.iter().filter(|e| e.waiter == s && i >= e.lag) {
                        let watched = finish[i - e.lag][e.watched];
                        assert!(
                            slot.start >= watched,
                            "{profile:?} {fraction}: {}({i}) starts at {} before {}({}) \
                             finishes at {watched}",
                            names[s],
                            slot.start,
                            names[e.watched],
                            i - e.lag,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn steady_skip_excludes_cold_start() {
        let power = PowerModel::isca_paper();
        let mut times = vec![vec![ms(100.0)]; 2];
        times.extend(vec![vec![ms(10.0)]; 8]);
        let r = SystemReport::from_sequential_stages(
            "t",
            names(&["a"]),
            vec![Resource::CpuMem],
            times,
            &power,
            2,
        );
        assert!((r.iteration_time.as_millis() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn grouped_breakdown_sums_indices() {
        let power = PowerModel::isca_paper();
        let r = SystemReport::from_sequential_stages(
            "t",
            names(&["a", "b", "c"]),
            vec![Resource::CpuMem, Resource::Gpu, Resource::CpuMem],
            vec![vec![ms(1.0), ms(2.0), ms(3.0)]; 3],
            &power,
            0,
        );
        let g = r.grouped_breakdown(&[("cpu", &[0, 2]), ("gpu", &[1])]);
        assert!((g[0].1.as_millis() - 4.0).abs() < 1e-9);
        assert!((g[1].1.as_millis() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_run_is_handled() {
        let power = PowerModel::isca_paper();
        let r = SystemReport::from_sequential_stages(
            "t",
            names(&["a"]),
            vec![Resource::CpuMem],
            vec![],
            &power,
            0,
        );
        assert_eq!(r.iterations, 0);
        assert_eq!(r.iteration_time, SimTime::ZERO);
    }

    #[test]
    fn system_error_display() {
        let e = SystemError::Shape("bad".to_owned());
        assert!(e.to_string().contains("bad"));
        let e: SystemError = ScratchError::InvalidConfig {
            detail: "x".to_owned(),
        }
        .into();
        assert!(e.to_string().contains("scratchpipe"));
    }
}
