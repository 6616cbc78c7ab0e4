//! The [`TrainingSystem`] interface and its [`SystemReport`] output.

use embeddings::SparseBatch;
use memsim::pipeline::{PipelineSim, Resource, StageDef, StageTimes};
use memsim::{Edge, EnergyReport, PowerModel, SimTime};
use scratchpipe::{Schedule, ScratchError};
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
}

impl SystemReport {
    /// Builds a report by scheduling `stage_times` on the dependency graph
    /// `edges` (see [`memsim::PipelineSim`]): a design point whose stages
    /// run one after another states [`Edge::line`] with one payload,
    /// ScratchPipe states [`Schedule::edges`]. The iteration time, the
    /// per-stage breakdown and the energy's busy time all cover the
    /// schedule's [`steady_window`](memsim::pipeline::Schedule::steady_window).
    pub(crate) fn on_graph(
        system: impl Into<String>,
        stage_names: Vec<String>,
        stage_resources: Vec<Resource>,
        stage_times: Vec<Vec<SimTime>>,
        edges: Vec<Edge>,
        power: &PowerModel,
    ) -> Self {
        let sched = schedule(&stage_names, &stage_resources, &stage_times, edges);
        let iteration_time = sched.steady_state_iteration_time();
        let window = &stage_times[sched.steady_window()];
        let breakdown: Vec<(String, SimTime)> = (stage_names.iter().enumerate())
            .map(|(s, name)| {
                let sum: SimTime = window.iter().map(|t| t[s]).sum();
                (name.clone(), sum / window.len().max(1) as f64)
            })
            .collect();
        let (cpu_busy, gpu_busy) = steady_busy(&stage_resources, &breakdown);
        SystemReport {
            system: system.into(),
            iterations: stage_times.len(),
            stage_names,
            stage_resources,
            stage_times,
            iteration_time,
            makespan: sched.makespan,
            energy_per_iteration: power.energy(iteration_time, cpu_busy, gpu_busy),
            hit_rate: None,
            breakdown,
        }
    }

    /// A ScratchPipe report: the crate's one report constructor on
    /// [`Schedule::Sync`]'s [`Schedule::edges`]. The iteration time, the
    /// per-stage breakdown and the energy's busy time all cover the
    /// schedule's [`steady_window`](memsim::pipeline::Schedule::steady_window);
    /// `steady_skip` is ignored.
    pub fn from_pipelined_stages(
        system: impl Into<String>,
        names: Vec<String>,
        resources: Vec<Resource>,
        times: Vec<Vec<SimTime>>,
        power: &PowerModel,
        _steady_skip: usize,
    ) -> Self {
        let edges = Schedule::Sync.edges();
        Self::on_graph(system, names, resources, times, edges, power)
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

/// The schedule of `times` on the pipeline `names` and `resources` state,
/// under `edges`.
fn schedule(
    names: &[String],
    resources: &[Resource],
    times: &[Vec<SimTime>],
    edges: Vec<Edge>,
) -> memsim::pipeline::Schedule {
    assert_eq!(names.len(), resources.len(), "one resource per stage");
    let defs = (names.iter().zip(resources))
        .map(|(name, &r)| StageDef::new(name.clone(), r))
        .collect();
    let iters: Vec<StageTimes> = times.iter().map(|t| StageTimes(t.clone())).collect();
    PipelineSim::new(defs, edges).schedule(&iters)
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use scratchpipe::StageId;

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
        let r = SystemReport::on_graph(
            "test",
            names(&["a", "b"]),
            vec![Resource::CpuMem, Resource::Gpu],
            vec![vec![ms(10.0), ms(5.0)]; 4],
            Edge::line(2, 1),
            &power,
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
        let seq = SystemReport::on_graph(
            "seq",
            stage_names.clone(),
            stage_resources.clone(),
            stage_times.clone(),
            Schedule::Sequential.edges(),
            &power,
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
                let names = &report.stage_names;
                let sched = schedule(
                    names,
                    &report.stage_resources,
                    &report.stage_times,
                    edges.clone(),
                );
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
        let r = SystemReport::on_graph(
            "t",
            names(&["a"]),
            vec![Resource::CpuMem],
            times,
            Edge::line(1, 1),
            &power,
        );
        assert!((r.iteration_time.as_millis() - 10.0).abs() < 1e-9);
    }

    /// A ScratchPipe-shaped run whose \[Collect\] grows every iteration:
    /// the breakdown and the energy's busy time average the iterations
    /// the iteration time does (4–9 of 12), not the cold fill or the
    /// drain.
    #[test]
    fn breakdown_and_energy_cover_the_iterations_the_iteration_time_does() {
        let power = PowerModel::isca_paper();
        let resources = StageId::ALL.map(StageId::resource).to_vec();
        let times: Vec<Vec<SimTime>> = (0..12)
            .map(|i| vec![ms(1.0), ms(4.0 + i as f64), ms(2.0), ms(4.0), ms(10.0)])
            .collect();
        let r = SystemReport::on_graph(
            "window",
            StageId::ALL.map(|s| s.name().to_owned()).to_vec(),
            resources.clone(),
            times.clone(),
            Schedule::Sync.edges(),
            &power,
        );
        let mean = |s: usize| times[4..10].iter().map(|t| t[s]).sum::<SimTime>() / 6.0;
        let (mut cpu, mut gpu) = (SimTime::ZERO, SimTime::ZERO);
        for (s, resource) in resources.iter().enumerate() {
            assert!(
                (r.breakdown[s].1 - mean(s)).as_secs().abs() < 1e-12,
                "stage {s}"
            );
            match resource {
                Resource::CpuMem => cpu += mean(s),
                Resource::Gpu => gpu += mean(s),
                _ => {}
            }
        }
        let energy = power.energy(r.iteration_time, cpu, gpu);
        let (got, want) = (r.energy_per_iteration, energy);
        assert!((got.cpu_joules - want.cpu_joules).abs() < 1e-9 * want.cpu_joules);
        assert!((got.gpu_joules - want.gpu_joules).abs() < 1e-9 * want.gpu_joules);
    }

    /// Seeded sweep over sequential design points: on a line with one
    /// payload, the iteration time is the breakdown's sum and the makespan
    /// is every stage time's.
    #[test]
    fn a_line_of_one_payload_adds_its_stages() {
        let power = PowerModel::isca_paper();
        let close = |a: SimTime, b: SimTime| {
            (a.as_secs() - b.as_secs()).abs() <= 1e-9 * a.as_secs().max(b.as_secs())
        };
        let mut rng = StdRng::seed_from_u64(39);
        for _ in 0..200 {
            let stages = rng.gen_range(1..=8usize);
            let iterations = rng.gen_range(0..=40usize);
            let resources = (0..stages)
                .map(|_| Resource::ALL[rng.gen_range(0..Resource::ALL.len())])
                .collect();
            let times: Vec<Vec<SimTime>> = (0..iterations)
                .map(|_| (0..stages).map(|_| ms(rng.gen_range(0.0..5.0))).collect())
                .collect();
            let total: SimTime = times.iter().flatten().copied().sum();
            let r = SystemReport::on_graph(
                "line",
                vec!["s".to_owned(); stages],
                resources,
                times,
                Edge::line(stages, 1),
                &power,
            );
            let summed: SimTime = r.breakdown.iter().map(|(_, t)| *t).sum();
            assert!(
                close(r.iteration_time, summed),
                "{stages} stages × {iterations}: {} vs {summed}",
                r.iteration_time
            );
            assert!(close(r.makespan, total), "{} vs {total}", r.makespan);
        }
    }

    #[test]
    fn grouped_breakdown_sums_indices() {
        let power = PowerModel::isca_paper();
        let r = SystemReport::on_graph(
            "t",
            names(&["a", "b", "c"]),
            vec![Resource::CpuMem, Resource::Gpu, Resource::CpuMem],
            vec![vec![ms(1.0), ms(2.0), ms(3.0)]; 3],
            Edge::line(3, 1),
            &power,
        );
        let g = r.grouped_breakdown(&[("cpu", &[0, 2]), ("gpu", &[1])]);
        assert!((g[0].1.as_millis() - 4.0).abs() < 1e-9);
        assert!((g[1].1.as_millis() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_run_is_handled() {
        let power = PowerModel::isca_paper();
        let r = SystemReport::on_graph(
            "t",
            names(&["a"]),
            vec![Resource::CpuMem],
            vec![],
            Edge::line(1, 1),
            &power,
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
