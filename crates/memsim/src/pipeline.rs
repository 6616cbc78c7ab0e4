//! Pipeline schedule simulation.
//!
//! A pipeline is a list of stages and a list of [`Edge`]s between them.
//! Every mini-batch runs every stage once. Each stage occupies one hardware
//! *resource* (GPU, CPU memory system, a PCIe direction, …): stages bound
//! to the same resource serialize, stages on different resources overlap.
//! An edge names a stage that must finish, in the same or an earlier
//! mini-batch, before another may start. The simulator states no
//! dependency of its own: ScratchPipe's five-stage graph (paper Figure 10)
//! is exported by the runtime, which sits above this crate.
//!
//! For a sequence of per-iteration stage latencies,
//! [`PipelineSim::schedule`] computes the exact schedule under FCFS
//! resource arbitration on that graph: its makespan, per-resource busy
//! time, and the steady-state iteration time — the pipeline "cycle time"
//! of Figure 7 ([`Schedule::steady_state_iteration_time`]) — measured over
//! one window of iterations ([`Schedule::steady_window`]) that every
//! steady-state figure reads.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::Range;

use serde::Serialize;

use crate::time::SimTime;

/// A hardware resource that executes pipeline stages exclusively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Resource {
    /// Host DRAM + CPU cores (embedding table reads/writes).
    CpuMem,
    /// The GPU: SMs plus its HBM memory system.
    Gpu,
    /// PCIe host→device channel.
    PcieH2D,
    /// PCIe device→host channel.
    PcieD2H,
    /// Inter-GPU fabric.
    NvLink,
    /// Host-side dataset loading (storage / preprocessing threads).
    Host,
}

impl Resource {
    /// All resources, in the canonical order used by reports.
    pub const ALL: [Resource; 6] = [
        Resource::CpuMem,
        Resource::Gpu,
        Resource::PcieH2D,
        Resource::PcieD2H,
        Resource::NvLink,
        Resource::Host,
    ];

    /// Stable index of this resource in [`Resource::ALL`].
    pub fn index(self) -> usize {
        match self {
            Resource::CpuMem => 0,
            Resource::Gpu => 1,
            Resource::PcieH2D => 2,
            Resource::PcieD2H => 3,
            Resource::NvLink => 4,
            Resource::Host => 5,
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Resource::CpuMem => "cpu-mem",
            Resource::Gpu => "gpu",
            Resource::PcieH2D => "pcie-h2d",
            Resource::PcieD2H => "pcie-d2h",
            Resource::NvLink => "nvlink",
            Resource::Host => "host",
        };
        f.write_str(s)
    }
}

/// Static definition of one pipeline stage.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageDef {
    /// Human-readable stage name (e.g. `"Plan"`).
    pub name: String,
    /// Resource the stage occupies while executing.
    pub resource: Resource,
}

impl StageDef {
    /// Creates a stage definition.
    pub fn new(name: impl Into<String>, resource: Resource) -> Self {
        StageDef {
            name: name.into(),
            resource,
        }
    }
}

/// A dependency of the pipeline graph: `waiter` of batch `i` starts only
/// after `watched` of batch `i - lag` has finished. Stages are indices
/// into the pipeline's stage list; for `i < lag` the edge binds nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Edge {
    /// The stage that waits.
    pub waiter: usize,
    /// The stage waited for.
    pub watched: usize,
    /// How many batches back the watched stage's instance is.
    pub lag: usize,
}

impl Edge {
    /// `stages` in a line: each after the one before it in its batch and
    /// after itself one batch back, and the first after the last `payloads`
    /// batches back, so at most `payloads` batches are in flight.
    pub fn line(stages: usize, payloads: usize) -> Vec<Edge> {
        let edge = |waiter, watched, lag| Edge {
            waiter,
            watched,
            lag,
        };
        let chain = (1..stages).map(|s| edge(s, s - 1, 0));
        let fifo = (0..stages).map(|s| edge(s, s, 1));
        let ring = edge(0, stages - 1, payloads);
        chain.chain(fifo).chain([ring]).collect()
    }
}

/// Latencies of every stage for one iteration (indexed like the stage list).
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct StageTimes(pub Vec<SimTime>);

impl StageTimes {
    /// Sum of all stage latencies (the un-pipelined iteration time).
    pub fn total(&self) -> SimTime {
        self.0.iter().copied().sum()
    }
}

/// One scheduled execution interval of a stage instance, for Gantt output.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ScheduledSlot {
    /// Iteration (mini-batch) index.
    pub iteration: usize,
    /// Stage index into the pipeline's stage list.
    pub stage: usize,
    /// Start time of the execution.
    pub start: SimTime,
    /// Finish time of the execution.
    pub finish: SimTime,
}

/// The result of simulating a pipelined execution.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Schedule {
    /// Total wall-clock time from first start to last finish.
    pub makespan: SimTime,
    /// Completion time of each iteration (finish of its last stage).
    pub iteration_finish: Vec<SimTime>,
    /// Busy time accumulated per resource (indexed by [`Resource::index`]).
    pub resource_busy: [SimTime; 6],
    /// Every scheduled slot, ordered by start time (for visualization).
    pub slots: Vec<ScheduledSlot>,
}

impl Schedule {
    /// The iterations every steady-state figure averages: the middle half
    /// of the run, so that neither the pipeline-fill prefix nor the drain
    /// tail (where departing batches no longer contend for resources)
    /// skews it; every iteration when there are fewer than 8.
    pub fn steady_window(&self) -> Range<usize> {
        let n = self.iteration_finish.len();
        if n < 8 {
            0..n
        } else {
            n / 4 + 1..3 * n / 4 + 1
        }
    }

    /// Average time between consecutive iteration completions over the
    /// [`Schedule::steady_window`], or the per-iteration average of the
    /// makespan when that window is the whole run.
    pub fn steady_state_iteration_time(&self) -> SimTime {
        let window = self.steady_window();
        if window.start == 0 {
            return self.makespan / window.len().max(1) as f64;
        }
        let span = self.iteration_finish[window.end - 1] - self.iteration_finish[window.start - 1];
        span / window.len() as f64
    }

    /// Utilization of `r` over the makespan, in `[0, 1]`.
    pub fn utilization(&self, r: Resource) -> f64 {
        if self.makespan.is_zero() {
            return 0.0;
        }
        self.resource_busy[r.index()] / self.makespan
    }
}

/// Simulates pipelined execution of stages over shared resources, on a
/// dependency graph the caller states as [`Edge`]s.
///
/// # Example
///
/// ```
/// use memsim::{Edge, PipelineSim, Resource, StageDef, StageTimes, SimTime};
///
/// // Two stages on different resources fully overlap across iterations:
/// // `b` follows `a` within a batch, each follows itself one batch back,
/// // and two batches may be in flight.
/// let sim = PipelineSim::new(
///     vec![
///         StageDef::new("a", Resource::CpuMem),
///         StageDef::new("b", Resource::Gpu),
///     ],
///     Edge::line(2, 2),
/// );
/// let per_iter = StageTimes(vec![SimTime::from_millis(10.0); 2]);
/// let sched = sim.schedule(&vec![per_iter; 100]);
/// // Steady state: one iteration completes every 10 ms, not every 20 ms.
/// let ms = sched.steady_state_iteration_time().as_millis();
/// assert!((ms - 10.0).abs() < 0.5, "{ms}");
/// ```
#[derive(Debug, Clone)]
pub struct PipelineSim {
    stages: Vec<StageDef>,
    edges: Vec<Edge>,
}

impl PipelineSim {
    /// Creates a simulator for the given ordered stage list and the
    /// dependency graph between its stages.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty or an edge names a stage past its end.
    pub fn new(stages: Vec<StageDef>, edges: Vec<Edge>) -> Self {
        assert!(!stages.is_empty(), "pipeline needs at least one stage");
        assert!(
            (edges.iter()).all(|e| e.waiter.max(e.watched) < stages.len()),
            "an edge names a stage past the pipeline's end"
        );
        PipelineSim { stages, edges }
    }

    /// The stage definitions.
    pub fn stages(&self) -> &[StageDef] {
        &self.stages
    }

    /// Simulates the full pipelined execution of `iterations` (one
    /// [`StageTimes`] per mini-batch) under FCFS resource arbitration. A
    /// stage instance becomes ready when the last of the instances its
    /// edges name has finished, and runs once its resource is free; among
    /// ready instances the earliest ready goes first (then the lower batch,
    /// then the lower stage).
    ///
    /// # Panics
    ///
    /// Panics if any iteration's stage count differs from the pipeline's,
    /// or if the edges form a cycle within one batch.
    pub fn schedule(&self, iterations: &[StageTimes]) -> Schedule {
        let s_count = self.stages.len();
        let n = iterations.len();
        for it in iterations {
            assert_eq!(it.0.len(), s_count, "stage-count mismatch");
        }
        let node = |iter: usize, stage: usize| iter * s_count + stage;
        // Per (batch, stage): the predecessors that have not finished, and
        // the latest finish among those that have.
        let mut waiting = vec![0usize; n * s_count];
        let mut ready = vec![SimTime::ZERO; n * s_count];
        for iter in 0..n {
            for e in self.edges.iter().filter(|e| iter >= e.lag) {
                waiting[node(iter, e.waiter)] += 1;
            }
        }
        let mut finish = vec![SimTime::ZERO; n * s_count];
        let mut resource_free = [SimTime::ZERO; 6];
        let mut resource_busy = [SimTime::ZERO; 6];
        let mut slots = Vec::with_capacity(n * s_count);
        // Earliest ready first, then the lower batch, then the lower stage.
        // Ready times are finite and non-negative, so their bits order
        // like them.
        let key = |time: SimTime, iter, stage| Reverse((time.as_secs().to_bits(), iter, stage));
        let mut heap: BinaryHeap<_> = (0..n * s_count)
            .filter(|&k| waiting[k] == 0)
            .map(|k| key(SimTime::ZERO, k / s_count, k % s_count))
            .collect();
        let mut makespan = SimTime::ZERO;
        while let Some(Reverse((_, iter, stage))) = heap.pop() {
            let r = self.stages[stage].resource.index();
            let start = ready[node(iter, stage)].max(resource_free[r]);
            let dur = iterations[iter].0[stage];
            let end = start + dur;
            resource_free[r] = end;
            resource_busy[r] += dur;
            finish[node(iter, stage)] = end;
            makespan = makespan.max(end);
            slots.push(ScheduledSlot {
                iteration: iter,
                stage,
                start,
                finish: end,
            });
            // A node enters the heap only when all of its predecessors have
            // finished, so the ready time it carries is final.
            for e in self.edges.iter().filter(|e| e.watched == stage) {
                let successor = iter + e.lag;
                if successor >= n {
                    continue;
                }
                let k = node(successor, e.waiter);
                ready[k] = ready[k].max(end);
                waiting[k] -= 1;
                if waiting[k] == 0 {
                    heap.push(key(ready[k], successor, e.waiter));
                }
            }
        }
        assert_eq!(slots.len(), n * s_count, "the edges form a cycle");
        slots.sort_by(|a, b| {
            a.start
                .partial_cmp(&b.start)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.iteration.cmp(&b.iteration))
        });
        let iteration_finish = (0..n).map(|i| finish[node(i, s_count - 1)]).collect();
        Schedule {
            makespan,
            iteration_finish,
            resource_busy,
            slots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: f64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// `stages` in a line: each after the one before it in its batch, and
    /// after itself one batch back.
    fn linear(stages: Vec<StageDef>) -> PipelineSim {
        let edge = |waiter, watched, lag| Edge {
            waiter,
            watched,
            lag,
        };
        let edges = (0..stages.len())
            .flat_map(|s| [(s > 0).then(|| edge(s, s - 1, 0)), Some(edge(s, s, 1))])
            .flatten()
            .collect();
        PipelineSim::new(stages, edges)
    }

    fn six_stage() -> PipelineSim {
        linear(vec![
            StageDef::new("Load", Resource::Host),
            StageDef::new("Plan", Resource::Gpu),
            StageDef::new("Collect", Resource::CpuMem),
            StageDef::new("Exchange", Resource::PcieH2D),
            StageDef::new("Insert", Resource::CpuMem),
            StageDef::new("Train", Resource::Gpu),
        ])
    }

    #[test]
    fn single_iteration_is_sum_of_stages() {
        let sim = six_stage();
        let t = StageTimes(vec![ms(1.0); 6]);
        let sched = sim.schedule(std::slice::from_ref(&t));
        assert!((sched.makespan.as_millis() - 6.0).abs() < 1e-9);
        assert_eq!(sched.iteration_finish.len(), 1);
    }

    #[test]
    fn disjoint_resources_fully_overlap() {
        let sim = linear(vec![
            StageDef::new("a", Resource::CpuMem),
            StageDef::new("b", Resource::Gpu),
            StageDef::new("c", Resource::PcieH2D),
        ]);
        let per = StageTimes(vec![ms(10.0); 3]);
        let sched = sim.schedule(&vec![per; 50]);
        // Fill (2 stages) + 50 initiations of 10ms: makespan ≈ 520 ms.
        let got = sched.makespan.as_millis();
        assert!((got - 520.0).abs() < 1.0, "{got}");
    }

    #[test]
    fn shared_resource_serializes() {
        // Collect and Insert share CpuMem: interval is their sum.
        let sim = six_stage();
        let times = StageTimes(vec![
            ms(0.1), // Load
            ms(1.0), // Plan (gpu)
            ms(8.0), // Collect (cpu)
            ms(2.0), // Exchange
            ms(7.0), // Insert (cpu)
            ms(5.0), // Train (gpu)
        ]);
        let sched = sim.schedule(&vec![times; 60]);
        let measured = sched.steady_state_iteration_time().as_millis();
        assert!((measured - 15.0).abs() < 0.2, "{measured}");
    }

    #[test]
    fn gpu_bound_pipeline_cycles_at_gpu_time() {
        let sim = six_stage();
        let times = StageTimes(vec![
            ms(0.1),
            ms(2.0),  // Plan (gpu)
            ms(3.0),  // Collect
            ms(2.0),  // Exchange
            ms(3.0),  // Insert
            ms(20.0), // Train (gpu)
        ]);
        // Plan + Train on the GPU.
        let sched = sim.schedule(&vec![times; 40]);
        let measured = sched.steady_state_iteration_time().as_millis();
        assert!((measured - 22.0).abs() < 0.3, "{measured}");
    }

    #[test]
    fn pipelining_beats_sequential_execution() {
        let sim = six_stage();
        let times = StageTimes(vec![ms(1.0), ms(4.0), ms(6.0), ms(3.0), ms(5.0), ms(8.0)]);
        let n = 100;
        let sched = sim.schedule(&vec![times.clone(); n]);
        let sequential = times.total() * n as f64;
        assert!(
            sched.makespan < sequential * 0.6,
            "pipelined {} vs sequential {}",
            sched.makespan,
            sequential
        );
    }

    #[test]
    fn variable_iteration_times_are_handled() {
        let sim = linear(vec![
            StageDef::new("a", Resource::CpuMem),
            StageDef::new("b", Resource::Gpu),
        ]);
        let iters: Vec<StageTimes> = (0..20)
            .map(|i| StageTimes(vec![ms(1.0 + (i % 3) as f64), ms(2.0)]))
            .collect();
        let sched = sim.schedule(&iters);
        assert_eq!(sched.iteration_finish.len(), 20);
        // Completions must be monotonically non-decreasing (FIFO stages).
        for w in sched.iteration_finish.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn busy_times_and_utilization() {
        let sim = six_stage();
        let times = StageTimes(vec![ms(0.5), ms(1.0), ms(2.0), ms(1.0), ms(2.0), ms(4.0)]);
        let n = 30;
        let sched = sim.schedule(&vec![times; n]);
        let gpu_busy = sched.resource_busy[Resource::Gpu.index()];
        assert!((gpu_busy.as_millis() - (5.0 * n as f64)).abs() < 1e-6);
        let u = sched.utilization(Resource::Gpu);
        assert!(u > 0.5 && u <= 1.0, "{u}");
    }

    #[test]
    fn empty_input_gives_empty_schedule() {
        let sim = six_stage();
        let sched = sim.schedule(&[]);
        assert_eq!(sched.makespan, SimTime::ZERO);
        assert!(sched.slots.is_empty());
    }

    #[test]
    fn slots_cover_all_stage_instances() {
        let sim = six_stage();
        let times = StageTimes(vec![ms(1.0); 6]);
        let sched = sim.schedule(&vec![times; 7]);
        assert_eq!(sched.slots.len(), 7 * 6);
        // Starts are sorted.
        for w in sched.slots.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
    }

    #[test]
    fn a_ring_of_one_batch_serializes_the_pipeline() {
        // The first stage waits for the last one batch back: one batch in
        // flight, so the makespan is the sum of every stage instance.
        let stages = vec![
            StageDef::new("a", Resource::CpuMem),
            StageDef::new("b", Resource::Gpu),
        ];
        let edge = |waiter, watched, lag| Edge {
            waiter,
            watched,
            lag,
        };
        let sim = PipelineSim::new(stages, vec![edge(1, 0, 0), edge(0, 1, 1)]);
        let sched = sim.schedule(&vec![StageTimes(vec![ms(3.0), ms(5.0)]); 10]);
        assert!((sched.makespan.as_millis() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn the_steady_window_is_the_middle_half_or_the_whole_run() {
        let sim = PipelineSim::new(vec![StageDef::new("a", Resource::Gpu)], Edge::line(1, 1));
        let window = |n| {
            sim.schedule(&vec![StageTimes(vec![ms(1.0)]); n])
                .steady_window()
        };
        assert_eq!(window(12), 4..10);
        assert_eq!(window(7), 0..7);
        assert_eq!(window(0), 0..0);
    }

    #[test]
    #[should_panic(expected = "the edges form a cycle")]
    fn a_cycle_within_a_batch_panics() {
        let stages = vec![StageDef::new("a", Resource::CpuMem)];
        let edges = vec![Edge {
            waiter: 0,
            watched: 0,
            lag: 0,
        }];
        let _ = PipelineSim::new(stages, edges).schedule(&[StageTimes(vec![ms(1.0)])]);
    }

    #[test]
    #[should_panic(expected = "stage-count mismatch")]
    fn mismatched_stage_count_panics() {
        let sim = six_stage();
        let _ = sim.schedule(&[StageTimes(vec![ms(1.0); 3])]);
    }

    #[test]
    fn steady_state_measurement_matches_analytic_on_random_times() {
        let sim = six_stage();
        let times = StageTimes(vec![ms(0.3), ms(2.1), ms(6.7), ms(4.4), ms(5.9), ms(9.2)]);
        // The busiest resource's work: Collect + Insert on CpuMem.
        let analytic = ms(6.7 + 5.9);
        let sched = sim.schedule(&vec![times; 80]);
        let measured = sched.steady_state_iteration_time();
        let rel = (measured.as_secs() - analytic.as_secs()).abs() / analytic.as_secs();
        assert!(rel < 0.05, "analytic {analytic} vs measured {measured}");
    }
}
