//! Property tests of the timing substrate: the pipeline scheduler must
//! respect conservation laws for *arbitrary* stage geometries, and every
//! report type must survive serde round-trips (reports are the artifact
//! the bench harness persists).

use memsim::pipeline::{Edge, PipelineSim, Resource, StageDef, StageTimes};
use memsim::{CostModel, SimTime, SystemSpec, Traffic};
use proptest::prelude::*;
use serde::{Serialize, Value};

fn arb_resource() -> impl Strategy<Value = Resource> {
    prop_oneof![
        Just(Resource::CpuMem),
        Just(Resource::Gpu),
        Just(Resource::PcieH2D),
        Just(Resource::PcieD2H),
        Just(Resource::Host),
    ]
}

/// `s` stages in a line: each after the one before it in its batch, and
/// after itself one batch back.
fn linear(s: usize) -> Vec<Edge> {
    let mut edges: Vec<Edge> = (1..s)
        .map(|w| Edge {
            waiter: w,
            watched: w - 1,
            lag: 0,
        })
        .collect();
    edges.extend((0..s).map(|w| Edge {
        waiter: w,
        watched: w,
        lag: 1,
    }));
    edges
}

fn stage_defs(resources: &[Resource]) -> Vec<StageDef> {
    resources
        .iter()
        .enumerate()
        .map(|(i, &r)| StageDef::new(format!("s{i}"), r))
        .collect()
}

fn stage_times(durations: &[Vec<u32>], s: usize) -> Vec<StageTimes> {
    durations
        .iter()
        .map(|d| {
            StageTimes(
                (0..s)
                    .map(|i| SimTime::from_millis(d[i % d.len()] as f64))
                    .collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Makespan lower bounds: no schedule can beat either the critical
    /// path of one iteration or the total work queued on any resource.
    #[test]
    fn schedule_respects_lower_bounds(
        resources in proptest::collection::vec(arb_resource(), 1..6),
        durations in proptest::collection::vec(
            proptest::collection::vec(1u32..50, 1..6), 1..30),
    ) {
        let s = resources.len();
        let sim = PipelineSim::new(stage_defs(&resources), linear(s));
        let iters = stage_times(&durations, s);
        let sched = sim.schedule(&iters);

        // Bound 1: longest single iteration (its stages are serialized by
        // data dependence).
        let critical = iters
            .iter()
            .map(StageTimes::total)
            .fold(SimTime::ZERO, SimTime::max);
        prop_assert!(sched.makespan + SimTime::from_micros(1.0) >= critical);

        // Bound 2: per-resource total work.
        for r in Resource::ALL {
            let work: SimTime = iters
                .iter()
                .flat_map(|it| {
                    it.0.iter()
                        .zip(sim.stages())
                        .filter(move |(_, def)| def.resource == r)
                        .map(|(t, _)| *t)
                })
                .sum();
            prop_assert!(
                sched.makespan + SimTime::from_micros(1.0) >= work,
                "resource {} work {} exceeds makespan {}", r, work, sched.makespan
            );
            // Busy-time accounting must equal queued work exactly.
            let busy = sched.resource_busy[r.index()];
            prop_assert!((busy.as_secs() - work.as_secs()).abs() < 1e-9);
        }

        // Completions are monotone (FIFO stages).
        for w in sched.iteration_finish.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        // Every stage instance was scheduled exactly once.
        prop_assert_eq!(sched.slots.len(), iters.len() * s);
    }

    /// On any graph — a line plus random edges reaching back at least one
    /// batch — every slot starts after every stage instance its edges name
    /// has finished, and slots on one resource never overlap.
    #[test]
    fn schedule_obeys_its_edges_and_its_resources(
        resources in proptest::collection::vec(arb_resource(), 1..6),
        durations in proptest::collection::vec(
            proptest::collection::vec(0u32..50, 1..6), 1..30),
        extra in proptest::collection::vec((0usize..6, 0usize..6, 1usize..8), 0..6),
    ) {
        let s = resources.len();
        let mut edges = linear(s);
        edges.extend(extra.iter().map(|&(waiter, watched, lag)| Edge {
            waiter: waiter % s,
            watched: watched % s,
            lag,
        }));
        let sim = PipelineSim::new(stage_defs(&resources), edges.clone());
        let iters = stage_times(&durations, s);
        let sched = sim.schedule(&iters);
        prop_assert_eq!(sched.slots.len(), iters.len() * s);

        let mut finish = vec![vec![SimTime::ZERO; s]; iters.len()];
        for slot in &sched.slots {
            finish[slot.iteration][slot.stage] = slot.finish;
        }
        for slot in &sched.slots {
            let i = slot.iteration;
            for e in edges.iter().filter(|e| e.waiter == slot.stage && i >= e.lag) {
                prop_assert!(
                    slot.start >= finish[i - e.lag][e.watched],
                    "{:?} broken at batch {}", e, i
                );
            }
        }
        for r in Resource::ALL {
            let mut on_r: Vec<_> = sched
                .slots
                .iter()
                .filter(|slot| resources[slot.stage] == r)
                .collect();
            // By start, a zero-length slot before the slot it abuts.
            on_r.sort_by(|a, b| (a.start, a.finish).partial_cmp(&(b.start, b.finish)).expect("finite"));
            for w in on_r.windows(2) {
                prop_assert!(
                    w[0].finish <= w[1].start,
                    "{} overlaps: {:?} and {:?}", r, w[0], w[1]
                );
            }
        }
    }

    /// Stage time from the cost model is monotone in traffic: adding bytes
    /// anywhere can never make a stage faster.
    #[test]
    fn cost_model_is_monotone(
        base_bytes in 0u64..(1 << 28),
        extra in 0u64..(1 << 28),
    ) {
        let m = CostModel::new(SystemSpec::isca_paper());
        let t0 = Traffic {
            cpu_random_read_bytes: base_bytes,
            gpu_stream_write_bytes: base_bytes / 2,
            pcie_h2d_bytes: base_bytes / 4,
            ..Traffic::default()
        };
        let mut t1 = t0;
        t1.cpu_random_read_bytes += extra;
        prop_assert!(m.traffic_time(&t1) >= m.traffic_time(&t0));
        let mut t2 = t0;
        t2.gpu_random_write_bytes += extra;
        prop_assert!(m.traffic_time(&t2) >= m.traffic_time(&t0));
        // Serialized time dominates overlapped time.
        prop_assert!(m.serialized_time(&t0) >= m.traffic_time(&t0));
    }
}

#[test]
fn reports_round_trip_through_serde() {
    // A SystemReport serializes every field it reports; the JSON parses
    // back into the same value tree.
    let cfg = systems::ExperimentConfig::scaled_down(tracegen::LocalityProfile::Medium, 0.1, 5);
    let report = systems::run_system(systems::SystemKind::ScratchPipe, &cfg).expect("run");
    let json = serde_json::to_string(&report).expect("serialize");
    let back: Value = serde_json::from_str(&json).expect("parse");
    assert_eq!(back.get("system"), Some(&report.system.to_value()));
    assert_eq!(back.get("iterations"), Some(&report.iterations.to_value()));
    assert_eq!(
        back.get("stage_names"),
        Some(&report.stage_names.to_value())
    );
    let Some(Value::Float(secs)) = back.get("iteration_time") else {
        panic!("iteration_time: {:?}", back.get("iteration_time"));
    };
    assert_eq!(secs.to_bits(), report.iteration_time.as_secs().to_bits());
    assert_eq!(back.get("hit_rate"), Some(&report.hit_rate.to_value()));
}
