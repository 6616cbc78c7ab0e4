//! Deterministic fault injection for the stage pipeline.
//!
//! A [`FaultPlan`] is a replayable list of faults pinned to precise
//! `(iteration, stage, shard)` coordinates — no wall-clock, no global
//! state — so a chaos run is exactly reproducible from the plan alone.
//! The plan is armed on a pipeline with [`PipelineBuilder::faults`], and
//! every stage execution consults the armed plan; without it the hook is a
//! `None` check and the fault-free hot path is untouched. Arming resolves
//! every fault's stage name against the [`StageId`] table, so a fault that
//! could never fire — a misspelt stage, a worker panic on a stage that
//! runs no shard tasks — fails [`PipelineBuilder::build`] instead of
//! passing a chaos run vacuously.
//!
//! # Fault kinds
//!
//! * [`FaultKind::StageError`] — the stage fails before executing, with
//!   [`ScratchError::Injected`].
//! * [`FaultKind::WorkerPanic`] — one worker-pool shard task of the stage
//!   panics; the pool catches it (`catch_unwind`) and converts it to
//!   [`ScratchError::WorkerPanic`].
//!
//! # Attempt-based triggering
//!
//! A fault fires while `attempt < fires`, where `attempt` is the
//! supervised runtime's per-iteration attempt counter (always 0 under
//! plain [`Pipeline::run`]). Triggering is a pure predicate of
//! `(iteration, stage, attempt)` — no decrementing counters — so it does
//! not matter how many stages consult the plan concurrently or in what
//! order: replays are exact under every schedule and pool width.
//! `fires = u32::MAX` makes a fault persistent (unrecoverable).
//!
//! [`Pipeline::run`]: crate::pipeline::Pipeline::run
//! [`PipelineBuilder::faults`]: crate::pipeline::PipelineBuilder::faults
//! [`PipelineBuilder::build`]: crate::pipeline::PipelineBuilder::build
//! [`ScratchError::Injected`]: crate::error::ScratchError::Injected
//! [`ScratchError::WorkerPanic`]: crate::error::ScratchError::WorkerPanic

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::ScratchError;
use crate::runtime::StageId;

/// What a [`Fault`] does when it fires. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Fail the stage with [`ScratchError::Injected`] before it executes.
    ///
    /// [`ScratchError::Injected`]: crate::error::ScratchError::Injected
    StageError,
    /// Panic one worker-pool shard task of the stage.
    WorkerPanic,
}

impl FaultKind {
    /// Stable lower-case name, as used in audit events.
    pub(crate) fn name(self) -> &'static str {
        match self {
            FaultKind::StageError => "stage_error",
            FaultKind::WorkerPanic => "worker_panic",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One fault at precise `(iteration, stage, shard)` coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Mini-batch index the fault targets.
    pub iteration: usize,
    /// Stage name the fault targets (a [`StageId::name`]; matched
    /// case-insensitively, and resolved when the plan is armed).
    pub stage: String,
    /// Shard coordinate for [`FaultKind::WorkerPanic`] (taken modulo the
    /// stage's task count, so any value is valid).
    pub shard: usize,
    /// What happens when the fault fires.
    pub kind: FaultKind,
    /// The fault fires on attempts `0..fires` of its iteration;
    /// `u32::MAX` makes it persistent (unrecoverable).
    pub fires: u32,
}

/// A replayable set of faults: the unit of chaos-test configuration.
///
/// Build one explicitly ([`FaultPlan::new`]) or from a seed
/// ([`FaultPlan::seeded`]); arm it with [`PipelineBuilder::faults`].
///
/// [`PipelineBuilder::faults`]: crate::pipeline::PipelineBuilder::faults
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The faults, in declaration order (first match wins per consult).
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan executing exactly `faults`.
    pub fn new(faults: Vec<Fault>) -> Self {
        FaultPlan { faults }
    }

    /// Generates `count` pseudo-random *recoverable* faults over
    /// `0..iterations` from `seed` — the chaos suite's seed-matrix entry
    /// point. Every generated fault fires once or twice, so any default
    /// retry budget ≥ 3 recovers it; kinds and coordinates are drawn
    /// uniformly (with stages restricted to where each kind can strike).
    pub fn seeded(seed: u64, iterations: usize, count: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut faults = Vec::with_capacity(count);
        let sharded: Vec<StageId> = StageId::ALL.into_iter().filter(|s| s.shards()).collect();
        if iterations > 0 {
            for _ in 0..count {
                let iteration = rng.gen_range(0..iterations as u64) as usize;
                let (kind, stage) = if rng.gen_range(0..2u64) == 0 {
                    let stage = StageId::ALL[rng.gen_range(0..StageId::COUNT as u64) as usize];
                    (FaultKind::StageError, stage)
                } else {
                    let stage = sharded[rng.gen_range(0..sharded.len() as u64) as usize];
                    (FaultKind::WorkerPanic, stage)
                };
                faults.push(Fault {
                    iteration,
                    stage: stage.name().to_owned(),
                    shard: rng.gen_range(0..4u64) as usize,
                    kind,
                    fires: 1 + rng.gen_range(0..2u64) as u32,
                });
            }
        }
        FaultPlan { faults }
    }
}

/// One fault firing, as recorded by the injector and surfaced as a
/// `fault_injected` audit event.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct InjectionRecord {
    /// Iteration the fault fired at.
    pub iteration: usize,
    /// Attempt (within the supervised runtime's per-iteration counter)
    /// the fault fired on.
    pub attempt: u32,
    /// Stage the fault fired in.
    pub stage: String,
    /// Kind of fault that fired.
    pub kind: FaultKind,
    /// Task the fault struck: its shard modulo the stage's task count (0
    /// for whole-stage faults).
    pub shard: usize,
}

/// The armed, thread-safe form of a [`FaultPlan`]: stages consult it at
/// their hook points, the supervised runtime advances its attempt counter
/// and drains its firing log into the run's event log.
///
/// Triggering is a pure predicate (see the [module docs](self)), so the
/// injector is safely shared by concurrently executing stage threads.
pub(crate) struct FaultInjector {
    /// Each fault with the stage its name resolved to.
    by_iter: HashMap<usize, Vec<(StageId, Fault)>>,
    attempt: AtomicU32,
    log: Mutex<Vec<InjectionRecord>>,
}

impl FaultInjector {
    /// Arms a plan.
    ///
    /// # Errors
    ///
    /// Returns [`ScratchError::InvalidConfig`], naming the fault, if it
    /// could never fire: its stage is not a [`StageId::name`], or it is a
    /// [`FaultKind::WorkerPanic`] on a stage that runs no shard tasks
    /// ([`StageId::shards`]).
    pub(crate) fn new(plan: FaultPlan) -> Result<Self, ScratchError> {
        let mut by_iter: HashMap<usize, Vec<(StageId, Fault)>> = HashMap::new();
        for (n, fault) in plan.faults.into_iter().enumerate() {
            let inert = |why: String| ScratchError::InvalidConfig {
                detail: format!(
                    "fault {n} ({} at iteration {}) can never fire: {why}",
                    fault.kind, fault.iteration
                ),
            };
            let stage = StageId::from_name(&fault.stage)
                .ok_or_else(|| inert(format!("no stage is named {:?}", fault.stage)))?;
            if fault.kind == FaultKind::WorkerPanic && !stage.shards() {
                return Err(inert(format!("[{}] runs no shard tasks", stage.name())));
            }
            by_iter
                .entry(fault.iteration)
                .or_default()
                .push((stage, fault));
        }
        Ok(FaultInjector {
            by_iter,
            attempt: AtomicU32::new(0),
            log: Mutex::new(Vec::new()),
        })
    }

    /// Sets the attempt counter for the next execution attempt. Called by
    /// the supervised runtime before each (re)try; plain runs stay at 0.
    pub(crate) fn begin_attempt(&self, attempt: u32) {
        self.attempt.store(attempt, Ordering::SeqCst);
    }

    /// Fires the first `kind` fault armed on `(iteration, stage)` for the
    /// current attempt, if any: logs it and returns the task it strikes,
    /// its shard reduced modulo `tasks` (a whole stage is one task).
    fn fire(
        &self,
        iteration: usize,
        kind: FaultKind,
        stage: StageId,
        tasks: usize,
    ) -> Option<usize> {
        let attempt = self.attempt.load(Ordering::SeqCst);
        let (_, fault) = self
            .by_iter
            .get(&iteration)?
            .iter()
            .find(|(at, f)| f.kind == kind && attempt < f.fires && *at == stage)?;
        let shard = fault.shard % tasks.max(1);
        self.log.lock().push(InjectionRecord {
            iteration,
            attempt,
            stage: stage.name().to_owned(),
            kind,
            shard,
        });
        Some(shard)
    }

    /// Consulted by the driver before executing `stage` on `iteration`:
    /// a firing [`FaultKind::StageError`] yields the error to fail with.
    pub(crate) fn stage_error(&self, iteration: usize, stage: StageId) -> Option<ScratchError> {
        self.fire(iteration, FaultKind::StageError, stage, 1)
            .map(|_| ScratchError::Injected {
                iteration,
                stage: stage.name().to_owned(),
            })
    }

    /// Consulted by sharding stages before spawning their `tasks` worker
    /// tasks: a firing [`FaultKind::WorkerPanic`] yields the index of the
    /// task that must panic, its shard modulo `tasks`.
    pub(crate) fn worker_panic(
        &self,
        iteration: usize,
        stage: StageId,
        tasks: usize,
    ) -> Option<usize> {
        self.fire(iteration, FaultKind::WorkerPanic, stage, tasks)
    }

    /// Drains the firing log, sorted into a deterministic order (stage
    /// threads may append concurrently, so arrival order is not stable;
    /// the sorted log is).
    pub(crate) fn drain_log(&self) -> Vec<InjectionRecord> {
        let mut log = std::mem::take(&mut *self.log.lock());
        log.sort();
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault(iteration: usize, stage: &str, kind: FaultKind, fires: u32) -> Fault {
        Fault {
            iteration,
            stage: stage.to_owned(),
            shard: 1,
            kind,
            fires,
        }
    }

    #[test]
    fn seeded_plans_are_reproducible_and_recoverable() {
        let a = FaultPlan::seeded(7, 20, 6);
        let b = FaultPlan::seeded(7, 20, 6);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 6);
        assert!(a.faults.iter().all(|f| f.iteration < 20));
        assert!(a.faults.iter().all(|f| f.fires >= 1 && f.fires <= 2));
        let c = FaultPlan::seeded(8, 20, 6);
        assert_ne!(a, c);
        assert!(FaultPlan::seeded(9, 0, 6).faults.is_empty());
    }

    fn armed(faults: Vec<Fault>) -> FaultInjector {
        FaultInjector::new(FaultPlan::new(faults)).expect("every fault can fire")
    }

    #[test]
    fn attempt_predicate_gates_firing() {
        // The name is resolved once, at arming, whatever its case.
        let inj = armed(vec![fault(2, "inSERT", FaultKind::StageError, 2)]);
        assert!(inj.stage_error(2, StageId::Insert).is_some());
        assert!(inj.stage_error(2, StageId::Train).is_none());
        assert!(inj.stage_error(1, StageId::Insert).is_none());
        inj.begin_attempt(1);
        assert!(inj.stage_error(2, StageId::Insert).is_some());
        inj.begin_attempt(2);
        assert!(
            inj.stage_error(2, StageId::Insert).is_none(),
            "fires exhausted"
        );
        let log = inj.drain_log();
        assert_eq!(log.len(), 2);
        assert_eq!((log[0].attempt, log[1].attempt), (0, 1));
        assert_eq!(log[0].stage, "Insert", "logged under the table's name");
        assert!(inj.drain_log().is_empty(), "drain clears");
    }

    #[test]
    fn kind_specific_consults() {
        let inj = armed(vec![fault(0, "Collect", FaultKind::WorkerPanic, 1)]);
        assert_eq!(inj.worker_panic(0, StageId::Collect, 3), Some(1));
        assert_eq!(inj.worker_panic(0, StageId::Insert, 3), None);
        assert!(inj.stage_error(0, StageId::Collect).is_none(), "kind");
        assert_eq!(inj.worker_panic(0, StageId::Collect, 1), Some(0), "1 mod 1");
        let log = inj.drain_log();
        assert_eq!(log.iter().map(|r| r.shard).collect::<Vec<_>>(), [0, 1]);
    }
}
