//! Deterministic fault injection for the stage pipeline.
//!
//! A [`FaultPlan`] is a replayable list of faults pinned to precise
//! `(iteration, stage, shard)` coordinates — no wall-clock, no global
//! state — so a chaos run is exactly reproducible from the plan's seed or
//! its JSON spec. The plan is armed on a pipeline with
//! [`PipelineBuilder::faults`], which hands a [`FaultInjector`] to every
//! stage execution; without it the hook is a `None` check and the
//! fault-free hot path is untouched. Arming resolves every fault's stage
//! name against the [`StageId`] table, so a fault that could never fire —
//! a misspelt stage, a worker panic on a stage that runs no shard tasks —
//! fails [`PipelineBuilder::build`] instead of passing a chaos run
//! vacuously.
//!
//! # Fault kinds
//!
//! * [`FaultKind::StageError`] — the stage fails before executing, with
//!   [`ScratchError::Injected`].
//! * [`FaultKind::WorkerPanic`] — one worker-pool shard task of the stage
//!   panics; the pool catches it (`catch_unwind`) and converts it to
//!   [`ScratchError::WorkerPanic`].
//! * [`FaultKind::SlowShard`] — adds logical nanoseconds to one of the
//!   stage's per-shard timings in the audit stream's `stage_shards`
//!   (nothing sleeps, and no measured timing changes); never fails the
//!   stage.
//! * [`FaultKind::CorruptPayload`] — flips bits in the rows staged at
//!   \[Collect\]; the payload checksum catches the corruption at
//!   \[Insert\] as [`ScratchError::PayloadCorrupted`] before any state is
//!   mutated. Checksumming is only switched on when the plan contains at
//!   least one such fault.
//!
//! # Attempt-based triggering
//!
//! A fault fires while `attempt < fires`, where `attempt` is the
//! supervised runtime's per-iteration attempt counter (always 0 under
//! plain [`Pipeline::run`]). Triggering is a pure predicate of
//! `(iteration, stage, attempt)` — no decrementing counters — so it does
//! not matter how many stages consult the injector concurrently or in
//! what order: replays are exact under every schedule and pool width.
//! `fires = u32::MAX` makes a fault persistent (unrecoverable).
//!
//! [`Pipeline::run`]: crate::pipeline::Pipeline::run
//! [`PipelineBuilder::faults`]: crate::pipeline::PipelineBuilder::faults
//! [`PipelineBuilder::build`]: crate::pipeline::PipelineBuilder::build
//! [`ScratchError::Injected`]: crate::error::ScratchError::Injected
//! [`ScratchError::WorkerPanic`]: crate::error::ScratchError::WorkerPanic
//! [`ScratchError::PayloadCorrupted`]: crate::error::ScratchError::PayloadCorrupted

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

use crate::audit::AuditSink;
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
    /// Add logical nanoseconds to one per-shard timing (non-failing).
    SlowShard,
    /// Corrupt the rows staged at \[Collect\] (caught by checksum at
    /// \[Insert\]).
    CorruptPayload,
}

impl FaultKind {
    /// Stable lower-case name, as used in audit events and JSON specs.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::StageError => "stage_error",
            FaultKind::WorkerPanic => "worker_panic",
            FaultKind::SlowShard => "slow_shard",
            FaultKind::CorruptPayload => "corrupt_payload",
        }
    }

    fn from_name(name: &str) -> Option<FaultKind> {
        match name {
            "stage_error" => Some(FaultKind::StageError),
            "worker_panic" => Some(FaultKind::WorkerPanic),
            "slow_shard" => Some(FaultKind::SlowShard),
            "corrupt_payload" => Some(FaultKind::CorruptPayload),
            _ => None,
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
    /// case-insensitively, and resolved when the plan is armed). Ignored
    /// by [`FaultKind::CorruptPayload`], which always strikes between
    /// \[Collect\] and \[Insert\].
    pub stage: String,
    /// Shard coordinate for [`FaultKind::WorkerPanic`] /
    /// [`FaultKind::SlowShard`] (taken modulo the stage's shard count, so
    /// any value is valid).
    pub shard: usize,
    /// What happens when the fault fires.
    pub kind: FaultKind,
    /// The fault fires on attempts `0..fires` of its iteration;
    /// `u32::MAX` makes it persistent (unrecoverable).
    pub fires: u32,
    /// Logical nanoseconds added by [`FaultKind::SlowShard`] (0 for
    /// other kinds).
    pub slow_nanos: u64,
}

impl Serialize for Fault {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("iteration".to_owned(), Value::UInt(self.iteration as u64)),
            ("stage".to_owned(), Value::Str(self.stage.clone())),
            ("shard".to_owned(), Value::UInt(self.shard as u64)),
            ("kind".to_owned(), Value::Str(self.kind.name().to_owned())),
            ("fires".to_owned(), Value::UInt(u64::from(self.fires))),
            ("slow_nanos".to_owned(), Value::UInt(self.slow_nanos)),
        ])
    }
}

impl Deserialize for Fault {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| SerdeError(format!("fault is missing field `{name}`")))
        };
        let kind_name = match field("kind")? {
            Value::Str(s) => s.as_str(),
            other => return Err(SerdeError::unexpected("fault kind string", other)),
        };
        let kind = FaultKind::from_name(kind_name)
            .ok_or_else(|| SerdeError(format!("unknown fault kind `{kind_name}`")))?;
        let stage = match field("stage")? {
            Value::Str(s) => s.clone(),
            other => return Err(SerdeError::unexpected("stage name string", other)),
        };
        Ok(Fault {
            iteration: usize::from_value(field("iteration")?)?,
            stage,
            shard: usize::from_value(field("shard")?)?,
            kind,
            fires: u32::from_value(field("fires")?)?,
            slow_nanos: u64::from_value(field("slow_nanos")?)?,
        })
    }
}

/// A replayable set of faults: the unit of chaos-test configuration.
///
/// Build one explicitly ([`FaultPlan::new`]), from a seed
/// ([`FaultPlan::seeded`]) or from a JSON spec ([`FaultPlan::from_json`]);
/// arm it with [`PipelineBuilder::faults`].
///
/// [`PipelineBuilder::faults`]: crate::pipeline::PipelineBuilder::faults
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed the plan was generated from, when [`FaultPlan::seeded`] built
    /// it (provenance only; the faults below are what executes).
    pub seed: Option<u64>,
    /// The faults, in declaration order (first match wins per consult).
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (arming it still costs nothing on the hot path, but
    /// makes the injector and its audit accounting active).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan executing exactly `faults`.
    pub fn new(faults: Vec<Fault>) -> Self {
        FaultPlan { seed: None, faults }
    }

    /// Whether the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
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
                let kind = match rng.gen_range(0..4u64) {
                    0 => FaultKind::StageError,
                    1 => FaultKind::WorkerPanic,
                    2 => FaultKind::SlowShard,
                    _ => FaultKind::CorruptPayload,
                };
                let stage = match kind {
                    FaultKind::StageError => {
                        StageId::ALL[rng.gen_range(0..StageId::COUNT as u64) as usize]
                    }
                    FaultKind::WorkerPanic | FaultKind::SlowShard => {
                        sharded[rng.gen_range(0..sharded.len() as u64) as usize]
                    }
                    FaultKind::CorruptPayload => StageId::Collect,
                };
                let slow_nanos = if kind == FaultKind::SlowShard {
                    rng.gen_range(1_000..1_000_000u64)
                } else {
                    0
                };
                faults.push(Fault {
                    iteration,
                    stage: stage.name().to_owned(),
                    shard: rng.gen_range(0..4u64) as usize,
                    kind,
                    fires: 1 + rng.gen_range(0..2u64) as u32,
                    slow_nanos,
                });
            }
        }
        FaultPlan {
            seed: Some(seed),
            faults,
        }
    }

    /// Serializes the plan as a JSON spec (replayable via
    /// [`FaultPlan::from_json`]).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("fault plans contain no non-finite floats")
    }

    /// Parses a plan from a JSON spec produced by [`FaultPlan::to_json`]
    /// (or written by hand).
    ///
    /// # Errors
    ///
    /// Returns [`ScratchError::InvalidConfig`] on malformed JSON or an
    /// unknown fault kind.
    pub fn from_json(text: &str) -> Result<Self, ScratchError> {
        serde_json::from_str(text).map_err(|e| ScratchError::InvalidConfig {
            detail: format!("bad fault plan spec: {e}"),
        })
    }
}

impl Serialize for FaultPlan {
    fn to_value(&self) -> Value {
        let mut entries = Vec::with_capacity(2);
        if let Some(seed) = self.seed {
            entries.push(("seed".to_owned(), Value::UInt(seed)));
        }
        entries.push((
            "faults".to_owned(),
            Value::Seq(self.faults.iter().map(Serialize::to_value).collect()),
        ));
        Value::Map(entries)
    }
}

impl Deserialize for FaultPlan {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let seed = match value.get("seed") {
            Some(v) => Some(u64::from_value(v)?),
            None => None,
        };
        let faults = match value.get("faults") {
            Some(Value::Seq(items)) => items
                .iter()
                .map(Fault::from_value)
                .collect::<Result<Vec<_>, _>>()?,
            Some(other) => return Err(SerdeError::unexpected("fault list", other)),
            None => Vec::new(),
        };
        Ok(FaultPlan { seed, faults })
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
    /// Shard coordinate (0 for whole-stage faults).
    pub shard: usize,
    /// Logical nanoseconds a [`FaultKind::SlowShard`] firing adds to that
    /// shard (0 for other kinds).
    pub slow_nanos: u64,
}

/// The armed, thread-safe form of a [`FaultPlan`]: stages consult it at
/// their hook points, the supervised runtime advances its attempt counter
/// and drains its firing log into the run's event log.
///
/// Triggering is a pure predicate (see the [module docs](self)), so the
/// injector is safely shared by concurrently executing stage threads.
pub struct FaultInjector {
    /// Each fault with the stage its name resolved to.
    by_iter: HashMap<usize, Vec<(StageId, Fault)>>,
    attempt: AtomicU32,
    log: Mutex<Vec<InjectionRecord>>,
    checksums: bool,
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field(
                "faults",
                &self.by_iter.values().map(Vec::len).sum::<usize>(),
            )
            .field("attempt", &self.attempt.load(Ordering::Relaxed))
            .field("checksums", &self.checksums)
            .finish()
    }
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
    pub fn new(plan: FaultPlan) -> Result<Self, ScratchError> {
        let checksums = plan
            .faults
            .iter()
            .any(|f| f.kind == FaultKind::CorruptPayload);
        let mut by_iter: HashMap<usize, Vec<(StageId, Fault)>> = HashMap::new();
        for (n, fault) in plan.faults.into_iter().enumerate() {
            let inert = |why: String| ScratchError::InvalidConfig {
                detail: format!(
                    "fault {n} ({} at iteration {}) can never fire: {why}",
                    fault.kind, fault.iteration
                ),
            };
            let stage = match fault.kind {
                FaultKind::CorruptPayload => StageId::Collect,
                _ => StageId::from_name(&fault.stage)
                    .ok_or_else(|| inert(format!("no stage is named {:?}", fault.stage)))?,
            };
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
            checksums,
        })
    }

    /// Whether \[Collect\] should checksum staged payloads (true iff the
    /// plan contains a [`FaultKind::CorruptPayload`] fault — otherwise
    /// checksumming would tax the fault-free path for nothing).
    pub fn checksums_enabled(&self) -> bool {
        self.checksums
    }

    /// Sets the attempt counter for the next execution attempt. Called by
    /// the supervised runtime before each (re)try; plain runs stay at 0.
    pub fn begin_attempt(&self, attempt: u32) {
        self.attempt.store(attempt, Ordering::SeqCst);
    }

    /// The current attempt counter.
    pub fn attempt(&self) -> u32 {
        self.attempt.load(Ordering::SeqCst)
    }

    fn fire(&self, iteration: usize, kind: FaultKind, stage: StageId) -> Option<&Fault> {
        let attempt = self.attempt();
        let (_, fault) = self
            .by_iter
            .get(&iteration)?
            .iter()
            .find(|(at, f)| f.kind == kind && attempt < f.fires && *at == stage)?;
        self.log.lock().push(InjectionRecord {
            iteration,
            attempt,
            stage: stage.name().to_owned(),
            kind,
            shard: if kind == FaultKind::StageError {
                0
            } else {
                fault.shard
            },
            slow_nanos: 0,
        });
        Some(fault)
    }

    /// Consulted by the driver before executing `stage` on `iteration`:
    /// a firing [`FaultKind::StageError`] yields the error to fail with.
    pub fn stage_error(&self, iteration: usize, stage: StageId) -> Option<ScratchError> {
        self.fire(iteration, FaultKind::StageError, stage)
            .map(|_| ScratchError::Injected {
                iteration,
                stage: stage.name().to_owned(),
            })
    }

    /// Consulted by sharding stages before spawning their worker tasks: a
    /// firing [`FaultKind::WorkerPanic`] yields the shard coordinate whose
    /// task must panic (callers reduce it modulo their task count).
    pub fn worker_panic(&self, iteration: usize, stage: StageId) -> Option<usize> {
        self.fire(iteration, FaultKind::WorkerPanic, stage)
            .map(|f| f.shard)
    }

    /// Consulted by the driver after a stage completes: logs every
    /// [`FaultKind::SlowShard`] firing on it. The slowdown itself is
    /// logical time, applied where the firing is read back — the audit
    /// fold adds [`InjectionRecord::slow_nanos`] to the named shard.
    pub fn fire_slowdowns(&self, iteration: usize, stage: StageId) {
        let attempt = self.attempt();
        let Some(faults) = self.by_iter.get(&iteration) else {
            return;
        };
        for (at, f) in faults {
            if f.kind == FaultKind::SlowShard && attempt < f.fires && *at == stage {
                self.log.lock().push(InjectionRecord {
                    iteration,
                    attempt,
                    stage: stage.name().to_owned(),
                    kind: FaultKind::SlowShard,
                    shard: f.shard,
                    slow_nanos: f.slow_nanos,
                });
            }
        }
    }

    /// Whether a [`FaultKind::CorruptPayload`] fault targets `iteration`
    /// on the current attempt. Does **not** log — \[Collect\] calls
    /// [`FaultInjector::record_corruption`] once rows were actually
    /// corrupted (an empty payload has nothing to corrupt).
    pub fn should_corrupt(&self, iteration: usize) -> bool {
        let attempt = self.attempt();
        self.by_iter.get(&iteration).is_some_and(|faults| {
            faults
                .iter()
                .any(|(_, f)| f.kind == FaultKind::CorruptPayload && attempt < f.fires)
        })
    }

    /// Records that \[Collect\] corrupted `iteration`'s staged rows.
    pub fn record_corruption(&self, iteration: usize) {
        self.log.lock().push(InjectionRecord {
            iteration,
            attempt: self.attempt(),
            stage: StageId::Collect.name().to_owned(),
            kind: FaultKind::CorruptPayload,
            shard: 0,
            slow_nanos: 0,
        });
    }

    /// Drains the firing log, sorted into a deterministic order (stage
    /// threads may append concurrently, so arrival order is not stable;
    /// the sorted log is).
    pub fn drain_log(&self) -> Vec<InjectionRecord> {
        let mut log = std::mem::take(&mut *self.log.lock());
        log.sort();
        log
    }
}

/// An [`AuditSink`] decorator that deterministically fails writes: lines
/// whose index (counting every line offered to this sink, from 0) is in
/// the configured set are dropped and counted instead of forwarded — the
/// audit-sink half of fault injection, and the test double for the
/// best-effort sink contract ([`FileSink`](crate::audit::FileSink)
/// behaves the same way when its writer errors).
pub struct FaultySink<S> {
    inner: S,
    drop_lines: Vec<u64>,
    written: u64,
    dropped: Arc<AtomicU64>,
}

impl<S: fmt::Debug> fmt::Debug for FaultySink<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultySink")
            .field("inner", &self.inner)
            .field("drop_lines", &self.drop_lines)
            .field("written", &self.written)
            .finish()
    }
}

impl<S: AuditSink> FaultySink<S> {
    /// Wraps `inner`, dropping the lines with the given indices.
    pub fn new(inner: S, drop_lines: Vec<u64>) -> Self {
        FaultySink {
            inner,
            drop_lines,
            written: 0,
            dropped: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A shared handle to the dropped-line counter (usable after the sink
    /// moved into a pipeline).
    pub fn dropped_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.dropped)
    }
}

impl<S: AuditSink> AuditSink for FaultySink<S> {
    fn write_line(&mut self, line: &str) {
        let index = self.written;
        self.written += 1;
        if self.drop_lines.contains(&index) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inner.write_line(line);
        }
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::MemorySink;

    fn fault(iteration: usize, stage: &str, kind: FaultKind, fires: u32) -> Fault {
        Fault {
            iteration,
            stage: stage.to_owned(),
            shard: 1,
            kind,
            fires,
            slow_nanos: if kind == FaultKind::SlowShard { 500 } else { 0 },
        }
    }

    #[test]
    fn json_spec_round_trips() {
        let plan = FaultPlan {
            seed: Some(42),
            faults: vec![
                fault(3, "Train", FaultKind::StageError, 2),
                fault(5, "Collect", FaultKind::CorruptPayload, u32::MAX),
            ],
        };
        let json = plan.to_json();
        assert_eq!(FaultPlan::from_json(&json).unwrap(), plan);
        assert!(FaultPlan::from_json("{nope").is_err());
        assert!(FaultPlan::from_json(r#"{"faults":[{"iteration":0,"stage":"Plan","shard":0,"kind":"meteor_strike","fires":1,"slow_nanos":0}]}"#).is_err());
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
        assert!(FaultPlan::seeded(9, 0, 6).is_empty());
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
        let inj = armed(vec![
            fault(0, "Collect", FaultKind::WorkerPanic, 1),
            fault(0, "Train", FaultKind::SlowShard, 1),
            fault(1, "anywhere", FaultKind::CorruptPayload, 1),
        ]);
        assert!(inj.checksums_enabled());
        assert_eq!(inj.worker_panic(0, StageId::Collect), Some(1));
        assert_eq!(inj.worker_panic(0, StageId::Insert), None);
        inj.fire_slowdowns(0, StageId::Collect);
        inj.fire_slowdowns(0, StageId::Train);
        let slow: Vec<_> = inj
            .drain_log()
            .into_iter()
            .filter(|r| r.kind == FaultKind::SlowShard)
            .map(|r| (r.stage, r.shard, r.slow_nanos))
            .collect();
        assert_eq!(slow, vec![("Train".to_owned(), 1, 500)]);
        assert!(inj.should_corrupt(1));
        assert!(!inj.should_corrupt(0));
        inj.begin_attempt(1);
        assert!(!inj.should_corrupt(1));

        let no_corruption = armed(vec![fault(0, "Plan", FaultKind::StageError, 1)]);
        assert!(!no_corruption.checksums_enabled());
    }

    #[test]
    fn faulty_sink_drops_configured_lines_only() {
        let mem = MemorySink::new();
        let mut sink = FaultySink::new(mem.clone(), vec![1, 3]);
        let dropped = sink.dropped_counter();
        for k in 0..5 {
            sink.write_line(&format!("line{k}"));
        }
        assert_eq!(mem.lines(), vec!["line0", "line2", "line4"]);
        assert_eq!(dropped.load(Ordering::Relaxed), 2);
    }
}
