//! The runtime's executor: it runs [`Schedule::edges`], the graph
//! [`memsim::PipelineSim`] schedules on.
//!
//! A node is one stage of one mini-batch. Stage `s`'s next node is the
//! batch after the last one it completed; it is ready once the stage's
//! body is back and every edge naming `s` as waiter is met — the stage
//! before it in the batch, the stage itself one batch back, \[Train\] as
//! many batches back as payloads circulate (the payload ring), and
//! \[Collect\]'s two hazard barriers. [`Graph`] holds that state and the
//! payloads: \[Plan\] takes one from the recycle stack, each stage hands
//! it on through its batch's slot, and \[Train\]'s completion retires the
//! batch and puts the payload back on the stack — the only place a
//! node's effect is written.
//!
//! [`dispatch`] runs the graph: a thread takes, under one lock, the ready
//! node with the lowest key, runs the stage body outside the lock and
//! sleeps while no node is ready. The register schedules run one, on the
//! calling thread; `Threaded` runs `min(stages, pool width)` as one region
//! on the pool's workers, so a stage region entered from one runs inline.
//! A lone thread takes the lowest cycle (batch + stage) first, the later
//! stage on a tie: that replays the register order, `Train(c−4) …
//! Plan(c)`. `Sequential` is the same graph with one payload ([`payloads`]),
//! which so runs batch at a time.
//!
//! The tests explore every order in which ready nodes start and running
//! nodes finish, exhaustively, on the same [`Graph`].

use std::ops::Range;
use std::sync::{Condvar, PoisonError};

use memsim::Edge;
use parking_lot::Mutex;

use crate::error::ScratchError;
use crate::pipeline::{retire, timed_execute, Schedule};
use crate::runtime::{IterationRecord, StageId};
use crate::stage::{Body, StageCtx};
use crate::stages::{PayloadPool, StagePayload};
use crate::telemetry::{Event, Lane};
use crate::workers::WorkerPool;

const STAGES: usize = StageId::COUNT;

/// The last stage, whose completion retires the batch.
const TRAIN: usize = STAGES - 1;

/// A payload as the stages hand it on: boxed, so a hand-off moves a pointer.
type Payload = Box<StagePayload>;

/// How many payloads circulate under `schedule`: `STAGES + 1`, or one for
/// `Sequential`, which so finishes each batch before it admits the next.
pub(crate) fn payloads(schedule: Schedule) -> usize {
    match schedule {
        Schedule::Sequential => 1,
        _ => STAGES + 1,
    }
}

/// The state of a run's graph.
#[derive(Debug, Clone)]
pub(crate) struct Graph<P> {
    edges: Vec<Edge>,
    /// Per stage, the last batch it completed.
    done: [i64; STAGES],
    /// Per stage, whether its body has the payload of its next node, until
    /// [`Graph::executed`] hands it back.
    running: [bool; STAGES],
    /// The payloads no batch holds, the one that retired last on top: its
    /// arenas are warm when \[Plan\] takes it.
    recycle: Vec<P>,
    /// Batch `i`'s payload between two of its stages, at `i % payloads`.
    slots: Vec<Option<P>>,
    end: usize,
    /// The first error a stage returned: it closes the graph, so no node
    /// starts after it.
    error: Option<ScratchError>,
    closed: bool,
}

impl<P> Graph<P> {
    pub(crate) fn new(edges: Vec<Edge>, range: Range<usize>, mut payloads: Vec<P>) -> Self {
        let slots = payloads.iter().map(|_| None).collect();
        // The first payload given is the first \[Plan\] takes.
        payloads.reverse();
        Graph {
            edges,
            // Batches before the range committed in earlier segments.
            done: [range.start as i64 - 1; STAGES],
            running: [false; STAGES],
            recycle: payloads,
            slots,
            end: range.end,
            error: None,
            closed: false,
        }
    }

    /// Stage `s`'s next node — its batch, and the first edge it still
    /// waits on — unless its body is out, its range is done or the graph
    /// is closed.
    fn next(&self, s: usize) -> Option<(usize, Option<&Edge>)> {
        let i = self.done[s] + 1;
        if self.closed || self.running[s] || i >= self.end as i64 {
            return None;
        }
        let met = |e: &&Edge| self.done[e.watched] >= i - e.lag as i64;
        let waits = (self.edges.iter()).find(|e| e.waiter == s && !met(e));
        Some((i as usize, waits))
    }

    /// The ready nodes, as (stage, batch).
    fn ready(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..STAGES).filter_map(|s| match self.next(s)? {
            (i, None) => Some((s, i)),
            (_, Some(_)) => None,
        })
    }

    /// The stage a node of `s` waits on although the stage before it has
    /// completed its batch: a stall, to an observer.
    fn stalled_on(&self, s: usize) -> Option<usize> {
        let (i, waits) = self.next(s)?;
        let arrived = s > 0 && self.done[s - 1] >= i as i64;
        waits.filter(|_| arrived).map(|e| e.watched)
    }

    /// Batches stage `s - 1` completed that stage `s` has not taken.
    fn backlog(&self, s: usize) -> u64 {
        (self.done[s - 1] - self.done[s]) as u64 - u64::from(self.running[s])
    }

    /// Starts stage `s`'s node, which is ready: its batch, and the payload
    /// its body holds until [`Graph::executed`].
    pub(crate) fn start(&mut self, s: usize) -> (usize, P) {
        let Some((i, None)) = self.next(s) else {
            panic!("{:?} has no ready node", StageId::ALL[s]);
        };
        self.running[s] = true;
        let payload = match s {
            0 => self.recycle.pop().expect("the ring edge leaves a payload"),
            _ => self.slot(i).take().expect("the chain edge delivered it"),
        };
        (i, payload)
    }

    /// Takes back stage `s`'s payload with its body's result. \[Train\]'s
    /// completion `retire`s the batch and recycles the payload; an error
    /// closes the graph.
    pub(crate) fn executed(
        &mut self,
        s: usize,
        payload: P,
        result: Result<(), ScratchError>,
        retire: impl FnOnce(&P),
    ) {
        self.running[s] = false;
        let i = (self.done[s] + 1) as usize;
        match result {
            Ok(()) if s == TRAIN => {
                self.done[s] += 1;
                retire(&payload);
                return self.recycle.push(payload);
            }
            Ok(()) => self.done[s] += 1,
            Err(e) => {
                self.error.get_or_insert(e);
                self.closed = true;
            }
        }
        *self.slot(i) = Some(payload);
    }

    fn slot(&mut self, i: usize) -> &mut Option<P> {
        let n = self.slots.len();
        &mut self.slots[i % n]
    }

    /// No node will start again, and every body is back.
    fn finished(&self) -> bool {
        let ran = self.closed || self.done[TRAIN] + 1 >= self.end as i64;
        ran && !self.running.contains(&true)
    }
}

/// Drives iterations `range` through the stage `bodies` under `schedule`
/// (resolved): its [`payloads`] from `pool` circulate, and all of them are
/// back in `pool` when it returns, whatever became of the run. `Threaded`
/// dispatches on up to one of `workers`' threads per stage, the others on
/// the calling thread.
pub(crate) fn drive(
    schedule: Schedule,
    workers: WorkerPool,
    bodies: [&mut Body<'_>; STAGES],
    pool: &mut PayloadPool,
    ctx: &StageCtx<'_>,
    range: Range<usize>,
    records: &mut [IterationRecord],
) -> Result<(), ScratchError> {
    let payloads = (0..payloads(schedule)).map(|_| pool.take(ctx.shared.dim));
    let graph = Graph::new(schedule.edges(), range, payloads.collect());
    let overlapped = schedule == Schedule::Threaded;
    let width = workers.threads().min(STAGES);
    let state = Dispatch {
        graph,
        records,
        stalled: [None; STAGES],
        sleepers: 0,
        lone: !overlapped || width == 1,
    };
    let (state, wake) = (Mutex::new(state), Condvar::new());
    let shared = Shared { state, wake };
    let bodies = bodies.map(Mutex::new);
    // A panic that leaves a pool dispatcher is the region's error; on the
    // calling thread it unwinds out of the run.
    let region = if overlapped {
        let dispatcher = || dispatch(&shared, &bodies, ctx, true);
        WorkerPool::new(width)
            .run_tasks(vec![dispatcher; width])
            .map(drop)
    } else {
        dispatch(&shared, &bodies, ctx, false);
        Ok(())
    };
    let graph = shared.state.into_inner().graph;
    // The recycle stack last, bottom to top, so the next call's \[Plan\]
    // again starts with the payload that retired last.
    for payload in graph.slots.into_iter().flatten().chain(graph.recycle) {
        pool.release(payload);
    }
    graph.error.map_or(region, Err)
}

/// What the dispatch threads share: the graph under one lock, and where
/// the threads with no ready node sleep.
struct Shared<'r> {
    state: Mutex<Dispatch<'r>>,
    wake: Condvar,
}

struct Dispatch<'r> {
    graph: Graph<Payload>,
    records: &'r mut [IterationRecord],
    /// Per stage, since when an observed `Threaded` run has seen its next
    /// node stalled, and on which stage: a `Stall` once the node starts.
    stalled: [Option<(u64, usize)>; STAGES],
    sleepers: usize,
    /// One dispatch thread, which takes the lowest cycle first and so
    /// replays the register order. With company a thread takes the lowest
    /// stage first: \[Plan\], the critical one (docs/perf.md, "One
    /// interpreter").
    lone: bool,
}

impl Dispatch<'_> {
    /// Starts the ready node with the lowest key: its stage, batch and
    /// payload, or `None` while no node is ready. `observed` records the
    /// stalls.
    fn next(&mut self, ctx: &StageCtx<'_>, observed: bool) -> Option<(usize, usize, Payload)> {
        if let Some(o) = ctx.observer.filter(|_| observed) {
            for s in 0..STAGES {
                if let Some(watched) = self.graph.stalled_on(s) {
                    self.stalled[s].get_or_insert_with(|| (o.now_ns(), watched));
                }
            }
        }
        let lone = self.lone;
        let key = |&(s, i): &(usize, usize)| if lone { (i + s, STAGES - s) } else { (s, 0) };
        let (s, _) = self.graph.ready().min_by_key(key)?;
        let (i, payload) = self.graph.start(s);
        if let (Some((start_ns, watched)), Some(o)) = (self.stalled[s].take(), ctx.observer) {
            o.record(Event::Stall {
                iteration: i,
                stage: StageId::ALL[s].name(),
                watched: StageId::ALL[watched].name(),
                lane: Lane::Stage(s as u8),
                start_ns,
                dur_ns: o.now_ns().saturating_sub(start_ns),
            });
        }
        Some((s, i, payload))
    }

    /// Takes back stage `s`'s payload; an observed `Threaded` run records
    /// the backlog its completion leaves in front of the next stage.
    fn executed(
        &mut self,
        ctx: &StageCtx<'_>,
        observed: bool,
        s: usize,
        payload: Payload,
        result: Result<(), ScratchError>,
    ) {
        let completed = result.is_ok();
        let records = &mut *self.records;
        (self.graph).executed(s, payload, result, |p| retire(ctx, records, p));
        if let Some(o) = ctx.observer.filter(|_| observed && completed && s < TRAIN) {
            o.record(Event::Backlog {
                stage: StageId::ALL[s + 1].name(),
                depth: self.graph.backlog(s + 1),
            });
        }
    }
}

/// One dispatch thread, until the graph is finished; `overlapped`
/// (`Threaded`) records each stage on its own trace lane.
fn dispatch(
    shared: &Shared<'_>,
    bodies: &[Mutex<&mut Body<'_>>; STAGES],
    ctx: &StageCtx<'_>,
    overlapped: bool,
) {
    let mut unwind = CloseOnUnwind {
        shared,
        stage: None,
    };
    let mut state = shared.state.lock();
    loop {
        let Some((s, batch, mut p)) = state.next(ctx, overlapped) else {
            if state.graph.finished() {
                break;
            }
            assert!(state.graph.running.contains(&true), "the graph stalled");
            state.sleepers += 1;
            state = (shared.wake.wait(state)).unwrap_or_else(PoisonError::into_inner);
            state.sleepers -= 1;
            continue;
        };
        // The completion before this start may have readied another node.
        if state.sleepers > 0 {
            shared.wake.notify_one();
        }
        drop(state);
        unwind.stage = Some(s);
        let stage = StageId::ALL[s];
        let on = match overlapped {
            true => Lane::Stage(s as u8),
            false => Lane::Main,
        };
        let body = &mut **bodies[s].lock();
        let result = timed_execute(stage, body, &ctx.at(batch, on), &mut p);
        unwind.stage = None;
        state = shared.state.lock();
        state.executed(ctx, overlapped, s, p, result);
    }
    drop(state);
    shared.wake.notify_all();
}

/// Closes the graph if its dispatch thread unwinds: the stage whose body
/// it ran lost its payload with the unwind and counts as back, and the
/// other threads wake to wind the rest down instead of waiting on it.
struct CloseOnUnwind<'a, 'r> {
    shared: &'a Shared<'r>,
    stage: Option<usize>,
}

impl Drop for CloseOnUnwind<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut state = self.shared.state.lock();
            state.graph.closed = true;
            if let Some(s) = self.stage {
                state.graph.running[s] = false;
            }
            drop(state);
            self.shared.wake.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    //! The exhaustive checker: a depth-first search over every order in
    //! which nodes can start and finish, driving the shipped
    //! [`Graph::start`] and [`Graph::executed`] with stub stage bodies that
    //! log which batch each stage completed. A node is two steps, as it is
    //! under the dispatch threads: starting, which takes its payload out,
    //! and finishing, which hands it back with the body's result. In every
    //! state any ready node may start and any running node may finish. A
    //! step that panics is a counterexample.

    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;
    use std::hash::{Hash, Hasher};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;
    use crate::config::WindowConfig;
    use crate::stage::barriers;

    /// What is checked: the graph with `barriers`' lags and `payloads`
    /// circulating, against the RAW distances of `window` — the window the
    /// Hold mask plans with.
    #[derive(Debug, Clone, Copy)]
    struct Protocol {
        barriers: WindowConfig,
        payloads: usize,
        window: WindowConfig,
        busy: Busy,
    }

    /// Whether [`Graph`] keeps a stage whose body is out from starting.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Busy {
        Honoured,
        /// The stage's `running` flag is cleared as soon as it starts.
        Ignored,
        /// Every `running` flag is cleared once the graph closes.
        IgnoredOnClose,
    }

    const SHIPPED: Protocol = Protocol {
        barriers: WindowConfig::PAPER,
        payloads: STAGES + 1,
        window: WindowConfig::PAPER,
        busy: Busy::Honoured,
    };

    impl Protocol {
        fn edges(self) -> Vec<Edge> {
            let mut edges = Edge::line(STAGES, self.payloads);
            edges.extend(barriers(self.barriers));
            edges
        }
    }

    /// A model payload is the batch \[Plan\] stamped on it.
    #[derive(Clone)]
    struct State {
        graph: Graph<usize>,
        /// Per stage, the (batch, payload) its body has not handed back.
        bodies: [Option<(usize, usize)>; STAGES],
        /// Per stage, the last batch it completed.
        completed: [i64; STAGES],
        retired: usize,
    }

    impl State {
        fn fingerprint(&self) -> u64 {
            let mut h = DefaultHasher::new();
            let g = &self.graph;
            (g.done, g.running, &g.recycle, &g.slots, g.closed).hash(&mut h);
            g.error.as_ref().map(ToString::to_string).hash(&mut h);
            (self.bodies, self.completed, self.retired).hash(&mut h);
            h.finish()
        }

        /// Payloads off the recycle stack, and payloads where `drive`
        /// collects them from.
        fn count(&self) -> (usize, usize) {
            let slotted = self.graph.slots.iter().flatten().count();
            let live = slotted + self.bodies.iter().flatten().count();
            (live, slotted + self.graph.recycle.len())
        }
    }

    #[derive(Debug, Default)]
    struct Stats {
        states: usize,
        interleavings: f64,
        max_live: usize,
    }

    struct Search {
        protocol: Protocol,
        range: Range<usize>,
        inject: Option<(StageId, usize)>,
        /// Interleavings from each state seen (keyed by fingerprint).
        seen: HashMap<u64, f64>,
        trace: Vec<String>,
        max_live: usize,
    }

    impl Search {
        /// Takes one step of stage `s` in `state` — its body handing the
        /// payload back if `finish`, else starting its next node: the
        /// step's description, or `None` if the stage cannot move.
        fn advance(
            &self,
            state: &mut State,
            s: usize,
            finish: bool,
        ) -> Result<Option<String>, String> {
            let stage = StageId::ALL[s];
            if finish {
                let Some((batch, p)) = state.bodies[s].take() else {
                    return Ok(None);
                };
                if stage != StageId::Plan && p != batch {
                    return Err(format!("{stage:?}({batch}) got batch {p}'s payload"));
                }
                let result = self.body(state, stage, batch)?;
                let (graph, retired, start) =
                    (&mut state.graph, &mut state.retired, self.range.start);
                let mut out_of_order = None;
                graph.executed(s, batch, result, |&p| {
                    if p != start + *retired {
                        out_of_order =
                            Some(format!("retired batch {p} before {}", start + *retired));
                    }
                    *retired += 1;
                });
                return match out_of_order {
                    Some(e) => Err(e),
                    None => Ok(Some(format!("{stage:?}:Finish@{batch}"))),
                };
            }
            if !state.graph.ready().any(|(r, _)| r == s) {
                return Ok(None);
            }
            let graph = &mut state.graph;
            let (batch, p) =
                catch_unwind(AssertUnwindSafe(|| graph.start(s))).map_err(|panic| {
                    let what = (panic.downcast_ref::<&str>().copied())
                        .or(panic.downcast_ref::<String>().map(String::as_str));
                    format!("{stage:?}:Start panicked: {}", what.unwrap_or("?"))
                })?;
            if let Some((out, _)) = state.bodies[s] {
                return Err(format!(
                    "{stage:?}({batch}) started while {stage:?}({out}) runs"
                ));
            }
            state.bodies[s] = Some((batch, p));
            if self.protocol.busy == Busy::Ignored {
                state.graph.running[s] = false;
            }
            Ok(Some(format!("{stage:?}:Start@{batch}")))
        }

        /// The stub body of `stage` on `batch`: checks batch order and the
        /// RAW distances, fails where the fault is injected.
        fn body(
            &self,
            state: &mut State,
            stage: StageId,
            batch: usize,
        ) -> Result<Result<(), ScratchError>, String> {
            let (i, window, done) = (batch as i64, self.protocol.window, &mut state.completed);
            if done[stage.index()] != i - 1 {
                return Err(format!("{stage:?}({i}) ran out of batch order"));
            }
            if stage == StageId::Collect {
                let raw = [
                    (StageId::Train, window.past, "RAW-2/3"),
                    (StageId::Insert, window.future, "RAW-4"),
                ];
                for (watched, distance, kind) in raw {
                    let need = i - i64::from(distance) - 1;
                    if done[watched.index()] < need {
                        return Err(format!(
                            "Collect({i}) started before {watched:?}({need}) completed \
                             ({kind}, distance {})",
                            distance + 1
                        ));
                    }
                }
            }
            if self.inject == Some((stage, batch)) {
                return Ok(Err(ScratchError::Injected {
                    iteration: batch,
                    stage: stage.name().to_owned(),
                }));
            }
            done[stage.index()] = i;
            Ok(Ok(()))
        }
    }

    impl Search {
        /// Every interleaving from `state`, counted; the first property a
        /// step breaks, with the trace that got there.
        fn explore(&mut self, state: &State) -> Result<f64, String> {
            let mut interleavings = 0.0;
            let mut moved = false;
            let moves = (0..STAGES).flat_map(|s| [(s, false), (s, true)]);
            for (s, finish) in moves {
                let mut next = state.clone();
                let step = self.advance(&mut next, s, finish);
                let Some(step) = step.map_err(|e| self.counterexample(&e))? else {
                    continue;
                };
                if next.graph.closed && self.protocol.busy == Busy::IgnoredOnClose {
                    next.graph.running = [false; STAGES];
                }
                moved = true;
                let (live, home) = next.count();
                let total = home + next.bodies.iter().flatten().count();
                if total != self.protocol.payloads {
                    return Err(self.counterexample(&format!("{total} payloads after {step}")));
                }
                // Where `drive` collects them, once its dispatchers are out.
                if next.graph.finished() && home != self.protocol.payloads {
                    self.trace.push(step);
                    return Err(self.counterexample(&format!(
                        "stranded: {} of {} payloads outside the graph",
                        self.protocol.payloads - home,
                        self.protocol.payloads
                    )));
                }
                self.max_live = self.max_live.max(live);
                let key = next.fingerprint();
                interleavings += match self.seen.get(&key) {
                    Some(&count) => count,
                    None => {
                        self.trace.push(step);
                        let count = self.explore(&next)?;
                        self.trace.pop();
                        self.seen.insert(key, count);
                        count
                    }
                };
            }
            if moved {
                return Ok(interleavings);
            }
            self.finished(state).map_err(|e| self.counterexample(&e))?;
            Ok(1.0)
        }

        /// The properties of a state no stage can leave.
        fn finished(&self, state: &State) -> Result<(), String> {
            let graph = &state.graph;
            if let Some((s, (i, waits))) = (0..STAGES).find_map(|s| Some((s, graph.next(s)?))) {
                let e = waits.expect("a ready node would have moved");
                return Err(format!(
                    "deadlock: {:?}({i}) waits on {:?}({})",
                    StageId::ALL[s],
                    StageId::ALL[e.watched],
                    i as i64 - e.lag as i64
                ));
            }
            let expected = self
                .inject
                .map(|(stage, iteration)| ScratchError::Injected {
                    iteration,
                    stage: stage.name().to_owned(),
                });
            if graph.error != expected {
                return Err(format!("returned {:?}, expected {expected:?}", graph.error));
            }
            let all = [self.range.end as i64 - 1; STAGES];
            if expected.is_none() && (state.retired != self.range.len() || state.completed != all) {
                return Err(format!("stopped early: {} retired", state.retired));
            }
            Ok(())
        }

        fn counterexample(&self, what: &str) -> String {
            format!("{what}\n  trace: {}", self.trace.join(" "))
        }
    }

    /// Explores every interleaving of `protocol` over `range`, with the
    /// stage body of `inject`'s (stage, batch) failing.
    fn check(
        protocol: Protocol,
        range: Range<usize>,
        inject: Option<(StageId, usize)>,
    ) -> Result<Stats, String> {
        let payloads = vec![usize::MAX; protocol.payloads];
        let start = State {
            graph: Graph::new(protocol.edges(), range.clone(), payloads),
            bodies: [None; STAGES],
            completed: [range.start as i64 - 1; STAGES],
            retired: 0,
        };
        let mut search = Search {
            protocol,
            range,
            inject,
            seen: HashMap::new(),
            trace: Vec::new(),
            max_live: 0,
        };
        let interleavings = search.explore(&start)?;
        Ok(Stats {
            states: search.seen.len() + 1,
            interleavings,
            max_live: search.max_live,
        })
    }

    /// The longest trace checked.
    const BATCHES: usize = 8;

    /// What is checked is the graph the runtime runs.
    #[test]
    fn the_checked_graph_is_the_schedules() {
        assert_eq!(SHIPPED.edges(), Schedule::Sync.edges());
        let one = Protocol {
            payloads: 1,
            ..SHIPPED
        };
        assert_eq!(one.edges(), Schedule::Sequential.edges());
    }

    /// Every segment `start..end` of a trace of up to [`BATCHES`] batches
    /// (a segment's interleavings do not depend on the batches around
    /// it), fault-free and with every (stage, batch) failing in turn.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "millions of states: run with --release")]
    fn the_graph_is_safe_in_every_interleaving() {
        let mut total = Stats::default();
        let mut runs = 0;
        for end in 0..=BATCHES {
            for start in 0..=end {
                let failing = (StageId::ALL.into_iter())
                    .flat_map(|s| (start..end).map(move |i| Some((s, i))));
                for inject in std::iter::once(None).chain(failing) {
                    let stats = check(SHIPPED, start..end, inject).unwrap_or_else(|e| {
                        panic!("segment {start}..{end}, failing {inject:?}: {e}")
                    });
                    total.states += stats.states;
                    total.interleavings += stats.interleavings;
                    total.max_live = total.max_live.max(stats.max_live);
                    runs += 1;
                }
            }
        }
        println!(
            "graph checker: {runs} segments × faults, {} states, {:.3e} interleavings, \
             at most {} payloads live",
            total.states, total.interleavings, total.max_live
        );
        assert_eq!(total.max_live, STAGES + 1, "the sixth payload is used");
    }

    fn counterexample(protocol: Protocol) -> String {
        let err = check(protocol, 0..BATCHES, None).expect_err("a counterexample");
        println!("{err}");
        err
    }

    /// A window one batch short on either side lets \[Plan\] pick a victim
    /// the pipeline's barriers do not wait for: the checker's first
    /// counterexamples sit at the distances `tests/hazards.rs` reports
    /// (3: "plan 3 … in-flight batch 0", 2: "plan 4 … upcoming batch 6").
    #[test]
    fn a_window_one_batch_short_is_a_raw_counterexample() {
        let short_past = WindowConfig { past: 2, future: 2 };
        let err = counterexample(Protocol {
            window: short_past,
            ..SHIPPED
        });
        let raw23 = "Collect(3) started before Train(0) completed (RAW-2/3, distance 3)";
        assert!(err.starts_with(raw23), "{err}");
        let short_future = WindowConfig { past: 3, future: 1 };
        let err = counterexample(Protocol {
            window: short_future,
            ..SHIPPED
        });
        let raw4 = "Collect(2) started before Insert(0) completed (RAW-4, distance 2)";
        assert!(err.starts_with(raw4), "{err}");
    }

    /// A barrier lag one batch longer than the window's distance lets
    /// \[Collect\] read a victim slot \[Train\] has not written yet. One
    /// batch shorter only waits longer.
    #[test]
    fn a_train_lag_off_by_one() {
        let err = counterexample(Protocol {
            barriers: WindowConfig { past: 4, future: 2 },
            ..SHIPPED
        });
        let raw23 = "before Train(0) completed (RAW-2/3, distance 4)";
        assert!(err.contains(raw23), "{err}");
        let stricter = Protocol {
            barriers: WindowConfig { past: 2, future: 2 },
            ..SHIPPED
        };
        check(stricter, 0..BATCHES, None).expect("lag 3 is safe");
    }

    /// One payload fewer only bounds how far \[Plan\] runs ahead: every
    /// property holds, and no more than five payloads are ever live. One
    /// payload is the graph `Sequential` runs: safe, one batch live.
    #[test]
    fn five_payloads_are_safe_and_all_used() {
        let five = check(
            Protocol {
                payloads: 5,
                ..SHIPPED
            },
            0..BATCHES,
            None,
        )
        .expect("safe");
        let six = check(SHIPPED, 0..BATCHES, None).expect("safe");
        println!("five payloads: {five:?}; six: {six:?}");
        assert_eq!((five.max_live, six.max_live), (5, 6));
        assert!(five.states < six.states);
        let one = Protocol {
            payloads: 1,
            ..SHIPPED
        };
        let one = check(one, 0..BATCHES, None).expect("safe");
        println!("one payload: {one:?}");
        assert_eq!(one.max_live, 1);
    }

    /// A stage whose body is out must not start again. Were [`Graph`] to
    /// let it, a second dispatch thread would start the same node again;
    /// and were it to count every body back once the graph closes, the
    /// dispatchers would finish while a body still held its payload, and
    /// `drive` would collect the payloads without it.
    #[test]
    fn a_stage_starting_while_its_body_is_out_is_a_counterexample() {
        let err = counterexample(Protocol {
            busy: Busy::Ignored,
            ..SHIPPED
        });
        assert!(
            err.starts_with("Plan(0) started while Plan(0) runs"),
            "{err}"
        );
        let on_close = Protocol {
            busy: Busy::IgnoredOnClose,
            ..SHIPPED
        };
        let err =
            check(on_close, 0..BATCHES, Some((StageId::Insert, 2))).expect_err("a counterexample");
        println!("{err}");
        assert!(
            err.starts_with("stranded: 1 of 6 payloads outside"),
            "{err}"
        );
    }
}
