//! The pipeline's protocol, stated once, and the two interpreters every
//! schedule runs it on.
//!
//! The stages are grouped into lanes of adjacent stages ([`LANE_STAGES`]),
//! and each lane runs one short program per mini-batch ([`program`]):
//! receive a payload, wait on the [`Barrier`]s its stages are the waiter
//! of, execute its stages, signal the barriers they are watched by, retire
//! the iteration (last lane only) and send the payload on. `STAGES + 1`
//! payloads circulate: they start on the recycle path that feeds the first
//! lane, and the last lane sends each retired one back.
//!
//! [`Links`] holds everything the lanes share, and [`Links::step`] performs
//! one op of one lane if it is enabled — the only place an op's effect is
//! written. The interpreters differ only in what an op that is not enabled
//! yet means:
//!
//! * [`threads`] (`Threaded`): one OS thread per lane, and the lane sleeps
//!   until a neighbour's op wakes it;
//! * [`step`] (`Sync`, `DataParallel`, `Sequential`): one thread, and the
//!   lane yields. A cycle visits the stages in reverse register order and
//!   lets each one's lane run through that stage's `Exec`, which replays
//!   the paper's Fig. 10 register order, `Train(c−4) … Plan(c)`.
//!
//! `Sequential`, the §IV-B straw-man, is the same program with one payload
//! ([`payloads`]).
//!
//! The tests explore every interleaving of the same [`Links::step`]
//! exhaustively.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Condvar, PoisonError};

use parking_lot::Mutex;

use crate::error::ScratchError;
use crate::pipeline::{retire, timed_execute, Schedule};
use crate::runtime::{IterationRecord, StageId};
use crate::stage::{Barrier, Body, StageCtx};
use crate::stages::{PayloadPool, StagePayload};
use crate::telemetry::{Event, Lane};

const STAGES: usize = StageId::COUNT;

/// A payload as the lanes hand it on: boxed, so a hand-off moves a pointer.
type Payload = Box<StagePayload>;

/// How many adjacent stages each lane runs back to back on one payload:
/// `[Plan] [Collect, Exchange] [Insert] [Train]`. \[Exchange\] is one
/// traffic assignment; it rides with the stage that hands it the payload
/// rather than paying for a thread and a channel hop of its own.
const LANE_STAGES: [usize; 4] = [1, 2, 1, 1];
const LANES: usize = LANE_STAGES.len();

/// The lane the calling thread runs itself under [`threads`] — `[Collect,
/// Exchange]`, the one that grows the payloads' staging arenas. On the
/// calling thread that memory comes from the allocator arena the payloads
/// were minted in and are later freed to; grown on a short-lived spawned
/// thread it would stay in whichever per-thread arena that thread was
/// dealt, and a process running pipeline after pipeline would creep up by
/// a different amount every time (docs/perf.md, "The overlapped driver").
const CALLER_LANE: usize = 1;

/// The stages of `lane`, in register order.
fn stages_of(lane: usize) -> &'static [StageId] {
    let first = LANE_STAGES[..lane].iter().sum::<usize>();
    &StageId::ALL[first..first + LANE_STAGES[lane]]
}

/// The lane that runs `stage`.
fn lane_of(stage: StageId) -> usize {
    (0..LANES)
        .rfind(|&l| stages_of(l)[0] <= stage)
        .expect("lane 0 starts at Plan")
}

/// One instruction of a lane's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneOp {
    /// Take the next payload from the lane's inbound channel.
    Recv,
    /// Until the barrier's watched stage has completed batch `i - lag`.
    Wait(Barrier),
    Exec(StageId),
    /// Publish that the barrier's watched stage completed batch `i`.
    Signal(Barrier),
    /// Record the finished iteration.
    Retire,
    /// Hand the payload to the next lane (the last lane: back to the first).
    Send,
}

/// Every lane's program.
pub(crate) type Program = [Vec<LaneOp>; LANES];

/// The lane programs that enforce `barriers`.
pub(crate) fn program(barriers: &[Barrier]) -> Program {
    std::array::from_fn(|lane| {
        let mut ops = vec![LaneOp::Recv];
        for &stage in stages_of(lane) {
            let of = |side: fn(&Barrier) -> StageId| {
                barriers.iter().filter(move |&b| side(b) == stage).copied()
            };
            ops.extend(of(|b| b.waiter).map(LaneOp::Wait));
            ops.push(LaneOp::Exec(stage));
            ops.extend(of(|b| b.watched).map(LaneOp::Signal));
        }
        ops.extend((lane + 1 == LANES).then_some(LaneOp::Retire));
        ops.push(LaneOp::Send);
        ops
    })
}

/// How many payloads circulate under `schedule`: `STAGES + 1`, or one for
/// `Sequential`, which so finishes each batch before it admits the next.
pub(crate) fn payloads(schedule: Schedule) -> usize {
    match schedule {
        Schedule::Sequential => 1,
        _ => STAGES + 1,
    }
}

/// Where one lane is in its program.
#[derive(Debug, Clone, Hash)]
struct Cursor<P> {
    pc: usize,
    /// The mini-batch the lane is on.
    batch: usize,
    held: Option<P>,
    done: bool,
}

/// What [`Links::step`] did.
#[derive(Debug)]
pub(crate) enum Step<P> {
    Ran(LaneOp),
    /// The op is not enabled yet.
    Blocked(LaneOp),
    /// The lane's next op is `Exec(stage)` of `batch`: the payload is the
    /// interpreter's until it hands it back through [`Links::executed`].
    Exec(StageId, usize, P),
    /// The lane has finished: its range is done, or the lanes shut down.
    Done,
}

/// The state the lanes share.
#[derive(Debug, Clone)]
pub(crate) struct Links<'p, P> {
    program: &'p Program,
    lanes: [Cursor<P>; LANES],
    /// `chans[l]` feeds lane `l`. The recycle path feeding the first lane
    /// is a stack holding every payload not in flight, so the payload that
    /// retired last — its arenas warm — is reused first; the hand-offs
    /// are queues of at most `depth`.
    chans: [VecDeque<P>; LANES],
    depth: usize,
    /// Per stage, the last batch a `Signal` published it completed.
    marks: [i64; STAGES],
    end: usize,
    /// The first error a stage returned: stored in the step that shuts the
    /// lanes down, so no lane can stop on its own account before it is.
    error: Option<ScratchError>,
    closed: bool,
}

impl<'p, P> Links<'p, P> {
    pub(crate) fn new(
        program: &'p Program,
        range: Range<usize>,
        payloads: impl IntoIterator<Item = P>,
        depth: usize,
    ) -> Self {
        let mut chans: [VecDeque<P>; LANES] = Default::default();
        chans[0].extend(payloads);
        Links {
            program,
            lanes: std::array::from_fn(|_| Cursor {
                pc: 0,
                batch: range.start,
                held: None,
                done: false,
            }),
            chans,
            depth,
            // Batches before the range committed in earlier segments.
            marks: [range.start as i64 - 1; STAGES],
            end: range.end,
            error: None,
            closed: false,
        }
    }

    fn done(&self) -> bool {
        self.lanes.iter().all(|c| c.done)
    }

    /// Performs `lane`'s next op if it is enabled.
    pub(crate) fn step(&mut self, lane: usize, retire: impl FnOnce(&P)) -> Step<P> {
        let cur = &mut self.lanes[lane];
        if self.closed && !cur.done {
            self.chans[0].extend(cur.held.take());
            cur.done = true;
        }
        let op = self.program[lane][cur.pc];
        match op {
            _ if cur.done => return Step::Done,
            LaneOp::Recv if cur.batch == self.end => {
                cur.done = true;
                return Step::Done;
            }
            LaneOp::Recv => match self.chans[lane].pop_front() {
                Some(p) => cur.held = Some(p),
                None => return Step::Blocked(op),
            },
            LaneOp::Wait(b) if self.marks[b.watched.index()] < cur.batch as i64 - b.lag as i64 => {
                return Step::Blocked(op)
            }
            LaneOp::Wait(_) => {}
            LaneOp::Exec(stage) => {
                cur.pc += 1;
                return Step::Exec(stage, cur.batch, cur.held.take().expect("received"));
            }
            LaneOp::Signal(b) => self.marks[b.watched.index()] = cur.batch as i64,
            LaneOp::Retire => retire(cur.held.as_ref().expect("received")),
            LaneOp::Send => {
                let next = (lane + 1) % LANES;
                if next > 0 && self.chans[next].len() >= self.depth {
                    return Step::Blocked(op);
                }
                let p = cur.held.take().expect("received");
                match next {
                    0 => self.chans[0].push_front(p),
                    _ => self.chans[next].push_back(p),
                }
                (cur.pc, cur.batch) = (0, cur.batch + 1);
                return Step::Ran(op);
            }
        }
        cur.pc += 1;
        Step::Ran(op)
    }

    /// Takes back the payload of `lane`'s `Exec` with the body's result. An
    /// error shuts the lanes down.
    pub(crate) fn executed(&mut self, lane: usize, payload: P, result: Result<(), ScratchError>) {
        self.lanes[lane].held = Some(payload);
        if let Err(e) = result {
            self.error.get_or_insert(e);
            self.closed = true;
        }
    }
}

/// Drives iterations `range` through the stage `bodies` under `schedule`
/// (resolved): its [`payloads`] from `pool` circulate, and all of them are
/// back in `pool` when it returns, whatever became of the run.
pub(crate) fn drive(
    program: &Program,
    schedule: Schedule,
    bodies: &mut [&mut Body<'_>; STAGES],
    pool: &mut PayloadPool,
    ctx: &StageCtx<'_>,
    range: Range<usize>,
    records: &mut [IterationRecord],
) -> Result<(), ScratchError> {
    let payloads = (0..payloads(schedule)).map(|_| pool.take(ctx.shared.dim));
    let mut links = Links::new(program, range, payloads, 1);
    match schedule {
        Schedule::Threaded => links = threads(links, bodies, ctx, records),
        Schedule::Auto => unreachable!("Auto resolved by effective_schedule"),
        _ => step(&mut links, bodies, ctx, records),
    }
    // Back in the order they came out, so the next call's recycle path
    // again starts with the payload that retired last.
    for payload in links.chans.into_iter().flatten().rev() {
        pool.release(payload);
    }
    links.error.map_or(Ok(()), Err)
}

/// The stepper: one cycle visits the stages in reverse register order,
/// and each visit runs the stage's lane up to any other stage's `Exec` or
/// the end of the batch — so with depth-1 hand-offs a cycle executes
/// `Train(c−4), Insert(c−3), Exchange(c−2), Collect(c−1), Plan(c)`. With
/// one payload (`Sequential`) one batch is in flight at a time.
fn step(
    links: &mut Links<'_, Payload>,
    bodies: &mut [&mut Body<'_>; STAGES],
    ctx: &StageCtx<'_>,
    records: &mut [IterationRecord],
) {
    while !links.done() {
        let mut moved = false;
        for lane in (0..LANES).rev() {
            for &stage in stages_of(lane).iter().rev() {
                let mut ran = false;
                loop {
                    let next = links.program[lane][links.lanes[lane].pc];
                    if matches!(next, LaneOp::Exec(s) if s != stage) || ran && next == LaneOp::Recv
                    {
                        break;
                    }
                    match links.step(lane, |p| retire(ctx, records, p)) {
                        Step::Exec(stage, batch, mut p) => {
                            let at = ctx.at(batch, Lane::Main);
                            let result = timed_execute(stage, bodies[stage.index()], &at, &mut p);
                            links.executed(lane, p, result);
                            ran = true;
                        }
                        Step::Ran(_) => {}
                        Step::Blocked(_) | Step::Done => break,
                    }
                    moved = true;
                }
            }
        }
        assert!(moved || links.done(), "the lane program stalled");
    }
}

/// The lanes' shared state under [`threads`], and one wake-up per lane.
struct Shared<'p> {
    links: Mutex<Links<'p, Payload>>,
    wakes: [Condvar; LANES],
}

/// Shuts the lanes down if its lane unwinds, so the others stop waiting
/// and the scope can re-raise the panic.
struct CloseOnUnwind<'a, 'p>(&'a Shared<'p>);

impl Drop for CloseOnUnwind<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.links.lock().closed = true;
            self.0.wakes.iter().for_each(Condvar::notify_one);
        }
    }
}

/// The overlapped interpreter: one thread per lane (the calling thread
/// takes [`CALLER_LANE`]); a lane whose next op is not enabled sleeps
/// until a neighbour's op wakes it.
fn threads<'p>(
    links: Links<'p, Payload>,
    bodies: &mut [&mut Body<'_>; STAGES],
    ctx: &StageCtx<'_>,
    records: &mut [IterationRecord],
) -> Links<'p, Payload> {
    let shared = Shared {
        links: Mutex::new(links),
        wakes: Default::default(),
    };
    std::thread::scope(|scope| {
        let (mut rest, mut records) = (&mut bodies[..], Some(records));
        let mut on_caller = None;
        for lane in 0..LANES {
            let (mine, tail) = rest.split_at_mut(stages_of(lane).len());
            rest = tail;
            let records = (lane + 1 == LANES).then(|| records.take()).flatten();
            let shared = &shared;
            let run = move || run_lane(shared, lane, mine, ctx, records);
            if lane == CALLER_LANE {
                on_caller = Some(run);
            } else {
                scope.spawn(run);
            }
        }
        on_caller.expect("the caller's lane is one of the lanes")();
    });
    shared.links.into_inner()
}

/// One lane of [`threads`], `bodies` its stages. A wait on a barrier that
/// blocked is recorded as a `Stall`, and every hand-off as the depth of
/// the channel it fed.
fn run_lane(
    shared: &Shared<'_>,
    lane: usize,
    bodies: &mut [&mut Body<'_>],
    ctx: &StageCtx<'_>,
    mut records: Option<&mut [IterationRecord]>,
) {
    let _close = CloseOnUnwind(shared);
    let first = stages_of(lane)[0].index();
    let (mut links, mut stalled) = (shared.links.lock(), None);
    loop {
        let batch = links.lanes[lane].batch;
        match links.step(lane, |p| {
            records.as_deref_mut().map_or((), |r| retire(ctx, r, p))
        }) {
            Step::Ran(op) => {
                let observer = ctx.observer;
                if let (LaneOp::Wait(b), Some(start_ns), Some(o)) = (op, stalled.take(), observer) {
                    o.record(Event::Stall {
                        iteration: batch,
                        stage: b.waiter.name(),
                        watched: b.watched.name(),
                        lane: Lane::Stage(b.waiter.index() as u8),
                        start_ns,
                        dur_ns: o.now_ns().saturating_sub(start_ns),
                    });
                }
                let receiver = StageId::ALL.get(first + bodies.len());
                if let (LaneOp::Send, Some(o), Some(receiver)) = (op, observer, receiver) {
                    let depth = links.chans[lane + 1].len() as u64;
                    o.record(Event::ChannelDepth {
                        receiver: receiver.name(),
                        depth,
                    });
                }
                // The lane the op may have enabled: the sender it made room
                // for, the receiver it fed, or the barrier's waiter.
                let woken = match op {
                    LaneOp::Recv => lane + LANES - 1,
                    LaneOp::Send => lane + 1,
                    LaneOp::Signal(b) => lane_of(b.waiter),
                    _ => continue,
                };
                shared.wakes[woken % LANES].notify_one();
            }
            Step::Blocked(op) => {
                if matches!(op, LaneOp::Wait(_)) && stalled.is_none() {
                    stalled = ctx.observer.map(|o| o.now_ns());
                }
                links = shared.wakes[lane]
                    .wait(links)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            Step::Exec(stage, batch, mut p) => {
                drop(links);
                let at = ctx.at(batch, Lane::Stage(stage.index() as u8));
                let result = timed_execute(stage, bodies[stage.index() - first], &at, &mut p);
                links = shared.links.lock();
                links.executed(lane, p, result);
            }
            Step::Done => break,
        }
    }
    if links.closed {
        shared.wakes.iter().for_each(Condvar::notify_one);
    }
}

#[cfg(test)]
mod tests {
    //! The exhaustive checker: a depth-first search over every order in
    //! which the lanes can take their steps, driving the shipped
    //! [`Links::step`] and [`Links::executed`] with stub stage bodies that
    //! log which batch each stage completed. A lane's `Exec` is two steps,
    //! as it is under the threads: taking the payload out, and handing it
    //! back with the body's result — other lanes may step in between.

    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;
    use std::hash::{Hash, Hasher};

    use super::*;
    use crate::config::WindowConfig;
    use crate::stage::barriers;

    /// What is checked: the program enforcing `program`'s barriers, with
    /// hand-offs of `depth` and `payloads` circulating, against the RAW
    /// distances of `window` — the window the Hold mask plans with.
    #[derive(Debug, Clone, Copy)]
    struct Protocol {
        program: WindowConfig,
        depth: usize,
        payloads: usize,
        window: WindowConfig,
    }

    const SHIPPED: Protocol = Protocol {
        program: WindowConfig::PAPER,
        depth: 1,
        payloads: STAGES + 1,
        window: WindowConfig::PAPER,
    };

    /// A model payload is the batch \[Plan\] stamped on it.
    #[derive(Clone)]
    struct State<'p> {
        links: Links<'p, usize>,
        /// Per lane, the `Exec` whose body has not handed its payload back.
        executing: [Option<(StageId, usize, usize)>; LANES],
        /// Per stage, the last batch it completed.
        completed: [i64; STAGES],
        retired: usize,
    }

    impl State<'_> {
        fn fingerprint(&self) -> u64 {
            let mut h = DefaultHasher::new();
            let links = &self.links;
            (&links.lanes, &links.chans, links.marks, links.closed).hash(&mut h);
            links.error.as_ref().map(ToString::to_string).hash(&mut h);
            (self.executing, self.completed, self.retired).hash(&mut h);
            h.finish()
        }

        /// Payloads out of the recycle path, and all payloads.
        fn count(&self) -> (usize, usize) {
            let held = self.links.lanes.iter().filter(|c| c.held.is_some()).count()
                + self.executing.iter().flatten().count();
            let queued: Vec<usize> = self.links.chans.iter().map(VecDeque::len).collect();
            let live = held + queued[1..].iter().sum::<usize>();
            (live, live + queued[0])
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
        /// Takes one step of `lane` in `state`: its description, or `None`
        /// if the lane cannot move.
        fn advance(&self, state: &mut State<'_>, lane: usize) -> Result<Option<String>, String> {
            let name = stages_of(lane)[0].name();
            if let Some((stage, batch, p)) = state.executing[lane].take() {
                if stage != StageId::Plan && p != batch {
                    return Err(format!("{stage:?}({batch}) got batch {p}'s payload"));
                }
                let result = self.body(state, stage, batch)?;
                state.links.executed(lane, batch, result);
                return Ok(Some(format!("{name}:Executed({stage:?})@{batch}")));
            }
            let (batch, start) = (state.links.lanes[lane].batch, self.range.start);
            let retired = &mut state.retired;
            let mut out_of_order = None;
            let step = state.links.step(lane, |&p| {
                if p != start + *retired {
                    out_of_order = Some(format!("retired batch {p} before {}", start + *retired));
                }
                *retired += 1;
            });
            if let Some(e) = out_of_order {
                return Err(e);
            }
            Ok(match step {
                Step::Blocked(_) => None,
                Step::Ran(LaneOp::Wait(b)) => {
                    Some(format!("{name}:Wait({:?}-{})@{batch}", b.watched, b.lag))
                }
                Step::Ran(LaneOp::Signal(b)) => {
                    Some(format!("{name}:Signal({:?})@{batch}", b.watched))
                }
                Step::Ran(op) => Some(format!("{name}:{op:?}@{batch}")),
                Step::Done => Some(format!("{name}:done")),
                Step::Exec(stage, batch, p) => {
                    state.executing[lane] = Some((stage, batch, p));
                    Some(format!("{name}:Exec({stage:?})@{batch}"))
                }
            })
        }

        /// The stub body of `stage` on `batch`: checks batch order and the
        /// RAW distances, fails where the fault is injected.
        fn body(
            &self,
            state: &mut State<'_>,
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
        fn explore(&mut self, state: &State<'_>) -> Result<f64, String> {
            let mut interleavings = 0.0;
            let mut moved = false;
            for lane in (0..LANES).filter(|&l| !state.links.lanes[l].done) {
                let mut next = state.clone();
                let step = self.advance(&mut next, lane);
                let Some(step) = step.map_err(|e| self.counterexample(&e))? else {
                    continue;
                };
                moved = true;
                let (live, total) = next.count();
                if total != self.protocol.payloads {
                    return Err(self.counterexample(&format!("{total} payloads after {step}")));
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

        /// The properties of a state no lane can leave.
        fn finished(&self, state: &State<'_>) -> Result<(), String> {
            let links = &state.links;
            if let Some(stuck) = links.lanes.iter().position(|c| !c.done) {
                let c = &links.lanes[stuck];
                let op = links.program[stuck][c.pc];
                return Err(format!(
                    "deadlock: lane {stuck} blocked at {op:?}@{}",
                    c.batch
                ));
            }
            let expected = self
                .inject
                .map(|(stage, iteration)| ScratchError::Injected {
                    iteration,
                    stage: stage.name().to_owned(),
                });
            if links.error != expected {
                return Err(format!("returned {:?}, expected {expected:?}", links.error));
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
        let program = program(&barriers(protocol.program));
        let payloads = vec![usize::MAX; protocol.payloads];
        let start = State {
            links: Links::new(&program, range.clone(), payloads, protocol.depth),
            executing: [None; LANES],
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

    /// Every segment `start..end` of a trace of up to [`BATCHES`] batches
    /// (a segment's interleavings do not depend on the batches around
    /// it), fault-free and with every (stage, batch) failing in turn.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "millions of states: run with --release")]
    fn the_lane_program_is_safe_in_every_interleaving() {
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
            "lane checker: {runs} segments × faults, {} states, {:.3e} interleavings, \
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
            program: WindowConfig { past: 4, future: 2 },
            ..SHIPPED
        });
        let raw23 = "before Train(0) completed (RAW-2/3, distance 4)";
        assert!(err.contains(raw23), "{err}");
        let stricter = Protocol {
            program: WindowConfig { past: 2, future: 2 },
            ..SHIPPED
        };
        check(stricter, 0..BATCHES, None).expect("lag 3 is safe");
    }

    /// With nowhere to put a payload the pipeline stops at its first
    /// hand-off.
    #[test]
    fn a_depth_zero_hand_off_deadlocks_at_the_first_send() {
        let err = counterexample(Protocol {
            depth: 0,
            ..SHIPPED
        });
        assert!(
            err.starts_with("deadlock: lane 0 blocked at Send@0"),
            "{err}"
        );
        assert!(
            err.ends_with("trace: Plan:Recv@0 Plan:Exec(Plan)@0 Plan:Executed(Plan)@0"),
            "{err}"
        );
    }

    /// One payload fewer only bounds how far \[Plan\] runs ahead: every
    /// property holds, and no more than five payloads are ever live. One
    /// payload is the program `Sequential` runs: safe, one batch live.
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
}
