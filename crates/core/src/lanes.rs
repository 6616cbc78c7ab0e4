//! The pipeline's protocol, stated once, and the one interpreter every
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
//! written. A lane whose `Exec` is out is not enabled until the body hands
//! its payload back ([`Links::executed`]).
//!
//! [`dispatch`] is the interpreter: a thread takes the next enabled op of
//! any lane — alone, in register order — runs each `Exec` outside the lock
//! and sleeps while no op is enabled. The register schedules run one, on
//! the calling thread; `Threaded` runs `min(LANES, pool width)` as one
//! region on the pool's workers, so a stage region entered from one runs
//! inline. `Sequential` is the same program with one payload
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
use crate::workers::WorkerPool;

const STAGES: usize = StageId::COUNT;

/// A payload as the lanes hand it on: boxed, so a hand-off moves a pointer.
type Payload = Box<StagePayload>;

/// How many adjacent stages each lane runs back to back on one payload:
/// `[Plan] [Collect, Exchange] [Insert] [Train]`. \[Exchange\] is one
/// traffic assignment; it rides with the stage that hands it the payload
/// rather than paying for a lane and a channel hop of its own.
const LANE_STAGES: [usize; 4] = [1, 2, 1, 1];
const LANES: usize = LANE_STAGES.len();

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
    /// Its `Exec` is out: the body has the payload, and the lane stays at
    /// that op until [`Links::executed`] hands it back.
    executing: bool,
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
                executing: false,
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
        let op = self.program[lane][cur.pc];
        if cur.executing {
            return Step::Blocked(op);
        }
        if self.closed && !cur.done {
            self.chans[0].extend(cur.held.take());
            cur.done = true;
        }
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
                cur.executing = true;
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
        let cur = &mut self.lanes[lane];
        (cur.held, cur.executing) = (Some(payload), false);
        cur.pc += 1;
        if let Err(e) = result {
            self.error.get_or_insert(e);
            self.closed = true;
        }
    }
}

/// Drives iterations `range` through the stage `bodies` under `schedule`
/// (resolved): its [`payloads`] from `pool` circulate, and all of them are
/// back in `pool` when it returns, whatever became of the run. `Threaded`
/// dispatches on up to [`LANES`] of `workers`' threads, the others on the
/// calling thread.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive(
    program: &Program,
    schedule: Schedule,
    workers: WorkerPool,
    bodies: [&mut Body<'_>; STAGES],
    pool: &mut PayloadPool,
    ctx: &StageCtx<'_>,
    range: Range<usize>,
    records: &mut [IterationRecord],
) -> Result<(), ScratchError> {
    let payloads = (0..payloads(schedule)).map(|_| pool.take(ctx.shared.dim));
    let links = Links::new(program, range, payloads, 1);
    let overlapped = schedule == Schedule::Threaded;
    let width = workers.threads().min(LANES);
    let state = Dispatch {
        links,
        records,
        stalled: [None; LANES],
        sleepers: 0,
        lone: !overlapped || width == 1,
        visit: STAGES - 1,
        ran: false,
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
    let links = shared.state.into_inner().links;
    // Back in the order they came out, so the next call's recycle path
    // again starts with the payload that retired last.
    for payload in links.chans.into_iter().flatten().rev() {
        pool.release(payload);
    }
    links.error.map_or(region, Err)
}

/// What the dispatch threads share: the lanes under one lock, and where
/// the threads with no op enabled sleep.
struct Shared<'p, 'r> {
    state: Mutex<Dispatch<'p, 'r>>,
    wake: Condvar,
}

struct Dispatch<'p, 'r> {
    links: Links<'p, Payload>,
    records: &'r mut [IterationRecord],
    /// Per lane, when an observed `Threaded` run first found its `Wait`
    /// blocked: a `Stall` once the wait passes.
    stalled: [Option<u64>; LANES],
    sleepers: usize,
    /// One dispatch thread, which replays the register order: a cycle
    /// visits the stages from \[Train\] back to \[Plan\], and a visit
    /// steps the stage's lane up to another stage's `Exec` or past its
    /// own batch — `Train(c−4), Insert(c−3), Exchange(c−2), Collect(c−1),
    /// Plan(c)`. With company a thread scans the lanes from \[Plan\], the
    /// critical lane, on (docs/perf.md, "One interpreter").
    lone: bool,
    /// The stage a lone thread visits, and whether its `Exec` ran yet.
    visit: usize,
    ran: bool,
}

impl Dispatch<'_, '_> {
    /// Runs enabled ops in scan order until one is an `Exec`: that lane,
    /// stage, batch and payload, or `None` once no op is enabled.
    /// `observed` records the stalls and each hand-off's channel depth.
    fn next(
        &mut self,
        ctx: &StageCtx<'_>,
        observed: bool,
    ) -> Option<(usize, StageId, usize, Payload)> {
        let observer = ctx.observer.filter(|_| observed);
        // Lanes in a row that had no op to run, or visits in a row that
        // stopped: a whole cycle of visits after the one that moved.
        let mut idle = 0;
        while idle < if self.lone { STAGES + 1 } else { LANES } {
            let (lane, may) = if self.lone {
                let stage = StageId::ALL[self.visit];
                let lane = lane_of(stage);
                let op = self.links.program[lane][self.links.lanes[lane].pc];
                let stop =
                    matches!(op, LaneOp::Exec(s) if s != stage) || self.ran && op == LaneOp::Recv;
                (lane, !stop)
            } else {
                (idle, true)
            };
            let batch = self.links.lanes[lane].batch;
            let records = &mut *self.records;
            let step = if may {
                self.links.step(lane, |p| retire(ctx, records, p))
            } else {
                Step::Done
            };
            let moved = match (step, observer) {
                (Step::Exec(stage, batch, p), _) => {
                    self.ran = true;
                    return Some((lane, stage, batch, p));
                }
                (Step::Ran(LaneOp::Wait(b)), Some(o)) => {
                    if let Some(start_ns) = self.stalled[lane].take() {
                        o.record(Event::Stall {
                            iteration: batch,
                            stage: b.waiter.name(),
                            watched: b.watched.name(),
                            lane: Lane::Stage(b.waiter.index() as u8),
                            start_ns,
                            dur_ns: o.now_ns().saturating_sub(start_ns),
                        });
                    }
                    true
                }
                (Step::Ran(LaneOp::Send), Some(o)) if lane + 1 < LANES => {
                    o.record(Event::ChannelDepth {
                        receiver: stages_of(lane + 1)[0].name(),
                        depth: self.links.chans[lane + 1].len() as u64,
                    });
                    true
                }
                (Step::Ran(_), _) => true,
                (Step::Blocked(LaneOp::Wait(_)), Some(o)) => {
                    self.stalled[lane].get_or_insert_with(|| o.now_ns());
                    false
                }
                (Step::Blocked(_) | Step::Done, _) => false,
            };
            if moved {
                idle = 0;
            } else if self.lone {
                (idle, self.visit, self.ran) =
                    (idle + 1, (self.visit + STAGES - 1) % STAGES, false);
            } else {
                idle += 1;
            }
        }
        None
    }
}

/// One dispatch thread, until every lane is done; `overlapped`
/// (`Threaded`) records each stage on its own trace lane.
fn dispatch(
    shared: &Shared<'_, '_>,
    bodies: &[Mutex<&mut Body<'_>>; STAGES],
    ctx: &StageCtx<'_>,
    overlapped: bool,
) {
    let mut unwind = CloseOnUnwind { shared, lane: None };
    let mut state = shared.state.lock();
    loop {
        let Some((lane, stage, batch, mut p)) = state.next(ctx, overlapped) else {
            if state.links.done() {
                break;
            }
            let out = state.links.lanes.iter().any(|c| c.executing);
            assert!(out, "the lane program stalled");
            state.sleepers += 1;
            state = (shared.wake.wait(state)).unwrap_or_else(PoisonError::into_inner);
            state.sleepers -= 1;
            continue;
        };
        // The ops run before this `Exec` may have enabled another.
        if state.sleepers > 0 {
            shared.wake.notify_one();
        }
        drop(state);
        unwind.lane = Some(lane);
        let on = match overlapped {
            true => Lane::Stage(stage.index() as u8),
            false => Lane::Main,
        };
        let body = &mut **bodies[stage.index()].lock();
        let result = timed_execute(stage, body, &ctx.at(batch, on), &mut p);
        unwind.lane = None;
        state = shared.state.lock();
        state.links.executed(lane, p, result);
    }
    drop(state);
    shared.wake.notify_all();
}

/// Shuts the lanes down if its dispatch thread unwinds: the lane whose
/// `Exec` it ran lost its payload with the unwind and counts as done, and
/// the other threads wake to wind the rest down instead of waiting on it.
struct CloseOnUnwind<'a, 'p, 'r> {
    shared: &'a Shared<'p, 'r>,
    lane: Option<usize>,
}

impl Drop for CloseOnUnwind<'_, '_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut state = self.shared.state.lock();
            state.links.closed = true;
            if let Some(lane) = self.lane {
                let cur = &mut state.links.lanes[lane];
                (cur.executing, cur.done) = (false, true);
            }
            drop(state);
            self.shared.wake.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    //! The exhaustive checker: a depth-first search over every order in
    //! which the lanes can take their steps, driving the shipped
    //! [`Links::step`] and [`Links::executed`] with stub stage bodies that
    //! log which batch each stage completed. A lane's `Exec` is two steps,
    //! as it is under the dispatch threads: taking the payload out, and
    //! handing it back with the body's result. Every lane, the one whose
    //! `Exec` is out included, is offered a step in between; [`Links`]
    //! must refuse the latter. A step that panics is a counterexample.

    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;
    use std::hash::{Hash, Hasher};
    use std::panic::{catch_unwind, AssertUnwindSafe};

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
        busy: Busy,
    }

    /// Whether [`Links`] keeps a lane whose `Exec` is out from stepping.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Busy {
        Honoured,
        /// The lane's flag is cleared as soon as its `Exec` is taken.
        Ignored,
        /// Every lane's flag is cleared once the lanes shut down.
        IgnoredOnClose,
    }

    const SHIPPED: Protocol = Protocol {
        program: WindowConfig::PAPER,
        depth: 1,
        payloads: STAGES + 1,
        window: WindowConfig::PAPER,
        busy: Busy::Honoured,
    };

    /// A model payload is the batch \[Plan\] stamped on it.
    #[derive(Clone)]
    struct State<'p> {
        links: Links<'p, usize>,
        /// Per lane, the `Exec` whose body has not handed its payload back.
        bodies: [Option<(StageId, usize, usize)>; LANES],
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
            (self.bodies, self.completed, self.retired).hash(&mut h);
            h.finish()
        }

        /// Payloads out of the recycle path, and all payloads.
        fn count(&self) -> (usize, usize) {
            let held = self.links.lanes.iter().filter(|c| c.held.is_some()).count()
                + self.bodies.iter().flatten().count();
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
        /// Takes one step of `lane` in `state` — the body of its `Exec`
        /// handing the payload back if `hand_back`, else its next op: the
        /// step's description, or `None` if the lane cannot move.
        fn advance(
            &self,
            state: &mut State<'_>,
            lane: usize,
            hand_back: bool,
        ) -> Result<Option<String>, String> {
            let name = stages_of(lane)[0].name();
            if hand_back {
                let Some((stage, batch, p)) = state.bodies[lane].take() else {
                    return Ok(None);
                };
                if stage != StageId::Plan && p != batch {
                    return Err(format!("{stage:?}({batch}) got batch {p}'s payload"));
                }
                let result = self.body(state, stage, batch)?;
                state.links.executed(lane, batch, result);
                return Ok(Some(format!("{name}:Executed({stage:?})@{batch}")));
            }
            let (batch, start) = (state.links.lanes[lane].batch, self.range.start);
            let op = state.links.program[lane][state.links.lanes[lane].pc];
            let (links, retired) = (&mut state.links, &mut state.retired);
            let mut out_of_order = None;
            let step = catch_unwind(AssertUnwindSafe(|| {
                links.step(lane, |&p| {
                    if p != start + *retired {
                        out_of_order =
                            Some(format!("retired batch {p} before {}", start + *retired));
                    }
                    *retired += 1;
                })
            }))
            .map_err(|panic| {
                let what = (panic.downcast_ref::<&str>().copied())
                    .or(panic.downcast_ref::<String>().map(String::as_str));
                format!("{name}:{op:?}@{batch} panicked: {}", what.unwrap_or("?"))
            })?;
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
                    state.bodies[lane] = Some((stage, batch, p));
                    if self.protocol.busy == Busy::Ignored {
                        state.links.lanes[lane].executing = false;
                    }
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
            let moves = (0..LANES).flat_map(|lane| [(lane, false), (lane, true)]);
            for (lane, hand_back) in moves {
                if !hand_back && state.links.lanes[lane].done {
                    continue;
                }
                let mut next = state.clone();
                let step = self.advance(&mut next, lane, hand_back);
                let Some(step) = step.map_err(|e| self.counterexample(&e))? else {
                    continue;
                };
                if next.links.closed && self.protocol.busy == Busy::IgnoredOnClose {
                    next.links
                        .lanes
                        .iter_mut()
                        .for_each(|c| c.executing = false);
                }
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
            // Where `drive` collects them from.
            let home = links.chans.iter().map(VecDeque::len).sum::<usize>();
            if home != self.protocol.payloads {
                return Err(format!(
                    "stranded: {} of {} payloads outside the channels",
                    self.protocol.payloads - home,
                    self.protocol.payloads
                ));
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
            bodies: [None; LANES],
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

    /// A lane whose `Exec` is out must not step. Were [`Links`] to let it,
    /// a second dispatch thread would take the same `Exec` again, its
    /// payload already gone; and were it to let a shutdown mark the lane
    /// done, the payload the body hands back later would never reach the
    /// recycle path, so the next run would mint a replacement.
    #[test]
    fn a_lane_stepping_while_its_exec_is_out_is_a_counterexample() {
        let err = counterexample(Protocol {
            busy: Busy::Ignored,
            ..SHIPPED
        });
        assert!(
            err.starts_with("Plan:Exec(Plan)@0 panicked: received"),
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
