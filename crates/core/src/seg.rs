//! Run-to-completion drivers for tasks and hardware functions.
//!
//! A task's whole RTOS lifecycle — creation, CPU acquisition with its
//! wake-time overheads, preemptible computation, delays, blocking, the
//! relinquish protocol and termination — is a **frame stack** advanced
//! by [`SegTaskRunner::advance`]; a hardware function's is a
//! [`SegHwRunner`]. This is the only implementation of either lifecycle:
//!
//! - a script interpreter (see `rtsim-mcse`) embeds a runner in a kernel
//!   segment process, feeds intents ([`SegTaskRunner::execute`],
//!   [`delay`](SegTaskRunner::delay), ...) whenever `advance` reports
//!   [`SegControl::Idle`], and forwards every [`SegControl::Yield`] to the
//!   kernel;
//! - a closure body ([`TaskCtx`](crate::TaskCtx),
//!   [`HwCtx`](crate::HwCtx)) runs on a thread-backed process and turns
//!   each blocking call into one intent plus a blocking `drive` of the
//!   runner.
//!
//! The runners deliberately know nothing about what the task computes.

use rtsim_kernel::{
    ProcessContext, SegmentCtx, SimDuration, SimTime, Simulator, WaitRequest, Wake,
};
use rtsim_trace::{ActorId, ActorKind, OverheadKind, TaskState, TraceRecorder};

use crate::agent::{Agent, HwWaker, Waiter};
use crate::engine::{self, Engine, RelStep};
use crate::processor::TaskHandle;
use crate::task::TaskId;

/// What the owner of a runner must do after an
/// [`advance`](SegTaskRunner::advance) call.
#[derive(Debug)]
pub enum SegControl {
    /// Return this wait from the kernel segment; call `advance` again on
    /// the next dispatch.
    Yield(WaitRequest),
    /// The task is Running with no operation in flight: feed the next
    /// intent, then `advance` again.
    Idle,
    /// The task terminated; return `SegStep::Done`.
    Finished,
}

/// One suspended RTOS operation of a segment task (LIFO stack).
enum Frame {
    /// First activation: record Creation, go ready, wait for dispatch.
    Start,
    /// Waiting for the CPU grant (`None`), then consuming the wake-time
    /// overheads still pending, one wait each (see [`WAKE_OVERHEADS`]).
    Acquire(Option<[Option<SimDuration>; 3]>),
    /// One give-up of the CPU, driven phase by phase through
    /// [`Engine::relinquish_step`].
    Relinquish {
        next_state: TaskState,
        requeue: bool,
        phase: u8,
    },
    /// Preemptible computation with time-accurate preemption and
    /// time-slice support. `started` is `Some` while a wait is in flight;
    /// its take distinguishes a fresh loop entry from wake processing.
    Execute {
        remaining: SimDuration,
        started: Option<SimTime>,
    },
    /// Timed sleep with a pre-computed wake instant: the wake instant is
    /// `call time + d` regardless of the overhead spent giving the CPU up.
    Delay { wake_at: SimTime, slept: bool },
}

/// The wake-time overheads an acquisition consumes, in order: scheduling
/// (when the dispatch ran the scheduler), migration (SMP), context load.
const WAKE_OVERHEADS: [OverheadKind; 3] = [
    OverheadKind::Scheduling,
    OverheadKind::Migration,
    OverheadKind::ContextLoad,
];

/// Outcome of stepping one frame.
enum FrameStep {
    /// Suspend here; re-step this frame on the next dispatch.
    Yield(WaitRequest),
    /// The frame completed.
    Pop,
    /// Keep this frame, but first give the CPU up (requeued as Ready)
    /// and acquire it again.
    GiveUpCpu,
    /// Replace this frame by a fresh CPU acquisition.
    Acquire,
}

/// Pushes the relinquish + re-acquire pair every yield of the CPU goes
/// through (the relinquish on top, so it runs first).
fn push_resume(stack: &mut Vec<Frame>, next_state: TaskState, requeue: bool) {
    stack.push(Frame::Acquire(None));
    stack.push(Frame::Relinquish {
        next_state,
        requeue,
        phase: 0,
    });
}

fn step_start(engine: &dyn Engine, me: TaskId, ctx: &mut SegmentCtx<'_>) -> FrameStep {
    {
        let mut st = engine.shared().lock();
        let now = ctx.now();
        st.set_task_state(me, now, TaskState::Created);
    }
    engine.make_ready(ctx, me);
    FrameStep::Acquire
}

/// Awaits the CPU grant, then consumes the wake-time overheads one wait
/// at a time.
fn step_acquire(
    engine: &dyn Engine,
    me: TaskId,
    ctx: &mut SegmentCtx<'_>,
    overheads: &mut Option<[Option<SimDuration>; 3]>,
) -> FrameStep {
    let mut st = engine.shared().lock();
    let pending = match overheads {
        Some(pending) => pending,
        None => {
            let entry = st.entry_mut(me);
            if !entry.run_granted {
                return FrameStep::Yield(WaitRequest::event(entry.run_event));
            }
            entry.run_granted = false;
            overheads.insert([
                entry.wake_sched.take(),
                entry.wake_migration.take(),
                entry.wake_load.take(),
            ])
        }
    };
    let now = ctx.now();
    for (slot, kind) in pending.iter_mut().zip(WAKE_OVERHEADS) {
        if let Some(d) = slot.take() {
            st.record_overhead(me, now, kind, d);
            return FrameStep::Yield(WaitRequest::time(d));
        }
    }
    st.note_core(me, now);
    st.set_task_state(me, now, TaskState::Running);
    let entry = st.entry_mut(me);
    entry.dispatched_at = now;
    if let Some(core) = entry.core {
        entry.last_core = Some(core);
    }
    FrameStep::Pop
}

fn step_relinquish(
    engine: &dyn Engine,
    me: TaskId,
    ctx: &mut SegmentCtx<'_>,
    next_state: TaskState,
    requeue: bool,
    phase: &mut u8,
) -> FrameStep {
    match engine.relinquish_step(ctx, me, next_state, requeue, *phase) {
        RelStep::Wait(d) => {
            *phase += 1;
            FrameStep::Yield(WaitRequest::time(d))
        }
        RelStep::Done => FrameStep::Pop,
    }
}

fn step_execute(
    engine: &dyn Engine,
    me: TaskId,
    ctx: &mut SegmentCtx<'_>,
    remaining: &mut SimDuration,
    started: &mut Option<SimTime>,
) -> FrameStep {
    let mut st = engine.shared().lock();
    let now = ctx.now();
    if let Some(s) = started.take() {
        // A computation wait just ended: account the elapsed time exactly
        // (the paper's time-accurate preemption), then classify the wake.
        *remaining = remaining.saturating_sub(now - s);
        match ctx.wake() {
            Wake::Event(_) => {
                // Preempted: the remaining time survives for the resume.
                st.entry_mut(me).preempt_pending = false;
                return FrameStep::GiveUpCpu;
            }
            Wake::Timeout => {
                if remaining.is_zero() {
                    return FrameStep::Pop;
                }
                if st.preemption_granularity.is_none() {
                    // Quantum expired with work left: rotate to the back.
                    st.stats.quantum_expirations += 1;
                    return FrameStep::GiveUpCpu;
                }
                // Chunk boundary of the clock-driven baseline: fall
                // through to re-check the preemption flags.
            }
        }
    }
    let entry = st.entry_mut(me);
    let preempt_ev = entry.preempt_event;
    if std::mem::take(&mut entry.preempt_pending) {
        return FrameStep::GiveUpCpu;
    }
    if remaining.is_zero() {
        return FrameStep::Pop;
    }
    let slice = st.remaining_slice(me, now);
    if slice == Some(SimDuration::ZERO) {
        // The quantum is already exhausted — e.g. a fresh execute right
        // after one that consumed the slice exactly. Rotate synchronously
        // instead of arming a zero-delay slice timer: the delta-cycle
        // yield the timer would introduce lets same-instant events
        // interleave with the rotation, and under a preemption
        // granularity it never advances time at all.
        st.stats.quantum_expirations += 1;
        return FrameStep::GiveUpCpu;
    }
    let bound = match slice {
        Some(s) => s.min(*remaining),
        None => *remaining,
    };
    *started = Some(now);
    match st.preemption_granularity {
        None => FrameStep::Yield(WaitRequest::event_for(preempt_ev, bound)),
        Some(quantum) => FrameStep::Yield(WaitRequest::time(quantum.min(bound))),
    }
}

fn step_delay(
    engine: &dyn Engine,
    me: TaskId,
    ctx: &mut SegmentCtx<'_>,
    wake_at: SimTime,
    slept: &mut bool,
) -> FrameStep {
    if !*slept {
        *slept = true;
        let now = ctx.now();
        if wake_at > now {
            return FrameStep::Yield(WaitRequest::time(wake_at - now));
        }
    }
    engine.make_ready(ctx, me);
    FrameStep::Acquire
}

/// Advances a runner from a thread-backed process: calls `advance` on a
/// segment view of `kctx` and blocks on each wait it yields, until the
/// runner reports [`SegControl::Idle`] or [`SegControl::Finished`].
/// `wake` carries what ended the last wait from one call to the next.
pub(crate) fn drive(
    kctx: &mut ProcessContext,
    wake: &mut Wake,
    mut advance: impl FnMut(&mut SegmentCtx<'_>) -> SegControl,
) {
    while let SegControl::Yield(request) = advance(&mut kctx.segment(*wake)) {
        *wake = kctx.wait(request);
    }
}

/// Drives one RTOS task as a run-to-completion frame stack.
///
/// Created by [`Processor::register_seg_task`](crate::Processor::register_seg_task);
/// the owner embeds it in a kernel segment process and loops
/// [`advance`](SegTaskRunner::advance).
pub struct SegTaskRunner {
    pub(crate) handle: TaskHandle,
    pub(crate) recorder: TraceRecorder,
    stack: Vec<Frame>,
    done: bool,
}

impl SegTaskRunner {
    pub(crate) fn new(handle: TaskHandle, recorder: TraceRecorder) -> Self {
        SegTaskRunner {
            handle,
            recorder,
            stack: vec![Frame::Start],
            done: false,
        }
    }

    /// Runs frames until one suspends, the stack drains while the task is
    /// Running (feed an intent), or the task has terminated.
    pub fn advance(&mut self, ctx: &mut SegmentCtx<'_>) -> SegControl {
        let engine = self.handle.engine.as_ref();
        let me = self.handle.id;
        loop {
            let Some(mut frame) = self.stack.pop() else {
                return if self.done {
                    SegControl::Finished
                } else {
                    SegControl::Idle
                };
            };
            let step = match &mut frame {
                Frame::Start => step_start(engine, me, ctx),
                Frame::Acquire(overheads) => step_acquire(engine, me, ctx, overheads),
                Frame::Relinquish {
                    next_state,
                    requeue,
                    phase,
                } => step_relinquish(engine, me, ctx, *next_state, *requeue, phase),
                Frame::Execute { remaining, started } => {
                    step_execute(engine, me, ctx, remaining, started)
                }
                Frame::Delay { wake_at, slept } => step_delay(engine, me, ctx, *wake_at, slept),
            };
            match step {
                FrameStep::Yield(req) => {
                    self.stack.push(frame);
                    return SegControl::Yield(req);
                }
                FrameStep::Pop => {}
                FrameStep::GiveUpCpu => {
                    self.stack.push(frame);
                    push_resume(&mut self.stack, TaskState::Ready, true);
                }
                FrameStep::Acquire => self.stack.push(Frame::Acquire(None)),
            }
        }
    }

    /// Intent: consume `d` of preemptible CPU time
    /// (see [`TaskCtx::execute`](crate::TaskCtx::execute)).
    pub fn execute(&mut self, d: SimDuration) {
        self.push_intent(Frame::Execute {
            remaining: d,
            started: None,
        });
    }

    /// Intent: release the CPU until `d` after `now`
    /// (see [`TaskCtx::delay`](crate::TaskCtx::delay)).
    pub fn delay(&mut self, now: SimTime, d: SimDuration) {
        let wake_at = now.saturating_add(d);
        self.push_intent(Frame::Delay {
            wake_at,
            slept: false,
        });
        self.stack.push(Frame::Relinquish {
            next_state: TaskState::Waiting,
            requeue: false,
            phase: 0,
        });
    }

    /// Intent: block until woken through this task's [`Waiter`]
    /// (see [`TaskCtx::suspend`](crate::TaskCtx::suspend)).
    pub fn suspend(&mut self, resource: bool) {
        let state = if resource {
            TaskState::WaitingResource
        } else {
            TaskState::Waiting
        };
        debug_assert!(self.stack.is_empty(), "intent while an operation is in flight");
        push_resume(&mut self.stack, state, false);
    }

    /// Intent: terminate the task. After the final relinquish completes,
    /// [`advance`](SegTaskRunner::advance) reports `Finished`.
    pub fn finish(&mut self) {
        debug_assert!(self.stack.is_empty(), "intent while an operation is in flight");
        self.done = true;
        self.stack.push(Frame::Relinquish {
            next_state: TaskState::Terminated,
            requeue: false,
            phase: 0,
        });
    }

    /// Enters a critical region (never blocks; see
    /// [`TaskCtx::lock_preemption`](crate::TaskCtx::lock_preemption)).
    pub fn lock_preemption(&mut self) {
        engine::lock_preemption(self.handle.engine.as_ref(), self.handle.id);
    }

    /// Leaves a critical region; if a more urgent task became ready during
    /// it, queues the on-the-spot preemption.
    pub fn unlock_preemption(&mut self, now: SimTime) {
        if engine::unlock_preemption_prelude(self.handle.engine.as_ref(), self.handle.id, now) {
            self.push_intent_pair();
        }
    }

    /// Forces a scheduling decision after a priority change (see
    /// [`TaskCtx::reschedule`](crate::TaskCtx::reschedule)).
    pub fn reschedule(&mut self, now: SimTime) {
        if engine::reschedule_prelude(self.handle.engine.as_ref(), self.handle.id, now) {
            self.push_intent_pair();
        }
    }

    /// Voluntary preemption point: yields the CPU if a preemption is
    /// pending.
    pub fn preemption_point(&mut self) {
        if engine::take_preempt_pending(self.handle.engine.as_ref(), self.handle.id) {
            self.push_intent_pair();
        }
    }

    fn push_intent(&mut self, frame: Frame) {
        debug_assert!(self.stack.is_empty(), "intent while an operation is in flight");
        self.stack.push(frame);
    }

    fn push_intent_pair(&mut self) {
        debug_assert!(self.stack.is_empty(), "intent while an operation is in flight");
        push_resume(&mut self.stack, TaskState::Ready, true);
    }

    /// A cloneable handle for waking this task from elsewhere.
    pub fn handle(&self) -> TaskHandle {
        self.handle.clone()
    }

    /// This task's trace actor.
    pub fn actor(&self) -> ActorId {
        self.handle.actor
    }

    /// This task's name.
    pub fn name(&self) -> &str {
        self.handle.name()
    }

    /// Annotates the trace at `now`.
    pub fn annotate(&self, now: SimTime, label: &str) {
        self.recorder.annotate(self.handle.actor, now, label);
    }

    /// An [`Agent`] view over this task for the *non-blocking* operations
    /// (communication attempts). Blocking `Agent` calls on it panic —
    /// those are expressed as intents on the runner instead.
    pub fn agent<'r, 'c, 'a>(&'r self, ctx: &'c mut SegmentCtx<'a>) -> SegAgent<'r, 'c, 'a> {
        SegAgent {
            ctx,
            owner: Owner::Task(&self.handle),
            actor: self.handle.actor,
            recorder: &self.recorder,
        }
    }
}

impl std::fmt::Debug for SegTaskRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegTaskRunner")
            .field("task", &self.handle.name())
            .field("frames", &self.stack.len())
            .field("done", &self.done)
            .finish()
    }
}

/// One suspended operation of a segment hardware function.
enum HwFrame {
    Execute { d: SimDuration, slept: bool },
    Delay { d: SimDuration, slept: bool },
    Suspend { resource: bool, announced: bool },
}

/// Drives one hardware function (fully concurrent, no RTOS) as a
/// run-to-completion frame stack.
///
/// Created by [`register_seg_hw`].
pub struct SegHwRunner {
    waker: HwWaker,
    actor: ActorId,
    pub(crate) recorder: TraceRecorder,
    stack: Vec<HwFrame>,
    started: bool,
    done: bool,
}

/// Registers a hardware function without spawning a kernel process:
/// trace actor and wake event are created, and the caller embeds the
/// returned runner in a segment process (as
/// [`spawn_hw_function`](crate::spawn_hw_function) does on a thread).
pub fn register_seg_hw(sim: &mut Simulator, recorder: &TraceRecorder, name: &str) -> SegHwRunner {
    let actor = recorder.register(name, ActorKind::Task);
    let event = sim.event(&format!("{name}.hw_wake"));
    SegHwRunner {
        waker: HwWaker::new(event),
        actor,
        recorder: recorder.clone(),
        stack: Vec::new(),
        started: false,
        done: false,
    }
}

impl SegHwRunner {
    /// Runs frames until one suspends, the stack drains (feed an intent),
    /// or the function has finished.
    pub fn advance(&mut self, ctx: &mut SegmentCtx<'_>) -> SegControl {
        if !self.started {
            self.started = true;
            let now = ctx.now();
            self.recorder.state(self.actor, now, TaskState::Created);
            self.recorder.state(self.actor, now, TaskState::Running);
        }
        loop {
            let Some(frame) = self.stack.last_mut() else {
                if self.done {
                    self.recorder
                        .state(self.actor, ctx.now(), TaskState::Terminated);
                    return SegControl::Finished;
                }
                return SegControl::Idle;
            };
            match frame {
                HwFrame::Execute { d, slept } => {
                    if !*slept {
                        *slept = true;
                        return SegControl::Yield(WaitRequest::time(*d));
                    }
                    self.stack.pop();
                }
                HwFrame::Delay { d, slept } => {
                    if !*slept {
                        self.recorder
                            .state(self.actor, ctx.now(), TaskState::Waiting);
                        *slept = true;
                        return SegControl::Yield(WaitRequest::time(*d));
                    }
                    self.recorder
                        .state(self.actor, ctx.now(), TaskState::Running);
                    self.stack.pop();
                }
                HwFrame::Suspend {
                    resource,
                    announced,
                } => {
                    if !*announced {
                        let state = if *resource {
                            TaskState::WaitingResource
                        } else {
                            TaskState::Waiting
                        };
                        self.recorder.state(self.actor, ctx.now(), state);
                        *announced = true;
                    }
                    if self.waker.take_pending() {
                        self.recorder
                            .state(self.actor, ctx.now(), TaskState::Running);
                        self.stack.pop();
                    } else {
                        return SegControl::Yield(WaitRequest::event(self.waker.event()));
                    }
                }
            }
        }
    }

    /// Intent: consume `d` of (concurrent) computation time.
    pub fn execute(&mut self, d: SimDuration) {
        debug_assert!(self.stack.is_empty(), "intent while an operation is in flight");
        self.stack.push(HwFrame::Execute { d, slept: false });
    }

    /// Intent: sleep for `d`.
    pub fn delay(&mut self, d: SimDuration) {
        debug_assert!(self.stack.is_empty(), "intent while an operation is in flight");
        self.stack.push(HwFrame::Delay { d, slept: false });
    }

    /// Intent: block until woken through this function's [`Waiter`].
    pub fn suspend(&mut self, resource: bool) {
        debug_assert!(self.stack.is_empty(), "intent while an operation is in flight");
        self.stack.push(HwFrame::Suspend {
            resource,
            announced: false,
        });
    }

    /// Intent: the function's body is over; record Termination.
    pub fn finish(&mut self) {
        debug_assert!(self.stack.is_empty(), "intent while an operation is in flight");
        self.done = true;
    }

    /// How other processes wake this function.
    pub fn waiter(&self) -> Waiter {
        Waiter::Hw(self.waker.clone())
    }

    /// This function's trace actor.
    pub fn actor(&self) -> ActorId {
        self.actor
    }

    /// An [`Agent`] view over this function for the non-blocking
    /// operations (communication attempts).
    pub fn agent<'r, 'c, 'a>(&'r self, ctx: &'c mut SegmentCtx<'a>) -> SegAgent<'r, 'c, 'a> {
        SegAgent {
            ctx,
            owner: Owner::Hw(&self.waker),
            actor: self.actor,
            recorder: &self.recorder,
        }
    }
}

impl std::fmt::Debug for SegHwRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegHwRunner")
            .field("actor", &self.actor)
            .field("frames", &self.stack.len())
            .field("done", &self.done)
            .finish()
    }
}

/// The [`Agent`] view of a segment task or hardware function.
///
/// Supports exactly the non-blocking subset of [`Agent`] that the
/// communication *attempt* functions use: time, notifications, waiter,
/// tracing and preemption locks. The blocking calls (`execute`, `delay`,
/// `suspend`, `unlock_preemption`, `reschedule`) panic — on a runner
/// those are intents fed between attempts.
pub struct SegAgent<'r, 'c, 'a> {
    ctx: &'c mut SegmentCtx<'a>,
    owner: Owner<'r>,
    actor: ActorId,
    recorder: &'r TraceRecorder,
}

/// The runner a [`SegAgent`] speaks for, borrowed: a [`Waiter`] is only
/// cloned out of it when a relation actually registers one.
enum Owner<'r> {
    Task(&'r TaskHandle),
    Hw(&'r HwWaker),
}

impl Agent for SegAgent<'_, '_, '_> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn execute(&mut self, _d: SimDuration) {
        panic!("blocking Agent::execute on a run-to-completion segment");
    }

    fn delay(&mut self, _d: SimDuration) {
        panic!("blocking Agent::delay on a run-to-completion segment");
    }

    fn suspend(&mut self, _resource: bool) {
        panic!("blocking Agent::suspend on a run-to-completion segment");
    }

    fn waiter(&self) -> Waiter {
        match self.owner {
            Owner::Task(handle) => Waiter::Task(handle.clone()),
            Owner::Hw(waker) => Waiter::Hw(waker.clone()),
        }
    }

    fn trace_actor(&self) -> ActorId {
        self.actor
    }

    fn recorder(&self) -> &TraceRecorder {
        self.recorder
    }

    fn kernel(&mut self) -> &mut dyn rtsim_kernel::KernelHandle {
        self.ctx
    }

    fn lock_preemption(&mut self) {
        if let Owner::Task(handle) = self.owner {
            engine::lock_preemption(handle.engine.as_ref(), handle.id);
        }
    }

    fn unlock_preemption(&mut self) {
        if let Owner::Task(_) = self.owner {
            panic!("blocking Agent::unlock_preemption on a run-to-completion segment");
        }
    }

    fn reschedule(&mut self) {
        if let Owner::Task(_) = self.owner {
            panic!("blocking Agent::reschedule on a run-to-completion segment");
        }
    }
}

impl std::fmt::Debug for SegAgent<'_, '_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegAgent").field("actor", &self.actor).finish()
    }
}
