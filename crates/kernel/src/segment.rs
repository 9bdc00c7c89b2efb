//! Run-to-completion segments: the thread-free process backend.
//!
//! The DATE 2004 paper's approach-B result hinges on modeling RTOS
//! services as plain procedure calls on the caller's thread instead of
//! coroutine switches. This module brings the same idea to the kernel
//! substrate itself: a **segment process** is a state machine
//! (`FnMut(&mut SegmentCtx) -> SegStep`) the scheduler calls *directly*
//! inside its evaluation loop — zero thread spawns, zero park/unpark, no
//! channels on the hot path. Each call runs one segment to completion and
//! returns either [`SegStep::Yield`] with a [`WaitRequest`] (the analogue
//! of a `wait_*` call on [`ProcessContext`](crate::ProcessContext)) or
//! [`SegStep::Done`].
//!
//! Thread-backed and segment-backed processes coexist in one simulator and
//! follow the identical scheduling protocol. A segment process is written
//! once; the simulator's [`ExecMode`] decides how
//! [`Simulator::spawn_segment`](crate::Simulator::spawn_segment) backs it —
//! inline in the scheduler loop, or on an OS thread that performs each
//! yielded wait as a blocking one. Layers above the kernel never branch on
//! the mode.

use crate::event::{Event, Wake};
use crate::process::{NotifyOp, ProcessContext, ProcessId};
use crate::time::{SimDuration, SimTime};

/// How a simulator backs its segment processes
/// ([`Simulator::spawn_segment`](crate::Simulator::spawn_segment)).
///
/// This mirrors the paper's two modeling approaches at the substrate
/// level: `Thread` is the coroutine-style handoff (every process an OS
/// thread, approach A's cost profile), `Segment` is run-to-completion
/// dispatch inside the scheduler loop (approach B's cost profile). Both
/// run the same state machines and produce identical simulated
/// behaviour; they differ only in host cost. Blocking closures
/// ([`Simulator::spawn`](crate::Simulator::spawn)) always get a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Each segment process runs on its own OS thread and blocks on every
    /// wait it yields.
    #[default]
    Thread,
    /// Segment processes are dispatched inline by the scheduler, with no
    /// backing thread.
    Segment,
}

impl ExecMode {
    /// Reads the `RTSIM_EXEC_MODE` environment override (`thread` or
    /// `segment`, case-insensitive), defaulting to [`ExecMode::Thread`]
    /// when it is unset.
    ///
    /// # Errors
    ///
    /// Returns a one-line message on any other value, so a typo never
    /// silently runs the wrong experiment.
    pub fn from_env() -> Result<ExecMode, String> {
        match std::env::var("RTSIM_EXEC_MODE") {
            Ok(v) if v.eq_ignore_ascii_case("segment") => Ok(ExecMode::Segment),
            Ok(v) if v.eq_ignore_ascii_case("thread") => Ok(ExecMode::Thread),
            Err(std::env::VarError::NotPresent) => Ok(ExecMode::Thread),
            Ok(v) => Err(format!(
                "RTSIM_EXEC_MODE must be `thread` or `segment`, got `{v}`"
            )),
            Err(std::env::VarError::NotUnicode(v)) => Err(format!(
                "RTSIM_EXEC_MODE must be `thread` or `segment`, got {v:?}"
            )),
        }
    }

    /// [`from_env`](ExecMode::from_env) for binaries: on a malformed value
    /// prints the message as one line on standard error and exits with
    /// status 2. Call it at the top of `main`, before any simulator is
    /// built.
    pub fn from_env_or_exit() -> ExecMode {
        ExecMode::from_env().unwrap_or_else(|message| {
            eprintln!("error: {message}");
            std::process::exit(2)
        })
    }

    /// Stable key used in reports and golden files.
    pub fn key(self) -> &'static str {
        match self {
            ExecMode::Thread => "thread",
            ExecMode::Segment => "segment",
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// The events a wait blocks on.
///
/// Almost every wait names exactly one event (`wait_event`,
/// `wait_event_for`, and the RTOS model's run and preemption events), so
/// that case is held inline and a steady-state dispatch allocates
/// nothing; `wait_any` keeps its `Vec`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventList {
    /// A single event.
    One(Event),
    /// Any number of events, in registration order; an event listed twice
    /// is registered twice (only the first wake counts).
    Many(Vec<Event>),
}

impl EventList {
    /// The events, in registration order.
    pub fn as_slice(&self) -> &[Event] {
        match self {
            EventList::One(e) => std::slice::from_ref(e),
            EventList::Many(events) => events,
        }
    }
}

/// The wait a segment requests when it yields — the exact analogue of the
/// `wait_*` family on [`ProcessContext`](crate::ProcessContext).
#[derive(Debug, Clone)]
pub enum WaitRequest {
    /// Sleep for a fixed duration (`wait_for`); zero still yields.
    Time(SimDuration),
    /// Block on events, optionally bounded by a timeout (`wait_event`,
    /// `wait_event_for`, `wait_any`, `wait_any_for`).
    Events {
        /// Events to wait on; must be non-empty when `timeout` is `None`.
        events: EventList,
        /// Timeout bound, if any.
        timeout: Option<SimDuration>,
    },
}

impl WaitRequest {
    /// `wait_for(d)` as a request.
    pub fn time(d: SimDuration) -> Self {
        WaitRequest::Time(d)
    }

    /// `wait_event(e)` as a request.
    pub fn event(e: Event) -> Self {
        WaitRequest::Events {
            events: EventList::One(e),
            timeout: None,
        }
    }

    /// `wait_event_for(e, timeout)` as a request.
    pub fn event_for(e: Event, timeout: SimDuration) -> Self {
        WaitRequest::Events {
            events: EventList::One(e),
            timeout: Some(timeout),
        }
    }
}

/// What one segment dispatch produced.
#[derive(Debug)]
pub enum SegStep {
    /// The process blocks on `WaitRequest`; the state machine will be
    /// called again when the wait completes.
    Yield(WaitRequest),
    /// The process body has finished; the state machine is dropped.
    Done,
}

/// The per-dispatch view of the kernel handed to a segment state machine.
///
/// Mirrors the non-blocking surface of
/// [`ProcessContext`](crate::ProcessContext): reading the clock, the wake
/// cause, and buffering event notifications (applied by the kernel when
/// the segment yields, exactly as a thread-backed process's buffered ops
/// are applied at its yield point — indistinguishable under the
/// one-runner protocol).
#[derive(Debug)]
pub struct SegmentCtx<'a> {
    pub(crate) pid: ProcessId,
    pub(crate) now: SimTime,
    pub(crate) wake: Wake,
    pub(crate) ops: &'a mut Vec<NotifyOp>,
}

impl SegmentCtx<'_> {
    /// Current simulation time (stable for the whole dispatch).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This process's id.
    #[inline]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// What ended the previous wait: [`Wake::Timeout`] on the first
    /// dispatch and after timed sleeps/timeouts, [`Wake::Event`] when an
    /// awaited event fired.
    #[inline]
    pub fn wake(&self) -> Wake {
        self.wake
    }

    /// Notifies `event` immediately (applied when this segment yields).
    #[inline]
    pub fn notify(&mut self, event: Event) {
        self.ops.push(NotifyOp::Immediate(event));
    }

    /// Notifies `event` in the next delta cycle.
    #[inline]
    pub fn notify_delta(&mut self, event: Event) {
        self.ops.push(NotifyOp::Delta(event));
    }

    /// Notifies `event` after `delay` (zero delay = delta notification).
    #[inline]
    pub fn notify_after(&mut self, event: Event, delay: SimDuration) {
        if delay.is_zero() {
            self.ops.push(NotifyOp::Delta(event));
        } else {
            self.ops.push(NotifyOp::Timed(event, delay));
        }
    }

    /// Cancels any pending delta or timed notification on `event`.
    #[inline]
    pub fn cancel(&mut self, event: Event) {
        self.ops.push(NotifyOp::Cancel(event));
    }
}

/// The non-blocking kernel surface shared by both process backends.
///
/// Code that only needs to read the clock and post notifications — wake
/// paths, communication primitives — takes `&mut dyn KernelHandle` and
/// works identically from a thread-backed process
/// ([`ProcessContext`](crate::ProcessContext)) or a segment dispatch
/// ([`SegmentCtx`]).
pub trait KernelHandle {
    /// Current simulation time.
    fn now(&self) -> SimTime;
    /// Immediate notification.
    fn notify(&mut self, event: Event);
    /// Delta notification.
    fn notify_delta(&mut self, event: Event);
    /// Timed notification (zero delay = delta).
    fn notify_after(&mut self, event: Event, delay: SimDuration);
    /// Cancel a pending notification.
    fn cancel(&mut self, event: Event);
}

impl KernelHandle for ProcessContext {
    fn now(&self) -> SimTime {
        ProcessContext::now(self)
    }
    fn notify(&mut self, event: Event) {
        ProcessContext::notify(self, event)
    }
    fn notify_delta(&mut self, event: Event) {
        ProcessContext::notify_delta(self, event)
    }
    fn notify_after(&mut self, event: Event, delay: SimDuration) {
        ProcessContext::notify_after(self, event, delay)
    }
    fn cancel(&mut self, event: Event) {
        ProcessContext::cancel(self, event)
    }
}

impl KernelHandle for SegmentCtx<'_> {
    fn now(&self) -> SimTime {
        SegmentCtx::now(self)
    }
    fn notify(&mut self, event: Event) {
        SegmentCtx::notify(self, event)
    }
    fn notify_delta(&mut self, event: Event) {
        SegmentCtx::notify_delta(self, event)
    }
    fn notify_after(&mut self, event: Event, delay: SimDuration) {
        SegmentCtx::notify_after(self, event, delay)
    }
    fn cancel(&mut self, event: Event) {
        SegmentCtx::cancel(self, event)
    }
}
