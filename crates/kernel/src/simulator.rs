//! The public simulator front-end.

use std::panic::{self, AssertUnwindSafe};

use crate::error::KernelError;
use crate::event::{Event, Wake};
use crate::process::{ProcessContext, ProcessId};
use crate::scheduler::{Homecoming, Kernel, KernelStats, Next};
use crate::segment::{ExecMode, SegStep, SegmentCtx};
use crate::sync::{unbounded, Receiver, Sender};
use crate::time::SimTime;

/// A discrete-event simulator: the SystemC-engine stand-in that everything
/// in `rtsim` runs on.
///
/// Typical lifecycle: create the simulator, create [`Event`]s, spawn
/// processes (each an ordinary closure receiving a
/// [`ProcessContext`]), then [`run`](Simulator::run) or
/// [`run_until`](Simulator::run_until). The simulator may be run multiple
/// times; each call continues from where the previous one stopped.
///
/// # Examples
///
/// ```
/// use rtsim_kernel::{SimDuration, SimTime, Simulator};
///
/// # fn main() -> Result<(), rtsim_kernel::KernelError> {
/// let mut sim = Simulator::new();
/// let ping = sim.event("ping");
/// let pong = sim.event("pong");
/// sim.spawn("a", move |ctx| {
///     for _ in 0..3 {
///         ctx.wait_for(SimDuration::from_ns(5));
///         ctx.notify(ping);
///         ctx.wait_event(pong);
///     }
/// });
/// sim.spawn("b", move |ctx| {
///     for _ in 0..3 {
///         ctx.wait_event(ping);
///         ctx.notify(pong);
///     }
/// });
/// sim.run()?;
/// assert_eq!(sim.now(), SimTime::from_ps(15_000));
/// # Ok(())
/// # }
/// ```
pub struct Simulator {
    /// The kernel, home between runs. A run that reaches a thread process
    /// passes it from thread to thread (see [`crate::process`]) until the
    /// run ends, and it comes back on `home_rx` before `run` returns.
    kernel: Option<Box<Kernel>>,
    home_tx: Sender<Homecoming>,
    home_rx: Receiver<Homecoming>,
    mode: ExecMode,
}

const HOME: &str = "the kernel is home between runs";

impl Simulator {
    /// Creates an empty simulator at time zero, with the execution mode
    /// taken from the `RTSIM_EXEC_MODE` environment variable (`thread` by
    /// default — see [`ExecMode::from_env`]).
    ///
    /// # Panics
    ///
    /// Panics if `RTSIM_EXEC_MODE` holds an unrecognised value. Binaries
    /// call [`ExecMode::from_env_or_exit`] first to report it cleanly.
    pub fn new() -> Self {
        Simulator::with_mode(ExecMode::from_env().unwrap_or_else(|message| panic!("{message}")))
    }

    /// Creates an empty simulator with an explicit execution mode,
    /// ignoring the environment. Tests that compare the two modes use
    /// this to stay immune to env races.
    pub fn with_mode(mode: ExecMode) -> Self {
        let (home_tx, home_rx) = unbounded();
        Simulator {
            kernel: Some(Box::new(Kernel::new())),
            home_tx,
            home_rx,
            mode,
        }
    }

    fn kernel(&self) -> &Kernel {
        self.kernel.as_deref().expect(HOME)
    }

    fn kernel_mut(&mut self) -> &mut Kernel {
        self.kernel.as_deref_mut().expect(HOME)
    }

    /// Runs the scheduler from this thread until the run ends, wherever it
    /// ends. The loop runs here until a thread process is next; that
    /// process then gets the kernel, and the run goes on from thread to
    /// thread until one of them sends the kernel home with the outcome.
    /// A panic while scheduling is re-raised here, with the kernel home.
    fn run_to(&mut self, limit: Option<SimTime>) -> Result<(), KernelError> {
        let mut kernel = self.kernel.take().expect(HOME);
        kernel.begin_run(limit);
        let outcome = match panic::catch_unwind(AssertUnwindSafe(|| kernel.advance())) {
            Ok(Ok(Next::Finished)) => Ok(Ok(())),
            Ok(Err(error)) => Ok(Err(error)),
            Err(payload) => Err(payload),
            step => {
                let resumed = kernel.pass(step, None, &self.home_tx);
                debug_assert!(resumed.is_none(), "the caller is not a process");
                let (back, outcome) = self.home_rx.recv().expect("the simulator keeps a sender");
                kernel = back;
                outcome
            }
        };
        self.kernel = Some(kernel);
        outcome.unwrap_or_else(|payload| panic::resume_unwind(payload))
    }

    /// Creates a named event. See [`Event`] for notification semantics.
    pub fn event(&mut self, name: &str) -> Event {
        self.kernel_mut().create_event(name)
    }

    /// Spawns a simulation process. The body starts executing (at the
    /// current simulation time) on the next `run`/`run_until` call.
    ///
    /// Processes may be spawned before the first run or between runs, but
    /// not from inside another process.
    pub fn spawn<F>(&mut self, name: &str, body: F) -> ProcessId
    where
        F: FnOnce(&mut ProcessContext) + Send + 'static,
    {
        let kernel = self.kernel.as_deref_mut().expect(HOME);
        kernel.spawn(name, &self.home_tx, body)
    }

    /// Spawns a process whose body is a segment state machine.
    ///
    /// Each call runs one segment: it receives a [`SegmentCtx`] (clock,
    /// wake cause, notification buffer) and returns [`SegStep::Yield`]
    /// with the wait to perform, or [`SegStep::Done`]. The simulator's
    /// [`ExecMode`] picks the backing: in [`ExecMode::Segment`] the
    /// scheduler calls the state machine inline, with no OS thread; in
    /// [`ExecMode::Thread`] an ordinary thread process calls it and
    /// blocks on each yielded wait. Scheduling order, statistics and
    /// event semantics are identical either way — only the host-side cost
    /// differs.
    pub fn spawn_segment<F>(&mut self, name: &str, mut body: F) -> ProcessId
    where
        F: FnMut(&mut SegmentCtx<'_>) -> SegStep + Send + 'static,
    {
        match self.mode {
            ExecMode::Segment => self.kernel_mut().spawn_segment(name, body),
            ExecMode::Thread => self.spawn(name, move |ctx| {
                let mut wake = Wake::Timeout;
                while let SegStep::Yield(request) = body(&mut ctx.segment(wake)) {
                    wake = ctx.wait(request);
                }
            }),
        }
    }

    /// Runs until event starvation (no runnable process and no pending
    /// notification).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::ProcessPanicked`] if a process body panics
    /// and [`KernelError::DeltaCycleOverflow`] on a zero-time livelock.
    pub fn run(&mut self) -> Result<(), KernelError> {
        self.run_to(None)
    }

    /// Runs until event starvation or until simulated time would pass
    /// `until`, whichever comes first. Activity scheduled exactly at
    /// `until` is processed, and afterwards [`now`](Simulator::now) is
    /// `until` (unless starvation happened first at a later implied time).
    ///
    /// # Errors
    ///
    /// Same as [`run`](Simulator::run).
    pub fn run_until(&mut self, until: SimTime) -> Result<(), KernelError> {
        self.run_to(Some(until))
    }

    /// Runs for `span` of simulated time from the current instant
    /// (equivalent to `run_until(now() + span)`).
    ///
    /// # Errors
    ///
    /// Same as [`run`](Simulator::run).
    pub fn run_for(&mut self, span: crate::time::SimDuration) -> Result<(), KernelError> {
        let until = self.now().saturating_add(span);
        self.run_until(until)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.kernel().now()
    }

    /// Immediately notifies `event` from testbench context (outside any
    /// process). Takes effect in the next evaluation phase.
    pub fn notify(&mut self, event: Event) {
        self.kernel_mut().notify_external(event);
    }

    /// Schedules a notification of `event` at absolute simulated time
    /// `at`, subject to the earliest-wins override rule.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before [`now`](Simulator::now).
    pub fn notify_at(&mut self, event: Event, at: SimTime) {
        self.kernel_mut().notify_at(event, at);
    }

    /// The name given to `event` at creation.
    pub fn event_name(&self, event: Event) -> &str {
        self.kernel().event_name(event)
    }

    /// The name given to `pid` at spawn.
    pub fn process_name(&self, pid: ProcessId) -> &str {
        self.kernel().process_name(pid)
    }

    /// Number of events created so far.
    pub fn event_count(&self) -> usize {
        self.kernel().event_count()
    }

    /// Number of processes spawned so far (dead or alive).
    pub fn process_count(&self) -> usize {
        self.kernel().process_count()
    }

    /// Number of processes that have not yet terminated.
    pub fn alive_processes(&self) -> usize {
        self.kernel().alive_processes()
    }

    /// Cumulative kernel statistics (process switches, delta cycles...).
    ///
    /// The process-switch counter is the measurement behind the paper's
    /// approach-A versus approach-B comparison (§4): the procedure-call
    /// RTOS model schedules without a dedicated RTOS process and therefore
    /// performs markedly fewer switches per scheduling action.
    pub fn stats(&self) -> KernelStats {
        self.kernel().stats
    }

    /// Overrides the delta-cycle livelock bound (default one million).
    pub fn set_max_delta_cycles(&mut self, limit: u64) {
        self.kernel_mut().set_max_deltas(limit);
    }

    /// The time of the next pending activity, or `None` if the simulation
    /// has starved — the hook for lockstep co-simulation with an external
    /// engine: advance the partner to `next_activity()`, exchange events,
    /// `run_until` that instant, repeat.
    pub fn next_activity(&mut self) -> Option<SimTime> {
        self.kernel_mut().next_activity()
    }

    /// Installs (or with `None`, removes) a pluggable scheduler tie-break.
    ///
    /// See [`crate::choice`]: with a policy installed, every set of two or
    /// more simultaneously eligible actions — runnable processes, pending
    /// delta notifications, same-instant ripe timers — is presented to the
    /// policy instead of being resolved by the built-in stable order.
    pub fn set_choice_policy(&mut self, policy: Option<Box<dyn crate::choice::ChoicePolicy>>) {
        self.kernel_mut().set_choice_policy(policy);
    }

    /// The set of timer entries that would fire at the next timed instant,
    /// as `(instant, candidates)` in stable posting order — the event
    /// wheel's same-timestamp ready set exposed as a slice rather than
    /// observed through eager pops. `None` when no valid timer is pending.
    pub fn ripe_timers(&mut self) -> Option<(SimTime, Vec<crate::choice::Candidate>)> {
        self.kernel_mut().ripe_timers()
    }
}

impl Default for Simulator {
    fn default() -> Self {
        Simulator::new()
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("mode", &self.mode)
            .field("now", &self.now())
            .field("processes", &self.process_count())
            .field("alive", &self.alive_processes())
            .field("events", &self.event_count())
            .field("stats", &self.stats())
            .field("handoffs", &self.kernel().handoffs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// A process that keeps picking itself keeps the kernel: 1,000 waits
    /// in one run cross threads only to start the run and to end it.
    #[test]
    fn self_resumes_cost_no_handoff() {
        let mut sim = Simulator::with_mode(ExecMode::Thread);
        sim.spawn("lone", |ctx| {
            for _ in 0..1_000 {
                ctx.wait_for(SimDuration::from_ns(1));
            }
        });
        sim.run().unwrap();
        assert_eq!(sim.stats().process_switches, 1_001);
        assert_eq!(sim.kernel().handoffs, 2);
    }

    /// Two thread processes that alternate pay one handoff per switch,
    /// plus the two at the run's edges.
    #[test]
    fn ping_pong_costs_one_handoff_per_switch() {
        const ROUNDS: usize = 100;
        let mut sim = Simulator::with_mode(ExecMode::Thread);
        let ping = sim.event("ping");
        let pong = sim.event("pong");
        sim.spawn("b", move |ctx| {
            for _ in 0..ROUNDS {
                ctx.wait_event(ping);
                ctx.notify(pong);
            }
        });
        sim.spawn("a", move |ctx| {
            for _ in 0..ROUNDS {
                ctx.notify(ping);
                ctx.wait_event(pong);
            }
        });
        sim.run().unwrap();
        let switches = sim.stats().process_switches;
        assert_eq!(switches, 2 * ROUNDS as u64 + 2);
        assert_eq!(sim.kernel().handoffs, (switches - 1) + 2);
    }

    /// Segment processes never leave the caller's thread.
    #[test]
    fn segment_runs_make_no_handoff() {
        let mut sim = Simulator::with_mode(ExecMode::Segment);
        let mut left = 1_000;
        sim.spawn_segment("lone", move |_ctx| {
            left -= 1;
            if left == 0 {
                SegStep::Done
            } else {
                SegStep::Yield(crate::segment::WaitRequest::time(SimDuration::from_ns(1)))
            }
        });
        sim.run().unwrap();
        assert_eq!(sim.stats().process_switches, 1_000);
        assert_eq!(sim.kernel().handoffs, 0);
    }
}
