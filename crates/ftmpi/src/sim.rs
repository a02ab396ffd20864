//! The simulation executor: every rank of a universe as a fiber on the
//! calling thread.
//!
//! Under a deterministic-simulation scheduler ([`faultsim::SchedHook`])
//! exactly one rank runs at any instant, so [`SimExecutor`] runs all
//! `n` ranks as stackful fibers ([`crate::fiber`]) on the thread that
//! calls [`SimExecutor::run`] and spawns no OS thread. A rank that
//! hands the token to another rank suspends inside
//! [`SchedHook::step`]; the dispatcher loop in `run` then resumes the
//! rank the hook reports as [`SchedHook::runnable`]. A grant the
//! stepping rank draws for itself returns inline, with no switch at
//! all.
//!
//! ### Determinism
//!
//! Ranks start in ascending order, each running to its
//! [`SchedPoint::Enter`] step; from there on every switch is the hook's
//! decision. When no rank holds the token — every rank has left, or the
//! hook's step budget ran out — the dispatcher resumes the ranks still
//! inside the universe in ascending rank order, so an aborted run
//! unwinds the same way every time.
//!
//! ### Reuse
//!
//! The executor keeps its fiber stacks, each rank's [`RankScratch`] and
//! the universe state ([`Shared`], reset in place) warm across runs,
//! exactly like the wall-clock [`crate::UniversePool`]: a reused
//! executor and a fresh one produce byte-identical runs (the `dst`
//! golden-log suite renders every seed both ways).
//!
//! ### Allocation accounting
//!
//! The rank bodies run on the caller's thread, so a caller that
//! snapshots `allocstats` around [`SimExecutor::run`] counts their heap
//! traffic together with its own; [`RunReport::stats`]`.alloc` is left
//! at zero so nothing is counted twice.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

use faultsim::{FaultPlan, SchedHook, SchedPoint, StepOutcome};

use crate::error::{RankOutcome, Result};
use crate::fiber::Fiber;
use crate::process::{Process, RankScratch};
use crate::universe::{rank_outcome, RunReport, Shared, WATCHDOG_ABORT_CODE};

/// Configuration for one simulated run. Unlike
/// [`crate::UniverseConfig`] it has no wall-clock watchdog (the hook's
/// logical step budget is the hang detector), no asynchronous kill
/// schedule and no respawn: kills are hook-based fault-plan rules,
/// which fire at exact protocol points.
pub struct SimConfig {
    /// Hook-based fault plan (exact protocol-point kills).
    pub plan: FaultPlan,
    /// Record protocol events.
    pub trace: bool,
    /// The scheduler that serializes the ranks and answers every
    /// nondeterministic choice.
    pub sched: Arc<dyn SchedHook>,
}

impl SimConfig {
    /// A run under `sched` with no faults and no tracing.
    pub fn new(sched: Arc<dyn SchedHook>) -> Self {
        SimConfig { plan: FaultPlan::none(), trace: false, sched }
    }

    /// Builder-style: set the fault plan.
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Builder-style: enable tracing.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// Runs universes of a fixed size as fibers on the calling thread,
/// back to back, reusing stacks and universe state.
///
/// ```
/// use std::sync::Arc;
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use ftmpi::faultsim::{ChoiceKind, Rank, SchedHook, SchedPoint, StepOutcome};
/// use ftmpi::{SimConfig, SimExecutor};
///
/// /// The smallest serializing hook: one rank, always granted.
/// struct Solo(AtomicBool);
/// impl SchedHook for Solo {
///     fn step(&self, _: Rank, _: SchedPoint) -> StepOutcome {
///         self.0.store(true, Ordering::Relaxed);
///         StepOutcome::Run
///     }
///     fn runnable(&self) -> Option<Rank> {
///         self.0.load(Ordering::Relaxed).then_some(0)
///     }
///     fn choose(&self, _: Rank, _: ChoiceKind, n: usize) -> usize {
///         n - 1
///     }
///     fn on_exit(&self, _: Rank) {
///         self.0.store(false, Ordering::Relaxed);
///     }
/// }
///
/// let mut exec = SimExecutor::new(1);
/// let report = exec.run(SimConfig::new(Arc::new(Solo(AtomicBool::new(false)))), |p| {
///     Ok(p.world_rank())
/// });
/// assert!(report.all_ok());
/// ```
pub struct SimExecutor {
    fibers: Vec<Fiber>,
    /// Warm per-rank container scratch, lent to each run's `Process`.
    scratch: Vec<RankScratch>,
    /// Warm universe state from the previous run.
    shared: Option<Arc<Shared>>,
}

/// What every rank's fiber reads: borrowed from `run`'s frame, which
/// outlives every fiber of the run.
struct Job<'a, F, T> {
    shared: &'a Arc<Shared>,
    sched: &'a dyn SchedHook,
    f: &'a F,
    /// `outcomes[rank]`, written only by that rank's fiber.
    outcomes: *mut Option<RankOutcome<T>>,
    /// `scratch[rank]`, used only by that rank's fiber.
    scratch: *mut RankScratch,
}

impl SimExecutor {
    /// An executor for universes of `n` ranks: `n` fiber stacks.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "universe needs at least one rank");
        SimExecutor {
            fibers: (0..n).map(|_| Fiber::new()).collect(),
            scratch: (0..n).map(|_| RankScratch::default()).collect(),
            shared: None,
        }
    }

    /// Number of ranks per universe.
    pub fn size(&self) -> usize {
        self.fibers.len()
    }

    /// Run `f` on every rank under `cfg`'s scheduler.
    pub fn run<T, F>(&mut self, cfg: SimConfig, f: F) -> RunReport<T>
    where
        F: Fn(&mut Process) -> Result<T>,
    {
        let n = self.size();
        let SimConfig { plan, trace, sched } = cfg;
        let shared = Shared::recycle(self.shared.take(), n, plan, trace, Some(Arc::clone(&sched)));
        // Deterministic timestamps: trace events carry the scheduler's
        // logical clock instead of wall-clock time.
        let clock = Arc::clone(&sched);
        shared.trace.set_clock(Arc::new(move || clock.now()));

        let mut outcomes: Vec<Option<RankOutcome<T>>> = (0..n).map(|_| None).collect();
        let job = Job {
            shared: &shared,
            sched: &*sched,
            f: &f,
            outcomes: outcomes.as_mut_ptr(),
            scratch: self.scratch.as_mut_ptr(),
        };
        let start = Instant::now();
        for (rank, fiber) in self.fibers.iter_mut().enumerate() {
            // SAFETY: `rank_main::<F, T>` reads `arg` as the `Job<F, T>`
            // it is, and `job` lives until this function returns, after
            // every fiber has finished (the loop below exits only then).
            unsafe { fiber.prepare(rank_main::<F, T>, (&job as *const Job<F, T>).cast(), rank) };
        }
        // Each rank runs to its `Enter` step; then the hook decides.
        for fiber in &mut self.fibers {
            fiber.resume();
        }
        loop {
            if let Some(rank) = sched.runnable() {
                self.fibers[rank].resume();
                continue;
            }
            // Nobody holds the token: the budget ran out, or every rank
            // left. Unwind what is left, lowest rank first.
            match self.fibers.iter().position(|f| !f.is_done()) {
                Some(rank) => self.fibers[rank].resume(),
                None => break,
            }
        }

        let hung = shared.registry.aborted() == Some(WATCHDOG_ABORT_CODE);
        let generations = (0..n).map(|r| shared.registry.generation(r)).collect();
        let mut stats = sched.run_stats();
        stats.handoff.park_safety_timeouts = shared.fabric.park_timeouts();
        let outcomes =
            outcomes.into_iter().map(|o| o.expect("every rank records an outcome")).collect();
        let report = RunReport {
            outcomes,
            hung,
            trace: shared.trace.events(),
            duration: start.elapsed(),
            generations,
            stats,
        };
        self.shared = Some(shared);
        report
    }
}

/// A rank fiber's entry: the rank body under `catch_unwind`, so no
/// unwind ever reaches the fiber's switch frames.
unsafe extern "C" fn rank_main<F, T>(job: *const u8, me: usize)
where
    F: Fn(&mut Process) -> Result<T>,
{
    // SAFETY: `run` passes a `Job<F, T>` that outlives the fiber.
    let job = unsafe { &*job.cast::<Job<F, T>>() };
    // The rank body catches its own panics; this outer guard covers the
    // bookkeeping, whose panic then shows as a missing outcome.
    let _ = std::panic::catch_unwind(AssertUnwindSafe(|| run_rank(job, me)));
}

fn run_rank<F, T>(job: &Job<F, T>, me: usize)
where
    F: Fn(&mut Process) -> Result<T>,
{
    // First scheduling point: ranks start serialized.
    if job.sched.step(me, SchedPoint::Enter) == StepOutcome::Abort {
        job.shared.abort(WATCHDOG_ABORT_CODE);
    }
    // SAFETY: slot `me` of the scratch and outcome arrays belongs to
    // this fiber alone, and only one fiber runs at a time.
    let scratch = unsafe { &mut *job.scratch.add(me) };
    let mut proc = Process::with_scratch(me, 0, Arc::clone(job.shared), std::mem::take(scratch));
    let res = std::panic::catch_unwind(AssertUnwindSafe(|| (job.f)(&mut proc)));
    *scratch = proc.recycle_scratch();
    // Release this rank's `Arc<Shared>` before the run can end.
    drop(proc);
    job.sched.on_exit(me);
    // SAFETY: as for `scratch` above; `outcomes` has `n > me` slots.
    unsafe { *job.outcomes.add(me) = Some(rank_outcome(res)) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ErrorHandler, Src, WORLD};
    use faultsim::{ChoiceKind, HookKind, Rank};
    use std::sync::Mutex;

    /// A minimal serializing hook: when every live rank waits, the
    /// token goes to the lowest waiting rank above the one that handed
    /// it back (cyclically).
    #[derive(Default)]
    struct RoundRobin(Mutex<Turns>);

    #[derive(Default)]
    struct Turns {
        live: usize,
        waiting: Vec<Rank>,
        running: Option<Rank>,
    }

    impl RoundRobin {
        fn new(n: usize) -> Arc<Self> {
            Arc::new(RoundRobin(Mutex::new(Turns { live: n, ..Turns::default() })))
        }
    }

    impl Turns {
        fn dispatch(&mut self, after: Rank) {
            if self.running.is_none() && !self.waiting.is_empty() && self.waiting.len() == self.live
            {
                self.waiting.sort_unstable();
                let i = self.waiting.iter().position(|&r| r > after).unwrap_or(0);
                self.running = Some(self.waiting.remove(i));
            }
        }
    }

    impl SchedHook for RoundRobin {
        fn step(&self, rank: Rank, _: SchedPoint) -> StepOutcome {
            let mut t = self.0.lock().unwrap();
            if t.running == Some(rank) {
                t.running = None;
            }
            t.waiting.push(rank);
            t.dispatch(rank);
            if t.running != Some(rank) {
                drop(t);
                crate::suspend();
            }
            StepOutcome::Run
        }
        fn runnable(&self) -> Option<Rank> {
            self.0.lock().unwrap().running
        }
        fn choose(&self, _: Rank, _: ChoiceKind, n: usize) -> usize {
            n - 1
        }
        fn on_exit(&self, rank: Rank) {
            let mut t = self.0.lock().unwrap();
            t.live -= 1;
            if t.running == Some(rank) {
                t.running = None;
            }
            t.dispatch(rank);
        }
    }

    fn ring_once(p: &mut Process) -> Result<u64> {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        let n = p.world_size();
        let me = p.world_rank();
        let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
        if me == 0 {
            p.send(WORLD, next, 0, &1u64)?;
            Ok(p.recv::<u64>(WORLD, Src::Rank(prev), 0)?.0)
        } else {
            let (v, _) = p.recv::<u64>(WORLD, Src::Rank(prev), 0)?;
            p.send(WORLD, next, 0, &(v + 1))?;
            Ok(v)
        }
    }

    #[test]
    fn executor_runs_back_to_back_with_identical_results() {
        let mut exec = SimExecutor::new(4);
        for round in 0..5 {
            let report = exec.run(SimConfig::new(RoundRobin::new(4)).traced(), ring_once);
            assert!(report.all_ok(), "round {round}: {:?}", report.outcomes);
            assert_eq!(report.outcomes[0].as_ok(), Some(&4u64), "round {round}");
            assert!(!report.trace.is_empty());
        }
    }

    #[test]
    fn kills_and_panics_do_not_bleed_into_the_next_run() {
        let mut exec = SimExecutor::new(3);
        let plan = FaultPlan::none().kill_at(1, HookKind::BeforeSend, 1);
        let report = exec.run(SimConfig::new(RoundRobin::new(3)).with_plan(plan), |p| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            match p.world_rank() {
                1 => p.send(WORLD, 0, 7, &1u64)?,
                2 => panic!("rank 2 panics"),
                _ => {}
            }
            Ok(())
        });
        assert!(report.outcomes[1].is_failed(), "{:?}", report.outcomes);
        assert_eq!(report.outcomes[2], RankOutcome::Panicked("rank 2 panics".into()));
        let report = exec.run(SimConfig::new(RoundRobin::new(3)), ring_once);
        assert!(report.all_ok(), "state bled: {:?}", report.outcomes);
        assert_eq!(report.outcomes[0].as_ok(), Some(&3u64));
    }

    /// The executor spawns no thread: every rank runs on the caller's.
    #[test]
    fn ranks_run_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let report = SimExecutor::new(4).run(SimConfig::new(RoundRobin::new(4)), |p| {
            ring_once(p)?;
            Ok(std::thread::current().id())
        });
        assert!(report.outcomes.iter().all(|o| o.as_ok() == Some(&caller)));
    }
}
