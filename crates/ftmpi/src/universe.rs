//! The universe: spawn N ranks, run a closure on each, harvest results.
//!
//! In wall-clock mode ([`run`], [`crate::UniversePool`]) each rank is
//! an OS thread holding a [`Process`]; the universe wires the shared
//! fabric, failure registry, fault injector, coordination boards and
//! trace together, runs an optional asynchronous kill schedule, and —
//! crucially for reproducing the paper's Fig. 6 — a watchdog that
//! detects distributed hangs and converts them into a clean, reportable
//! outcome instead of a wedged test suite. Under a deterministic-
//! simulation scheduler the same [`Shared`] state runs on the
//! [`crate::SimExecutor`] instead, every rank a fiber on one thread.
//!
//! Every piece of that state lives in one universe's [`Shared`]; there
//! are no process-global statics anywhere in `ftmpi` or `faultsim`
//! (including the trace's logical clock, which is installed on the
//! per-universe [`Trace`] instance). Concurrent [`run`] calls are
//! therefore fully isolated — the `dst` parallel seed-sweep engine
//! leans on this to run one universe per worker, and
//! `tests/concurrent_universes.rs` pins the property.

use std::sync::Arc;
use std::time::Duration;

use faultsim::{AsyncSchedule, FaultPlan, Injector, RunStats, SchedHook};

use crate::coord::CommBoard;
use crate::detector::FailureRegistry;
use crate::error::{Error, RankOutcome, Result};
use crate::group::Group;
use crate::nbc::BarrierBoard;
use crate::paypool::PayloadPool;
use crate::process::Process;
use crate::rank::WorldRank;
use crate::trace::{Event, Trace, TimedEvent};
use crate::validate::ValidateBoard;

/// Abort code used by the watchdog when it breaks a hang.
pub const WATCHDOG_ABORT_CODE: i32 = -9999;

/// Context id of `MPI_COMM_WORLD`.
pub(crate) const WORLD_CTX: u64 = 0;

/// Universe-wide shared state handed to every [`Process`].
pub(crate) struct Shared {
    pub size: usize,
    pub fabric: crate::transport::Fabric,
    pub registry: FailureRegistry,
    pub injector: Arc<Injector>,
    pub board: CommBoard,
    pub vboard: ValidateBoard,
    pub bboard: BarrierBoard,
    pub trace: Arc<Trace>,
    /// Deterministic-simulation scheduler, if this universe is driven
    /// by one (see `faultsim::sched` and the `dst` crate).
    pub sched: Option<Arc<dyn SchedHook>>,
    /// Recycled payload allocations, shared by every rank's sends and
    /// retained across runs (DESIGN.md §8.10).
    pub paypool: PayloadPool,
    /// The world group, built once per universe: `Group` is an
    /// `Arc<Vec<_>>`, so per-run `Process` construction clones a
    /// handle instead of re-collecting `0..n` every incarnation.
    pub world_group: Group,
}

impl Shared {
    /// Freshly constructed universe state for one run.
    pub(crate) fn fresh(
        n: usize,
        plan: FaultPlan,
        trace: bool,
        sched: Option<Arc<dyn SchedHook>>,
    ) -> Shared {
        Shared {
            size: n,
            fabric: crate::transport::Fabric::new(n),
            registry: FailureRegistry::new(n),
            injector: Arc::new(Injector::new(plan)),
            board: CommBoard::new(WORLD_CTX + 1),
            vboard: ValidateBoard::new(),
            bboard: BarrierBoard::new(),
            trace: Arc::new(Trace::new(trace)),
            sched,
            paypool: PayloadPool::new(),
            world_group: Group::world(n),
        }
    }

    /// The reset protocol: return every piece of universe state to the
    /// exact observable state [`Shared::fresh`] produces while
    /// retaining allocations (mailbox queues keep their capacity, the
    /// trace keeps its event buffer, board maps keep their tables).
    /// The injector is the one piece replaced wholesale — it is armed
    /// from the per-run `FaultPlan` and its per-rule state is cheaper
    /// to rebuild than to audit.
    ///
    /// Equivalence argument (the golden-log tests are the referee): a
    /// cleared-with-capacity container is behaviorally identical to a
    /// fresh one — capacity is not observable — and every counter
    /// (mailbox versions, notify generation, failure epoch, context
    /// allocator) is rewound to its constructed value, so no rank can
    /// distinguish a reset universe from a new one. HashMap iteration
    /// order is the one superficially scary piece of state, and it is
    /// moot: `CommBoard` sorts split members before assignment and the
    /// validate/barrier boards are keyed by exact lookup.
    ///
    /// Requires exclusive access (`&mut self`), which an executor has
    /// between runs: every rank drops its `Arc<Shared>` clone before
    /// its run counts as complete.
    pub(crate) fn reset(
        &mut self,
        plan: FaultPlan,
        trace: bool,
        sched: Option<Arc<dyn SchedHook>>,
    ) {
        self.fabric.reset();
        self.registry.reset();
        self.injector = Arc::new(Injector::new(plan));
        self.board.reset(WORLD_CTX + 1);
        self.vboard.reset();
        self.bboard.reset();
        match Arc::get_mut(&mut self.trace) {
            Some(t) => t.reset(trace),
            // Someone outside the run still holds the trace (nothing in
            // the runtime does); fall back to a fresh sink rather than
            // mutate under them.
            None => self.trace = Arc::new(Trace::new(trace)),
        }
        self.sched = sched;
        // `paypool` and `world_group` deliberately survive the reset:
        // recycled payload buffers and the shared membership Vec carry
        // no run-observable state (buffer *contents* are overwritten
        // before any Bytes view exposes them), and keeping them warm
        // is the point of pooling.
    }

    /// The previous run's state reset in place when the executor holds
    /// the only handle (the normal case), else freshly built.
    pub(crate) fn recycle(
        prev: Option<Arc<Shared>>,
        n: usize,
        plan: FaultPlan,
        trace: bool,
        sched: Option<Arc<dyn SchedHook>>,
    ) -> Arc<Shared> {
        match prev {
            Some(mut arc) => match Arc::get_mut(&mut arc) {
                Some(s) => {
                    s.reset(plan, trace, sched);
                    arc
                }
                None => Arc::new(Shared::fresh(n, plan, trace, sched)),
            },
            None => Arc::new(Shared::fresh(n, plan, trace, sched)),
        }
    }

    /// Wake every rank parked on the fabric — unless this universe is
    /// scheduler-driven, in which case ranks never park there (the
    /// `wait_loop` skips `Fabric::park` under simulation and blocks in
    /// the scheduler instead), so the per-slot lock sweep would be pure
    /// overhead on the simulation hot path.
    pub(crate) fn wake_all(&self) {
        if self.sched.is_none() {
            self.fabric.wake_all();
        }
    }

    /// Fail-stop `rank`: registry transition + trace + wake everyone.
    pub(crate) fn kill(&self, rank: WorldRank) {
        if self.registry.kill(rank) {
            self.trace.record(Event::Killed { rank });
            if let Some(s) = &self.sched {
                s.on_kill(rank);
            }
            self.wake_all();
        }
    }

    /// Recovery extension: revive `rank` as a fresh incarnation.
    /// Clears its mailbox (messages to the dead incarnation are lost,
    /// per fail-stop) and wakes everyone. Returns the new generation.
    pub(crate) fn respawn(&self, rank: WorldRank) -> Option<u32> {
        let gen = self.registry.respawn(rank)?;
        self.fabric.clear(rank);
        self.trace.record(Event::Respawned { rank, generation: gen });
        self.wake_all();
        Some(gen)
    }

    /// Abort the job: registry transition + trace + wake everyone.
    pub(crate) fn abort(&self, code: i32) {
        if self.registry.abort(code) {
            self.trace.record(Event::Aborted { code });
            self.wake_all();
        }
    }
}

/// Configuration for one universe run.
#[derive(Default)]
pub struct UniverseConfig {
    /// Hook-based fault plan (exact protocol-point kills).
    pub plan: FaultPlan,
    /// Wall-clock kill schedule (asynchronous kills).
    pub schedule: Option<AsyncSchedule>,
    /// Hang watchdog: if the run does not complete within this
    /// duration, the universe is aborted with
    /// [`WATCHDOG_ABORT_CODE`] and the report is marked `hung`.
    pub watchdog: Option<Duration>,
    /// Record protocol events.
    pub trace: bool,
    /// Recovery extension: respawn failed ranks (the paper's declared
    /// future-work direction; see DESIGN.md for the supported scope —
    /// point-to-point protocols like the task farm, not rings or
    /// in-flight collectives/validates).
    pub respawn: Option<RespawnPolicy>,
}

/// How failed ranks are brought back (recovery extension).
#[derive(Debug, Clone, Copy)]
pub struct RespawnPolicy {
    /// Delay between observing a death and respawning the rank.
    pub after: Duration,
    /// Respawn budget per rank (further deaths stay dead).
    pub max_per_rank: u32,
}

impl UniverseConfig {
    /// Config with a fault plan and defaults otherwise.
    pub fn with_plan(plan: FaultPlan) -> Self {
        UniverseConfig { plan, ..Default::default() }
    }

    /// Builder-style: set the watchdog.
    pub fn watchdog(mut self, d: Duration) -> Self {
        self.watchdog = Some(d);
        self
    }

    /// Builder-style: enable tracing.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Builder-style: attach an asynchronous kill schedule.
    pub fn scheduled(mut self, s: AsyncSchedule) -> Self {
        self.schedule = Some(s);
        self
    }

    /// Builder-style: enable the recovery extension.
    pub fn respawning(mut self, policy: RespawnPolicy) -> Self {
        self.respawn = Some(policy);
        self
    }
}

/// Result of a universe run.
pub struct RunReport<T> {
    /// Per-rank outcomes, indexed by world rank.
    pub outcomes: Vec<RankOutcome<T>>,
    /// Whether the watchdog had to break a distributed hang.
    pub hung: bool,
    /// The recorded protocol trace (empty unless tracing was enabled).
    pub trace: Vec<TimedEvent>,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    /// Final incarnation number per rank (all 0 without the recovery
    /// extension).
    pub generations: Vec<u32>,
    /// Every per-run statistic, on the one [`faultsim::RunStats`]
    /// surface: `handoff` and `coverage` come from the simulation
    /// scheduler (zeros in wall-clock mode) with
    /// `handoff.park_safety_timeouts` mirrored from the transport.
    /// In wall-clock mode `alloc` is the heap traffic of the rank
    /// threads' job bodies, summed across ranks (the caller thread's
    /// share is the caller's to measure), all zeros unless the final
    /// binary installs [`allocstats::StatsAlloc`] as its global
    /// allocator; the `dst` harness does (DESIGN.md §8.10). Under the
    /// [`crate::SimExecutor`] the ranks run on the caller's thread, so
    /// `alloc` stays zero and the caller's own snapshot counts them.
    pub stats: RunStats,
}

impl<T> RunReport<T> {
    /// Whether every rank returned `Ok`.
    pub fn all_ok(&self) -> bool {
        !self.hung && self.outcomes.iter().all(|o| o.is_ok())
    }

    /// World ranks that were fail-stopped.
    pub fn failed_ranks(&self) -> Vec<WorldRank> {
        self.outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_failed())
            .map(|(r, _)| r)
            .collect()
    }

    /// Ok values of surviving ranks, as (rank, value) pairs.
    pub fn ok_values(&self) -> Vec<(WorldRank, &T)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(r, o)| o.as_ok().map(|v| (r, v)))
            .collect()
    }
}

/// A rank body's result as the rank's reported outcome; a caught panic
/// carries its message.
pub(crate) fn rank_outcome<T>(res: std::thread::Result<Result<T>>) -> RankOutcome<T> {
    match res {
        Ok(Ok(v)) => RankOutcome::Ok(v),
        Ok(Err(Error::SelfFailed)) => RankOutcome::Failed,
        Ok(Err(Error::Aborted { code })) => RankOutcome::Aborted { code },
        Ok(Err(e)) => RankOutcome::Err(e),
        Err(p) => {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic".to_string());
            RankOutcome::Panicked(msg)
        }
    }
}

/// Entry point: run `f` on `n` ranks under `cfg`.
///
/// `f` receives a mutable [`Process`] and returns the rank's result;
/// returning `Err(Error::SelfFailed)` (which every runtime call does
/// once the rank is killed) records the rank as [`RankOutcome::Failed`].
///
/// This is the spawn-per-run path: a thin wrapper that builds a
/// one-shot [`crate::UniversePool`], runs the universe on it, and
/// tears it down. Callers executing many universes back-to-back at a
/// fixed rank count should hold a pool and call
/// [`crate::UniversePool::run`] instead, which reuses the worker
/// threads and the universe state allocations across runs.
pub fn run<T, F>(n: usize, cfg: UniverseConfig, f: F) -> RunReport<T>
where
    T: Send,
    F: Fn(&mut Process) -> Result<T> + Send + Sync,
{
    crate::pool::UniversePool::new(n).run(cfg, f)
}

/// Run with default configuration (no faults, no watchdog).
pub fn run_default<T, F>(n: usize, f: F) -> RunReport<T>
where
    T: Send,
    F: Fn(&mut Process) -> Result<T> + Send + Sync,
{
    run(n, UniverseConfig::default(), f)
}
