//! Scheduler instrumentation for deterministic simulation testing.
//!
//! In wall-clock mode the `ftmpi` runtime runs each rank on an OS
//! thread, and which rank makes progress next is decided by the kernel
//! scheduler, so a buggy interleaving reproduces only by luck. A
//! [`SchedHook`] turns those decisions into explicit calls the runtime
//! makes at every *scheduling point*, letting a harness (the `dst`
//! crate) serialize the ranks and drive every decision from a seeded
//! PRNG — the FoundationDB-style simulation approach: one `u64` seed
//! names one complete interleaving, reproducible forever. A hooked
//! universe runs on `ftmpi`'s simulation executor, which runs every
//! rank as a fiber on one OS thread.
//!
//! The runtime's side of the contract:
//!
//! * Every rank calls [`SchedHook::step`] when it enters the universe
//!   ([`SchedPoint::Enter`]), at the top of every wait-loop pass
//!   ([`SchedPoint::Tick`]), and before every send
//!   ([`SchedPoint::Send`]). The call hands the execution token back
//!   and may **suspend** the calling rank's fiber — that is the
//!   mechanism by which a serializing scheduler admits one rank at a
//!   time. The executor's dispatcher then resumes the rank
//!   [`SchedHook::runnable`] names. A [`StepOutcome::Abort`] return
//!   tells the rank the logical step budget is exhausted (the
//!   deterministic replacement for a wall-clock hang watchdog) and it
//!   must abort the job.
//! * Every nondeterministic *choice* with `n` alternatives is routed
//!   through [`SchedHook::choose`]: which ready request `waitany`
//!   picks, which sender an `ANY_SOURCE` receive matches, and how many
//!   queued envelopes a mailbox drain delivers (delaying the rest).
//! * [`SchedHook::on_exit`] is called exactly once per rank when it
//!   leaves the universe (normal return, failure, or panic), so the
//!   scheduler never waits for a rank that is gone.
//! * [`SchedHook::on_kill`] reports fail-stop transitions for the
//!   harness's event log.
//! * [`SchedHook::now`] is a logical clock; the runtime uses it to
//!   timestamp trace events so two runs of the same schedule produce
//!   byte-identical logs.
//!
//! When no hook is installed the runtime behaves exactly as before:
//! every instrumentation site is a no-op on the `None` path.

use crate::{Rank, Tag};

/// Where in the runtime a blocking scheduling point sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPoint {
    /// Rank thread entered the universe, before user code runs.
    Enter,
    /// Top of a wait-loop pass (the single blocking funnel).
    Tick,
    /// Immediately before handing a message to the transport.
    Send {
        /// Destination world rank.
        dst: Rank,
        /// Message tag.
        tag: Tag,
    },
}

/// Which nondeterministic choice is being made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChoiceKind {
    /// `waitany` with several requests ready: pick which completes.
    WaitAny,
    /// `ANY_SOURCE` receive with several candidate senders: pick one.
    AnySource,
    /// Mailbox drain with `n` queued envelopes: the chooser is called
    /// with `n + 1` alternatives and the result `k` delivers the first
    /// `k` envelopes now, delaying the rest.
    Drain,
}

/// Verdict of a [`SchedHook::step`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Proceed.
    Run,
    /// Logical step budget exhausted: abort the job (deterministic
    /// hang detection).
    Abort,
}

/// Handoff-path counters reported by a [`SchedHook`].
///
/// A serializing scheduler hands the token from rank to rank at every
/// [`SchedHook::step`]; a handoff to another rank costs a fiber switch
/// through the executor's dispatcher. Implementations that elide
/// handoffs (grant the stepping rank inline) expose the accounting
/// here so harnesses can report the win per run instead of inferring
/// it from throughput.
///
/// All counters are cumulative since the hook was constructed (or
/// reset), and travel as the `handoff` field of [`RunStats`] (the
/// default [`SchedHook::run_stats`] returns zeros).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandoffStats {
    /// Logical steps taken (grant attempts, including the one that
    /// exhausts the budget).
    pub steps: u64,
    /// Grants actually issued.
    pub grants: u64,
    /// Grants returned inline to the stepping rank (self-grant fast
    /// path): no fiber switch at all.
    pub self_grants: u64,
    /// Always 0: ranks are fibers, and no handoff parks a thread. Kept,
    /// with the three fields below, so consumers that read the field
    /// keep compiling and report 0.
    pub prepark_grants: u64,
    /// Always 0 (see `prepark_grants`).
    pub parks: u64,
    /// Always 0 (see `prepark_grants`).
    pub unparks: u64,
    /// Always 0 (see `prepark_grants`).
    pub spin_iters: u64,
    /// Wall-clock park-safety timeouts observed by the transport
    /// (filled in by the runtime, not the scheduler).
    pub park_safety_timeouts: u64,
}

impl HandoffStats {
    /// Accumulate another run's counters (sweep aggregation).
    pub fn add(&mut self, other: &HandoffStats) {
        self.steps += other.steps;
        self.grants += other.grants;
        self.self_grants += other.self_grants;
        self.prepark_grants += other.prepark_grants;
        self.parks += other.parks;
        self.unparks += other.unparks;
        self.spin_iters += other.spin_iters;
        self.park_safety_timeouts += other.park_safety_timeouts;
    }
}

/// Schedule-coverage counters reported by a [`SchedHook`].
///
/// A coverage-tracking scheduler hashes every decision it makes into a
/// per-run *edge set* — an edge is `(rank, decision-kind,
/// protocol-phase)`, where the protocol phase is the number of
/// fail-stops delivered so far (saturated), so the same decision kind
/// before the first failure, during first repair, and during stacked
/// repair count as distinct protocol behavior. The set itself stays
/// inside the scheduler (the `dst` fuzzer harvests it for novelty
/// search); what travels through [`RunStats`] are the two summary
/// numbers every consumer needs: how many distinct edges the run
/// touched, and an order-independent digest of the set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageStats {
    /// Distinct coverage edges. Per run: the run's edge-set size; for
    /// an aggregate, the size of the exact edge union the aggregator
    /// tracks ([`RunStats::merge`] leaves coverage untouched).
    pub edges: u64,
    /// XOR of the per-edge hashes — an order-independent digest of the
    /// edge set, so two runs (or two whole campaigns) covering the
    /// same edges report byte-identical signatures.
    pub signature: u64,
}

/// Every per-run statistic the harness chain carries, as one value.
///
/// Before this struct existed, `RunReport`, the `dst` `Observation`,
/// and the sweep aggregator each threaded `HandoffStats` and an
/// allocation tally as separate parameters, and every new counter
/// family meant touching the whole chain again. `RunStats` is the
/// single extensible surface: the scheduler contributes `handoff` and
/// `coverage` (via [`SchedHook::run_stats`]), whoever measures heap
/// traffic contributes `alloc` (the wall-clock pool for its rank
/// threads, the `dst` harness for a simulated run on its own thread),
/// and aggregation is one [`RunStats::merge`] call wherever runs are
/// summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Handoff-path performance counters (context-switch elision).
    pub handoff: HandoffStats,
    /// Schedule-coverage summary (distinct decision edges + digest).
    pub coverage: CoverageStats,
    /// Heap-allocation traffic attributed to the run. Zeros unless the
    /// final binary installs `allocstats::StatsAlloc` as its global
    /// allocator (the `dst` harness does).
    pub alloc: allocstats::AllocStats,
}

impl RunStats {
    /// Accumulate another run's counters (sweep/fuzz aggregation).
    ///
    /// `coverage` is left alone: edge sets do not sum, so an
    /// aggregator sets it from the exact union of the runs' edges.
    pub fn merge(&mut self, other: &RunStats) {
        self.handoff.add(&other.handoff);
        self.alloc.add(&other.alloc);
    }
}

/// Scheduling decisions driven by a test harness. See the module docs
/// for the runtime's calling contract.
pub trait SchedHook: Send + Sync {
    /// Scheduling point: `rank` hands the execution token back, and
    /// the call returns when `rank` may proceed — at once if the
    /// scheduler grants it the token again, otherwise after suspending
    /// the rank's fiber until the dispatcher resumes it.
    fn step(&self, rank: Rank, point: SchedPoint) -> StepOutcome;

    /// The rank holding the execution token, which the simulation
    /// executor's dispatcher resumes next; `None` when no rank holds
    /// it (every rank has left, or the step budget ran out).
    fn runnable(&self) -> Option<Rank>;

    /// Resolve an `n`-way choice (`n >= 1` for [`ChoiceKind::WaitAny`]
    /// and [`ChoiceKind::AnySource`], `n >= 2` for
    /// [`ChoiceKind::Drain`]). Must return a value in `0..n`.
    fn choose(&self, rank: Rank, kind: ChoiceKind, n: usize) -> usize;

    /// `rank` is leaving the universe; it will make no further
    /// `step`/`choose` calls.
    fn on_exit(&self, rank: Rank);

    /// `victim` was fail-stopped (for the harness event log).
    fn on_kill(&self, _victim: Rank) {}

    /// Logical time for deterministic trace timestamps.
    fn now(&self) -> u64 {
        0
    }

    /// Per-run statistics accumulated so far (handoff counters +
    /// coverage summary; the `alloc` field is filled in by the
    /// executor, not the scheduler). Hooks without instrumentation
    /// report zeros.
    fn run_stats(&self) -> RunStats {
        RunStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A trivially conforming hook: everything proceeds, choice 0.
    struct PassThrough {
        steps: AtomicUsize,
    }

    impl SchedHook for PassThrough {
        fn step(&self, _rank: Rank, _point: SchedPoint) -> StepOutcome {
            self.steps.fetch_add(1, Ordering::Relaxed);
            StepOutcome::Run
        }
        fn runnable(&self) -> Option<Rank> {
            None
        }
        fn choose(&self, _rank: Rank, _kind: ChoiceKind, n: usize) -> usize {
            assert!(n >= 1);
            0
        }
        fn on_exit(&self, _rank: Rank) {}
    }

    #[test]
    fn object_safety_and_defaults() {
        let hook: std::sync::Arc<dyn SchedHook> =
            std::sync::Arc::new(PassThrough { steps: AtomicUsize::new(0) });
        assert_eq!(hook.step(0, SchedPoint::Tick), StepOutcome::Run);
        assert_eq!(hook.step(1, SchedPoint::Send { dst: 0, tag: 7 }), StepOutcome::Run);
        assert_eq!(hook.choose(0, ChoiceKind::Drain, 3), 0);
        assert_eq!(hook.runnable(), None);
        hook.on_kill(2);
        assert_eq!(hook.now(), 0);
        let stats = hook.run_stats();
        assert_eq!(stats, RunStats::default());
        assert_eq!(stats.handoff.self_grants, 0);
        assert_eq!(stats.coverage.edges, 0);
    }

    #[test]
    fn handoff_stats_accumulate() {
        let mut total = HandoffStats::default();
        let one = HandoffStats {
            steps: 10,
            grants: 9,
            self_grants: 3,
            prepark_grants: 1,
            parks: 4,
            unparks: 4,
            spin_iters: 0,
            park_safety_timeouts: 1,
        };
        total.add(&one);
        total.add(&one);
        assert_eq!(total.grants, 18);
        assert_eq!(total.self_grants, 6);
        assert_eq!(total.parks, 8);
        assert_eq!(total.park_safety_timeouts, 2);
    }

    #[test]
    fn run_stats_merge_folds_all_families() {
        let mut total = RunStats::default();
        let one = RunStats {
            handoff: HandoffStats { steps: 5, grants: 4, ..Default::default() },
            coverage: CoverageStats { edges: 3, signature: 0xF0 },
            alloc: allocstats::AllocStats {
                allocs: 7,
                deallocs: 6,
                bytes_alloc: 256,
                bytes_freed: 192,
            },
        };
        total.merge(&one);
        total.merge(&one);
        assert_eq!(total.handoff.steps, 10);
        // Coverage is the aggregator's exact union, never a sum.
        assert_eq!(total.coverage, CoverageStats::default());
        assert_eq!(total.alloc.allocs, 14);
        assert_eq!(total.alloc.bytes_alloc, 512);
    }
}
