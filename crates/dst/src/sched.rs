//! The serializing, seeded scheduler (the heart of the harness).
//!
//! One [`Scheduler`] drives one `ftmpi` universe through the
//! [`SchedHook`] instrumentation. The universe runs on
//! [`ftmpi::SimExecutor`], every rank a fiber on one OS thread: a rank
//! that reaches [`SchedHook::step`] hands the token back and, unless it
//! is granted the token again at once, suspends until the executor's
//! dispatcher resumes the rank [`SchedHook::runnable`] names. So at
//! most one rank executes runtime actions at any instant and the whole
//! interleaving collapses to a *sequence of decisions*. Each decision
//! (which rank runs next, which ready request completes, which sender
//! matches, how many queued envelopes are delivered) is drawn from a
//! splitmix64 PRNG seeded with a single `u64` — so one seed names one
//! complete schedule, reproducible forever, and the decision log it
//! leaves behind is byte-identical across runs.
//!
//! ### Dispatch protocol (self-grant fast path + fiber switch)
//!
//! * `n` ranks start registered; a rank leaves on
//!   [`SchedHook::on_exit`].
//! * A rank arriving at a step point joins `waiting`. When *every*
//!   registered rank is waiting (nobody is running), the scheduler
//!   picks one at random and logs `grant`.
//! * **Self-grant fast path**: the stepping rank runs `try_dispatch`
//!   itself. If the PRNG draws *that same rank* — always, when it is
//!   the sole waiter, which is the common case for the paper's
//!   one-token-in-flight ring — the grant is returned inline from
//!   `step` and no fiber switch happens. Only a rank handing the token
//!   back counts as a self-grant (not the last arrival at the entry
//!   barrier), so `self_grants` is a function of the seed.
//! * Otherwise the stepping rank suspends ([`ftmpi::suspend`]) and the
//!   dispatcher resumes the granted rank: two user-space stack switches,
//!   no kernel entry (DESIGN.md §8.9).
//! * The number of grants is the **logical clock**. When it exceeds the
//!   step budget the run is aborted — the deterministic replacement for
//!   a wall-clock hang watchdog: a distributed hang is just a schedule
//!   that keeps granting without anyone exiting. From then on no rank
//!   holds the token, every `step` returns [`StepOutcome::Abort`], and
//!   the dispatcher resumes the suspended ranks in ascending order.
//!
//! ### Pick-index stability
//!
//! `waiting` is a sorted `Vec<Rank>`, not a `BTreeSet`: granting is
//! `waiting.remove(rng.below(len))`, an O(1) index into ascending rank
//! order instead of the old O(ranks) `iter().nth(idx)` tree walk. The
//! idx-th smallest waiting rank is the same rank the tree walk
//! returned, so the seed → schedule mapping is frozen — pinned by the
//! golden-log tests (`tests/golden_logs.rs`).
//!
//! ### Recording toggle (zero-retention exploration)
//!
//! With [`Retention::Full`] the scheduler records every decision into
//! the log (replay, shrinking, tests). [`Retention::Quiet`] runs the
//! *same* schedule — every PRNG stream advances identically — but
//! retains nothing: no `SchedEvent` allocation per step, no delay list.
//! Exploration sweeps run quiet; a failing seed is simply re-run
//! recorded (same seed, same schedule, by determinism) when its log is
//! wanted.
//!
//! ### Delays
//!
//! A mailbox drain with `q` queued envelopes asks for a choice among
//! `q + 1` alternatives; answering `k < q` delivers only the first `k`
//! and *delays* the rest (per-pair FIFO is preserved because only a
//! prefix is taken). Without a mask delays fire randomly; an explicit
//! delay mask (shrinking, replay of a shrunk schedule, the `masked`
//! kill shape) pins exactly which drain calls may delay, which is what
//! makes the delay-set a first-class, minimizable part of a failure
//! schedule.
//!
//! ### Coverage
//!
//! Alongside the decision log, every decision is hashed into a
//! [`CoverageSet`] of `(rank, decision-kind, protocol-phase)` edges —
//! the feedback signal for `dst fuzz` (DESIGN.md §8.11). Collection is
//! recording-independent (quiet schedulers cover too), touches no PRNG
//! stream, and never writes the log, so it is schedule-invisible: the
//! golden logs referee that adding coverage changed nothing.
//!
//! ### Limitation
//!
//! Serialization requires every blocking path to funnel through a
//! scheduling point. All `ftmpi` library blocking does (`wait_loop`);
//! application closures that spin on `yield_now` without calling the
//! runtime would wedge the simulation and must not be used under it.
//! A scheduler drives ranks of one [`ftmpi::SimExecutor`] run: a rank
//! that must wait for the token calls [`ftmpi::suspend`], which panics
//! outside a simulation fiber.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::coverage::{CoverageSet, EdgeKind, PHASE_CAP};
use crate::scenario::Retention;
use faultsim::{ChoiceKind, HandoffStats, Rank, RunStats, SchedHook, SchedPoint, StepOutcome};
/// The scheduler's stream: the workspace's one splitmix64, re-exported
/// so `dst::SplitMix64` names it too.
pub use faultsim::SplitMix64;

/// One recorded scheduler decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedEvent {
    /// `rank` was granted the execution token.
    Grant {
        /// The granted rank.
        rank: Rank,
    },
    /// An `n`-way choice by `rank` was answered with `pick`.
    Choice {
        /// The choosing rank.
        rank: Rank,
        /// What kind of decision this was.
        kind: ChoiceKind,
        /// Number of alternatives.
        n: usize,
        /// The chosen alternative.
        pick: usize,
        /// For [`ChoiceKind::Drain`]: the global drain-call index (the
        /// handle the delay mask keys on).
        call: Option<u64>,
    },
    /// `victim` was fail-stopped.
    Kill {
        /// The killed rank.
        victim: Rank,
    },
    /// `rank` left the universe.
    Exit {
        /// The departing rank.
        rank: Rank,
    },
    /// The step budget ran out: logical hang watchdog fired.
    Budget,
}

impl std::fmt::Display for SchedEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedEvent::Grant { rank } => write!(f, "grant {rank}"),
            SchedEvent::Choice { rank, kind, n, pick, call } => {
                let kind = match kind {
                    ChoiceKind::WaitAny => "waitany",
                    ChoiceKind::AnySource => "anysource",
                    ChoiceKind::Drain => "drain",
                };
                write!(f, "choice {rank} {kind} {pick}/{n}")?;
                if let Some(c) = call {
                    write!(f, " call={c}")?;
                }
                Ok(())
            }
            SchedEvent::Kill { victim } => write!(f, "kill {victim}"),
            SchedEvent::Exit { rank } => write!(f, "exit {rank}"),
            SchedEvent::Budget => write!(f, "budget-exhausted"),
        }
    }
}

/// Out of 16: how often a drain call delays in exploration mode.
const DELAY_WEIGHT: u64 = 4;

struct Inner {
    /// Ranks still inside the universe. A count
    /// suffices: `waiting ⊆ registered` (an exited rank never steps
    /// again), and dispatch only compares sizes.
    registered: usize,
    /// Registered ranks currently waiting at a step point, in ascending
    /// rank order. `waiting[idx]` is the idx-th smallest — exactly what
    /// `BTreeSet::iter().nth(idx)` returned — so grants stay
    /// pick-index-stable while indexing is O(1).
    waiting: Vec<Rank>,
    /// The rank holding the execution token, if any.
    running: Option<Rank>,
    /// Grant and waitany/anysource decisions. Kept separate from the
    /// delay streams so installing a delay mask (which suppresses the
    /// delay-decision draws) cannot shift scheduling decisions — masked
    /// replay of the full delay-set must reproduce the exploration run
    /// exactly, or shrinking would be unsound.
    rng: SplitMix64,
    /// Exploration-mode "should this drain delay?" decisions.
    rng_delay: SplitMix64,
    /// "How much of the queue to withhold" draws for delaying drains.
    rng_amount: SplitMix64,
    steps: u64,
    aborted: bool,
    /// When false ([`Retention::Quiet`]), no event or delay-call history
    /// is retained — the PRNG streams still advance identically, so the
    /// schedule is the same, only log-free.
    record: bool,
    log: Vec<SchedEvent>,
    /// Global drain-call counter (handle for the delay mask).
    drain_calls: u64,
    /// Drain calls that delayed (pick < queue length).
    delays: Vec<u64>,
    /// Shrink mode: exactly these drain calls may delay.
    delay_mask: Option<BTreeSet<u64>>,
    /// Grants actually issued (excludes the budget-exhausting draw).
    grants: u64,
    /// Grants returned inline to the stepping rank (fast path).
    self_grants: u64,
    /// Coverage-edge set for this run (always collected; quiet mode
    /// only suppresses the *log*, not the coverage signal).
    coverage: CoverageSet,
    /// Fail-stops delivered so far, saturated at [`PHASE_CAP`] — the
    /// protocol-phase coordinate of every coverage edge.
    kills_seen: u8,
}

/// The serializing scheduler. Construct, wrap in an `Arc`, and pass to
/// [`ftmpi::SimConfig::new`].
pub struct Scheduler {
    inner: Mutex<Inner>,
    budget: u64,
}

impl Scheduler {
    /// A scheduler for `n` ranks: every decision drawn from `seed`,
    /// hang declared after `budget` grants. With a `mask`, exactly the
    /// drain calls whose index is in it delay and every other drain
    /// delivers in full; without one, delays are drawn from `seed`.
    /// Grant and waitany/anysource decisions come from `seed` either
    /// way. [`Retention::Quiet`] runs the identical schedule without
    /// keeping a decision log or delay list.
    pub fn new(
        n: usize,
        seed: u64,
        budget: u64,
        mask: Option<&[u64]>,
        retention: Retention,
    ) -> Self {
        Scheduler {
            inner: Mutex::new(Inner {
                registered: n,
                waiting: Vec::with_capacity(n),
                running: None,
                rng: SplitMix64::new(seed),
                rng_delay: SplitMix64::new(seed ^ 0x64656C_61797321),
                rng_amount: SplitMix64::new(seed ^ 0x616D6F_756E7421),
                steps: 0,
                aborted: false,
                record: retention == Retention::Full,
                log: Vec::new(),
                drain_calls: 0,
                delays: Vec::new(),
                delay_mask: mask.map(|m| m.iter().copied().collect()),
                grants: 0,
                self_grants: 0,
                coverage: CoverageSet::new(),
                kills_seen: 0,
            }),
            budget,
        }
    }

    /// The decision log so far, one event per line — byte-identical for
    /// identical `(seed, kills, mask)` inputs. Empty under
    /// [`Retention::Quiet`].
    pub fn log_text(&self) -> String {
        let inner = self.inner.lock().unwrap();
        // One buffer, `fmt::Write` appends — no per-line `format!`
        // allocation. ~16 bytes of payload per line plus the prefix.
        let mut out = String::with_capacity(inner.log.len() * 24);
        for (i, ev) in inner.log.iter().enumerate() {
            let _ = writeln!(out, "{i:06} {ev}");
        }
        out
    }

    /// The recorded decisions.
    pub fn events(&self) -> Vec<SchedEvent> {
        self.inner.lock().unwrap().log.clone()
    }

    /// Drain-call indices that delayed delivery (the schedule's
    /// delay-set, the shrinker's second dimension). Empty under
    /// [`Retention::Quiet`].
    pub fn delay_calls(&self) -> Vec<u64> {
        self.inner.lock().unwrap().delays.clone()
    }

    /// Whether the logical-step watchdog fired.
    pub fn budget_exhausted(&self) -> bool {
        // The `aborted` flag is set exactly when the Budget event is
        // (would be) logged, so this is O(1) and recording-independent
        // — the old implementation scanned the whole log.
        self.inner.lock().unwrap().aborted
    }

    /// Grants issued so far (the logical clock).
    pub fn steps(&self) -> u64 {
        self.inner.lock().unwrap().steps
    }

    /// Move the run's coverage-edge set out of the scheduler (leaving
    /// an empty, unallocated placeholder). Call once, after the run:
    /// the fuzzer unions the full set; copying it through the hook
    /// trait would cost an allocation per harvest.
    pub fn take_coverage(&self) -> CoverageSet {
        let mut inner = self.inner.lock().unwrap();
        std::mem::replace(&mut inner.coverage, CoverageSet::empty())
    }

    /// Grant the token to a random waiting rank if everyone registered
    /// is waiting. Must be called with the lock held. `current` is the
    /// stepping rank when the caller is eligible for the self-grant
    /// fast path; returns `true` iff the grant went to `current`
    /// inline.
    fn try_dispatch(&self, inner: &mut Inner, current: Option<Rank>) -> bool {
        if inner.aborted || inner.running.is_some() || inner.waiting.is_empty() {
            return false;
        }
        if inner.waiting.len() != inner.registered {
            return false; // somebody is still running toward a step point
        }
        inner.steps += 1;
        if inner.steps > self.budget {
            // Nobody holds the token from here on: every suspended rank
            // is resumed by the dispatcher and sees `aborted`.
            inner.aborted = true;
            let phase = inner.kills_seen;
            inner.coverage.record(0, EdgeKind::Budget, phase);
            if inner.record {
                inner.log.push(SchedEvent::Budget);
            }
            return false;
        }
        let idx = inner.rng.below(inner.waiting.len());
        let rank = inner.waiting.remove(idx);
        inner.running = Some(rank);
        inner.grants += 1;
        let phase = inner.kills_seen;
        inner.coverage.record(rank, EdgeKind::Grant, phase);
        if inner.record {
            inner.log.push(SchedEvent::Grant { rank });
        }
        if current == Some(rank) {
            // Self-grant fast path: the stepping rank drew itself —
            // certain whenever it is the sole waiter.
            inner.self_grants += 1;
            return true;
        }
        false
    }

    /// Insert `rank` into the sorted waiting list (it is never already
    /// present: a rank waits only while it holds no token).
    fn wait(inner: &mut Inner, rank: Rank) {
        let pos = inner.waiting.binary_search(&rank).unwrap_err();
        inner.waiting.insert(pos, rank);
    }

    /// Remove `rank` from the waiting list if present.
    fn leave(inner: &mut Inner, rank: Rank) {
        if let Ok(pos) = inner.waiting.binary_search(&rank) {
            inner.waiting.remove(pos);
        }
    }
}

impl SchedHook for Scheduler {
    fn step(&self, rank: Rank, _point: SchedPoint) -> StepOutcome {
        let mut inner = self.inner.lock().unwrap();
        // Only a rank handing the token back is eligible for the
        // self-grant path: the entry barrier's last arrival drawing
        // itself is an ordinary grant (it runs on without a switch all
        // the same), so `self_grants` counts handbacks only.
        let held = inner.running == Some(rank);
        if held {
            inner.running = None;
        }
        if inner.aborted {
            return StepOutcome::Abort;
        }
        Scheduler::wait(&mut inner, rank);
        if self.try_dispatch(&mut inner, held.then_some(rank)) {
            return StepOutcome::Run;
        }
        if inner.running != Some(rank) {
            if inner.aborted {
                Scheduler::leave(&mut inner, rank);
                return StepOutcome::Abort;
            }
            drop(inner);
            ftmpi::suspend();
            inner = self.inner.lock().unwrap();
            if inner.aborted {
                Scheduler::leave(&mut inner, rank);
                return StepOutcome::Abort;
            }
            assert_eq!(inner.running, Some(rank), "rank {rank} resumed without the token");
        }
        StepOutcome::Run
    }

    fn runnable(&self) -> Option<Rank> {
        self.inner.lock().unwrap().running
    }

    fn choose(&self, rank: Rank, kind: ChoiceKind, n: usize) -> usize {
        assert!(n >= 1, "a choice needs at least one alternative");
        let mut inner = self.inner.lock().unwrap();
        let (pick, call) = match kind {
            ChoiceKind::Drain => {
                let call = inner.drain_calls;
                inner.drain_calls += 1;
                // `n` alternatives = queue length q + 1; q is the
                // full-delivery answer.
                let q = n - 1;
                let delay = match &inner.delay_mask {
                    Some(mask) => mask.contains(&call),
                    None => q > 0 && inner.rng_delay.next_u64() % 16 < DELAY_WEIGHT,
                };
                let pick = if delay && q > 0 { inner.rng_amount.below(q) } else { q };
                if pick < q && inner.record {
                    inner.delays.push(call);
                }
                (pick, Some(call))
            }
            ChoiceKind::WaitAny | ChoiceKind::AnySource => (inner.rng.below(n), None),
        };
        let ekind = match kind {
            ChoiceKind::WaitAny => EdgeKind::WaitAny,
            ChoiceKind::AnySource => EdgeKind::AnySource,
            // `pick < n - 1` ⇔ a suffix of the queue was withheld.
            ChoiceKind::Drain if pick < n - 1 => EdgeKind::DrainDelay,
            ChoiceKind::Drain => EdgeKind::DrainFull,
        };
        let phase = inner.kills_seen;
        inner.coverage.record(rank, ekind, phase);
        if inner.record {
            inner.log.push(SchedEvent::Choice { rank, kind, n, pick, call });
        }
        pick
    }

    fn on_exit(&self, rank: Rank) {
        let mut inner = self.inner.lock().unwrap();
        inner.registered = inner.registered.saturating_sub(1);
        Scheduler::leave(&mut inner, rank);
        if inner.running == Some(rank) {
            inner.running = None;
        }
        let phase = inner.kills_seen;
        inner.coverage.record(rank, EdgeKind::Exit, phase);
        if inner.record {
            inner.log.push(SchedEvent::Exit { rank });
        }
        // The exit may have completed the "everyone waiting" condition;
        // the dispatcher resumes whoever is granted. The exiting rank is
        // not stepping, so no self-grant candidate here.
        self.try_dispatch(&mut inner, None);
    }

    fn on_kill(&self, victim: Rank) {
        let mut inner = self.inner.lock().unwrap();
        // The kill edge carries the phase *entered by* this kill (the
        // first kill is phase-1 behavior), then later decisions see
        // the bumped counter.
        inner.kills_seen = (inner.kills_seen + 1).min(PHASE_CAP);
        let phase = inner.kills_seen;
        inner.coverage.record(victim, EdgeKind::Kill, phase);
        if inner.record {
            inner.log.push(SchedEvent::Kill { victim });
        }
    }

    fn now(&self) -> u64 {
        self.inner.lock().unwrap().steps
    }

    fn run_stats(&self) -> RunStats {
        let inner = self.inner.lock().unwrap();
        RunStats {
            handoff: HandoffStats {
                steps: inner.steps,
                grants: inner.grants,
                self_grants: inner.self_grants,
                // Ranks are fibers: nothing parks, unparks or spins.
                // These fields stay for their readers.
                prepark_grants: 0,
                parks: 0,
                unparks: 0,
                spin_iters: 0,
                // Wall-clock transport counter; the executor fills
                // this in.
                park_safety_timeouts: 0,
            },
            coverage: inner.coverage.stats(),
            // Attributed by the executor, not the scheduler.
            alloc: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmpi::{SimConfig, SimExecutor};
    use std::sync::Arc;

    fn recorded(n: usize, seed: u64, budget: u64) -> Scheduler {
        Scheduler::new(n, seed, budget, None, Retention::Full)
    }

    fn quiet(n: usize, seed: u64, budget: u64) -> Scheduler {
        Scheduler::new(n, seed, budget, None, Retention::Quiet)
    }

    /// Run `n` fiber ranks under `sched`, each calling `body` with the
    /// scheduler and its rank; the executor brackets every rank with
    /// its `Enter` step and `on_exit`.
    fn drive(sched: &Arc<Scheduler>, n: usize, body: impl Fn(&Scheduler, Rank)) {
        let report = SimExecutor::new(n).run(SimConfig::new(sched.clone()), |p| {
            body(sched, p.world_rank());
            Ok(())
        });
        assert!(report.outcomes.iter().all(|o| o.is_ok()), "{:?}", report.outcomes);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(SplitMix64::new(1).next_u64(), SplitMix64::new(2).next_u64());
    }

    #[test]
    fn serializes_two_fibers_and_logs_grants() {
        let sched = Arc::new(recorded(2, 42, 1000));
        drive(&sched, 2, |s, me| {
            for _ in 0..10 {
                assert_eq!(s.step(me, SchedPoint::Tick), StepOutcome::Run);
                assert_eq!(s.runnable(), Some(me), "a running rank holds the token");
            }
        });
        let grants = sched
            .events()
            .iter()
            .filter(|e| matches!(e, SchedEvent::Grant { .. }))
            .count();
        // The entry grant, one per step, and one when the first rank
        // to finish leaves the other waiting.
        assert_eq!(grants, 22);
        assert!(!sched.budget_exhausted());
        assert_eq!(sched.runnable(), None, "nobody holds the token after the run");
    }

    /// Spin until the budget fires, like a hung wait loop.
    fn spin(s: &Scheduler, me: Rank) {
        while s.step(me, SchedPoint::Tick) == StepOutcome::Run {}
    }

    #[test]
    fn budget_exhaustion_aborts_every_rank() {
        let sched = Arc::new(recorded(2, 1, 25));
        drive(&sched, 2, spin);
        assert!(sched.budget_exhausted());
        assert!(sched.steps() > 25);
        assert_eq!(sched.runnable(), None);
    }

    #[test]
    fn quiet_budget_exhaustion_is_still_visible() {
        let sched = Arc::new(quiet(2, 1, 25));
        drive(&sched, 2, spin);
        assert!(sched.budget_exhausted(), "aborted flag works without the log");
        assert!(sched.events().is_empty());
    }

    #[test]
    fn quiet_scheduler_runs_the_same_schedule_logfree() {
        // Drive recorded and quiet schedulers through an identical call
        // sequence: picks must match draw for draw, while the quiet one
        // retains nothing.
        let recorded = recorded(1, 77, 1000);
        let quiet = quiet(1, 77, 1000);
        for n in [4usize, 2, 7, 3, 5] {
            assert_eq!(
                recorded.choose(0, ChoiceKind::Drain, n),
                quiet.choose(0, ChoiceKind::Drain, n)
            );
            assert_eq!(
                recorded.choose(0, ChoiceKind::WaitAny, n),
                quiet.choose(0, ChoiceKind::WaitAny, n)
            );
        }
        assert!(!recorded.events().is_empty());
        assert!(quiet.events().is_empty());
        assert!(quiet.log_text().is_empty());
        assert!(quiet.delay_calls().is_empty());
    }

    #[test]
    fn delay_mask_forces_exact_delays() {
        let sched = Scheduler::new(1, 9, 100, Some(&[1]), Retention::Full);
        // Drain call 0: full delivery of a 3-long queue (4 options).
        assert_eq!(sched.choose(0, ChoiceKind::Drain, 4), 3);
        // Drain call 1: masked in, must delay (pick < 3).
        assert!(sched.choose(0, ChoiceKind::Drain, 4) < 3);
        // Drain call 2: full again.
        assert_eq!(sched.choose(0, ChoiceKind::Drain, 4), 3);
        assert_eq!(sched.delay_calls(), vec![1]);
    }

    /// A sole-waiter rank always draws itself: every grant after its
    /// entry step (which holds no token to hand back) takes the
    /// self-grant fast path, and no step ever suspends — which is why
    /// this test needs no fiber.
    #[test]
    fn sole_waiter_grants_are_all_elided() {
        let sched = recorded(1, 5, 1000);
        for _ in 0..50 {
            assert_eq!(sched.step(0, SchedPoint::Tick), StepOutcome::Run);
        }
        sched.on_exit(0);
        let stats = sched.run_stats().handoff;
        assert_eq!(stats.grants, 50);
        assert_eq!(stats.self_grants, 49);
        assert_eq!(
            (stats.prepark_grants, stats.parks, stats.unparks, stats.spin_iters),
            (0, 0, 0, 0)
        );
    }

    /// Two ranks ping-ponging: the PRNG draws the stepping rank about
    /// half the time, so some grants take the self-grant path. The log
    /// and the counters repeat exactly across runs.
    #[test]
    fn ping_pong_self_grants_repeat_across_runs() {
        let run = || {
            let sched = Arc::new(recorded(2, 42, 1000));
            drive(&sched, 2, |s, me| {
                for _ in 0..10 {
                    assert_eq!(s.step(me, SchedPoint::Tick), StepOutcome::Run);
                }
            });
            (sched.log_text(), sched.run_stats().handoff)
        };
        let (log, h) = run();
        assert_eq!((log, h), run());
        assert_eq!(h.grants, 22);
        assert!(h.self_grants > 0, "no self-grants on a 2-rank ping-pong");
    }

    #[test]
    fn log_text_is_stable_across_reads() {
        let sched = recorded(1, 3, 100);
        sched.choose(0, ChoiceKind::WaitAny, 2);
        sched.on_kill(0);
        assert_eq!(sched.log_text(), sched.log_text());
        assert!(sched.log_text().contains("kill 0"));
    }

    /// Coverage is recording-independent: a quiet scheduler driven
    /// through the same calls reports the identical edge set, and the
    /// kill phase splits otherwise-identical decisions.
    #[test]
    fn coverage_collected_quiet_and_phase_sensitive() {
        let drive = |sched: &Scheduler| {
            sched.choose(0, ChoiceKind::WaitAny, 3);
            sched.choose(1, ChoiceKind::Drain, 4);
            sched.on_kill(1);
            // Same decision as the first, now in phase 1 → new edge.
            sched.choose(0, ChoiceKind::WaitAny, 3);
            sched.on_exit(0);
        };
        let recorded = recorded(2, 11, 100);
        let quiet = quiet(2, 11, 100);
        drive(&recorded);
        drive(&quiet);
        let (r, q) = (recorded.run_stats().coverage, quiet.run_stats().coverage);
        assert_eq!(r, q, "quiet run covered differently");
        assert!(r.edges >= 5, "expected ≥5 distinct edges, got {}", r.edges);
        let set = recorded.take_coverage();
        assert_eq!(set.len() as u64, r.edges);
        assert_eq!(set.signature(), r.signature);
        // Harvest moved the set out; the scheduler now reports empty.
        assert_eq!(recorded.run_stats().coverage.edges, 0);
    }
}
