//! The serializing, seeded scheduler (the heart of the harness).
//!
//! One [`Scheduler`] drives one `ftmpi` universe through the
//! [`SchedHook`] instrumentation: every rank thread blocks inside
//! [`SchedHook::step`] until the scheduler grants it the token, so at
//! most one rank executes runtime actions at any instant and the whole
//! interleaving collapses to a *sequence of decisions*. Each decision
//! (which rank runs next, which ready request completes, which sender
//! matches, how many queued envelopes are delivered) is drawn from a
//! splitmix64 PRNG seeded with a single `u64` — so one seed names one
//! complete schedule, reproducible forever, and the decision log it
//! leaves behind is byte-identical across runs.
//!
//! ### Dispatch protocol (self-grant fast path + park)
//!
//! * `n` ranks start registered; a rank leaves on
//!   [`SchedHook::on_exit`].
//! * A rank arriving at a step point parks in `waiting`. When *every*
//!   registered rank is parked (nobody is running), the scheduler picks
//!   one at random and logs `grant`.
//! * **Self-grant fast path**: the stepping rank runs `try_dispatch`
//!   itself, while it still holds the lock and is still on-CPU. If the
//!   PRNG draws *that same rank* — always, when it is the sole waiter,
//!   which is the common case for the paper's one-token-in-flight ring
//!   — the grant is returned inline from `step` and the park/wake
//!   context-switch pair is elided entirely. The PRNG stream and the
//!   logged decision are unchanged; only the handoff is skipped. Only a
//!   rank handing the token back is eligible (not the last arrival at
//!   the entry barrier), so `self_grants` is a function of the seed.
//! * Otherwise the handoff goes through a per-rank slot: a word-sized
//!   state machine (`ARMED → PARKED → GRANTED`, or `ABORT`) plus
//!   `thread::park`/`Thread::unpark`. The granter flips the slot to
//!   `GRANTED` with one atomic swap and unparks the waiter only if it
//!   had already parked; a grant that lands before the waiter commits
//!   to parking is consumed without sleeping. There is no spin phase
//!   (DESIGN.md §8.9): it never caught a grant at 4 or 8 ranks, and a
//!   spinning waiter steals the CPU another universe's rank needs.
//!   Compared to the previous per-rank condition variables this removes
//!   the futex-wait + mutex-reacquisition cost from every handoff
//!   (measured ~2.5 µs per condvar round trip vs ~1 µs for a raw
//!   park/unpark pair on the reference box, DESIGN.md §8.9).
//! * Self-grants, parks and unparks are counted
//!   ([`SchedHook::run_stats`]) and surfaced per run through
//!   `RunReport` and `dst explore --stats`.
//! * The number of grants is the **logical clock**. When it exceeds the
//!   step budget the run is aborted — the deterministic replacement for
//!   a wall-clock hang watchdog: a distributed hang is just a schedule
//!   that keeps granting without anyone exiting.
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

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::Thread;

use crate::coverage::{CoverageSet, EdgeKind, PHASE_CAP};
use crate::scenario::Retention;
use faultsim::{ChoiceKind, HandoffStats, Rank, RunStats, SchedHook, SchedPoint, StepOutcome};

/// Deterministic splitmix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

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
    /// `rank`'s thread left the universe.
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

// Per-rank handoff slot states. A slot belongs to exactly one waiter
// (its rank) and is written by granters only via the `GRANTED`/`ABORT`
// swaps below.
/// Waiter is awake (running, or about to check the slot).
const ARMED: u32 = 0;
/// Waiter has committed to `thread::park` (granter must unpark).
const PARKED: u32 = 1;
/// Grant delivered; waiter consumes it and re-arms.
const GRANTED: u32 = 2;
/// Budget exhausted; waiter must abort. Terminal for the run.
const ABORT: u32 = 3;

/// One per-rank handoff slot: the word the grant travels through.
struct HandoffSlot {
    state: AtomicU32,
}

struct Inner {
    /// Ranks whose threads are still inside the universe. A count
    /// suffices: `waiting ⊆ registered` (an exited rank never steps
    /// again), and dispatch only compares sizes.
    registered: usize,
    /// Registered ranks currently parked at a step point, in ascending
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
    /// Thread handle per rank, registered at the rank's first `step`
    /// (under this mutex, before the rank can ever be granted), so a
    /// granter can unpark it. `None` until the rank first steps.
    threads: Vec<Option<Thread>>,
    /// Grants actually issued (excludes the budget-exhausting draw).
    grants: u64,
    /// Grants returned inline to the stepping rank (fast path).
    self_grants: u64,
    /// `Thread::unpark` wakeups issued by granters.
    unparks: u64,
    /// Coverage-edge set for this run (always collected; quiet mode
    /// only suppresses the *log*, not the coverage signal).
    coverage: CoverageSet,
    /// Fail-stops delivered so far, saturated at [`PHASE_CAP`] — the
    /// protocol-phase coordinate of every coverage edge.
    kills_seen: u8,
}

/// The serializing scheduler. Construct, wrap in an `Arc`, and pass to
/// [`ftmpi::UniverseConfig::sim`].
pub struct Scheduler {
    inner: Mutex<Inner>,
    /// One handoff slot per rank: a grant travels to exactly the
    /// granted rank through its slot word.
    slots: Vec<HandoffSlot>,
    budget: u64,
    // Waiter-side counters. These are bumped outside the inner mutex
    // (on the park path), so they are atomics on the scheduler.
    prepark_grants: AtomicU64,
    parks: AtomicU64,
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
                threads: vec![None; n],
                grants: 0,
                self_grants: 0,
                unparks: 0,
                coverage: CoverageSet::new(),
                kills_seen: 0,
            }),
            slots: (0..n).map(|_| HandoffSlot { state: AtomicU32::new(ARMED) }).collect(),
            budget,
            prepark_grants: AtomicU64::new(0),
            parks: AtomicU64::new(0),
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

    /// Grant the token to a random parked rank if everyone registered
    /// is parked. Must be called with the lock held. `current` is the
    /// stepping rank when the caller is eligible for the self-grant
    /// fast path; returns `true` iff the grant went to `current`
    /// inline (no slot traffic at all).
    fn try_dispatch(&self, inner: &mut Inner, current: Option<Rank>) -> bool {
        if inner.aborted || inner.running.is_some() || inner.waiting.is_empty() {
            return false;
        }
        if inner.waiting.len() != inner.registered {
            return false; // somebody is still running toward a step point
        }
        inner.steps += 1;
        if inner.steps > self.budget {
            inner.aborted = true;
            let phase = inner.kills_seen;
            inner.coverage.record(0, EdgeKind::Budget, phase);
            if inner.record {
                inner.log.push(SchedEvent::Budget);
            }
            // Teardown is the one event every parked rank must see. No
            // grant can be in flight here (`running` blocks dispatch
            // until the grantee consumed it), so `ABORT` never
            // overwrites a pending `GRANTED`.
            for (rank, slot) in self.slots.iter().enumerate() {
                if slot.state.swap(ABORT, Ordering::AcqRel) == PARKED {
                    if let Some(t) = &inner.threads[rank] {
                        t.unpark();
                    }
                }
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
            // certain whenever it is the sole waiter. Return the grant
            // inline; the park/wake pair is elided.
            inner.self_grants += 1;
            return true;
        }
        // Direct handoff: flip the grantee's slot word. Unpark only if
        // the waiter already committed to parking; if it is still in
        // its pre-park window it consumes the grant without ever
        // sleeping.
        let prev = self.slots[rank].state.swap(GRANTED, Ordering::AcqRel);
        if prev == PARKED {
            inner.unparks += 1;
            inner.threads[rank]
                .as_ref()
                .expect("a waiting rank has stepped, so its thread is registered")
                .unpark();
        }
        false
    }

    /// Wait on `rank`'s slot until granted or aborted. Called without
    /// the inner lock; the grant signal travels through the slot word
    /// (`Release` swap by the granter, `Acquire` loads here).
    fn await_grant(&self, rank: Rank) -> StepOutcome {
        let slot = &self.slots[rank];
        // Announce PARKED first so the granter knows an
        // unpark is needed, re-check, then sleep. A stale unpark token
        // (granter saw PARKED but we consumed the grant en route) only
        // makes one later park return early — `thread::park` tolerates
        // spurious returns by contract, and the loop re-checks.
        let mut parked = false;
        loop {
            match slot.state.load(Ordering::Acquire) {
                GRANTED => {
                    slot.state.store(ARMED, Ordering::Relaxed);
                    if !parked {
                        // Raced the granter: consumed before sleeping.
                        self.prepark_grants.fetch_add(1, Ordering::Relaxed);
                    }
                    return StepOutcome::Run;
                }
                ABORT => return self.abort_wait(rank),
                ARMED => {
                    let _ = slot.state.compare_exchange(
                        ARMED,
                        PARKED,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
                }
                _ => {
                    // PARKED (by us): sleep until a granter unparks.
                    self.parks.fetch_add(1, Ordering::Relaxed);
                    parked = true;
                    std::thread::park();
                }
            }
        }
    }

    /// Budget fired while `rank` waited: leave the waiting set so a
    /// concurrent accounting pass never sees a phantom parked rank.
    fn abort_wait(&self, rank: Rank) -> StepOutcome {
        let mut inner = self.inner.lock().unwrap();
        Scheduler::unpark(&mut inner, rank);
        StepOutcome::Abort
    }

    /// Insert `rank` into the sorted waiting list (it is never already
    /// present: a rank parks only while it holds no token).
    fn park(inner: &mut Inner, rank: Rank) {
        let pos = inner.waiting.binary_search(&rank).unwrap_err();
        inner.waiting.insert(pos, rank);
    }

    /// Remove `rank` from the waiting list if present.
    fn unpark(inner: &mut Inner, rank: Rank) {
        if let Ok(pos) = inner.waiting.binary_search(&rank) {
            inner.waiting.remove(pos);
        }
    }
}

impl SchedHook for Scheduler {
    fn step(&self, rank: Rank, _point: SchedPoint) -> StepOutcome {
        let mut inner = self.inner.lock().unwrap();
        if inner.threads[rank].is_none() {
            // First step of this rank's thread: register the handle a
            // granter will unpark. Happens under the mutex before the
            // rank can ever appear in `waiting`, so every grant
            // targets a registered thread.
            inner.threads[rank] = Some(std::thread::current());
        }
        // Only a rank handing the token back is eligible for the
        // self-grant path. At the entry barrier, which rank arrives last
        // is timing; letting it self-grant would make `self_grants`
        // differ between two runs of one seed.
        let held = inner.running == Some(rank);
        if held {
            inner.running = None;
        }
        if inner.aborted {
            return StepOutcome::Abort;
        }
        Scheduler::park(&mut inner, rank);
        if self.try_dispatch(&mut inner, held.then_some(rank)) {
            return StepOutcome::Run;
        }
        if inner.aborted {
            Scheduler::unpark(&mut inner, rank);
            return StepOutcome::Abort;
        }
        drop(inner);
        self.await_grant(rank)
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
        Scheduler::unpark(&mut inner, rank);
        if inner.running == Some(rank) {
            inner.running = None;
        }
        let phase = inner.kills_seen;
        inner.coverage.record(rank, EdgeKind::Exit, phase);
        if inner.record {
            inner.log.push(SchedEvent::Exit { rank });
        }
        // The exit may have completed the "everyone parked" condition;
        // dispatch wakes whoever is granted. No other rank's wake
        // condition changes, so no broadcast is needed. The exiting
        // rank is not stepping, so no self-grant candidate here.
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
                prepark_grants: self.prepark_grants.load(Ordering::Relaxed),
                parks: self.parks.load(Ordering::Relaxed),
                unparks: inner.unparks,
                // No spin phase: the field stays for its readers.
                spin_iters: 0,
                // Wall-clock transport counter; the pool fills this in.
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
    use std::sync::Arc;

    fn recorded(n: usize, seed: u64, budget: u64) -> Scheduler {
        Scheduler::new(n, seed, budget, None, Retention::Full)
    }

    fn quiet(n: usize, seed: u64, budget: u64) -> Scheduler {
        Scheduler::new(n, seed, budget, None, Retention::Quiet)
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
    fn serializes_two_threads_and_logs_grants() {
        let sched = Arc::new(recorded(2, 42, 1000));
        let mut handles = Vec::new();
        for me in 0..2 {
            let s = Arc::clone(&sched);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    assert_eq!(s.step(me, SchedPoint::Tick), StepOutcome::Run);
                }
                s.on_exit(me);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let grants = sched
            .events()
            .iter()
            .filter(|e| matches!(e, SchedEvent::Grant { .. }))
            .count();
        assert_eq!(grants, 20);
        assert!(!sched.budget_exhausted());
    }

    #[test]
    fn budget_exhaustion_aborts_every_rank() {
        let sched = Arc::new(recorded(2, 1, 25));
        let mut handles = Vec::new();
        for me in 0..2 {
            let s = Arc::clone(&sched);
            handles.push(std::thread::spawn(move || {
                // Spin until the budget fires, like a hung wait loop.
                while s.step(me, SchedPoint::Tick) == StepOutcome::Run {}
                s.on_exit(me);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(sched.budget_exhausted());
        assert!(sched.steps() > 25);
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
        assert!(!recorded.delay_calls().is_empty() || recorded.delay_calls().is_empty());
    }

    #[test]
    fn quiet_budget_exhaustion_is_still_visible() {
        let sched = Arc::new(quiet(2, 1, 25));
        let mut handles = Vec::new();
        for me in 0..2 {
            let s = Arc::clone(&sched);
            handles.push(std::thread::spawn(move || {
                while s.step(me, SchedPoint::Tick) == StepOutcome::Run {}
                s.on_exit(me);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(sched.budget_exhausted(), "aborted flag works without the log");
        assert!(sched.events().is_empty());
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
    /// self-grant fast path, and none of them parks or unparks.
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
        assert_eq!(stats.prepark_grants, 1);
        assert_eq!(stats.parks, 0);
        assert_eq!(stats.unparks, 0);
    }

    /// Two ranks ping-ponging: the PRNG draws the stepping rank about
    /// half the time, so some grants take the self-grant path. The log
    /// and the deterministic counters (steps, grants, self-grants)
    /// repeat exactly across runs; only parks/unparks depend on timing.
    #[test]
    fn ping_pong_self_grants_repeat_across_runs() {
        let run = || {
            let sched = Arc::new(recorded(2, 42, 1000));
            let mut handles = Vec::new();
            for me in 0..2 {
                let s = Arc::clone(&sched);
                handles.push(std::thread::spawn(move || {
                    for _ in 0..10 {
                        assert_eq!(s.step(me, SchedPoint::Tick), StepOutcome::Run);
                    }
                    s.on_exit(me);
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let h = sched.run_stats().handoff;
            (sched.log_text(), h.steps, h.grants, h.self_grants, h.spin_iters)
        };
        let (log_a, steps, grants, self_grants, spin_iters) = run();
        assert_eq!((log_a, steps, grants, self_grants, spin_iters), run());
        assert_eq!(grants, 20);
        assert!(self_grants > 0, "no self-grants on a 2-rank ping-pong");
        assert_eq!(spin_iters, 0, "the handoff has no spin phase");
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
