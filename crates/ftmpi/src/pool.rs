//! The persistent rank-executor pool for wall-clock mode.
//!
//! [`crate::run`] used to pay, per universe: `n` OS-thread spawns, `n`
//! joins, and a full reallocation of the shared state (fabric slots,
//! failure registry, coordination boards, trace sink). For a single
//! run that cost is noise; for a benchmark or property suite running
//! thousands of universes back to back it dominates.
//!
//! [`UniversePool::new(n)`](UniversePool::new) owns `n` long-lived
//! worker threads (named `rank-{i}`), one per rank: real threads are
//! the point of wall-clock mode, which tests the runtime under genuine
//! concurrency. [`UniversePool::run`] resets the shared universe state
//! in place (`Shared::reset` — queues cleared with capacity retained,
//! counters rewound, boards emptied) and hands each worker the closure
//! for one run. [`crate::run`] remains the spawn-per-run path as a thin
//! wrapper over a one-shot pool. Runs under a deterministic-simulation
//! scheduler use the single-threaded [`crate::SimExecutor`] instead.
//!
//! ### Reset safety
//!
//! `Shared::reset` needs `&mut Shared`, obtained via `Arc::get_mut`:
//! it succeeds exactly when no worker still holds a clone. Workers
//! guarantee that by construction — a job's captured `Arc<Shared>` is
//! dropped when the job closure returns, strictly *before* the worker
//! bumps the completion counter — and the async kill schedule's clone
//! is released by joining its thread before `run` returns. If some
//! future caller nevertheless retains a handle, `run` falls back to
//! building fresh state instead of corrupting a live universe.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use allocstats::AllocStats;
use parking_lot::Mutex;

use faultsim::KillHandle;

use crate::error::{RankOutcome, Result};
use crate::process::{Process, RankScratch};
use crate::universe::{rank_outcome, RunReport, Shared, UniverseConfig, WATCHDOG_ABORT_CODE};

/// One unit of work: one rank incarnation of one run. The argument is
/// the worker-owned [`RankScratch`] (drain buffer, match engine,
/// request table, communicator table, encode scratch), kept warm
/// across runs.
type Job = Box<dyn FnOnce(&mut RankScratch) + Send>;

/// Per-worker job queue. A queue, not a slot: the respawn extension
/// can enqueue a rank's next incarnation while the previous one is
/// still unwinding on the same worker (incarnations of one rank then
/// run in order, which also makes the "later incarnations overwrite
/// the outcome" rule deterministic instead of racy).
///
/// Idle workers sleep via `thread::park`, not a condvar: a submitter
/// pays one atomic load (and an unpark only when the worker actually
/// sleeps) instead of an unconditional notify through the condvar
/// machinery — measured ~150 ns per empty `notify_one` on the
/// reference box, paid once per job submission (DESIGN.md §8.9).
struct WorkerSlot {
    queue: Mutex<VecDeque<Job>>,
    /// True while the worker has committed to parking; tells a
    /// submitter an unpark is required. Stores/loads are ordered
    /// against the queue by the `queue` mutex critical sections (the
    /// worker re-checks the queue under the lock after setting this).
    parked: AtomicBool,
    /// The worker's thread handle, registered by the worker before it
    /// first touches the queue.
    thread: OnceLock<Thread>,
}

struct PoolCore {
    slots: Vec<WorkerSlot>,
    shutdown: AtomicBool,
    /// Jobs completed in the current run; rewound by `UniversePool::run`.
    done: AtomicUsize,
    /// Jobs submitted so far in the current run — maintained *before*
    /// each submission so a worker comparing `done >= target` can only
    /// see the caller's wait satisfied when every submitted job truly
    /// finished.
    target: AtomicUsize,
    /// The caller thread blocked in `wait_done`, if any. The caller
    /// registers itself here *before* re-checking `done`, so a worker
    /// that bumps `done` past the target either sees the registration
    /// (and unparks) or the caller's re-check sees the bump.
    waiter: Mutex<Option<Thread>>,
    /// Heap traffic of the current run's job bodies, accumulated from
    /// each worker's thread-local counters (see [`AllocTally`]).
    alloc: AllocTally,
}

/// Run-scoped allocation tally. Workers snapshot their thread-local
/// `allocstats` counters around each job body and fold the delta in
/// here; `UniversePool::run` rewinds it at the start of a run and
/// harvests it into [`RunReport::alloc`] at the end. All counters are
/// `Relaxed`: they are statistics, ordered against the harvest by the
/// run's completion barrier (`wait_done`), and stay zero unless the
/// final binary installs [`allocstats::StatsAlloc`] as its global
/// allocator (the `dst` harness does).
#[derive(Default)]
struct AllocTally {
    allocs: AtomicU64,
    deallocs: AtomicU64,
    bytes_alloc: AtomicU64,
    bytes_freed: AtomicU64,
}

impl AllocTally {
    fn add(&self, d: &AllocStats) {
        self.allocs.fetch_add(d.allocs, Ordering::Relaxed);
        self.deallocs.fetch_add(d.deallocs, Ordering::Relaxed);
        self.bytes_alloc.fetch_add(d.bytes_alloc, Ordering::Relaxed);
        self.bytes_freed.fetch_add(d.bytes_freed, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.allocs.store(0, Ordering::Relaxed);
        self.deallocs.store(0, Ordering::Relaxed);
        self.bytes_alloc.store(0, Ordering::Relaxed);
        self.bytes_freed.store(0, Ordering::Relaxed);
    }

    fn harvest(&self) -> AllocStats {
        AllocStats {
            allocs: self.allocs.load(Ordering::Relaxed),
            deallocs: self.deallocs.load(Ordering::Relaxed),
            bytes_alloc: self.bytes_alloc.load(Ordering::Relaxed),
            bytes_freed: self.bytes_freed.load(Ordering::Relaxed),
        }
    }
}

impl PoolCore {
    /// Enqueue without waking. The initial rank batch is pushed first
    /// and kicked together (see `kick_all`) so all ranks start as
    /// near-simultaneously as `thread::scope` spawns did — wall-clock
    /// fault tests lean on every rank reaching its first send before a
    /// self-killing rank (whose kill is strictly later in program
    /// order) dies.
    fn push(&self, worker: usize, job: Job) {
        self.slots[worker].queue.lock().push_back(job);
    }

    /// Unpark `worker` iff it declared itself parked. Safe against the
    /// lost-wakeup race: the worker sets `parked` *before* its final
    /// under-lock queue re-check, and callers kick only after their
    /// push's critical section — so either the re-check sees the job,
    /// or the kick sees `parked` and delivers the unpark token.
    fn kick(&self, worker: usize) {
        let slot = &self.slots[worker];
        if slot.parked.load(Ordering::Acquire) {
            if let Some(t) = slot.thread.get() {
                t.unpark();
            }
        }
    }

    fn kick_all(&self) {
        for i in 0..self.slots.len() {
            self.kick(i);
        }
    }

    fn submit(&self, worker: usize, job: Job) {
        self.push(worker, job);
        self.kick(worker);
    }

    fn done_count(&self) -> usize {
        self.done.load(Ordering::Acquire)
    }

    fn wait_done(&self, target: usize) {
        if self.done.load(Ordering::Acquire) >= target {
            return;
        }
        // Register first, then re-check: a worker that crosses the
        // target after the re-check is guaranteed to observe the
        // registration and unpark us. A stale unpark token from a
        // previous run at worst makes one park return early; the loop
        // re-checks.
        *self.waiter.lock() = Some(std::thread::current());
        while self.done.load(Ordering::Acquire) < target {
            std::thread::park();
        }
        *self.waiter.lock() = None;
    }
}

fn worker_loop(core: Arc<PoolCore>, idx: usize) {
    let slot = &core.slots[idx];
    let _ = slot.thread.set(std::thread::current());
    // Warm per-rank container scratch, lent to every job this worker
    // runs.
    let mut scratch = RankScratch::default();
    'outer: loop {
        let job = loop {
            if let Some(j) = slot.queue.lock().pop_front() {
                break j;
            }
            if core.shutdown.load(Ordering::Acquire) {
                break 'outer;
            }
            // Commit to parking, then re-check the queue *under the
            // lock*: a submitter that pushed before our re-check is
            // seen here; one that pushes after is ordered behind our
            // `parked` store by the queue critical sections and will
            // kick us.
            slot.parked.store(true, Ordering::Release);
            {
                let q = slot.queue.lock();
                if q.is_empty() && !core.shutdown.load(Ordering::Acquire) {
                    drop(q);
                    std::thread::park();
                }
            }
            slot.parked.store(false, Ordering::Release);
        };
        // The job's own `catch_unwind` covers the rank closure; this
        // outer one covers the bookkeeping tail, so a panicking job
        // still counts as finished — `run` then reports the missing
        // outcome as a clean panic instead of deadlocking.
        //
        // Ordering matters: the call consumes the job, dropping its
        // captured `Arc<Shared>` before the completion signal below —
        // `run` relies on that for exclusive access at the next reset.
        let before = allocstats::snapshot();
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| job(&mut scratch)));
        core.alloc.add(&allocstats::snapshot().since(&before));
        let done = core.done.fetch_add(1, Ordering::AcqRel) + 1;
        if done >= core.target.load(Ordering::Acquire) {
            // Possibly the last job of the run: wake the caller if it
            // is (or is about to be) parked in `wait_done`. Spurious
            // wakes (another submission raised the target since) are
            // harmless — the caller re-checks.
            if let Some(t) = core.waiter.lock().as_ref() {
                t.unpark();
            }
        }
    }
}

/// A persistent rank-executor pool: `n` long-lived worker threads plus
/// recycled universe state, executing whole universe runs back-to-back
/// without per-run thread spawns or state reallocation.
///
/// ```
/// use ftmpi::{UniverseConfig, UniversePool};
///
/// let mut pool = UniversePool::new(2);
/// for _ in 0..3 {
///     let report = pool.run(UniverseConfig::default(), |p| Ok(p.world_rank()));
///     assert!(report.all_ok());
/// }
/// ```
pub struct UniversePool {
    size: usize,
    /// Warm universe state from the previous run, reset in place at the
    /// start of the next one.
    shared: Option<Arc<Shared>>,
    core: Arc<PoolCore>,
    workers: Vec<JoinHandle<()>>,
}

impl UniversePool {
    /// A pool of `n` rank-executor threads, named `rank-0 .. rank-{n-1}`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "universe needs at least one rank");
        let core = Arc::new(PoolCore {
            slots: (0..n)
                .map(|_| WorkerSlot {
                    queue: Mutex::new(VecDeque::new()),
                    parked: AtomicBool::new(false),
                    thread: OnceLock::new(),
                })
                .collect(),
            shutdown: AtomicBool::new(false),
            done: AtomicUsize::new(0),
            target: AtomicUsize::new(0),
            waiter: Mutex::new(None),
            alloc: AllocTally::default(),
        });
        let workers = (0..n)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("rank-{i}"))
                    .spawn(move || worker_loop(core, i))
                    .expect("spawn pool worker thread")
            })
            .collect();
        UniversePool { size: n, shared: None, core, workers }
    }

    /// Number of ranks (and worker threads) in this pool.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Run `f` on every rank under `cfg`, reusing this pool's threads
    /// and universe state. Semantics are identical to [`crate::run`]
    /// with the same arguments.
    pub fn run<T, F>(&mut self, cfg: UniverseConfig, f: F) -> RunReport<T>
    where
        T: Send,
        F: Fn(&mut Process) -> Result<T> + Send + Sync,
    {
        let n = self.size;
        let UniverseConfig { plan, schedule, watchdog, trace, respawn } = cfg;
        let shared = Shared::recycle(self.shared.take(), n, plan, trace, None);

        // Asynchronous kill schedule, if any.
        let schedule_handle = schedule.map(|s| {
            let shared = Arc::clone(&shared);
            let kill: KillHandle = Arc::new(move |r| {
                if r < shared.size {
                    shared.kill(r);
                }
            });
            s.start(kill)
        });

        let outcomes: Mutex<Vec<Option<RankOutcome<T>>>> =
            Mutex::new((0..n).map(|_| None).collect());
        // Only the caller's thread submits jobs, so a plain Cell counts
        // them.
        let spawned = Cell::new(0usize);
        self.core.done.store(0, Ordering::Release);
        self.core.target.store(0, Ordering::Release);
        self.core.alloc.reset();
        let start = Instant::now();
        let mut hung = false;

        let submit_incarnation = |me: usize, gen: u32, kick: bool| {
            spawned.set(spawned.get() + 1);
            // Raise the completion target before the job exists: a
            // worker can then never observe `done >= target` with this
            // job outstanding.
            self.core.target.store(spawned.get(), Ordering::Release);
            let shared = Arc::clone(&shared);
            let f = &f;
            let outcomes = &outcomes;
            let job: Box<dyn FnOnce(&mut RankScratch) + Send + '_> =
                Box::new(move |scratch: &mut RankScratch| {
                    let buf = std::mem::take(scratch);
                    let mut proc = Process::with_scratch(me, gen, shared, buf);
                    let res = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut proc)));
                    *scratch = proc.recycle_scratch();
                    // Later incarnations overwrite: the rank's reported
                    // outcome is its final incarnation's (incarnations
                    // of one rank run in order on its worker).
                    outcomes.lock()[me] = Some(rank_outcome(res));
                });
            // SAFETY: the job borrows `f`, `outcomes` and the stack
            // frame of `run`, which the 'static `Job` type erases.
            // Sound because `run` does not return (or unwind past the
            // borrows — nothing below panics before the wait) until
            // `wait_done` has observed every submitted job complete,
            // and a worker only counts a job complete after the job
            // closure (and thus every use of those borrows) returned.
            let job: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce(&mut RankScratch) + Send + '_>, Job>(job)
            };
            if kick {
                self.core.submit(me, job);
            } else {
                self.core.push(me, job);
            }
        };

        // Push the whole rank batch before waking anyone: all ranks
        // then start together (like scoped spawns pipelining) instead
        // of in wake order.
        for me in 0..n {
            submit_incarnation(me, 0, false);
        }
        self.core.kick_all();

        // Supervisor loop: watchdog + recovery, polling at 1ms exactly
        // like the spawn-per-run path did. Skipped entirely when
        // neither is configured (the completion wait below suffices).
        if watchdog.is_some() || respawn.is_some() {
            let mut budget: Vec<u32> = vec![respawn.map(|p| p.max_per_rank).unwrap_or(0); n];
            let mut death_seen: Vec<Option<Instant>> = vec![None; n];
            loop {
                let all_done = self.core.done_count() == spawned.get();
                // A respawn is only pending while some incarnation is
                // still running: reviving a rank after everyone else
                // finished would strand it (nobody left to talk to).
                let respawn_pending = !all_done
                    && respawn.is_some()
                    && shared.registry.aborted().is_none()
                    && (0..n).any(|r| shared.registry.is_failed(r) && budget[r] > 0);
                if all_done {
                    break;
                }
                if let Some(limit) = watchdog {
                    if start.elapsed() > limit {
                        hung = true;
                        shared.abort(WATCHDOG_ABORT_CODE);
                        break;
                    }
                }
                if let Some(policy) = respawn {
                    if respawn_pending {
                        for r in 0..n {
                            if !shared.registry.is_failed(r) {
                                death_seen[r] = None;
                                continue;
                            }
                            if budget[r] == 0 {
                                continue;
                            }
                            let seen = *death_seen[r].get_or_insert_with(Instant::now);
                            if seen.elapsed() >= policy.after {
                                budget[r] -= 1;
                                death_seen[r] = None;
                                if let Some(gen) = shared.respawn(r) {
                                    submit_incarnation(r, gen, true);
                                }
                            }
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // Every submitted job must finish before the borrows (and the
        // workers' `Arc<Shared>` clones) can be considered released —
        // including post-abort unwinds after a watchdog break above.
        self.core.wait_done(spawned.get());

        if let Some(h) = schedule_handle {
            h.join();
        }

        let generations = (0..n).map(|r| shared.registry.generation(r)).collect();
        let mut stats = faultsim::RunStats::default();
        stats.handoff.park_safety_timeouts = shared.fabric.park_timeouts();
        stats.alloc = self.core.alloc.harvest();
        let outcomes = outcomes
            .into_inner()
            .into_iter()
            .map(|o| o.expect("every rank records an outcome"))
            .collect();
        let report = RunReport {
            outcomes,
            hung,
            trace: shared.trace.events(),
            duration: start.elapsed(),
            generations,
            stats,
        };
        // Keep the universe state warm for the next run.
        self.shared = Some(shared);
        report
    }
}

impl Drop for UniversePool {
    fn drop(&mut self) {
        self.core.shutdown.store(true, Ordering::Release);
        for slot in &self.core.slots {
            // Lock to serialize with a worker's pre-park re-check
            // (which reads `shutdown` inside the queue critical
            // section): after this critical section the worker either
            // saw the flag and will not park, or it is parked and the
            // unconditional unpark below wakes it. The `parked` flag
            // alone would race store-vs-load here.
            drop(slot.queue.lock());
            if let Some(t) = slot.thread.get() {
                t.unpark();
            }
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ErrorHandler, Src, WORLD};

    fn ring_once(p: &mut Process) -> Result<u64> {
        p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
        let n = p.world_size();
        let me = p.world_rank();
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        if me == 0 {
            p.send(WORLD, next, 0, &1u64)?;
            let (v, _) = p.recv::<u64>(WORLD, Src::Rank(prev), 0)?;
            Ok(v)
        } else {
            let (v, _) = p.recv::<u64>(WORLD, Src::Rank(prev), 0)?;
            p.send(WORLD, next, 0, &(v + 1))?;
            Ok(v)
        }
    }

    #[test]
    fn pool_runs_back_to_back_with_identical_results() {
        let mut pool = UniversePool::new(4);
        for round in 0..5 {
            let report = pool.run(UniverseConfig::default(), ring_once);
            assert!(report.all_ok(), "round {round}: {:?}", report.failed_ranks());
            assert_eq!(report.outcomes[0].as_ok(), Some(&4u64), "round {round}");
            assert_eq!(report.generations, vec![0; 4]);
        }
    }

    #[test]
    fn pool_state_does_not_bleed_between_failing_and_clean_runs() {
        use faultsim::{FaultPlan, HookKind};
        let mut pool = UniversePool::new(3);
        // Run 1: kill rank 1 at its first send.
        let plan = FaultPlan::none().kill_at(1, HookKind::BeforeSend, 1);
        let report = pool.run::<u64, _>(UniverseConfig::with_plan(plan), |p| {
            p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
            if p.world_rank() == 1 {
                // Dies at the BeforeSend hook; the send reports it.
                p.send(WORLD, 0, 7, &1u64)?;
            }
            Ok(p.world_rank() as u64)
        });
        assert!(report.outcomes[1].is_failed(), "rank 1 must be killed");
        // Run 2: clean — the failure must not leak into it.
        let report = pool.run(UniverseConfig::default(), ring_once);
        assert!(report.all_ok(), "failure state bled: {:?}", report.failed_ranks());
        assert_eq!(report.outcomes[0].as_ok(), Some(&3u64));
    }

    #[test]
    fn one_shot_run_wrapper_matches_pool() {
        let from_run = crate::run(4, UniverseConfig::default(), ring_once);
        let mut pool = UniversePool::new(4);
        let from_pool = pool.run(UniverseConfig::default(), ring_once);
        assert_eq!(from_run.outcomes, from_pool.outcomes);
        assert_eq!(from_run.hung, from_pool.hung);
        assert_eq!(from_run.generations, from_pool.generations);
    }
}
