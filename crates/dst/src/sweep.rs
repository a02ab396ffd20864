//! Parallel seed-sweep engine.
//!
//! [`sweep`] is the multi-worker replacement for running seeds one at a
//! time: a set of worker threads (sized by `workers`) pulls seed
//! chunks from a shared atomic cursor, runs each seed's fully
//! self-contained simulation ([`SeedRunner::run_seed`] plus the
//! oracles), and streams a compact per-seed verdict into an
//! aggregator. Determinism lives entirely inside the run — every
//! universe owns its scheduler, fabric, injector, boards and trace,
//! and nothing is process-global — so the per-seed verdicts are
//! identical whatever the worker count; only wall-clock time changes.
//!
//! The aggregator keeps **streaming summaries**, not observations: a
//! green seed costs three counter bumps, and a failing seed is folded
//! into a bounded [`FailureSummary`] map that retains the *lowest*
//! failing seeds (eviction by largest key, so the retained set is also
//! independent of arrival order). A million-seed sweep therefore runs
//! in O(max_failures) memory instead of O(seeds) observations-plus-logs.
//!
//! Failing seeds render as corpus lines ([`SweepReport::corpus_lines`],
//! written by [`write_lines`]) of one-line repros, optionally
//! ddmin-minimized first (`shrink_failures`), so a red CI run hands the
//! developer `dst replay --seed 0x2d --buggy` instead of a log dump.
//!
//! The run bookkeeping both engines share — green/failing/hung counts,
//! merged [`RunStats`], the exact coverage union — is one `Tally`, and
//! one `judge` turns an observation into its failure fields; the fuzzer
//! ([`crate::fuzz`](mod@crate::fuzz)) uses both.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use faultsim::{CoverageStats, RunStats};

use crate::oracle::check_all;
use crate::scenario::{KillShape, Observation, Retention, ScenarioCfg, Schedule, SeedRunner};
use crate::shrink::shrink;

/// Seeds claimed per cursor pull. Small enough that workers stay
/// balanced at the tail of a sweep, large enough that the cursor is not
/// contended.
const CHUNK: u64 = 8;

/// Worker count for a sweep of `count` seeds on `cores` cores: each
/// worker runs its universes on its own thread, every rank a fiber, so
/// `jobs = 0` means one worker per core and an explicit `jobs` is taken
/// as given. Never more workers than seeds.
fn workers(jobs: usize, count: u64, cores: usize) -> usize {
    let jobs = if jobs == 0 { cores } else { jobs };
    // More workers than seeds would find the cursor empty.
    jobs.min(usize::try_from(count).unwrap_or(usize::MAX)).max(1)
}

/// How a sweep is shaped: the seed range and the engine knobs.
#[derive(Debug, Clone)]
pub struct SweepCfg {
    /// First seed.
    pub start: u64,
    /// Number of seeds (`start..start + count`).
    pub count: u64,
    /// Worker threads; `0` means one per core. Never more than
    /// `count`.
    pub jobs: usize,
    /// Cap on retained failure summaries (the lowest failing seeds are
    /// kept; everything beyond the cap is counted, not stored).
    pub max_failures: usize,
    /// ddmin-minimize each retained failure after the sweep, so corpus
    /// lines carry a minimal event set.
    pub shrink_failures: bool,
}

impl Default for SweepCfg {
    fn default() -> Self {
        SweepCfg { start: 0, count: 100, jobs: 0, max_failures: 100, shrink_failures: false }
    }
}

impl SweepCfg {
    /// Reject degenerate sweep shapes; [`sweep`] runs this first.
    pub fn validate(&self) -> Result<(), SweepError> {
        if self.count == 0 {
            return Err(SweepError::InvalidConfig("seed count must be at least 1".into()));
        }
        // `start..start + count` must not wrap: checked once, with a
        // clean error instead of a debug panic / silent empty range.
        self.start
            .checked_add(self.count)
            .ok_or(SweepError::SeedRangeOverflow { start: self.start, count: self.count })?;
        Ok(())
    }
}

/// Ways a sweep can be rejected before any seed runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// `start + count` does not fit in a `u64`: the range cannot be
    /// represented, let alone iterated.
    SeedRangeOverflow {
        /// Requested first seed.
        start: u64,
        /// Requested seed count.
        count: u64,
    },
    /// The scenario or engine configuration is degenerate.
    InvalidConfig(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::SeedRangeOverflow { start, count } => write!(
                f,
                "seed range overflows: start {start:#x} + count {count} exceeds u64::MAX"
            ),
            SweepError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// Compact record of one failing seed — everything needed to report
/// and reproduce it, nothing that grows with the run (no observation,
/// no decision log).
#[derive(Debug, Clone)]
pub struct FailureSummary {
    /// The failing seed.
    pub seed: u64,
    /// Violated oracle names, deduplicated, in oracle order.
    pub oracles: Vec<String>,
    /// Full violation messages.
    pub violations: Vec<String>,
    /// Whether the run hung (logical-step budget exhausted).
    pub hung: bool,
    /// One-line wait-for graph for hung runs (who waits on whom), from
    /// the hang triager; empty for non-hang failures. Computed from
    /// the quiet observation's trace — no re-run.
    pub triage: String,
    /// Minimal schedule from ddmin, when `shrink_failures` ran.
    pub shrunk: Option<ShrunkSummary>,
}

impl FailureSummary {
    /// The schedule this failure reports: the ddmin-minimal one when
    /// `shrink_failures` ran, else the one `seed` derives under
    /// `scenario`.
    pub fn schedule(&self, scenario: &ScenarioCfg) -> Schedule {
        match &self.shrunk {
            Some(s) => s.schedule.clone(),
            None => Schedule::from_seed(self.seed, scenario),
        }
    }
}

/// Result of shrinking one failing seed.
#[derive(Debug, Clone)]
pub struct ShrunkSummary {
    /// The locally minimal schedule that still fails.
    pub schedule: Schedule,
    /// Schedules the shrinker executed to get there.
    pub runs: usize,
}

/// What a sweep found, in aggregate.
#[derive(Debug)]
pub struct SweepReport {
    /// First seed swept.
    pub start: u64,
    /// Seeds swept.
    pub count: u64,
    /// Worker threads actually used.
    pub jobs: usize,
    /// Seeds with every applicable oracle green.
    pub green: u64,
    /// Seeds with at least one violation.
    pub failing: u64,
    /// Seeds whose run hung (subset of `failing`: the hang itself may
    /// or may not be an oracle violation, but it is always counted).
    pub hung: u64,
    /// Bounded failure map, keyed by seed: the lowest
    /// `SweepCfg::max_failures` failing seeds.
    pub failures: BTreeMap<u64, FailureSummary>,
    /// Failing seeds beyond the cap — counted so the bound is never a
    /// silent truncation.
    pub dropped_failures: u64,
    /// Wall-clock duration of the sweep (excludes corpus writing).
    pub elapsed: Duration,
    /// Every statistic family on the one [`RunStats`] surface:
    /// `handoff` and `alloc` are summed over every seed run (`dst
    /// explore --stats` divides by `count` for per-schedule numbers;
    /// alloc is zeros unless the binary installs
    /// [`allocstats::StatsAlloc`] — the `dst` binary does), and
    /// `coverage` is the **true union** over all runs: distinct
    /// `(rank, decision-kind, phase)` edges the whole sweep touched,
    /// with its order-independent signature.
    pub stats: RunStats,
}

impl SweepReport {
    /// Seeds per wall-clock second.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 { self.count as f64 / secs } else { f64::INFINITY }
    }

    /// Render the retained failures as one-line repros (plus a counted
    /// overflow marker), ready for [`write_lines`] or aggregation
    /// across shapes.
    pub fn corpus_lines(&self, scenario: &ScenarioCfg) -> Vec<String> {
        let mut lines: Vec<String> =
            self.failures.values().map(|f| corpus_line(f, scenario)).collect();
        if self.dropped_failures > 0 {
            lines.push(format!(
                "# +{} more failing seed(s) beyond --max-failures {}",
                self.dropped_failures,
                self.failures.len()
            ));
        }
        lines
    }
}

/// Write pre-rendered corpus lines to `path` — the one corpus writer,
/// for explore's failure corpus and fuzz's evolved corpus alike.
pub fn write_lines(path: &Path, lines: &[String]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    for line in lines {
        writeln!(f, "{line}")?;
    }
    f.flush()
}

/// One line per failure: the reported schedule, the verdict, and a
/// paste-able repro command. Non-default kill shapes are carried both
/// as a field (`shape=…`) and inside the repro command, so a corpus
/// line from a `--shape all` sweep replays the exact same schedule
/// family.
fn corpus_line(fail: &FailureSummary, scenario: &ScenarioCfg) -> String {
    let mut line =
        format!("schedule {} oracles={}", fail.schedule(scenario), fail.oracles.join(","));
    let shape = if scenario.shape == KillShape::Pair {
        String::new()
    } else {
        line.push_str(&format!(" shape={}", scenario.shape));
        format!(" --shape {}", scenario.shape)
    };
    if fail.hung {
        line.push_str(" hung");
    }
    if fail.shrunk.is_some() {
        line.push_str(" shrunk");
    }
    if !fail.triage.is_empty() {
        line.push_str(&format!(" triage=[{}]", fail.triage));
    }
    line.push_str(&format!(
        " repro=\"dst replay --seed {:#x} --ranks {} --iters {}{shape}{}\"",
        fail.seed,
        scenario.ranks,
        scenario.max_iter,
        if scenario.buggy_dedup { " --buggy" } else { "" }
    ));
    line
}

/// The failure fields of one oracle-checked run, shared by the sweep's
/// [`FailureSummary`] and the fuzzer's `FuzzFailure`.
pub(crate) struct Judged {
    /// Violated oracle names, deduplicated, in oracle order.
    pub oracles: Vec<String>,
    /// Full violation messages.
    pub violations: Vec<String>,
    /// Whether the run hung.
    pub hung: bool,
    /// One-line wait-for graph for hung runs, else empty.
    pub triage: String,
}

/// Oracle-check one observation: `None` when every applicable oracle
/// is green, else the failure's fields. The trace survives
/// [`Retention::Quiet`] precisely so that a hang is triaged here
/// without re-running the schedule.
pub(crate) fn judge(obs: &Observation) -> Option<Judged> {
    let violations = check_all(obs);
    if violations.is_empty() {
        return None;
    }
    let mut oracles: Vec<String> = Vec::new();
    for v in &violations {
        if !oracles.iter().any(|o| o.as_str() == v.oracle) {
            oracles.push(v.oracle.to_string());
        }
    }
    Some(Judged {
        oracles,
        violations: violations.iter().map(|v| v.to_string()).collect(),
        hung: obs.hung,
        triage: if obs.hung { crate::triage::triage(obs).one_line() } else { String::new() },
    })
}

/// The run bookkeeping of both engines: verdict counts, merged
/// [`RunStats`], and the exact coverage union (a `BTreeSet` of edge
/// hashes — deterministic and order-independent).
#[derive(Default)]
pub(crate) struct Tally {
    /// Runs with every applicable oracle green.
    pub green: u64,
    /// Runs with at least one violation.
    pub failing: u64,
    /// Runs that hung (counted whether or not an oracle fired).
    pub hung: u64,
    stats: RunStats,
    /// Union of every run's coverage edges.
    pub edges: BTreeSet<u64>,
}

impl Tally {
    /// Count one run; returns how many of its coverage edges no earlier
    /// run touched (the fuzzer's novelty signal).
    pub fn record(&mut self, obs: &Observation, failed: bool) -> u64 {
        self.stats.merge(&obs.stats);
        self.hung += u64::from(obs.hung);
        if failed {
            self.failing += 1;
        } else {
            self.green += 1;
        }
        obs.coverage.iter().filter(|&e| self.edges.insert(e)).count() as u64
    }

    /// Runs recorded so far.
    pub fn runs(&self) -> u64 {
        self.green + self.failing
    }

    /// The merged stats, `coverage` summarizing the exact edge union.
    pub fn stats(&self) -> RunStats {
        RunStats {
            coverage: CoverageStats {
                edges: self.edges.len() as u64,
                signature: self.edges.iter().fold(0, |d, e| d ^ e),
            },
            ..self.stats
        }
    }
}

/// The sweep's aggregator: the shared [`Tally`] plus a failure map
/// bounded to the lowest `cap` failing seeds.
struct Aggregate {
    tally: Tally,
    cap: usize,
    failures: BTreeMap<u64, FailureSummary>,
    dropped: u64,
}

impl Aggregate {
    /// Retain `fail`, evicting the highest seed past the cap: the
    /// retained set is the lowest `cap` failing seeds no matter which
    /// worker found what first.
    fn keep(&mut self, fail: FailureSummary) {
        self.failures.insert(fail.seed, fail);
        if self.failures.len() > self.cap {
            self.failures.pop_last();
            self.dropped += 1;
        }
    }
}

/// Sweep `cfg.count` seeds from `cfg.start` over a worker pool and
/// aggregate the verdicts.
///
/// Per-seed verdicts are identical to the serial path regardless of
/// `jobs` (each simulation is self-contained); the failure map is
/// bounded by `cfg.max_failures`; `shrink_failures` additionally
/// minimizes each retained failure after the sweep.
pub fn sweep(cfg: &SweepCfg, scenario: &ScenarioCfg) -> Result<SweepReport, SweepError> {
    scenario.validate().map_err(SweepError::InvalidConfig)?;
    cfg.validate()?;

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let jobs = workers(cfg.jobs, cfg.count, cores);

    let begun = Instant::now();
    // The cursor hands out *offsets* in `0..count`, never absolute
    // seeds, so claiming a chunk can never overflow even at the top of
    // the u64 seed space.
    let cursor = AtomicU64::new(0);
    let agg = Mutex::new(Aggregate {
        tally: Tally::default(),
        cap: cfg.max_failures.max(1),
        failures: BTreeMap::new(),
        dropped: 0,
    });

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                // One persistent runner per worker: every seed this
                // worker claims reuses the same fiber stacks and
                // universe state.
                let mut runner = SeedRunner::new(scenario.ranks);
                loop {
                    let claim = cursor.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                        if c >= cfg.count {
                            None
                        } else {
                            Some(c.saturating_add(CHUNK).min(cfg.count))
                        }
                    });
                    let begin = match claim {
                        Ok(b) => b,
                        Err(_) => break,
                    };
                    let end = begin.saturating_add(CHUNK).min(cfg.count);
                    for off in begin..end {
                        let seed = cfg.start + off;
                        // Seeds run zero-retention: the oracles judge
                        // only the trace, outcomes, stats and hang
                        // flags, and replay or shrinking re-runs a
                        // failing seed with full recording —
                        // determinism makes it the identical schedule.
                        let obs = runner.run_seed(seed, scenario, Retention::Quiet);
                        let failure = judge(&obs).map(|j| FailureSummary {
                            seed,
                            oracles: j.oracles,
                            violations: j.violations,
                            hung: j.hung,
                            triage: j.triage,
                            shrunk: None,
                        });
                        {
                            let mut agg = agg.lock().unwrap();
                            agg.tally.record(&obs, failure.is_some());
                            if let Some(f) = failure {
                                agg.keep(f);
                            }
                        }
                        // The observation's buffers go back to the
                        // runner: the next seed's schedule copy reuses
                        // them (§8.10).
                        runner.recycle(obs);
                    }
                }
            });
        }
    });

    let mut agg = agg.into_inner().unwrap();
    if cfg.shrink_failures {
        // Shrink only the retained (bounded) set, after the sweep, so
        // no minimization effort is wasted on seeds that get evicted.
        for fail in agg.failures.values_mut() {
            if let Some(s) = shrink(fail.seed, scenario, None) {
                fail.shrunk = Some(ShrunkSummary { schedule: s.schedule, runs: s.runs });
            }
        }
    }

    Ok(SweepReport {
        start: cfg.start,
        count: cfg.count,
        jobs,
        green: agg.tally.green,
        failing: agg.tally.failing,
        hung: agg.tally.hung,
        stats: agg.tally.stats(),
        failures: agg.failures,
        dropped_failures: agg.dropped,
        elapsed: begun.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Kill;
    use faultsim::HookKind;

    #[test]
    fn overflowing_range_is_rejected_cleanly() {
        let cfg = SweepCfg { start: u64::MAX, count: 2, ..SweepCfg::default() };
        match sweep(&cfg, &ScenarioCfg::default()) {
            Err(SweepError::SeedRangeOverflow { start, count }) => {
                assert_eq!(start, u64::MAX);
                assert_eq!(count, 2);
            }
            other => panic!("expected overflow error, got {other:?}"),
        }
    }

    #[test]
    fn zero_count_and_degenerate_scenarios_are_rejected() {
        let cfg = SweepCfg { count: 0, ..SweepCfg::default() };
        assert!(matches!(sweep(&cfg, &ScenarioCfg::default()), Err(SweepError::InvalidConfig(_))));

        let bad = ScenarioCfg { ranks: 0, ..ScenarioCfg::default() };
        let cfg = SweepCfg::default();
        assert!(matches!(sweep(&cfg, &bad), Err(SweepError::InvalidConfig(_))));
    }

    #[test]
    fn aggregate_keeps_lowest_seeds_whatever_the_arrival_order() {
        let fail = |seed| FailureSummary {
            seed,
            oracles: vec!["x".into()],
            violations: vec![],
            hung: false,
            triage: String::new(),
            shrunk: None,
        };
        let new = || Aggregate {
            tally: Tally::default(),
            cap: 2,
            failures: BTreeMap::new(),
            dropped: 0,
        };
        let mut a = new();
        let mut b = new();
        for s in [9u64, 3, 7, 1] {
            a.keep(fail(s));
        }
        for s in [1u64, 7, 3, 9] {
            b.keep(fail(s));
        }
        let keys = |agg: &Aggregate| agg.failures.keys().copied().collect::<Vec<_>>();
        assert_eq!(keys(&a), vec![1, 3]);
        assert_eq!(keys(&a), keys(&b));
        assert_eq!(a.dropped, 2);
    }

    /// The tally's coverage is the exact union, not a summed
    /// approximation: a repeated run adds no edges and does not cancel
    /// the signature, and `record` reports exactly the new edges.
    #[test]
    fn aggregate_coverage_is_the_exact_union() {
        let cfg = ScenarioCfg::default();
        let mut runner = SeedRunner::new(cfg.ranks);
        let mut tally = Tally::default();
        let mut union = BTreeSet::new();
        for seed in [1u64, 2, 3, 1] {
            let obs = runner.run_seed(seed, &cfg, Retention::Quiet);
            let fresh: Vec<u64> = obs.coverage.iter().filter(|e| !union.contains(e)).collect();
            union.extend(obs.coverage.iter());
            assert_eq!(tally.record(&obs, false), fresh.len() as u64, "seed {seed}");
        }
        let stats = tally.stats();
        assert_eq!(stats.coverage.edges, union.len() as u64);
        assert_eq!(stats.coverage.signature, union.iter().fold(0, |d, e| d ^ e));
        assert_ne!(stats.coverage.signature, 0);
        assert_eq!((tally.green, tally.failing, tally.runs()), (4, 0, 4));
    }

    /// One worker per core by default, an explicit `--jobs` taken as
    /// given, and the seed count capping both.
    #[test]
    fn workers_are_one_per_core_capped_by_seeds() {
        assert_eq!(workers(0, 1000, 2), 2);
        assert_eq!(workers(0, 1000, 8), 8);
        // An explicit count is taken as given, whatever the rank count.
        assert_eq!(workers(64, 1000, 2), 64);
        assert_eq!(workers(1, 1000, 8), 1);
        // Never more workers than seeds.
        assert_eq!(workers(0, 3, 8), 3);
        assert_eq!(workers(16, 5, 2), 5);
        assert_eq!(workers(0, 0, 2), 1);
    }

    #[test]
    fn corpus_line_carries_a_usable_repro() {
        let minimal = Schedule {
            seed: 0x2d,
            kills: vec![Kill { victim: 2, hook: HookKind::AfterSend, occurrence: 1 }],
            delay_mask: Some(vec![]),
        };
        let fail = FailureSummary {
            seed: 0x2d,
            oracles: vec!["no-duplicate".into()],
            violations: vec!["dup".into()],
            hung: false,
            triage: "rank 3 waits on T_N from rank 2 (DEAD)".into(),
            shrunk: Some(ShrunkSummary { schedule: minimal, runs: 3 }),
        };
        let cfg = ScenarioCfg { buggy_dedup: true, ..ScenarioCfg::default() };
        let line = corpus_line(&fail, &cfg);
        assert!(line.starts_with("schedule seed=0x2d kills=[2:AfterSend:1] mask=[] "), "{line}");
        assert!(line.contains("oracles=no-duplicate"));
        assert!(line.contains("triage=[rank 3 waits on T_N from rank 2 (DEAD)]"));
        assert!(line.contains("--buggy"));
        assert!(line.contains("dst replay --seed 0x2d"));
        assert!(!line.contains('\n'));
    }
}
