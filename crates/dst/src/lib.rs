//! # dst — deterministic simulation testing for the fault-tolerant ring
//!
//! A FoundationDB-style simulation harness over the `ftmpi` runtime.
//! Instead of letting the OS scheduler pick an arbitrary interleaving
//! per run, a [`sched::Scheduler`] serializes every rank through the
//! runtime's `SchedHook` instrumentation and draws all decisions —
//! which rank runs, which receive matches, which messages are delayed —
//! from a single `u64` seed. One seed therefore names one complete
//! execution:
//!
//! * **explore** — sweep a seed range, injecting seed-derived fail-stop
//!   schedules, and run the seven DESIGN.md §5 invariants as
//!   [`oracle::Oracle`] checkers after every schedule;
//! * **replay** — re-execute any seed exactly, byte-identical decision
//!   log and all (`dst replay --seed 0xBEEF`);
//! * **shrink** — delta-debug a failing schedule down to a locally
//!   minimal kill-set + delay-set ([`shrink::shrink`]);
//! * hangs are caught by a **logical-step watchdog** (a grant budget),
//!   not wall-clock time, so a hang reproduces identically too.
//!
//! See DESIGN.md §8 for the architecture and the instrumentation-point
//! inventory.

#![warn(missing_docs)]

/// The counting global allocator (DESIGN.md §8.10): every binary and
/// test linking `dst` counts heap traffic per thread, which is what
/// makes [`scenario::Observation::alloc`], `dst explore --stats`
/// allocs/schedule, and the tier-1 allocation-ceiling test live
/// numbers instead of zeros. `allocstats::StatsAlloc` delegates
/// straight to `std::alloc::System` plus four thread-local counter
/// bumps, so simulation timing is unaffected in any way an oracle
/// could observe (and determinism never depends on timing anyway).
#[global_allocator]
static ALLOC: allocstats::StatsAlloc = allocstats::StatsAlloc;

pub mod coverage;
pub mod fuzz;
pub mod oracle;
pub mod scenario;
pub mod sched;
pub mod shrink;
pub mod sweep;
pub mod triage;

pub use coverage::{CoverageSet, EdgeKind};
pub use fuzz::{fuzz, FuzzCfg, FuzzError, FuzzReport};
pub use oracle::{all_oracles, check_all, Oracle, Violation};
pub use scenario::{Kill, KillShape, Observation, Retention, ScenarioCfg, Schedule, SeedRunner};
pub use faultsim::{CoverageStats, HandoffStats, RunStats};
pub use sched::{SchedEvent, Scheduler, SplitMix64};
pub use shrink::{shrink, Shrunk};
pub use sweep::{sweep, FailureSummary, SweepCfg, SweepError, SweepReport};
pub use triage::{triage, triage_trace, TriageReport, WaitEdge, WaitKind};

/// Result of exploring one seed.
#[derive(Debug)]
pub struct SeedResult {
    /// The seed.
    pub seed: u64,
    /// Violations found (empty = all applicable oracles green).
    pub violations: Vec<Violation>,
    /// The observation, for reporting.
    pub observation: Observation,
}

/// Run `count` seeds starting at `start` serially and oracle-check
/// each one. Returns one full result per seed, in order — O(count)
/// memory, so this is for tests and small sweeps; use [`sweep()`] for
/// large campaigns (parallel workers, streaming aggregation, bounded
/// failure retention).
///
/// Errors instead of wrapping when `start + count` exceeds `u64::MAX`.
pub fn explore(start: u64, count: u64, cfg: &ScenarioCfg) -> Result<Vec<SeedResult>, SweepError> {
    let end = start
        .checked_add(count)
        .ok_or(SweepError::SeedRangeOverflow { start, count })?;
    // One persistent runner for the whole range: seeds run back-to-back
    // on the same fiber stacks (observations are identical to a fresh
    // runner's; the golden-log suite pins this).
    let mut runner = SeedRunner::new(cfg.ranks);
    Ok((start..end)
        .map(|seed| {
            let observation = runner.run_seed(seed, cfg, Retention::Full);
            let violations = check_all(&observation);
            SeedResult { seed, violations, observation }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_seed(seed: u64, cfg: &ScenarioCfg) -> Observation {
        SeedRunner::new(cfg.ranks).run_seed(seed, cfg, Retention::Full)
    }

    fn run_schedule(schedule: &Schedule, cfg: &ScenarioCfg) -> Observation {
        SeedRunner::new(cfg.ranks).run_schedule_with(schedule, cfg, Retention::Full)
    }

    /// The deliberately injected bug — dedup disabled, i.e. the
    /// iteration-marker check of Fig. 10 reverted — is caught by the
    /// no-duplicate oracle at a pinned seed, shrinks to a minimal
    /// schedule of at most two events, and the shrunk schedule still
    /// reproduces the violation on replay.
    #[test]
    fn injected_dedup_bug_is_caught_and_shrinks() {
        let cfg = ScenarioCfg { buggy_dedup: true, ..ScenarioCfg::default() };
        for seed in [0x2du64, 0x2f] {
            let obs = run_seed(seed, &cfg);
            let violations = check_all(&obs);
            assert!(
                violations.iter().any(|v| v.oracle == "no-duplicate"),
                "seed {seed:#x} no longer reproduces the dedup bug: {violations:?}"
            );

            let s = shrink(seed, &cfg, None).expect("failing schedule must shrink");
            let events =
                s.schedule.kills.len() + s.schedule.delay_mask.as_ref().map_or(0, Vec::len);
            assert!(events <= 2, "seed {seed:#x} shrank to {events} events: {}", s.schedule);
            assert!(s.violations.iter().any(|v| v.oracle == "no-duplicate"));

            // The minimal schedule replays to the same violation.
            let replay = run_schedule(&s.schedule, &cfg);
            assert!(check_all(&replay).iter().any(|v| v.oracle == "no-duplicate"));
        }
    }

    /// Every schedule line the library renders — explore corpus lines
    /// (pair shape, with and without `--shrink-failures`, and the
    /// masked shape, which carries a mask), fuzz FAIL and corpus lines,
    /// and the shrinker's minimal schedule — parses back to the
    /// schedule that ran.
    #[test]
    fn every_schedule_line_parses_back() {
        let parse = |line: &str| {
            Schedule::parse(line, 4).unwrap_or_else(|e| panic!("{line}: {e}"))
        };

        let buggy = ScenarioCfg { buggy_dedup: true, ..ScenarioCfg::default() };
        for shrink_failures in [false, true] {
            let cfg =
                SweepCfg { start: 0x2d, count: 3, jobs: 1, shrink_failures, ..SweepCfg::default() };
            let report = sweep(&cfg, &buggy).unwrap();
            assert!(!report.failures.is_empty());
            for (f, line) in report.failures.values().zip(report.corpus_lines(&buggy)) {
                let ran = if shrink_failures {
                    shrink(f.seed, &buggy, None).unwrap().observation.schedule
                } else {
                    run_seed(f.seed, &buggy).schedule
                };
                assert_eq!(parse(&line), ran);
                assert!(!check_all(&run_schedule(&ran, &buggy)).is_empty(), "{line}");
            }
        }

        // The hardened ring never fails, so the masked-shape line is
        // rendered for a planted failure record.
        let masked = ScenarioCfg { shape: KillShape::Masked, ..ScenarioCfg::default() };
        let mut report =
            sweep(&SweepCfg { start: 3, count: 1, jobs: 1, ..SweepCfg::default() }, &masked)
                .unwrap();
        report.failures.insert(3, FailureSummary {
            seed: 3,
            oracles: vec!["ring-completion".into()],
            violations: Vec::new(),
            hung: true,
            triage: "rank 2 waits on T_N from rank 1 (DEAD)".into(),
            shrunk: None,
        });
        let ran = run_seed(3, &masked).schedule;
        assert!(ran.delay_mask.is_some());
        assert_eq!(parse(&report.corpus_lines(&masked)[0]), ran);

        let scenario = ScenarioCfg::default();
        let cfg = FuzzCfg { seed: 9, budget: 40, ..FuzzCfg::default() };
        let fuzzed = fuzz(&cfg, &scenario).unwrap();
        for (e, line) in fuzzed.corpus.iter().zip(&fuzzed.corpus_lines()[1..]) {
            assert_eq!(parse(line), e.schedule);
            let fail = fuzz::FuzzFailure {
                schedule: e.schedule.clone(),
                oracles: vec!["ring-completion".into()],
                violations: Vec::new(),
                hung: true,
                triage: "rank 0 waits on validate round 2".into(),
            };
            assert_eq!(parse(&fail.line(&cfg, &scenario)), e.schedule);
        }

        let s = shrink(0x2f, &buggy, None).unwrap();
        assert_eq!(parse(&format!("schedule {}", s.schedule)), s.observation.schedule);
    }

    /// Pinned mini-corpus: the hardened ring survives seed-derived
    /// fault schedules with every applicable oracle green.
    #[test]
    fn pinned_corpus_is_green() {
        let cfg = ScenarioCfg::default();
        for r in explore(0, 25, &cfg).unwrap() {
            assert!(
                r.violations.is_empty(),
                "seed {:#x} violated: {:?}\nkills: {:?}\nlog:\n{}",
                r.seed,
                r.violations,
                r.observation.schedule.kills,
                r.observation.log
            );
        }
    }

    /// Replaying a run with its own delay-set pinned as an explicit
    /// mask must reproduce the exploration run decision-for-decision —
    /// the soundness property ddmin shrinking starts from.
    #[test]
    fn full_mask_replay_reproduces_exploration() {
        for buggy_dedup in [false, true] {
            let cfg = ScenarioCfg { buggy_dedup, ..ScenarioCfg::default() };
            for seed in [0x29u64, 3, 11] {
                let explored = run_seed(seed, &cfg);
                let mut replayed_schedule = explored.schedule.clone();
                replayed_schedule.delay_mask = Some(explored.delay_calls.clone());
                let replayed = run_schedule(&replayed_schedule, &cfg);
                assert_eq!(
                    explored.log, replayed.log,
                    "masked replay diverged for seed {seed:#x} (buggy={buggy_dedup})"
                );
            }
        }
    }

    /// Same seed, two runs: the decision log and the protocol trace
    /// must be byte-identical. This is the property everything else
    /// (replay, shrinking) rests on.
    #[test]
    fn same_seed_is_byte_identical() {
        let cfg = ScenarioCfg::default();
        for seed in [1u64, 7, 0xBEEF] {
            let a = run_seed(seed, &cfg);
            let b = run_seed(seed, &cfg);
            assert_eq!(a.log, b.log, "decision logs diverged for seed {seed:#x}");
            assert_eq!(
                format!("{:?}", a.trace),
                format!("{:?}", b.trace),
                "protocol traces diverged for seed {seed:#x}"
            );
        }
    }

    /// Zero-retention runs must reach the same verdicts as recorded
    /// runs — the sweep engine runs quiet, so a divergence here would
    /// make `dst explore` and `dst replay` disagree about a seed.
    #[test]
    fn quiet_runs_reach_identical_verdicts() {
        for buggy_dedup in [false, true] {
            let cfg = ScenarioCfg { buggy_dedup, ..ScenarioCfg::default() };
            for seed in [0x2du64, 0x2f, 3, 11] {
                let full = run_seed(seed, &cfg);
                let quiet = SeedRunner::new(cfg.ranks).run_seed(seed, &cfg, Retention::Quiet);
                assert!(quiet.log.is_empty(), "quiet run retained a log");
                assert!(quiet.delay_calls.is_empty(), "quiet run retained delays");
                assert_eq!(full.outcomes, quiet.outcomes, "seed {seed:#x}");
                assert_eq!(full.hung, quiet.hung, "seed {seed:#x}");
                assert_eq!(full.budget_exhausted, quiet.budget_exhausted);
                assert_eq!(
                    format!("{:?}", check_all(&full)),
                    format!("{:?}", check_all(&quiet)),
                    "verdicts diverged for seed {seed:#x} (buggy={buggy_dedup})"
                );
            }
        }
    }

    /// Regression: a range that would run past `u64::MAX` errors
    /// cleanly instead of panicking in debug or wrapping to an empty
    /// range in release; the exact boundary still works.
    #[test]
    fn seed_range_overflow_is_an_error_not_a_wrap() {
        let cfg = ScenarioCfg::default();
        assert!(matches!(
            explore(u64::MAX, 2, &cfg),
            Err(SweepError::SeedRangeOverflow { start: u64::MAX, count: 2 })
        ));
        assert!(matches!(
            explore(u64::MAX - 1, 3, &cfg),
            Err(SweepError::SeedRangeOverflow { .. })
        ));
        // `start + count == u64::MAX` is representable and runs.
        let results = explore(u64::MAX - 2, 2, &cfg).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].seed, u64::MAX - 2);
        assert_eq!(results[1].seed, u64::MAX - 1);
    }
}
