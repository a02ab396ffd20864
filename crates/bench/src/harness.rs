//! Experiment harness: run ring configurations under fault plans and
//! collect run-level summaries plus wall-clock timings.

use std::time::Duration;

use faultsim::FaultPlan;
use ftmpi::{run, UniverseConfig, WORLD};
use ftring::{run_ring, summarize, RingConfig, RingRunSummary};

/// Default watchdog for experiment runs. Generous: a watchdog firing
/// in a *measurement* is a bug signal, not an expected outcome.
pub const WATCHDOG: Duration = Duration::from_secs(120);

/// Run one ring configuration under a fault plan and summarize;
/// returns the summary and the run's wall time.
pub fn ring_once(
    ranks: usize,
    cfg: &RingConfig,
    plan: FaultPlan,
    watchdog: Duration,
) -> (RingRunSummary, Duration) {
    let cfg = cfg.clone();
    let report = run(
        ranks,
        UniverseConfig::with_plan(plan).watchdog(watchdog),
        move |p| run_ring(p, WORLD, &cfg),
    );
    (summarize(&report), report.duration)
}

/// One row of an experiment table.
#[derive(Debug, Clone)]
pub struct ExperimentRow {
    /// Experiment / figure identifier.
    pub experiment: String,
    /// Configuration label.
    pub config: String,
    /// Ranks in the universe.
    pub ranks: usize,
    /// Ring iterations requested.
    pub iterations: u64,
    /// Injected failures that landed.
    pub failures: usize,
    /// Whether the run hung (watchdog fired).
    pub hung: bool,
    /// Completed (closed) iterations observed.
    pub completed: usize,
    /// Whether any iteration completed more than once.
    pub double_completion: bool,
    /// Total resends across survivors.
    pub resends: u64,
    /// Total duplicates dropped.
    pub duplicates_dropped: u64,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
}

impl ExperimentRow {
    /// Build a row from a summary.
    pub fn from_summary(
        experiment: &str,
        config: &str,
        ranks: usize,
        iterations: u64,
        s: &RingRunSummary,
        wall: Duration,
    ) -> Self {
        ExperimentRow {
            experiment: experiment.to_string(),
            config: config.to_string(),
            ranks,
            iterations,
            failures: s.failed.len(),
            hung: s.hung,
            completed: s.completed_iterations(),
            double_completion: s.has_double_completion(),
            resends: s.total_resends,
            duplicates_dropped: s.total_duplicates_dropped,
            wall_ms: wall.as_secs_f64() * 1e3,
        }
    }

    /// Header line matching [`ExperimentRow::to_table_line`].
    pub fn table_header() -> String {
        format!(
            "{:<10} {:<26} {:>5} {:>5} {:>5} {:>5} {:>9} {:>6} {:>7} {:>7} {:>9}",
            "exp", "config", "ranks", "iters", "fails", "hung", "completed", "dup?", "resend",
            "dropped", "wall_ms"
        )
    }

    /// Fixed-width table line.
    pub fn to_table_line(&self) -> String {
        format!(
            "{:<10} {:<26} {:>5} {:>5} {:>5} {:>5} {:>9} {:>6} {:>7} {:>7} {:>9.2}",
            self.experiment,
            self.config,
            self.ranks,
            self.iterations,
            self.failures,
            self.hung,
            self.completed,
            self.double_completion,
            self.resends,
            self.duplicates_dropped,
            self.wall_ms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_a_clean_ring() {
        let cfg = RingConfig::paper(4);
        let (s, wall) = ring_once(3, &cfg, FaultPlan::none(), WATCHDOG);
        assert!(!s.hung);
        assert_eq!(s.completed_iterations(), 4);
        assert!(wall > Duration::ZERO);
    }

    #[test]
    fn row_formatting_is_stable() {
        let cfg = RingConfig::paper(2);
        let (s, wall) = ring_once(2, &cfg, FaultPlan::none(), WATCHDOG);
        let row = ExperimentRow::from_summary("fig0", "paper", 2, 2, &s, wall);
        let line = row.to_table_line();
        assert!(line.contains("fig0"));
        assert_eq!(
            ExperimentRow::table_header().split_whitespace().count(),
            11
        );
    }
}
