//! Run the complete experiment inventory (every behavioural figure of
//! the paper) and print one consolidated table — the source of the
//! measured column in `EXPERIMENTS.md`. Each row carries its figure's
//! check; the process exits 1 if any check fails.
//!
//! ```text
//! cargo run -p bench --bin all_experiments --release
//! ```

use std::time::Duration;

use bench::{ring_once, ExperimentRow};
use faultsim::scenario::{combine, kill_after_recv, kill_behind_token, kill_in_validate};
use faultsim::FaultPlan;
use ftring::{DedupStrategy, RingConfig, TerminationMode, T_N};

const ITER: u64 = 6;

fn main() {
    let wd = Duration::from_secs(60);
    let hang_wd = Duration::from_secs(3);
    let mut rows: Vec<ExperimentRow> = Vec::new();
    let mut checks: Vec<(&str, bool)> = Vec::new();

    // F2: fault-unaware baseline, failure-free.
    {
        let cfg = RingConfig::naive(ITER);
        let (s, w) = ring_once(4, &cfg, FaultPlan::none(), wd);
        checks.push(("F2 baseline completes", !s.hung && s.completed_iterations() == 6));
        rows.push(ExperimentRow::from_summary("F2", "fault_unaware_ok", 4, ITER, &s, w));
    }
    // F6: naive receive + token death => hang.
    {
        let cfg = RingConfig::naive(ITER);
        let (s, w) = ring_once(4, &cfg, kill_after_recv(2, 1, T_N, 2), hang_wd);
        checks.push(("F6 naive recv hangs", s.hung));
        rows.push(ExperimentRow::from_summary("F6", "naive_recv_hang", 4, ITER, &s, w));
    }
    // F7/F9: detector receive recovers.
    {
        let cfg = RingConfig::paper(ITER);
        let (s, w) = ring_once(4, &cfg, kill_after_recv(2, 1, T_N, 2), wd);
        checks.push((
            "F7 detector recovers",
            !s.hung && s.completed_iterations() == 6 && s.total_resends >= 1,
        ));
        rows.push(ExperimentRow::from_summary("F7", "detector_recv", 4, ITER, &s, w));
    }
    // F8: no dedup => double completion.
    {
        let cfg = RingConfig::no_dedup(ITER);
        let (s, w) = ring_once(4, &cfg, kill_behind_token(2, 0, T_N, 2), wd);
        checks.push(("F8 double completion", s.has_double_completion()));
        rows.push(ExperimentRow::from_summary("F8", "no_dedup_dup", 4, ITER, &s, w));
    }
    // F10: marker dedup => exact.
    {
        let cfg = RingConfig::paper(ITER);
        let (s, w) = ring_once(4, &cfg, kill_behind_token(2, 0, T_N, 2), wd);
        checks.push((
            "F10 duplicate dropped",
            !s.hung
                && !s.has_double_completion()
                && s.completed_iterations() == 6
                && s.total_duplicates_dropped >= 1,
        ));
        rows.push(ExperimentRow::from_summary("F10", "marker_dedup", 4, ITER, &s, w));
    }
    // F10b: separate-tag variant.
    {
        let cfg = RingConfig::paper(ITER).dedup(DedupStrategy::SeparateTag);
        let (s, w) = ring_once(4, &cfg, kill_behind_token(2, 0, T_N, 2), wd);
        checks.push((
            "F10b separate tag exact",
            !s.hung
                && !s.has_double_completion()
                && s.completed_iterations() == 6
                && s.total_duplicates_dropped >= 1,
        ));
        rows.push(ExperimentRow::from_summary("F10b", "separate_tag", 4, ITER, &s, w));
    }
    // F11: root broadcast termination with a failure during termination.
    {
        let cfg = RingConfig::paper(ITER);
        let plan = faultsim::scenario::kill_before_recv_post(3, ftring::T_D, 1);
        let (s, w) = ring_once(5, &cfg, plan, wd);
        checks.push(("F11 termination survives non-root death", !s.hung));
        rows.push(ExperimentRow::from_summary("F11", "root_bcast_term", 5, ITER, &s, w));
    }
    // F13: validate-all termination with a death inside the consensus.
    {
        let cfg = RingConfig::paper(ITER).termination(TerminationMode::ValidateAll);
        let (s, w) = ring_once(5, &cfg, kill_in_validate(3, 1), wd);
        checks.push(("F13 validate termination survives", !s.hung));
        rows.push(ExperimentRow::from_summary("F13", "validate_term", 5, ITER, &s, w));
    }
    // §III-D (A): Fig. 11 design, root dies mid-ring => hang.
    {
        let cfg = RingConfig::paper(ITER);
        let (s, w) = ring_once(5, &cfg, kill_after_recv(0, 4, T_N, 3), hang_wd);
        checks.push(("S3D fig11 design wedges on root death", s.hung));
        rows.push(ExperimentRow::from_summary("S3D", "fig11_root_dies", 5, ITER, &s, w));
    }
    // §III-D (B): failover completes.
    {
        let cfg = RingConfig::with_root_failover(ITER);
        let (s, w) = ring_once(5, &cfg, kill_after_recv(0, 4, T_N, 3), wd);
        checks.push((
            "S3D failover completes",
            !s.hung && s.closures.iter().map(|(m, _)| *m).max() == Some(ITER - 1),
        ));
        rows.push(ExperimentRow::from_summary("S3D", "failover", 5, ITER, &s, w));
    }
    // §III-C alternative: double-ibarrier termination (the design the
    // paper rejects as costly) still terminates under failure.
    {
        let cfg = RingConfig::paper(ITER).termination(TerminationMode::DoubleBarrier);
        let (s, w) = ring_once(5, &cfg, kill_after_recv(2, 1, T_N, 2), wd);
        checks.push(("S3C double-ibarrier termination works", !s.hung));
        rows.push(ExperimentRow::from_summary("S3C", "double_ibarrier", 5, ITER, &s, w));
    }
    // §III-C: multiple non-root failures.
    {
        let cfg = RingConfig::paper(ITER);
        let plan = combine([
            kill_after_recv(2, 1, T_N, 2),
            kill_after_recv(4, 3, T_N, 3),
        ]);
        let (s, w) = ring_once(6, &cfg, plan, wd);
        checks.push((
            "S3C multiple failures run-through",
            !s.hung && s.completed_iterations() == 6,
        ));
        rows.push(ExperimentRow::from_summary("S3C", "multi_failure", 6, ITER, &s, w));
    }

    println!("{}", ExperimentRow::table_header());
    for r in &rows {
        println!("{}", r.to_table_line());
    }
    println!();
    let mut ok = true;
    for (name, passed) in &checks {
        println!("[{}] {}", if *passed { "PASS" } else { "FAIL" }, name);
        ok &= passed;
    }
    if !ok {
        std::process::exit(1);
    }
    println!("\nAll paper-figure experiments reproduced.");
}
