//! A guided tour of the paper's four failure scenarios (Figs. 6, 7, 8
//! and 10), each run live with exact fault injection.
//!
//! ```text
//! cargo run --example fault_scenarios
//! ```

use std::time::Duration;

use ftmpi::{faultsim::scenario, run, UniverseConfig, WORLD};
use ftring::{
    render_sequence_diagram, run_ring, summarize, DiagramOptions, RingConfig, RingRunSummary, T_N,
};

const RANKS: usize = 4;
const ITER: u64 = 6;

fn execute(name: &str, cfg: RingConfig, plan: faultsim::FaultPlan, watchdog: Duration) -> RingRunSummary {
    println!("=== {name} ===");
    let cfg2 = cfg.clone();
    let report = run(
        RANKS,
        UniverseConfig::with_plan(plan).watchdog(watchdog),
        move |p| run_ring(p, WORLD, &cfg2),
    );
    let s = summarize(&report);
    println!(
        "  hung={} survivors={:?} failed={:?}",
        s.hung, s.survivors, s.failed
    );
    println!(
        "  laps closed={} resends={} detector_fires={} dup_dropped={} dup_forwarded={}",
        s.completed_iterations(),
        s.total_resends,
        s.total_detector_fires,
        s.total_duplicates_dropped,
        s.total_duplicate_forwards,
    );
    println!("  closures: {:?}\n", s.closures);
    s
}

/// Run a short traced ring and print its message diagram, in the
/// visual language of the paper's figures.
fn diagram(title: &str, cfg: RingConfig, plan: faultsim::FaultPlan) {
    let report = run(
        RANKS,
        UniverseConfig::with_plan(plan).watchdog(Duration::from_secs(60)).traced(),
        move |p| run_ring(p, WORLD, &cfg),
    );
    assert!(!report.hung, "{title}: the traced run must complete");
    println!("=== recorded message diagram of the {title} run ===\n");
    println!("{}", render_sequence_diagram(&report.trace, RANKS, &DiagramOptions::default()));
}

use ftmpi::faultsim;

fn main() {
    // Fig. 6: naive receive; P2 dies holding the token -> hang.
    let s = execute(
        "Fig. 6 — naive FT_Recv_left, token dies with P2 (expected: HANG)",
        RingConfig::naive(ITER),
        scenario::kill_after_recv(2, 1, T_N, 2),
        Duration::from_secs(3), // short watchdog: we *expect* the hang
    );
    assert!(s.hung, "Fig. 6 must hang");
    println!("  => the program hung, exactly as Fig. 6 describes.\n");

    // Fig. 7: same fault, Fig. 9 receive -> P1 resends, ring heals.
    let s = execute(
        "Fig. 7 — Irecv-as-failure-detector, same fault (expected: recovery)",
        RingConfig::paper(ITER),
        scenario::kill_after_recv(2, 1, T_N, 2),
        Duration::from_secs(60),
    );
    assert!(!s.hung && s.completed_iterations() == ITER as usize);
    println!("  => P1 noticed the failure and resent; all laps completed.\n");

    // Fig. 8: detector receive, NO duplicate control; P2 dies after
    // forwarding -> the same lap completes twice.
    let s = execute(
        "Fig. 8 — no duplicate control, P2 dies after forwarding (expected: double completion)",
        RingConfig::no_dedup(ITER),
        scenario::kill_behind_token(2, 0, T_N, 2),
        Duration::from_secs(60),
    );
    assert!(s.has_double_completion() || s.total_duplicate_forwards > 0);
    println!("  => a lap completed twice: the Fig. 8 defect.\n");

    // Fig. 10: same fault, iteration marker -> duplicate discarded.
    let s = execute(
        "Fig. 10 — iteration marker, same fault (expected: exact run)",
        RingConfig::paper(ITER),
        scenario::kill_behind_token(2, 0, T_N, 2),
        Duration::from_secs(60),
    );
    assert!(!s.has_double_completion() && s.completed_iterations() == ITER as usize);
    assert!(s.total_duplicates_dropped >= 1);
    println!("  => the resent duplicate was detected by its marker and dropped.\n");

    // Bonus: the actual message diagrams of short Fig. 7 and Fig. 8
    // runs — the resend that heals the ring, and the resend that makes
    // a lap close twice.
    diagram("Fig. 7", RingConfig::paper(3), scenario::kill_after_recv(2, 1, T_N, 2));
    diagram(
        "Fig. 8",
        RingConfig::no_dedup(RANKS as u64),
        scenario::kill_behind_token(2, 0, T_N, 2),
    );

    println!("All four scenarios reproduced the paper's figures.");
}
