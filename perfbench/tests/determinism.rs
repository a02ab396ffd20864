//! The benchmark's own self-tests: a small instance of each DST workload
//! run twice on one seed must report bit-identical exact counts, and its
//! traced and untraced passes must reach identical verdicts (the traced
//! run checks this block by block and reports any disagreement as a
//! problem). A small ring instance must pass its own output checks.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::time::Duration;

use perfbench::{run, Opts, Outcome, Size, Workload};

const SMALL: Size = Size { sweep_seeds: 24, fuzz_budget: 120, ring_runs: 4, ring_laps: 20 };

fn small(trace: bool) -> Opts {
    // Zero measurement time: only block 0 runs, whose work is fixed by
    // the seed. Two load threads whatever the host, so the static split
    // of block 0 is the same everywhere.
    Opts { seed: 7, measure: Duration::ZERO, trace, jobs: 2, size: SMALL, setups: 1 }
}

fn exact(o: &Outcome, name: &str) -> u64 {
    o.exact
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("exact count {name} missing"))
        .1
}

fn assert_repeats(w: Workload, names: &[&str]) {
    let a = run(w, &small(true));
    let b = run(w, &small(true));
    for o in [&a, &b] {
        assert!(o.problems.is_empty(), "{}: {:?}", w.name(), o.problems);
    }
    for name in names {
        assert!(exact(&a, name) > 0, "{}: {name} counted nothing", w.name());
    }
    assert_eq!(a.exact, b.exact, "{}: exact counts differ between two runs", w.name());
    assert_eq!(a.failures, b.failures, "{}: failures differ between two runs", w.name());
}

#[test]
fn sweep_exact_counts_repeat() {
    assert_repeats(
        Workload::SweepR8,
        &["sched.steps", "sched.grants", "transport.sends", "matching.matches", "alloc.allocs"],
    );
}

#[test]
fn fuzz_exact_counts_repeat() {
    assert_repeats(
        Workload::FuzzR4,
        &[
            "sched.steps",
            "sched.grants",
            "transport.sends",
            "matching.matches",
            "alloc.allocs",
            "fuzz.edges",
        ],
    );
}

#[test]
fn untraced_and_traced_sweeps_agree() {
    let untraced = run(Workload::SweepR8, &small(false));
    let traced = run(Workload::SweepR8, &small(true));
    assert!(untraced.problems.is_empty() && traced.problems.is_empty());
    assert_eq!(untraced.attempted, SMALL.sweep_seeds);
    // The traced run checks the same seeds twice: through `dst::sweep`
    // and through the layer calls.
    assert_eq!(traced.attempted, 2 * SMALL.sweep_seeds);
    assert_eq!(2 * untraced.failed, traced.failed);
}

#[test]
fn ring_runs_pass_their_checks() {
    for trace in [false, true] {
        let o = run(Workload::RingR8, &small(trace));
        assert!(o.problems.is_empty(), "{:?}", o.problems);
        assert_eq!(o.failed, 0, "{:?}", o.failures);
        let runs = SMALL.ring_runs as u64 * if trace { 2 } else { 1 };
        assert_eq!(o.attempted, runs);
    }
}
