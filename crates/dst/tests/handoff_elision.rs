//! The self-grant fast path is a pure handoff optimization: it changes
//! *which thread hands off to which* and nothing else. The golden
//! decision logs, which predate it, referee that it is
//! schedule-invisible. These tests pin the rest of the contract on real
//! ring workloads: the deterministic handoff counters (`steps`,
//! `grants`, `self_grants`) are a function of the seed alone, and ring
//! seeds actually take the fast path.

use dst::{Observation, Retention, ScenarioCfg, SeedRunner};

const SEEDS: [u64; 4] = [0x1, 0x2d, 0x77, 0x1234];

/// The counters that must not depend on timing or on the runner.
fn counters(obs: &Observation) -> (u64, u64, u64) {
    let h = &obs.stats.handoff;
    (h.steps, h.grants, h.self_grants)
}

/// Ring workloads grant the stepping rank back to itself often enough
/// (sole waiter at teardown, 1-in-N draws in steady state) that every
/// seed shows self-grants. The handoff has no spin phase.
#[test]
fn ring_seeds_take_the_self_grant_path() {
    let cfg = ScenarioCfg::default();
    let mut runner = SeedRunner::new(cfg.ranks);
    for seed in SEEDS {
        let h = runner.run_seed(seed, &cfg, Retention::Quiet).stats.handoff;
        assert!(h.self_grants > 0, "seed {seed:#x}: no self-grants on a ring workload");
        assert!(h.grants >= h.self_grants, "seed {seed:#x}");
        assert_eq!(h.spin_iters, 0, "seed {seed:#x}: the handoff has no spin phase");
    }
}

/// Two runs of one seed report identical deterministic counters and
/// decision logs, whether the runner is fresh or reused, and whether
/// the run records its log or not.
#[test]
fn handoff_counters_repeat_across_runs_and_runners() {
    for ranks in [4usize, 8] {
        let cfg = ScenarioCfg { ranks, ..ScenarioCfg::default() };
        let mut reused = SeedRunner::new(ranks);
        for seed in SEEDS {
            let fresh = SeedRunner::new(ranks).run_seed(seed, &cfg, Retention::Full);
            let again = reused.run_seed(seed, &cfg, Retention::Full);
            let quiet = reused.run_seed(seed, &cfg, Retention::Quiet);
            assert_eq!(counters(&fresh), counters(&again), "seed {seed:#x}, {ranks} ranks");
            assert_eq!(counters(&fresh), counters(&quiet), "seed {seed:#x}, {ranks} ranks");
            assert_eq!(fresh.log, again.log, "seed {seed:#x}, {ranks} ranks: log diverged");
        }
    }
}
