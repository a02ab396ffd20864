//! The self-grant fast path is a pure handoff optimization: it decides
//! *whether a rank switch happens* and nothing else. The golden
//! decision logs, which predate it, referee that it is
//! schedule-invisible. These tests pin the rest of the contract on real
//! ring workloads: the handoff counters (`steps`, `grants`,
//! `self_grants`) are a function of the seed alone — pinned to literal
//! values — and ring seeds actually take the fast path.

use dst::{Observation, Retention, ScenarioCfg, SeedRunner};

const SEEDS: [u64; 4] = [0x1, 0x2d, 0x77, 0x1234];

/// `(steps, grants, self_grants)` per seed of [`SEEDS`], hardened ring,
/// pair shape. Like the golden logs these are frozen: any executor
/// change must reproduce them exactly.
const PINNED_R4: [(u64, u64, u64); 4] =
    [(153, 153, 35), (130, 130, 25), (109, 109, 28), (82, 82, 27)];
const PINNED_R8: [(u64, u64, u64); 4] =
    [(452, 452, 62), (463, 463, 48), (383, 383, 50), (371, 371, 46)];

fn counters(obs: &Observation) -> (u64, u64, u64) {
    let h = &obs.stats.handoff;
    (h.steps, h.grants, h.self_grants)
}

/// Ring workloads grant the stepping rank back to itself often enough
/// (sole waiter at teardown, 1-in-N draws in steady state) that every
/// seed shows self-grants. Nothing parks, unparks or spins.
#[test]
fn ring_seeds_take_the_self_grant_path() {
    let cfg = ScenarioCfg::default();
    let mut runner = SeedRunner::new(cfg.ranks);
    for seed in SEEDS {
        let h = runner.run_seed(seed, &cfg, Retention::Quiet).stats.handoff;
        assert!(h.self_grants > 0, "seed {seed:#x}: no self-grants on a ring workload");
        assert!(h.grants >= h.self_grants, "seed {seed:#x}");
        assert_eq!(
            (h.prepark_grants, h.parks, h.unparks, h.spin_iters),
            (0, 0, 0, 0),
            "seed {seed:#x}: fiber handoffs never park"
        );
    }
}

/// Every run of one seed reports the pinned counters, whether the
/// runner is fresh or reused and whether the run records its log or
/// not; fresh and reused runners also agree on the decision log.
#[test]
fn handoff_counters_repeat_across_runs_and_runners() {
    for (ranks, pinned) in [(4usize, PINNED_R4), (8, PINNED_R8)] {
        let cfg = ScenarioCfg { ranks, ..ScenarioCfg::default() };
        let mut reused = SeedRunner::new(ranks);
        for (seed, want) in SEEDS.into_iter().zip(pinned) {
            let fresh = SeedRunner::new(ranks).run_seed(seed, &cfg, Retention::Full);
            let again = reused.run_seed(seed, &cfg, Retention::Full);
            let quiet = reused.run_seed(seed, &cfg, Retention::Quiet);
            for obs in [&fresh, &again, &quiet] {
                assert_eq!(counters(obs), want, "seed {seed:#x}, {ranks} ranks");
            }
            assert_eq!(fresh.log, again.log, "seed {seed:#x}, {ranks} ranks: log diverged");
        }
    }
}
