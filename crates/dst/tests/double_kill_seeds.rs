//! Regression pin for the double-kill ring hang (DESIGN.md §8.7).
//!
//! DST exploration of the hardened ring found seven genuinely hanging
//! seeds in `0..10000` at 4 ranks — all double-kill schedules where
//! two ranks (always including the root) die in close succession —
//! plus an eighth (`0x1882`) surfaced by the first fix: the takeover
//! root misread a stale resend as a closure and double-originated a
//! lap. Both holes are closed by (1) re-running the root election
//! before judging each received token and (2) stamping tokens with
//! their originating rank so a takeover root can tell its own
//! origination coming home from a dead predecessor's token.
//!
//! The pin is double: each seed must replay green, and each seed's
//! *pre-fix kill schedule* — recorded verbatim below — must complete
//! when applied explicitly. The second half keeps the regression alive
//! even if the seed→schedule mapping is ever remapped (which would
//! silently repoint the seeds at different, likely-benign schedules).

use dst::{check_all, Kill, Retention, ScenarioCfg, Schedule, SeedRunner};
use faultsim::HookKind::{AfterRecvComplete, AfterSend, Tick};

/// The seven ROADMAP hang seeds plus the takeover-cascade seed, each
/// with the kill schedule its seed derived when the hang was found.
const HANG_SEEDS: [(u64, [Kill; 2]); 8] = [
    (
        0x7f3,
        [
            Kill { victim: 0, hook: Tick, occurrence: 7 },
            Kill { victim: 1, hook: AfterRecvComplete, occurrence: 2 },
        ],
    ),
    (
        0xf7f,
        [
            Kill { victim: 3, hook: AfterSend, occurrence: 1 },
            Kill { victim: 0, hook: Tick, occurrence: 18 },
        ],
    ),
    (
        0xfbf,
        [
            Kill { victim: 0, hook: AfterRecvComplete, occurrence: 1 },
            Kill { victim: 1, hook: AfterRecvComplete, occurrence: 2 },
        ],
    ),
    (
        0x177d,
        [
            Kill { victim: 0, hook: Tick, occurrence: 16 },
            Kill { victim: 1, hook: AfterSend, occurrence: 2 },
        ],
    ),
    (
        0x1783,
        [
            Kill { victim: 3, hook: Tick, occurrence: 7 },
            Kill { victim: 0, hook: Tick, occurrence: 16 },
        ],
    ),
    (
        0x2372,
        [
            Kill { victim: 0, hook: AfterRecvComplete, occurrence: 2 },
            Kill { victim: 2, hook: AfterSend, occurrence: 1 },
        ],
    ),
    (
        0x2624,
        [
            Kill { victim: 2, hook: Tick, occurrence: 11 },
            Kill { victim: 0, hook: Tick, occurrence: 16 },
        ],
    ),
    (
        0x1882,
        [
            Kill { victim: 1, hook: Tick, occurrence: 6 },
            Kill { victim: 0, hook: AfterSend, occurrence: 3 },
        ],
    ),
];

/// Every formerly-hanging seed replays green at 4 ranks: no hang, no
/// oracle violation, and a non-empty survivor set that terminated.
#[test]
fn formerly_hanging_seeds_replay_green() {
    let cfg = ScenarioCfg::default();
    let mut runner = SeedRunner::new(cfg.ranks);
    for (seed, _) in HANG_SEEDS {
        let obs = runner.run_seed(seed, &cfg, Retention::Full);
        assert!(!obs.hung, "seed {seed:#x} still hangs");
        assert!(!obs.budget_exhausted, "seed {seed:#x} exhausted its step budget");
        let violations = check_all(&obs);
        assert!(
            violations.is_empty(),
            "seed {seed:#x} violates oracles: {violations:?}"
        );
        assert!(obs.survivors().count() > 0, "seed {seed:#x} left no survivors");
    }
}

/// The derived schedules still match the recorded pre-fix kill-sets.
/// If this fails, the seed→schedule mapping moved and the seeds above
/// no longer name the schedules that used to hang — the explicit
/// replays below are then the only live pin, and this table should be
/// re-derived.
#[test]
fn seed_derivation_still_names_the_recorded_schedules() {
    let cfg = ScenarioCfg::default();
    for (seed, kills) in HANG_SEEDS {
        let derived = Schedule::from_seed(seed, &cfg);
        assert_eq!(
            derived.kills, kills,
            "seed {seed:#x} now derives a different kill schedule"
        );
    }
}

/// The pre-fix kill schedules complete when applied *explicitly*, so
/// the regression survives any future seed→schedule remap: whatever
/// seeds mean later, these exact double-kill interleavings are what
/// used to deadlock the survivors.
#[test]
fn recorded_kill_schedules_complete_when_applied_explicitly() {
    let cfg = ScenarioCfg::default();
    let mut runner = SeedRunner::new(cfg.ranks);
    for (seed, kills) in HANG_SEEDS {
        let schedule = Schedule { seed, kills: kills.to_vec(), delay_mask: None };
        let obs = runner.run_schedule_with(&schedule, &cfg, Retention::Full);
        assert!(!obs.hung, "explicit schedule of seed {seed:#x} still hangs: {kills:?}");
        let violations = check_all(&obs);
        assert!(
            violations.is_empty(),
            "explicit schedule of seed {seed:#x} violates oracles: {violations:?}"
        );
    }
}
