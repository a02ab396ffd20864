//! Seeded random fault plans for chaos testing.
//!
//! Property tests over the ring protocol need "any failure schedule that
//! spares the root" (DESIGN invariant 2). [`RandomFaults`] generates
//! such schedules deterministically from a seed: a set of victims and,
//! for each, a uniformly chosen protocol point (hook kind + occurrence).
//!
//! Every seeded draw in the workspace comes from the one [`SplitMix64`]
//! stream defined here: the fault-plan generator below and, through
//! `dst::SplitMix64`, the simulation scheduler, kill derivation and
//! the fuzzer.

use crate::plan::{FaultPlan, FaultRule};
use crate::trigger::{HookKind, Trigger};
use crate::Rank;

/// Deterministic splitmix64 stream (Steele, Lea & Flood 2014).
///
/// Not cryptographic; what matters is that the same seed yields the
/// same stream forever, which replay and every pinned seed rely on.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Builder for randomized fault plans.
#[derive(Debug, Clone)]
pub struct RandomFaultsBuilder {
    world_size: usize,
    max_failures: usize,
    spare: Vec<Rank>,
    max_occurrence: u64,
    kinds: Vec<HookKind>,
}

impl RandomFaultsBuilder {
    /// Start a builder for a world of `world_size` ranks.
    pub fn new(world_size: usize) -> Self {
        RandomFaultsBuilder {
            world_size,
            max_failures: 1,
            spare: Vec::new(),
            max_occurrence: 8,
            kinds: vec![
                HookKind::BeforeSend,
                HookKind::AfterSend,
                HookKind::BeforeRecvPost,
                HookKind::AfterRecvComplete,
            ],
        }
    }

    /// Allow up to `n` victims (actual count is uniform in `0..=n`).
    pub fn max_failures(mut self, n: usize) -> Self {
        self.max_failures = n;
        self
    }

    /// Never kill these ranks (e.g. the root when root failure is
    /// unsupported, as in Figs. 3–11 of the paper).
    pub fn spare(mut self, ranks: &[Rank]) -> Self {
        self.spare.extend_from_slice(ranks);
        self
    }

    /// Upper bound (inclusive) for the 1-based occurrence counter.
    pub fn max_occurrence(mut self, n: u64) -> Self {
        assert!(n >= 1);
        self.max_occurrence = n;
        self
    }

    /// Restrict the hook kinds failures may land on.
    pub fn kinds(mut self, kinds: &[HookKind]) -> Self {
        self.kinds = kinds.to_vec();
        self
    }

    /// Finish: a deterministic generator for the given seed.
    pub fn build(self, seed: u64) -> RandomFaults {
        RandomFaults { cfg: self, rng: SplitMix64::new(seed) }
    }
}

/// Deterministic random fault-plan generator.
#[derive(Debug)]
pub struct RandomFaults {
    cfg: RandomFaultsBuilder,
    rng: SplitMix64,
}

impl RandomFaults {
    /// Generate the next fault plan.
    ///
    /// Victims are distinct ranks drawn from the non-spared set; each
    /// gets one `Kill` rule at a random hook kind and occurrence.
    pub fn next_plan(&mut self) -> FaultPlan {
        let candidates: Vec<Rank> = (0..self.cfg.world_size)
            .filter(|r| !self.cfg.spare.contains(r))
            .collect();
        if candidates.is_empty() || self.cfg.max_failures == 0 {
            return FaultPlan::none();
        }
        let n = self.rng.below(self.cfg.max_failures.min(candidates.len()) + 1);
        // Fisher–Yates, last index first.
        let mut shuffled = candidates;
        for i in (1..shuffled.len()).rev() {
            let j = self.rng.below(i + 1);
            shuffled.swap(i, j);
        }
        let mut plan = FaultPlan::none();
        for &victim in shuffled.iter().take(n) {
            let kind = self.cfg.kinds[self.rng.below(self.cfg.kinds.len())];
            let occurrence = 1 + self.rng.next_u64() % self.cfg.max_occurrence;
            plan = plan.with(FaultRule::kill(victim, Trigger::on(kind).nth(occurrence)));
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plans() {
        let mk = |seed| {
            let mut g = RandomFaultsBuilder::new(8).max_failures(3).spare(&[0]).build(seed);
            (0..10).map(|_| format!("{:?}", g.next_plan())).collect::<Vec<_>>()
        };
        assert_eq!(mk(42), mk(42));
        assert_ne!(mk(42), mk(43));
    }

    /// The chaos suite's plans (`ftmpi/tests/runtime.rs`, seeds 0..6)
    /// and a default-kinds stream, pinned byte for byte: a change to
    /// the generator or its draw order changes which faults every
    /// seeded test injects.
    #[test]
    fn plans_match_the_pinned_stream() {
        let chaos = [
            "FaultPlan { rules: [FaultRule { observer: 5, trigger: Trigger { kind: BeforeCollective, peer: Any, tag: Any, occurrence: 2 }, action: Kill }] }",
            "FaultPlan { rules: [FaultRule { observer: 1, trigger: Trigger { kind: BeforeValidate, peer: Any, tag: Any, occurrence: 2 }, action: Kill }, FaultRule { observer: 2, trigger: Trigger { kind: BeforeCollective, peer: Any, tag: Any, occurrence: 1 }, action: Kill }] }",
            "FaultPlan { rules: [FaultRule { observer: 3, trigger: Trigger { kind: BeforeCollective, peer: Any, tag: Any, occurrence: 3 }, action: Kill }] }",
            "FaultPlan { rules: [] }",
            "FaultPlan { rules: [FaultRule { observer: 3, trigger: Trigger { kind: Tick, peer: Any, tag: Any, occurrence: 3 }, action: Kill }] }",
            "FaultPlan { rules: [FaultRule { observer: 1, trigger: Trigger { kind: Tick, peer: Any, tag: Any, occurrence: 2 }, action: Kill }, FaultRule { observer: 2, trigger: Trigger { kind: BeforeCollective, peer: Any, tag: Any, occurrence: 1 }, action: Kill }] }",
        ];
        for (seed, want) in chaos.iter().enumerate() {
            let plan = RandomFaultsBuilder::new(6)
                .max_failures(2)
                .spare(&[0])
                .max_occurrence(4)
                .kinds(&[HookKind::BeforeCollective, HookKind::Tick, HookKind::BeforeValidate])
                .build(seed as u64)
                .next_plan();
            assert_eq!(format!("{plan:?}"), *want, "seed {seed}");
        }

        let stream = [
            "FaultPlan { rules: [FaultRule { observer: 4, trigger: Trigger { kind: BeforeSend, peer: Any, tag: Any, occurrence: 6 }, action: Kill }] }",
            "FaultPlan { rules: [FaultRule { observer: 2, trigger: Trigger { kind: AfterSend, peer: Any, tag: Any, occurrence: 6 }, action: Kill }, FaultRule { observer: 1, trigger: Trigger { kind: AfterRecvComplete, peer: Any, tag: Any, occurrence: 1 }, action: Kill }] }",
            "FaultPlan { rules: [] }",
            "FaultPlan { rules: [FaultRule { observer: 5, trigger: Trigger { kind: AfterSend, peer: Any, tag: Any, occurrence: 4 }, action: Kill }, FaultRule { observer: 1, trigger: Trigger { kind: AfterSend, peer: Any, tag: Any, occurrence: 2 }, action: Kill }, FaultRule { observer: 6, trigger: Trigger { kind: BeforeSend, peer: Any, tag: Any, occurrence: 5 }, action: Kill }] }",
        ];
        let mut g = RandomFaultsBuilder::new(8).max_failures(3).spare(&[0]).build(42);
        for (i, want) in stream.iter().enumerate() {
            assert_eq!(format!("{:?}", g.next_plan()), *want, "plan {i}");
        }
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64::new(1);
        for n in 1..200 {
            assert!(rng.below(n) < n);
        }
    }

    #[test]
    fn spared_ranks_are_never_victims() {
        let mut g = RandomFaultsBuilder::new(6).max_failures(6).spare(&[0, 3]).build(7);
        for _ in 0..200 {
            let plan = g.next_plan();
            for v in plan.victims() {
                assert!(v != 0 && v != 3, "spared rank {v} chosen as victim");
            }
        }
    }

    #[test]
    fn victims_are_distinct() {
        let mut g = RandomFaultsBuilder::new(5).max_failures(5).build(9);
        for _ in 0..100 {
            let plan = g.next_plan();
            let vs = plan.victims();
            // victims() dedups; compare against rule count to ensure the
            // generator itself never doubled a victim.
            assert_eq!(vs.len(), plan.len());
        }
    }

    #[test]
    fn zero_max_failures_yields_empty_plans() {
        let mut g = RandomFaultsBuilder::new(4).max_failures(0).build(1);
        assert!(g.next_plan().is_empty());
    }

    #[test]
    fn all_ranks_spared_yields_empty_plans() {
        let mut g = RandomFaultsBuilder::new(2).max_failures(2).spare(&[0, 1]).build(1);
        assert!(g.next_plan().is_empty());
    }
}
