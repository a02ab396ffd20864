//! The seven correctness oracles.
//!
//! DESIGN.md §5 lists the invariants the fault-tolerant ring must hold
//! under arbitrary fail-stop schedules. Each is a reusable [`Oracle`]
//! here, run against the [`Observation`] left behind by every explored
//! schedule:
//!
//! | § | Invariant | Oracle |
//! |---|---|---|
//! | 1 | per-pair FIFO / non-overtaking | [`NonOvertaking`] |
//! | 2 | the hardened ring completes all iterations | [`RingCompletion`] |
//! | 3 | no iteration closes twice, no duplicate forwards | [`NoDuplicate`] |
//! | 4 | each rank's closure markers are strictly increasing | [`MarkersMonotone`] |
//! | 5 | `validate_all` answers agree across survivors | [`ValidateAgreement`] |
//! | 6 | at most one rank wins the root election, and it is the minimum survivor | [`ElectionAgreement`] |
//! | 7 | the detector always fires: the hardened ring never hangs | [`DetectorCompleteness`] |
//!
//! Liveness oracles (2, 7) only apply to the hardened configuration —
//! the deliberately buggy ring is *supposed* to misbehave, and the
//! whole point of the harness is that [`NoDuplicate`] (which stays on)
//! catches it.

use std::collections::BTreeMap;

use ftmpi::{Event, RankOutcome};

use crate::scenario::Observation;

/// A violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the oracle that fired.
    pub oracle: &'static str,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.oracle, self.detail)
    }
}

/// One invariant checker.
pub trait Oracle: Send + Sync {
    /// Stable oracle name.
    fn name(&self) -> &'static str;
    /// Whether this oracle is meaningful for the observed scenario.
    fn applicable(&self, obs: &Observation) -> bool {
        let _ = obs;
        true
    }
    /// Check the invariant; `Err` is a violation.
    fn check(&self, obs: &Observation) -> Result<(), Violation>;
}

/// Build a violation for the named oracle.
fn violation(oracle: &'static str, detail: impl Into<String>) -> Violation {
    Violation { oracle, detail: detail.into() }
}

/// §5.1 — messages between a fixed (sender, receiver, context, tag)
/// quadruple are matched in send order. Checked straight off the trace:
/// the per-pair `seq` stamped on every `RecvMatch` must be strictly
/// increasing.
pub struct NonOvertaking;

impl Oracle for NonOvertaking {
    fn name(&self) -> &'static str {
        "non-overtaking"
    }

    fn check(&self, obs: &Observation) -> Result<(), Violation> {
        let mut last: BTreeMap<(usize, usize, u64, i32), u64> = BTreeMap::new();
        for te in &obs.trace {
            if let Event::RecvMatch { dst, src, context, tag, seq } = &te.event {
                let key = (*dst, *src, *context, *tag);
                if let Some(prev) = last.get(&key) {
                    if *seq <= *prev {
                        return Err(violation(self.name(), format!(
                            "rank {dst} matched seq {seq} from rank {src} \
                             (ctx {context}, tag {tag}) after seq {prev}"
                        )));
                    }
                }
                last.insert(key, *seq);
            }
        }
        Ok(())
    }
}

/// §5.2 — under the hardened configuration, the survivors finish every
/// iteration: no hang, no unexpected abort, every survivor reaches
/// termination, and closure markers stay inside `0..max_iter`.
///
/// Full marker coverage (every iteration observed closed) is only
/// demanded when rank 0 survives: closures are recorded at the root,
/// and a killed root takes its closure records to the grave, so under
/// root failover the surviving union legitimately misses the dead
/// root's iterations.
///
/// A rank that ends `Aborted(-1)` is accepted exactly when every other
/// rank fail-stopped: that is the paper's Fig. 4/5 "alone in the
/// communicator → `MPI_Abort`" answer, reachable under the triple /
/// root-chain / cascade kill shapes that reduce a small ring to one
/// survivor.
pub struct RingCompletion;

impl Oracle for RingCompletion {
    fn name(&self) -> &'static str {
        "ring-completion"
    }

    fn applicable(&self, obs: &Observation) -> bool {
        !obs.cfg.buggy_dedup
    }

    fn check(&self, obs: &Observation) -> Result<(), Violation> {
        if obs.hung {
            return Err(violation(self.name(), "run hung (step budget exhausted)"));
        }
        let killed = obs.killed();
        // Fig. 4/5: a rank that finds itself alone in the communicator
        // calls `MPI_Abort(comm, -1)`. That is the paper's prescribed
        // ending, not a defect — but only when the rank truly was the
        // last one standing: every other rank actually fail-stopped
        // (a scheduled kill that never fired leaves a live peer, and
        // aborting with a live peer is still a violation).
        let lone_survivor_abort = |rank: usize| {
            obs.outcomes
                .iter()
                .enumerate()
                .all(|(q, o)| q == rank || o.is_failed())
        };
        for (rank, o) in obs.outcomes.iter().enumerate() {
            match o {
                RankOutcome::Ok(_) => {}
                RankOutcome::Failed if killed.contains(&rank) => {}
                RankOutcome::Aborted { code: -1 } if lone_survivor_abort(rank) => {}
                other => {
                    return Err(violation(
                        self.name(),
                        format!("rank {rank} ended as {other:?} unexpectedly"),
                    ));
                }
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for (rank, s) in obs.survivors() {
            if !s.terminated {
                return Err(violation(self.name(), format!("rank {rank} never terminated")));
            }
            for (marker, _) in &s.closures {
                if *marker >= obs.cfg.max_iter {
                    return Err(violation(self.name(), format!(
                        "rank {rank} closed out-of-range iteration {marker}"
                    )));
                }
                seen.insert(*marker);
            }
        }
        if !killed.contains(&0) && obs.outcomes[0].is_ok() {
            // The initial root ran to completion, so every closure
            // record survived too. (A rank-0 lone-survivor abort cuts
            // the job short by design — no coverage to demand.)
            for it in 0..obs.cfg.max_iter {
                if !seen.contains(&it) {
                    return Err(violation(self.name(), format!(
                        "iteration {it} was never closed (closed: {seen:?})"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// §5.3 — an iteration's token is consumed exactly once at the root:
/// no rank observes the same closure marker twice across the whole run,
/// and nobody forwards a duplicate token. This is the oracle that
/// catches the reverted iteration-marker dedup check.
pub struct NoDuplicate;

impl Oracle for NoDuplicate {
    fn name(&self) -> &'static str {
        "no-duplicate"
    }

    fn check(&self, obs: &Observation) -> Result<(), Violation> {
        let mut seen = std::collections::BTreeSet::new();
        for (rank, s) in obs.survivors() {
            for (marker, _) in &s.closures {
                if !seen.insert(*marker) {
                    return Err(violation(self.name(), format!(
                        "iteration {marker} closed twice (second closure at rank {rank})"
                    )));
                }
            }
            if s.duplicate_forwards > 0 {
                return Err(violation(self.name(), format!(
                    "rank {rank} forwarded {} duplicate token(s)",
                    s.duplicate_forwards
                )));
            }
        }
        Ok(())
    }
}

/// §5.4 — within one rank, closure markers appear in strictly
/// increasing iteration order.
pub struct MarkersMonotone;

impl Oracle for MarkersMonotone {
    fn name(&self) -> &'static str {
        "markers-monotone"
    }

    fn check(&self, obs: &Observation) -> Result<(), Violation> {
        for (rank, s) in obs.survivors() {
            for pair in s.closures.windows(2) {
                if pair[1].0 <= pair[0].0 {
                    return Err(violation(self.name(), format!(
                        "rank {rank} closed iteration {} after {}",
                        pair[1].0, pair[0].0
                    )));
                }
            }
        }
        Ok(())
    }
}

/// §5.5 — when survivors ran a `validate_all`, they agreed on the size
/// of the failed set.
pub struct ValidateAgreement;

impl Oracle for ValidateAgreement {
    fn name(&self) -> &'static str {
        "validate-agreement"
    }

    fn check(&self, obs: &Observation) -> Result<(), Violation> {
        let answers: Vec<(usize, usize)> = obs
            .survivors()
            .filter_map(|(rank, s)| s.validate_failed.map(|f| (rank, f)))
            .collect();
        if let Some(((_, first), rest)) = answers.split_first() {
            for (rank, f) in rest {
                if f != first {
                    return Err(violation(self.name(), format!(
                        "rank {rank} validated {f} failed ranks, others saw {first}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// §5.6 — root failover elects at most one new root, and it is the
/// lowest-ranked survivor (the deterministic election of Fig. 12).
pub struct ElectionAgreement;

impl Oracle for ElectionAgreement {
    fn name(&self) -> &'static str {
        "election-agreement"
    }

    fn check(&self, obs: &Observation) -> Result<(), Violation> {
        let winners: Vec<usize> =
            obs.survivors().filter(|(_, s)| s.became_root).map(|(r, _)| r).collect();
        if winners.len() > 1 {
            return Err(violation(self.name(), format!("multiple ranks became root: {winners:?}")));
        }
        if let Some(&w) = winners.first() {
            let min_survivor = obs.survivors().map(|(r, _)| r).min().unwrap_or(w);
            if w != min_survivor {
                return Err(violation(self.name(), format!(
                    "rank {w} became root but the minimum survivor is {min_survivor}"
                )));
            }
        }
        Ok(())
    }
}

/// §5.7 — the failure detector is complete: with the detector-based
/// receive strategy, a fail-stop is always observed and the hardened
/// ring never waits forever on a dead peer.
pub struct DetectorCompleteness;

impl Oracle for DetectorCompleteness {
    fn name(&self) -> &'static str {
        "detector-completeness"
    }

    fn applicable(&self, obs: &Observation) -> bool {
        !obs.cfg.buggy_dedup
    }

    fn check(&self, obs: &Observation) -> Result<(), Violation> {
        if obs.hung || obs.budget_exhausted {
            return Err(violation(self.name(), 
                "logical watchdog fired: some rank waited forever on a failed peer",
            ));
        }
        Ok(())
    }
}

/// All seven oracles, in DESIGN.md §5 order.
pub fn all_oracles() -> Vec<Box<dyn Oracle>> {
    vec![
        Box::new(NonOvertaking),
        Box::new(RingCompletion),
        Box::new(NoDuplicate),
        Box::new(MarkersMonotone),
        Box::new(ValidateAgreement),
        Box::new(ElectionAgreement),
        Box::new(DetectorCompleteness),
    ]
}

/// Run every applicable oracle; returns all violations (empty = green).
pub fn check_all(obs: &Observation) -> Vec<Violation> {
    all_oracles()
        .iter()
        .filter(|o| o.applicable(obs))
        .filter_map(|o| o.check(obs).err())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Observation, Retention, ScenarioCfg, SeedRunner};

    fn run_seed(seed: u64, cfg: &ScenarioCfg) -> Observation {
        SeedRunner::new(cfg.ranks).run_seed(seed, cfg, Retention::Full)
    }

    #[test]
    fn failure_free_run_passes_every_oracle() {
        let obs = run_seed(0, &ScenarioCfg::default());
        let violations = check_all(&obs);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn liveness_oracles_gate_off_in_buggy_mode() {
        let cfg = ScenarioCfg { buggy_dedup: true, ..ScenarioCfg::default() };
        let obs = run_seed(0, &cfg);
        assert!(!RingCompletion.applicable(&obs));
        assert!(!DetectorCompleteness.applicable(&obs));
        assert!(NoDuplicate.applicable(&obs));
    }
}
