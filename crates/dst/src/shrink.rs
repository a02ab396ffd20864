//! Delta-debugging schedule minimization.
//!
//! Once exploration finds a seed whose schedule violates an oracle, the
//! raw failure is usually noisy: extra kills that aren't needed, delays
//! that happened to fire but don't matter. [`shrink`] applies the
//! classic ddmin algorithm (Zeller & Hildebrandt) over the schedule's
//! *event set* — the union of its kills and its observed delay calls —
//! to find a locally minimal subset that still violates.
//!
//! Removal is sound because both dimensions are first-class schedule
//! inputs: dropping a kill just shrinks the fault plan, and replaying
//! with an explicit delay-mask (`Schedule::delay_mask`) pins exactly
//! which drain calls may hold messages back, with all other decisions
//! still derived from the same seed. The result is typically a one- or
//! two-event schedule: "kill rank 2 after its 3rd send" — the paper's
//! Fig. 8 scenario, rediscovered and minimized automatically.

use crate::oracle::{check_all, Violation};
use crate::scenario::{Kill, Observation, Retention, ScenarioCfg, Schedule, SeedRunner};

/// One removable schedule event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// An injected fail-stop.
    Kill(Kill),
    /// A message delay at this drain-call index.
    Delay(u64),
}

/// Outcome of a shrink.
#[derive(Debug)]
pub struct Shrunk {
    /// The locally minimal schedule that still violates: the seed with
    /// the surviving kills and exactly the surviving delays as its mask.
    pub schedule: Schedule,
    /// The violations the minimal schedule produces.
    pub violations: Vec<Violation>,
    /// The observation of the minimal schedule.
    pub observation: Observation,
    /// How many schedules the shrinker executed.
    pub runs: usize,
}

fn schedule_of(seed: u64, events: &[Ev]) -> Schedule {
    let mut kills = Vec::new();
    let mut delays = Vec::new();
    for ev in events {
        match ev {
            Ev::Kill(k) => kills.push(*k),
            Ev::Delay(c) => delays.push(*c),
        }
    }
    Schedule { seed, kills, delay_mask: Some(delays) }
}

/// Minimize the failing schedule of `seed` to a locally minimal event
/// set for which `failing` still holds. `failing` defaults to "any
/// applicable oracle is violated" when `None`.
pub fn shrink(
    seed: u64,
    cfg: &ScenarioCfg,
    failing: Option<&dyn Fn(&Observation) -> bool>,
) -> Option<Shrunk> {
    let default_pred = |obs: &Observation| !check_all(obs).is_empty();
    let pred: &dyn Fn(&Observation) -> bool = match failing {
        Some(f) => f,
        None => &default_pred,
    };

    // One runner for every candidate: ddmin executes dozens of
    // schedules back-to-back.
    let mut runner = SeedRunner::new(cfg.ranks);

    // The starting event set: the seed's derived kills plus the delays
    // actually observed on its exploration run. Replaying with that
    // explicit mask must still fail, otherwise the failure depends on
    // unmasked randomness and cannot be shrunk soundly.
    let first = runner.run_seed(seed, cfg, Retention::Full);
    let events: Vec<Ev> = first
        .schedule
        .kills
        .iter()
        .map(|k| Ev::Kill(*k))
        .chain(first.delay_calls.iter().map(|c| Ev::Delay(*c)))
        .collect();

    // `best` is the observation of the last candidate that failed —
    // ddmin's current event set.
    let mut runs = 0usize;
    let mut best = None;
    let mut fails = |events: &[Ev]| {
        runs += 1;
        let obs = runner.run_schedule_with(&schedule_of(seed, events), cfg, Retention::Full);
        let failed = pred(&obs);
        if failed {
            best = Some(obs);
        }
        failed
    };
    if !fails(&events) {
        return None;
    }
    let events = ddmin(events, fails);

    let observation = best.expect("the full event set failed");
    Some(Shrunk {
        schedule: schedule_of(seed, &events),
        violations: check_all(&observation),
        observation,
        runs,
    })
}

/// ddmin over an event set for which `fails` holds: remove chunks at
/// decreasing granularity, keeping any complement that still fails,
/// until no single chunk can go. Returns a locally minimal subset.
fn ddmin<T: Copy>(mut events: Vec<T>, mut fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut n = 2usize;
    while events.len() >= 2 {
        let chunk = events.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0usize;
        while start < events.len() {
            let end = (start + chunk).min(events.len());
            // Complement of events[start..end].
            let candidate: Vec<T> =
                events[..start].iter().chain(events[end..].iter()).copied().collect();
            if fails(&candidate) {
                events = candidate;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if n >= events.len() {
                break;
            }
            n = (n * 2).min(events.len());
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddmin_isolates_the_two_culprits() {
        let culprits = [3u64, 11];
        let minimal = ddmin((0..16).collect(), |set| culprits.iter().all(|c| set.contains(c)));
        assert_eq!(minimal.len(), 2);
        for c in &culprits {
            assert!(minimal.contains(c));
        }
    }

    #[test]
    fn ddmin_handles_single_culprit() {
        let minimal = ddmin((0..9u64).collect(), |set| set.contains(&5));
        assert_eq!(minimal, vec![5]);
    }
}
