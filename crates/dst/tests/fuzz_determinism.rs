//! Determinism referees for the coverage-guided fuzzer (DESIGN.md
//! §8.11).
//!
//! The fuzzer's contract is the same one the rest of the harness
//! lives by: one master seed names one complete campaign. Everything
//! downstream — the corpus file a nightly job uploads, the failure
//! records CI gates on, the edge counts EXPERIMENTS.md cites — is only
//! trustworthy if two runs with the same inputs are indistinguishable.

use dst::{fuzz, FuzzCfg, Retention, ScenarioCfg, SeedRunner};

fn scenario() -> ScenarioCfg {
    ScenarioCfg::builder().build().expect("default scenario is valid")
}

/// Same master seed + budget ⇒ the two campaigns are indistinguishable:
/// identical coverage union, identical corpus (same schedules, same
/// novelty attribution, same order), identical verdict counts — and the
/// mutated schedules themselves replay to byte-identical decision
/// logs, so a corpus line is as reproducible as a plain seed.
#[test]
fn same_master_seed_is_byte_identical() {
    let cfg = FuzzCfg { seed: 0x5EED, budget: 400, ..FuzzCfg::default() };
    let a = fuzz(&cfg, &scenario()).unwrap();
    let b = fuzz(&cfg, &scenario()).unwrap();

    assert_eq!(a.executed, b.executed);
    assert_eq!(a.seeded, b.seeded);
    assert_eq!(a.novel, b.novel);
    assert_eq!(a.green, b.green);
    assert_eq!(a.failing, b.failing);
    assert_eq!(a.hung, b.hung);
    assert_eq!(a.edges(), b.edges(), "edge counts diverged");
    assert_eq!(a.signature(), b.signature(), "signatures diverged");
    assert_eq!(a.discovered, b.discovered, "edge sets diverged");
    assert_eq!(
        a.corpus_lines(),
        b.corpus_lines(),
        "evolved corpora diverged (schedules, order, or novelty counts)"
    );
    assert!(a.edges() > 0, "campaign discovered no edges");
    assert!(!a.corpus.is_empty(), "campaign retained no corpus");

    // The tail of the corpus is mutation-produced (not derivable from
    // any single seed); replaying those schedules twice must still give
    // byte-identical decision logs — the property shrinking and corpus
    // repro rest on.
    let sc = scenario();
    let mut runner = SeedRunner::new(sc.ranks);
    for entry in a.corpus.iter().rev().take(3) {
        let x = runner.run_schedule_with(&entry.schedule, &sc, Retention::Full);
        let y = runner.run_schedule_with(&entry.schedule, &sc, Retention::Full);
        assert_eq!(
            x.log, y.log,
            "mutated schedule replay diverged: {:?}",
            entry.schedule
        );
    }
}

/// Different master seeds explore different schedules (the campaign is
/// not secretly ignoring its seed): corpora differ even when the edge
/// union converges to the same frontier.
#[test]
fn different_master_seeds_differ() {
    let sc = scenario();
    let a = fuzz(&FuzzCfg { seed: 1, budget: 150, ..FuzzCfg::default() }, &sc).unwrap();
    let b = fuzz(&FuzzCfg { seed: 2, budget: 150, ..FuzzCfg::default() }, &sc).unwrap();
    assert_ne!(
        a.corpus_lines(),
        b.corpus_lines(),
        "two master seeds produced identical corpora"
    );
}

/// Regression pin: the fuzzer rediscovers every coverage edge of a
/// known pinned seed. Seed 0x2d (pair shape) is the repo's canonical
/// probe — the dedup-bug reproducer the golden suite pins — so its
/// edge set is exactly the kind of behavior a campaign must not lose
/// to a mutator or energy-schedule regression.
#[test]
fn rediscovers_pinned_seed_edges() {
    let sc = scenario();
    let pinned = SeedRunner::new(sc.ranks).run_seed(0x2d, &sc, Retention::Full);
    let pinned_edges: Vec<u64> = pinned.coverage.iter().collect();
    assert!(!pinned_edges.is_empty(), "pinned seed covered nothing");

    let report = fuzz(&FuzzCfg { seed: 0, budget: 1500, ..FuzzCfg::default() }, &sc).unwrap();
    let missing: Vec<u64> = pinned_edges
        .iter()
        .copied()
        .filter(|e| !report.discovered.contains(e))
        .collect();
    assert!(
        missing.is_empty(),
        "campaign missed {} of {} pinned edges: {missing:#x?}",
        missing.len(),
        pinned_edges.len()
    );
}

/// A campaign beats a blind sweep of the same budget on distinct
/// coverage edges — the reason the fuzzer exists. (EXPERIMENTS.md
/// records the full-scale 20000-budget numbers; this is the cheap
/// always-on version.)
#[test]
fn beats_blind_sweep_at_equal_budget() {
    let sc = scenario();
    let budget = 600u64;
    let report = fuzz(&FuzzCfg { seed: 0, budget, ..FuzzCfg::default() }, &sc).unwrap();

    // Blind baseline: the same number of runs, seeds in order, fixed
    // pair shape — exactly what `dst explore --seeds 600` measures.
    let mut blind = std::collections::BTreeSet::new();
    let mut runner = SeedRunner::new(sc.ranks);
    for seed in 0..budget {
        let obs = runner.run_seed(seed, &sc, Retention::Quiet);
        blind.extend(obs.coverage.iter());
    }
    assert!(
        report.edges() > blind.len() as u64,
        "fuzz found {} edges, blind sweep found {} — coverage guidance \
         is not paying for itself",
        report.edges(),
        blind.len()
    );
}
