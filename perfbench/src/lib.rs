//! The repository benchmark: three seeded, closed-loop workloads over
//! the DST harness (`sweep-r8`, `fuzz-r4`) and the wall-clock ring
//! (`ring-r8`), each checked for correct outputs, with an untraced mode
//! for the end-to-end metrics and a traced mode that times every layer
//! from outside by wrapping the calls into the program's public
//! functions. README.md in this directory documents the workloads, the
//! metrics and which layer metric should move which end-to-end metric.
//!
//! Every workload runs in *blocks* — a fixed unit of work (a seed
//! window, one campaign per load thread, a batch of ring runs) — until
//! the measurement time is spent; rates are medians over blocks, so a
//! transient stall of the shared host moves one block, not the result.
//! Exact counts are taken over block 0 only, whose work is a pure
//! function of the seed, so they repeat bit-for-bit.

use std::time::{Duration, Instant};

pub mod layers;
pub mod ring;
pub mod sim;

/// Least share of a load thread's traced-loop wall time that the timed
/// layer calls must cover; below it the traced run reports a problem.
pub const MIN_ACCOUNTED: f64 = 0.95;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `dst::sweep` over seed windows: 8 ranks, pair kill shape.
    SweepR8,
    /// Concurrent `dst::fuzz` campaigns at 4 ranks. Not a
    /// `BENCHMARK.json` workload: the program fails a share of its
    /// executions (README.md, "Known failures"), so its failure count
    /// depends on how many campaigns fit into a run.
    FuzzR4,
    /// The paper's ring in wall-clock mode: 8 ranks, thread per rank.
    RingR8,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 3] = [Workload::SweepR8, Workload::FuzzR4, Workload::RingR8];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepR8 => "sweep-r8",
            Workload::FuzzR4 => "fuzz-r4",
            Workload::RingR8 => "ring-r8",
        }
    }

    /// Parse a `--workload` value.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The work in one block. [`Size::FULL`] is what the benchmark measures;
/// the determinism tests run smaller blocks.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Seeds per `sweep-r8` block (one `dst::sweep` call).
    pub sweep_seeds: u64,
    /// Executions per `fuzz-r4` campaign (one campaign per load thread
    /// per block).
    pub fuzz_budget: u64,
    /// Ring runs per `ring-r8` block (half clean, half with kills).
    pub ring_runs: usize,
    /// Laps per ring run.
    pub ring_laps: u64,
}

impl Size {
    /// The measured configuration.
    pub const FULL: Size =
        Size { sweep_seeds: 256, fuzz_budget: 600, ring_runs: 20, ring_laps: 100 };
}

/// How one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed: selects every generated input.
    pub seed: u64,
    /// Time to keep starting blocks; block 0 always runs in full.
    pub measure: Duration,
    /// Traced mode: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Load threads (the host's available parallelism).
    pub jobs: usize,
    /// Work per block.
    pub size: Size,
    /// Set-up repetitions whose median is `setup_s`.
    pub setups: usize,
}

/// One named, unit-carrying result.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: DST schedules executed and checked, or
    /// ring runs.
    pub attempted: u64,
    /// Operations with a wrong output: a failing or hung seed; a hung
    /// ring run, a wrong completed-lap count, a double completion or a
    /// non-`Ok` survivor.
    pub failed: u64,
    /// One line per failed operation (the first few are printed).
    pub failures: Vec<String>,
    /// The benchmark's own consistency checks that did not hold (layer
    /// accounting, traced/untraced verdict agreement, report totals).
    pub problems: Vec<String>,
    /// The metrics `BENCHMARK.json` names for this mode.
    pub metrics: Vec<Metric>,
    /// Further metrics printed in the human-readable table only
    /// (workload-specific, so not every workload has them).
    pub extra: Vec<Metric>,
    /// Traced mode: the exact counts of block 0, for the determinism
    /// self-test.
    pub exact: Vec<(&'static str, u64)>,
}

impl Outcome {
    /// Whether the measurement can be trusted: every output was checked
    /// and every consistency check of the benchmark held. Wrong outputs
    /// of the program are not hidden here — each is a failed operation,
    /// counted in `failed` and printed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Count one operation and, if `wrong` names a defect, its failure.
    pub fn record(&mut self, wrong: Option<String>) {
        self.attempted += 1;
        if let Some(w) = wrong {
            self.failed += 1;
            self.failures.push(w);
        }
    }
}

/// Run one workload.
pub fn run(workload: Workload, opts: &Opts) -> Outcome {
    match workload {
        Workload::SweepR8 => sim::sweep_r8(opts),
        Workload::FuzzR4 => sim::fuzz_r4(opts),
        Workload::RingR8 => ring::ring_r8(opts),
    }
}

/// The harness a workload builds before its first timed operation.
pub struct Setup<T> {
    /// Median wall time of building all `jobs` pools, over the
    /// repetitions, in seconds.
    pub setup_s: f64,
    /// Every single pool construction, µs.
    pub spawn_us: Vec<f64>,
    /// The pools of the last repetition, kept for the run.
    pub built: Vec<T>,
}

/// Build `jobs` pools with `make`, `reps` times over; the earlier
/// repetitions are dropped (their thread joins stay outside the timed
/// region) and the last is kept.
pub fn setup<T>(reps: usize, jobs: usize, mut make: impl FnMut() -> T) -> Setup<T> {
    let mut secs = Vec::new();
    let mut spawn_us = Vec::new();
    let mut built = Vec::new();
    for _ in 0..reps.max(1) {
        drop(std::mem::take(&mut built));
        let rep = Instant::now();
        for _ in 0..jobs.max(1) {
            let t = Instant::now();
            built.push(make());
            spawn_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        secs.push(rep.elapsed().as_secs_f64());
    }
    Setup { setup_s: quantile(&mut secs, 0.5), spawn_us, built }
}

/// The `q`-quantile of `xs` (nearest rank on the sorted values); 0 for
/// an empty sample.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let idx = (q * (xs.len() - 1) as f64).round() as usize;
    xs[idx.min(xs.len() - 1)]
}

/// A SplitMix64 stream keyed by the workload seed and a per-use salt,
/// so each input family (seed window, campaign seeds, kill plans) draws
/// from its own stream.
pub fn stream(seed: u64, salt: u64) -> dst::SplitMix64 {
    dst::SplitMix64::new(seed ^ salt)
}
