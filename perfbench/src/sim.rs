//! The DST workloads: `sweep-r8` and `fuzz-r4`.
//!
//! Untraced, each block is one call into the program's own entry point
//! (`dst::sweep`, or one `dst::fuzz` campaign per load thread) and the
//! block rate is schedules executed and oracle-checked per second.
//! Traced, the same block's work is re-driven from outside through the
//! public layer calls — `Schedule::from_seed` (scenario),
//! `SeedRunner::run_schedule_with` (pool, and the scheduler, transport,
//! matching, detector, validate and ring layers it runs), `check_all`
//! (oracle) — each wrapped in a timer, next to an untraced pass over
//! the same schedules, so the two passes' verdicts can be compared and
//! their wall times give `trace_overhead`.

use std::time::{Duration, Instant};

use dst::{
    check_all, fuzz, sweep, FuzzCfg, FuzzReport, KillShape, Retention, ScenarioCfg, Schedule,
    SeedRunner, SweepCfg, SweepReport,
};

use crate::layers::{ratio, us, Counts, FuzzCounts, LayerReport, Timings};
use crate::{metric, quantile, setup, stream, Opts, Outcome, MIN_ACCOUNTED};

/// `sweep-r8` world size.
const SWEEP_RANKS: usize = 8;
/// `fuzz-r4` world size.
const FUZZ_RANKS: usize = 4;
/// Seeds `0..GREEN_SEEDS` were swept green at 8 ranks with the pair
/// shape (`dst explore --ranks 8 --seeds 40000`), so every seed window
/// the benchmark picks is one on which no operation should fail.
const GREEN_SEEDS: u64 = 40_000;
/// Stream salts: one input family per stream.
const WINDOW_SALT: u64 = 0x5745_4550_5749_4e44;
const CAMPAIGN_SALT: u64 = 0x4655_5a5a_4341_4d50;
/// Failure records retained per sweep or campaign (all are counted).
const MAX_FAILURES: usize = 16;

fn scenario(ranks: usize) -> ScenarioCfg {
    ScenarioCfg::builder().ranks(ranks).shape(KillShape::Pair).build().expect("valid scenario")
}

/// One schedule of a traced pass: derived here from a seed, or given.
enum Job<'a> {
    Derive(u64, ScenarioCfg),
    Replay(&'a Schedule),
}

/// Execute and check one job without timers; returns its verdict.
fn plain(runner: &mut SeedRunner, sc: &ScenarioCfg, job: &Job) -> bool {
    let derived;
    let schedule = match job {
        Job::Derive(seed, cfg) => {
            derived = Schedule::from_seed(*seed, cfg);
            &derived
        }
        Job::Replay(s) => *s,
    };
    let obs = runner.run_schedule_with(schedule, sc, Retention::Quiet);
    let green = check_all(&obs).is_empty();
    runner.recycle(obs);
    green
}

/// Execute and check one job with every layer call timed and its work
/// counted; returns the failure, if any.
fn layered(
    runner: &mut SeedRunner,
    sc: &ScenarioCfg,
    job: &Job,
    t: &mut Timings,
    counts: &mut Counts,
    laps: &mut LapSplit,
) -> Option<String> {
    let t0 = Instant::now();
    let derived;
    let schedule = match job {
        Job::Derive(seed, cfg) => {
            let before = allocstats::snapshot();
            derived = Schedule::from_seed(*seed, cfg);
            let alloc = allocstats::snapshot().since(&before);
            counts.allocs += alloc.allocs;
            counts.alloc_bytes += alloc.bytes_alloc;
            &derived
        }
        Job::Replay(s) => *s,
    };
    let t1 = Instant::now();
    let obs = runner.run_schedule_with(schedule, sc, Retention::Quiet);
    let t2 = Instant::now();
    let violations = check_all(&obs);
    let t3 = Instant::now();

    if matches!(job, Job::Derive(..)) {
        t.derive_us.push(us(t1 - t0));
    }
    t.exec_us.push(us(t2 - t1));
    t.check_us.push(us(t3 - t2));
    t.accounted += t3 - t0;

    counts.runs += 1;
    counts.add_stats(&obs.stats);
    counts.add_trace(&obs.trace);
    for (_, s) in obs.survivors() {
        counts.add_ring(s);
    }
    let lap = us(t2 - t1) / sc.max_iter as f64;
    if obs.killed().is_empty() {
        laps.clean.push(lap);
    } else {
        laps.fault.push(lap);
    }
    let failure = (!violations.is_empty()).then(|| {
        let v: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
        format!("schedule seed {:#x} kills {:?}: {}", schedule.seed, schedule.kills, v.join("; "))
    });
    runner.recycle(obs);
    failure
}

/// Simulated-lap wall times (schedule execution ÷ ring iterations),
/// split by whether the schedule plans a kill.
#[derive(Default)]
struct LapSplit {
    clean: Vec<f64>,
    fault: Vec<f64>,
}

/// What one load thread's traced pass over one block produced.
#[derive(Default)]
struct Pass {
    timings: Timings,
    counts: Counts,
    laps: LapSplit,
    failures: Vec<String>,
    /// Per-job verdicts of the traced and the untraced pass.
    traced: Vec<bool>,
    untraced: Vec<bool>,
    untraced_wall: Duration,
}

impl Pass {
    /// Run `jobs` untraced, then traced with every layer timed.
    fn run(runner: &mut SeedRunner, sc: &ScenarioCfg, jobs: &[Job], untraced: bool) -> Pass {
        let mut p = Pass::default();
        if untraced {
            let t = Instant::now();
            p.untraced = jobs.iter().map(|j| plain(runner, sc, j)).collect();
            p.untraced_wall = t.elapsed();
        }
        let t = Instant::now();
        for j in jobs {
            let failure = layered(runner, sc, j, &mut p.timings, &mut p.counts, &mut p.laps);
            p.traced.push(failure.is_none());
            p.failures.extend(failure);
        }
        p.timings.wall = t.elapsed();
        p
    }
}

/// Fold the per-thread traced passes of block `k` into the report.
fn fold_passes(
    k: u64,
    passes: Vec<Pass>,
    per_thread: &mut [Timings],
    layers: &mut LayerReport,
    out: &mut Outcome,
) {
    for (t, p) in passes.into_iter().enumerate() {
        for green in &p.traced {
            out.attempted += 1;
            out.failed += u64::from(!green);
        }
        out.failures.extend(p.failures);
        if !p.untraced.is_empty() && p.untraced != p.traced {
            out.problems.push(format!("block {k}: traced and untraced verdicts differ"));
        }
        if k == 0 {
            layers.exact.merge(&p.counts);
        }
        layers.measured.merge(&p.counts);
        layers.lap_us.extend(p.laps.clean);
        layers.fault_lap_us.extend(p.laps.fault);
        per_thread[t].merge(p.timings);
    }
}

/// Check the layer accounting of every load thread, then hand the
/// merged timings to the report.
fn close_accounting(per_thread: Vec<Timings>, layers: &mut LayerReport, out: &mut Outcome) {
    for (t, timings) in per_thread.into_iter().enumerate() {
        let frac = timings.accounted_frac();
        if frac < MIN_ACCOUNTED {
            out.problems.push(format!(
                "load thread {t}: layer calls cover {:.1}% of its wall time (< {:.0}%)",
                frac * 100.0,
                MIN_ACCOUNTED * 100.0
            ));
        }
        layers.timings.merge(timings);
    }
}

fn tally_sweep(out: &mut Outcome, r: &SweepReport) {
    out.attempted += r.count;
    out.failed += r.failing;
    for f in r.failures.values() {
        out.failures.push(format!("seed {:#x}: {}", f.seed, f.violations.join("; ")));
    }
    if r.green + r.failing != r.count {
        out.problems.push(format!(
            "sweep at {:#x}: {} green + {} failing != {} seeds",
            r.start, r.green, r.failing, r.count
        ));
    }
}

/// `sweep-r8`: `dst::sweep` over seed windows of the validated-green
/// range, 8 ranks, pair shape, `jobs` workers.
pub fn sweep_r8(opts: &Opts) -> Outcome {
    let sc = scenario(SWEEP_RANKS);
    let seeds = opts.size.sweep_seeds;
    let windows = (GREEN_SEEDS / seeds).max(1);
    let first = stream(opts.seed, WINDOW_SALT).below(windows as usize) as u64;
    let window = |k: u64| ((first + k) % windows) * seeds;
    let cfg = |k: u64| SweepCfg {
        start: window(k),
        count: seeds,
        jobs: opts.jobs,
        max_failures: MAX_FAILURES,
        ..SweepCfg::default()
    };
    let mut harness = setup(opts.setups, opts.jobs, || SeedRunner::new(SWEEP_RANKS));
    let mut out = Outcome::default();
    let deadline = Instant::now() + opts.measure;

    if !opts.trace {
        drop(std::mem::take(&mut harness.built));
        let mut rates = Vec::new();
        for k in 0.. {
            let t = Instant::now();
            let r = sweep(&cfg(k), &sc).expect("valid sweep configuration");
            rates.push(r.count as f64 / t.elapsed().as_secs_f64());
            tally_sweep(&mut out, &r);
            if Instant::now() >= deadline {
                break;
            }
        }
        out.metrics = vec![
            metric("sched_per_s", quantile(&mut rates, 0.5), "1/s"),
            metric("setup_s", harness.setup_s, "s"),
        ];
        out.extra = vec![metric("failed_frac", ratio(out.failed, out.attempted), "ratio")];
        return out;
    }

    let mut layers = LayerReport { spawn_us: harness.spawn_us, ..LayerReport::default() };
    let mut per_thread: Vec<Timings> = (0..opts.jobs).map(|_| Timings::default()).collect();
    let jobs = opts.jobs as u64;
    for k in 0.. {
        // Untraced: the program's own sweep over the window.
        let t = Instant::now();
        let r = sweep(&cfg(k), &sc).expect("valid sweep configuration");
        layers.untraced_wall += t.elapsed();
        tally_sweep(&mut out, &r);
        // Traced: the same seeds, statically split across load threads
        // so block 0's per-thread work (and so its counts) is fixed.
        let start = window(k);
        let t = Instant::now();
        let passes: Vec<Pass> = std::thread::scope(|s| {
            let handles: Vec<_> = harness
                .built
                .iter_mut()
                .enumerate()
                .map(|(i, runner)| {
                    let sc = &sc;
                    s.spawn(move || {
                        let list: Vec<Job> = (i as u64..seeds)
                            .step_by(jobs as usize)
                            .map(|off| Job::Derive(start + off, *sc))
                            .collect();
                        Pass::run(runner, sc, &list, false)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
        });
        let traced_block = t.elapsed();
        let traced_failing = passes.iter().map(|p| p.failures.len() as u64).sum::<u64>();
        if traced_failing != r.failing {
            out.problems.push(format!(
                "window {start:#x}: sweep found {} failing seeds, the traced pass {traced_failing}",
                r.failing
            ));
        }
        fold_passes(k, passes, &mut per_thread, &mut layers, &mut out);
        // The sweep's wall covers the whole block, so the traced side is
        // the block's wall too, not the sum of the per-thread loops.
        layers.traced_wall += traced_block;
        if Instant::now() >= deadline {
            break;
        }
    }
    close_accounting(per_thread, &mut layers, &mut out);
    out.exact = layers.exact.exact();
    out.metrics = layers.metrics();
    out
}

fn tally_fuzz(out: &mut Outcome, r: &FuzzReport, cfg: &FuzzCfg, sc: &ScenarioCfg, budget: u64) {
    out.attempted += r.executed;
    out.failed += r.failing;
    for f in &r.failures {
        out.failures.push(format!("{} :: {}", f.line(cfg, sc), f.violations.join("; ")));
    }
    if r.executed != budget || r.green + r.failing != r.executed {
        out.problems.push(format!(
            "campaign {:#x}: executed {} of budget {budget}, {} green + {} failing",
            r.seed, r.executed, r.green, r.failing
        ));
    }
}

/// `fuzz-r4`: one `dst::fuzz` campaign per load thread per block, at 4
/// ranks, with campaign seeds drawn from the workload seed.
pub fn fuzz_r4(opts: &Opts) -> Outcome {
    let sc = scenario(FUZZ_RANKS);
    let budget = opts.size.fuzz_budget;
    let mut seeds = stream(opts.seed, CAMPAIGN_SALT);
    let mut harness = setup(opts.setups, opts.jobs, || SeedRunner::new(FUZZ_RANKS));
    let mut out = Outcome::default();
    let mut fuzz_counts = FuzzCounts::default();
    let mut layers =
        LayerReport { spawn_us: std::mem::take(&mut harness.spawn_us), ..LayerReport::default() };
    let mut per_thread: Vec<Timings> = (0..opts.jobs).map(|_| Timings::default()).collect();
    let mut rates = Vec::new();
    if !opts.trace {
        drop(std::mem::take(&mut harness.built));
    }
    let deadline = Instant::now() + opts.measure;

    for k in 0u64.. {
        let cfgs: Vec<FuzzCfg> = (0..opts.jobs)
            .map(|_| FuzzCfg {
                seed: seeds.next_u64(),
                budget,
                max_failures: MAX_FAILURES,
                corpus: None,
            })
            .collect();
        let t = Instant::now();
        let results: Vec<(FuzzReport, Option<Pass>)> = std::thread::scope(|s| {
            let mut runners = harness.built.iter_mut();
            let handles: Vec<_> = cfgs
                .iter()
                .map(|cfg| {
                    let runner = runners.next();
                    let sc = &sc;
                    s.spawn(move || {
                        let report = fuzz(cfg, sc).expect("valid fuzz configuration");
                        // Traced: replay the campaign's mix through the
                        // layer calls — each corpus entry's seed derived
                        // under the seven kill shapes in turn (the
                        // seeding phase's work) and the evolved entry
                        // itself (mutated kills and delay masks).
                        let pass = runner.map(|runner| {
                            let mut list = Vec::with_capacity(2 * report.corpus.len());
                            for (i, e) in report.corpus.iter().enumerate() {
                                let shape = KillShape::ALL[i % KillShape::ALL.len()];
                                list.push(Job::Derive(
                                    e.schedule.seed,
                                    ScenarioCfg { shape, ..*sc },
                                ));
                                list.push(Job::Replay(&e.schedule));
                            }
                            Pass::run(runner, sc, &list, true)
                        });
                        (report, pass)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
        });
        let wall = t.elapsed();
        let executed: u64 = results.iter().map(|(r, _)| r.executed).sum();
        rates.push(executed as f64 / wall.as_secs_f64());
        let mut passes = Vec::new();
        for ((r, pass), cfg) in results.into_iter().zip(&cfgs) {
            tally_fuzz(&mut out, &r, cfg, &sc, budget);
            if k == 0 {
                fuzz_counts.campaigns += 1;
                fuzz_counts.executed += r.executed;
                fuzz_counts.novel += r.novel;
                fuzz_counts.corpus_len += r.corpus.len() as u64;
                fuzz_counts.edges += r.edges();
            }
            passes.extend(pass);
        }
        if opts.trace {
            for p in &passes {
                layers.traced_wall += p.timings.wall;
                layers.untraced_wall += p.untraced_wall;
            }
            fold_passes(k, passes, &mut per_thread, &mut layers, &mut out);
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    if !opts.trace {
        out.metrics = vec![
            metric("sched_per_s", quantile(&mut rates, 0.5), "1/s"),
            metric("setup_s", harness.setup_s, "s"),
        ];
        out.extra = vec![
            metric("edges", ratio(fuzz_counts.edges, fuzz_counts.campaigns), "count"),
            metric("failed_frac", ratio(out.failed, out.attempted), "ratio"),
        ];
        return out;
    }
    close_accounting(per_thread, &mut layers, &mut out);
    out.extra = fuzz_counts.metrics();
    let mut exact = layers.exact.exact();
    exact.push(("fuzz.edges", fuzz_counts.edges));
    exact.push(("fuzz.novel", fuzz_counts.novel));
    exact.push(("fuzz.corpus_len", fuzz_counts.corpus_len));
    out.exact = exact;
    out.metrics = layers.metrics();
    out
}
