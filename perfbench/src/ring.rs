//! `ring-r8`: the paper's ring in wall-clock mode — thread per rank, no
//! DST scheduler — on one persistent `UniversePool`.
//!
//! A block is `ring_runs` runs of `ring_laps` laps with
//! `RingConfig::with_root_failover`, alternating a clean run and a run
//! with two seed-derived kills (victims and laps; the root may be one of
//! them, which exercises failover and validate termination). Traced,
//! each run is repeated with `UniverseConfig::traced()` for the work
//! counts, and the untraced twin gives the timings and `trace_overhead`.

use std::collections::BTreeSet;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use dst::SplitMix64;
use faultsim::{FaultPlan, HookKind};
use ftmpi::{RankOutcome, RunReport, UniverseConfig, UniversePool, WORLD};
use ftring::{run_ring, summarize, RingConfig, RingStats};

use crate::layers::{ratio, us, LayerReport};
use crate::{metric, quantile, setup, stream, Opts, Outcome, MIN_ACCOUNTED};

/// World size.
const RANKS: usize = 8;
/// Kills per faulty run.
const KILLS: usize = 2;
/// A run still going after this long is hung.
///
/// The runs carry no `UniverseConfig::watchdog`: with one set,
/// `UniversePool::run` notices completion only at its supervisor's 1 ms
/// poll, which rounds every run's wall time up to ~1.07 ms ticks
/// (10.7 µs per lap at 100 laps) — lap medians then jump between tick
/// counts instead of measuring the ring. Without it a hung run cannot
/// be torn down, so the guard thread reports the hang and ends the
/// process with a non-zero exit code instead of recording a result.
const RUN_LIMIT: Duration = Duration::from_secs(20);
/// Stream salt for the kill plans.
const PLAN_SALT: u64 = 0x5249_4e47_504c_414e;

/// One run's kill plan and its victims; no kills for a clean run. Each
/// victim dies right after its k-th completed receive, k drawn from
/// `1..laps` — for a non-root rank, while holding that lap's token.
fn derive_plan(rng: &mut SplitMix64, faulty: bool, laps: u64) -> (FaultPlan, Vec<usize>) {
    let mut victims = Vec::new();
    let mut plan = FaultPlan::none();
    while faulty && victims.len() < KILLS {
        let v = rng.below(RANKS);
        if victims.contains(&v) {
            continue;
        }
        let lap = 1 + rng.below(laps as usize - 1) as u64;
        plan = plan.kill_at(v, HookKind::AfterRecvComplete, lap);
        victims.push(v);
    }
    (plan, victims)
}

/// Why a run's output is wrong, if it is: a non-`Ok` survivor, an
/// unexpected death, a double completion, or the wrong completed laps. Closures are recorded at the root, so when the initial root
/// survives every lap must be closed exactly once; when it was killed
/// its records die with it, and the survivors' closures must still be
/// distinct, in range, and reach the last lap.
fn check(report: &RunReport<RingStats>, victims: &[usize], laps: u64) -> Option<String> {
    for (r, o) in report.outcomes.iter().enumerate() {
        match o {
            RankOutcome::Ok(s) if !s.terminated => {
                return Some(format!("rank {r} never terminated"));
            }
            RankOutcome::Ok(_) => {}
            RankOutcome::Failed if victims.contains(&r) => {}
            other => return Some(format!("rank {r} ended as {other:?}")),
        }
    }
    let s = summarize(report);
    if s.has_double_completion() {
        return Some("a lap completed twice".into());
    }
    let closed: BTreeSet<u64> = s.closures.iter().map(|&(m, _)| m).collect();
    let complete = if report.outcomes[0].is_ok() {
        closed.len() as u64 == laps && closed.iter().all(|&m| m < laps)
    } else {
        closed.iter().all(|&m| m < laps) && closed.contains(&(laps - 1))
    };
    (!complete).then(|| format!("completed laps {closed:?} of {laps}"))
}

/// One ring run on the pool; returns the report and the run's wall time.
fn run_once(
    pool: &mut UniversePool,
    plan: FaultPlan,
    ring: &RingConfig,
    traced: bool,
    beat: &Sender<()>,
) -> (RunReport<RingStats>, Duration) {
    let mut cfg = UniverseConfig::with_plan(plan);
    if traced {
        cfg = cfg.traced();
    }
    beat.send(()).expect("hang guard outlives the runs");
    let t = Instant::now();
    let report = pool.run(cfg, |p| run_ring(p, WORLD, ring));
    (report, t.elapsed())
}

/// `ring-r8`, with a guard thread that ends the process if a run hangs.
pub fn ring_r8(opts: &Opts) -> Outcome {
    let (beat, beats) = channel::<()>();
    let guard = std::thread::spawn(move || loop {
        match beats.recv_timeout(RUN_LIMIT) {
            Ok(()) => {}
            Err(RecvTimeoutError::Disconnected) => return,
            Err(RecvTimeoutError::Timeout) => {
                eprintln!("FAILED a ring run made no progress for {RUN_LIMIT:?}: hung");
                std::process::exit(1);
            }
        }
    });
    let out = measure(opts, &beat);
    drop(beat);
    guard.join().expect("hang guard panicked");
    out
}

fn measure(opts: &Opts, beat: &Sender<()>) -> Outcome {
    let laps = opts.size.ring_laps;
    let ring = RingConfig::with_root_failover(laps);
    let mut plans = stream(opts.seed, PLAN_SALT);
    let mut harness = setup(opts.setups, 1, || UniversePool::new(RANKS));
    let mut pool = harness.built.pop().expect("one pool");
    let mut out = Outcome::default();
    let mut layers =
        LayerReport { spawn_us: std::mem::take(&mut harness.spawn_us), ..LayerReport::default() };
    let mut rates = Vec::new();
    let deadline = Instant::now() + opts.measure;

    loop {
        let block = Instant::now();
        for i in 0..opts.size.ring_runs {
            let t0 = Instant::now();
            let (plan, victims) = derive_plan(&mut plans, i % 2 == 1, laps);
            let twin = opts.trace.then(|| plan.clone());
            let t1 = Instant::now();
            let (report, wall) = run_once(&mut pool, plan, &ring, false, beat);
            let t2 = Instant::now();
            let wrong = check(&report, &victims, laps);
            let t3 = Instant::now();
            out.record(wrong);

            let lap = us(wall) / laps as f64;
            if victims.is_empty() {
                layers.lap_us.push(lap);
            } else {
                layers.fault_lap_us.push(lap);
            }
            let t = &mut layers.timings;
            t.derive_us.push(us(t1 - t0));
            t.exec_us.push(us(wall));
            t.check_us.push(us(t3 - t2));
            t.accounted += t3 - t0;

            if let Some(plan) = twin {
                let t4 = Instant::now();
                let (report, traced_wall) = run_once(&mut pool, plan, &ring, true, beat);
                let wrong = check(&report, &victims, laps);
                layers.timings.accounted += t4.elapsed();
                out.record(wrong);
                layers.traced_wall += traced_wall;
                layers.untraced_wall += wall;
                let c = &mut layers.measured;
                c.runs += 1;
                c.add_stats(&report.stats);
                c.add_trace(&report.trace);
                for (_, s) in report.ok_values() {
                    c.add_ring(s);
                }
            }
        }
        let block_wall = block.elapsed();
        layers.timings.wall += block_wall;
        rates.push(opts.size.ring_runs as f64 / block_wall.as_secs_f64());
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
            metric("lap_us_p50", quantile(&mut layers.lap_us, 0.5), "us"),
            metric("fault_lap_us_p50", quantile(&mut layers.fault_lap_us, 0.5), "us"),
            metric("failed_frac", ratio(out.failed, out.attempted), "ratio"),
        ];
        return out;
    }
    // Wall-clock counts depend on the interleaving: measured, not exact.
    layers.exact = layers.measured;
    let frac = layers.timings.accounted_frac();
    if frac < MIN_ACCOUNTED {
        out.problems
            .push(format!("layer calls cover {:.1}% of the load thread's wall time", frac * 100.0));
    }
    out.metrics = layers.metrics();
    out
}
