//! `dst` — the deterministic-simulation CLI.
//!
//! ```text
//! dst explore --seeds 1000 [--start 0] [--jobs N] [--corpus PATH]
//!             [--shrink-failures] [--max-failures N] [--stats]
//!             [--shape <name|all>] [--buggy] [--ranks 4] [--iters 3]
//! dst fuzz    --budget 20000 [--seed S] [--corpus PATH] [--stats]
//!             [--max-failures N] [--ranks 4] [--iters 3]
//! dst replay  --seed 0xBEEF [--shape NAME] [--buggy] [--log] [--triage]
//! dst shrink  --seed 0xBEEF [--shape NAME] [--buggy]
//! dst determinism --seed 0xBEEF [--shape NAME] [--buggy]
//! ```
//!
//! `explore` fans the sweep out over worker threads, each running its
//! seeds' universes on its own thread, every rank a fiber. Workers
//! default to one per core; an explicit `--jobs N` is capped only by
//! the seed count. Per-seed verdicts are identical whatever the worker
//! count, because determinism lives inside each seed's self-contained
//! simulation. Failing seeds can be written to a `--corpus` file as
//! one-line repros, ddmin-minimized first with `--shrink-failures`.
//!
//! `--stats` appends the scheduler's handoff counters (steps, grants,
//! self-grants) plus allocation and coverage totals to the explore
//! summary.
//!
//! `--shape` selects a kill-shape family from the DESIGN.md §8.8
//! taxonomy (`pair`, `triple`, `root-chain`, `cascade`, `validate`,
//! `spaced`, `masked`); `--shape all` sweeps every shape in turn
//! (explore only).
//!
//! `fuzz` runs the coverage-guided campaign of DESIGN.md §8.11:
//! `--budget` schedule executions total, `--seed` naming the whole
//! campaign (seeding, parent selection, and mutations), `--corpus`
//! both loading a prior evolved corpus and receiving this campaign's.
//! It seeds across *every* kill shape itself, so `--shape` does not
//! apply.
//!
//! Exit status is non-zero when an oracle violation (explore/replay),
//! an unshrinkable failure (shrink), or a log divergence (determinism)
//! is found, so the commands compose directly into CI.

use std::path::PathBuf;
use std::process::ExitCode;

use dst::sweep::write_lines;
use dst::{
    check_all, fuzz, shrink, sweep, FuzzCfg, KillShape, Retention, ScenarioCfg, SeedRunner,
    SweepCfg,
};
use ftmpi::RankOutcome;

/// Largest world size the CLI accepts: every rank is a fiber with its
/// own stack mapping, so values beyond this are typos, not experiments.
const MAX_RANKS: u64 = 256;
/// Worker-thread cap; sweeps beyond per-core parallelism only add
/// contention.
const MAX_JOBS: u64 = 1024;
/// Retained-failure cap; the map is O(max-failures) memory.
const MAX_MAX_FAILURES: u64 = 1_000_000;
/// Ring-iteration cap: the hang budget grows with `--iters`, so values
/// beyond this would let a hung run spin for days before the logical
/// watchdog fires.
const MAX_ITERS: u64 = 100_000;

fn parse_u64(s: &str) -> Result<u64, String> {
    let r = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    r.map_err(|e| match e.kind() {
        std::num::IntErrorKind::PosOverflow => format!("out of range for u64: {s}"),
        _ => format!("not a number: {s}"),
    })
}

/// Parse `flag`'s value as a `u64` no larger than `cap`.
fn parse_capped(s: &str, flag: &str, cap: u64) -> Result<u64, String> {
    let v = parse_u64(s)?;
    if v > cap {
        return Err(format!("{flag} {v} exceeds the supported maximum {cap}\n{}", usage()));
    }
    Ok(v)
}

/// Parse `flag`'s value as a `usize` with an explicit upper bound.
///
/// The former `parse_u64(..)? as usize` silently truncated on 32-bit
/// targets (`--ranks 0x1_0000_0004` became 4); a checked conversion
/// plus a sanity cap turns both the wrap and the absurd-but-
/// representable value into usage errors.
fn parse_capped_usize(s: &str, flag: &str, cap: u64) -> Result<usize, String> {
    let v = parse_capped(s, flag, cap)?;
    usize::try_from(v)
        .map_err(|_| format!("{flag} {v} does not fit this platform's usize\n{}", usage()))
}

/// `--shape` argument: one concrete shape, or every shape in turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShapeArg {
    One(KillShape),
    All,
}

struct Args {
    cmd: String,
    seed: Option<u64>,
    seeds: u64,
    start: u64,
    buggy: bool,
    ranks: usize,
    iters: u64,
    show_log: bool,
    triage: bool,
    shape: ShapeArg,
    /// Whether `--shape` appeared on the command line (fuzz rejects
    /// it — the fuzzer seeds across every shape itself).
    shape_given: bool,
    /// `None`: the flag was not given (only fuzz has a default).
    budget: Option<u64>,
    /// `None`: auto (`max(12 × cores, 48) / ranks` workers). `Some(n)`:
    /// `n`, capped at that bound.
    jobs: Option<usize>,
    max_failures: usize,
    corpus: Option<PathBuf>,
    shrink_failures: bool,
    stats: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().ok_or_else(usage)?;
    let mut args = Args {
        cmd,
        seed: None,
        seeds: 100,
        start: 0,
        buggy: false,
        ranks: 4,
        iters: 3,
        show_log: false,
        triage: false,
        shape: ShapeArg::One(KillShape::Pair),
        shape_given: false,
        budget: None,
        jobs: None,
        max_failures: 100,
        corpus: None,
        shrink_failures: false,
        stats: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| -> Result<String, String> {
            argv.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--seed" => args.seed = Some(parse_u64(&value("--seed")?)?),
            "--seeds" => args.seeds = parse_u64(&value("--seeds")?)?,
            "--start" => args.start = parse_u64(&value("--start")?)?,
            "--ranks" => {
                args.ranks = parse_capped_usize(&value("--ranks")?, "--ranks", MAX_RANKS)?
            }
            "--iters" => args.iters = parse_capped(&value("--iters")?, "--iters", MAX_ITERS)?,
            "--budget" => args.budget = Some(parse_u64(&value("--budget")?)?),
            "--jobs" => {
                args.jobs = Some(parse_capped_usize(&value("--jobs")?, "--jobs", MAX_JOBS)?)
            }
            "--max-failures" => {
                args.max_failures = parse_capped_usize(
                    &value("--max-failures")?,
                    "--max-failures",
                    MAX_MAX_FAILURES,
                )?
            }
            "--shape" => {
                let v = value("--shape")?;
                args.shape_given = true;
                args.shape = if v == "all" {
                    ShapeArg::All
                } else {
                    ShapeArg::One(KillShape::from_name(&v).ok_or_else(|| {
                        format!(
                            "unknown kill shape: {v} (expected one of {}, or all)\n{}",
                            KillShape::ALL.map(|s| s.name()).join(", "),
                            usage()
                        )
                    })?)
                };
            }
            "--corpus" => args.corpus = Some(PathBuf::from(value("--corpus")?)),
            "--shrink-failures" => args.shrink_failures = true,
            "--stats" => args.stats = true,
            "--buggy" => args.buggy = true,
            "--log" => args.show_log = true,
            "--triage" => args.triage = true,
            other => return Err(format!("unknown flag: {other}\n{}", usage())),
        }
    }
    validate(&args)?;
    Ok(args)
}

/// Reject degenerate configurations at the CLI boundary: a clean usage
/// error beats a panic (`--ranks 0` used to divide by zero in kill
/// derivation) or a silent no-op (`--seeds 0`, `--iters 0`).
fn validate(args: &Args) -> Result<(), String> {
    match args.shape {
        ShapeArg::All => {
            if args.cmd != "explore" {
                // replay/shrink/determinism run ONE schedule; "all"
                // would leave the actual shape unspecified (and fuzz
                // seeds across every shape by construction).
                return Err(format!(
                    "--shape all only applies to explore; \
                     pick one shape for {}\n{}",
                    args.cmd,
                    usage()
                ));
            }
            if args.buggy {
                return Err(format!(
                    "--buggy only applies to the pair shape \
                     (the injected dedup bug predates the taxonomy)\n{}",
                    usage()
                ));
            }
            cfg_of(args, KillShape::Pair).map_err(|e| format!("{e}\n{}", usage()))?;
        }
        ShapeArg::One(shape) => {
            cfg_of(args, shape).map_err(|e| format!("{e}\n{}", usage()))?;
        }
    }
    if args.show_log && args.cmd != "replay" {
        // Every subcommand used to swallow --log silently; only replay
        // has a decision log in hand to print.
        return Err(format!("--log only applies to replay\n{}", usage()));
    }
    if args.budget.is_some() && args.cmd != "fuzz" {
        // Explore's size is --seeds; a budget here would imply the
        // sweep self-truncates.
        return Err(format!("--budget only applies to fuzz\n{}", usage()));
    }
    if args.cmd == "explore" {
        if args.seeds == 0 {
            return Err(format!("--seeds must be at least 1\n{}", usage()));
        }
        args.start.checked_add(args.seeds).ok_or_else(|| {
            format!(
                "--start {:#x} + --seeds {} overflows the u64 seed space\n{}",
                args.start,
                args.seeds,
                usage()
            )
        })?;
        if args.jobs == Some(0) {
            return Err(format!("--jobs must be at least 1\n{}", usage()));
        }
        if args.max_failures == 0 {
            return Err(format!("--max-failures must be at least 1\n{}", usage()));
        }
    } else if args.cmd == "fuzz" {
        if args.shape_given {
            // The seeding phase derives through all seven shapes and
            // mutation composes across them; a single shape would be
            // silently ignored.
            return Err(format!(
                "--shape does not apply to fuzz (it seeds across every shape)\n{}",
                usage()
            ));
        }
        if args.buggy {
            return Err(format!(
                "--buggy does not apply to fuzz: the known dedup defect \
                 would dominate the corpus; fuzz targets the hardened ring\n{}",
                usage()
            ));
        }
        if args.budget == Some(0) {
            return Err(format!("--budget must be at least 1\n{}", usage()));
        }
        if args.max_failures == 0 {
            return Err(format!("--max-failures must be at least 1\n{}", usage()));
        }
        for (on, flag) in
            [(args.jobs.is_some(), "--jobs"), (args.shrink_failures, "--shrink-failures")]
        {
            if on {
                // The campaign is a single sequential chain — each
                // mutation depends on every prior run's coverage — so
                // the sweep engine's fan-out knobs have no meaning.
                return Err(format!("{flag} only applies to explore\n{}", usage()));
            }
        }
    } else if args.stats {
        // Only the sweep and fuzz engines aggregate run stats.
        return Err(format!("--stats only applies to explore and fuzz\n{}", usage()));
    }
    if args.triage && args.cmd != "replay" {
        // Explore prints triage on its failure lines unconditionally;
        // the flag selects the full graph rendering, which only replay
        // has an observation in hand for.
        return Err(format!("--triage only applies to replay\n{}", usage()));
    }
    Ok(())
}

fn usage() -> String {
    "usage: dst <explore|fuzz|replay|shrink|determinism> \
     [--seed S] [--seeds N] [--start S] [--budget N] [--jobs N] \
     [--corpus PATH] \
     [--shrink-failures] [--max-failures N] [--stats] \
     [--shape <pair|triple|root-chain|cascade|validate|spaced|masked|all>] \
     [--buggy] [--ranks N] [--iters N] [--log] [--triage]"
        .to_string()
}

/// Scenario construction funnels through [`ScenarioCfg::builder`], so
/// the CLI inherits the library's single validation site
/// (`ScenarioCfg::validate`) instead of re-checking flag by flag.
fn cfg_of(args: &Args, shape: KillShape) -> Result<ScenarioCfg, String> {
    ScenarioCfg::builder()
        .ranks(args.ranks)
        .max_iter(args.iters)
        .buggy_dedup(args.buggy)
        .shape(shape)
        .build()
}

fn need_seed(args: &Args) -> Result<u64, String> {
    args.seed.ok_or_else(|| format!("--seed is required\n{}", usage()))
}

/// The single concrete shape for replay/shrink/determinism. `validate`
/// already rejected `--shape all` for these commands.
fn one_shape(args: &Args) -> KillShape {
    match args.shape {
        ShapeArg::One(s) => s,
        ShapeArg::All => unreachable!("--shape all rejected by validate for {}", args.cmd),
    }
}

fn cmd_explore(args: &Args) -> Result<ExitCode, String> {
    let shapes: Vec<KillShape> = match args.shape {
        ShapeArg::All => KillShape::ALL.to_vec(),
        ShapeArg::One(s) => vec![s],
    };
    let sweep_cfg = SweepCfg {
        start: args.start,
        count: args.seeds,
        jobs: args.jobs.unwrap_or(0),
        max_failures: args.max_failures,
        shrink_failures: args.shrink_failures,
    };

    let mut total_failing = 0u64;
    let mut total_dropped = 0u64;
    let mut corpus: Vec<String> = Vec::new();
    let mut corpus_repros = 0usize;
    for &shape in &shapes {
        let cfg = cfg_of(args, shape)?;
        let report = sweep(&sweep_cfg, &cfg).map_err(|e| e.to_string())?;

        for f in report.failures.values() {
            println!("seed {:#x} [shape {shape}]: FAIL", f.seed);
            println!("  schedule {}", f.schedule(&cfg));
            for v in &f.violations {
                println!("  violation: {v}");
            }
            if !f.triage.is_empty() {
                println!("  triage: {}", f.triage);
            }
            if let Some(s) = &f.shrunk {
                println!("  shrunk in {} runs", s.runs);
            }
        }
        if report.dropped_failures > 0 {
            println!(
                "... and {} more failing seed(s) beyond --max-failures {}",
                report.dropped_failures,
                args.max_failures
            );
        }
        println!(
            "explored {} seeds (shape {}, {} mode, {} worker{}) in {:.2?}: \
             {} green, {} failing, {} hung — {:.0} seeds/sec",
            report.count,
            shape,
            if cfg.buggy_dedup { "buggy" } else { "hardened" },
            report.jobs,
            if report.jobs == 1 { "" } else { "s" },
            report.elapsed,
            report.green,
            report.failing,
            report.hung,
            report.throughput()
        );
        if args.stats {
            print_stats(&report.stats, report.count, &format!("[shape {shape}]"));
        }

        total_failing += report.failing;
        total_dropped += report.dropped_failures;
        if args.corpus.is_some() {
            corpus_repros += report.failures.len();
            corpus.extend(report.corpus_lines(&cfg));
        }
    }

    if let Some(path) = &args.corpus {
        // No failures, no file: CI uploads the corpus exactly when it
        // exists. Past the retention cap, the lines end in a counted
        // `#` marker and the summary repeats the count.
        if corpus_repros == 0 {
            println!("no failures; corpus {} not written", path.display());
        } else {
            write_lines(path, &corpus)
                .map_err(|e| format!("cannot write corpus {}: {e}", path.display()))?;
            print!("wrote {corpus_repros} repro line(s) to {}", path.display());
            if total_dropped > 0 {
                print!(" (+{total_dropped} beyond the retention cap)");
            }
            println!();
        }
    }

    Ok(if total_failing == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The one `--stats` rendering for both explore and fuzz: every counter
/// family in [`dst::RunStats`], normalized per schedule where that is
/// meaningful.
fn print_stats(stats: &dst::RunStats, runs: u64, tag: &str) {
    let h = &stats.handoff;
    println!(
        "stats {tag}: {} steps, {} grants ({} self), {} park-safety timeouts",
        h.steps, h.grants, h.self_grants, h.park_safety_timeouts
    );
    let a = &stats.alloc;
    println!(
        "alloc {tag}: {:.1} allocs/schedule \
         ({} allocs, {} frees, {:.1} KiB alloc'd/schedule)",
        a.allocs as f64 / runs as f64,
        a.allocs,
        a.deallocs,
        a.bytes_alloc as f64 / runs as f64 / 1024.0
    );
    let c = &stats.coverage;
    println!(
        "coverage {tag}: {} distinct edges, signature {:#018x}",
        c.edges, c.signature
    );
}

fn cmd_fuzz(args: &Args) -> Result<ExitCode, String> {
    // The shape here only names the scenario; the campaign's seeding
    // phase walks all seven shapes itself (validate rejected --shape).
    let scenario = cfg_of(args, KillShape::Pair)?;
    let fuzz_cfg = FuzzCfg {
        seed: args.seed.unwrap_or(0),
        budget: args.budget.unwrap_or(1000),
        max_failures: args.max_failures,
        corpus: args.corpus.clone(),
    };
    let report = fuzz(&fuzz_cfg, &scenario).map_err(|e| e.to_string())?;

    for f in &report.failures {
        println!("FAIL {}", f.line(&fuzz_cfg, &scenario));
    }
    if report.dropped_failures > 0 {
        println!(
            "... and {} more failing schedule(s) beyond --max-failures {}",
            report.dropped_failures, args.max_failures
        );
    }
    println!(
        "fuzzed {} schedules (seed {:#x}: {} seeded, {} novel, corpus {}) \
         in {:.2?}: {} green, {} failing, {} hung — \
         {} distinct coverage edges, signature {:#018x}",
        report.executed,
        report.seed,
        report.seeded,
        report.novel,
        report.corpus.len(),
        report.elapsed,
        report.green,
        report.failing,
        report.hung,
        report.edges(),
        report.signature()
    );
    if args.stats {
        print_stats(&report.stats, report.executed, "[fuzz]");
    }
    if let Some(path) = &args.corpus {
        // Written even when every run was green: the evolved corpus is
        // the campaign's accumulated knowledge.
        write_lines(path, &report.corpus_lines())
            .map_err(|e| format!("cannot write corpus {}: {e}", path.display()))?;
        println!("evolved corpus: {} schedule(s) at {}", report.corpus.len(), path.display());
    }

    Ok(if report.failing == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn cmd_replay(args: &Args) -> Result<ExitCode, String> {
    let seed = need_seed(args)?;
    let cfg = cfg_of(args, one_shape(args))?;
    let obs = SeedRunner::new(cfg.ranks).run_seed(seed, &cfg, Retention::Full);
    println!(
        "seed {seed:#x} ({} ranks, {} iters, shape {})",
        cfg.ranks, cfg.max_iter, cfg.shape
    );
    println!("schedule {}", obs.schedule);
    println!("delays at drain calls: {:?}", obs.delay_calls);
    println!("hung: {}", obs.hung);
    for (rank, o) in obs.outcomes.iter().enumerate() {
        match o {
            RankOutcome::Ok(_) => println!("rank {rank}: Ok"),
            other => println!("rank {rank}: {other:?}"),
        }
    }
    let violations = check_all(&obs);
    for v in &violations {
        println!("violation: {v}");
    }
    if args.triage {
        print!("{}", dst::triage(&obs));
    }
    if args.show_log {
        println!("--- decision log ---");
        print!("{}", obs.log);
    }
    if violations.is_empty() {
        println!("all applicable oracles green");
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_shrink(args: &Args) -> Result<ExitCode, String> {
    let seed = need_seed(args)?;
    let cfg = cfg_of(args, one_shape(args))?;
    match shrink(seed, &cfg, None) {
        Some(s) => {
            println!("seed {seed:#x}: shrunk in {} runs", s.runs);
            println!("  schedule {}", s.schedule);
            for v in &s.violations {
                println!("  still violates: {v}");
            }
            Ok(ExitCode::SUCCESS)
        }
        None => {
            println!("seed {seed:#x}: schedule does not fail (nothing to shrink)");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_determinism(args: &Args) -> Result<ExitCode, String> {
    let seed = need_seed(args)?;
    let cfg = cfg_of(args, one_shape(args))?;
    // The second run reuses the first one's runner, so this also checks
    // that the executor's reset leaves nothing behind.
    let mut runner = SeedRunner::new(cfg.ranks);
    let a = runner.run_seed(seed, &cfg, Retention::Full);
    let b = runner.run_seed(seed, &cfg, Retention::Full);
    if a.log == b.log {
        println!(
            "seed {seed:#x}: two runs, byte-identical decision log ({} bytes)",
            a.log.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!("seed {seed:#x}: DIVERGED");
        println!("--- run A ---\n{}", a.log);
        println!("--- run B ---\n{}", b.log);
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.cmd.as_str() {
        "explore" => cmd_explore(&args),
        "fuzz" => cmd_fuzz(&args),
        "replay" => cmd_replay(&args),
        "shrink" => cmd_shrink(&args),
        "determinism" => cmd_determinism(&args),
        other => Err(format!("unknown command: {other}\n{}", usage())),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
