//! CLI-level tests for the `dst` binary: flag validation (checked
//! numeric casts, per-subcommand flag gating, shape selection) and the
//! clean-run triage output. Each test invokes the compiled binary the
//! way CI and humans do.

use std::process::{Command, Output};

use dst::fuzz::FuzzFailure;
use dst::{shrink, FuzzCfg, KillShape, Retention, ScenarioCfg, Schedule, SeedRunner};

fn dst(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dst"))
        .args(args)
        .output()
        .expect("dst binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// `--ranks`, `--jobs`, `--max-failures` used to truncate through
/// unchecked `as usize` casts; values beyond the sane caps must be
/// usage errors, not wrapped or truncated configurations. `--iters` is
/// capped too, because the hang budget grows with it.
#[test]
fn absurd_numeric_flags_are_usage_errors() {
    for args in [
        ["explore", "--seeds", "1", "--ranks", "257"],
        ["explore", "--seeds", "1", "--ranks", "0x100000001"],
        ["explore", "--seeds", "1", "--jobs", "1025"],
        ["explore", "--seeds", "1", "--max-failures", "1000001"],
        ["explore", "--seeds", "1", "--ranks", "18446744073709551615"],
        ["explore", "--seeds", "1", "--iters", "100001"],
    ] {
        let out = dst(&args);
        assert!(!out.status.success(), "{args:?} was accepted");
        let err = stderr(&out);
        assert!(
            err.contains("exceeds the supported maximum") && err.contains("usage:"),
            "{args:?} produced unexpected stderr: {err}"
        );
    }
    // The caps themselves are accepted (jobs/max-failures don't need a
    // run to validate; ranks=256 would be slow, so validate via replay
    // parse path with a tiny world instead).
    let out = dst(&["explore", "--seeds", "1", "--jobs", "4", "--max-failures", "10"]);
    assert!(out.status.success(), "in-range flags rejected: {}", stderr(&out));
    // A number past u64 is out of range, not "not a number".
    let out = dst(&["explore", "--seeds", "99999999999999999999"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("out of range for u64: 99999999999999999999"),
        "overflow produced unexpected stderr: {}",
        stderr(&out)
    );
}

/// `--log` is only meaningful for `replay`; every other subcommand
/// used to swallow it silently.
#[test]
fn log_flag_is_rejected_outside_replay() {
    for cmd in ["explore", "shrink", "determinism"] {
        let out = dst(&[cmd, "--seed", "3", "--seeds", "1", "--log"]);
        assert!(!out.status.success(), "{cmd} --log was accepted");
        let err = stderr(&out);
        assert!(
            err.contains("--log only applies to replay"),
            "{cmd} --log produced unexpected stderr: {err}"
        );
    }
    let out = dst(&["replay", "--seed", "3", "--log"]);
    assert!(out.status.success(), "replay --log failed: {}", stderr(&out));
    assert!(stdout(&out).contains("--- decision log ---"));
}

/// A green `replay --triage` prints an explicit no-pending-operations
/// line instead of empty output.
#[test]
fn triage_on_green_run_is_explicit() {
    // Seed 3 replays green at the default 4 ranks (pinned corpus).
    let out = dst(&["replay", "--seed", "3", "--triage"]);
    assert!(out.status.success(), "green replay failed: {}", stderr(&out));
    assert!(
        stdout(&out).contains("no pending operations"),
        "green triage output is not explicit: {}",
        stdout(&out)
    );
}

/// `--shape` accepts every taxonomy name on single-schedule commands,
/// rejects unknown names, and gates `all` to explore.
#[test]
fn shape_flag_validation() {
    let out = dst(&["replay", "--seed", "3", "--shape", "triple"]);
    assert!(out.status.success(), "replay --shape triple failed: {}", stderr(&out));
    assert!(stdout(&out).contains("shape triple"));

    let out = dst(&["replay", "--seed", "3", "--shape", "bogus"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown kill shape: bogus"));

    let out = dst(&["replay", "--seed", "3", "--shape", "all"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--shape all only applies to explore"));

    let out = dst(&["explore", "--seeds", "1", "--shape", "all", "--buggy"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--buggy only applies to the pair shape"));
}

/// `explore --shape all` sweeps every shape and prints one summary
/// line per shape.
#[test]
fn explore_all_shapes_prints_per_shape_summaries() {
    let out = dst(&["explore", "--seeds", "3", "--shape", "all"]);
    assert!(out.status.success(), "explore --shape all failed: {}", stderr(&out));
    let text = stdout(&out);
    for shape in ["pair", "triple", "root-chain", "cascade", "validate", "spaced", "masked"] {
        assert!(
            text.contains(&format!("(shape {shape},")),
            "missing summary for shape {shape}: {text}"
        );
    }
}

/// `fuzz` gates its flags like every other subcommand: no shape (it
/// seeds across all of them), no buggy mode, no sweep fan-out knobs,
/// and `--budget` belongs to fuzz alone.
#[test]
fn fuzz_flag_gating() {
    for (args, needle) in [
        (vec!["fuzz", "--shape", "pair"], "--shape does not apply to fuzz"),
        (vec!["fuzz", "--buggy"], "--buggy does not apply to fuzz"),
        (vec!["fuzz", "--budget", "0"], "--budget must be at least 1"),
        (vec!["fuzz", "--jobs", "2"], "--jobs only applies to explore"),
        (vec!["fuzz", "--shrink-failures"], "--shrink-failures only applies to explore"),
        (vec!["explore", "--seeds", "1", "--budget", "10"], "--budget only applies to fuzz"),
        (vec!["replay", "--seed", "3", "--stats"], "--stats only applies to explore and fuzz"),
    ] {
        let out = dst(&args);
        assert!(!out.status.success(), "{args:?} was accepted");
        let err = stderr(&out);
        assert!(err.contains(needle), "{args:?} produced unexpected stderr: {err}");
    }
}

/// A malformed corpus is a clean error citing `path:line` (exit 1),
/// never a panic (exit 101) — occurrence 0 used to reach the 1-based
/// kill trigger and panic the campaign — and never a silent skip: a
/// line that is not a schedule line is an error too. The file is left
/// as it was.
#[test]
fn fuzz_rejects_a_malformed_corpus_without_panicking() {
    let tmp = std::env::temp_dir();
    for (i, line) in [
        "schedule seed=0x1 kills=[1:Tick:0]",
        "schedule seed=0x1 kills=[1:Tick",
        "schedule seed=0x1 kills=[7:Tick:2]",
        "seed=0x2 oracles=no-duplicate kills=[kill 3 at AfterSend#1]",
    ]
    .iter()
    .enumerate()
    {
        let path = tmp.join(format!("dst_cli_malformed_{}_{i}.corpus", std::process::id()));
        std::fs::write(&path, format!("{line}\n")).unwrap();
        let out = dst(&["fuzz", "--budget", "10", "--corpus", path.to_str().unwrap()]);
        let after = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(out.status.code(), Some(1), "{line}: {}", stderr(&out));
        assert_eq!(after, format!("{line}\n"), "the rejected corpus was overwritten");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("{}:1: ", path.display())),
            "{line}: error does not cite path:line: {err}"
        );
    }
}

/// A small fuzz campaign on the hardened ring: exit 0, a summary line
/// with coverage numbers, and `--stats` adds the full RunStats surface
/// (handoff, alloc, coverage) — the same three families explore
/// reports.
#[test]
fn fuzz_runs_green_and_reports_coverage() {
    let out = dst(&["fuzz", "--budget", "80", "--seed", "7", "--stats"]);
    assert!(out.status.success(), "fuzz failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("fuzzed 80 schedules"), "summary missing: {text}");
    assert!(text.contains("distinct coverage edges"), "coverage missing: {text}");
    assert!(text.contains("stats [fuzz]:"), "handoff stats missing: {text}");
    assert!(text.contains("alloc [fuzz]:"), "alloc stats missing: {text}");
    assert!(text.contains("coverage [fuzz]:"), "coverage stats missing: {text}");
}

/// Two CLI invocations with the same master seed print identical
/// summaries apart from wall-clock timings — the user-visible face of
/// the determinism contract.
#[test]
fn fuzz_cli_is_deterministic_across_invocations() {
    let tmp = std::env::temp_dir();
    let c1 = tmp.join("dst_fuzz_cli_det_1.corpus");
    let c2 = tmp.join("dst_fuzz_cli_det_2.corpus");
    let run = |path: &std::path::Path| {
        let out = dst(&["fuzz", "--budget", "60", "--seed", "11", "--corpus",
                        path.to_str().unwrap()]);
        assert!(out.status.success(), "fuzz failed: {}", stderr(&out));
        std::fs::read_to_string(path).expect("corpus written")
    };
    let a = run(&c1);
    let b = run(&c2);
    let _ = std::fs::remove_file(&c1);
    let _ = std::fs::remove_file(&c2);
    assert_eq!(a, b, "evolved corpus files diverged between identical invocations");
    assert!(a.starts_with("# dst fuzz corpus v1"), "corpus header missing: {a}");
}

/// An explore sweep's `--corpus` summary: clean runs say so without
/// touching the filesystem; failing runs report the line count.
#[test]
fn explore_corpus_write_summary() {
    let tmp = std::env::temp_dir();
    let clean = tmp.join("dst_cli_corpus_clean.txt");
    let out = dst(&["explore", "--seeds", "2", "--corpus", clean.to_str().unwrap()]);
    assert!(out.status.success(), "clean explore failed: {}", stderr(&out));
    assert!(stdout(&out).contains("not written"), "missing no-write summary");
    assert!(!clean.exists(), "clean sweep created a corpus file");

    let failing = tmp.join("dst_cli_corpus_failing.txt");
    let out = dst(&["explore", "--seeds", "1", "--start", "0x2d", "--buggy",
                    "--corpus", failing.to_str().unwrap()]);
    assert!(!out.status.success(), "buggy seed 0x2d no longer fails");
    assert!(
        stdout(&out).contains("wrote 1 repro line(s)"),
        "missing write summary: {}",
        stdout(&out)
    );
    assert!(failing.exists());
    let _ = std::fs::remove_file(&failing);
}

/// An explore corpus is a fuzz corpus: `dst fuzz` loads every line a
/// failing explore sweep wrote (shrunk schedules included) and replays
/// each before seeding. The hardened ring has no dedup defect, so the
/// replays are green.
#[test]
fn fuzz_loads_every_line_of_an_explore_corpus() {
    let path = std::env::temp_dir()
        .join(format!("dst_cli_explore_to_fuzz_{}.corpus", std::process::id()));
    let corpus = path.to_str().unwrap();
    let out =
        dst(&["explore", "--seeds", "40", "--buggy", "--shrink-failures", "--corpus", corpus]);
    assert_eq!(out.status.code(), Some(1), "the buggy sweep found nothing: {}", stdout(&out));
    let n = std::fs::read_to_string(&path).unwrap().lines().count();
    assert!(n > 0);
    let out = dst(&["fuzz", "--corpus", corpus, "--budget", &n.to_string()]);
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "fuzz failed: {}{}", stdout(&out), stderr(&out));
    let text = stdout(&out);
    assert!(text.contains(&format!("fuzzed {n} schedules (seed 0x0: 0 seeded,")), "{text}");
}

/// The schedule lines `replay`, `shrink` and `explore` print parse back
/// to the schedule that ran.
#[test]
fn printed_schedule_lines_parse_back() {
    let schedule_line = |out: &Output| {
        let text = stdout(out);
        let line = text.lines().find(|l| l.trim_start().starts_with("schedule "));
        Schedule::parse(line.expect("a schedule line"), 4).unwrap()
    };
    let buggy = ScenarioCfg { buggy_dedup: true, ..ScenarioCfg::default() };
    let ran = SeedRunner::new(4).run_seed(0x2f, &buggy, Retention::Full).schedule;
    assert_eq!(schedule_line(&dst(&["replay", "--seed", "0x2f", "--buggy"])), ran);

    let minimal = shrink(0x2f, &buggy, None).unwrap().observation.schedule;
    assert_eq!(schedule_line(&dst(&["shrink", "--seed", "0x2f", "--buggy"])), minimal);
    let explore =
        dst(&["explore", "--seeds", "1", "--start", "0x2f", "--buggy", "--shrink-failures"]);
    assert_eq!(schedule_line(&explore), minimal);

    let masked = ScenarioCfg { shape: KillShape::Masked, ..ScenarioCfg::default() };
    let ran = SeedRunner::new(4).run_seed(3, &masked, Retention::Full).schedule;
    assert!(ran.delay_mask.is_some());
    assert_eq!(schedule_line(&dst(&["replay", "--seed", "3", "--shape", "masked"])), ran);
}

/// A fuzz failure line's `repro=` command, run on a file holding that
/// line, replays exactly that one schedule: one run, nothing seeded.
#[test]
fn fuzz_failure_repro_runs_exactly_that_schedule() {
    let scenario = ScenarioCfg::default();
    let fail = FuzzFailure {
        schedule: Schedule::from_seed(3, &ScenarioCfg { shape: KillShape::Masked, ..scenario }),
        oracles: vec!["ring-completion".into()],
        violations: Vec::new(),
        hung: false,
        triage: String::new(),
    };
    let line = fail.line(&FuzzCfg { seed: 0x77, ..FuzzCfg::default() }, &scenario);
    assert!(line.contains(" campaign=0x77 "), "{line}");
    let path =
        std::env::temp_dir().join(format!("dst_cli_fuzz_repro_{}.corpus", std::process::id()));
    std::fs::write(&path, format!("{line}\n")).unwrap();
    let repro = line.split("repro=\"").nth(1).unwrap().trim_end_matches('"');
    let repro = repro.replace("<file holding this line>", path.to_str().unwrap());
    let argv: Vec<&str> = repro.split_whitespace().collect();
    assert_eq!(argv[..2], ["dst", "fuzz"]);
    let out = dst(&argv[1..]);
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "{}{}", stdout(&out), stderr(&out));
    assert!(stdout(&out).contains("fuzzed 1 schedules (seed 0x0: 0 seeded,"), "{}", stdout(&out));
}
