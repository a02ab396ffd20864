//! `perfbench --workload <sweep-r8|fuzz-r4|ring-r8> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints a stamped, human-readable metric table and,
//! as the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See README.md.

use std::process::ExitCode;
use std::time::Duration;

use perfbench::{run, Metric, Opts, Size, Workload};

/// Set-up repetitions whose median is `setup_s`.
const SETUPS: usize = 101;
/// Failure lines printed before the result.
const SHOWN_FAILURES: usize = 8;

const USAGE: &str =
    "usage: perfbench --workload <sweep-r8|fuzz-r4|ring-r8> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(Workload, Opts), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let jobs = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    Ok((
        workload.ok_or("--workload is required")?,
        Opts {
            seed: seed.ok_or("--seed is required")?,
            measure: Duration::from_secs(seconds.ok_or("--seconds is required")?),
            trace: trace.ok_or("--trace is required")?,
            jobs,
            size: Size::FULL,
            setups: SETUPS,
        },
    ))
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Rates from a debug build say nothing about the program; refuse to
    // record them.
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to record from a debug build; build with --release");
        return ExitCode::from(2);
    }
    let stamp = format!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} arch={} profile=release",
        workload.name(),
        opts.seed,
        opts.measure.as_secs(),
        u8::from(opts.trace),
        opts.jobs,
        std::env::consts::ARCH,
    );
    eprintln!("{stamp}");

    let out = run(workload, &opts);

    for f in out.failures.iter().take(SHOWN_FAILURES) {
        eprintln!("FAILED {f}");
    }
    if out.failures.len() > SHOWN_FAILURES {
        eprintln!("FAILED ... {} more", out.failures.len() - SHOWN_FAILURES);
    }
    for p in &out.problems {
        eprintln!("CHECK {p}");
    }
    if let Some(m) = out.metrics.iter().chain(&out.extra).find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not a number", m.name);
        return ExitCode::from(1);
    }
    println!("{stamp}");
    for m in out.metrics.iter().chain(&out.extra) {
        println!("  {:<26} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", json(out.correct(), out.attempted, out.failed, &out.metrics));
    ExitCode::SUCCESS
}
