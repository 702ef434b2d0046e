//! One benchmark command over the Hazy workspace's client paths.
//!
//! ```text
//! perfbench --workload <sql_feedback|sql_durable_churn|tcp_serve>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process (peak RSS and the
//! process-global metrics registry are per process); `tcp_serve` pins
//! itself to one CPU so its threads do not wait on wake-ups across CPUs,
//! and keeps that CPU from halting with an idle-class filler thread.
//! An untraced run
//! repeats whole rounds — set-up, a fixed seeded operation stream, oracle
//! checks — until `--seconds` have passed (at least three rounds), and
//! prints the medians of the per-round end-to-end figures. A traced run
//! replays the stream through each layer's public entry points and prints
//! the per-layer figures. The last line of standard output is the JSON
//! result; reference figures go to standard error.

mod churn;
mod feedback;
mod measure;
mod oracle;
mod report;
mod serve;
mod sqlpath;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{LayerReport, RoundOut};

/// Rounds per untraced run, at the least: `setup_s` is a median over them.
const MIN_ROUNDS: usize = 3;

const WORKLOADS: &[&str] = &["sql_feedback", "sql_durable_churn", "tcp_serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}; known: {WORKLOADS:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn one_round(workload: &str, seed: u64) -> RoundOut {
    match workload {
        "sql_feedback" => feedback::round(seed),
        "sql_durable_churn" => churn::round(seed),
        _ => serve::round(seed),
    }
}

fn one_traced(workload: &str, seed: u64) -> (LayerReport, u64, u64) {
    match workload {
        "sql_feedback" => sqlpath::traced(&feedback::inputs(seed)),
        "sql_durable_churn" => sqlpath::traced(&churn::inputs(seed)),
        _ => serve::traced(seed),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // before the serving stack starts a thread, so all of them inherit it
    let _filler = (args.workload == "tcp_serve").then(|| {
        measure::pin_to_one_cpu();
        measure::IdleFiller::start()
    });
    let line = if args.trace {
        let (rep, attempted, failed) = one_traced(&args.workload, args.seed);
        let values: BTreeMap<&str, f64> = rep.values().collect();
        report::json_line(failed == 0, attempted, failed, report::PER_LAYER, &values)
    } else {
        let start = Instant::now();
        let budget = Duration::from_secs(args.seconds);
        let mut rounds = Vec::new();
        while rounds.len() < MIN_ROUNDS || start.elapsed() < budget {
            rounds.push(one_round(&args.workload, args.seed));
        }
        eprintln!("{}", report::reference(&args.workload, &rounds));
        let attempted = rounds.iter().map(|r| r.attempted).sum();
        let failed = rounds.iter().map(|r| r.failed).sum();
        let values = report::end_to_end(&rounds);
        report::json_line(failed == 0, attempted, failed, report::END_TO_END, &values)
    };
    println!("{line}");
    ExitCode::SUCCESS
}
