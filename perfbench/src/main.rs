//! `samm-perfbench`: one benchmark run of one workload.
//!
//! ```text
//! samm-perfbench --workload engine-corpus|serve-warm|serve-cold-batch
//!                --seed N --seconds S --trace 0|1 [--server PATH] [--inject-fault]
//! ```
//!
//! Prints notes, then as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 when any
//! answer was wrong, 2 on a usage or start-up error. `--server` names
//! the `samm-serve` binary the serve workloads start; `--inject-fault`
//! feeds the checker one deliberately wrong answer (for the self-test).

mod engine;
mod layers;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::{ratio, Report};

pub const WORKLOADS: [&str; 3] = ["engine-corpus", "serve-warm", "serve-cold-batch"];

#[derive(Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server: Option<PathBuf>,
    pub inject_fault: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server: None,
        inject_fault: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--server" => opts.server = Some(PathBuf::from(value()?)),
            "--inject-fault" => opts.inject_fault = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            opts.workload
        ));
    }
    if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("samm-perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let server = || {
        opts.server
            .clone()
            .ok_or_else(|| "serve workloads need --server PATH".to_owned())
    };
    let outcome = match opts.workload.as_str() {
        "engine-corpus" => {
            engine::run(&opts, &mut report);
            Ok(())
        }
        "serve-warm" => server().and_then(|bin| serve::run_warm(&opts, &bin, &mut report)),
        _ => server().and_then(|bin| serve::run_cold(&opts, &bin, &mut report)),
    };
    if let Err(err) = outcome {
        eprintln!("samm-perfbench: {err}");
        return ExitCode::from(2);
    }
    report.note(format!(
        "failed_share: {} (failed {} of {} attempted)",
        ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    ));
    for (name, value, unit) in &report.metrics {
        report.notes.push(format!("{name}: {value} {unit}"));
    }
    for note in &report.notes {
        println!("# {note}");
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
