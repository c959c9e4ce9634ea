//! `samm-bench-report` — machine-readable enumeration benchmarks.
//!
//! ```text
//! samm-bench-report [--out PATH] [--iters N] [--tests A,B,...]
//! ```
//!
//! Times the production engine ([`enumerate`], prune-before-expand)
//! against the serial oracle ([`enumerate_serial`]) over a fixed set of
//! catalog tests — every model each test's verdicts mention, the two
//! engines interleaved run by run in this one process — and writes one
//! JSON report, `BENCH_enum.json` by default. Each (test, engine) row
//! carries wall microseconds (min and mean over `--iters` runs, min
//! being the noise-resistant number CI should trend) and the verdict
//! pass flag; each production row also carries `speedup_vs_serial`, the
//! ratio of the two minima. A perf regression and a correctness
//! regression both surface as a diff in one artifact. The serving-path
//! counterpart is `samm-load --bench-json` (BENCH_serve.json); together
//! they cover the two performance planes EXPERIMENTS.md tracks.
//!
//! Exits non-zero when a test name is unknown, an enumeration fails,
//! or any verdict row mismatches — a bench report over a broken build
//! is worse than none.

use std::process::ExitCode;
use std::time::Instant;

use samm_core::enumerate::{enumerate, enumerate_serial, EnumConfig, EnumResult};
use samm_core::error::EnumError;
use samm_core::instr::Program;
use samm_core::policy::Policy;
use samm_litmus::catalog::{self, CatalogEntry};
use samm_litmus::expect::run_entry;
use samm_serve::json::Json;

/// Fast classics plus one paper figure: small enough that two
/// engines × `--iters` runs stay under a second, varied enough that
/// the engines' search shapes differ.
const DEFAULT_TESTS: [&str; 5] = ["SB", "MP", "LB", "IRIW", "fig4"];

fn usage() -> ! {
    eprintln!("usage: samm-bench-report [--out PATH] [--iters N] [--tests A,B,...]");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut out = "BENCH_enum.json".to_owned();
    let mut iters: usize = 3;
    let mut tests: Vec<String> = DEFAULT_TESTS.iter().map(|t| (*t).to_owned()).collect();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("samm-bench-report: {flag} needs an argument");
                usage();
            })
        };
        match arg.as_str() {
            "--out" => out = take("--out"),
            "--iters" => {
                iters = take("--iters").parse().unwrap_or_else(|_| usage());
                if iters == 0 {
                    eprintln!("samm-bench-report: --iters must be at least 1");
                    usage();
                }
            }
            "--tests" => {
                tests = take("--tests")
                    .split(',')
                    .map(|t| t.trim().to_owned())
                    .filter(|t| !t.is_empty())
                    .collect();
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("samm-bench-report: unknown argument '{other}'");
                usage();
            }
        }
    }

    let all = catalog::all();
    let mut entries: Vec<&CatalogEntry> = Vec::new();
    for name in &tests {
        match all.iter().find(|e| &e.test.name == name) {
            Some(entry) => entries.push(entry),
            None => {
                eprintln!("samm-bench-report: unknown test '{name}'");
                return ExitCode::FAILURE;
            }
        }
    }

    type Engine = fn(&Program, &Policy, &EnumConfig) -> Result<EnumResult, EnumError>;
    let engines: [(&str, Engine); 2] = [("serial", enumerate_serial), ("pruned", enumerate)];

    let config = EnumConfig::default();
    let mut rows = Vec::new();
    println!(
        "{:<12} {:<10} {:>12} {:>12} {:>6} {:>9}",
        "test", "engine", "min us", "mean us", "pass", "speedup"
    );
    for entry in &entries {
        let pass = match run_entry(entry, &config) {
            Ok(report) => report.all_pass(),
            Err(e) => {
                eprintln!("samm-bench-report: {} failed: {e}", entry.test.name);
                return ExitCode::FAILURE;
            }
        };
        if !pass {
            eprintln!("samm-bench-report: verdict mismatch in {}", entry.test.name);
            return ExitCode::FAILURE;
        }
        let policies: Vec<Policy> = entry.models().iter().map(|m| m.policy()).collect();
        // Per engine: (min, sum) wall microseconds over the whole entry.
        let mut times = [(f64::INFINITY, 0.0f64); 2];
        for _ in 0..iters {
            for (slot, (name, engine)) in engines.iter().enumerate() {
                let started = Instant::now();
                for policy in &policies {
                    if let Err(e) = engine(&entry.test.program, policy, &config) {
                        eprintln!("samm-bench-report: {}/{name} failed: {e}", entry.test.name);
                        return ExitCode::FAILURE;
                    }
                }
                let us = started.elapsed().as_secs_f64() * 1e6;
                times[slot].0 = times[slot].0.min(us);
                times[slot].1 += us;
            }
        }
        let speedup = times[0].0 / times[1].0;
        for (slot, (name, _)) in engines.iter().enumerate() {
            let (min_us, sum_us) = times[slot];
            let mean_us = sum_us / iters as f64;
            let shown = if slot == 1 {
                format!("{speedup:.2}x")
            } else {
                String::new()
            };
            println!(
                "{:<12} {name:<10} {min_us:>12.1} {mean_us:>12.1} {:>6} {shown:>9}",
                entry.test.name, "yes",
            );
            let mut row = vec![
                ("test", Json::str(&entry.test.name)),
                ("engine", Json::str(*name)),
                ("wall_us_min", Json::num(min_us)),
                ("wall_us_mean", Json::num(mean_us)),
                ("pass", Json::Bool(pass)),
            ];
            if slot == 1 {
                row.push(("speedup_vs_serial", Json::num(speedup)));
            }
            rows.push(Json::obj(row));
        }
    }

    let report = Json::obj([
        ("bench", Json::str("enum")),
        ("iters", Json::num(iters as f64)),
        ("results", Json::Arr(rows)),
    ]);
    match std::fs::write(&out, format!("{report}\n")) {
        Ok(()) => {
            println!("bench report written to {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("samm-bench-report: cannot write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}
