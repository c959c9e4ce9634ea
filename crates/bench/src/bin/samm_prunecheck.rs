//! `samm-prunecheck` — differential correctness and regression gate for
//! the production enumeration engine.
//!
//! Two checks, both required for a zero exit:
//!
//! 1. **Equivalence.** Every catalog entry under every selectable model
//!    is enumerated fresh by the serial oracle
//!    ([`samm_core::enumerate::enumerate_serial`]) and by the production
//!    engine ([`samm_core::enumerate::enumerate`]); outcome sets and
//!    `distinct_executions` must match exactly.
//! 2. **Speed.** Three fresh, outcomes-only workloads (IRIW, WRC and
//!    Figure 10, each under the weak model) are timed for both engines,
//!    the two interleaved run by run in this one process. The gate is
//!    the geometric mean over the workloads of the oracle's median time
//!    divided by the production engine's, and it must reach
//!    `--min-speedup` (default 2.5). Both sides run on the same host in
//!    the same build, so the ratio measures the code, not the runner;
//!    EXPERIMENTS.md (E23) records the measured ratios behind the
//!    threshold.
//!
//! ```text
//! samm-prunecheck [--min-speedup X] [--iters N] [--quick] [--obs]
//! ```
//!
//! `--quick` restricts the equivalence sweep to the paper figures
//! (for local runs); CI runs the full catalog.

use std::process::ExitCode;
use std::time::Instant;

use samm_core::enumerate::{enumerate, enumerate_serial, EnumConfig};
use samm_core::policy::Policy;
use samm_core::pruned::enumerate_pruned_stats;
use samm_litmus::catalog;

fn median_us(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    samples[samples.len() / 2]
}

fn main() -> ExitCode {
    let mut min_speedup = 2.5f64;
    let mut iters = 60usize;
    let mut quick = false;
    let mut obs = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--obs" => obs = true,
            "--min-speedup" => {
                min_speedup = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--min-speedup requires a number");
            }
            "--iters" => {
                iters = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .expect("--iters requires a positive number");
            }
            "--quick" => quick = true,
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let config = EnumConfig::builder().keep_executions(false).build();
    let entries = if quick {
        catalog::paper_figures()
    } else {
        catalog::all()
    };

    // Check 1: behaviour-set equality across the catalog.
    let mut checked = 0usize;
    let mut failed = 0usize;
    for entry in &entries {
        for model in entry.models() {
            let policy = model.policy();
            let oracle = enumerate_serial(&entry.test.program, &policy, &config)
                .expect("oracle enumeration succeeds");
            let production = enumerate(&entry.test.program, &policy, &config)
                .expect("production enumeration succeeds");
            checked += 1;
            if oracle.outcomes != production.outcomes
                || oracle.stats.distinct_executions != production.stats.distinct_executions
            {
                failed += 1;
                eprintln!(
                    "MISMATCH {} under {}: oracle {}/{} vs production {}/{}",
                    entry.test.name,
                    model.name(),
                    oracle.outcomes.len(),
                    oracle.stats.distinct_executions,
                    production.outcomes.len(),
                    production.stats.distinct_executions,
                );
            }
        }
    }
    println!("equivalence: {checked} (entry, model) pairs checked, {failed} mismatches");

    // Check 2: same-process oracle/production ratio, interleaved so both
    // engines see the same host conditions.
    let weak = Policy::weak();
    let mut log_sum = 0.0f64;
    let workloads = [catalog::iriw(), catalog::wrc(), catalog::fig10()];
    for entry in &workloads {
        let program = &entry.test.program;
        let run = |production: bool| -> f64 {
            let start = Instant::now();
            let result = if production {
                enumerate(program, &weak, &config)
            } else {
                enumerate_serial(program, &weak, &config)
            };
            let us = start.elapsed().as_secs_f64() * 1e6;
            assert!(!result.expect("enumeration succeeds").outcomes.is_empty());
            us
        };
        // One warmup each, then alternate which engine runs first.
        run(false);
        run(true);
        let (mut oracle, mut production) = (Vec::new(), Vec::new());
        for i in 0..iters {
            if i % 2 == 0 {
                oracle.push(run(false));
                production.push(run(true));
            } else {
                production.push(run(true));
                oracle.push(run(false));
            }
        }
        let (oracle_us, production_us) = (median_us(oracle), median_us(production));
        let ratio = oracle_us / production_us;
        log_sum += ratio.ln();
        let (_, pstats) = enumerate_pruned_stats(program, &weak, &config).expect("enumerates");
        println!(
            "{}/Weak fresh: oracle {oracle_us:.1} µs, production {production_us:.1} µs, \
             ratio {ratio:.2}×; production counters {}",
            entry.test.name,
            pstats.to_json()
        );
    }
    let speedup = (log_sum / workloads.len() as f64).exp();
    println!("geometric-mean oracle/production ratio: {speedup:.2}×");
    let iriw = catalog::iriw();
    if obs {
        // Micro-timings of the per-fork primitives, to steer optimization.
        let full = EnumConfig::builder().keep_executions(true).build();
        let execs = enumerate(&iriw.test.program, &weak, &full)
            .unwrap()
            .executions;
        let reps = 2000usize;
        let t0 = Instant::now();
        let mut sink = 0usize;
        for _ in 0..reps {
            for e in &execs {
                sink += e.clone().graph().len();
            }
        }
        let clone_ns = t0.elapsed().as_nanos() as f64 / (reps * execs.len()) as f64;
        let t1 = Instant::now();
        for _ in 0..reps {
            for e in &execs {
                sink += e.canonical_key().len();
            }
        }
        let key_ns = t1.elapsed().as_nanos() as f64 / (reps * execs.len()) as f64;
        println!(
            "micro: Behavior::clone {clone_ns:.0} ns, canonical_key {key_ns:.0} ns \
             (over {} complete IRIW executions, sink {sink})",
            execs.len()
        );
        let ocfg = EnumConfig::builder()
            .keep_executions(false)
            .observe(true)
            .build();
        let s = enumerate_serial(&iriw.test.program, &weak, &ocfg).unwrap();
        let p = enumerate(&iriw.test.program, &weak, &ocfg).unwrap();
        println!("serial obs: {}", s.stats.obs.expect("observed"));
        println!(
            "serial explored/forks/deduped: {}/{}/{}",
            s.stats.explored, s.stats.forks, s.stats.deduped
        );
        println!("production obs: {}", p.stats.obs.expect("observed"));
        println!(
            "production explored/forks/deduped: {}/{}/{}",
            p.stats.explored, p.stats.forks, p.stats.deduped
        );
    }

    if failed > 0 {
        eprintln!("FAIL: {failed} behaviour-set mismatches");
        return ExitCode::FAILURE;
    }
    if speedup < min_speedup {
        eprintln!(
            "FAIL: oracle/production ratio {speedup:.2}× is below the threshold \
             {min_speedup}×"
        );
        return ExitCode::FAILURE;
    }
    println!("OK");
    ExitCode::SUCCESS
}
