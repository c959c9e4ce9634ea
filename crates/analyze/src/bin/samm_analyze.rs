//! `samm-analyze` — delay-set robustness analyzer and CI sweep.
//!
//! ```text
//! samm-analyze [--policy NAME] [--verify] [--fences] [--check-catalog]
//!              [PATH...]
//! ```
//!
//! * `PATH...` — `.litmus` files or directories to scan (recursively);
//!   each file gets a robustness verdict under the selected policy:
//!   `robust` (behaviour set provably equals SC's), `cycle` (a critical
//!   cycle in the delay-set sense, printed), or `unknown` (the static
//!   analysis declines — branches, dynamic addresses, exotic tables).
//! * `--policy NAME` — model to analyze under: `sc`, `tso`, `naive-tso`,
//!   `pso`, `weak`, `weak-spec` (default `weak`).
//! * `--verify` — replay each reported cycle through the pruned
//!   enumeration engine: prints a concrete non-SC witness outcome, or
//!   downgrades the verdict to `unknown` when the cycle is unrealizable.
//! * `--fences` — for non-robust programs, print the minimal fence
//!   placement (by exhaustive breadth-first search over useful slots)
//!   whose insertion makes the program statically robust.
//! * `--check-catalog` — CI gate: sweep every catalog entry under the
//!   full store-atomic model chain and cross-check every static verdict
//!   against the pruned oracle — a `robust` verdict whose model/SC
//!   outcome sets differ, or a failed certificate/cycle self-check, is
//!   an unsoundness and fails the run.
//!
//! Exit status: 0 clean, 1 unsound verdict found by `--check-catalog`,
//! 2 usage or I/O failure.

#![deny(missing_docs)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use samm_analyze::robust::{analyze_static, break_cycles, CriticalCycle, StaticVerdict};
use samm_core::enumerate::{enumerate, EnumConfig};
use samm_core::instr::Program;
use samm_core::policy::Policy;
use samm_litmus::{catalog, catalog::ModelSel, parse};

struct Options {
    policy: Policy,
    verify: bool,
    fences: bool,
    check_catalog: bool,
    paths: Vec<PathBuf>,
}

fn usage() -> &'static str {
    "usage: samm-analyze [--policy NAME] [--verify] [--fences] [--check-catalog] [PATH...]\n\
     policies: sc, tso, naive-tso, pso, weak, weak-spec (default weak)"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        policy: Policy::weak(),
        verify: false,
        fences: false,
        check_catalog: false,
        paths: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--policy" => {
                let name = it.next().ok_or("--policy needs a value")?;
                opts.policy = match name.as_str() {
                    "sc" => Policy::sequential_consistency(),
                    "tso" => Policy::tso(),
                    "naive-tso" => Policy::naive_tso(),
                    "pso" => Policy::pso(),
                    "weak" => Policy::weak(),
                    "weak-spec" => Policy::weak().with_alias_speculation(true),
                    other => return Err(format!("unknown policy `{other}`")),
                };
            }
            "--verify" => opts.verify = true,
            "--fences" => opts.fences = true,
            "--check-catalog" => opts.check_catalog = true,
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            path => opts.paths.push(PathBuf::from(path)),
        }
    }
    if !opts.check_catalog && opts.paths.is_empty() {
        return Err("nothing to analyze: pass --check-catalog or at least one PATH".into());
    }
    Ok(opts)
}

/// Collects `.litmus` files under `path` (recursing into directories),
/// sorted for stable output.
fn collect_litmus_files(path: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if path.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(path)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for entry in entries {
            collect_litmus_files(&entry, out)?;
        }
    } else if path.extension().is_some_and(|e| e == "litmus") {
        out.push(path.to_path_buf());
    }
    Ok(())
}

/// Prints one program's verdict; returns the verdict name for the tally.
fn report(name: &str, program: &Program, opts: &Options) -> &'static str {
    let policy = &opts.policy;
    let verdict = analyze_static(program, policy);
    match &verdict {
        StaticVerdict::Robust(cert) => {
            println!(
                "{name} [{}]: robust ({} threads, {} conflict edges, {} delayable segments)",
                policy.name(),
                cert.threads,
                cert.conflict_edges,
                cert.delayable_segments
            );
        }
        StaticVerdict::CycleFound(cycle) => {
            println!("{name} [{}]: cycle — {cycle}", policy.name());
            if opts.verify {
                report_witness(program, policy, cycle);
            }
            if opts.fences {
                report_fences(program, policy);
            }
        }
        StaticVerdict::Unknown(reason) => {
            println!("{name} [{}]: unknown — {reason}", policy.name());
        }
    }
    verdict.name()
}

fn report_witness(program: &Program, policy: &Policy, cycle: &CriticalCycle) {
    match cycle.verify(program, policy, &quiet_config()) {
        Ok(Some(witness)) => println!("  witness: {witness}"),
        Ok(None) => println!("  cycle unrealizable: outcome sets match SC after all (unknown)"),
        Err(e) => println!("  verification failed: {e}"),
    }
}

fn report_fences(program: &Program, policy: &Policy) {
    match break_cycles(program, policy) {
        Some(slots) if slots.is_empty() => {}
        Some(slots) => {
            let rendered: Vec<String> = slots
                .iter()
                .map(|&(t, i)| format!("thread {t} before instruction {i}"))
                .collect();
            println!(
                "  minimal static fix: {} fence(s) — {}",
                slots.len(),
                rendered.join(", ")
            );
        }
        None => println!("  no static fence placement certifies robustness"),
    }
}

fn quiet_config() -> EnumConfig {
    EnumConfig {
        keep_executions: false,
        ..EnumConfig::default()
    }
}

/// The CI sweep: every catalog entry × the store-atomic chain, every
/// static verdict cross-checked against the pruned oracle. Returns the
/// list of unsoundness descriptions (empty = pass).
fn check_catalog() -> Result<Vec<String>, String> {
    let config = quiet_config();
    let mut unsound = Vec::new();
    let mut tally = [0usize; 3]; // robust, cycle, unknown
    for entry in catalog::all() {
        let program = &entry.test.program;
        let sc = enumerate(program, &Policy::sequential_consistency(), &config)
            .map_err(|e| format!("{}: SC enumeration failed: {e}", entry.test.name))?;
        for model in ModelSel::CHAIN {
            let policy = model.policy();
            let oracle = enumerate(program, &policy, &config)
                .map_err(|e| format!("{}: enumeration failed: {e}", entry.test.name))?;
            let equal = oracle.outcomes == sc.outcomes;
            let tag = format!("{} under {}", entry.test.name, model.name());
            match analyze_static(program, &policy) {
                StaticVerdict::Robust(cert) => {
                    tally[0] += 1;
                    if !cert.check(program, &policy) {
                        unsound.push(format!("{tag}: robustness certificate fails its own check"));
                    }
                    if !equal {
                        unsound.push(format!(
                            "{tag}: claimed robust but the outcome sets differ ({} vs {} SC)",
                            oracle.outcomes.len(),
                            sc.outcomes.len()
                        ));
                    }
                }
                StaticVerdict::CycleFound(cycle) => {
                    tally[1] += 1;
                    if !cycle.check(program, &policy) {
                        unsound.push(format!("{tag}: reported cycle fails its own check"));
                    }
                    match cycle.verify(program, &policy, &config) {
                        Ok(Some(_)) if equal => unsound.push(format!(
                            "{tag}: cycle verification produced a witness but the \
                             outcome sets are equal"
                        )),
                        Ok(None) if !equal => unsound.push(format!(
                            "{tag}: outcome sets differ but the cycle did not realize \
                             a witness"
                        )),
                        Err(e) => unsound.push(format!("{tag}: cycle verification failed: {e}")),
                        _ => {}
                    }
                }
                StaticVerdict::Unknown(_) => tally[2] += 1,
            }
        }
    }
    println!(
        "catalog sweep: {} verdicts ({} robust, {} cycle, {} unknown), {} unsound",
        tally.iter().sum::<usize>(),
        tally[0],
        tally[1],
        tally[2],
        unsound.len()
    );
    Ok(unsound)
}

fn analyze_file(path: &Path, opts: &Options) -> Result<&'static str, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let test = parse(&text).map_err(|e| format!("{}: parse error: {e}", path.display()))?;
    let compiled = test
        .compile()
        .map_err(|e| format!("{}: compile error: {e}", path.display()))?;
    Ok(report(&path.display().to_string(), &compiled.program, opts))
}

fn run(opts: &Options) -> Result<Vec<String>, String> {
    let mut unsound = Vec::new();
    if opts.check_catalog {
        unsound.extend(check_catalog()?);
    }
    let mut files = Vec::new();
    for path in &opts.paths {
        if !path.exists() {
            return Err(format!("{}: no such file or directory", path.display()));
        }
        collect_litmus_files(path, &mut files).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut tally = [0usize; 3];
    for file in &files {
        match analyze_file(file, opts)? {
            "robust" => tally[0] += 1,
            "cycle" => tally[1] += 1,
            _ => tally[2] += 1,
        }
    }
    if !files.is_empty() {
        println!(
            "{} file(s): {} robust, {} cycle, {} unknown",
            files.len(),
            tally[0],
            tally[1],
            tally[2]
        );
    }
    Ok(unsound)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("samm-analyze: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(unsound) if unsound.is_empty() => ExitCode::SUCCESS,
        Ok(unsound) => {
            for finding in &unsound {
                eprintln!("samm-analyze: UNSOUND: {finding}");
            }
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("samm-analyze: {msg}");
            ExitCode::from(2)
        }
    }
}
