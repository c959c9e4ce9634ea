//! Full-scale differential fortress: the production prune-before-expand
//! engine ([`enumerate`]) vs the serial oracle ([`enumerate_serial`]).
//!
//! Two layers:
//!
//! 1. **Catalog sweep** — every entry of the litmus catalog under every
//!    model of the chain (± speculation), asserting behaviour-set
//!    equality: identical outcome *sets* (not just counts) and identical
//!    distinct-execution counts.
//! 2. **Random corpus** — a seeded corpus of generated programs across
//!    several generator shapes (branchy, fence-heavy, RMW-mixed),
//!    sweeping the model chain on each. The corpus size defaults to 100
//!    programs and is raised in CI via `SAMM_DIFF_CORPUS=500`; the seed
//!    is fixed so failures reproduce byte-for-byte.
//!
//! These are the acceptance tests for the pruned engine's soundness
//! claims (dominance pruning, symmetry reduction, copy-on-write forks):
//! each pruning rule must be invisible in the behaviour set. A guard
//! test pins that `enumerate` really is the pruned engine, so the two
//! sides of every differential stay two different engines.

use samm::core::enumerate::{enumerate, enumerate_serial, EnumConfig};
use samm::core::instr::Program;
use samm::core::policy::Policy;
use samm::core::pruned::enumerate_pruned_stats;
use samm::litmus::rand_prog::{corpus, random_program, RandConfig};
use samm::litmus::{catalog, parser, ModelSel};
use samm::oper;

use rand::prelude::*;

const MODELS: [ModelSel; 5] = [
    ModelSel::Sc,
    ModelSel::Tso,
    ModelSel::Pso,
    ModelSel::Weak,
    ModelSel::WeakSpec,
];

fn fresh_config() -> EnumConfig {
    EnumConfig::builder().keep_executions(false).build()
}

fn assert_engines_agree(program: &Program, policy: &Policy, label: &str) {
    let config = fresh_config();
    let serial = enumerate_serial(program, policy, &config).expect("serial oracle succeeds");
    let pruned = enumerate(program, policy, &config).expect("pruned engine succeeds");
    assert_eq!(
        serial.outcomes, pruned.outcomes,
        "{label}: outcome sets differ"
    );
    assert_eq!(
        serial.stats.distinct_executions, pruned.stats.distinct_executions,
        "{label}: distinct-execution counts differ"
    );
}

/// Layer 1: the whole catalog under the whole model chain.
#[test]
fn pruned_matches_serial_on_full_catalog() {
    for entry in catalog::all() {
        for model in MODELS {
            assert_engines_agree(
                &entry.test.program,
                &model.policy(),
                &format!("{} under {}", entry.test.name, model.name()),
            );
        }
    }
}

/// Corpus size: `SAMM_DIFF_CORPUS` (CI sets 500), default 100.
fn corpus_size() -> usize {
    std::env::var("SAMM_DIFF_CORPUS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100)
}

/// The generator shapes the corpus cycles through; together they cover
/// plain racy programs, speculation-relevant branches, fence-heavy
/// programs and single-node atomics.
fn shapes() -> [RandConfig; 4] {
    let base = RandConfig {
        threads: 2,
        ops_per_thread: 4,
        locations: 2,
        fence_prob: 0.15,
        store_prob: 0.5,
        data_dep_prob: 0.25,
        branch_prob: 0.0,
        rmw_prob: 0.0,
    };
    [
        base.clone(),
        RandConfig {
            branch_prob: 0.3,
            ..base.clone()
        },
        RandConfig {
            fence_prob: 0.5,
            ..base.clone()
        },
        RandConfig {
            rmw_prob: 0.35,
            ..base
        },
    ]
}

/// Layer 2: the seeded random corpus. Seed 0xSAMM is fixed; program `i`
/// of shape `s` is fully determined by `(i, s)`, so any failure message
/// pinpoints a reproducible program.
#[test]
fn pruned_matches_serial_on_seeded_corpus() {
    let shapes = shapes();
    let n = corpus_size();
    for i in 0..n {
        let shape = i % shapes.len();
        let mut rng = StdRng::seed_from_u64(0x5A44_1100 ^ (i as u64));
        let program = random_program(&mut rng, &shapes[shape]);
        for model in MODELS {
            assert_engines_agree(
                &program,
                &model.policy(),
                &format!("corpus program {i} (shape {shape}) under {}", model.name()),
            );
        }
    }
}

/// Guard: `enumerate` is the pruned engine, and the oracle is a different
/// search. Were the two aliased, every differential above would compare
/// an engine with itself. On IRIW the two searches visit the same
/// deduplicated states, so the closure counters tell them apart: the
/// oracle settles every fork, the pruned engine only its claim winners.
#[test]
fn production_enumerate_is_the_pruned_engine_not_the_oracle() {
    let program = catalog::iriw().test.program;
    let policy = Policy::weak();
    let config = EnumConfig::builder()
        .keep_executions(false)
        .observe(true)
        .build();
    let counters = |mut stats: samm::core::enumerate::EnumStats| {
        stats.obs = stats.obs.map(|o| o.counters());
        stats
    };
    let production = enumerate(&program, &policy, &config).expect("production succeeds");
    let (pruned, pstats) =
        enumerate_pruned_stats(&program, &policy, &config).expect("pruned succeeds");
    let oracle = enumerate_serial(&program, &policy, &config).expect("oracle succeeds");
    assert_eq!(counters(production.stats), counters(pruned.stats));
    assert!(pstats.expanded < oracle.stats.forks as u64);
    let settled =
        |stats: &samm::core::enumerate::EnumStats| stats.obs.expect("observed").closure_rounds;
    assert!(
        settled(&oracle.stats) > settled(&production.stats),
        "oracle closure rounds {} vs production {}",
        settled(&oracle.stats),
        settled(&production.stats)
    );
}

/// A §4 candidate can pass the local candidate test and still close an
/// ordering cycle through another address; both engines used to report
/// that as an internal error under SC. The shrunk program lives in
/// `litmus-tests/regressions/sc_candidate_cycle.litmus`; the full one is
/// program 90 of the 4-thread corpus below. Both engines must reproduce
/// the operational SC machine's outcome set exactly.
#[test]
fn sc_candidate_cycle_regression_matches_the_operational_machine() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/litmus-tests/regressions/sc_candidate_cycle.litmus"
    );
    let source = std::fs::read_to_string(path).expect("regression file readable");
    let shrunk = parser::parse(&source)
        .expect("parses")
        .compile()
        .expect("compiles");
    let full = corpus(
        11,
        150,
        &RandConfig {
            threads: 4,
            ops_per_thread: 3,
            ..RandConfig::default()
        },
    )
    .swap_remove(90);
    let sc = Policy::sequential_consistency();
    let config = fresh_config();
    for (label, program) in [("shrunk", &shrunk.program), ("full", &full)] {
        let expected = oper::enumerate_sc(program, 1_000_000).expect("SC machine succeeds");
        let production = enumerate(program, &sc, &config).expect("production succeeds");
        let oracle = enumerate_serial(program, &sc, &config).expect("oracle succeeds");
        assert_eq!(
            production.outcomes, expected,
            "{label}: production vs SC machine"
        );
        assert_eq!(oracle.outcomes, expected, "{label}: oracle vs SC machine");
        assert!(
            production.stats.rolled_back > 0,
            "{label}: the cyclic fork rolls back"
        );
    }
    let sc_outcomes = enumerate(&shrunk.program, &sc, &config).expect("production succeeds");
    assert!(!shrunk.conditions[0].observable_in(&sc_outcomes.outcomes));
}
