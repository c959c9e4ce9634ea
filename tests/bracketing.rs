//! Model bracketing (paper section 6): "We can bracket TSO on either side
//! by models which treat every thread the same way", and more generally
//! the outcome-set inclusion chain
//!
//! ```text
//! SC ⊆ TSO ⊆ PSO ⊆ Weak ⊆ Weak+spec
//! ```
//!
//! holds on the whole catalog and on the seeded random corpus below.
//! It is not a theorem for every program: the `PSO ⊆ Weak` link fails
//! on store→load-forwarding programs. PSO's table lets a load bypass a
//! pending same-address store and read its value early; Weak's table
//! orders that load after the store, so a value forwarded to another
//! location under PSO can become visible before its source store, which
//! Weak forbids. `pso_forwarding_escapes_weak` pins the smallest known
//! such program. Naive TSO sits strictly *inside* real TSO on
//! bypass-dependent programs (Figure 11 center) — it is not part of the
//! chain.

use samm::core::enumerate::{enumerate, EnumConfig};
use samm::core::outcome::OutcomeSet;
use samm::litmus::catalog;
use samm::litmus::rand_prog::{corpus, RandConfig};
use samm::litmus::{LitmusBuilder, ModelSel};

fn config() -> EnumConfig {
    EnumConfig {
        keep_executions: false,
        ..EnumConfig::default()
    }
}

fn chain_outcomes(program: &samm::core::instr::Program) -> Vec<(ModelSel, OutcomeSet)> {
    ModelSel::CHAIN
        .iter()
        .map(|&model| {
            let outcomes = enumerate(program, &model.policy(), &config())
                .unwrap_or_else(|e| panic!("{}: {e}", model.name()))
                .outcomes;
            (model, outcomes)
        })
        .collect()
}

fn assert_chain(program: &samm::core::instr::Program, label: &str) {
    let sets = chain_outcomes(program);
    for pair in sets.windows(2) {
        let (weaker_model, stronger_set) = (&pair[1].0, &pair[0].1);
        assert!(
            stronger_set.is_subset(&pair[1].1),
            "{label}: {} outcomes must include {} outcomes",
            weaker_model.name(),
            pair[0].0.name(),
        );
    }
}

#[test]
fn catalog_respects_the_inclusion_chain() {
    for entry in catalog::all() {
        assert_chain(&entry.test.program, &entry.test.name);
    }
}

#[test]
fn random_programs_respect_the_inclusion_chain() {
    let cfg = RandConfig {
        threads: 2,
        ops_per_thread: 4,
        locations: 2,
        fence_prob: 0.2,
        store_prob: 0.5,
        data_dep_prob: 0.25,
        branch_prob: 0.15,
        rmw_prob: 0.0,
    };
    for (i, prog) in corpus(0xBEEF, 40, &cfg).iter().enumerate() {
        assert_chain(prog, &format!("random #{i}"));
    }
}

#[test]
fn naive_tso_is_contained_in_tso_everywhere() {
    for entry in catalog::all() {
        let naive = enumerate(&entry.test.program, &ModelSel::NaiveTso.policy(), &config())
            .unwrap()
            .outcomes;
        let tso = enumerate(&entry.test.program, &ModelSel::Tso.policy(), &config())
            .unwrap()
            .outcomes;
        assert!(
            naive.is_subset(&tso),
            "{}: naive TSO must only remove behaviours",
            entry.test.name
        );
    }
}

#[test]
fn strict_inclusions_are_witnessed_somewhere() {
    // Each adjacent pair of the chain must be *strictly* separated by some
    // catalog program — the models are genuinely different.
    let mut separated = vec![false; ModelSel::CHAIN.len() - 1];
    for entry in catalog::all() {
        let sets = chain_outcomes(&entry.test.program);
        for (i, pair) in sets.windows(2).enumerate() {
            if pair[0].1 != pair[1].1 {
                separated[i] = true;
            }
        }
    }
    for (i, sep) in separated.iter().enumerate() {
        assert!(
            sep,
            "no catalog program separates {} from {}",
            ModelSel::CHAIN[i].name(),
            ModelSel::CHAIN[i + 1].name()
        );
    }
}

/// The counterexample to `PSO ⊆ Weak`:
///
/// ```text
/// T0: r0=y; fence; r1=y; r2=x  ||  T1: x=1; r0=x; x=2; y=r0
/// ```
///
/// Under PSO, T1's `r0=x` reads 1 straight from its own pending store
/// and `y=r0` publishes it before `x=1` is visible, so T0 can see
/// `y=1` twice across its fence and still read the initial `x=0`.
/// Weak orders `r0=x` after `x=1`, so `y=1` implies `x=1` is visible.
/// This pins today's semantics; whether Weak should gain a bypass is an
/// open question.
#[test]
fn pso_forwarding_escapes_weak() {
    let test = LitmusBuilder::new("PSO-forwarding")
        .thread("T0", |t| {
            t.load("r0", "y").fence().load("r1", "y").load("r2", "x");
        })
        .thread("T1", |t| {
            t.store("x", 1)
                .load("r0", "x")
                .store("x", 2)
                .store_reg("y", "r0");
        })
        .allow(&[("T0", "r0", 1), ("T0", "r1", 1), ("T0", "r2", 0)])
        .build()
        .expect("the counterexample compiles");
    let condition = &test.conditions[0];
    let observable = |model: ModelSel| {
        let outcomes = enumerate(&test.program, &model.policy(), &config())
            .unwrap_or_else(|e| panic!("{}: {e}", model.name()))
            .outcomes;
        condition.observable_in(&outcomes)
    };
    assert!(observable(ModelSel::Pso), "PSO allows r0=r1=1, r2=0");
    assert!(!observable(ModelSel::Weak), "Weak forbids r0=r1=1, r2=0");
    // The outcome needs the bypass: the strict models forbid it too.
    assert!(!observable(ModelSel::Sc));
    assert!(!observable(ModelSel::NaiveTso));
}
