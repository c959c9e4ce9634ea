//! Golden pruning-stats regression: hard-coded fork/prune/dedup counters
//! for every paper figure and every atomics test of the catalog, across
//! the full model chain, under the prune-before-expand engine in its
//! fresh-query configuration (`keep_executions(false)`, where symmetry
//! reduction is active).
//!
//! The counters are the engine's observable search shape: how many
//! claims were attempted, how many died to dominance or symmetry before
//! a fork was paid for, how many forks were expanded (and of those, how
//! many consumed the parent in place), how many were rolled back by
//! Store Atomicity, and how many executions were credited through orbit
//! expansion. Any change to the pruning rules, the claim order, or the
//! fork representation that shifts this shape must update the table
//! deliberately — exactly like `golden_enumeration.rs` for counts.
//!
//! Regenerate with:
//! `cargo test --release --test golden_pruning -- --ignored --nocapture`

use samm::core::enumerate::{enumerate_serial, EnumConfig};
use samm::core::pruned::{enumerate_pruned_stats, PruneStats};
use samm::litmus::{catalog, CatalogEntry, ModelSel};

/// One golden row: the deterministic search-shape counters of a
/// `(test, model)` query.
#[derive(Debug, PartialEq, Eq)]
struct Row {
    name: &'static str,
    model: ModelSel,
    distinct_executions: usize,
    claims: u64,
    pruned_dominated: u64,
    pruned_symmetric: u64,
    expanded: u64,
    in_place: u64,
    rolled_back: u64,
    orbit_commits: u64,
    symmetry_group: u64,
}

#[allow(clippy::too_many_arguments)]
const fn row(
    name: &'static str,
    model: ModelSel,
    distinct_executions: usize,
    claims: u64,
    pruned_dominated: u64,
    pruned_symmetric: u64,
    expanded: u64,
    in_place: u64,
    rolled_back: u64,
    orbit_commits: u64,
    symmetry_group: u64,
) -> Row {
    Row {
        name,
        model,
        distinct_executions,
        claims,
        pruned_dominated,
        pruned_symmetric,
        expanded,
        in_place,
        rolled_back,
        orbit_commits,
        symmetry_group,
    }
}

/// `(test, model, distinct, claims, dominated, symmetric, expanded,
/// in_place, rolled_back, orbit_commits, group)` ground truth.
const GOLDEN: &[Row] = &[
    row("fig3", ModelSel::Sc, 3, 10, 3, 0, 7, 3, 0, 0, 1),
    row("fig3", ModelSel::Tso, 3, 16, 4, 0, 12, 4, 5, 0, 1),
    row("fig3", ModelSel::Pso, 3, 16, 4, 0, 12, 4, 5, 0, 1),
    row("fig3", ModelSel::Weak, 3, 10, 3, 0, 7, 3, 0, 0, 1),
    row("fig3", ModelSel::WeakSpec, 3, 10, 3, 0, 7, 3, 0, 0, 1),
    row("fig4", ModelSel::Sc, 5, 16, 5, 0, 11, 4, 0, 0, 1),
    row("fig4", ModelSel::Tso, 5, 16, 5, 0, 11, 4, 0, 0, 1),
    row("fig4", ModelSel::Pso, 5, 16, 5, 0, 11, 4, 0, 0, 1),
    row("fig4", ModelSel::Weak, 5, 16, 5, 0, 11, 4, 0, 0, 1),
    row("fig4", ModelSel::WeakSpec, 5, 16, 5, 0, 11, 4, 0, 0, 1),
    row("fig5", ModelSel::Sc, 19, 114, 49, 0, 65, 26, 0, 0, 1),
    row("fig5", ModelSel::Tso, 19, 136, 49, 0, 87, 40, 22, 0, 1),
    row("fig5", ModelSel::Pso, 19, 136, 49, 0, 87, 40, 22, 0, 1),
    row("fig5", ModelSel::Weak, 24, 220, 125, 0, 95, 26, 0, 0, 1),
    row("fig5", ModelSel::WeakSpec, 24, 220, 125, 0, 95, 26, 0, 0, 1),
    row("fig7", ModelSel::Sc, 5, 15, 5, 0, 10, 4, 0, 0, 1),
    row("fig7", ModelSel::Tso, 5, 19, 5, 0, 14, 4, 4, 0, 1),
    row("fig7", ModelSel::Pso, 5, 19, 5, 0, 14, 4, 4, 0, 1),
    row("fig7", ModelSel::Weak, 5, 15, 5, 0, 10, 4, 0, 0, 1),
    row("fig7", ModelSel::WeakSpec, 5, 15, 5, 0, 10, 4, 0, 0, 1),
    row("fig8", ModelSel::Sc, 12, 22, 0, 0, 22, 11, 0, 0, 1),
    row("fig8", ModelSel::Tso, 12, 22, 0, 0, 22, 11, 0, 0, 1),
    row("fig8", ModelSel::Pso, 12, 22, 0, 0, 22, 11, 0, 0, 1),
    row("fig8", ModelSel::Weak, 12, 22, 0, 0, 22, 11, 0, 0, 1),
    row("fig8", ModelSel::WeakSpec, 15, 46, 15, 0, 31, 10, 0, 0, 1),
    row("fig10", ModelSel::Sc, 7, 52, 20, 0, 32, 17, 0, 0, 1),
    row("fig10", ModelSel::Tso, 15, 94, 33, 0, 61, 23, 17, 0, 1),
    row("fig10", ModelSel::Pso, 27, 138, 49, 0, 89, 29, 25, 0, 1),
    row("fig10", ModelSel::Weak, 27, 352, 225, 0, 127, 48, 0, 0, 1),
    row(
        "fig10",
        ModelSel::WeakSpec,
        27,
        352,
        225,
        0,
        127,
        48,
        0,
        0,
        1,
    ),
    row("CAS-mutex", ModelSel::Sc, 2, 4, 0, 1, 3, 2, 1, 1, 2),
    row("CAS-mutex", ModelSel::Tso, 2, 4, 0, 1, 3, 2, 1, 1, 2),
    row("CAS-mutex", ModelSel::Pso, 2, 4, 0, 1, 3, 2, 1, 1, 2),
    row("CAS-mutex", ModelSel::Weak, 2, 4, 0, 1, 3, 2, 1, 1, 2),
    row("CAS-mutex", ModelSel::WeakSpec, 2, 4, 0, 1, 3, 2, 1, 1, 2),
    row("FAA-incr", ModelSel::Sc, 2, 4, 0, 1, 3, 2, 1, 1, 2),
    row("FAA-incr", ModelSel::Tso, 2, 4, 0, 1, 3, 2, 1, 1, 2),
    row("FAA-incr", ModelSel::Pso, 2, 4, 0, 1, 3, 2, 1, 1, 2),
    row("FAA-incr", ModelSel::Weak, 2, 4, 0, 1, 3, 2, 1, 1, 2),
    row("FAA-incr", ModelSel::WeakSpec, 2, 4, 0, 1, 3, 2, 1, 1, 2),
    row("broken-incr", ModelSel::Sc, 3, 4, 0, 1, 3, 2, 0, 1, 2),
    row("broken-incr", ModelSel::Tso, 3, 4, 0, 1, 3, 2, 0, 1, 2),
    row("broken-incr", ModelSel::Pso, 3, 4, 0, 1, 3, 2, 0, 1, 2),
    row("broken-incr", ModelSel::Weak, 3, 4, 0, 1, 3, 2, 0, 1, 2),
    row("broken-incr", ModelSel::WeakSpec, 3, 4, 0, 1, 3, 2, 0, 1, 2),
    row("SB+swap", ModelSel::Sc, 3, 18, 6, 0, 12, 7, 0, 0, 1),
    row("SB+swap", ModelSel::Tso, 3, 18, 6, 0, 12, 7, 0, 0, 1),
    row("SB+swap", ModelSel::Pso, 3, 18, 6, 0, 12, 7, 0, 0, 1),
    row("SB+swap", ModelSel::Weak, 4, 50, 26, 0, 24, 15, 0, 0, 1),
    row("SB+swap", ModelSel::WeakSpec, 4, 50, 26, 0, 24, 15, 0, 0, 1),
];

fn entries() -> Vec<CatalogEntry> {
    let mut out = catalog::paper_figures();
    out.extend([
        catalog::cas_mutex(),
        catalog::atomic_increment(),
        catalog::broken_increment(),
        catalog::swap_sb(),
    ]);
    out
}

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

fn measure(entry: &CatalogEntry, model: ModelSel) -> (usize, PruneStats) {
    let (result, pstats) =
        enumerate_pruned_stats(&entry.test.program, &model.policy(), &fresh_config())
            .expect("pruned enumeration succeeds");
    (result.stats.distinct_executions, pstats)
}

#[test]
fn pruning_counters_match_golden() {
    assert_eq!(
        GOLDEN.len(),
        entries().len() * MODELS.len(),
        "golden table must cover the whole catalog × model chain"
    );
    for golden in GOLDEN {
        let entry = entries()
            .into_iter()
            .find(|e| e.test.name == golden.name)
            .unwrap_or_else(|| panic!("no catalog entry named {}", golden.name));
        let (distinct, p) = measure(&entry, golden.model);
        let actual = row(
            golden.name,
            golden.model,
            distinct,
            p.claims,
            p.pruned_dominated,
            p.pruned_symmetric,
            p.expanded,
            p.in_place,
            p.rolled_back,
            p.orbit_commits,
            p.symmetry_group,
        );
        assert_eq!(
            &actual,
            golden,
            "pruning counters drifted for {} under {}",
            golden.name,
            golden.model.name()
        );
    }
}

/// Cross-invariants that must hold for every row regardless of the
/// concrete numbers: claims partition into pruned/expanded, in-place
/// expansions are a subset of expansions, orbit credit only exists
/// under a nontrivial group, and the serial oracle reaches the same
/// executions while materializing at least as many forks.
#[test]
fn pruning_counters_satisfy_invariants() {
    for entry in entries() {
        for model in MODELS {
            let (distinct, p) = measure(&entry, model);
            let name = &entry.test.name;
            let oracle = enumerate_serial(&entry.test.program, &model.policy(), &fresh_config())
                .expect("oracle enumeration succeeds");
            assert_eq!(distinct, oracle.stats.distinct_executions, "{name}");
            assert!(p.expanded <= oracle.stats.forks as u64, "{name}");
            assert_eq!(
                p.claims,
                p.pruned_dominated + p.pruned_symmetric + p.expanded,
                "{name} under {}: claims must partition",
                model.name()
            );
            assert!(p.in_place <= p.expanded, "{name}");
            assert!(p.rolled_back <= p.expanded, "{name}");
            if p.symmetry_group == 1 {
                assert_eq!(p.pruned_symmetric, 0, "{name}");
                assert_eq!(p.orbit_commits, 0, "{name}");
            }
        }
    }
}

/// Regenerates the golden table (printed to stdout for pasting).
#[test]
#[ignore = "generator for the GOLDEN table"]
fn regenerate_golden_table() {
    for entry in entries() {
        for model in MODELS {
            let (distinct, p) = measure(&entry, model);
            println!(
                "    row(\"{}\", ModelSel::{:?}, {}, {}, {}, {}, {}, {}, {}, {}, {}),",
                entry.test.name,
                model,
                distinct,
                p.claims,
                p.pruned_dominated,
                p.pruned_symmetric,
                p.expanded,
                p.in_place,
                p.rolled_back,
                p.orbit_commits,
                p.symmetry_group
            );
        }
    }
}
