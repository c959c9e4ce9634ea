//! The delay-set robustness payoff: answering a racy-but-fenced query
//! with the static certifier (one SC enumeration + a static cycle
//! search) versus a fresh pruned weak-model enumeration, plus the raw
//! cost of the analysis passes themselves (EXPERIMENTS.md table E24).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use samm_analyze::harness;
use samm_analyze::robust::{analyze_robustness, analyze_static, break_cycles};
use samm_core::enumerate::{enumerate, EnumConfig};
use samm_litmus::{catalog, expect, CatalogEntry};

fn fast_config() -> EnumConfig {
    EnumConfig {
        keep_executions: false,
        ..EnumConfig::default()
    }
}

/// The E24 subject: racy on the flag pair, fenced, plus Bypass scratch
/// traffic — uncertifiable by DRF/TLO, robust by delay-set analysis.
fn subject() -> CatalogEntry {
    catalog::mp_fenced_scratch()
}

/// The headline E24 comparison on one weak model: a fresh pruned
/// enumeration under Weak versus the certified path (static robustness
/// verdict + one pruned SC run that any weak-model query then reuses).
fn bench_certified_vs_fresh(c: &mut Criterion) {
    let config = fast_config();
    let entry = subject();
    let program = &entry.test.program;
    let weak = catalog::ModelSel::Weak.policy();
    let sc = catalog::ModelSel::Sc.policy();
    let mut group = c.benchmark_group("robustness/query");
    group.bench_function(BenchmarkId::new("fresh-pruned", "Weak"), |b| {
        b.iter(|| {
            std::hint::black_box(enumerate(program, &weak, &config).expect("enumeration succeeds"))
        });
    });
    group.bench_function(BenchmarkId::new("robust-certified-cold", "Weak"), |b| {
        // Cold path: the first certified query pays one SC enumeration
        // on top of the static verdict.
        b.iter(|| {
            let verdict = analyze_static(program, &weak);
            let sc_run = enumerate(program, &sc, &config).expect("enumeration succeeds");
            std::hint::black_box((verdict, sc_run))
        });
    });
    let sc_run = enumerate(program, &sc, &config).expect("enumeration succeeds");
    group.bench_function(BenchmarkId::new("robust-certified-cached", "Weak"), |b| {
        // Steady state: the SC behaviour set is already cached (the
        // serve cache is content-addressed, and the harness shares one
        // SC run across all certified models), so a weak-model query
        // costs only the static verdict.
        b.iter(|| {
            let verdict = analyze_static(program, &weak);
            std::hint::black_box((verdict, &sc_run.outcomes))
        });
    });
    group.finish();
}

/// The whole-entry harness comparison: full per-model enumeration
/// versus the two-layer certified harness (DRF/TLO first, then
/// delay-set robustness) over every model of the entry.
fn bench_harness_short_circuit(c: &mut Criterion) {
    let config = fast_config();
    let entry = subject();
    let mut group = c.benchmark_group("robustness/harness");
    group.bench_function("full-enumeration", |b| {
        b.iter(|| {
            std::hint::black_box(expect::run_entry(&entry, &config).expect("enumeration succeeds"))
        });
    });
    group.bench_function("certified", |b| {
        b.iter(|| {
            std::hint::black_box(harness::run_entry(&entry, &config).expect("enumeration succeeds"))
        });
    });
    group.finish();
}

/// Raw static passes: the cycle search on robust and non-robust
/// programs, the dynamic cycle confirmation, and the fence search.
fn bench_static_passes(c: &mut Criterion) {
    let config = fast_config();
    let weak = catalog::ModelSel::Weak.policy();
    let mut group = c.benchmark_group("robustness/static");
    for entry in [subject(), catalog::sb(), catalog::iriw()] {
        group.bench_with_input(
            BenchmarkId::new("analyze-static", &entry.test.name),
            &entry,
            |b, entry| {
                b.iter(|| std::hint::black_box(analyze_static(&entry.test.program, &weak)));
            },
        );
    }
    let sb = catalog::sb();
    group.bench_function("confirm-cycle/SB", |b| {
        b.iter(|| {
            std::hint::black_box(
                analyze_robustness(&sb.test.program, &weak, &config).expect("enumeration succeeds"),
            )
        });
    });
    group.bench_function("break-cycles/SB", |b| {
        b.iter(|| std::hint::black_box(break_cycles(&sb.test.program, &weak)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_certified_vs_fresh,
    bench_harness_short_circuit,
    bench_static_passes
);
criterion_main!(benches);
