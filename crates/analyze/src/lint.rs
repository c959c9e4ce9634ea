//! Policy-table axioms and program-level lints.
//!
//! The paper's reordering tables obey a handful of structural rules
//! that keep a model meaningful: the three `x ≠ y` cells preserve
//! single-thread determinism, fences order symmetrically, Bypass only
//! makes sense at (Store, Load), and address-sensitive entries are
//! unreachable outside memory classes. [`lint_policy`] checks one table;
//! [`lint_chain`] checks the observational strength containment of a
//! model sequence (the shipped `SC ⊒ TSO ⊒ PSO ⊒ Weak` chain);
//! [`lint_program`] flags dead fences the table already orders.

use std::fmt;

use samm_core::instr::{Instr, Program, ThreadProgram};
use samm_core::policy::{Constraint, OpClass, Policy};
use samm_core::static_order::fence_is_dead;
use samm_litmus::CompiledLitmus;

use crate::robust::{analyze_static, StaticVerdict};

/// Severity of a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not necessarily wrong (dead fences, asymmetric
    /// fences, unreachable entries).
    Warning,
    /// A violated table axiom.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Stable machine-readable code (`same-addr-determinism`, ...).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    fn error(code: &'static str, message: String) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code,
            message,
        }
    }

    fn warning(code: &'static str, message: String) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            code,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// Checks one policy table for internal soundness.
///
/// Codes emitted:
///
/// * `same-addr-determinism` (error) — one of the (L,S)/(S,L)/(S,S)
///   cells leaves same-address pairs of a single thread unordered,
///   breaking single-thread determinism (paper section 2: the figure has
///   "exactly three" `x ≠ y` entries for precisely this reason);
/// * `misplaced-bypass` (error) — a Bypass entry anywhere but
///   (Store, Load); the store-pipeline reading of section 6 only exists
///   for a later load passing an earlier store;
/// * `unreachable-address-constraint` (warning) — an address-sensitive
///   entry (`x ≠ y`/Bypass) on a cell where one side carries no address
///   (branch, compute or fence), so the comparison can never fire;
/// * `one-way-fence` (warning) — a fence that orders loads/stores on one
///   side only (e.g. `(Load, Fence)` is `never` but `(Fence, Load)` is
///   free); legal, but usually a transcription slip;
/// * `vacuous-fence-class` (warning) — the fence row and column order
///   nothing at all, so every `Fence` instruction under this table is
///   dead.
pub fn lint_policy(policy: &Policy) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let name = policy.name();
    for (first, second) in [
        (OpClass::Load, OpClass::Store),
        (OpClass::Store, OpClass::Load),
        (OpClass::Store, OpClass::Store),
    ] {
        if policy.constraint(first, second).observational_strength() < 1 {
            out.push(Diagnostic::error(
                "same-addr-determinism",
                format!(
                    "{name}: ({first}, {second}) is {:?}; same-address pairs of one \
                     thread must be ordered (x != y or stronger) to keep \
                     single-threaded execution deterministic",
                    policy.constraint(first, second)
                ),
            ));
        }
    }
    for (first, second, c) in policy.table().cells() {
        if c == Constraint::Bypass && (first, second) != (OpClass::Store, OpClass::Load) {
            out.push(Diagnostic::error(
                "misplaced-bypass",
                format!(
                    "{name}: Bypass at ({first}, {second}); the store-buffer bypass \
                     of section 6 is only meaningful for a later Load passing an \
                     earlier Store"
                ),
            ));
        }
        if c.is_address_sensitive() && !(first.is_memory() && second.is_memory()) {
            out.push(Diagnostic::warning(
                "unreachable-address-constraint",
                format!(
                    "{name}: address-sensitive entry {c:?} at ({first}, {second}), \
                     but {} carries no address — the comparison can never fire",
                    if first.is_memory() { second } else { first }
                ),
            ));
        }
    }
    let mut fence_orders_something = false;
    for mem in [OpClass::Load, OpClass::Store] {
        let before = policy.constraint(mem, OpClass::Fence) == Constraint::Never;
        let after = policy.constraint(OpClass::Fence, mem) == Constraint::Never;
        fence_orders_something |= before || after;
        if before != after {
            out.push(Diagnostic::warning(
                "one-way-fence",
                format!(
                    "{name}: fences order {mem} {} but not {} — asymmetric fence \
                     semantics",
                    if before { "before them" } else { "after them" },
                    if before { "after them" } else { "before them" },
                ),
            ));
        }
    }
    if !fence_orders_something {
        out.push(Diagnostic::warning(
            "vacuous-fence-class",
            format!("{name}: the fence row and column order nothing; every fence is dead"),
        ));
    }
    out
}

/// Checks observational strength containment along a strongest-first
/// model chain (see [`Policy::at_least_as_strong`]): each model must be
/// at least as strong as its successor on every memory-relevant cell.
/// Emits `chain-containment` errors on violations.
pub fn lint_chain(chain: &[Policy]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for pair in chain.windows(2) {
        if !pair[0].at_least_as_strong(&pair[1]) {
            let (stronger, weaker) = (&pair[0], &pair[1]);
            for (first, second, c) in stronger.table().cells() {
                let memory_cell = matches!(first, OpClass::Load | OpClass::Store | OpClass::Fence)
                    && matches!(second, OpClass::Load | OpClass::Store | OpClass::Fence);
                let w = weaker.constraint(first, second);
                if memory_cell && c.observational_strength() < w.observational_strength() {
                    out.push(Diagnostic::error(
                        "chain-containment",
                        format!(
                            "{} is not at least as strong as {}: ({first}, {second}) \
                             is {c:?} vs {w:?}",
                            stronger.name(),
                            weaker.name(),
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Lints a compiled program under one policy: flags `dead-fence` for
/// every fence whose removal changes no guaranteed memory order
/// (straight-line threads only; branchy threads are skipped —
/// conservatively silent), then `redundant-fence-static` via
/// [`lint_redundant_fences`].
pub fn lint_program(program: &Program, policy: &Policy) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (t, thread) in program.threads().iter().enumerate() {
        for (i, instr) in thread.instrs().iter().enumerate() {
            if matches!(instr, Instr::Fence) && fence_is_dead(thread, policy, i) {
                out.push(Diagnostic::warning(
                    "dead-fence",
                    format!(
                        "thread {t}, instruction {i}: fence adds no ordering under \
                         {} — the table (or a neighbouring fence) already orders \
                         every pair it separates",
                        policy.name()
                    ),
                ));
            }
        }
    }
    out.extend(lint_redundant_fences(program, policy));
    out
}

/// `program` with the instruction at `(thread, index)` deleted.
fn without_instr(program: &Program, thread: usize, index: usize) -> Program {
    let mut threads: Vec<ThreadProgram> = program.threads().to_vec();
    let mut instrs = threads[thread].instrs().to_vec();
    instrs.remove(index);
    threads[thread] = ThreadProgram::new(instrs);
    Program::with_init(threads, program.init_entries().collect())
}

/// Flags `redundant-fence-static` for every fence the delay-set
/// analysis proves removable: the program is statically robust
/// ([`crate::robust::analyze_static`]) both with and without the fence,
/// so both variants have exactly the SC behaviour set of the fenced
/// program (fences are SC no-ops) — removal changes no behaviour under
/// the given model.
///
/// Silent unless the *base* program is statically robust (when it is
/// not, every surviving fence may be load-bearing in ways the static
/// analysis cannot bound), and silent on fences the cheaper
/// `dead-fence` lint already reports. The claim is cross-checked
/// against exhaustive enumeration by the lint test suite and
/// `robust_differential.rs`.
pub fn lint_redundant_fences(program: &Program, policy: &Policy) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !matches!(analyze_static(program, policy), StaticVerdict::Robust(_)) {
        return out;
    }
    for (t, thread) in program.threads().iter().enumerate() {
        for (i, instr) in thread.instrs().iter().enumerate() {
            if !matches!(instr, Instr::Fence) || fence_is_dead(thread, policy, i) {
                continue;
            }
            let stripped = without_instr(program, t, i);
            if matches!(analyze_static(&stripped, policy), StaticVerdict::Robust(_)) {
                out.push(Diagnostic::warning(
                    "redundant-fence-static",
                    format!(
                        "thread {t}, instruction {i}: fence breaks no critical cycle \
                         under {} — the program is SC-robust with and without it, so \
                         removing it changes no observable behaviour",
                        policy.name()
                    ),
                ));
            }
        }
    }
    out
}

/// Lints a compiled litmus test: [`lint_program`] with the test's name
/// prefixed to every message.
pub fn lint_litmus(test: &CompiledLitmus, policy: &Policy) -> Vec<Diagnostic> {
    lint_program(&test.program, policy)
        .into_iter()
        .map(|d| Diagnostic {
            message: format!("{}: {}", test.name, d.message),
            ..d
        })
        .collect()
}

/// The shipped strongest-first model chain checked in CI.
pub fn shipped_chain() -> Vec<Policy> {
    vec![
        Policy::sequential_consistency(),
        Policy::tso(),
        Policy::pso(),
        Policy::weak(),
    ]
}

/// Lints every built-in model plus the chain containment — the full
/// axiom suite `samm-lint --models` runs.
pub fn lint_builtin_models() -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for policy in [
        Policy::sequential_consistency(),
        Policy::tso(),
        Policy::naive_tso(),
        Policy::pso(),
        Policy::weak(),
        Policy::weak().with_alias_speculation(true),
    ] {
        out.extend(lint_policy(&policy));
    }
    out.extend(lint_chain(&shipped_chain()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use samm_core::policy::ConstraintTable;

    #[test]
    fn shipped_models_lint_clean() {
        let diags = lint_builtin_models();
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn free_for_all_table_violates_determinism_and_fences() {
        let p = Policy::custom(
            "chaos",
            ConstraintTable::from_rows([[Constraint::Free; 5]; 5]),
        );
        let diags = lint_policy(&p);
        let errors: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert_eq!(errors.len(), 3, "{diags:#?}");
        assert!(diags
            .iter()
            .any(|d| d.code == "vacuous-fence-class" && d.severity == Severity::Warning));
    }

    #[test]
    fn misplaced_bypass_is_an_error() {
        let p = Policy::custom(
            "bad-bypass",
            Policy::weak()
                .table()
                .with_entry(OpClass::Load, OpClass::Load, Constraint::Bypass),
        );
        assert!(lint_policy(&p)
            .iter()
            .any(|d| d.code == "misplaced-bypass" && d.severity == Severity::Error));
    }

    #[test]
    fn address_sensitive_fence_entry_is_unreachable() {
        let p = Policy::custom(
            "odd",
            Policy::weak()
                .table()
                .with_entry(OpClass::Fence, OpClass::Load, Constraint::SameAddr),
        );
        assert!(lint_policy(&p)
            .iter()
            .any(|d| d.code == "unreachable-address-constraint"));
    }

    #[test]
    fn one_way_fence_is_flagged() {
        let p = Policy::custom(
            "half-fence",
            Policy::weak()
                .table()
                .with_entry(OpClass::Fence, OpClass::Load, Constraint::Free),
        );
        assert!(lint_policy(&p).iter().any(|d| d.code == "one-way-fence"));
    }

    #[test]
    fn reversed_chain_fails_containment() {
        let diags = lint_chain(&[Policy::weak(), Policy::sequential_consistency()]);
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.code == "chain-containment"));
    }

    #[test]
    fn dead_fence_lint_fires_on_duplicate_fence() {
        use samm_core::ids::Value;
        use samm_core::instr::{Operand, ThreadProgram};
        let t = ThreadProgram::new(vec![
            Instr::Store {
                addr: Operand::Imm(Value::new(0)),
                val: Operand::Imm(Value::new(1)),
            },
            Instr::Fence,
            Instr::Fence,
            Instr::Load {
                dst: samm_core::ids::Reg::new(0),
                addr: Operand::Imm(Value::new(1)),
            },
        ]);
        let diags = lint_program(&Program::new(vec![t]), &Policy::weak());
        assert_eq!(diags.len(), 2, "{diags:#?}");
        assert!(diags.iter().all(|d| d.code == "dead-fence"));
    }

    #[test]
    fn concurrency_free_fences_are_statically_redundant() {
        use samm_core::ids::Value;
        use samm_core::instr::{Operand, ThreadProgram};
        // One thread, no contention: the fence genuinely orders the
        // store→load pair (not dead-fence), yet with nobody to observe
        // the ordering it breaks no critical cycle.
        let t = ThreadProgram::new(vec![
            Instr::Store {
                addr: Operand::Imm(Value::new(0)),
                val: Operand::Imm(Value::new(1)),
            },
            Instr::Fence,
            Instr::Load {
                dst: samm_core::ids::Reg::new(0),
                addr: Operand::Imm(Value::new(1)),
            },
        ]);
        let diags = lint_program(&Program::new(vec![t]), &Policy::weak());
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert_eq!(diags[0].code, "redundant-fence-static");
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn load_bearing_fences_are_silent() {
        use samm_litmus::catalog;
        // Every fence of the fenced MP/SB/IRIW entries breaks a critical
        // cycle under the weak model — none may be called redundant.
        for entry in [
            catalog::mp_fenced(),
            catalog::sb_fenced(),
            catalog::iriw_fenced(),
            catalog::mp_fenced_scratch(),
        ] {
            let diags = lint_program(&entry.test.program, &Policy::weak());
            assert!(diags.is_empty(), "{}: {diags:#?}", entry.test.name);
        }
    }

    #[test]
    fn scratch_producer_fence_is_redundant_under_tso_but_load_bearing_under_weak() {
        use samm_litmus::catalog;
        // MP+fences+scratch under TSO: the producer fence separates the
        // store→load scratch pair (a Bypass edge, so not `dead-fence`),
        // yet TSO's guaranteed store→store order keeps MP robust without
        // it — redundant. Under the weak model the same fence is what
        // orders the publication stores: load-bearing, silent.
        let program = catalog::mp_fenced_scratch().test.program;
        let tso = lint_redundant_fences(&program, &Policy::tso());
        assert_eq!(tso.len(), 1, "{tso:#?}");
        assert_eq!(tso[0].code, "redundant-fence-static");
        assert!(tso[0].message.contains("thread 0"), "{}", tso[0].message);
        assert!(lint_redundant_fences(&program, &Policy::weak()).is_empty());
    }

    #[test]
    fn dead_fences_are_left_to_the_dead_fence_lint() {
        use samm_litmus::catalog;
        // IRIW's reader fences under TSO separate only load→load pairs
        // the table already orders: `dead-fence` claims them, and the
        // redundancy lint stays out of its way.
        let diags = lint_program(&catalog::iriw_fenced().test.program, &Policy::tso());
        assert_eq!(diags.len(), 2, "{diags:#?}");
        assert!(diags.iter().all(|d| d.code == "dead-fence"));
    }

    #[test]
    fn non_robust_programs_get_no_redundancy_verdicts() {
        use samm_litmus::catalog;
        // MP+wfence is not robust under weak (the consumer side still
        // reorders): the lint must stay silent rather than reason about
        // fences it cannot bound.
        let program = catalog::mp_fence_producer_only().test.program;
        assert!(lint_redundant_fences(&program, &Policy::weak()).is_empty());
    }

    #[test]
    fn redundancy_verdicts_match_exhaustive_enumeration() {
        use samm_core::enumerate::{enumerate, EnumConfig};
        use samm_litmus::catalog;
        // Every redundant-fence-static claim over the catalog must be
        // backed by enumeration: stripping the fence may not change the
        // outcome set under the model that called it redundant.
        let config = EnumConfig {
            keep_executions: false,
            ..EnumConfig::default()
        };
        let mut fired = 0;
        for entry in catalog::all() {
            let program = &entry.test.program;
            for policy in [Policy::tso(), Policy::pso(), Policy::weak()] {
                if !matches!(analyze_static(program, &policy), StaticVerdict::Robust(_)) {
                    continue;
                }
                let base = enumerate(program, &policy, &config).unwrap();
                for (t, thread) in program.threads().iter().enumerate() {
                    for (i, instr) in thread.instrs().iter().enumerate() {
                        if !matches!(instr, Instr::Fence) || fence_is_dead(thread, &policy, i) {
                            continue;
                        }
                        let stripped = without_instr(program, t, i);
                        let redundant =
                            matches!(analyze_static(&stripped, &policy), StaticVerdict::Robust(_));
                        if redundant {
                            fired += 1;
                            let after = enumerate(&stripped, &policy, &config).unwrap();
                            assert_eq!(
                                base.outcomes,
                                after.outcomes,
                                "{} under {}: fence ({t}, {i}) called redundant but \
                                 its removal changes the outcome set",
                                entry.test.name,
                                policy.name()
                            );
                        }
                    }
                }
            }
        }
        assert!(
            fired > 0,
            "the cross-check never exercised a redundancy claim"
        );
    }
}
