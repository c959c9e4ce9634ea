//! Static robustness certification: Shasha–Snir delay-set / critical-cycle
//! analysis over the reordering table.
//!
//! A program is *robust* against a store-atomic policy when its behaviour
//! set under that policy equals its SC behaviour set — every weak-model
//! query about it can then be answered by a single SC run. PR 2's
//! certifier ([`mod@crate::certify`]) only recognises two robust shapes
//! (data-race freedom and total local order); this module decides the
//! general case for the straight-line, known-address fragment:
//!
//! 1. Classify every program-order pair of each thread as *delayable*
//!    (the table does not guarantee a `≺` edge — [`StaticOrder`] is the
//!    guaranteed under-approximation, so delayability over-approximates
//!    what the machine may actually reorder; `Bypass` pairs are always
//!    delayable, covering TSO store-buffer forwarding) or non-delayable.
//! 2. Build the *conflict graph*: cross-thread edges between accesses of
//!    the same statically-known address where at least one side writes.
//! 3. Search for a **harmful cycle**: threads `t_1 … t_k` (`k ≥ 2`, all
//!    distinct), per thread an entry/exit access pair `a_i ≤po b_i`
//!    (possibly equal), a conflict edge from each `b_i` to `a_{i+1 mod k}`,
//!    and at least one segment with `a_i ≠ b_i` left unordered by the
//!    guaranteed `≺`. This segment class contains every Shasha–Snir
//!    critical cycle (straight-line program order is total per thread, so
//!    a minimal cycle visits each thread in one contiguous segment), and a
//!    non-SC execution of any table-based machine that respects the
//!    guaranteed order must relax a delayable segment of some such cycle.
//!
//! No harmful cycle ⇒ every execution is SC-equivalent ⇒ with
//! `SC ⊒ policy` in table strength (so SC behaviours are also policy
//! behaviours), the behaviour sets coincide: [`StaticVerdict::Robust`],
//! carrying a [`RobustCertificate`] that re-verifies by recomputation.
//! A harmful cycle is only *candidate* evidence of non-robustness —
//! delay-set analysis over-approximates — so [`analyze_robustness`]
//! claims [`Robustness::NotRobust`] only after [`CriticalCycle::verify`]
//! replays the cycle into a concrete weak outcome the pruned engine finds
//! outside the SC set; an unrealizable cycle degrades to
//! [`Robustness::Unknown`], the sound fall-back-to-enumeration verdict.
//!
//! The cycles also *prescribe* the repair: a fence per delayable segment
//! breaks the cycle, and [`break_cycles`] searches the smallest placement
//! (over [`useful_fence_slots`]) that makes the program robust.
//! [`synthesize_with_robust_seed`] feeds that size to the enumeration
//! synthesizer as an upper bound, preserving exact minimality while
//! pruning its breadth-first search.

use std::fmt;

use samm_core::enumerate::{enumerate, EnumConfig};
use samm_core::error::EnumError;
use samm_core::ids::Addr;
use samm_core::instr::{Program, ThreadProgram};
use samm_core::outcome::Outcome;
use samm_core::policy::{OpClass, Policy};
use samm_core::static_order::{thread_events, StaticEvent, StaticOrder};
use samm_litmus::ast::CompiledCondition;
use samm_litmus::fences::{
    insert_fence, synthesize_fences, useful_fence_slots, FenceFix, FenceSlot,
};

/// Why the analysis declined to decide ([`StaticVerdict::Unknown`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnknownReason {
    /// A thread contains branches or jumps; program order is not total,
    /// so the segment search would be incomplete.
    BranchyThread(usize),
    /// A memory access with a register-held (statically unknown)
    /// address; it may alias anything, including speculatively.
    UnknownAddress {
        /// The thread of the opaque access.
        thread: usize,
        /// Its instruction index in the thread listing.
        instr_index: usize,
    },
    /// The table breaks one of the three `x ≠ y` single-thread
    /// determinism cells; even one thread alone may diverge from SC.
    NonDeterministicTable,
    /// The policy is not weaker than SC in table strength, so the SC
    /// behaviour set need not be contained in the policy's and "no
    /// harmful cycle" would only prove one inclusion.
    NotWeakerThanSc,
    /// A harmful cycle was found but the pruned oracle could not realize
    /// any behaviour outside the SC set — the static over-approximation
    /// was too coarse here; enumeration must answer.
    CycleUnrealizable(Box<CriticalCycle>),
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownReason::BranchyThread(t) => {
                write!(f, "thread {t} is not straight-line")
            }
            UnknownReason::UnknownAddress {
                thread,
                instr_index,
            } => write!(
                f,
                "thread {thread}, instruction {instr_index}: register-held address"
            ),
            UnknownReason::NonDeterministicTable => {
                f.write_str("the table breaks single-thread determinism")
            }
            UnknownReason::NotWeakerThanSc => {
                f.write_str("the policy is not weaker than SC in table strength")
            }
            UnknownReason::CycleUnrealizable(c) => write!(
                f,
                "a {}-thread critical cycle exists statically but no non-SC \
                 behaviour realizes it",
                c.segments.len()
            ),
        }
    }
}

/// One per-thread segment of a critical cycle: the accesses the cycle
/// enters and leaves the thread through, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Thread index.
    pub thread: usize,
    /// Event-list index (see [`thread_events`]) of the entry access.
    pub entry: usize,
    /// Event-list index of the exit access; `entry ≤ exit`.
    pub exit: usize,
    /// `true` when `entry ≠ exit` and the guaranteed `≺` leaves the pair
    /// unordered — the table permits the machine to delay the entry past
    /// the exit, which is what lets the cycle produce non-SC behaviour.
    pub delayable: bool,
}

/// A harmful cycle through the conflict graph: the machine-readable
/// explanation of *why* a program may exhibit non-SC behaviour.
///
/// `segments[i].exit` conflicts with `segments[(i+1) % k].entry` on
/// `links[i]`; at least one segment is delayable. [`CriticalCycle::check`]
/// re-validates the structure against the program;
/// [`CriticalCycle::verify`] replays it into a concrete outcome via the
/// pruned engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalCycle {
    /// Name of the policy the cycle was found under.
    pub policy: String,
    /// The per-thread segments, in cycle order; threads are distinct.
    pub segments: Vec<Segment>,
    /// `links[i]` is the conflict address joining `segments[i].exit` to
    /// `segments[(i+1) % k].entry`.
    pub links: Vec<Addr>,
}

impl CriticalCycle {
    /// Re-validates the cycle against `program` and `policy`: distinct
    /// threads, program-ordered segments with correctly recomputed
    /// delayability, conflicting links (same known address, at least one
    /// writer) and at least one delayable segment. Returns `false` on
    /// any mismatch — including a policy-name mismatch, stale event
    /// indices, or a tampered `delayable` flag.
    pub fn check(&self, program: &Program, policy: &Policy) -> bool {
        if policy.name() != self.policy
            || self.segments.len() < 2
            || self.links.len() != self.segments.len()
        {
            return false;
        }
        let mut threads: Vec<usize> = self.segments.iter().map(|s| s.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        if threads.len() != self.segments.len() {
            return false;
        }
        if !self.segments.iter().any(|s| s.delayable) {
            return false;
        }
        let k = self.segments.len();
        for (i, seg) in self.segments.iter().enumerate() {
            let Some(thread) = program.threads().get(seg.thread) else {
                return false;
            };
            let te = thread_events(thread);
            if !te.straight_line {
                return false;
            }
            let (Some(entry), Some(exit)) = (te.events.get(seg.entry), te.events.get(seg.exit))
            else {
                return false;
            };
            if seg.entry > seg.exit
                || !entry.kind.is_memory()
                || !exit.kind.is_memory()
                || entry.addr.is_none()
                || exit.addr.is_none()
            {
                return false;
            }
            let order = StaticOrder::compute(&te.events, policy);
            let delayable = seg.entry != seg.exit && !order.ordered(seg.entry, seg.exit);
            if delayable != seg.delayable {
                return false;
            }
            // The link from this exit to the next segment's entry.
            let next = &self.segments[(i + 1) % k];
            let next_te = thread_events(&program.threads()[next.thread]);
            let Some(next_entry) = next_te.events.get(next.entry) else {
                return false;
            };
            let conflict = exit.addr == Some(self.links[i])
                && next_entry.addr == Some(self.links[i])
                && (exit.kind.writes_memory() || next_entry.kind.writes_memory());
            if !conflict {
                return false;
            }
        }
        true
    }

    /// Replays the cycle into a concrete weak witness: enumerates
    /// `program` under `policy` and under SC with the pruned engine and
    /// returns an outcome observable under `policy` but not under SC.
    /// `Ok(None)` means the cycle is statically well-formed but
    /// unrealizable (or fails [`CriticalCycle::check`]): the program may
    /// still be robust and enumeration must decide.
    ///
    /// # Errors
    ///
    /// Propagates enumeration failures.
    pub fn verify(
        &self,
        program: &Program,
        policy: &Policy,
        config: &EnumConfig,
    ) -> Result<Option<Outcome>, EnumError> {
        if !self.check(program, policy) {
            return Ok(None);
        }
        let config = EnumConfig {
            keep_executions: false,
            ..config.clone()
        };
        let weak = enumerate(program, policy, &config)?;
        let sc = enumerate(program, &Policy::sequential_consistency(), &config)?;
        let witness = weak.outcomes.difference(&sc.outcomes).next().cloned();
        Ok(witness)
    }
}

impl fmt::Display for CriticalCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "critical cycle under {}:", self.policy)?;
        for (i, seg) in self.segments.iter().enumerate() {
            write!(
                f,
                " T{}[{}..{}{}] -{}->",
                seg.thread,
                seg.entry,
                seg.exit,
                if seg.delayable { " delayable" } else { "" },
                self.links[i]
            )?;
        }
        write!(
            f,
            " T{}[{}]",
            self.segments[0].thread, self.segments[0].entry
        )
    }
}

/// A machine-checkable robustness certificate: no harmful cycle exists,
/// so the behaviour set under the certified policy equals the SC set.
///
/// The evidence is the exhaustively-searched shape of the conflict
/// graph; [`RobustCertificate::check`] recomputes the whole analysis and
/// compares, so a stale certificate (program edited, policy swapped)
/// fails closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RobustCertificate {
    /// Name of the certified policy.
    pub policy: String,
    /// Number of threads analyzed.
    pub threads: usize,
    /// Number of cross-thread conflict edges in the graph the cycle
    /// search covered.
    pub conflict_edges: usize,
    /// Number of delayable program-order segments between
    /// conflict-capable accesses — each a potential cycle chord the
    /// search proved harmless.
    pub delayable_segments: usize,
}

impl RobustCertificate {
    /// Recomputes the analysis and compares: `true` iff `program` under
    /// `policy` is still statically robust with identical evidence.
    pub fn check(&self, program: &Program, policy: &Policy) -> bool {
        matches!(analyze_static(program, policy), StaticVerdict::Robust(c) if c == *self)
    }
}

/// The verdict of the purely static pass ([`analyze_static`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaticVerdict {
    /// No harmful cycle: behaviours under the policy equal SC
    /// behaviours. Sound — never emitted unless the search was complete
    /// over the guarded fragment.
    Robust(RobustCertificate),
    /// A harmful cycle exists statically. *Candidate* non-robustness:
    /// [`CriticalCycle::verify`] must realize it before the program may
    /// be called non-robust.
    CycleFound(CriticalCycle),
    /// The program or policy is outside the decidable fragment.
    Unknown(UnknownReason),
}

impl StaticVerdict {
    /// Short machine-readable name: `robust`, `cycle` or `unknown`.
    pub fn name(&self) -> &'static str {
        match self {
            StaticVerdict::Robust(_) => "robust",
            StaticVerdict::CycleFound(_) => "cycle",
            StaticVerdict::Unknown(_) => "unknown",
        }
    }
}

/// The final robustness verdict ([`analyze_robustness`]): every claim is
/// backed by replayable evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Robustness {
    /// Statically certified: behaviour set equals the SC set.
    Robust(RobustCertificate),
    /// Non-robust, with both the static cause and a dynamic witness.
    NotRobust {
        /// The harmful cycle the static pass found.
        cycle: CriticalCycle,
        /// An outcome observable under the policy but not under SC,
        /// found by the pruned engine.
        witness: Outcome,
    },
    /// Sound fallback: enumeration must answer.
    Unknown(UnknownReason),
}

/// One thread's analyzed shape.
struct ThreadGraph {
    events: Vec<StaticEvent>,
    order: StaticOrder,
    /// Event indices that carry a cross-thread conflict edge — the only
    /// accesses a cycle can enter or leave the thread through.
    ports: Vec<usize>,
}

fn conflicts(a: &StaticEvent, b: &StaticEvent) -> bool {
    a.addr.is_some() && a.addr == b.addr && (a.kind.writes_memory() || b.kind.writes_memory())
}

/// Whether the table keeps single-threaded execution deterministic (the
/// paper's three `x ≠ y` cells each order or bypass-resolve same-address
/// pairs).
fn single_thread_deterministic(policy: &Policy) -> bool {
    [
        (OpClass::Load, OpClass::Store),
        (OpClass::Store, OpClass::Load),
        (OpClass::Store, OpClass::Store),
    ]
    .into_iter()
    .all(|(a, b)| policy.constraint(a, b).observational_strength() >= 1)
}

/// The static delay-set analysis. Complete over straight-line programs
/// whose memory addresses are all statically known, under any policy
/// that is table-weaker than SC and single-thread deterministic;
/// anything else is [`StaticVerdict::Unknown`].
pub fn analyze_static(program: &Program, policy: &Policy) -> StaticVerdict {
    if !single_thread_deterministic(policy) {
        return StaticVerdict::Unknown(UnknownReason::NonDeterministicTable);
    }
    if !Policy::sequential_consistency().at_least_as_strong(policy) {
        return StaticVerdict::Unknown(UnknownReason::NotWeakerThanSc);
    }
    let mut graphs: Vec<ThreadGraph> = Vec::with_capacity(program.threads().len());
    for (t, thread) in program.threads().iter().enumerate() {
        let te = thread_events(thread);
        if !te.straight_line {
            return StaticVerdict::Unknown(UnknownReason::BranchyThread(t));
        }
        if let Some(e) = te.events.iter().find(|e| e.addr_unknown()) {
            return StaticVerdict::Unknown(UnknownReason::UnknownAddress {
                thread: t,
                instr_index: e.instr_index,
            });
        }
        let order = StaticOrder::compute(&te.events, policy);
        graphs.push(ThreadGraph {
            events: te.events,
            order,
            ports: Vec::new(),
        });
    }
    // Conflict ports: which accesses of each thread conflict with some
    // access of another thread.
    let mut conflict_edges = 0usize;
    for t1 in 0..graphs.len() {
        for i in 0..graphs[t1].events.len() {
            if !graphs[t1].events[i].kind.is_memory() {
                continue;
            }
            let mut is_port = false;
            for (t2, other) in graphs.iter().enumerate() {
                if t2 == t1 {
                    continue;
                }
                for b in &other.events {
                    if b.kind.is_memory() && conflicts(&graphs[t1].events[i], b) {
                        is_port = true;
                        if t2 > t1 {
                            conflict_edges += 1;
                        }
                    }
                }
            }
            if is_port {
                graphs[t1].ports.push(i);
            }
        }
    }
    // Count delayable segments between ports (certificate evidence).
    let mut delayable_segments = 0usize;
    for g in &graphs {
        for (pi, &a) in g.ports.iter().enumerate() {
            for &b in &g.ports[pi + 1..] {
                if !g.order.ordered(a, b) {
                    delayable_segments += 1;
                }
            }
        }
    }
    // Exhaustive harmful-cycle search.
    if let Some(cycle) = find_harmful_cycle(&graphs, policy) {
        return StaticVerdict::CycleFound(cycle);
    }
    StaticVerdict::Robust(RobustCertificate {
        policy: policy.name().to_owned(),
        threads: graphs.len(),
        conflict_edges,
        delayable_segments,
    })
}

/// Depth-first search for a harmful cycle. Roots at the minimal thread
/// of the cycle (duplicates by rotation are skipped; reversals are
/// harmless re-findings). Returns the first cycle found, which by the
/// ascending iteration order is a deterministic, minimal-start witness.
fn find_harmful_cycle(graphs: &[ThreadGraph], policy: &Policy) -> Option<CriticalCycle> {
    let n = graphs.len();
    for t0 in 0..n {
        for &a0 in &graphs[t0].ports {
            let mut visited = vec![false; n];
            visited[t0] = true;
            let mut segments = Vec::new();
            if let Some(cycle) = extend(
                graphs,
                policy,
                t0,
                a0,
                t0,
                a0,
                &mut visited,
                &mut segments,
                0,
            ) {
                return Some(cycle);
            }
        }
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn extend(
    graphs: &[ThreadGraph],
    policy: &Policy,
    start_thread: usize,
    start_entry: usize,
    thread: usize,
    entry: usize,
    visited: &mut Vec<bool>,
    segments: &mut Vec<(Segment, Addr)>,
    delayable_count: usize,
) -> Option<CriticalCycle> {
    let g = &graphs[thread];
    for &exit in &g.ports {
        if exit < entry {
            continue;
        }
        let delayable = exit != entry && !g.order.ordered(entry, exit);
        let exit_event = &g.events[exit];
        let total_delayable = delayable_count + usize::from(delayable);
        // Try to close the cycle back to the start.
        if !segments.is_empty() || thread != start_thread {
            let start_event = &graphs[start_thread].events[start_entry];
            if thread != start_thread && conflicts(exit_event, start_event) && total_delayable >= 1
            {
                let mut segs: Vec<Segment> = Vec::with_capacity(segments.len() + 1);
                let mut links: Vec<Addr> = Vec::with_capacity(segments.len() + 1);
                for &(s, link) in segments.iter() {
                    segs.push(s);
                    links.push(link);
                }
                segs.push(Segment {
                    thread,
                    entry,
                    exit,
                    delayable,
                });
                links.push(exit_event.addr.expect("ports have known addresses"));
                return Some(CriticalCycle {
                    policy: policy.name().to_owned(),
                    segments: segs,
                    links,
                });
            }
        }
        // Extend into an unvisited thread. Rooting the cycle at its
        // minimal thread: only visit threads above the start.
        for (next_thread, next_graph) in graphs.iter().enumerate() {
            if visited[next_thread] || next_thread <= start_thread {
                continue;
            }
            for &next_entry in &next_graph.ports {
                if !conflicts(exit_event, &next_graph.events[next_entry]) {
                    continue;
                }
                visited[next_thread] = true;
                segments.push((
                    Segment {
                        thread,
                        entry,
                        exit,
                        delayable,
                    },
                    exit_event.addr.expect("ports have known addresses"),
                ));
                let found = extend(
                    graphs,
                    policy,
                    start_thread,
                    start_entry,
                    next_thread,
                    next_entry,
                    visited,
                    segments,
                    total_delayable,
                );
                segments.pop();
                visited[next_thread] = false;
                if found.is_some() {
                    return found;
                }
            }
        }
    }
    None
}

/// The full, dynamically-confirmed analysis: like [`analyze_static`],
/// but a found cycle is only reported as [`Robustness::NotRobust`] after
/// [`CriticalCycle::verify`] realizes it into a concrete non-SC outcome
/// with the pruned engine. Every reported cycle is therefore realizable
/// by construction, and every `Robust` claim is static-complete — the
/// two halves the differential fortress checks independently.
///
/// # Errors
///
/// Propagates enumeration failures from the verification replay.
pub fn analyze_robustness(
    program: &Program,
    policy: &Policy,
    config: &EnumConfig,
) -> Result<Robustness, EnumError> {
    match analyze_static(program, policy) {
        StaticVerdict::Robust(cert) => Ok(Robustness::Robust(cert)),
        StaticVerdict::Unknown(reason) => Ok(Robustness::Unknown(reason)),
        StaticVerdict::CycleFound(cycle) => match cycle.verify(program, policy, config)? {
            Some(witness) => Ok(Robustness::NotRobust { cycle, witness }),
            None => Ok(Robustness::Unknown(UnknownReason::CycleUnrealizable(
                Box::new(cycle),
            ))),
        },
    }
}

/// Applies fence placements to a program (positions against the
/// original instruction indices; multiple per thread supported).
fn apply_slots(program: &Program, placements: &[FenceSlot]) -> Program {
    let mut threads: Vec<ThreadProgram> = program.threads().to_vec();
    for (t, thread) in threads.iter_mut().enumerate() {
        let mut positions: Vec<usize> = placements
            .iter()
            .filter(|&&(pt, _)| pt == t)
            .map(|&(_, pos)| pos)
            .collect();
        positions.sort_unstable_by(|a, b| b.cmp(a));
        for pos in positions {
            *thread = insert_fence(thread, pos);
        }
    }
    Program::with_init(threads, program.init_entries().collect())
}

/// Searches for a smallest fence placement (over
/// [`useful_fence_slots`]) under which [`analyze_static`] certifies the
/// program robust — every harmful cycle acquires a fence in each of its
/// delayable segments. Purely static: no enumeration. Returns `None`
/// when the base program is outside the decidable fragment or no
/// placement works (e.g. an unfenceable RMW race).
///
/// Breadth-first over placement size, so the result is minimal *among
/// static certificates*; the enumeration-based synthesizer may find a
/// smaller fix when robustness is stronger than the query needs (it
/// forbids one condition, robustness forbids every non-SC behaviour).
pub fn break_cycles(program: &Program, policy: &Policy) -> Option<Vec<FenceSlot>> {
    match analyze_static(program, policy) {
        StaticVerdict::Robust(_) => return Some(Vec::new()),
        StaticVerdict::Unknown(_) => return None,
        StaticVerdict::CycleFound(_) => {}
    }
    let slots = useful_fence_slots(program, policy);
    for k in 1..=slots.len() {
        let mut chosen: Vec<FenceSlot> = Vec::with_capacity(k);
        if let Some(fix) = choose_k(program, policy, &slots, k, 0, &mut chosen) {
            return Some(fix);
        }
    }
    None
}

fn choose_k(
    program: &Program,
    policy: &Policy,
    slots: &[FenceSlot],
    k: usize,
    from: usize,
    chosen: &mut Vec<FenceSlot>,
) -> Option<Vec<FenceSlot>> {
    if k == 0 {
        let fenced = apply_slots(program, chosen);
        return matches!(analyze_static(&fenced, policy), StaticVerdict::Robust(_))
            .then(|| chosen.clone());
    }
    for i in from..slots.len() {
        chosen.push(slots[i]);
        let found = choose_k(program, policy, slots, k - 1, i + 1, chosen);
        chosen.pop();
        if found.is_some() {
            return found;
        }
    }
    None
}

/// Enumeration-based fence synthesis seeded by the static analysis:
/// [`break_cycles`] provides an upper bound on the minimum placement
/// size (a robust program forbids everything SC forbids, so the static
/// placement already suppresses any SC-unobservable condition), and
/// [`synthesize_fences`] searches breadth-first up to that bound —
/// returning the exact same minimal fix it would find unseeded, at a
/// fraction of the candidate enumerations.
///
/// When the static pass cannot certify any placement the search falls
/// back to the full slot budget, so the result is always identical to
/// unseeded synthesis.
///
/// # Errors
///
/// Propagates enumeration failures.
pub fn synthesize_with_robust_seed(
    program: &Program,
    forbidden: &CompiledCondition,
    policy: &Policy,
    config: &EnumConfig,
) -> Result<Option<FenceFix>, EnumError> {
    let budget = match break_cycles(program, policy) {
        Some(placement) => placement.len(),
        None => useful_fence_slots(program, policy).len(),
    };
    synthesize_fences(program, forbidden, policy, budget, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use samm_core::ids::{Reg, Value};
    use samm_core::instr::{Instr, Operand};
    use samm_litmus::catalog;

    fn imm(v: u64) -> Operand {
        Operand::Imm(Value::new(v))
    }

    fn store(addr: u64, val: u64) -> Instr {
        Instr::Store {
            addr: imm(addr),
            val: imm(val),
        }
    }

    fn load(dst: usize, addr: u64) -> Instr {
        Instr::Load {
            dst: Reg::new(dst),
            addr: imm(addr),
        }
    }

    fn fast() -> EnumConfig {
        EnumConfig {
            keep_executions: false,
            ..EnumConfig::default()
        }
    }

    #[test]
    fn sb_is_non_robust_under_every_weak_model() {
        let sb = catalog::sb().test.program;
        for model in [Policy::tso(), Policy::pso(), Policy::weak()] {
            let verdict = analyze_static(&sb, &model);
            let StaticVerdict::CycleFound(cycle) = verdict else {
                panic!(
                    "SB under {} must yield a cycle, got {verdict:?}",
                    model.name()
                );
            };
            assert!(cycle.check(&sb, &model));
            let witness = cycle
                .verify(&sb, &model, &fast())
                .expect("enumeration succeeds")
                .expect("SB's cycle is realizable");
            // The witness is the 0/0 relaxation: both loads read 0.
            assert_eq!(witness.reg(0, Reg::new(0)), Value::ZERO);
            assert_eq!(witness.reg(1, Reg::new(0)), Value::ZERO);
        }
    }

    #[test]
    fn sb_is_robust_under_sc_and_when_fenced() {
        let sb = catalog::sb().test.program;
        assert!(matches!(
            analyze_static(&sb, &Policy::sequential_consistency()),
            StaticVerdict::Robust(_)
        ));
        let fenced = catalog::sb_fenced().test.program;
        for model in [Policy::tso(), Policy::pso(), Policy::weak()] {
            let StaticVerdict::Robust(cert) = analyze_static(&fenced, &model) else {
                panic!("SB+fences must be robust under {}", model.name());
            };
            assert!(cert.check(&fenced, &model));
            assert!(!cert.check(&sb, &model), "stale evidence must fail");
        }
    }

    #[test]
    fn tso_bypass_cycle_is_found_without_an_explicit_reordering() {
        // fig10's essence: store x; load x (bypass) | cross-thread
        // conflicts. Same-address bypass pairs are always delayable, so
        // store-buffer forwarding behaviours are covered.
        let t0 = ThreadProgram::new(vec![store(0, 1), load(0, 0), load(1, 1)]);
        let t1 = ThreadProgram::new(vec![store(1, 1), load(0, 1), load(1, 0)]);
        let p = Program::new(vec![t0, t1]);
        let verdict = analyze_static(&p, &Policy::tso());
        assert!(
            matches!(verdict, StaticVerdict::CycleFound(_)),
            "got {verdict:?}"
        );
    }

    #[test]
    fn branchy_and_pointer_programs_are_unknown() {
        let branchy = ThreadProgram::new(vec![
            load(0, 0),
            Instr::BranchNz {
                cond: Operand::Reg(Reg::new(0)),
                target: 3,
            },
            store(0, 1),
        ]);
        let other = ThreadProgram::new(vec![store(0, 2)]);
        assert!(matches!(
            analyze_static(&Program::new(vec![branchy, other.clone()]), &Policy::weak()),
            StaticVerdict::Unknown(UnknownReason::BranchyThread(0))
        ));
        let pointer = ThreadProgram::new(vec![
            load(0, 0),
            Instr::Load {
                dst: Reg::new(1),
                addr: Operand::Reg(Reg::new(0)),
            },
        ]);
        assert!(matches!(
            analyze_static(&Program::new(vec![pointer, other]), &Policy::weak()),
            StaticVerdict::Unknown(UnknownReason::UnknownAddress { thread: 0, .. })
        ));
    }

    #[test]
    fn broken_tables_are_declined() {
        use samm_core::policy::{Constraint, ConstraintTable};
        let chaos = Policy::custom(
            "chaos",
            ConstraintTable::from_rows([[Constraint::Free; 5]; 5]),
        );
        let p = catalog::sb_fenced().test.program;
        assert!(matches!(
            analyze_static(&p, &chaos),
            StaticVerdict::Unknown(UnknownReason::NonDeterministicTable)
        ));
    }

    #[test]
    fn racy_but_fenced_program_is_robust_beyond_drf_and_tlo() {
        // MP+fences plus thread-private scratch traffic: racy (x, flag),
        // local order not total (the scratch stores are unordered with
        // the flag store under weak), yet robust — the only conflicting
        // segments are fenced. Neither PR 2 certificate shape applies.
        let entry = catalog::mp_fenced_scratch();
        let p = &entry.test.program;
        for model in [Policy::tso(), Policy::pso(), Policy::weak()] {
            assert!(
                crate::certify(p, &model).is_none(),
                "the DRF/TLO certifier must decline under {}",
                model.name()
            );
            let StaticVerdict::Robust(cert) = analyze_static(p, &model) else {
                panic!("must be robust under {}", model.name());
            };
            assert!(cert.check(p, &model));
        }
    }

    #[test]
    fn analyze_robustness_confirms_cycles_dynamically() {
        let sb = catalog::sb().test.program;
        match analyze_robustness(&sb, &Policy::weak(), &fast()).unwrap() {
            Robustness::NotRobust { cycle, witness } => {
                assert!(cycle.check(&sb, &Policy::weak()));
                assert_eq!(witness.reg(0, Reg::new(0)), Value::ZERO);
            }
            other => panic!("SB under weak must be NotRobust, got {other:?}"),
        }
        let fenced = catalog::sb_fenced().test.program;
        assert!(matches!(
            analyze_robustness(&fenced, &Policy::weak(), &fast()).unwrap(),
            Robustness::Robust(_)
        ));
    }

    #[test]
    fn tampered_cycles_fail_check_and_refuse_to_verify() {
        let sb = catalog::sb().test.program;
        let StaticVerdict::CycleFound(cycle) = analyze_static(&sb, &Policy::weak()) else {
            panic!("SB yields a cycle");
        };
        let mut wrong_policy = cycle.clone();
        wrong_policy.policy = "SC".into();
        assert!(!wrong_policy.check(&sb, &Policy::weak()));
        let mut wrong_flag = cycle.clone();
        wrong_flag.segments[0].delayable = false;
        assert!(!wrong_flag.check(&sb, &Policy::weak()));
        assert!(wrong_flag
            .verify(&sb, &Policy::weak(), &fast())
            .unwrap()
            .is_none());
        let mut wrong_link = cycle;
        wrong_link.links[0] = Addr::new(99);
        assert!(!wrong_link.check(&sb, &Policy::weak()));
    }

    #[test]
    fn break_cycles_recovers_the_known_minimal_placements() {
        // SB needs one fence per thread under weak; MP the same; under
        // PSO only the producer fence; CoRR one consumer fence.
        let cases = [
            (catalog::sb(), Policy::weak(), 2),
            (catalog::mp(), Policy::weak(), 2),
            (catalog::mp(), Policy::pso(), 1),
            (catalog::corr(), Policy::weak(), 1),
        ];
        for (entry, policy, expect) in cases {
            let placement = break_cycles(&entry.test.program, &policy)
                .unwrap_or_else(|| panic!("{} is fenceable", entry.test.name));
            assert_eq!(
                placement.len(),
                expect,
                "{} under {}: {placement:?}",
                entry.test.name,
                policy.name()
            );
            let fenced = apply_slots(&entry.test.program, &placement);
            assert!(matches!(
                analyze_static(&fenced, &policy),
                StaticVerdict::Robust(_)
            ));
        }
    }

    #[test]
    fn robust_programs_need_no_fences() {
        let fenced = catalog::sb_fenced().test.program;
        assert_eq!(break_cycles(&fenced, &Policy::weak()), Some(Vec::new()));
    }

    #[test]
    fn seeded_synthesis_matches_unseeded_minimality() {
        for (entry, policy) in [
            (catalog::sb(), Policy::weak()),
            (catalog::mp(), Policy::weak()),
            (catalog::mp(), Policy::pso()),
            (catalog::corr(), Policy::weak()),
        ] {
            let seeded = synthesize_with_robust_seed(
                &entry.test.program,
                &entry.test.conditions[0],
                &policy,
                &fast(),
            )
            .unwrap();
            let unseeded = synthesize_fences(
                &entry.test.program,
                &entry.test.conditions[0],
                &policy,
                4,
                &fast(),
            )
            .unwrap();
            match (seeded, unseeded) {
                (Some(s), Some(u)) => assert_eq!(
                    s.placements,
                    u.placements,
                    "{} under {}",
                    entry.test.name,
                    policy.name()
                ),
                (None, None) => {}
                (s, u) => panic!(
                    "{}: seeded {:?} vs unseeded {:?}",
                    entry.test.name,
                    s.map(|f| f.placements),
                    u.map(|f| f.placements)
                ),
            }
        }
    }

    #[test]
    fn unfixable_races_survive_seeding() {
        let entry = catalog::broken_increment();
        let fix = synthesize_with_robust_seed(
            &entry.test.program,
            &entry.test.conditions[0],
            &Policy::weak(),
            &fast(),
        )
        .unwrap();
        assert!(fix.is_none(), "a data race is not a fencing problem");
    }

    #[test]
    fn cycles_render_with_threads_and_links() {
        let StaticVerdict::CycleFound(cycle) =
            analyze_static(&catalog::sb().test.program, &Policy::weak())
        else {
            panic!("SB yields a cycle");
        };
        let text = cycle.to_string();
        assert!(text.contains("T0"), "{text}");
        assert!(text.contains("delayable"), "{text}");
    }
}
