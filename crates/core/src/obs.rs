//! Observability: enumeration counters, per-phase timings, and a
//! structured event-trace sink.
//!
//! The enumerators answer "which behaviours exist"; this module answers
//! *how* they were found. Two independent facilities:
//!
//! * [`Obs`] — a block of relaxed atomic counters shared (via `Arc`) by
//!   every fork of a [`crate::exec::Behavior`]. It counts closure-rule
//!   applications by rule (a/b/c of the paper's Figure 6), closure
//!   rounds, `candidates(L)` queries, and accumulates wall-clock nanos
//!   per enumeration phase. Disabled (`Option::None`) it costs one
//!   pointer-null check per site — see experiment E19 for the measured
//!   overhead.
//! * [`TraceSink`] — a structured event stream of fork / prune / commit
//!   events emitted only by the serial oracle. Replaying the fork
//!   ancestry of a committed behaviour reconstructs exactly which
//!   `(load, store)` resolutions produced it; [`crate::explain`] builds
//!   witnesses and refutations on top of it. The production engine's
//!   claim prunes are counted in [`crate::pruned::PruneStats`], not
//!   streamed.
//!
//! No external dependencies: the JSON emitted by [`ObsStats::to_json`]
//! is hand-rolled (flat objects of unsigned integers only).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::ids::NodeId;

/// Live atomic counters, shared by every fork of an instrumented
/// enumeration. All updates use [`Ordering::Relaxed`]: the counters are
/// statistics, not synchronization.
#[derive(Debug, Default)]
pub struct Obs {
    /// Store Atomicity rule-a edge insertions (Figure 6 left).
    pub rule_a: AtomicU64,
    /// Store Atomicity rule-b edge insertions (Figure 6 middle).
    pub rule_b: AtomicU64,
    /// Store Atomicity rule-c edge insertions (Figure 6 right).
    pub rule_c: AtomicU64,
    /// Fixpoint rounds executed by [`crate::atomicity::enforce`].
    pub closure_rounds: AtomicU64,
    /// Calls to [`crate::candidates::candidates`] made by the fork loops.
    pub candidate_calls: AtomicU64,
    /// Total candidate stores those calls returned (i.e. forks offered).
    pub candidate_stores: AtomicU64,
    /// Nanoseconds inside the Store Atomicity closure.
    pub closure_nanos: AtomicU64,
    /// Nanoseconds inside [`crate::exec::Behavior::settle`] (includes the
    /// closure time of the calls it makes).
    pub settle_nanos: AtomicU64,
    /// Nanoseconds inside [`crate::exec::Behavior::resolve_load`]
    /// (includes the closure time of the calls it makes).
    pub resolve_nanos: AtomicU64,
}

impl Obs {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Obs::default()
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time plain-value snapshot.
    pub fn snapshot(&self) -> ObsStats {
        ObsStats {
            rule_a: self.rule_a.load(Ordering::Relaxed),
            rule_b: self.rule_b.load(Ordering::Relaxed),
            rule_c: self.rule_c.load(Ordering::Relaxed),
            closure_rounds: self.closure_rounds.load(Ordering::Relaxed),
            candidate_calls: self.candidate_calls.load(Ordering::Relaxed),
            candidate_stores: self.candidate_stores.load(Ordering::Relaxed),
            closure_nanos: self.closure_nanos.load(Ordering::Relaxed),
            settle_nanos: self.settle_nanos.load(Ordering::Relaxed),
            resolve_nanos: self.resolve_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A serializable snapshot of [`Obs`], carried on
/// [`crate::enumerate::EnumStats::obs`] when instrumentation is on.
///
/// The counter fields are deterministic for a fixed program/policy/config
/// (both engines apply the same closure to the same fork set); the
/// `*_nanos` timings are wall-clock and vary run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsStats {
    /// Rule-a edge insertions.
    pub rule_a: u64,
    /// Rule-b edge insertions.
    pub rule_b: u64,
    /// Rule-c edge insertions.
    pub rule_c: u64,
    /// Closure fixpoint rounds.
    pub closure_rounds: u64,
    /// `candidates(L)` queries.
    pub candidate_calls: u64,
    /// Candidate stores returned across all queries.
    pub candidate_stores: u64,
    /// Nanoseconds inside the Store Atomicity closure.
    pub closure_nanos: u64,
    /// Nanoseconds inside `settle` (superset of its closure time).
    pub settle_nanos: u64,
    /// Nanoseconds inside `resolve_load` (superset of its closure time).
    pub resolve_nanos: u64,
}

impl ObsStats {
    /// Renders the snapshot as a flat JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule_a\":{},\"rule_b\":{},\"rule_c\":{},\"closure_rounds\":{},\
             \"candidate_calls\":{},\"candidate_stores\":{},\"closure_nanos\":{},\
             \"settle_nanos\":{},\"resolve_nanos\":{}}}",
            self.rule_a,
            self.rule_b,
            self.rule_c,
            self.closure_rounds,
            self.candidate_calls,
            self.candidate_stores,
            self.closure_nanos,
            self.settle_nanos,
            self.resolve_nanos,
        )
    }

    /// The counter fields only, with timings zeroed — the deterministic
    /// part suitable for cross-engine and cross-run comparison.
    pub fn counters(&self) -> ObsStats {
        ObsStats {
            closure_nanos: 0,
            settle_nanos: 0,
            resolve_nanos: 0,
            ..*self
        }
    }

    /// Total closure-rule edge insertions (a + b + c).
    pub fn rule_edges(&self) -> u64 {
        self.rule_a + self.rule_b + self.rule_c
    }
}

impl fmt::Display for ObsStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rules a/b/c {}/{}/{} over {} rounds, {} candidate queries \
             yielding {} stores, closure {}µs, settle {}µs, resolve {}µs",
            self.rule_a,
            self.rule_b,
            self.rule_c,
            self.closure_rounds,
            self.candidate_calls,
            self.candidate_stores,
            self.closure_nanos / 1_000,
            self.settle_nanos / 1_000,
            self.resolve_nanos / 1_000,
        )
    }
}

/// Why a forked behaviour was discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneReason {
    /// The fork settled to a canonical key already seen (dedup hit).
    Duplicate,
    /// The resolution violated Store Atomicity (closure cycle) and was
    /// rolled back — or, for non-speculative models, failed outright.
    Inconsistent,
}

impl fmt::Display for PruneReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PruneReason::Duplicate => "duplicate",
            PruneReason::Inconsistent => "inconsistent",
        })
    }
}

/// One structured event from the serial enumerator's fork loop.
///
/// Behaviour ids are assigned in fork order starting from the root's
/// id 0, so the serial engine's trace is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// `parent` forked `child` by resolving `load` to `store`.
    Fork {
        /// Trace id of the behaviour that forked.
        parent: u64,
        /// Trace id assigned to the fork.
        child: u64,
        /// The load being resolved.
        load: NodeId,
        /// The candidate store it observes.
        store: NodeId,
    },
    /// The fork `child` was discarded.
    Prune {
        /// Trace id of the discarded fork.
        child: u64,
        /// Why it was discarded.
        reason: PruneReason,
    },
    /// Behaviour `id` completed (every load resolved) and was yielded.
    Commit {
        /// Trace id of the completed behaviour.
        id: u64,
    },
}

/// A sink for [`TraceEvent`]s. Implementations must be thread-safe even
/// though only the serial oracle emits events, so a sink can be shared
/// across harness threads.
pub trait TraceSink: Send + Sync + fmt::Debug {
    /// Records one event.
    fn record(&self, event: TraceEvent);
}

/// The vendored in-memory sink: an append-only event log.
#[derive(Debug, Default)]
pub struct MemoryTrace {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemoryTrace {
    /// An empty trace.
    pub fn new() -> Self {
        MemoryTrace::default()
    }

    /// A copy of every event recorded so far, in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace poisoned").clone()
    }

    /// Reconstructs the resolution path of behaviour `id`: the
    /// `(load, store)` pairs applied from the root (trace id 0) down to
    /// `id`, in application order. Returns `None` if `id` never appeared
    /// as a fork child (i.e. it is the root or unknown).
    pub fn path_to(&self, id: u64) -> Option<Vec<(NodeId, NodeId)>> {
        let events = self.events.lock().expect("trace poisoned");
        let mut path = Vec::new();
        let mut cursor = id;
        while cursor != 0 {
            let fork = events.iter().find_map(|e| match *e {
                TraceEvent::Fork {
                    parent,
                    child,
                    load,
                    store,
                } if child == cursor => Some((parent, load, store)),
                _ => None,
            })?;
            path.push((fork.1, fork.2));
            cursor = fork.0;
        }
        path.reverse();
        Some(path)
    }
}

impl TraceSink for MemoryTrace {
    fn record(&self, event: TraceEvent) {
        self.events.lock().expect("trace poisoned").push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_adds() {
        let obs = Obs::new();
        Obs::add(&obs.rule_a, 2);
        Obs::add(&obs.rule_c, 1);
        Obs::add(&obs.closure_rounds, 3);
        let snap = obs.snapshot();
        assert_eq!(snap.rule_a, 2);
        assert_eq!(snap.rule_b, 0);
        assert_eq!(snap.rule_c, 1);
        assert_eq!(snap.rule_edges(), 3);
        assert_eq!(snap.closure_rounds, 3);
    }

    #[test]
    fn counters_zeroes_timings() {
        let snap = ObsStats {
            rule_a: 1,
            closure_nanos: 99,
            settle_nanos: 7,
            resolve_nanos: 3,
            ..ObsStats::default()
        };
        let counters = snap.counters();
        assert_eq!(counters.rule_a, 1);
        assert_eq!(counters.closure_nanos, 0);
        assert_eq!(counters.settle_nanos, 0);
        assert_eq!(counters.resolve_nanos, 0);
    }

    #[test]
    fn json_is_flat_and_complete() {
        let json = ObsStats::default().to_json();
        for key in [
            "rule_a",
            "rule_b",
            "rule_c",
            "closure_rounds",
            "candidate_calls",
            "candidate_stores",
            "closure_nanos",
            "settle_nanos",
            "resolve_nanos",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
    }

    #[test]
    fn memory_trace_rebuilds_fork_paths() {
        let trace = MemoryTrace::new();
        let (l1, s1) = (NodeId::new(4), NodeId::new(1));
        let (l2, s2) = (NodeId::new(5), NodeId::new(2));
        trace.record(TraceEvent::Fork {
            parent: 0,
            child: 1,
            load: l1,
            store: s1,
        });
        trace.record(TraceEvent::Prune {
            child: 1,
            reason: PruneReason::Duplicate,
        });
        trace.record(TraceEvent::Fork {
            parent: 0,
            child: 2,
            load: l1,
            store: s2,
        });
        trace.record(TraceEvent::Fork {
            parent: 2,
            child: 3,
            load: l2,
            store: s1,
        });
        trace.record(TraceEvent::Commit { id: 3 });
        assert_eq!(trace.path_to(3), Some(vec![(l1, s2), (l2, s1)]));
        assert_eq!(trace.path_to(1), Some(vec![(l1, s1)]));
        assert_eq!(trace.path_to(7), None);
        assert_eq!(trace.events().len(), 5);
    }
}
