//! Distributed tracing spans: dependency-free building blocks for
//! following one request across threads and processes.
//!
//! A *trace* is a tree of *spans* sharing one 64-bit trace id. Each
//! span has its own span id, its parent's span id (0 for a root), a
//! name, a [`SpanKind`], a wall-clock start, a monotonic duration, and
//! a small set of key/value attributes. Spans cross process boundaries
//! as a [`TraceContext`] — a compact `trace-span` hex pair the wire
//! protocol carries in a `trace` field — and are recorded into a
//! [`SpanSink`]:
//!
//! * [`TraceRing`] — a fixed-capacity ring buffer whose write cursor is
//!   a single atomic `fetch_add`; writers never contend on a global
//!   lock (each slot is independently locked and uncontended except
//!   when the ring wraps onto an in-flight writer).
//! * [`super::JsonlLog`] — renders each span as one JSONL line
//!   ([`SpanRecord::to_jsonl`]) into a rotating file.
//!
//! Parsing a wire context is *lenient by design*: any malformed
//! `trace` value decodes to `None` and the receiver starts a fresh
//! root span — tracing must never turn a valid request into an error.

use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use super::json_escape;

/// The propagated identity of a span: enough for a remote callee to
/// attach its own spans under the caller's. Wire form is
/// `"<trace:016x>-<span:016x>"` (see [`TraceContext::encode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The 64-bit trace id shared by every span of the trace.
    pub trace: u64,
    /// The sender's span id — the parent of whatever the receiver
    /// opens.
    pub span: u64,
}

impl TraceContext {
    /// Renders the wire form: two 16-digit lowercase hex words joined
    /// by `-`.
    pub fn encode(&self) -> String {
        format!("{:016x}-{:016x}", self.trace, self.span)
    }

    /// Parses the wire form. Returns `None` — never an error — for
    /// anything malformed: wrong shape, bad hex, or a zero id (0 is
    /// the in-band "no parent" marker).
    pub fn parse(s: &str) -> Option<TraceContext> {
        let (trace, span) = s.split_once('-')?;
        if trace.len() != 16 || span.len() != 16 {
            return None;
        }
        let trace = u64::from_str_radix(trace, 16).ok()?;
        let span = u64::from_str_radix(span, 16).ok()?;
        if trace == 0 || span == 0 {
            return None;
        }
        Some(TraceContext { trace, span })
    }
}

/// What role a span plays in the request path, mirroring the usual
/// tracing vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// An outbound request as seen by its originator.
    Client,
    /// An inbound request as seen by its server.
    Server,
    /// Work inside one process (engine phases, cache lookups).
    Internal,
}

impl SpanKind {
    /// The JSONL name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Client => "client",
            SpanKind::Server => "server",
            SpanKind::Internal => "internal",
        }
    }
}

/// One attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum Attr {
    /// A static string (span vocabulary: kind names, outcome labels).
    /// Zero-allocation — the common case on the hot path.
    Static(&'static str),
    /// An owned string (node ids, request ids).
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A boolean.
    Bool(bool),
}

impl From<&'static str> for Attr {
    fn from(v: &'static str) -> Attr {
        Attr::Static(v)
    }
}

impl From<String> for Attr {
    fn from(v: String) -> Attr {
        Attr::Str(v)
    }
}

impl From<u64> for Attr {
    fn from(v: u64) -> Attr {
        Attr::U64(v)
    }
}

impl From<bool> for Attr {
    fn from(v: bool) -> Attr {
        Attr::Bool(v)
    }
}

/// A finished span, ready for a sink.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Trace id shared by the whole tree.
    pub trace: u64,
    /// This span's id.
    pub span: u64,
    /// Parent span id; 0 marks a root.
    pub parent: u64,
    /// Span name — the flamegraph frame label.
    pub name: &'static str,
    /// Role in the request path.
    pub kind: SpanKind,
    /// Wall-clock start (nanoseconds since the UNIX epoch). Only used
    /// for cross-node ordering; durations come from a monotonic clock.
    pub start_unix_ns: u64,
    /// Monotonic duration in nanoseconds.
    pub dur_ns: u64,
    /// Key/value attributes, in insertion order. Keys must not collide
    /// with the fixed JSONL fields (`trace`, `span`, `parent`, `name`,
    /// `kind`, `start_ns`, `dur_ns`).
    pub attrs: Vec<(&'static str, Attr)>,
}

impl SpanRecord {
    /// Renders the span as one flat JSONL line (no trailing newline):
    /// the fixed fields first, then every attribute as its own member.
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\",\
             \"name\":\"{}\",\"kind\":\"{}\",\"start_ns\":{},\"dur_ns\":{}",
            self.trace,
            self.span,
            self.parent,
            json_escape(self.name),
            self.kind.name(),
            self.start_unix_ns,
            self.dur_ns,
        );
        for (key, value) in &self.attrs {
            // Writing into a `String` cannot fail.
            let _ = write!(out, ",\"{}\":", json_escape(key));
            let _ = match value {
                Attr::Static(s) => write!(out, "\"{}\"", json_escape(s)),
                Attr::Str(s) => write!(out, "\"{}\"", json_escape(s)),
                Attr::U64(n) => write!(out, "{n}"),
                Attr::Bool(b) => write!(out, "{b}"),
            };
        }
        out.push('}');
        out
    }
}

/// A destination for finished spans. Implementations must be cheap and
/// infallible on the hot path — tracing never takes a request down.
pub trait SpanSink: Send + Sync + fmt::Debug {
    /// Records one finished span.
    fn record_span(&self, span: SpanRecord);
}

/// Process-unique nonzero ids: a monotone counter mixed through
/// SplitMix64 with a per-process seed (start time ⊕ pid), so ids are
/// unique across processes without coordination or an RNG
/// dependency.
fn next_id() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let seed = *SEED.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        nanos ^ ((std::process::id() as u64) << 32) | 1
    });
    let mut z = seed.wrapping_add(
        COUNTER
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z = z ^ (z >> 31);
    z | 1 // nonzero: 0 is the "no parent" marker
}

fn unix_now_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// A span being timed: created at its start, finished into a sink.
/// Creation is a handful of word writes plus one `Instant::now()`; the
/// attribute vector only allocates when attributes are added.
#[derive(Debug)]
pub struct ActiveSpan {
    trace: u64,
    span: u64,
    parent: u64,
    name: &'static str,
    kind: SpanKind,
    start_unix_ns: u64,
    started: Instant,
    attrs: Vec<(&'static str, Attr)>,
}

impl ActiveSpan {
    fn start(trace: u64, parent: u64, name: &'static str, kind: SpanKind) -> ActiveSpan {
        ActiveSpan {
            trace,
            span: next_id(),
            parent,
            name,
            kind,
            start_unix_ns: unix_now_ns(),
            started: Instant::now(),
            attrs: Vec::new(),
        }
    }

    /// Opens a root span of a brand-new trace.
    pub fn root(name: &'static str, kind: SpanKind) -> ActiveSpan {
        ActiveSpan::start(next_id(), 0, name, kind)
    }

    /// Opens a span under a propagated remote context.
    pub fn continue_trace(ctx: TraceContext, name: &'static str, kind: SpanKind) -> ActiveSpan {
        ActiveSpan::start(ctx.trace, ctx.span, name, kind)
    }

    /// Opens a child of this span (same trace).
    pub fn child(&self, name: &'static str, kind: SpanKind) -> ActiveSpan {
        ActiveSpan::start(self.trace, self.span, name, kind)
    }

    /// The context a callee should parent its spans under.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace: self.trace,
            span: self.span,
        }
    }

    /// This span's id.
    pub fn id(&self) -> u64 {
        self.span
    }

    /// Adds one attribute.
    pub fn attr(&mut self, key: &'static str, value: impl Into<Attr>) {
        self.attrs.push((key, value.into()));
    }

    /// Stamps the duration and hands the finished record to `sink`.
    pub fn finish(self, sink: &dyn SpanSink) {
        let record = self.into_record();
        sink.record_span(record);
    }

    /// Stamps the duration and returns the record without recording it
    /// (for callers that batch or decorate records themselves).
    pub fn into_record(self) -> SpanRecord {
        let elapsed = self.started.elapsed();
        self.into_timed_record(elapsed)
    }

    /// As [`ActiveSpan::into_record`], stamping `elapsed` instead of
    /// reading the span's own clock — how a caller that already timed
    /// the work keeps the span and its latency histogram on one
    /// measurement.
    pub fn into_timed_record(self, elapsed: Duration) -> SpanRecord {
        SpanRecord {
            trace: self.trace,
            span: self.span,
            parent: self.parent,
            name: self.name,
            kind: self.kind,
            start_unix_ns: self.start_unix_ns,
            dur_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            attrs: self.attrs,
        }
    }

    /// Builds an already-finished child span with an explicit duration —
    /// how measured sub-phases (e.g. the engine's closure/settle timers)
    /// are attached to a live parent after the fact.
    pub fn synthetic_child(
        &self,
        name: &'static str,
        dur_ns: u64,
        attrs: Vec<(&'static str, Attr)>,
    ) -> SpanRecord {
        SpanRecord {
            trace: self.trace,
            span: next_id(),
            parent: self.span,
            name,
            kind: SpanKind::Internal,
            start_unix_ns: self.start_unix_ns,
            dur_ns,
            attrs,
        }
    }
}

/// A lock-free-cursor ring buffer of the most recent spans. Recording
/// claims a slot with one atomic `fetch_add` and takes only that
/// slot's lock; the ring keeps the last `capacity` spans and counts
/// everything older as overwritten.
#[derive(Debug)]
pub struct TraceRing {
    slots: Vec<Mutex<Option<SpanRecord>>>,
    cursor: AtomicUsize,
}

impl TraceRing {
    /// A ring holding the most recent `capacity` (≥ 1) spans.
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Spans recorded over the ring's lifetime (including overwritten
    /// ones).
    pub fn recorded(&self) -> usize {
        self.cursor.load(Ordering::Relaxed)
    }

    /// The retained spans, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let end = self.cursor.load(Ordering::Acquire);
        let len = self.slots.len();
        let first = end.saturating_sub(len);
        (first..end)
            .filter_map(|i| self.slots[i % len].lock().expect("ring poisoned").clone())
            .collect()
    }
}

impl SpanSink for TraceRing {
    fn record_span(&self, span: SpanRecord) {
        let slot = self.cursor.fetch_add(1, Ordering::AcqRel) % self.slots.len();
        *self.slots[slot].lock().expect("ring poisoned") = Some(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_round_trips_and_rejects_garbage() {
        let ctx = TraceContext {
            trace: 0x1234_5678_9abc_def0,
            span: 0x0fed_cba9_8765_4321,
        };
        assert_eq!(TraceContext::parse(&ctx.encode()), Some(ctx));
        for bad in [
            "",
            "zzz",
            "1234",
            "123-456",
            "123456789abcdef0-nothexnothexnoth",
            "0000000000000000-0000000000000001",
            "0000000000000001-0000000000000000",
            "123456789abcdef0123456789abcdef0",
        ] {
            assert_eq!(TraceContext::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = next_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate id {id:x}");
        }
    }

    #[test]
    fn spans_nest_and_serialize() {
        let ring = TraceRing::new(8);
        let mut root = ActiveSpan::root("client", SpanKind::Client);
        root.attr("req", "enumerate");
        let ctx = root.context();
        let server = ActiveSpan::continue_trace(ctx, "server", SpanKind::Server);
        let child = server.child("enumerate", SpanKind::Internal);
        let phase = server.synthetic_child("phase:closure", 120, vec![("rounds", Attr::U64(3))]);
        assert_eq!(phase.parent, server.id());
        assert_eq!(phase.dur_ns, 120);
        child.finish(&ring);
        ring.record_span(phase);
        server.finish(&ring);
        root.finish(&ring);

        let spans = ring.snapshot();
        assert_eq!(spans.len(), 4);
        let trace = spans[0].trace;
        assert!(spans.iter().all(|s| s.trace == trace), "one trace");
        let root_rec = spans.iter().find(|s| s.name == "client").unwrap();
        assert_eq!(root_rec.parent, 0);
        let server_rec = spans.iter().find(|s| s.name == "server").unwrap();
        assert_eq!(server_rec.parent, root_rec.span);
        let child_rec = spans.iter().find(|s| s.name == "enumerate").unwrap();
        assert_eq!(child_rec.parent, server_rec.span);

        let line = root_rec.to_jsonl();
        assert!(line.contains("\"name\":\"client\""));
        assert!(line.contains("\"kind\":\"client\""));
        assert!(line.contains("\"req\":\"enumerate\""));
        assert!(line.contains("\"parent\":\"0000000000000000\""));
    }

    #[test]
    fn ring_keeps_the_most_recent_spans() {
        let ring = TraceRing::new(4);
        for i in 0..10u64 {
            let mut span = ActiveSpan::root("s", SpanKind::Internal);
            span.attr("i", i);
            span.finish(&ring);
        }
        assert_eq!(ring.recorded(), 10);
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 4);
        let kept: Vec<u64> = spans
            .iter()
            .map(|s| match &s.attrs[0].1 {
                Attr::U64(n) => *n,
                other => panic!("unexpected attr {other:?}"),
            })
            .collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn to_jsonl_escapes_attribute_strings() {
        let record = SpanRecord {
            trace: 1,
            span: 2,
            parent: 0,
            name: "server",
            kind: SpanKind::Server,
            start_unix_ns: 5,
            dur_ns: 7,
            attrs: vec![
                ("id", Attr::Str("a\"b\u{1}c".to_owned())),
                ("n", Attr::U64(3)),
                ("ok", Attr::Bool(true)),
            ],
        };
        assert_eq!(
            record.to_jsonl(),
            "{\"trace\":\"0000000000000001\",\"span\":\"0000000000000002\",\
             \"parent\":\"0000000000000000\",\"name\":\"server\",\"kind\":\"server\",\
             \"start_ns\":5,\"dur_ns\":7,\"id\":\"a\\\"b\\u0001c\",\"n\":3,\"ok\":true}"
        );
    }
}
