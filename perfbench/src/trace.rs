//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is a name, a start, an end and the span that caused it; spans
//! of one wire line or one query share a trace number. Spans are kept in
//! memory and written out as JSON lines when the run ends. A layer's self
//! time is its span's duration minus the durations of its child spans.
//! Child spans of a handler are the benchmark's own calls into the inner
//! layers for the same key, made just before the handler call, so they
//! sit beside the handler on the time line and are attributed to it by
//! their parent link.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// One time origin for every tracer of the process, so spans from
/// several threads share a time line.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u32,
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        trace: u32,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            trace,
            id,
            parent,
            name,
            start_ns: since_epoch(start),
            end_ns: since_epoch(end),
        });
        id
    }

    /// Reserves a span whose times are set later with [`Tracer::set`],
    /// so children recorded before it can name it as their parent.
    pub fn reserve(&mut self, trace: u32, parent: u32, name: &'static str) -> u32 {
        let now = Instant::now();
        self.record(trace, parent, name, now, now)
    }

    pub fn set(&mut self, id: u32, start: Instant, end: Instant) {
        let span = &mut self.spans[id as usize - 1];
        span.start_ns = since_epoch(start);
        span.end_ns = since_epoch(end);
    }

    /// Appends another tracer's spans, renumbering their ids and traces
    /// so both stay unique.
    pub fn absorb(&mut self, other: Tracer) {
        let id_base = self.spans.len() as u32;
        let trace_base = self.spans.iter().map(|s| s.trace).max().unwrap_or(0);
        for mut span in other.spans {
            span.id += id_base;
            if span.parent != 0 {
                span.parent += id_base;
            }
            span.trace += trace_base;
            self.spans.push(span);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like `spans` (ids are 1-based).
    fn self_nanos(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.nanos() as i64).collect();
        for span in &self.spans {
            if span.parent != 0 {
                own[span.parent as usize - 1] -= span.nanos() as i64;
            }
        }
        own
    }

    /// Per span name: total self time in nanoseconds and span count.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, (i64, u64)> {
        let mut totals: BTreeMap<&'static str, (i64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_nanos()) {
            let entry = totals.entry(span.name).or_default();
            entry.0 += own;
            entry.1 += 1;
        }
        totals
    }

    /// Mean duration (not self time) of the spans named `name`, in µs.
    pub fn mean_us(&self, name: &str) -> f64 {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(sum, n), s| (sum + s.nanos(), n + 1));
        crate::stats::ratio(sum as f64, n as f64) / 1e3
    }

    /// Compares the median root span with the sum over layers of the
    /// median per-trace self time (a layer absent from a trace counts
    /// 0 there). Returns `|root - sum| / root`.
    pub fn attribution_gap(&self) -> f64 {
        let own = self.self_nanos();
        let mut roots: Vec<f64> = Vec::new();
        let mut per_trace: BTreeMap<&'static str, BTreeMap<u32, f64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            if span.parent == 0 {
                roots.push(span.nanos() as f64);
            }
            *per_trace
                .entry(span.name)
                .or_default()
                .entry(span.trace)
                .or_default() += own as f64;
        }
        let traces = roots.len();
        let root = crate::stats::median(&roots);
        let layers: f64 = per_trace
            .values()
            .map(|by_trace| {
                let mut v: Vec<f64> = by_trace.values().copied().collect();
                v.resize(traces.max(v.len()), 0.0);
                crate::stats::median(&v)
            })
            .sum();
        crate::stats::ratio((root - layers).abs(), root)
    }

    /// Writes the spans of a traced run to
    /// `perfbench/out/trace-<workload>-<seed>.jsonl` (relative to the
    /// checkout root) and returns a note saying where, or why not.
    pub fn save(&self, workload: &str, seed: u64) -> String {
        let path = Path::new("perfbench/out").join(format!("trace-{workload}-{seed}.jsonl"));
        match self.write(&path) {
            Ok(()) => format!("spans written to {}", path.display()),
            Err(err) => format!("could not write spans to {}: {err}", path.display()),
        }
    }

    /// Writes every span as one JSON object per line.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        // Later than the shared epoch, whenever that is first read.
        let t0 = Instant::now() + Duration::from_secs(1);
        let ms = |n| t0 + Duration::from_millis(n);
        let root = t.record(1, 0, "client", ms(0), ms(10));
        let handler = t.record(1, root, "handler", ms(1), ms(7));
        t.record(1, handler, "engine", ms(2), ms(6));
        let totals = t.layer_totals();
        assert_eq!(totals["client"], (4_000_000, 1));
        assert_eq!(totals["handler"], (2_000_000, 1));
        assert_eq!(totals["engine"], (4_000_000, 1));
        assert!(t.attribution_gap() < 1e-9);
    }
}
