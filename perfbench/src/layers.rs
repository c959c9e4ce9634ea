//! Metric names and units, and the engine counters shared by every
//! workload's traced run.

use std::collections::BTreeMap;

use samm_core::enumerate::EnumStats;

use crate::stats::{ratio, Report, Samples};

/// The timed part of a run is cut into `WINDOWS` equal windows; the
/// end-to-end figures come from the `QUIET` of them in which the host
/// took the least CPU time from this machine (see `Samples::quiet`). The
/// host's steal comes in episodes of 10–60 s, so most of a 30 s run can
/// be inside one.
pub const WINDOWS: usize = 10;
pub const QUIET: usize = 3;

/// The end-to-end metrics of an untraced run.
#[derive(Debug)]
pub struct EndToEnd {
    pub samples: Samples,
    /// Length of the timed part on the samples' clock.
    pub span_ns: u64,
    /// Share of the attempted answers that were correct.
    pub ok_share: f64,
    /// Median of the run's set-ups.
    pub setup_s: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn emit(self, report: &mut Report) {
        let quiet = self.samples.quiet(WINDOWS, QUIET, self.span_ns);
        report.note(format!(
            "latency samples: {} of {} (windows {:?} of {WINDOWS}); host steal per window, %: {:?}",
            quiet.samples,
            self.samples.len(),
            quiet.used,
            quiet
                .steal
                .iter()
                .map(|s| (s * 1000.0).round() / 10.0)
                .collect::<Vec<_>>(),
        ));
        report.metric("throughput_qps", quiet.qps * self.ok_share, "1/s");
        report.metric("latency_p50_us", quiet.p50_us, "us");
        report.metric("latency_p99_us", quiet.p99_us, "us");
        report.metric("setup_s", self.setup_s, "s");
        report.metric("peak_rss_mb", self.peak_rss_mb, "MiB");
    }
}

/// Per-layer metrics of a traced run. A layer the workload never reaches
/// reads 0. Times are means per call of the layer, counts are means per
/// engine call or per wire line as named in the README.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("engine.call_us", "us"),
    ("engine.explored", "count"),
    ("engine.distinct_executions", "count"),
    ("engine.useful_ratio", "ratio"),
    ("engine.closure_us", "us"),
    ("engine.settle_us", "us"),
    ("engine.resolve_us", "us"),
    ("engine.rule_a", "count"),
    ("engine.rule_b", "count"),
    ("engine.rule_c", "count"),
    ("engine.candidate_calls", "count"),
    ("engine.candidate_stores", "count"),
    ("harness.verdict_us", "us"),
    ("fingerprint.us", "us"),
    ("cache.get_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.insertions", "count"),
    ("cache.evictions", "count"),
    ("explain.witness_us", "us"),
    ("explain.refute_us", "us"),
    ("analyze.certify_us", "us"),
    ("analyze.robust_us", "us"),
    ("analyze.certified_share", "ratio"),
    ("protocol.parse_us", "us"),
    ("handler.self_us", "us"),
    ("json.render_us", "us"),
    ("json.response_bytes", "bytes"),
    ("batch.slots_per_line", "count"),
    ("batch.line_us", "us"),
    ("io.residual_us", "us"),
    ("io.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.attribution_gap", "ratio"),
    ("trace.lines", "count"),
];

/// Largest `trace.attribution_gap` a serve workload may show: the median
/// client round trip must equal the sum of the median per-line self
/// times of the layers plus the median I/O residual within this share.
pub const ATTRIBUTION_TOLERANCE: f64 = 0.15;

/// Per-layer figures measured by one traced run.
#[derive(Debug, Default)]
pub struct Figures(BTreeMap<&'static str, f64>);

impl Figures {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, value);
    }

    /// Adds every per-layer metric to `report`, 0 for layers not reached.
    pub fn emit(&self, report: &mut Report) {
        for (name, unit) in PER_LAYER {
            report.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// Sums of the engine's own counters over a set of calls made with
/// `observe` on.
#[derive(Debug, Default)]
pub struct EngineTally {
    calls: u64,
    explored: u64,
    distinct: u64,
    closure_ns: u64,
    settle_ns: u64,
    resolve_ns: u64,
    rule_a: u64,
    rule_b: u64,
    rule_c: u64,
    candidate_calls: u64,
    candidate_stores: u64,
}

impl EngineTally {
    pub fn add(&mut self, stats: &EnumStats) {
        self.calls += 1;
        self.explored += stats.explored as u64;
        self.distinct += stats.distinct_executions as u64;
        if let Some(obs) = &stats.obs {
            self.closure_ns += obs.closure_nanos;
            self.settle_ns += obs.settle_nanos;
            self.resolve_ns += obs.resolve_nanos;
            self.rule_a += obs.rule_a;
            self.rule_b += obs.rule_b;
            self.rule_c += obs.rule_c;
            self.candidate_calls += obs.candidate_calls;
            self.candidate_stores += obs.candidate_stores;
        }
    }

    pub fn absorb(&mut self, other: EngineTally) {
        self.calls += other.calls;
        self.explored += other.explored;
        self.distinct += other.distinct;
        self.closure_ns += other.closure_ns;
        self.settle_ns += other.settle_ns;
        self.resolve_ns += other.resolve_ns;
        self.rule_a += other.rule_a;
        self.rule_b += other.rule_b;
        self.rule_c += other.rule_c;
        self.candidate_calls += other.candidate_calls;
        self.candidate_stores += other.candidate_stores;
    }

    /// Sets the `engine.*` figures as means per call; `call_us` is the
    /// mean wall time of the calls as timed by the caller.
    pub fn emit(&self, figures: &mut Figures, call_us: f64) {
        let per_call = |v: u64| ratio(v as f64, self.calls as f64);
        figures.set("engine.call_us", call_us);
        figures.set("engine.explored", per_call(self.explored));
        figures.set("engine.distinct_executions", per_call(self.distinct));
        figures.set(
            "engine.useful_ratio",
            ratio(self.distinct as f64, self.explored as f64),
        );
        figures.set("engine.closure_us", per_call(self.closure_ns) / 1e3);
        figures.set("engine.settle_us", per_call(self.settle_ns) / 1e3);
        figures.set("engine.resolve_us", per_call(self.resolve_ns) / 1e3);
        figures.set("engine.rule_a", per_call(self.rule_a));
        figures.set("engine.rule_b", per_call(self.rule_b));
        figures.set("engine.rule_c", per_call(self.rule_c));
        figures.set("engine.candidate_calls", per_call(self.candidate_calls));
        figures.set("engine.candidate_stores", per_call(self.candidate_stores));
    }
}
