//! Seeded randomness, exact latency percentiles, memory readings and the
//! result line the benchmark prints.

use std::fmt::Write as _;

/// SplitMix64: a small, fully specified generator, so a seed names the
/// same inputs on every platform and in every later version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// How often a timed loop reads the host's steal time.
pub const MARK_EVERY: std::time::Duration = std::time::Duration::from_millis(100);

/// CPU time the host took from this machine (`steal` in `/proc/stat`)
/// and all CPU time, in clock ticks; `None` where the file is missing.
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((*cpu.get(7)?, cpu.iter().sum()))
}

/// Exact per-request samples, no bucketing, so a small shift in the
/// distribution reads as what it is: when each request finished on the
/// run's clock, how long it took, and how many answers it carried; plus
/// readings of the host's steal time at points of the same clock.
#[derive(Debug, Default)]
pub struct Samples {
    at_ns: Vec<u64>,
    nanos: Vec<u64>,
    answers: Vec<u32>,
    /// `(at_ns, steal ticks, total ticks)`.
    marks: Vec<(u64, u64, u64)>,
}

/// The figures of the quietest windows of a run.
#[derive(Debug)]
pub struct Quiet {
    pub qps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: usize,
    /// Steal share of every window, in run order.
    pub steal: Vec<f64>,
    /// Indices of the windows the figures come from.
    pub used: Vec<usize>,
}

impl Samples {
    pub fn push(&mut self, at_ns: u64, nanos: u64, answers: u32) {
        self.at_ns.push(at_ns);
        self.nanos.push(nanos);
        self.answers.push(answers);
    }

    /// Reads the host's steal time at `at_ns` on the run's clock.
    pub fn mark(&mut self, at_ns: u64) {
        if let Some((steal, total)) = host_ticks() {
            self.marks.push((at_ns, steal, total));
        }
    }

    pub fn extend(&mut self, other: Samples) {
        self.at_ns.extend(other.at_ns);
        self.nanos.extend(other.nanos);
        self.answers.extend(other.answers);
        self.marks.extend(other.marks);
    }

    pub fn len(&self) -> usize {
        self.nanos.len()
    }

    /// When the last request finished, on the run's clock.
    pub fn last_ns(&self) -> u64 {
        self.at_ns.iter().copied().max().unwrap_or(0)
    }

    /// Share of CPU time the host took between the marks around
    /// `[start, end)` (0 without marks).
    fn steal_share(marks: &[(u64, u64, u64)], start: u64, end: u64) -> f64 {
        let before = marks.iter().rev().find(|m| m.0 <= start).or(marks.first());
        let after = marks.iter().find(|m| m.0 >= end).or(marks.last());
        match (before, after) {
            (Some(b), Some(a)) => ratio(
                a.1.saturating_sub(b.1) as f64,
                a.2.saturating_sub(b.2) as f64,
            ),
            _ => 0.0,
        }
    }

    /// Cuts `[0, span_ns)` of the run's clock into `count` equal windows
    /// and measures the `keep` of them in which the host took the least
    /// CPU time from this machine: answers per second and exact
    /// percentiles over the requests that finished in those windows. A
    /// noisy neighbour then moves which windows count, not the result.
    pub fn quiet(&self, count: usize, keep: usize, span_ns: u64) -> Quiet {
        let width = (span_ns / count as u64).max(1);
        let window = |at: u64| ((at / width) as usize).min(count - 1);
        let mut marks = self.marks.clone();
        marks.sort_unstable();
        let steal: Vec<f64> = (0..count as u64)
            .map(|w| Self::steal_share(&marks, w * width, (w + 1) * width))
            .collect();
        let mut order: Vec<usize> = (0..count).collect();
        order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
        let mut used: Vec<usize> = order[..keep.min(count)].to_vec();
        used.sort_unstable();
        let mut nanos = Vec::new();
        let mut answers = 0u64;
        for i in 0..self.len() {
            if used.contains(&window(self.at_ns[i])) {
                nanos.push(self.nanos[i]);
                answers += u64::from(self.answers[i]);
            }
        }
        nanos.sort_unstable();
        Quiet {
            qps: answers as f64 / (used.len() as f64 * width as f64 / 1e9),
            p50_us: quantile_us(&nanos, 0.50),
            p99_us: quantile_us(&nanos, 0.99),
            samples: nanos.len(),
            steal,
            used,
        }
    }
}

/// The nearest-rank `q`-quantile of sorted nanoseconds, in µs (0 when
/// empty).
pub fn quantile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

/// Median of a non-empty list of readings.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size (`VmHWM`) of a process in MiB; `None` reads
/// this process.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What one run found: answers attempted and failed, the metrics it
/// measured, and human-readable notes printed before the result line.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// A check outside the per-answer comparison failed (for example the
    /// trace attribution check).
    pub broken: bool,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.broken && self.attempted > 0
    }

    /// The result object: the last line of standard output.
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            if i > 0 {
                metrics.push(',');
            }
            write!(
                metrics,
                "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let sorted: Vec<u64> = (1..=1000).map(|n| n * 1000).collect();
        assert_eq!(quantile_us(&sorted, 0.5), 500.0);
        assert_eq!(quantile_us(&sorted, 0.99), 990.0);
        assert_eq!(quantile_us(&sorted, 1.0), 1000.0);
    }

    #[test]
    fn quiet_half_skips_the_windows_the_host_took() {
        let mut s = Samples::default();
        // Four 1 s windows; the host steals half the CPU in windows 1 and
        // 2, where requests are slow.
        let sec = 1_000_000_000u64;
        for (at, steal, total) in [
            (0, 0, 0),
            (1, 0, 100),
            (2, 50, 200),
            (3, 100, 300),
            (4, 100, 400),
        ] {
            s.marks.push((at * sec, steal, total));
        }
        for (w, nanos) in [(0u64, 1_000u64), (1, 9_000), (2, 9_000), (3, 2_000)] {
            for i in 0..10 {
                s.push(w * sec + i * sec / 10, nanos, 1);
            }
        }
        let q = s.quiet(4, 2, 4 * sec);
        assert_eq!(q.steal, vec![0.0, 0.5, 0.5, 0.0]);
        assert_eq!(q.used, vec![0, 3]);
        assert_eq!(q.samples, 20);
        assert!((q.qps - 10.0).abs() < 1e-9);
        assert_eq!((q.p50_us, q.p99_us), (1.0, 2.0));
    }

    #[test]
    fn same_seed_same_shuffle() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(9).shuffle(&mut a);
        Rng::new(9).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..50).collect();
        Rng::new(10).shuffle(&mut c);
        assert_ne!(a, c);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("setup_s", 0.25, "s");
        assert_eq!(
            r.result_line(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
    }
}
