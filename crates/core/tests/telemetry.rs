//! Integration tests of the telemetry primitives: histogram quantiles
//! against an exact sorted-corpus oracle (the contract `samm-load`
//! relies on after dropping its sorted `Vec`), merge commutativity,
//! span-log rotation (and recovery from a removed file), the Prometheus
//! text-format checker, and the rate window's deterministic clock hooks.

use samm_core::telemetry::trace::{ActiveSpan, SpanKind, SpanRecord, SpanSink};
use samm_core::telemetry::{prom, Histogram, JsonlLog, RateCounter};

/// A deterministic LCG latency corpus spanning microseconds to seconds
/// — the shape a real request stream produces.
fn corpus(len: usize, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    let mut values = Vec::with_capacity(len);
    for _ in 0..len {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Spread across ~6 decades: 1µs .. ~4s in nanoseconds.
        let magnitude = 10u64.pow(3 + (state >> 60) as u32 % 7);
        values.push(1 + (state >> 8) % magnitude);
    }
    values
}

/// The exact oracle the histogram replaces: nearest-rank percentile on
/// the fully sorted corpus.
fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[test]
fn quantiles_agree_with_the_exact_oracle_within_error_bounds() {
    let values = corpus(10_000, 0xC0FFEE);
    let histogram = Histogram::new();
    for &v in &values {
        histogram.record(v);
    }
    let snap = histogram.snapshot();
    let mut sorted = values.clone();
    sorted.sort_unstable();

    for q in [0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999] {
        let exact = exact_percentile(&sorted, q) as f64;
        let approx = snap.quantile(q) as f64;
        // The bucket containing the exact value is at most
        // RELATIVE_ERROR wide relative to its lower bound, and the
        // estimate is that bucket's midpoint.
        let bound = exact * Histogram::RELATIVE_ERROR + 1.0;
        assert!(
            (approx - exact).abs() <= bound,
            "q={q}: exact {exact} vs histogram {approx} (bound {bound})"
        );
    }
    // The max is tracked exactly, not bucketed.
    assert_eq!(snap.max, *sorted.last().unwrap());
    assert_eq!(snap.quantile(1.0), snap.max);
    // The mean is exact too: sum and count are plain counters.
    let exact_mean = sorted.iter().sum::<u64>() as f64 / sorted.len() as f64;
    assert!((snap.mean() - exact_mean).abs() < 1e-6);
}

#[test]
fn small_values_are_recorded_exactly() {
    let histogram = Histogram::new();
    for v in 0..16u64 {
        histogram.record(v);
    }
    let snap = histogram.snapshot();
    // Below 16 every value owns its own unit bucket: quantiles are
    // exact (bucket midpoint of a width-1 bucket is the value itself).
    for (i, q) in (1..=16).map(|r| (r as u64 - 1, r as f64 / 16.0)) {
        assert_eq!(snap.quantile(q), i, "q={q}");
    }
}

#[test]
fn merge_is_order_independent_and_lossless() {
    let all = corpus(6_000, 7);
    let (a, rest) = all.split_at(1_000);
    let (b, c) = rest.split_at(2_500);

    let mut snaps = Vec::new();
    for part in [a, b, c] {
        let h = Histogram::new();
        for &v in part {
            h.record(v);
        }
        snaps.push(h.snapshot());
    }

    // Merge in two different orders.
    let mut forward = snaps[0].clone();
    forward.merge(&snaps[1]);
    forward.merge(&snaps[2]);
    let mut backward = snaps[2].clone();
    backward.merge(&snaps[1]);
    backward.merge(&snaps[0]);
    assert_eq!(forward, backward);

    // And against recording everything into one histogram directly.
    let whole = Histogram::new();
    for &v in &all {
        whole.record(v);
    }
    assert_eq!(forward, whole.snapshot());
}

/// A finished `server` span with a fixed duration and a fixed-width id
/// attribute, so every rendered line has the same length.
fn span(i: u64) -> SpanRecord {
    let mut span = ActiveSpan::root("server", SpanKind::Server);
    span.attr("id", format!("r{i:04}"));
    span.into_timed_record(std::time::Duration::from_micros(1))
}

/// A fresh scratch directory for one log test.
fn log_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("samm-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn jsonl_log_rotates_at_the_size_limit() {
    let dir = log_dir("log-rotation");
    let path = dir.join("slow.jsonl");
    let line_len = span(0).to_jsonl().len() as u64;
    let limit = 4 * line_len;

    let log = JsonlLog::open(&path, limit).unwrap();
    let rotated = log.rotated_path();
    for i in 0..12 {
        log.record_span(span(i));
    }
    assert_eq!(log.dropped(), 0);
    assert!(path.exists());
    assert!(rotated.exists(), "rotation must have produced {rotated:?}");
    // One rotation generation is kept: both files hold intact span
    // records and each stays within the limit (plus the line that
    // tipped it over).
    for file in [&path, &rotated] {
        let content = std::fs::read_to_string(file).unwrap();
        assert!(content.lines().count() > 0, "{file:?} must be non-empty");
        for l in content.lines() {
            assert_eq!(l.len() as u64, line_len, "{l}");
            assert!(l.starts_with("{\"trace\":\"") && l.contains("\"name\":\"server\""));
        }
        assert!(content.len() as u64 <= limit + line_len + 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn jsonl_log_recovers_when_its_file_is_removed() {
    let dir = log_dir("log-removed");
    let path = dir.join("slow.jsonl");
    let log = JsonlLog::open(&path, 64).unwrap();
    // One span line alone is over the limit, so the next write rotates.
    log.record_span(span(1));
    std::fs::remove_file(&path).unwrap();
    // Nothing is left to rotate: the log starts a fresh file instead of
    // failing every later write.
    let fresh = span(2);
    let line = fresh.to_jsonl();
    log.record_span(fresh);
    assert_eq!(log.dropped(), 0);
    let content = std::fs::read_to_string(&path).expect("the live file is back");
    assert_eq!(content, format!("{line}\n"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn prom_checker_accepts_valid_and_rejects_malformed_expositions() {
    let valid = "# HELP samm_up Whether the server is up.\n\
                 # TYPE samm_up gauge\n\
                 samm_up 1\n\
                 # HELP samm_requests_total Requests.\n\
                 # TYPE samm_requests_total counter\n\
                 samm_requests_total{kind=\"enumerate\"} 3\n\
                 samm_requests_total{kind=\"verdict\"} 4\n";
    let summary = prom::check(valid).expect("valid exposition");
    assert!(summary.has_family("samm_up"));
    assert!(summary.has_family("samm_requests_total"));
    assert_eq!(summary.samples, 3);

    for (broken, why) in [
        ("samm_up{bad-label=\"x\"} 1\n", "invalid label name"),
        ("9samm_up 1\n", "invalid metric name"),
        ("samm_up not-a-number\n", "invalid value"),
        (
            "# TYPE samm_h histogram\nsamm_h_bucket{le=\"1\"} 5\n\
             samm_h_bucket{le=\"2\"} 3\nsamm_h_bucket{le=\"+Inf\"} 5\n\
             samm_h_sum 1\nsamm_h_count 5\n",
            "non-monotone histogram",
        ),
        (
            "# TYPE samm_h histogram\nsamm_h_bucket{le=\"+Inf\"} 5\n\
             samm_h_sum 1\nsamm_h_count 7\n",
            "+Inf bucket disagrees with count",
        ),
    ] {
        assert!(prom::check(broken).is_err(), "must reject: {why}");
    }
}

#[test]
fn rate_counter_windows_are_deterministic_under_the_test_clock() {
    let rate = RateCounter::new();
    // Three events in second 100, one in 101, none in 102.
    rate.record_at(100);
    rate.record_at(100);
    rate.record_at(100);
    rate.record_at(101);
    // From second 102 the 5s window covers complete seconds 97..=101.
    assert!((rate.rate_at(102, 5) - 4.0 / 5.0).abs() < 1e-9);
    // A 1s window at second 101 sees the last complete second, 100.
    assert!((rate.rate_at(101, 1) - 3.0).abs() < 1e-9);
    // Far in the future every slot has been recycled.
    assert!((rate.rate_at(100 + 1000, 5) - 0.0).abs() < 1e-9);
}
