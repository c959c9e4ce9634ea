//! `samm-top` — live terminal dashboard for a running `samm-serve`.
//!
//! ```text
//! samm-top [--addr HOST:PORT] [--interval-ms N] [--once]
//! ```
//!
//! Polls the service's `metrics` request on one persistent connection
//! and renders an ANSI dashboard: throughput (deltas between polls plus
//! the server's own 5-second rate window), per-kind latency quantiles,
//! cache hit rate, queue depth and overload rejections, and closure
//! rule-application rates. `--once` prints a single snapshot without
//! clearing the screen — the mode CI uses to smoke-test the pipeline.
//!
//! Against a set of replicas, run one `samm-top` per replica: each
//! dashboard shows that replica's own view.
//!
//! The dashboard is std-only: no curses, no external crates. It redraws
//! with plain ANSI escapes (`ESC[2J` clear, `ESC[H` home), so any VT100
//! terminal works.

use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use samm_serve::client::Client;
use samm_serve::json::Json;

const TIMEOUT: Duration = Duration::from_secs(10);

fn usage() -> ! {
    eprintln!("usage: samm-top [--addr HOST:PORT] [--interval-ms N] [--once]");
    std::process::exit(2);
}

struct Options {
    addr: String,
    interval: Duration,
    once: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: "127.0.0.1:7477".to_owned(),
            interval: Duration::from_millis(1000),
            once: false,
        }
    }
}

/// The numbers one poll extracts from the `metrics` response. Missing
/// fields read as zero so the dashboard degrades gracefully against
/// older servers.
#[derive(Default, Clone)]
struct Sample {
    requests: f64,
    monitoring: f64,
    errors: f64,
    overloaded: f64,
    uptime_secs: f64,
    queue_depth: f64,
    rate_5s: f64,
    slow_queries: f64,
    cache_hits: f64,
    cache_misses: f64,
    cache_entries: f64,
    rule_a: f64,
    rule_b: f64,
    rule_c: f64,
    closure_rounds: f64,
    explored: f64,
    forks: f64,
    deduped: f64,
    /// Per kind: (hit, miss, overbudget, errors, p50, p90, p99, max) —
    /// latencies in milliseconds.
    kinds: Vec<(String, [f64; 8])>,
}

fn num(value: Option<&Json>) -> f64 {
    value.and_then(Json::as_f64).unwrap_or(0.0)
}

fn extract(metrics: &Json) -> Sample {
    let mut sample = Sample {
        requests: num(metrics.get("requests")),
        monitoring: num(metrics.get("monitoring")),
        errors: num(metrics.get("errors")),
        overloaded: num(metrics.get("overloaded")),
        ..Sample::default()
    };
    if let Some(cache) = metrics.get("cache") {
        sample.cache_hits = num(cache.get("hits"));
        sample.cache_misses = num(cache.get("misses"));
        sample.cache_entries = num(cache.get("entries"));
    }
    let Some(telemetry) = metrics.get("telemetry") else {
        return sample;
    };
    sample.uptime_secs = num(telemetry.get("uptime_secs"));
    sample.queue_depth = num(telemetry.get("queue_depth"));
    sample.rate_5s = num(telemetry.get("rate_5s"));
    sample.slow_queries = num(telemetry.get("slow_queries"));
    if let Some(rules) = telemetry.get("rules") {
        sample.rule_a = num(rules.get("rule_a"));
        sample.rule_b = num(rules.get("rule_b"));
        sample.rule_c = num(rules.get("rule_c"));
        sample.closure_rounds = num(rules.get("closure_rounds"));
    }
    if let Some(enumeration) = telemetry.get("enumeration") {
        sample.explored = num(enumeration.get("explored"));
        sample.forks = num(enumeration.get("forks"));
        sample.deduped = num(enumeration.get("deduped"));
    }
    if let Some(Json::Obj(kinds)) = telemetry.get("kinds") {
        for (name, k) in kinds {
            sample.kinds.push((
                name.clone(),
                [
                    num(k.get("hit")),
                    num(k.get("miss")),
                    num(k.get("overbudget")),
                    num(k.get("errors")),
                    num(k.get("p50_ms")),
                    num(k.get("p90_ms")),
                    num(k.get("p99_ms")),
                    num(k.get("max_ms")),
                ],
            ));
        }
    }
    sample
}

fn fmt_uptime(secs: f64) -> String {
    let total = secs as u64;
    format!(
        "{}:{:02}:{:02}",
        total / 3600,
        (total / 60) % 60,
        total % 60
    )
}

fn render(sample: &Sample, previous: Option<(&Sample, Duration)>, addr: &str) -> String {
    let mut out = String::new();
    // Observed request rate from the delta between our own polls; the
    // server's 5-second window is shown alongside as `rate5s`.
    let observed = previous
        .map(|(prev, dt)| {
            let dt = dt.as_secs_f64().max(1e-9);
            (sample.requests - prev.requests).max(0.0) / dt
        })
        .unwrap_or(0.0);
    let rule_rate = previous
        .map(|(prev, dt)| {
            let dt = dt.as_secs_f64().max(1e-9);
            let delta = (sample.rule_a + sample.rule_b + sample.rule_c)
                - (prev.rule_a + prev.rule_b + prev.rule_c);
            delta.max(0.0) / dt
        })
        .unwrap_or(0.0);
    let lookups = sample.cache_hits + sample.cache_misses;
    let hit_rate = if lookups > 0.0 {
        100.0 * sample.cache_hits / lookups
    } else {
        0.0
    };

    out.push_str(&format!(
        "samm-top — {addr}   uptime {}   req {}   mon {}   err {}\n",
        fmt_uptime(sample.uptime_secs),
        sample.requests as u64,
        sample.monitoring as u64,
        sample.errors as u64,
    ));
    out.push_str(&format!(
        "rate {observed:8.1}/s (poll)  {:8.1}/s (rate5s)   queue {}   overloaded {}   slow {}\n",
        sample.rate_5s,
        sample.queue_depth as u64,
        sample.overloaded as u64,
        sample.slow_queries as u64,
    ));
    out.push_str(&format!(
        "cache  hits {}  misses {}  entries {}  hit-rate {hit_rate:5.1}%\n",
        sample.cache_hits as u64, sample.cache_misses as u64, sample.cache_entries as u64,
    ));
    out.push_str(&format!(
        "rules  a {}  b {}  c {}  rounds {}  ({rule_rate:.0} edges/s)   enum  explored {}  forks {}  deduped {}\n",
        sample.rule_a as u64,
        sample.rule_b as u64,
        sample.rule_c as u64,
        sample.closure_rounds as u64,
        sample.explored as u64,
        sample.forks as u64,
        sample.deduped as u64,
    ));
    out.push('\n');
    out.push_str(&format!(
        "{:<12} {:>8} {:>8} {:>8} {:>6} {:>9} {:>9} {:>9} {:>9}\n",
        "kind", "hit", "miss", "overbdg", "err", "p50 ms", "p90 ms", "p99 ms", "max ms"
    ));
    for (name, k) in &sample.kinds {
        let seen = k[0] + k[1] + k[2] + k[3];
        if seen == 0.0 {
            out.push_str(&format!("{name:<12} {:>8} (idle)\n", "-"));
            continue;
        }
        out.push_str(&format!(
            "{name:<12} {:>8} {:>8} {:>8} {:>6} {:>9.3} {:>9.3} {:>9.3} {:>9.3}\n",
            k[0] as u64, k[1] as u64, k[2] as u64, k[3] as u64, k[4], k[5], k[6], k[7],
        ));
    }
    out
}

fn main() -> ExitCode {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(addr) => opts.addr = addr,
                None => usage(),
            },
            "--interval-ms" => {
                let ms: u64 = match args.next().and_then(|v| v.parse().ok()) {
                    Some(ms) => ms,
                    None => usage(),
                };
                opts.interval = Duration::from_millis(ms.max(50));
            }
            "--once" => opts.once = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("samm-top: unknown argument '{other}'");
                usage();
            }
        }
    }

    let addr: SocketAddr = match opts.addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(addr) => addr,
        None => {
            eprintln!("samm-top: cannot resolve '{}'", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    let mut client = match Client::connect(addr, TIMEOUT) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("samm-top: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut previous: Option<(Sample, Instant)> = None;
    loop {
        let metrics = match client.request_raw(r#"{"kind":"metrics"}"#) {
            Ok(metrics) => metrics,
            Err(e) => {
                eprintln!("samm-top: metrics request failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if metrics.get("ok").and_then(Json::as_bool) != Some(true) {
            eprintln!("samm-top: server refused metrics: {metrics}");
            return ExitCode::FAILURE;
        }
        let sample = extract(&metrics);
        let now = Instant::now();
        let frame = render(
            &sample,
            previous
                .as_ref()
                .map(|(prev, at)| (prev, now.duration_since(*at))),
            &opts.addr,
        );
        if opts.once {
            print!("{frame}");
            return ExitCode::SUCCESS;
        }
        // Clear + home, then the frame; q to quit is deliberately not
        // implemented (std has no raw-mode terminal) — ^C works.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        previous = Some((sample, now));
        std::thread::sleep(opts.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_reads_a_metrics_response() {
        let line = r#"{"ok":true,"kind":"metrics","requests":7,"monitoring":2,
            "errors":1,"overloaded":0,
            "cache":{"hits":3,"misses":4,"evictions":0,"insertions":4,"entries":4,"hit_rate":0.4286},
            "telemetry":{"uptime_secs":12.5,"queue_depth":1,"monitoring":2,
              "slow_queries":1,"rate_5s":0.8,
              "kinds":{"enumerate":{"hit":3,"miss":4,"overbudget":0,"errors":1,
                "p50_ms":0.5,"p90_ms":1.5,"p99_ms":2.0,"max_ms":2.5,"mean_ms":0.9}},
              "rules":{"rule_a":10,"rule_b":20,"rule_c":30,"closure_rounds":5,
                "candidate_calls":7,"candidate_stores":9},
              "enumeration":{"explored":100,"forks":120,"deduped":20}}}"#;
        let metrics = samm_serve::json::parse(line).unwrap();
        let sample = extract(&metrics);
        assert_eq!(sample.requests, 7.0);
        assert_eq!(sample.monitoring, 2.0);
        assert_eq!(sample.cache_hits, 3.0);
        assert_eq!(sample.rule_c, 30.0);
        assert_eq!(sample.explored, 100.0);
        assert_eq!(sample.kinds.len(), 1);
        let (name, k) = &sample.kinds[0];
        assert_eq!(name, "enumerate");
        assert_eq!(k[0], 3.0);
        assert_eq!(k[4], 0.5);

        let frame = render(&sample, None, "test:0");
        assert!(frame.contains("enumerate"));
        assert!(frame.contains("hit-rate"));

        let mut later = sample.clone();
        later.requests = 17.0;
        later.rule_a = 110.0;
        let frame = render(&later, Some((&sample, Duration::from_secs(2))), "test:0");
        // 10 more requests over 2 s -> 5.0/s observed.
        assert!(frame.contains("5.0/s (poll)"), "{frame}");
    }
}
