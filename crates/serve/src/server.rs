//! Server configuration and the Prometheus HTTP side listener.
//!
//! [`ServerConfig`] is the one configuration type of the service: it
//! covers the readiness-driven I/O core in [`crate::event_loop`]
//! (loops, connection and pipeline limits, drain deadline, poller), the
//! handler worker pool, the cache geometry and persistence, and the
//! telemetry sinks. [`crate::start`] takes it and returns a running
//! [`crate::ServerHandle`].

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use crate::handler::ServerState;
use crate::sys::PollerKind;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS choose.
    pub addr: String,
    /// Handler worker threads executing parsed requests.
    pub workers: usize,
    /// Event-loop threads. Loop 0 also owns the listener.
    pub loops: usize,
    /// Open connections across all loops before new ones are rejected
    /// with the structured `overloaded` error.
    pub max_connections: usize,
    /// In-flight requests per connection before the loop stops reading
    /// that socket (pipelining backpressure).
    pub max_pipeline: usize,
    /// How long a graceful drain waits for in-flight work and pending
    /// writes before forcing connections closed.
    pub drain_deadline: Duration,
    /// Readiness backend.
    pub poller: PollerKind,
    /// Idle-connection timeout: a connection with nothing in flight is
    /// closed once it has been quiet this long.
    pub read_timeout: Duration,
    /// Default per-request fork budget (requests may override).
    pub budget: Option<u64>,
    /// Cache shard count.
    pub cache_shards: usize,
    /// Cache capacity per shard.
    pub cache_capacity: usize,
    /// When set, the cache is loaded from this file on start and saved
    /// back on drain.
    pub persist_path: Option<PathBuf>,
    /// Run enumerations instrumented, feeding the aggregated
    /// closure-rule counters in the exposition (≈ noise-level cost, see
    /// EXPERIMENTS E19/E22).
    pub observe: bool,
    /// When set, bind a plain-HTTP listener on this address serving the
    /// Prometheus exposition (`GET /metrics`).
    pub prom_addr: Option<String>,
    /// When set, append the span record of every request at or over
    /// `slow_threshold` to this file — the trace log's `server`/`sub`
    /// spans filtered by duration.
    pub slow_log: Option<PathBuf>,
    /// Requests at or over this duration are logged as slow.
    pub slow_threshold: Duration,
    /// Rotate the slow log after roughly this many bytes.
    pub slow_log_max_bytes: u64,
    /// When set, append one JSONL span record per finished trace span
    /// to this file (see docs/OBSERVABILITY.md).
    pub trace_log: Option<PathBuf>,
    /// Rotate the trace log after roughly this many bytes.
    pub trace_log_max_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            loops: 1,
            max_connections: 10_000,
            max_pipeline: 64,
            drain_deadline: Duration::from_secs(5),
            poller: PollerKind::default_for_platform(),
            read_timeout: Duration::from_secs(10),
            budget: None,
            cache_shards: 16,
            cache_capacity: 256,
            persist_path: None,
            observe: true,
            prom_addr: None,
            slow_log: None,
            slow_threshold: Duration::from_millis(100),
            slow_log_max_bytes: 16 * 1024 * 1024,
            trace_log: None,
            trace_log_max_bytes: 64 * 1024 * 1024,
        }
    }
}

/// Unblocks a `TcpListener::accept` by completing one loopback
/// connection; the listener rechecks its shutdown flag afterwards.
pub(crate) fn wake_acceptor(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

/// Serves the Prometheus text exposition over bare HTTP/1.0: reads one
/// request head, answers `GET /metrics` (and `GET /`) with the current
/// exposition, anything else with 404, then closes. One connection at a
/// time — scrapes are rare and the render is cheap.
pub(crate) fn prom_loop(
    listener: &TcpListener,
    state: &ServerState,
    is_shutdown: impl Fn() -> bool,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if is_shutdown() {
            return;
        }
        serve_prom_http(state, stream);
    }
}

fn serve_prom_http(state: &ServerState, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain the header block so well-behaved clients see a clean close.
    let mut header = String::new();
    loop {
        header.clear();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header.trim().is_empty() => break,
            Ok(_) => {}
            Err(_) => return,
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = if method == "GET" && (path == "/metrics" || path == "/") {
        ("200 OK", state.render_prom())
    } else {
        ("404 Not Found", "not found\n".to_owned())
    };
    let _ = write!(
        writer,
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = writer.flush();
}
