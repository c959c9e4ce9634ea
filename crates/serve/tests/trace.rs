//! Tracing end to end on one node: a traced client request yields ONE
//! trace whose client/server/enumerate/engine-phase spans link up
//! across the client's and the server's span logs, and malformed
//! `trace` fields degrade to fresh root spans instead of errors.

#![cfg(unix)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use samm_core::telemetry::trace::{ActiveSpan, SpanKind};
use samm_core::telemetry::JsonlLog;
use samm_serve::client::Client;
use samm_serve::json::Json;
use samm_serve::ServerConfig;

const TIMEOUT: Duration = Duration::from_secs(20);

fn ok(response: &Json) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
}

fn traced_config(log: &Path) -> ServerConfig {
    ServerConfig {
        workers: 2,
        read_timeout: Duration::from_secs(5),
        trace_log: Some(log.to_path_buf()),
        ..ServerConfig::default()
    }
}

/// One span row parsed back out of a trace log.
#[derive(Debug, Clone)]
struct Row {
    span: String,
    parent: String,
    name: String,
    dur_ns: u64,
}

/// All spans of `trace_hex` across the given logs, keyed by span id.
fn spans_of_trace(logs: &[PathBuf], trace_hex: &str) -> BTreeMap<String, Row> {
    let mut rows = BTreeMap::new();
    for log in logs {
        let body = std::fs::read_to_string(log).unwrap_or_default();
        for line in body.lines() {
            let value = samm_serve::json::parse(line).unwrap();
            if value.get("trace").and_then(Json::as_str) != Some(trace_hex) {
                continue;
            }
            let field = |k: &str| value.get(k).and_then(Json::as_str).unwrap().to_owned();
            let row = Row {
                span: field("span"),
                parent: field("parent"),
                name: field("name"),
                dur_ns: value.get("dur_ns").and_then(Json::as_u64).unwrap(),
            };
            rows.insert(row.span.clone(), row);
        }
    }
    rows
}

/// The one child of `parent` named `name`.
fn child<'a>(rows: &'a BTreeMap<String, Row>, parent: &Row, name: &str) -> &'a Row {
    let found: Vec<&Row> = rows
        .values()
        .filter(|r| r.name == name && r.parent == parent.span)
        .collect();
    assert_eq!(found.len(), 1, "one {name} under {parent:?}: {rows:?}");
    found[0]
}

#[test]
fn traced_request_yields_one_linked_trace() {
    let dir = std::env::temp_dir().join(format!("samm-trace-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let server_log = dir.join("server.trace.jsonl");
    let client_log = dir.join("client.trace.jsonl");
    for log in [&server_log, &client_log] {
        let _ = std::fs::remove_file(log);
    }
    let handle = samm_serve::start(traced_config(&server_log)).unwrap();
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();

    // What `samm-load --trace` does: open a client root span, splice
    // its context and a request id into the line, and record the span
    // in the client's own log once the answer is back.
    let tracer = JsonlLog::open(client_log.clone(), 1024 * 1024).unwrap();
    let mut span = ActiveSpan::root("client", SpanKind::Client);
    span.attr("req", "enumerate");
    let ctx = span.context();
    let line = format!(
        r#"{{"kind":"enumerate","test":"IRIW","model":"Weak","id":"load-1-0","trace":"{}"}}"#,
        ctx.encode()
    );
    let response = client.request_raw(&line).unwrap();
    assert!(ok(&response), "{response}");
    assert_eq!(
        response.get("cache_hit").and_then(Json::as_bool),
        Some(false)
    );
    span.finish(&tracer);

    drop(client);
    handle.shutdown().unwrap();

    let rows = spans_of_trace(&[client_log, server_log], &format!("{:016x}", ctx.trace));
    let root = rows
        .get(&format!("{:016x}", ctx.span))
        .unwrap_or_else(|| panic!("the client span is in the client log: {rows:?}"));
    assert_eq!(root.name, "client");
    assert_eq!(root.parent, "0000000000000000");

    // client → server → enumerate → phase:*, every hop in one trace.
    let server = child(&rows, root, "server");
    let work = child(&rows, server, "enumerate");
    let phases: Vec<&Row> = rows
        .values()
        .filter(|r| r.name.starts_with("phase:") && r.parent == work.span)
        .collect();
    assert!(
        !phases.is_empty(),
        "a cache miss must attribute engine phases: {rows:?}"
    );
    assert_eq!(
        rows.len(),
        3 + phases.len(),
        "no stray spans in the trace: {rows:?}"
    );

    // Durations nest: each hop encloses the next, and the phases sum
    // to no more than the enumerate span.
    assert!(root.dur_ns >= server.dur_ns, "{root:?} vs {server:?}");
    assert!(server.dur_ns >= work.dur_ns, "{server:?} vs {work:?}");
    let phase_sum: u64 = phases.iter().map(|p| p.dur_ns).sum();
    assert!(
        phase_sum <= work.dur_ns,
        "phases ({phase_sum}) exceed the enumerate span ({})",
        work.dur_ns
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_trace_fields_degrade_to_fresh_roots() {
    let dir = std::env::temp_dir().join(format!("samm-trace-tamper-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("tamper.trace.jsonl");
    let _ = std::fs::remove_file(&log);
    let handle = samm_serve::start(traced_config(&log)).unwrap();
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();

    // Every malformed shape a confused (or hostile) client could send:
    // the request must succeed, tracing must fall back to a fresh root.
    for (i, tamper) in [
        r#""garbage""#,
        "12345",
        "true",
        r#""0000000000000000-0000000000000000""#,
        r#""deadbeef""#,
        r#"{"trace":"nested"}"#,
    ]
    .iter()
    .enumerate()
    {
        let line = format!(
            r#"{{"kind":"enumerate","test":"SB","model":"SC","id":"t{i}","trace":{tamper}}}"#
        );
        let response = client.request_raw(&line).unwrap();
        assert!(ok(&response), "tampered trace must not fail: {response}");
        assert_eq!(
            response.get("id").and_then(Json::as_str),
            Some(format!("t{i}").as_str())
        );
    }

    drop(client);
    handle.shutdown().unwrap();

    // Each tampered request produced a root server span (parent zero)
    // with a fresh nonzero trace id.
    let body = std::fs::read_to_string(&log).unwrap();
    let mut roots = 0usize;
    for line in body.lines() {
        let value = samm_serve::json::parse(line).unwrap();
        if value.get("name").and_then(Json::as_str) != Some("server") {
            continue;
        }
        assert_eq!(
            value.get("parent").and_then(Json::as_str),
            Some("0000000000000000"),
            "tampered traces must root, not adopt garbage parents: {line}"
        );
        assert_ne!(
            value.get("trace").and_then(Json::as_str),
            Some("0000000000000000"),
            "fresh root traces are nonzero: {line}"
        );
        roots += 1;
    }
    assert_eq!(
        roots, 6,
        "one root server span per tampered request:\n{body}"
    );
}
