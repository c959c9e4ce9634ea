//! `serve-warm` and `serve-cold-batch`: the `samm-serve` binary, started
//! with no flags (its default I/O core, cache geometry and settings),
//! driven over TCP by closed-loop connections (two on `serve-warm`, one
//! on `serve-cold-batch`).
//!
//! Requests name no engine, so they run on the server's default engine.
//! Every response is compared with the library's own answer for the
//! same key, computed in this process.
//!
//! The traced run replays each wire line in this process right after its
//! round trip: `protocol::parse_envelope`, `handler::handle_envelope` on a
//! `ServerState` built like the server's, and the response's rendering.
//! Inner layers (fingerprint, cache probe, engine, explain, analyze) are
//! timed by calling them for the same key just before the handler call;
//! the handler's self time is its duration minus theirs, and the I/O
//! residual is the round trip minus parse, handler and render.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use samm_analyze::robust::StaticVerdict;
use samm_core::cache::{CacheStats, EnumCache};
use samm_core::enumerate::{enumerate, EnumConfig};
use samm_core::explain::{find_witness, refute, Goal, RefuteOutcome};
use samm_core::fingerprint::query_fingerprint;
use samm_core::outcome::OutcomeSet;
use samm_litmus::catalog::{self, CatalogEntry, ModelSel};
use samm_litmus::expect::run_entry;
use samm_serve::handler::{handle_envelope, ServerState};
use samm_serve::json::{self, Json};
use samm_serve::protocol::parse_envelope;
use samm_serve::server::ServerConfig;

use crate::layers::{EndToEnd, EngineTally, Figures, ATTRIBUTION_TOLERANCE};
use crate::stats::{median, ratio, Report, Rng, Samples, MARK_EVERY};
use crate::trace::Tracer;
use crate::Opts;

/// Closed-loop connections (and client threads) on `serve-warm`.
const WARM_CONNECTIONS: usize = 2;

/// Closed-loop connections on `serve-cold-batch`. One: a second one
/// makes the run compete for both cores with the server's workers, and
/// its figures then follow the host's load more than the code.
const COLD_CONNECTIONS: usize = 1;

/// Sub-requests per `batch` line on `serve-cold-batch`.
pub const BATCH: usize = 32;

/// Full server set-ups per `serve-warm` run; `setup_s` is the median.
const WARM_SETUPS: usize = 5;

/// Untimed passes over the keys on each connection before timing.
const WARMUP_PASSES: usize = 2;

/// A running `samm-serve` process; killed and reaped when dropped.
struct Server {
    child: Child,
    /// Kept open so the server's own output never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    fn start(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("samm-serve did not report its address: {banner:?}"))
            }
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        crate::stats::peak_rss_mb(Some(self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One persistent client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// Sends one newline-terminated line and reads the response line
    /// into `out`; returns when the send started and the response ended.
    fn round_trip(&mut self, line: &str, out: &mut String) -> Result<(Instant, Instant), String> {
        out.clear();
        let start = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        match self.reader.read_line(out) {
            Ok(0) => Err("server closed the connection".to_owned()),
            Ok(_) => Ok((start, Instant::now())),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// One (catalog test, model) key.
#[derive(Debug, Clone, Copy)]
struct Key {
    entry: usize,
    model: ModelSel,
}

fn catalog_keys(entries: &[CatalogEntry]) -> Vec<Key> {
    entries
        .iter()
        .enumerate()
        .flat_map(|(entry, e)| {
            e.models()
                .into_iter()
                .map(move |model| Key { entry, model })
        })
        .collect()
}

/// The enumeration config the server derives for a request without a
/// budget, mirroring `ServerState::config`.
fn server_enum_config(cfg: &ServerConfig) -> EnumConfig {
    EnumConfig::builder()
        .keep_executions(false)
        .observe(cfg.observe)
        .budget(cfg.budget)
        .build()
}

/// A `ServerState` built the way the server builds its own.
fn server_state(cfg: &ServerConfig) -> ServerState {
    let cache = EnumCache::with_shards(cfg.cache_shards.max(1), cfg.cache_capacity.max(1));
    let mut state = ServerState::new(cache, cfg.budget);
    state.observe = cfg.observe;
    state
}

/// One sub-request of the cold workload.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Enumerate(Key),
    Verdict(usize),
    Witness(Key, usize),
    Refutation(Key, usize),
    Certify(Key),
}

impl Slot {
    fn request(self, entries: &[CatalogEntry]) -> String {
        let name = |e: usize| entries[e].test.name.as_str();
        match self {
            Slot::Enumerate(k) => format!(
                "{{\"kind\":\"enumerate\",\"test\":\"{}\",\"model\":\"{}\"}}",
                name(k.entry),
                k.model.name()
            ),
            Slot::Verdict(e) => format!("{{\"kind\":\"verdict\",\"test\":\"{}\"}}", name(e)),
            Slot::Witness(k, c) | Slot::Refutation(k, c) => format!(
                "{{\"kind\":\"{}\",\"test\":\"{}\",\"model\":\"{}\",\"condition\":{c}}}",
                if matches!(self, Slot::Witness(..)) {
                    "witness"
                } else {
                    "refutation"
                },
                name(k.entry),
                k.model.name()
            ),
            Slot::Certify(k) => format!(
                "{{\"kind\":\"certify\",\"test\":\"{}\",\"model\":\"{}\",\"robust\":true}}",
                name(k.entry),
                k.model.name()
            ),
        }
    }
}

/// Every cold-workload sub-request: an `enumerate` and a robust
/// `certify` per key, a `verdict` per test, and per verdict row a
/// `witness` (expected allowed) or a `refutation` (expected forbidden).
fn cold_slots(entries: &[CatalogEntry]) -> Vec<Slot> {
    let mut slots = Vec::new();
    for key in catalog_keys(entries) {
        slots.push(Slot::Enumerate(key));
        slots.push(Slot::Certify(key));
    }
    for (e, entry) in entries.iter().enumerate() {
        slots.push(Slot::Verdict(e));
        let mut seen = Vec::new();
        for v in &entry.verdicts {
            if seen.contains(&(v.model, v.condition)) {
                continue;
            }
            seen.push((v.model, v.condition));
            let key = Key {
                entry: e,
                model: v.model,
            };
            slots.push(if v.allowed {
                Slot::Witness(key, v.condition)
            } else {
                Slot::Refutation(key, v.condition)
            });
        }
    }
    slots
}

/// The library's answer to one request, as far as a response shows it.
#[derive(Debug)]
enum Expected {
    Enumerate {
        outcomes: Vec<Vec<Vec<u64>>>,
        executions: usize,
    },
    /// Per verdict row: model name, observed, outcomes, executions.
    Verdict(Vec<(String, bool, usize, usize)>),
    Witness(bool),
    Refutation(bool),
    Certify {
        certified: bool,
        robust: &'static str,
    },
}

fn sorted_outcomes(set: &OutcomeSet) -> Vec<Vec<Vec<u64>>> {
    let mut all: Vec<Vec<Vec<u64>>> = set
        .iter()
        .map(|o| {
            (0..o.thread_count())
                .map(|t| o.thread_regs(t).iter().map(|v| v.raw()).collect())
                .collect()
        })
        .collect();
    all.sort();
    all
}

fn goal(entry: &CatalogEntry, condition: usize) -> Goal {
    Goal::new(entry.test.conditions[condition].clauses.clone())
}

fn expected(entries: &[CatalogEntry], slot: Slot) -> Result<Expected, String> {
    let config = EnumConfig::default();
    let fail = |e: samm_core::error::EnumError| e.to_string();
    Ok(match slot {
        Slot::Enumerate(k) => {
            let r = enumerate(&entries[k.entry].test.program, &k.model.policy(), &config)
                .map_err(fail)?;
            Expected::Enumerate {
                outcomes: sorted_outcomes(&r.outcomes),
                executions: r.stats.distinct_executions,
            }
        }
        Slot::Verdict(e) => {
            let report = run_entry(&entries[e], &config).map_err(fail)?;
            Expected::Verdict(
                report
                    .rows
                    .iter()
                    .map(|r| {
                        (
                            r.model.name().to_owned(),
                            r.observed_allowed,
                            r.outcomes,
                            r.executions,
                        )
                    })
                    .collect(),
            )
        }
        Slot::Witness(k, c) => {
            let entry = &entries[k.entry];
            let w = find_witness(
                &entry.test.program,
                &k.model.policy(),
                &config,
                &goal(entry, c),
            )
            .map_err(fail)?;
            Expected::Witness(w.is_some())
        }
        Slot::Refutation(k, c) => {
            let entry = &entries[k.entry];
            let r = refute(
                &entry.test.program,
                &k.model.policy(),
                &config,
                &goal(entry, c),
            )
            .map_err(fail)?;
            Expected::Refutation(matches!(r, RefuteOutcome::Refuted(_)))
        }
        Slot::Certify(k) => {
            let program = &entries[k.entry].test.program;
            let policy = k.model.policy();
            Expected::Certify {
                certified: samm_analyze::certify(program, &policy).is_some(),
                robust: samm_analyze::analyze_static(program, &policy).name(),
            }
        }
    })
}

fn field<'a>(resp: &'a Json, key: &str) -> Result<&'a Json, String> {
    resp.get(key)
        .ok_or_else(|| format!("response has no '{key}'"))
}

fn want_bool(resp: &Json, key: &str, want: bool) -> Result<(), String> {
    match field(resp, key)?.as_bool() {
        Some(b) if b == want => Ok(()),
        other => Err(format!("'{key}' is {other:?}, expected {want}")),
    }
}

fn want_num(resp: &Json, key: &str, want: usize) -> Result<(), String> {
    match field(resp, key)?.as_u64() {
        Some(n) if n == want as u64 => Ok(()),
        other => Err(format!("'{key}' is {other:?}, expected {want}")),
    }
}

fn want_str(resp: &Json, key: &str, want: &str) -> Result<(), String> {
    match field(resp, key)?.as_str() {
        Some(s) if s == want => Ok(()),
        other => Err(format!("'{key}' is {other:?}, expected {want:?}")),
    }
}

fn json_outcomes(value: &Json) -> Option<Vec<Vec<Vec<u64>>>> {
    let mut all = value
        .as_arr()?
        .iter()
        .map(|o| {
            o.as_arr()?
                .iter()
                .map(|t| t.as_arr()?.iter().map(Json::as_u64).collect())
                .collect()
        })
        .collect::<Option<Vec<Vec<Vec<u64>>>>>()?;
    all.sort();
    Some(all)
}

/// Compares one response object with the library's answer.
fn check_response(resp: &Json, want: &Expected) -> Result<(), String> {
    want_bool(resp, "ok", true)?;
    match want {
        Expected::Enumerate {
            outcomes,
            executions,
        } => {
            want_str(resp, "kind", "enumerate")?;
            want_num(resp, "outcome_count", outcomes.len())?;
            want_num(resp, "executions", *executions)?;
            if json_outcomes(field(resp, "outcomes")?).as_ref() != Some(outcomes) {
                return Err("outcome set differs from the library's".to_owned());
            }
        }
        Expected::Verdict(rows) => {
            want_str(resp, "kind", "verdict")?;
            let report = field(resp, "report")?;
            want_bool(report, "all_pass", true)?;
            let got = field(report, "rows")?.as_arr().unwrap_or_default();
            if got.len() != rows.len() {
                return Err(format!(
                    "{} verdict rows, expected {}",
                    got.len(),
                    rows.len()
                ));
            }
            for (row, (model, observed, outcomes, executions)) in got.iter().zip(rows) {
                want_str(row, "model", model)?;
                want_bool(row, "observed_allowed", *observed)?;
                want_bool(row, "pass", true)?;
                want_num(row, "outcomes", *outcomes)?;
                want_num(row, "executions", *executions)?;
            }
        }
        Expected::Witness(found) => {
            want_str(resp, "kind", "witness")?;
            want_bool(resp, "found", *found)?;
        }
        Expected::Refutation(refuted) => {
            want_str(resp, "kind", "refutation")?;
            want_bool(resp, "refuted", *refuted)?;
        }
        Expected::Certify { certified, robust } => {
            want_str(resp, "kind", "certify")?;
            want_bool(resp, "certified", *certified)?;
            want_bool(resp, "checked", *certified)?;
            want_str(resp, "robust", robust)?;
            want_bool(resp, "robust_checked", true)?;
        }
    }
    Ok(())
}

fn check_line(line: &str, want: &Expected) -> Result<Json, String> {
    let resp = json::parse(line.trim_end()).map_err(|e| format!("bad JSON: {e}"))?;
    check_response(&resp, want)?;
    Ok(resp)
}

/// A checked response with its server-assigned `"id":"…"` cut out: the
/// rest of a cache-hit response is the same bytes on every hit.
#[derive(Debug)]
struct Canonical {
    head: String,
    tail: String,
}

fn split_id(line: &str) -> Option<(&str, &str)> {
    let at = line.find("\"id\":\"")?;
    let rest = &line[at + 6..];
    let end = rest.find('"')?;
    Some((&line[..at], &rest[end + 1..]))
}

impl Canonical {
    fn matches(&self, line: &str) -> bool {
        split_id(line).is_some_and(|(h, t)| h == self.head && t == self.tail)
    }
}

/// The self-test's deliberately wrong answer: the last `"ok":true` of a
/// response turned false.
fn corrupt(line: &mut String) {
    if let Some(at) = line.rfind("\"ok\":true") {
        line.replace_range(at..at + 9, "\"ok\":false");
    }
}

/// What one client thread measured.
#[derive(Debug, Default)]
struct ThreadResult {
    samples: Samples,
    answered: u64,
    failed: u64,
    errors: Vec<String>,
    first: Option<Instant>,
    last: Option<Instant>,
    tracer: Tracer,
    traced_lines: u64,
    response_bytes: u64,
    hits: u64,
    lookups: u64,
    engine: EngineTally,
    certify_slots: u64,
    certified: u64,
    /// Sum of the timed windows of the rounds merged in (cold workload).
    busy: f64,
}

impl ThreadResult {
    fn window(&mut self, start: Instant, end: Instant) {
        self.first = Some(self.first.map_or(start, |f| f.min(start)));
        self.last = Some(self.last.map_or(end, |l| l.max(end)));
    }

    /// Records one round trip that finished `offset_ns` plus its end
    /// minus `clock0` into the run, carrying `answers` answers.
    fn sample(&mut self, clock0: Instant, offset_ns: u64, rtt: (Instant, Instant), answers: u32) {
        self.window(rtt.0, rtt.1);
        self.samples.push(
            offset_ns + rtt.1.duration_since(clock0).as_nanos() as u64,
            rtt.1.duration_since(rtt.0).as_nanos() as u64,
            answers,
        );
    }

    fn merge(&mut self, other: ThreadResult) {
        self.samples.extend(other.samples);
        self.answered += other.answered;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        if let (Some(f), Some(l)) = (other.first, other.last) {
            self.window(f, l);
        }
        self.tracer.absorb(other.tracer);
        self.traced_lines += other.traced_lines;
        self.response_bytes += other.response_bytes;
        self.hits += other.hits;
        self.lookups += other.lookups;
        self.engine.absorb(other.engine);
        self.certify_slots += other.certify_slots;
        self.certified += other.certified;
        self.busy += other.busy;
    }

    /// Merges one round that started at `round_start`, adding its timed
    /// window to `busy` instead of stretching the window over the
    /// restarts between rounds.
    fn merge_round(&mut self, mut round: ThreadResult, round_start: Instant) {
        if let Some(last) = round.last {
            round.busy += last.duration_since(round_start).as_secs_f64();
        }
        round.first = None;
        round.last = None;
        self.merge(round);
    }

    fn seconds(&self) -> f64 {
        match (self.first, self.last) {
            (Some(f), Some(l)) => l.duration_since(f).as_secs_f64(),
            _ => 0.0,
        }
    }
}

/// Shared read-only context of a serve run.
struct Ctx<'a> {
    entries: &'a [CatalogEntry],
    cfg: ServerConfig,
    enum_config: EnumConfig,
}

/// Times the inner layers a request reaches for `slot`, as children of
/// the handler span `parent`, before the handler runs it.
fn shadow_slot(
    ctx: &Ctx<'_>,
    state: &ServerState,
    slot: Slot,
    tracer: &mut Tracer,
    trace: u32,
    parent: u32,
    out: &mut ThreadResult,
) {
    let entries = ctx.entries;
    let probe = |key: Key, tracer: &mut Tracer, out: &mut ThreadResult| {
        let program = &entries[key.entry].test.program;
        let policy = key.model.policy();
        let t0 = Instant::now();
        let fp = query_fingerprint(program, &policy, &ctx.enum_config);
        let t1 = Instant::now();
        let hit = state.cache.get(fp).is_some();
        let t2 = Instant::now();
        tracer.record(trace, parent, "fingerprint", t0, t1);
        tracer.record(trace, parent, "cache.get", t1, t2);
        if !hit {
            let result = enumerate(program, &policy, &ctx.enum_config);
            tracer.record(trace, parent, "engine", t2, Instant::now());
            if let Ok(result) = result {
                out.engine.add(&result.stats);
            }
        }
    };
    match slot {
        Slot::Enumerate(key) => probe(key, tracer, out),
        Slot::Verdict(e) => {
            for model in entries[e].models() {
                probe(Key { entry: e, model }, tracer, out);
            }
        }
        Slot::Witness(key, c) | Slot::Refutation(key, c) => {
            let entry = &entries[key.entry];
            let policy = key.model.policy();
            let goal = goal(entry, c);
            let t0 = Instant::now();
            let name = if matches!(slot, Slot::Witness(..)) {
                let _ = find_witness(&entry.test.program, &policy, &ctx.enum_config, &goal);
                "explain.witness"
            } else {
                let _ = refute(&entry.test.program, &policy, &ctx.enum_config, &goal);
                "explain.refute"
            };
            tracer.record(trace, parent, name, t0, Instant::now());
        }
        Slot::Certify(key) => {
            let program = &entries[key.entry].test.program;
            let policy = key.model.policy();
            let t0 = Instant::now();
            let cert = samm_analyze::certify(program, &policy);
            let _ = cert.as_ref().map(|c| c.check(program, &policy));
            let t1 = Instant::now();
            let verdict = samm_analyze::analyze_static(program, &policy);
            let _ = match &verdict {
                StaticVerdict::Robust(c) => c.check(program, &policy),
                StaticVerdict::CycleFound(c) => c.check(program, &policy),
                StaticVerdict::Unknown(_) => true,
            };
            let t2 = Instant::now();
            tracer.record(trace, parent, "analyze.certify", t0, t1);
            tracer.record(trace, parent, "analyze.robust", t1, t2);
            out.certify_slots += 1;
            out.certified += u64::from(cert.is_some());
        }
    }
}

/// Replays one wire line in process after its round trip `rtt`, with
/// spans for every layer it reaches.
fn replay_line(
    ctx: &Ctx<'_>,
    state: &ServerState,
    line: &str,
    slots: &[Slot],
    rtt: (Instant, Instant),
    out: &mut ThreadResult,
) {
    out.traced_lines += 1;
    let mut tracer = std::mem::take(&mut out.tracer);
    let trace = out.traced_lines as u32;
    let root = tracer.record(trace, 0, "client", rtt.0, rtt.1);
    let t0 = Instant::now();
    let envelope = parse_envelope(line.trim_end());
    tracer.record(trace, root, "protocol.parse", t0, Instant::now());
    let Ok(envelope) = envelope else {
        out.tracer = tracer;
        return;
    };
    let handler = tracer.reserve(trace, root, "handler");
    for &slot in slots {
        shadow_slot(ctx, state, slot, &mut tracer, trace, handler, out);
    }
    let h0 = Instant::now();
    let response = handle_envelope(state, &envelope);
    let h1 = Instant::now();
    tracer.set(handler, h0, h1);
    let r0 = Instant::now();
    let rendered = response.to_string();
    tracer.record(trace, root, "json.render", r0, Instant::now());
    std::hint::black_box(rendered);
    out.tracer = tracer;
}

/// Counts cache hits the server reported in a checked response.
fn tally_hits(resp: &Json, out: &mut ThreadResult) {
    let mut note = |v: Option<&Json>| {
        if let Some(hit) = v.and_then(Json::as_bool) {
            out.lookups += 1;
            out.hits += u64::from(hit);
        }
    };
    match resp.get("kind").and_then(Json::as_str) {
        Some("enumerate") => note(resp.get("cache_hit")),
        Some("verdict") => {
            let rows = resp
                .get("report")
                .and_then(|r| r.get("rows"))
                .and_then(Json::as_arr)
                .unwrap_or_default();
            for row in rows {
                note(row.get("cache_hit"));
            }
        }
        _ => {}
    }
}

fn fail(out: &mut ThreadResult, count: u64, why: String) {
    out.failed += count;
    if out.errors.len() < 20 {
        out.errors.push(why);
    }
}

/// Figures shared by both serve workloads' traced runs.
fn serve_figures(
    figures: &mut Figures,
    total: &ThreadResult,
    engine: (&EngineTally, f64),
    cache: CacheStats,
    base_per_answer: f64,
    traced_seconds: f64,
    traced_answers: u64,
) {
    let tracer = &total.tracer;
    let totals = tracer.layer_totals();
    let self_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |&(ns, n)| ratio(ns as f64, n as f64) / 1e3)
    };
    let per_line = |v: f64| ratio(v, total.traced_lines as f64);
    engine.0.emit(figures, engine.1);
    figures.set("fingerprint.us", self_us("fingerprint"));
    figures.set("cache.get_us", self_us("cache.get"));
    figures.set(
        "cache.hit_ratio",
        ratio(total.hits as f64, total.lookups as f64),
    );
    figures.set("cache.insertions", per_line(cache.insertions as f64));
    figures.set("cache.evictions", per_line(cache.evictions as f64));
    figures.set("explain.witness_us", self_us("explain.witness"));
    figures.set("explain.refute_us", self_us("explain.refute"));
    figures.set("analyze.certify_us", self_us("analyze.certify"));
    figures.set("analyze.robust_us", self_us("analyze.robust"));
    figures.set(
        "analyze.certified_share",
        ratio(total.certified as f64, total.certify_slots as f64),
    );
    figures.set("protocol.parse_us", self_us("protocol.parse"));
    figures.set("handler.self_us", self_us("handler"));
    figures.set("json.render_us", self_us("json.render"));
    figures.set("json.response_bytes", per_line(total.response_bytes as f64));
    figures.set("batch.slots_per_line", per_line(traced_answers as f64));
    let residual = totals.get("client").map_or(0, |t| t.0);
    figures.set("io.residual_us", per_line(residual as f64) / 1e3);
    let client_ns: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "client")
        .map(|s| s.nanos())
        .sum();
    figures.set(
        "io.unattributed_share",
        ratio(residual as f64, client_ns as f64),
    );
    figures.set(
        "trace.overhead_share",
        ratio(traced_seconds, traced_answers as f64) / base_per_answer - 1.0,
    );
    figures.set("trace.attribution_gap", tracer.attribution_gap());
    figures.set("trace.lines", total.traced_lines as f64);
}

pub fn run_warm(opts: &Opts, bin: &Path, report: &mut Report) -> Result<(), String> {
    let entries = catalog::all();
    let keys = catalog_keys(&entries);
    let lines: Vec<String> = keys
        .iter()
        .map(|&k| format!("{}\n", Slot::Enumerate(k).request(&entries)))
        .collect();
    let want: Vec<Expected> = keys
        .iter()
        .map(|&k| expected(&entries, Slot::Enumerate(k)))
        .collect::<Result<_, _>>()?;
    report.note(format!(
        "serve-warm: {} keys, unbatched enumerate, {WARM_CONNECTIONS} connections, cache filled in set-up",
        keys.len()
    ));

    let mut total = ThreadResult::default();
    let mut setups = Vec::new();
    let mut server = None;
    let mut conns = Vec::new();
    let mut fill = Vec::new();
    for _ in 0..WARM_SETUPS {
        drop(conns);
        drop(server.take());
        let t0 = Instant::now();
        let s = Server::start(bin)?;
        conns = (0..WARM_CONNECTIONS)
            .map(|_| Conn::connect(s.addr))
            .collect::<Result<Vec<_>, _>>()?;
        fill.clear();
        let mut buf = String::new();
        for line in &lines {
            conns[0].round_trip(line, &mut buf)?;
            fill.push(buf.clone());
        }
        setups.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    for (resp, want) in fill.iter().zip(&want) {
        total.answered += 1;
        if let Err(why) = check_line(resp, want) {
            fail(&mut total, 1, format!("cache fill: {why}"));
        }
    }

    // Warm-up; the first response per key is checked in full and kept
    // as the canonical bytes later hits are compared with.
    let mut canonical: Vec<Option<Canonical>> = (0..keys.len()).map(|_| None).collect();
    let mut buf = String::new();
    for conn in &mut conns {
        for _ in 0..WARMUP_PASSES {
            for (k, line) in lines.iter().enumerate() {
                conn.round_trip(line, &mut buf)?;
                total.answered += 1;
                match check_line(&buf, &want[k]) {
                    Ok(_) if canonical[k].is_none() => {
                        canonical[k] = split_id(&buf).map(|(h, t)| Canonical {
                            head: h.to_owned(),
                            tail: t.to_owned(),
                        });
                    }
                    Ok(_) => {}
                    Err(why) => fail(&mut total, 1, format!("warm-up: {why}")),
                }
            }
        }
    }

    // The in-process replica the traced run replays lines against,
    // filled like the server's cache.
    let ctx = Ctx {
        entries: &entries,
        cfg: ServerConfig::default(),
        enum_config: server_enum_config(&ServerConfig::default()),
    };
    // The engine works on this workload only while the cache fills, so
    // the engine figures come from replaying the fill.
    let replica = server_state(&ctx.cfg);
    let mut fill_tracer = Tracer::default();
    let mut fill_engine = ThreadResult::default();
    for (k, line) in lines.iter().enumerate().filter(|_| opts.trace) {
        let env = parse_envelope(line.trim_end()).map_err(|e| e.message)?;
        let trace = k as u32 + 1;
        let parent = fill_tracer.reserve(trace, 0, "fill");
        let slot = Slot::Enumerate(keys[k]);
        shadow_slot(
            &ctx,
            &replica,
            slot,
            &mut fill_tracer,
            trace,
            parent,
            &mut fill_engine,
        );
        let t0 = Instant::now();
        handle_envelope(&replica, &env);
        fill_tracer.set(parent, t0, Instant::now());
    }
    let fill_cache = replica.cache.stats();

    let phase = |seconds: f64, traced: bool, conns: &mut Vec<Conn>| -> ThreadResult {
        let deadline = Duration::from_secs_f64(seconds);
        let mut merged = ThreadResult::default();
        let clock0 = Instant::now();
        std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(t, conn)| {
                    let (lines, want, canonical, keys) = (&lines, &want, &canonical, &keys);
                    let (ctx, replica) = (&ctx, &replica);
                    let seed = opts.seed;
                    let inject = opts.inject_fault && t == 0;
                    s.spawn(move || {
                        let mut out = ThreadResult::default();
                        let mut order: Vec<usize> = (0..lines.len()).collect();
                        Rng::new(seed ^ (0xC0FF_EE00 + t as u64)).shuffle(&mut order);
                        let mut buf = String::new();
                        let start = Instant::now();
                        let mut i = 0;
                        while start.elapsed() < deadline {
                            let k = order[i % order.len()];
                            i += 1;
                            let rtt = match conn.round_trip(&lines[k], &mut buf) {
                                Ok(rtt) => rtt,
                                Err(why) => {
                                    fail(&mut out, 1, why);
                                    out.answered += 1;
                                    break;
                                }
                            };
                            out.sample(clock0, 0, rtt, 1);
                            out.answered += 1;
                            out.response_bytes += buf.len() as u64;
                            if inject && i == 1 {
                                corrupt(&mut buf);
                            }
                            let same = canonical[k].as_ref().is_some_and(|c| c.matches(&buf));
                            if same {
                                out.lookups += 1;
                                out.hits += 1;
                            } else {
                                match check_line(&buf, &want[k]) {
                                    Ok(resp) => tally_hits(&resp, &mut out),
                                    Err(why) => fail(&mut out, 1, why),
                                }
                            }
                            if traced {
                                let slot = [Slot::Enumerate(keys[k])];
                                replay_line(ctx, replica, &lines[k], &slot, rtt, &mut out);
                            }
                        }
                        out
                    })
                })
                .collect();
            // This thread reads the host's steal time while the clients run.
            let mut marks = Samples::default();
            while clock0.elapsed() < deadline {
                marks.mark(clock0.elapsed().as_nanos() as u64);
                std::thread::sleep(MARK_EVERY.min(deadline.saturating_sub(clock0.elapsed())));
            }
            marks.mark(clock0.elapsed().as_nanos() as u64);
            for h in handles {
                merged.merge(h.join().expect("client thread panicked"));
            }
            merged.samples.extend(marks);
        });
        merged
    };

    let base_seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut base = phase(base_seconds, false, &mut conns);
    let rss = server.peak_rss_mb();
    report.note(format!("cache hits {} of {}", base.hits, base.lookups));
    let base_answers = base.answered;
    let base_window = base.seconds();
    let base_failed = base.failed;
    if opts.trace {
        let traced = phase(opts.seconds - base_seconds, true, &mut conns);
        let traced_window = traced.seconds();
        let traced_answers = traced.answered;
        let mut figures = Figures::default();
        let mut all = ThreadResult::default();
        all.merge(std::mem::take(&mut base));
        all.merge(traced);
        let mut cache = replica.cache.stats();
        cache.insertions -= fill_cache.insertions;
        cache.evictions -= fill_cache.evictions;
        serve_figures(
            &mut figures,
            &all,
            (&fill_engine.engine, fill_tracer.mean_us("engine")),
            cache,
            ratio(base_window, base_answers as f64),
            traced_window,
            traced_answers,
        );
        let gap = all.tracer.attribution_gap();
        if gap > ATTRIBUTION_TOLERANCE {
            report.broken = true;
            report.note(format!(
                "FAILED attribution: layers + residual miss the median round trip by {:.1}% (tolerance {:.0}%)",
                gap * 100.0,
                ATTRIBUTION_TOLERANCE * 100.0
            ));
        }
        figures.emit(report);
        report.note(all.tracer.save("serve-warm", opts.seed));
        total.answered += all.answered;
        total.failed += all.failed;
        total.errors.extend(all.errors);
    } else {
        EndToEnd {
            span_ns: base.samples.last_ns(),
            samples: std::mem::take(&mut base.samples),
            ok_share: 1.0 - ratio(base_failed as f64, base_answers as f64),
            setup_s: median(&setups),
            peak_rss_mb: rss,
        }
        .emit(report);
        total.merge(base);
    }
    drop(conns);
    drop(server);
    finish(report, total);
    Ok(())
}

fn finish(report: &mut Report, total: ThreadResult) {
    for why in &total.errors {
        report.note(format!("FAILED {why}"));
    }
    report.attempted += total.answered;
    report.failed += total.failed;
}

pub fn run_cold(opts: &Opts, bin: &Path, report: &mut Report) -> Result<(), String> {
    let entries = catalog::all();
    let slots = cold_slots(&entries);
    let requests: Vec<String> = slots.iter().map(|s| s.request(&entries)).collect();
    let want: Vec<Expected> = slots
        .iter()
        .map(|&s| expected(&entries, s))
        .collect::<Result<_, _>>()?;
    report.note(format!(
        "serve-cold-batch: {} sub-requests per round in batch lines of {BATCH}, {COLD_CONNECTIONS} connection(s), fresh server per round",
        slots.len()
    ));
    let ctx = Ctx {
        entries: &entries,
        cfg: ServerConfig::default(),
        enum_config: server_enum_config(&ServerConfig::default()),
    };

    let mut total = ThreadResult::default();
    let mut setups = Vec::new();
    let mut rss: f64 = 0.0;
    let mut cache = CacheStats::default();
    let base_seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut phases: Vec<ThreadResult> = Vec::new();
    let mut round = 0u64;
    for (traced, seconds) in [(false, base_seconds), (true, opts.seconds - base_seconds)] {
        if traced && !opts.trace {
            break;
        }
        let mut phase = ThreadResult::default();
        let mut busy = 0.0;
        while busy < seconds {
            round += 1;
            let t0 = Instant::now();
            let server = Server::start(bin)?;
            let mut conns = (0..COLD_CONNECTIONS)
                .map(|_| Conn::connect(server.addr))
                .collect::<Result<Vec<_>, _>>()?;
            // Loads the server's catalog without touching its cache.
            let mut buf = String::new();
            for conn in &mut conns {
                conn.round_trip(
                    "{\"kind\":\"certify\",\"test\":\"SB\",\"model\":\"SC\"}\n",
                    &mut buf,
                )?;
            }
            setups.push(t0.elapsed().as_secs_f64());

            let mut order: Vec<usize> = (0..slots.len()).collect();
            Rng::new(opts.seed ^ round.wrapping_mul(0x9E37_79B9)).shuffle(&mut order);
            let batches: Vec<&[usize]> = order.chunks(BATCH).collect();
            let replica = traced.then(|| server_state(&ctx.cfg));
            let mut marks = Samples::default();
            let offset_ns = (phase.busy * 1e9) as u64;
            marks.mark(offset_ns);
            let round_start = Instant::now();
            let results: Vec<(ThreadResult, Vec<(usize, String)>)> = std::thread::scope(|s| {
                let handles: Vec<_> = conns
                    .iter_mut()
                    .enumerate()
                    .map(|(t, conn)| {
                        let (batches, requests, ctx, slots) = (&batches, &requests, &ctx, &slots);
                        let replica = replica.as_ref();
                        s.spawn(move || {
                            let mut out = ThreadResult::default();
                            let mut responses = Vec::new();
                            let mut buf = String::new();
                            for b in (t..batches.len()).step_by(COLD_CONNECTIONS) {
                                let members = batches[b];
                                let body: Vec<&str> =
                                    members.iter().map(|&i| requests[i].as_str()).collect();
                                let line = format!(
                                    "{{\"kind\":\"batch\",\"requests\":[{}]}}\n",
                                    body.join(",")
                                );
                                let rtt = match conn.round_trip(&line, &mut buf) {
                                    Ok(rtt) => rtt,
                                    Err(why) => {
                                        fail(&mut out, members.len() as u64, why);
                                        out.answered += members.len() as u64;
                                        continue;
                                    }
                                };
                                out.sample(round_start, offset_ns, rtt, members.len() as u32);
                                out.response_bytes += buf.len() as u64;
                                responses.push((b, buf.clone()));
                                if let Some(replica) = replica {
                                    let of_line: Vec<Slot> =
                                        members.iter().map(|&i| slots[i]).collect();
                                    replay_line(ctx, replica, &line, &of_line, rtt, &mut out);
                                }
                            }
                            (out, responses)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            marks.mark(offset_ns + round_start.elapsed().as_nanos() as u64);
            rss = rss.max(server.peak_rss_mb());
            drop(conns);
            drop(server);
            if let Some(replica) = &replica {
                let s = replica.cache.stats();
                cache.insertions += s.insertions;
                cache.evictions += s.evictions;
            }

            // Checks, outside the timed window.
            let mut round_result = ThreadResult::default();
            for (mut out, responses) in results {
                for (b, mut line) in responses {
                    let members = batches[b];
                    out.answered += members.len() as u64;
                    if opts.inject_fault && round == 1 && b == 0 {
                        corrupt(&mut line);
                    }
                    let resp = match json::parse(line.trim_end()) {
                        Ok(resp) => resp,
                        Err(e) => {
                            fail(&mut out, members.len() as u64, format!("bad JSON: {e}"));
                            continue;
                        }
                    };
                    let subs = resp
                        .get("responses")
                        .and_then(Json::as_arr)
                        .unwrap_or_default();
                    if subs.len() != members.len() {
                        fail(
                            &mut out,
                            members.len() as u64,
                            format!(
                                "{} responses for {} sub-requests",
                                subs.len(),
                                members.len()
                            ),
                        );
                        continue;
                    }
                    for (sub, &i) in subs.iter().zip(members) {
                        match check_response(sub, &want[i]) {
                            Ok(()) => tally_hits(sub, &mut out),
                            Err(why) => fail(&mut out, 1, format!("{}: {why}", requests[i])),
                        }
                    }
                }
                round_result.merge(out);
            }
            phase.merge_round(round_result, round_start);
            phase.samples.extend(marks);
            busy = phase.busy;
        }
        phases.push(phase);
    }

    let mut base = phases.remove(0);
    report.note(format!("{round} rounds"));
    if opts.trace {
        let traced = phases.remove(0);
        let mut figures = Figures::default();
        let base_per_answer = ratio(base.busy, base.answered as f64);
        let (traced_busy, traced_answers) = (traced.busy, traced.answered);
        let mut all = ThreadResult::default();
        all.merge(std::mem::take(&mut base));
        all.merge(traced);
        let engine_us = all.tracer.mean_us("engine");
        serve_figures(
            &mut figures,
            &all,
            (&all.engine, engine_us),
            cache,
            base_per_answer,
            traced_busy,
            traced_answers,
        );
        figures.set("batch.line_us", all.tracer.mean_us("handler"));
        figures.emit(report);
        report.note(all.tracer.save("serve-cold-batch", opts.seed));
        total.merge(all);
    } else {
        EndToEnd {
            samples: std::mem::take(&mut base.samples),
            span_ns: (base.busy * 1e9) as u64,
            ok_share: 1.0 - ratio(base.failed as f64, base.answered as f64),
            setup_s: median(&setups),
            peak_rss_mb: rss,
        }
        .emit(report);
        total.merge(base);
    }
    finish(report, total);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The handler's own answer for every cold-workload slot of one test.
    fn answers_for(test: &str) -> Vec<(Slot, String)> {
        let entries = catalog::all();
        let state = server_state(&ServerConfig::default());
        cold_slots(&entries)
            .into_iter()
            .filter(|slot| {
                let e = match slot {
                    Slot::Enumerate(k) | Slot::Certify(k) => k.entry,
                    Slot::Witness(k, _) | Slot::Refutation(k, _) => k.entry,
                    Slot::Verdict(e) => *e,
                };
                entries[e].test.name == test
            })
            .map(|slot| {
                let env = parse_envelope(&slot.request(&entries)).expect("valid request");
                (slot, handle_envelope(&state, &env).to_string())
            })
            .collect()
    }

    #[test]
    fn checker_accepts_the_servers_answers_and_rejects_a_corrupted_one() {
        let entries = catalog::all();
        let answers = answers_for("SB");
        assert!(answers.len() > 5);
        for (slot, line) in answers {
            let want = expected(&entries, slot).expect("library answers");
            assert!(check_line(&line, &want).is_ok(), "{slot:?}: {line}");
            let mut bad = line.clone();
            corrupt(&mut bad);
            assert!(
                check_line(&bad, &want).is_err(),
                "{slot:?} corrupted: {bad}"
            );
        }
    }

    #[test]
    fn canonical_bytes_ignore_only_the_id() {
        let (h, t) = split_id(r#"{"a":1,"id":"r7","z":2}"#).expect("has an id");
        let c = Canonical {
            head: h.to_owned(),
            tail: t.to_owned(),
        };
        assert!(c.matches(r#"{"a":1,"id":"r123","z":2}"#));
        assert!(!c.matches(r#"{"a":1,"id":"r123","z":3}"#));
    }
}
