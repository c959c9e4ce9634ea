//! `samm-flame` — fold exported trace spans into a flamegraph.
//!
//! ```text
//! samm-flame [--collapsed] FILE.jsonl [FILE.jsonl ...]
//! ```
//!
//! Reads the JSONL span files written by `samm-serve --trace-log` and
//! `samm-load --trace` (any mix — spans link across files by trace id,
//! so concatenating the client's file with every server's file yields
//! complete client→server→engine trees), reassembles each
//! trace's parent/child tree, and prints:
//!
//! * by default, a **text profile per request kind**: for every `req`
//!   attribute seen on root spans, the span names that ran under it
//!   ranked by self time (duration minus the duration of direct
//!   children, clamped at zero), with call counts and the share of the
//!   kind's total self time;
//! * with `--collapsed`, **collapsed-stack lines** in the format
//!   flamegraph tooling consumes: `kind;name;name <self_us>`, one line
//!   per unique stack, counts in microseconds.
//!
//! Spans whose parent is absent from the input (for example a server
//! span whose originating client did not trace) root their own tree,
//! so partial captures still render. Exits non-zero when no span could
//! be parsed from the inputs.

use std::collections::BTreeMap;
use std::process::ExitCode;

use samm_serve::json::Json;

fn usage() -> ! {
    eprintln!("usage: samm-flame [--collapsed] FILE.jsonl [FILE.jsonl ...]");
    std::process::exit(2);
}

/// One span row parsed from a JSONL trace file.
#[derive(Debug, Clone)]
struct Span {
    trace: String,
    id: String,
    parent: String,
    name: String,
    dur_ns: u64,
    /// The `req` attribute (request kind), when the span carried one.
    req: Option<String>,
}

/// Parses one JSONL line into a [`Span`]; `None` for lines that are
/// not span records (blank lines, foreign JSONL, parse errors).
fn parse_span(line: &str) -> Option<Span> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    let value = samm_serve::json::parse(line).ok()?;
    let field = |key: &str| Some(value.get(key)?.as_str()?.to_owned());
    Some(Span {
        trace: field("trace")?,
        id: field("span")?,
        parent: field("parent")?,
        name: field("name")?,
        dur_ns: value.get("dur_ns").and_then(Json::as_f64)? as u64,
        req: field("req"),
    })
}

/// The fold: collapsed stacks (µs by stack string) plus the per-kind
/// name profile (calls and self-µs by span name, per request kind).
#[derive(Default)]
struct Folded {
    /// `kind;name;...;name` → summed self time in microseconds.
    stacks: BTreeMap<String, u64>,
    /// request kind → span name → (calls, self µs).
    kinds: BTreeMap<String, BTreeMap<String, (u64, u64)>>,
    /// request kind → number of root spans observed.
    roots: BTreeMap<String, u64>,
    traces: usize,
}

fn fold(spans: &[Span]) -> Folded {
    let mut folded = Folded::default();
    // Group spans by trace id; each group reassembles independently.
    let mut by_trace: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        by_trace.entry(&span.trace).or_default().push(i);
    }
    folded.traces = by_trace.len();
    for (_, members) in by_trace {
        let ids: BTreeMap<&str, usize> =
            members.iter().map(|&i| (spans[i].id.as_str(), i)).collect();
        let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut roots = Vec::new();
        for &i in &members {
            match ids.get(spans[i].parent.as_str()) {
                // A span that names itself as parent would recurse
                // forever; treat it as a root like any other orphan.
                Some(&p) if p != i => children.entry(p).or_default().push(i),
                _ => roots.push(i),
            }
        }
        for root in roots {
            let kind = spans[root]
                .req
                .clone()
                .unwrap_or_else(|| spans[root].name.clone());
            *folded.roots.entry(kind.clone()).or_default() += 1;
            // Iterative DFS carrying the stack path; no recursion so
            // adversarial deep traces cannot blow the stack.
            let mut work = vec![(root, kind.clone())];
            while let Some((i, path)) = work.pop() {
                let kids = children.get(&i).cloned().unwrap_or_default();
                let kids_ns: u64 = kids.iter().map(|&k| spans[k].dur_ns).sum();
                let self_us = spans[i].dur_ns.saturating_sub(kids_ns) / 1_000;
                let path = format!("{path};{}", spans[i].name);
                *folded.stacks.entry(path.clone()).or_default() += self_us;
                let by_name = folded.kinds.entry(kind.clone()).or_default();
                let slot = by_name.entry(spans[i].name.clone()).or_default();
                slot.0 += 1;
                slot.1 += self_us;
                for kid in kids {
                    work.push((kid, path.clone()));
                }
            }
        }
    }
    folded
}

fn render_collapsed(folded: &Folded) -> String {
    let mut out = String::new();
    for (stack, us) in &folded.stacks {
        out.push_str(&format!("{stack} {us}\n"));
    }
    out
}

fn render_profile(folded: &Folded) -> String {
    let mut out = format!(
        "samm-flame: {} trace(s), {} unique stack(s)\n",
        folded.traces,
        folded.stacks.len()
    );
    for (kind, by_name) in &folded.kinds {
        let total: u64 = by_name.values().map(|(_, us)| us).sum();
        let roots = folded.roots.get(kind).copied().unwrap_or(0);
        out.push_str(&format!(
            "\n== {kind} ({roots} root span(s), {total} us self time) ==\n"
        ));
        out.push_str(&format!(
            "{:<16} {:>8} {:>12} {:>7}\n",
            "span", "calls", "self us", "share"
        ));
        let mut rows: Vec<_> = by_name.iter().collect();
        rows.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(b.0)));
        for (name, (calls, us)) in rows {
            let share = if total == 0 {
                0.0
            } else {
                100.0 * *us as f64 / total as f64
            };
            out.push_str(&format!("{name:<16} {calls:>8} {us:>12} {share:>6.1}%\n"));
        }
    }
    out
}

fn main() -> ExitCode {
    let mut collapsed = false;
    let mut files = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--collapsed" => collapsed = true,
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => {
                eprintln!("samm-flame: unknown argument '{other}'");
                usage();
            }
            path => files.push(path.to_owned()),
        }
    }
    if files.is_empty() {
        usage();
    }

    let mut spans = Vec::new();
    let mut skipped = 0usize;
    for path in &files {
        let body = match std::fs::read_to_string(path) {
            Ok(body) => body,
            Err(e) => {
                eprintln!("samm-flame: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for line in body.lines() {
            match parse_span(line) {
                Some(span) => spans.push(span),
                None if line.trim().is_empty() => {}
                None => skipped += 1,
            }
        }
    }
    if spans.is_empty() {
        eprintln!(
            "samm-flame: no spans found in {} file(s) ({skipped} unparseable line(s))",
            files.len()
        );
        return ExitCode::FAILURE;
    }
    if skipped > 0 {
        eprintln!("samm-flame: skipped {skipped} unparseable line(s)");
    }

    let folded = fold(&spans);
    if collapsed {
        print!("{}", render_collapsed(&folded));
    } else {
        print!("{}", render_profile(&folded));
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        trace: &str,
        id: &str,
        parent: &str,
        name: &str,
        dur: u64,
        req: Option<&str>,
    ) -> String {
        let mut line = format!(
            "{{\"trace\":\"{trace}\",\"span\":\"{id}\",\"parent\":\"{parent}\",\
             \"name\":\"{name}\",\"kind\":\"internal\",\"start_ns\":1,\"dur_ns\":{dur}"
        );
        if let Some(req) = req {
            line.push_str(&format!(",\"req\":\"{req}\""));
        }
        line.push('}');
        line
    }

    #[test]
    fn folds_a_traced_request_into_one_stack() {
        let t = "00000000000000aa";
        let zero = "0000000000000000";
        let lines = [
            span(t, "01", zero, "client", 1_000_000, Some("enumerate")),
            span(t, "02", "01", "server", 800_000, Some("enumerate")),
            span(t, "03", "02", "enumerate", 400_000, None),
            span(t, "04", "03", "phase:closure", 100_000, None),
        ];
        let spans: Vec<Span> = lines.iter().map(|l| parse_span(l).unwrap()).collect();
        assert_eq!(spans.len(), 4);
        let folded = fold(&spans);
        assert_eq!(folded.traces, 1);
        let collapsed = render_collapsed(&folded);
        assert!(
            collapsed.contains("enumerate;client;server;enumerate;phase:closure 100"),
            "{collapsed}"
        );
        // client self = 1_000_000 - 800_000 = 200 us.
        assert!(collapsed.contains("enumerate;client 200"), "{collapsed}");
        let profile = render_profile(&folded);
        assert!(
            profile.contains("== enumerate (1 root span(s)"),
            "{profile}"
        );
        assert!(profile.contains("phase:closure"), "{profile}");
    }

    #[test]
    fn orphan_spans_root_their_own_tree() {
        let t = "00000000000000bb";
        let lines = [
            // Parent "99" is not in the input: a server span whose
            // client did not trace.
            span(t, "02", "99", "server", 500_000, Some("enumerate")),
            span(t, "03", "02", "enumerate", 300_000, None),
        ];
        let spans: Vec<Span> = lines.iter().map(|l| parse_span(l).unwrap()).collect();
        let folded = fold(&spans);
        let collapsed = render_collapsed(&folded);
        assert!(
            collapsed.contains("enumerate;server;enumerate 300"),
            "{collapsed}"
        );
        assert!(collapsed.contains("enumerate;server 200"), "{collapsed}");
    }

    #[test]
    fn self_parenting_spans_terminate() {
        let t = "00000000000000cc";
        let lines = [span(t, "07", "07", "server", 100_000, None)];
        let spans: Vec<Span> = lines.iter().map(|l| parse_span(l).unwrap()).collect();
        let folded = fold(&spans);
        assert!(render_collapsed(&folded).contains("server;server 100"));
    }

    #[test]
    fn non_span_lines_are_rejected() {
        assert!(parse_span("").is_none());
        assert!(parse_span("not json").is_none());
        assert!(parse_span(r#"{"event":"slow_query","id":"r1"}"#).is_none());
        assert!(parse_span(r#"{"trace":"aa","span":"bb"}"#).is_none());
    }
}
