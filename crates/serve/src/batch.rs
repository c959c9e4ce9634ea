//! The `batch` request kind: many sub-requests per round trip.
//!
//! A batch amortizes framing and syscalls over up to
//! [`crate::protocol::MAX_BATCH`] litmus queries: the client sends one
//! line, the server answers one line whose `responses` array matches
//! the sub-request order. Every slot is independent — a malformed or
//! failing sub-request yields a structured error object *in its slot*
//! and its neighbours still execute.

use std::sync::atomic::Ordering;

use samm_core::telemetry::trace::ActiveSpan;

use crate::handler::{handle_sub, ServerState};
use crate::json::Json;
use crate::protocol::{Envelope, ServiceError};

/// Executes a parsed batch. `parent_id` is the batch envelope's
/// effective id — slots without a client id get a distinct
/// `{parent_id}.{slot}` child id — and `span` the batch's server span,
/// under which every slot opens its own `sub` span (so a slow slot in
/// the slow log names its envelope through its `parent` field).
pub(crate) fn execute(
    state: &ServerState,
    subs: &[Result<Envelope, ServiceError>],
    parent_id: &str,
    span: Option<&ActiveSpan>,
) -> Json {
    state.telemetry.batch_sizes.record(subs.len() as u64);
    let ctx = span.map(ActiveSpan::context);
    let mut failed = 0u64;
    let rendered: Vec<Json> = subs
        .iter()
        .enumerate()
        .map(|(index, slot)| {
            let response = match slot {
                Ok(env) => {
                    // The client's own id wins, otherwise the slot index
                    // under the batch's id.
                    let id = env
                        .id
                        .clone()
                        .unwrap_or_else(|| format!("{parent_id}.{index}"));
                    handle_sub(state, env, &id, ctx)
                }
                Err(err) => {
                    state.telemetry.errors.fetch_add(1, Ordering::Relaxed);
                    err.to_response()
                }
            };
            if response.get("ok").and_then(Json::as_bool) != Some(true) {
                failed += 1;
            }
            response
        })
        .collect();

    Json::obj([
        ("ok", Json::Bool(true)),
        ("kind", Json::str("batch")),
        ("count", Json::num(rendered.len() as f64)),
        ("failed", Json::num(failed as f64)),
        ("responses", Json::Arr(rendered)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;
    use samm_core::cache::EnumCache;

    fn state() -> ServerState {
        ServerState::new(EnumCache::new(64), None)
    }

    fn batch_line(subs: &[&str]) -> String {
        format!(r#"{{"kind":"batch","requests":[{}]}}"#, subs.join(","))
    }

    #[test]
    fn responses_preserve_slot_order_and_ids() {
        let state = state();
        let line = batch_line(&[
            r#"{"kind":"enumerate","test":"SB","model":"TSO","id":"s0"}"#,
            r#"{"kind":"metrics","id":"s1"}"#,
            r#"{"kind":"enumerate","test":"SB","model":"SC","id":"s2"}"#,
        ]);
        let request = parse_request(&line).unwrap();
        let response = crate::handler::handle(&state, &request);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("count").and_then(Json::as_u64), Some(3));
        assert_eq!(response.get("failed").and_then(Json::as_u64), Some(0));
        let responses = response.get("responses").and_then(Json::as_arr).unwrap();
        for (slot, id) in responses.iter().zip(["s0", "s1", "s2"]) {
            assert_eq!(slot.get("ok"), Some(&Json::Bool(true)));
            assert_eq!(slot.get("id").and_then(Json::as_str), Some(id));
        }
        // SB under TSO has 3 outcomes, under SC 2 fewer interleavings
        // are visible at slot granularity: just check the kinds.
        assert_eq!(
            responses[0].get("kind").and_then(Json::as_str),
            Some("enumerate")
        );
        assert_eq!(
            responses[1].get("kind").and_then(Json::as_str),
            Some("metrics")
        );
    }

    #[test]
    fn slots_without_ids_get_distinct_child_ids() {
        let state = state();
        let line = batch_line(&[
            r#"{"kind":"enumerate","test":"SB","model":"TSO"}"#,
            r#"{"kind":"metrics","id":"mine"}"#,
            r#"{"kind":"enumerate","test":"SB","model":"SC"}"#,
        ]);
        let request = parse_request(&line).unwrap();
        let response = crate::handler::handle(&state, &request);
        let parent = response
            .get("id")
            .and_then(Json::as_str)
            .expect("batch id")
            .to_owned();
        let responses = response.get("responses").and_then(Json::as_arr).unwrap();
        assert_eq!(
            responses[0].get("id").and_then(Json::as_str),
            Some(format!("{parent}.0").as_str())
        );
        // Client-supplied ids always win over derived ones.
        assert_eq!(responses[1].get("id").and_then(Json::as_str), Some("mine"));
        assert_eq!(
            responses[2].get("id").and_then(Json::as_str),
            Some(format!("{parent}.2").as_str())
        );
    }

    #[test]
    fn malformed_slots_fail_alone() {
        let state = state();
        let line = batch_line(&[
            r#"{"kind":"enumerate","test":"SB","model":"TSO"}"#,
            r#"{"kind":"enumerate","test":"SB"}"#,
            r#"{"kind":"shutdown"}"#,
            r#"{"kind":"enumerate","test":"no-such-test","model":"TSO"}"#,
        ]);
        let request = parse_request(&line).unwrap();
        let response = crate::handler::handle(&state, &request);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("failed").and_then(Json::as_u64), Some(3));
        let responses = response.get("responses").and_then(Json::as_arr).unwrap();
        assert_eq!(responses[0].get("ok"), Some(&Json::Bool(true)));
        for (slot, kind) in [(1, "malformed"), (2, "malformed"), (3, "unknown-test")] {
            assert_eq!(responses[slot].get("ok"), Some(&Json::Bool(false)));
            assert_eq!(
                responses[slot]
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str),
                Some(kind),
                "slot {slot}"
            );
        }
    }

    #[test]
    fn batch_matches_sequential_singles_cache_effects() {
        let batched = state();
        let singles = state();
        let subs = [
            r#"{"kind":"enumerate","test":"SB","model":"TSO"}"#,
            r#"{"kind":"enumerate","test":"SB","model":"SC"}"#,
            r#"{"kind":"enumerate","test":"SB","model":"TSO"}"#,
        ];
        let batch_request = parse_request(&batch_line(&subs)).unwrap();
        let response = crate::handler::handle(&batched, &batch_request);
        let batch_responses: Vec<Json> = response
            .get("responses")
            .and_then(Json::as_arr)
            .unwrap()
            .to_vec();

        let single_responses: Vec<Json> = subs
            .iter()
            .map(|line| crate::handler::handle(&singles, &parse_request(line).unwrap()))
            .collect();

        for (b, s) in batch_responses.iter().zip(&single_responses) {
            for field in ["kind", "test", "model", "cache_hit", "outcome_count"] {
                assert_eq!(b.get(field), s.get(field), "field {field}");
            }
            assert_eq!(b.get("outcomes"), s.get("outcomes"));
        }
        // Same fingerprints → same cache population either way.
        assert_eq!(batched.cache.len(), singles.cache.len());
        assert_eq!(batched.cache.stats().hits, singles.cache.stats().hits);
        assert_eq!(batched.cache.stats().misses, singles.cache.stats().misses);
        // The batch line counts once; its subs do not inflate requests.
        assert_eq!(batched.telemetry.requests.load(Ordering::Relaxed), 1);
        assert_eq!(singles.telemetry.requests.load(Ordering::Relaxed), 3);
        // Sub-kind latency telemetry still flows per sub-request.
        assert_eq!(batched.telemetry.kinds[0].total(), 3);
        assert_eq!(batched.telemetry.kinds[5].total(), 1);
        assert_eq!(batched.telemetry.batch_sizes.count(), 1);
    }
}
