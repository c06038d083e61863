//! Reassembles per-request causal traces from the ring tracer's
//! [`TraceEvent::Request`] records.
//!
//! The admission service stamps every trace operation with its
//! request id (the operation's index in the trace) and emits
//! `dispatch`, per-hop `commit` or `abort`, and `finalize` records.
//! The reassembler orders each request's records by the **causal
//! key** `(stage, path, time)` — stage codes are causally
//! ordered (see [`crate::trace::request_stage`]) — rather than by
//! timestamp, so the span trees are deterministic even for records
//! merged from several rings.

use std::collections::BTreeMap;

use crate::trace::{request_stage, TraceEvent};

/// One causal stage record of a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageRecord {
    /// The recorder's logical time when the stage was recorded.
    pub time: u64,
    /// Stage code (a [`request_stage`] constant).
    pub stage: u8,
    /// Hop index within the request's path, or
    /// [`request_stage::NO_PATH`] for non-hop stages.
    pub path: u8,
}

/// All stages of one request, in causal order.
#[derive(Clone, Debug)]
pub struct RequestSpan {
    /// The request id (the trace-op index).
    pub rid: u32,
    /// Stage records sorted by `(stage, path, time)`.
    pub stages: Vec<StageRecord>,
}

impl RequestSpan {
    /// Whether the request aborted (any `abort` stage present).
    #[must_use]
    pub fn aborted(&self) -> bool {
        self.stages.iter().any(|s| s.stage == request_stage::ABORT)
    }

    /// The request's final stage label (for summaries).
    #[must_use]
    pub fn outcome(&self) -> &'static str {
        if self.aborted() {
            "abort"
        } else if self.stages.iter().any(|s| s.stage == request_stage::COMMIT) {
            "commit"
        } else {
            "dispatch"
        }
    }

    /// Renders the span tree as indented text: request stages
    /// (dispatch/finalize) at the first level, per-hop stages nested
    /// under them.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("request rid={} outcome={}\n", self.rid, self.outcome());
        for s in &self.stages {
            let hop_level = matches!(s.stage, request_stage::COMMIT | request_stage::ABORT);
            let indent = if hop_level { "    " } else { "  " };
            out.push_str(indent);
            out.push_str(&format!("{:<9}", request_stage::label(s.stage)));
            out.push_str(&format!(" t={}", s.time));
            if s.path != request_stage::NO_PATH {
                out.push_str(&format!(" hop={}", s.path));
            }
            out.push('\n');
        }
        out
    }
}

/// Groups raw `(time, event)` records into per-request spans, in
/// request-id order, each span causally sorted. Non-request events
/// are ignored, so a whole ring's records can be passed straight in.
#[must_use]
pub fn reassemble(records: &[(u64, TraceEvent)]) -> Vec<RequestSpan> {
    let mut by_rid: BTreeMap<u32, Vec<StageRecord>> = BTreeMap::new();
    for (time, ev) in records {
        if let TraceEvent::Request { rid, stage, path } = *ev {
            by_rid.entry(rid).or_default().push(StageRecord {
                time: *time,
                stage,
                path,
            });
        }
    }
    by_rid
        .into_iter()
        .map(|(rid, mut stages)| {
            stages.sort_by_key(|s| (s.stage, s.path, s.time));
            RequestSpan { rid, stages }
        })
        .collect()
}

/// Renders every span tree, separated by blank lines — the body of a
/// flight-recorder `requests.txt`.
#[must_use]
pub fn render_all(spans: &[RequestSpan]) -> String {
    if spans.is_empty() {
        return "no request records\n".to_string();
    }
    spans
        .iter()
        .map(RequestSpan::render)
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(rid: u32, stage: u8, path: u8) -> TraceEvent {
        TraceEvent::Request { rid, stage, path }
    }

    #[test]
    fn reassembles_causal_order_across_interleaved_rings() {
        // Records arrive shuffled (two rings drained back to back,
        // worker clocks ahead of the coordinator's).
        let records = vec![
            (5, req(1, request_stage::FINALIZE, request_stage::NO_PATH)),
            (3, req(1, request_stage::COMMIT, 1)),
            (9, req(2, request_stage::DISPATCH, request_stage::NO_PATH)),
            (1, req(1, request_stage::DISPATCH, request_stage::NO_PATH)),
            (3, req(1, request_stage::COMMIT, 0)),
            (7, TraceEvent::Release), // non-request noise: ignored
        ];
        let spans = reassemble(&records);
        assert_eq!(spans.len(), 2);
        let one = &spans[0];
        assert_eq!(one.rid, 1);
        assert_eq!(one.outcome(), "commit");
        let order: Vec<(u8, u8)> = one.stages.iter().map(|s| (s.stage, s.path)).collect();
        assert_eq!(
            order,
            vec![
                (request_stage::DISPATCH, request_stage::NO_PATH),
                (request_stage::COMMIT, 0),
                (request_stage::COMMIT, 1),
                (request_stage::FINALIZE, request_stage::NO_PATH),
            ]
        );
        assert_eq!(spans[1].rid, 2);
        assert_eq!(spans[1].outcome(), "dispatch");
    }

    #[test]
    fn aborted_requests_are_flagged() {
        let records = vec![
            (1, req(4, request_stage::DISPATCH, request_stage::NO_PATH)),
            (3, req(4, request_stage::ABORT, 0)),
            (4, req(4, request_stage::FINALIZE, request_stage::NO_PATH)),
        ];
        let spans = reassemble(&records);
        assert!(spans[0].aborted());
        assert_eq!(spans[0].outcome(), "abort");
        let text = spans[0].render();
        assert!(text.starts_with("request rid=4 outcome=abort\n"));
        assert!(text.contains("    abort"));
        assert!(text.contains("    abort     t=3 hop=0\n"), "{text}");
    }

    #[test]
    fn render_all_handles_empty_and_joins_spans() {
        assert_eq!(render_all(&[]), "no request records\n");
        let records = vec![
            (1, req(0, request_stage::DISPATCH, request_stage::NO_PATH)),
            (2, req(1, request_stage::DISPATCH, request_stage::NO_PATH)),
        ];
        let text = render_all(&reassemble(&records));
        assert_eq!(text.matches("request rid=").count(), 2);
    }
}
