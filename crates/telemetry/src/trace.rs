//! Causal span-tree tooling over the span ID scheme in [`crate::spans`]:
//! rebuild trees from frame events and validate that a trace export
//! really forms one file→frame→chunk tree.

use crate::frames::FrameEvent;
use crate::json::JsonValue;
use crate::spans::{frame_span, span_args, stage_span, TraceEvent, ROOT_SPAN};

/// Build a chrome://tracing span tree from a serial writer's
/// [`FrameEvent`] stream: one root file span, one span per frame
/// (parented to the root), and encode/CRC stage children per frame. Used
/// by the CLI to give the streaming (non-parallel) container paths the
/// same causal export the parallel pipeline records live.
pub fn frame_span_tree(name: &str, events: &[FrameEvent]) -> Vec<TraceEvent> {
    let mut out = Vec::with_capacity(events.len() * 3 + 1);
    let mut end_us = 0.0f64;
    let mut total_bytes = 0u64;
    for e in events {
        let frame_id = frame_span(u64::from(e.seq));
        let dur_us = e.encode_us + e.crc_us;
        end_us = end_us.max(e.start_us + dur_us);
        total_bytes += e.uncompressed_bytes;
        let mut args = span_args(frame_id, ROOT_SPAN);
        args.push(("bytes", e.uncompressed_bytes.into()));
        args.push(("payload_bytes", e.payload_bytes.into()));
        args.push(("codec", e.codec.into()));
        args.push(("outcome", e.outcome.as_str().into()));
        out.push(TraceEvent {
            name: format!("frame {}", e.seq),
            cat: "frame",
            tid: 1,
            ts_us: e.start_us,
            dur_us,
            args,
        });
        out.push(TraceEvent {
            name: format!("encode frame {}", e.seq),
            cat: "encode",
            tid: 1,
            ts_us: e.start_us,
            dur_us: e.encode_us,
            args: span_args(stage_span(frame_id, 0), frame_id),
        });
        if e.crc_us > 0.0 {
            out.push(TraceEvent {
                name: format!("crc frame {}", e.seq),
                cat: "crc",
                tid: 1,
                ts_us: e.start_us + e.encode_us,
                dur_us: e.crc_us,
                args: span_args(stage_span(frame_id, 1), frame_id),
            });
        }
    }
    let mut root_args = span_args(ROOT_SPAN, 0);
    root_args.push(("bytes", total_bytes.into()));
    root_args.push(("frames", (events.len() as u64).into()));
    out.insert(
        0,
        TraceEvent {
            name: name.to_string(),
            cat: "file",
            tid: 0,
            ts_us: 0.0,
            dur_us: end_us,
            args: root_args,
        },
    );
    out
}

/// Shape summary of a validated span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTreeSummary {
    /// Events carrying span identity.
    pub spans: usize,
    /// Maximum parent-chain depth (root = 1).
    pub max_depth: usize,
    /// Events with no span identity at all (legacy spans; allowed).
    pub unlinked: usize,
}

fn span_identity(e: &TraceEvent) -> Option<(u64, u64)> {
    let get = |key: &str| {
        e.args
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.as_i64())
            .map(|v| v.max(0) as u64)
    };
    Some((get("span_id")?, get("parent").unwrap_or(0)))
}

/// Validate that the events with span identity form a single causal tree:
/// exactly one root (`parent == 0`), every parent resolving to a present
/// span, and no parent cycles.
///
/// # Errors
/// Returns a description of the first structural violation.
pub fn validate_span_tree(events: &[TraceEvent]) -> Result<SpanTreeSummary, String> {
    let mut ids = std::collections::BTreeMap::new();
    let mut unlinked = 0usize;
    let mut roots = 0usize;
    for e in events {
        match span_identity(e) {
            Some((id, parent)) => {
                if id == 0 {
                    return Err(format!("span {:?} has id 0", e.name));
                }
                if parent == 0 {
                    roots += 1;
                    if roots > 1 {
                        return Err(format!("second root span {:?}", e.name));
                    }
                }
                ids.insert(id, parent);
            }
            None => unlinked += 1,
        }
    }
    if ids.is_empty() {
        return Err("no span identities in trace".to_string());
    }
    if roots == 0 {
        return Err("no root span (parent == 0)".to_string());
    }
    let mut max_depth = 0usize;
    for &id in ids.keys() {
        let mut depth = 1usize;
        let mut cur = id;
        while let Some(&parent) = ids.get(&cur) {
            if parent == 0 {
                break;
            }
            if !ids.contains_key(&parent) {
                return Err(format!("span {cur:#x} has unknown parent {parent:#x}"));
            }
            cur = parent;
            depth += 1;
            if depth > ids.len() {
                return Err(format!("parent cycle through span {id:#x}"));
            }
        }
        max_depth = max_depth.max(depth);
    }
    Ok(SpanTreeSummary { spans: ids.len(), max_depth, unlinked })
}

/// Validate a rendered Trace Event Format document (as produced by
/// `trace_events_json`) by extracting span identities from its `args`.
///
/// # Errors
/// Propagates JSON shape errors and [`validate_span_tree`] failures.
pub fn validate_trace_document(text: &str) -> Result<SpanTreeSummary, String> {
    let doc = crate::json::parse(text.trim())
        .map_err(|e| format!("trace document: bad JSON at byte {}", e.at))?;
    let list = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("trace document: missing traceEvents array")?;
    let mut events = Vec::with_capacity(list.len());
    for item in list {
        let mut args = Vec::new();
        if let Some(JsonValue::Object(fields)) = item.get("args") {
            for (k, v) in fields {
                let key: &'static str = match k.as_str() {
                    "span_id" => "span_id",
                    "parent" => "parent",
                    _ => continue,
                };
                args.push((key, v.clone()));
            }
        }
        events.push(TraceEvent {
            name: item.get("name").and_then(JsonValue::as_str).unwrap_or("").to_string(),
            cat: "trace",
            tid: item.get("tid").and_then(JsonValue::as_i64).unwrap_or(0) as u32,
            ts_us: item.get("ts").and_then(JsonValue::as_f64).unwrap_or(0.0),
            dur_us: item.get("dur").and_then(JsonValue::as_f64).unwrap_or(0.0),
            args,
        });
    }
    validate_span_tree(&events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::FrameOutcome;
    use crate::spans::trace_events_json;

    fn frame(seq: u32, start_us: f64) -> FrameEvent {
        FrameEvent {
            seq,
            uncompressed_bytes: 1000,
            payload_bytes: 300,
            codec: "fixed-zlib",
            crc_us: 5.0,
            encode_us: 80.0,
            start_us,
            outcome: FrameOutcome::Written,
        }
    }

    #[test]
    fn frame_events_become_one_tree() {
        let tree = frame_span_tree("compress in.bin", &[frame(0, 0.0), frame(1, 90.0)]);
        let summary = validate_span_tree(&tree).expect("tree validates");
        assert_eq!(summary.max_depth, 3, "file -> frame -> stage");
        assert_eq!(summary.unlinked, 0);
        // The rendered document validates too.
        let text = trace_events_json(&tree);
        let again = validate_trace_document(&text).unwrap();
        assert_eq!(again.spans, summary.spans);
    }

    #[test]
    fn forests_and_orphans_are_rejected() {
        let mut tree = frame_span_tree("a", &[frame(0, 0.0)]);
        let mut second = frame_span_tree("b", &[frame(1, 0.0)]);
        tree.append(&mut second);
        assert!(validate_span_tree(&tree).unwrap_err().contains("second root"));

        let orphan = vec![TraceEvent {
            name: "frame 9".into(),
            cat: "frame",
            tid: 1,
            ts_us: 0.0,
            dur_us: 1.0,
            args: span_args(frame_span(9), frame_span(8)),
        }];
        assert!(validate_span_tree(&orphan).unwrap_err().contains("no root"));
    }
}
