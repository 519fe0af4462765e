//! Per-frame events for the LZFC framed container.
//!
//! The container crate reports one [`FrameEvent`] per frame it writes (or
//! salvages), and the CLI forwards them through the opt-in JSONL sink so
//! frame overhead — header bytes, CRC time, codec choice, salvage skips —
//! shows up in `--metrics` output next to the compressor's own counters.
//! Keeping the type here (the dependency-free leaf crate) lets the
//! container, parallel pipeline, CLI and bench harness all share one
//! schema.

use crate::json::{obj, JsonValue};
use crate::registry::MetricsRegistry;

/// What happened to one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameOutcome {
    /// The frame was compressed and written.
    Written,
    /// The frame decoded cleanly (strict or salvage decode).
    Recovered,
    /// Salvage could not trust the header but recovered the payload via
    /// its self-delimiting zlib stream.
    DeepRecovered,
    /// Salvage skipped the frame as damaged.
    Skipped,
}

impl FrameOutcome {
    /// Stable lowercase name used in the JSONL schema.
    pub fn as_str(self) -> &'static str {
        match self {
            FrameOutcome::Written => "written",
            FrameOutcome::Recovered => "recovered",
            FrameOutcome::DeepRecovered => "deep-recovered",
            FrameOutcome::Skipped => "skipped",
        }
    }
}

/// One frame's worth of container telemetry.
#[derive(Debug, Clone)]
pub struct FrameEvent {
    /// Frame sequence number.
    pub seq: u32,
    /// Uncompressed bytes the frame covers.
    pub uncompressed_bytes: u64,
    /// Stored payload bytes (compressed size, or raw size for raw frames).
    pub payload_bytes: u64,
    /// Payload codec name (`raw`, `fixed-zlib`, `zlib-chunk`).
    pub codec: &'static str,
    /// Time spent computing the payload and stream checksums, µs.
    pub crc_us: f64,
    /// Time spent in the match/encode stage for this frame, µs.
    pub encode_us: f64,
    /// When work on the frame started, µs since the producing writer's
    /// epoch (0 when the producer predates span tracing). Lets
    /// [`crate::trace::frame_span_tree`] rebuild a causal span tree from a
    /// finished event stream.
    pub start_us: f64,
    /// What happened to the frame.
    pub outcome: FrameOutcome,
}

impl FrameEvent {
    /// Render for the JSONL sink.
    pub fn to_json(&self) -> JsonValue {
        obj([
            ("seq", self.seq.into()),
            ("uncompressed_bytes", self.uncompressed_bytes.into()),
            ("payload_bytes", self.payload_bytes.into()),
            ("codec", self.codec.into()),
            ("crc_us", self.crc_us.into()),
            ("encode_us", self.encode_us.into()),
            ("start_us", self.start_us.into()),
            ("outcome", self.outcome.as_str().into()),
        ])
    }
}

/// Record frame events into `reg`: outcome counters, byte totals, and the
/// per-frame latency histogram (`crc_us + encode_us`).
pub fn record_frames(reg: &MetricsRegistry, events: &[FrameEvent]) {
    let latency = reg.histogram("frame_latency_us");
    for e in events {
        reg.counter("frames_total").inc();
        reg.counter(&format!("frames_{}", e.outcome.as_str().replace('-', "_"))).inc();
        reg.counter("frame_uncompressed_bytes").add(e.uncompressed_bytes);
        reg.counter("frame_payload_bytes").add(e.payload_bytes);
        latency.record_us(e.crc_us + e.encode_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_round_trips_through_the_parser() {
        let ev = FrameEvent {
            seq: 7,
            uncompressed_bytes: 262_144,
            payload_bytes: 90_112,
            codec: "fixed-zlib",
            crc_us: 12.5,
            encode_us: 800.0,
            start_us: 40.0,
            outcome: FrameOutcome::Written,
        };
        let parsed = crate::json::parse(&ev.to_json().render()).unwrap();
        assert_eq!(parsed.get("seq").unwrap().as_i64(), Some(7));
        assert_eq!(parsed.get("codec").unwrap().as_str(), Some("fixed-zlib"));
        assert_eq!(parsed.get("outcome").unwrap().as_str(), Some("written"));
        assert_eq!(parsed.get("payload_bytes").unwrap().as_i64(), Some(90_112));
    }

    #[test]
    fn outcome_names_are_stable() {
        assert_eq!(FrameOutcome::Written.as_str(), "written");
        assert_eq!(FrameOutcome::Recovered.as_str(), "recovered");
        assert_eq!(FrameOutcome::DeepRecovered.as_str(), "deep-recovered");
        assert_eq!(FrameOutcome::Skipped.as_str(), "skipped");
    }

    #[test]
    fn frame_events_feed_the_latency_histogram() {
        use crate::registry::MetricValue;
        let reg = MetricsRegistry::new();
        let mk = |seq: u32, outcome| FrameEvent {
            seq,
            uncompressed_bytes: 100,
            payload_bytes: 40,
            codec: "raw",
            crc_us: 2.0,
            encode_us: 50.0,
            start_us: 0.0,
            outcome,
        };
        record_frames(&reg, &[mk(0, FrameOutcome::Written), mk(1, FrameOutcome::DeepRecovered)]);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("frames_total"), 2);
        assert_eq!(snap.counter("frames_written"), 1);
        assert_eq!(snap.counter("frames_deep_recovered"), 1);
        let Some(MetricValue::Histogram(h)) = snap.get("frame_latency_us") else {
            panic!("latency histogram missing")
        };
        assert_eq!(h.count(), 2);
    }
}
