//! The stats aggregator behind `lzfpga stats`: folds a JSONL metrics
//! stream (one or many runs) into operator-facing tables — per-frame
//! latency quantiles, throughput, cache hit rates.

use std::collections::BTreeMap;

use lzfpga_telemetry::{Histogram, JsonValue};

use crate::export::snapshot_from_json;
use crate::registry::MetricsSnapshot;

/// Running aggregate over a JSONL metrics stream.
#[derive(Debug, Default)]
pub struct StatsAggregate {
    /// Events consumed (all kinds).
    pub events: u64,
    /// `run` events seen.
    pub runs: u64,
    /// Runs per command name.
    pub commands: BTreeMap<String, u64>,
    /// Input bytes summed over runs.
    pub input_bytes: u64,
    /// Output bytes summed over runs.
    pub output_bytes: u64,
    /// Frames seen (all outcomes).
    pub frames: u64,
    /// Frames per outcome name.
    pub frame_outcomes: BTreeMap<String, u64>,
    /// Uncompressed bytes covered by frames.
    pub frame_bytes: u64,
    /// Stored payload bytes across frames.
    pub frame_payload_bytes: u64,
    /// Wall-clock seconds summed from `parallel` events.
    pub wall_s: f64,
    /// Range-decode cache hits / misses (from `range` events).
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Seek-index hits / linear-walk fallbacks.
    pub index_hits: u64,
    /// Index fallbacks.
    pub index_fallbacks: u64,
    /// Merged registry snapshots (from `metrics` events).
    pub metrics: MetricsSnapshot,
    frame_latency: Histogram,
}

impl StatsAggregate {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-frame latency (`crc_us + encode_us`) distribution.
    pub fn frame_latency(&self) -> &Histogram {
        &self.frame_latency
    }

    /// Aggregate throughput in MB/s: wall-clock when any run reported it,
    /// else the summed per-frame stage times.
    pub fn mb_per_s(&self) -> f64 {
        let secs =
            if self.wall_s > 0.0 { self.wall_s } else { self.frame_latency.sum as f64 / 1e6 };
        let bytes = if self.frame_bytes > 0 { self.frame_bytes } else { self.input_bytes };
        if secs <= 0.0 {
            0.0
        } else {
            bytes as f64 / secs / 1e6
        }
    }

    /// Cache hit rate over `range` events (0 when no cache traffic).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fold one parsed JSONL event into the aggregate.
    pub fn add_event(&mut self, v: &JsonValue) {
        self.events += 1;
        let Some(kind) = v.get("event").and_then(JsonValue::as_str) else { return };
        match kind {
            "run" => {
                self.runs += 1;
                if let Some(cmd) = v.get("command").and_then(JsonValue::as_str) {
                    *self.commands.entry(cmd.to_string()).or_insert(0) += 1;
                }
                self.input_bytes += get_u64(v, "input_bytes");
                self.output_bytes += get_u64(v, "output_bytes");
            }
            "frame" => {
                self.frames += 1;
                if let Some(o) = v.get("outcome").and_then(JsonValue::as_str) {
                    *self.frame_outcomes.entry(o.to_string()).or_insert(0) += 1;
                }
                self.frame_bytes += get_u64(v, "uncompressed_bytes");
                self.frame_payload_bytes += get_u64(v, "payload_bytes");
                let crc = v.get("crc_us").and_then(JsonValue::as_f64).unwrap_or(0.0);
                let enc = v.get("encode_us").and_then(JsonValue::as_f64).unwrap_or(0.0);
                self.frame_latency.record_us(crc + enc);
            }
            "parallel" => {
                if let Some(w) = v.get("wall_s").and_then(JsonValue::as_f64) {
                    self.wall_s += w.max(0.0);
                }
            }
            "range" => {
                self.cache_hits += get_u64(v, "cache_hits");
                self.cache_misses += get_u64(v, "cache_misses");
                self.index_hits += get_u64(v, "index_hits");
                self.index_fallbacks += get_u64(v, "index_fallbacks");
            }
            "metrics" => {
                if let Some(snap) = snapshot_from_json(v) {
                    self.metrics.merge(&snap);
                }
            }
            _ => {}
        }
    }

    /// Render the operator tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "events: {}   runs: {}   frames: {}\n",
            self.events, self.runs, self.frames
        ));
        if self.input_bytes > 0 {
            let ratio = if self.output_bytes > 0 {
                self.input_bytes as f64 / self.output_bytes as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "bytes in/out: {} / {}   ratio: {ratio:.3}   throughput: {:.1} MB/s\n",
                self.input_bytes,
                self.output_bytes,
                self.mb_per_s()
            ));
        }
        let lat = self.frame_latency();
        if lat.count() > 0 {
            out.push_str(&format!(
                "frame latency (us): p50 {}  p90 {}  p99 {}  max {}  mean {:.1}  (n={})\n",
                lat.quantile(0.50),
                lat.quantile(0.90),
                lat.quantile(0.99),
                lat.max,
                lat.mean(),
                lat.count()
            ));
        }
        if self.cache_hits + self.cache_misses > 0 {
            out.push_str(&format!(
                "range cache: {:.1}% hit ({} hit / {} miss)   index: {} hit / {} fallback\n",
                self.cache_hit_rate() * 100.0,
                self.cache_hits,
                self.cache_misses,
                self.index_hits,
                self.index_fallbacks
            ));
        }
        if !self.commands.is_empty() {
            out.push_str("commands:");
            for (cmd, n) in &self.commands {
                out.push_str(&format!("  {cmd} x{n}"));
            }
            out.push('\n');
        }
        if !self.frame_outcomes.is_empty() {
            out.push_str("frame outcomes:");
            for (o, n) in &self.frame_outcomes {
                out.push_str(&format!("  {o} x{n}"));
            }
            out.push('\n');
        }
        if !self.metrics.metrics.is_empty() {
            out.push_str(&format!(
                "registry metrics: {} series merged\n",
                self.metrics.metrics.len()
            ));
        }
        out
    }
}

fn get_u64(v: &JsonValue, key: &str) -> u64 {
    v.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricValue;
    use lzfpga_telemetry::histogram::bucket_index;
    use lzfpga_telemetry::json::{obj, parse};

    fn ev(kind: &str, mut body: JsonValue) -> JsonValue {
        body.push("event", kind);
        body
    }

    #[test]
    fn aggregates_a_small_stream() {
        let mut agg = StatsAggregate::new();
        agg.add_event(&ev(
            "run",
            obj([
                ("command", "frame".into()),
                ("input_bytes", 1000u64.into()),
                ("output_bytes", 400u64.into()),
            ]),
        ));
        for (enc, crc) in [(100.0, 10.0), (300.0, 30.0), (900.0, 90.0)] {
            agg.add_event(&ev(
                "frame",
                obj([
                    ("uncompressed_bytes", 333u64.into()),
                    ("payload_bytes", 120u64.into()),
                    ("encode_us", enc.into()),
                    ("crc_us", crc.into()),
                    ("outcome", "written".into()),
                ]),
            ));
        }
        agg.add_event(&ev(
            "range",
            obj([("cache_hits", 9u64.into()), ("cache_misses", 1u64.into())]),
        ));
        assert_eq!(agg.runs, 1);
        assert_eq!(agg.frames, 3);
        assert!((agg.cache_hit_rate() - 0.9).abs() < 1e-12);
        let lat = agg.frame_latency();
        assert_eq!(lat.count(), 3);
        assert_eq!(bucket_index(lat.quantile(0.5)), bucket_index(330));
        let text = agg.render();
        assert!(text.contains("p50"), "render: {text}");
        assert!(text.contains("90.0% hit"), "render: {text}");
        assert!(text.contains("frame x1"), "render: {text}");
    }

    #[test]
    fn merges_metrics_events() {
        let mut agg = StatsAggregate::new();
        let line = r#"{"event":"metrics","seq":9,"counters":{"frames_total":5},"gauges":{},"histograms":{}}"#;
        agg.add_event(&parse(line).unwrap());
        agg.add_event(&parse(line).unwrap());
        assert_eq!(agg.metrics.counter("frames_total"), 10);
    }

    #[test]
    fn a_histogram_sum_past_2_pow_63_parses_back_exactly() {
        use crate::export::snapshot_to_json;
        use crate::registry::MetricsRegistry;
        let reg = MetricsRegistry::new();
        let lat = reg.histogram("lat");
        for _ in 0..3 {
            lat.record(1 << 62);
        }
        reg.counter("bytes_total").add(u64::MAX);
        let mut line = snapshot_to_json(&reg.snapshot());
        line.push("event", "metrics");
        let mut agg = StatsAggregate::new();
        agg.add_event(&parse(&line.render()).unwrap());
        let Some(MetricValue::Histogram(h)) = agg.metrics.get("lat") else { panic!("not merged") };
        assert_eq!((h.count(), h.sum, h.max), (3, 3 << 62, 1 << 62));
        assert_eq!(agg.metrics.counter("bytes_total"), u64::MAX);
    }

    #[test]
    fn malformed_histograms_are_not_merged() {
        use lzfpga_telemetry::histogram::BUCKETS;
        let line = |hist: &str| {
            format!(
                r#"{{"event":"metrics","counters":{{}},"gauges":{{}},"histograms":{{"lat":{hist}}}}}"#
            )
        };
        let bad = [
            format!(r#"{{"sum":9,"max":9,"buckets":[[{BUCKETS},1]]}}"#),
            r#"{"sum":9,"max":9,"buckets":[[9,-5]]}"#.to_string(),
            r#"{"sum":-5,"max":9,"buckets":[[9,1]]}"#.to_string(),
            r#"{"sum":18,"max":9,"buckets":[[9,1],[9,1]]}"#.to_string(),
            r#"{"sum":18,"max":9,"buckets":[[9,1],[3,1]]}"#.to_string(),
        ];
        let mut agg = StatsAggregate::new();
        for hist in &bad {
            agg.add_event(&parse(&line(hist)).unwrap());
        }
        assert_eq!(agg.events, bad.len() as u64);
        assert!(agg.metrics.get("lat").is_none(), "a malformed line merged: {:?}", agg.metrics);
        assert!(!agg.render().contains("registry metrics"));

        // A well-formed line still merges, with its exact sum.
        agg.add_event(&parse(&line(r#"{"sum":12,"max":9,"buckets":[[3,1],[9,1]]}"#)).unwrap());
        let Some(MetricValue::Histogram(h)) = agg.metrics.get("lat") else { panic!("not merged") };
        assert_eq!((h.count(), h.sum, h.max), (2, 12, 9));
    }
}
