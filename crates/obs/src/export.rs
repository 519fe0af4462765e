//! Dependency-free exporters: Prometheus text exposition and JSONL
//! snapshot events.
//!
//! The Prometheus side emits the version-0.0.4 text format the future
//! multi-stream server can serve verbatim from `/metrics`, and ships a
//! minimal validating parser so tests (and the faultstorm reconciliation
//! drill) can prove the output is well-formed without a prometheus
//! dependency. The JSONL side round-trips [`MetricsSnapshot`] through the
//! existing event sink so `lzfpga stats` can aggregate finished runs.

use lzfpga_telemetry::histogram::{bucket_hi, BUCKETS};
use lzfpga_telemetry::json::obj;
use lzfpga_telemetry::{Histogram, JsonValue};

use crate::registry::{MetricValue, MetricsSnapshot};

/// Map a metric name onto the Prometheus name charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline (the satellite-1 class of bug, at the exporter).
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// Render a snapshot as Prometheus text exposition (version 0.0.4).
///
/// Histograms emit cumulative `_bucket{le="..."}` rows (one per occupied
/// log-linear bucket, plus `+Inf`), `_sum`, and `_count`.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.metrics {
        let name = sanitize_metric_name(name);
        match value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", render_f64(*v)));
            }
            MetricValue::Histogram(h) => {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                let (mut cumulative, mut last) = (0u64, None);
                for (i, n) in h.buckets() {
                    cumulative = cumulative.saturating_add(n);
                    last = Some(i);
                    let le = bucket_hi(i);
                    let le = if le == u64::MAX { "+Inf".to_string() } else { le.to_string() };
                    out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                }
                if last != Some(BUCKETS - 1) {
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
                }
                out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum, h.count()));
            }
        }
    }
    out
}

/// One sample line parsed from exposition text.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name (including any `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// `(label, value)` pairs, in order of appearance.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let key = rest[..eq].trim();
        if !valid_name(key) {
            return Err(format!("bad label name {key:?}"));
        }
        rest = rest[eq + 1..].trim_start();
        if !rest.starts_with('"') {
            return Err(format!("label value must be quoted: {rest:?}"));
        }
        let mut value = String::new();
        let mut chars = rest[1..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    other => return Err(format!("bad escape {other:?}")),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| "unterminated label value".to_string())?;
        labels.push((key.to_string(), value));
        rest = rest[1 + end + 1..].trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("junk after label value: {rest:?}"));
        }
    }
    Ok(labels)
}

/// Parse and validate exposition text; returns every sample line.
///
/// # Errors
/// Returns a description of the first malformed line. Validates name
/// charsets, quoted/escaped label values, numeric sample values, and
/// `# TYPE` comment shape — enough to catch every escaping or framing bug
/// the exporter could produce.
pub fn parse_prometheus_text(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fail = |msg: String| format!("line {}: {msg}", lineno + 1);
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            match words.next() {
                Some("TYPE") => {
                    let name = words.next().ok_or_else(|| fail("# TYPE without name".into()))?;
                    if !valid_name(name) {
                        return Err(fail(format!("bad metric name {name:?}")));
                    }
                    let kind = words.next().ok_or_else(|| fail("# TYPE without kind".into()))?;
                    if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                        return Err(fail(format!("bad metric kind {kind:?}")));
                    }
                }
                Some("HELP") | Some("EOF") | None => {}
                Some(_) => {} // free-form comment
            }
            continue;
        }
        // name[{labels}] value [timestamp]
        let (name, rest) = match line.find(|c: char| c == '{' || c.is_whitespace()) {
            Some(i) => line.split_at(i),
            None => return Err(fail(format!("sample without value: {line:?}"))),
        };
        if !valid_name(name) {
            return Err(fail(format!("bad metric name {name:?}")));
        }
        let rest = rest.trim_start();
        let (labels, rest) = if let Some(body) = rest.strip_prefix('{') {
            let close =
                find_label_close(body).ok_or_else(|| fail("unterminated label set".into()))?;
            (parse_labels(&body[..close]).map_err(fail)?, body[close + 1..].trim_start())
        } else {
            (Vec::new(), rest)
        };
        let mut words = rest.split_whitespace();
        let value = words.next().ok_or_else(|| fail("missing sample value".into()))?;
        let value = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v.parse().map_err(|_| fail(format!("bad sample value {v:?}")))?,
        };
        if let Some(ts) = words.next() {
            ts.parse::<i64>().map_err(|_| fail(format!("bad timestamp {ts:?}")))?;
        }
        if words.next().is_some() {
            return Err(fail("trailing junk after sample".into()));
        }
        samples.push(PromSample { name: name.to_string(), labels, value });
    }
    Ok(samples)
}

/// Find the index of the `}` closing a label set, honoring quotes/escapes.
fn find_label_close(body: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

/// The snapshot as a JSONL `metrics` event body:
/// `{counters: {...}, gauges: {...}, histograms: {...}}`.
pub fn snapshot_to_json(snap: &MetricsSnapshot) -> JsonValue {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for (name, value) in &snap.metrics {
        match value {
            MetricValue::Counter(v) => counters.push((name.clone(), JsonValue::from(*v))),
            MetricValue::Gauge(v) => gauges.push((name.clone(), JsonValue::from(*v))),
            MetricValue::Histogram(h) => histograms.push((name.clone(), h.to_json())),
        }
    }
    obj([
        ("counters", JsonValue::Object(counters)),
        ("gauges", JsonValue::Object(gauges)),
        ("histograms", JsonValue::Object(histograms)),
    ])
}

/// Parse the [`snapshot_to_json`] form (ignores unknown fields, so the
/// stamped `event`/`seq` keys of a sink line are fine).
pub fn snapshot_from_json(v: &JsonValue) -> Option<MetricsSnapshot> {
    let mut metrics = Vec::new();
    if let Some(JsonValue::Object(fields)) = v.get("counters") {
        for (name, value) in fields {
            metrics.push((name.clone(), MetricValue::Counter(value.as_u64()?)));
        }
    }
    if let Some(JsonValue::Object(fields)) = v.get("gauges") {
        for (name, value) in fields {
            metrics.push((name.clone(), MetricValue::Gauge(value.as_f64()?)));
        }
    }
    if let Some(JsonValue::Object(fields)) = v.get("histograms") {
        for (name, value) in fields {
            metrics.push((name.clone(), MetricValue::Histogram(Histogram::from_json(value)?)));
        }
    }
    metrics.sort_by(|(a, _), (b, _)| a.cmp(b));
    Some(MetricsSnapshot { metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("frames_total").add(42);
        reg.gauge("compress_ratio").set(2.75);
        let h = reg.histogram("frame_encode_us");
        for v in [10u64, 200, 200, 3000, 50_000] {
            h.record(v);
        }
        reg
    }

    #[test]
    fn exposition_parses_and_preserves_totals() {
        let snap = sample_registry().snapshot();
        let text = prometheus_text(&snap);
        let samples = parse_prometheus_text(&text).expect("exposition must validate");
        let count = samples
            .iter()
            .find(|s| s.name == "frame_encode_us_count")
            .expect("histogram count row");
        assert_eq!(count.value, 5.0);
        let inf = samples
            .iter()
            .find(|s| {
                s.name == "frame_encode_us_bucket"
                    && s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf")
            })
            .expect("+Inf bucket row");
        assert_eq!(inf.value, 5.0);
        let frames = samples.iter().find(|s| s.name == "frames_total").unwrap();
        assert_eq!(frames.value, 42.0);
        // Cumulative bucket rows must be non-decreasing.
        let buckets: Vec<f64> = samples
            .iter()
            .filter(|s| s.name == "frame_encode_us_bucket")
            .map(|s| s.value)
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn label_escaping_round_trips() {
        let hostile = "a\\b\"c\nd";
        let line = format!("m{{path=\"{}\"}} 1\n", escape_label_value(hostile));
        let samples = parse_prometheus_text(&line).unwrap();
        assert_eq!(samples[0].labels, vec![("path".to_string(), hostile.to_string())]);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus_text("1bad_name 2\n").is_err());
        assert!(parse_prometheus_text("m{l=unquoted} 2\n").is_err());
        assert!(parse_prometheus_text("m{l=\"open} 2\n").is_err());
        assert!(parse_prometheus_text("m notanumber\n").is_err());
        assert!(parse_prometheus_text("m 1 2 3\n").is_err());
        assert!(parse_prometheus_text("# TYPE m banana\n").is_err());
    }

    #[test]
    fn sanitizer_covers_hostile_names() {
        assert_eq!(sanitize_metric_name("a.b-c/d"), "a_b_c_d");
        assert_eq!(sanitize_metric_name("9lives"), "_lives");
        assert!(valid_name(&sanitize_metric_name("")));
    }

    #[test]
    fn jsonl_snapshot_round_trips() {
        let snap = sample_registry().snapshot();
        let body = snapshot_to_json(&snap);
        let text = body.render();
        let parsed = lzfpga_telemetry::json::parse(&text).unwrap();
        let restored = snapshot_from_json(&parsed).expect("snapshot parses");
        assert_eq!(restored, snap);
    }
}
