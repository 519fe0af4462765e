//! Process-wide observability: one registry, one span tree, one view.
//!
//! The telemetry crate owns the zero-cost probe generics the hot loops
//! compile against; this crate owns what happens to the numbers after a
//! run — registration, aggregation, and export:
//!
//! * **[`registry`]** — the lock-free sharded [`MetricsRegistry`]:
//!   static-site counters, gauges, and log-linear HDR-style histograms
//!   with mergeable [`MetricsSnapshot`]s and saturating delta computation.
//!   A histogram snapshots into telemetry's one value type,
//!   `lzfpga_telemetry::Histogram`, re-exported here as [`HistoSnapshot`].
//!   Every existing counter family (turbo match-loop counts, parallel
//!   worker and stitcher stats, container frame and salvage events,
//!   hw-model stats) re-homes here via [`bridge`] adapters
//!   or [`MetricsRegistry::absorb`] on a report's JSON form.
//! * **[`export`]** — dependency-free exporters: Prometheus text
//!   exposition (plus a validating parser for tests) and JSONL snapshot
//!   events for the existing sink.
//! * **[`trace`]** — causal span-tree tooling over the span ID scheme in
//!   `lzfpga_telemetry::spans`: rebuild file→frame→chunk trees from frame
//!   events and validate that a chrome://tracing export forms one tree.
//! * **[`aggregate`]** — the [`StatsAggregate`] behind `lzfpga stats`:
//!   folds a JSONL metrics stream into operator tables (p50/p99 frame
//!   latency, MB/s, cache hit rate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod bridge;
pub mod export;
pub mod registry;
pub mod trace;

pub use aggregate::StatsAggregate;
pub use export::{
    escape_label_value, parse_prometheus_text, prometheus_text, snapshot_from_json,
    snapshot_to_json, PromSample,
};
pub use lzfpga_telemetry::Histogram as HistoSnapshot;
pub use registry::{Counter, Gauge, Histo, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use trace::{frame_span_tree, validate_span_tree, validate_trace_document, SpanTreeSummary};
