//! Compatibility shim: the observability code lives in `lzfpga-telemetry`.
//! These are the names the benchmark package under `lzbench/` still
//! imports from here; the next change to that benchmark (ROADMAP item 1,
//! step 5) points it at `lzfpga_telemetry` and deletes this crate.

pub use lzfpga_telemetry::{
    validate_trace_document, Histogram as HistoSnapshot, MetricValue, MetricsSnapshot,
};
