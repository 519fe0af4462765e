//! Report types for the chunk-parallel pipeline's telemetry.
//!
//! The parallel path is a two-stage software pipeline (workers match,
//! the caller's thread stitches Deflate blocks in chunk order); these
//! types capture where its wall-clock goes: per-worker busy vs idle time,
//! token-buffer freelist traffic, stitcher stall vs encode time, and how
//! long finished chunks sat in the reorder queue.

use crate::json::{obj, JsonValue};
use crate::probe::TurboCounters;
use crate::registry::MetricsRegistry;
use crate::spans::TraceEvent;

/// One worker thread's utilization over the run.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Worker index (0-based; timeline row `tid` is `worker + 1`).
    pub worker: usize,
    /// Chunks this worker compressed.
    pub chunks: u64,
    /// Input bytes this worker compressed.
    pub input_bytes: u64,
    /// Seconds spent compressing.
    pub busy_s: f64,
    /// Seconds alive but not compressing (queue pops, slot filing, exit).
    pub idle_s: f64,
    /// Token buffers reused from the freelist.
    pub freelist_hits: u64,
    /// Token buffers freshly allocated (freelist empty).
    pub freelist_misses: u64,
}

impl WorkerStats {
    /// Busy fraction of this worker's lifetime (0 when unknown).
    pub fn utilization(&self) -> f64 {
        let total = self.busy_s + self.idle_s;
        if total <= 0.0 {
            0.0
        } else {
            self.busy_s / total
        }
    }

    /// JSON row for the `telemetry.parallel.workers` array.
    pub fn to_json(&self) -> JsonValue {
        obj([
            ("worker", self.worker.into()),
            ("chunks", self.chunks.into()),
            ("input_bytes", self.input_bytes.into()),
            ("busy_s", self.busy_s.into()),
            ("idle_s", self.idle_s.into()),
            ("utilization", self.utilization().into()),
            ("freelist_hits", self.freelist_hits.into()),
            ("freelist_misses", self.freelist_misses.into()),
        ])
    }
}

/// The stitcher (reorder + Deflate encode) side of the pipeline.
#[derive(Debug, Clone, Default)]
pub struct StitcherStats {
    /// Seconds blocked waiting for the next in-order chunk.
    pub stall_s: f64,
    /// Seconds spent Deflate-encoding token streams.
    pub encode_s: f64,
    /// Total seconds finished chunks waited in the reorder queue before the
    /// stitcher picked them up (summed across chunks).
    pub queue_wait_s: f64,
    /// Deepest the token-buffer freelist ever got.
    pub freelist_peak: u64,
}

impl StitcherStats {
    /// JSON form for the `telemetry.parallel.stitcher` section.
    pub fn to_json(&self) -> JsonValue {
        obj([
            ("stall_s", self.stall_s.into()),
            ("encode_s", self.encode_s.into()),
            ("queue_wait_s", self.queue_wait_s.into()),
            ("freelist_peak", self.freelist_peak.into()),
        ])
    }
}

/// Everything the parallel pipeline observed during one run.
#[derive(Debug, Clone, Default)]
pub struct PipelineTelemetry {
    /// Wall-clock of the whole parallel section, seconds.
    pub wall_s: f64,
    /// Per-worker utilization, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// Stitcher-side accounting.
    pub stitcher: StitcherStats,
    /// Aggregated turbo-engine counters across all workers (empty when the
    /// modelled engine produced the tokens — cycles live in `ChunkReport`).
    pub turbo: TurboCounters,
    /// Trace events for the chrome://tracing export (workers + stitcher).
    pub trace_events: Vec<TraceEvent>,
}

impl PipelineTelemetry {
    /// JSON form for the `telemetry.parallel` report section (trace events
    /// are exported separately via [`crate::spans::trace_events_json`]).
    pub fn to_json(&self) -> JsonValue {
        obj([
            ("wall_s", self.wall_s.into()),
            ("workers", JsonValue::Array(self.workers.iter().map(WorkerStats::to_json).collect())),
            ("stitcher", self.stitcher.to_json()),
            ("turbo", self.turbo.to_json()),
            ("trace_events", self.trace_events.len().into()),
        ])
    }

    /// Record into `reg`: wall clock, worker busy/idle and stitcher
    /// stall/encode totals (as microsecond counters so runs add), plus the
    /// aggregated engine counters.
    pub fn record(&self, reg: &MetricsRegistry) {
        reg.gauge("parallel_wall_s").set(self.wall_s);
        reg.counter("parallel_runs").inc();
        reg.counter("parallel_workers").add(self.workers.len() as u64);
        let us = |s: f64| if s <= 0.0 { 0 } else { (s * 1e6) as u64 };
        for w in &self.workers {
            reg.counter("parallel_worker_busy_us").add(us(w.busy_s));
            reg.counter("parallel_worker_idle_us").add(us(w.idle_s));
            reg.counter("parallel_chunks").add(w.chunks);
            reg.counter("parallel_freelist_hits").add(w.freelist_hits);
            reg.counter("parallel_freelist_misses").add(w.freelist_misses);
        }
        reg.counter("parallel_stitcher_stall_us").add(us(self.stitcher.stall_s));
        reg.counter("parallel_stitcher_encode_us").add(us(self.stitcher.encode_s));
        reg.counter("parallel_stitcher_queue_wait_us").add(us(self.stitcher.queue_wait_s));
        self.turbo.record(reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_is_busy_over_lifetime() {
        let w = WorkerStats { busy_s: 3.0, idle_s: 1.0, ..WorkerStats::default() };
        assert!((w.utilization() - 0.75).abs() < 1e-12);
        assert_eq!(WorkerStats::default().utilization(), 0.0);
    }

    #[test]
    fn sections_render_and_parse() {
        let t = PipelineTelemetry {
            wall_s: 0.5,
            workers: vec![WorkerStats { worker: 0, chunks: 4, ..WorkerStats::default() }],
            stitcher: StitcherStats { stall_s: 0.1, ..StitcherStats::default() },
            ..PipelineTelemetry::default()
        };
        let parsed = crate::json::parse(&t.to_json().render()).unwrap();
        assert_eq!(parsed.get("workers").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(parsed.get("stitcher").unwrap().get("stall_s").unwrap().as_f64(), Some(0.1));
    }

    #[test]
    fn pipeline_report_re_homes() {
        let reg = MetricsRegistry::new();
        let t = PipelineTelemetry {
            wall_s: 0.5,
            workers: vec![WorkerStats {
                busy_s: 0.4,
                idle_s: 0.1,
                chunks: 8,
                ..Default::default()
            }],
            ..Default::default()
        };
        t.record(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("parallel_chunks"), 8);
        assert_eq!(snap.counter("parallel_worker_busy_us"), 400_000);
    }
}
