//! Typed adapters re-homing the existing telemetry counter families into
//! the registry.
//!
//! The zero-cost probe structs stay where they are (hot loops keep their
//! generics); these functions fold finished counter structs into registry
//! metrics after a run, so every subsystem's numbers land in one
//! exportable table. Reports owned by crates obs does not depend on
//! (salvage ledgers, failure reports, hw-model stats) go through
//! [`MetricsRegistry::absorb`] on their JSON form instead.

use lzfpga_telemetry::{FrameEvent, PipelineTelemetry, RangeCounters, TurboCounters};

use crate::registry::MetricsRegistry;

/// Fold turbo engine counters in: totals become counters and derived
/// ratios become gauges.
pub fn record_turbo(reg: &MetricsRegistry, c: &TurboCounters) {
    reg.counter("turbo_inserts").add(c.inserts);
    reg.counter("turbo_probes").add(c.probes);
    reg.counter("turbo_kernel_runs").add(c.kernel_runs);
    reg.counter("turbo_kernel_bytes").add(c.kernel_bytes);
    reg.counter("turbo_literals").add(c.literals);
    reg.counter("turbo_matches").add(c.matches);
    reg.counter("turbo_match_bytes").add(c.match_bytes);
    reg.gauge("turbo_bytes_per_probe").set(c.bytes_per_probe());
    reg.gauge("turbo_match_ratio").set(c.match_ratio());
}

/// Fold container frame events in: outcome counters, byte totals, and the
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

/// Fold a parallel-pipeline report in: wall clock, worker busy/idle and
/// stitcher stall/encode totals (as microsecond counters so multiple runs
/// add), plus the aggregated engine counters.
pub fn record_pipeline(reg: &MetricsRegistry, t: &PipelineTelemetry) {
    reg.gauge("parallel_wall_s").set(t.wall_s);
    reg.counter("parallel_runs").inc();
    reg.counter("parallel_workers").add(t.workers.len() as u64);
    let us = |s: f64| if s <= 0.0 { 0 } else { (s * 1e6) as u64 };
    for w in &t.workers {
        reg.counter("parallel_worker_busy_us").add(us(w.busy_s));
        reg.counter("parallel_worker_idle_us").add(us(w.idle_s));
        reg.counter("parallel_chunks").add(w.chunks);
        reg.counter("parallel_freelist_hits").add(w.freelist_hits);
        reg.counter("parallel_freelist_misses").add(w.freelist_misses);
    }
    reg.counter("parallel_stitcher_stall_us").add(us(t.stitcher.stall_s));
    reg.counter("parallel_stitcher_encode_us").add(us(t.stitcher.encode_s));
    reg.counter("parallel_stitcher_queue_wait_us").add(us(t.stitcher.queue_wait_s));
    record_turbo(reg, &t.turbo);
}

/// Fold range-decode counters in (cache and seek-index traffic).
pub fn record_range(reg: &MetricsRegistry, c: &RangeCounters) {
    reg.absorb("range", &c.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;
    use lzfpga_telemetry::{FrameOutcome, WorkerStats};

    #[test]
    fn turbo_counters_re_home_exactly() {
        let reg = MetricsRegistry::new();
        let c = TurboCounters {
            literals: 10,
            match_bytes: 90,
            matches: 9,
            kernel_runs: 1,
            ..Default::default()
        };
        record_turbo(&reg, &c);
        record_turbo(&reg, &c);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("turbo_literals"), 20);
        assert_eq!(snap.counter("turbo_match_bytes"), 180);
        assert_eq!(snap.counter("turbo_kernel_runs"), 2);
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
        record_pipeline(&reg, &t);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("parallel_chunks"), 8);
        assert_eq!(snap.counter("parallel_worker_busy_us"), 400_000);
    }
}
