//! Byte-identity golden test for the registry's three renderings.
//!
//! Fixed turbo counters, a fixed pipeline report, fixed frame events and
//! one absorbed salvage report are recorded into a registry; the
//! Prometheus exposition, the JSON snapshot and the `lzfpga stats` table
//! over the matching JSONL stream must equal the literals below byte for
//! byte. A renamed series, a changed value or a changed rendering fails it.

use lzfpga_telemetry::json::obj;
use lzfpga_telemetry::{
    parse_jsonl, prometheus_text, record_frames, snapshot_to_json, FrameEvent, FrameOutcome,
    JsonValue, JsonlWriter, MetricsRegistry, PipelineTelemetry, StatsAggregate, StitcherStats,
    TurboCounters, WorkerStats,
};

fn turbo() -> TurboCounters {
    let mut c = TurboCounters {
        inserts: 1200,
        probes: 640,
        kernel_runs: 300,
        kernel_bytes: 5100,
        literals: 410,
        matches: 90,
        match_bytes: 1790,
        ..Default::default()
    };
    for steps in [1, 2, 2, 5, 17] {
        c.chain_hist.record(steps);
    }
    for len in [3, 4, 18, 258] {
        c.match_len_hist.record(len);
    }
    c
}

fn pipeline() -> PipelineTelemetry {
    let worker = |worker, chunks, busy_s, idle_s, freelist_hits| WorkerStats {
        worker,
        chunks,
        input_bytes: chunks * 65_536,
        busy_s,
        idle_s,
        freelist_hits,
        freelist_misses: 1,
    };
    PipelineTelemetry {
        wall_s: 0.25,
        workers: vec![worker(0, 3, 0.2, 0.05, 2), worker(1, 2, 0.125, 0.0625, 1)],
        stitcher: StitcherStats {
            stall_s: 0.03,
            encode_s: 0.07,
            queue_wait_s: 0.011,
            freelist_peak: 3,
        },
        turbo: turbo(),
        trace_events: Vec::new(),
    }
}

fn frames() -> Vec<FrameEvent> {
    let mk = |seq: u32, outcome, crc_us, encode_us| FrameEvent {
        seq,
        uncompressed_bytes: 65_536,
        payload_bytes: 21_000 + u64::from(seq),
        codec: "fixed-zlib",
        crc_us,
        encode_us,
        start_us: f64::from(seq) * 100.0,
        outcome,
    };
    vec![
        mk(0, FrameOutcome::Written, 12.0, 480.0),
        mk(1, FrameOutcome::Written, 11.5, 512.25),
        mk(2, FrameOutcome::DeepRecovered, 9.0, 1500.0),
        mk(3, FrameOutcome::Skipped, 0.0, 0.0),
    ]
}

/// The shape `SalvageReport::to_json` emits: counts, a flag, the lost
/// ranges and the trailer cross-check.
fn salvage_report() -> JsonValue {
    let lost = obj([
        ("stream_start", 42_000u64.into()),
        ("stream_end", 63_011u64.into()),
        ("seq", 3u64.into()),
        ("uncompressed_bytes", JsonValue::Null),
        ("output_offset", 196_608u64.into()),
    ]);
    obj([
        ("frames_recovered", 2u64.into()),
        ("frames_deep_recovered", 1u64.into()),
        ("frames_skipped", 1u64.into()),
        ("bytes_recovered", 196_608u64.into()),
        ("intact", false.into()),
        ("lost", JsonValue::Array(vec![lost])),
        (
            "trailer",
            obj([
                ("frame_count", 4u64.into()),
                ("total_uncompressed", 262_144u64.into()),
                ("stream_crc_ok", false.into()),
                ("totals_ok", false.into()),
            ]),
        ),
    ])
}

fn recorded() -> MetricsRegistry {
    let reg = MetricsRegistry::new();
    turbo().record(&reg);
    pipeline().record(&reg);
    record_frames(&reg, &frames());
    reg.absorb("salvage", &salvage_report());
    reg
}

/// The `--metrics` JSONL stream a run with these reports would write,
/// folded the way `lzfpga stats` folds it.
fn stats_table(reg: &MetricsRegistry) -> String {
    let mut sink = JsonlWriter::new(Vec::new());
    sink.emit("parallel", pipeline().to_json()).unwrap();
    for e in frames() {
        sink.emit("frame", e.to_json()).unwrap();
    }
    sink.emit("salvage", salvage_report()).unwrap();
    sink.emit("metrics", snapshot_to_json(&reg.snapshot())).unwrap();
    let text = String::from_utf8(sink.finish().unwrap()).unwrap();
    let mut agg = StatsAggregate::new();
    for v in parse_jsonl(&text).unwrap() {
        agg.add_event(&v);
    }
    agg.render()
}

#[test]
fn prometheus_exposition_is_byte_identical() {
    assert_eq!(prometheus_text(&recorded().snapshot()), PROMETHEUS);
}

#[test]
fn json_snapshot_is_byte_identical() {
    assert_eq!(snapshot_to_json(&recorded().snapshot()).render(), SNAPSHOT_JSON);
}

#[test]
fn stats_table_is_byte_identical() {
    assert_eq!(stats_table(&recorded()), STATS_TABLE);
}

const STATS_TABLE: &str = r#"events: 7   runs: 0   frames: 4
frame latency (us): p50 480  p90 1472  p99 1472  max 1509  mean 631.0  (n=4)
frame outcomes:  deep-recovered x1  skipped x1  written x2
registry metrics: 37 series merged
"#;

const SNAPSHOT_JSON: &str = r#"{"counters":{"frame_payload_bytes":84006,"frame_uncompressed_bytes":262144,"frames_deep_recovered":1,"frames_skipped":1,"frames_total":4,"frames_written":2,"parallel_chunks":5,"parallel_freelist_hits":3,"parallel_freelist_misses":2,"parallel_runs":1,"parallel_stitcher_encode_us":70000,"parallel_stitcher_queue_wait_us":11000,"parallel_stitcher_stall_us":30000,"parallel_worker_busy_us":325000,"parallel_worker_idle_us":112500,"parallel_workers":2,"salvage_bytes_recovered":196608,"salvage_frames_deep_recovered":1,"salvage_frames_recovered":2,"salvage_frames_skipped":1,"salvage_lost_count":1,"salvage_trailer_frame_count":4,"salvage_trailer_total_uncompressed":262144,"turbo_inserts":2400,"turbo_kernel_bytes":10200,"turbo_kernel_runs":600,"turbo_literals":820,"turbo_match_bytes":3580,"turbo_matches":180,"turbo_probes":1280},"gauges":{"parallel_wall_s":0.25,"salvage_intact":0.0,"salvage_trailer_stream_crc_ok":0.0,"salvage_trailer_totals_ok":0.0,"turbo_bytes_per_probe":3.4375,"turbo_match_ratio":0.18},"histograms":{"frame_latency_us":{"sum":2524,"max":1509,"buckets":[[0,1],[94,1],[96,1],[119,1]]}}}"#;

const PROMETHEUS: &str = r#"# TYPE frame_latency_us histogram
frame_latency_us_bucket{le="0"} 1
frame_latency_us_bucket{le="495"} 2
frame_latency_us_bucket{le="543"} 3
frame_latency_us_bucket{le="1535"} 4
frame_latency_us_bucket{le="+Inf"} 4
frame_latency_us_sum 2524
frame_latency_us_count 4
# TYPE frame_payload_bytes counter
frame_payload_bytes 84006
# TYPE frame_uncompressed_bytes counter
frame_uncompressed_bytes 262144
# TYPE frames_deep_recovered counter
frames_deep_recovered 1
# TYPE frames_skipped counter
frames_skipped 1
# TYPE frames_total counter
frames_total 4
# TYPE frames_written counter
frames_written 2
# TYPE parallel_chunks counter
parallel_chunks 5
# TYPE parallel_freelist_hits counter
parallel_freelist_hits 3
# TYPE parallel_freelist_misses counter
parallel_freelist_misses 2
# TYPE parallel_runs counter
parallel_runs 1
# TYPE parallel_stitcher_encode_us counter
parallel_stitcher_encode_us 70000
# TYPE parallel_stitcher_queue_wait_us counter
parallel_stitcher_queue_wait_us 11000
# TYPE parallel_stitcher_stall_us counter
parallel_stitcher_stall_us 30000
# TYPE parallel_wall_s gauge
parallel_wall_s 0.25
# TYPE parallel_worker_busy_us counter
parallel_worker_busy_us 325000
# TYPE parallel_worker_idle_us counter
parallel_worker_idle_us 112500
# TYPE parallel_workers counter
parallel_workers 2
# TYPE salvage_bytes_recovered counter
salvage_bytes_recovered 196608
# TYPE salvage_frames_deep_recovered counter
salvage_frames_deep_recovered 1
# TYPE salvage_frames_recovered counter
salvage_frames_recovered 2
# TYPE salvage_frames_skipped counter
salvage_frames_skipped 1
# TYPE salvage_intact gauge
salvage_intact 0
# TYPE salvage_lost_count counter
salvage_lost_count 1
# TYPE salvage_trailer_frame_count counter
salvage_trailer_frame_count 4
# TYPE salvage_trailer_stream_crc_ok gauge
salvage_trailer_stream_crc_ok 0
# TYPE salvage_trailer_total_uncompressed counter
salvage_trailer_total_uncompressed 262144
# TYPE salvage_trailer_totals_ok gauge
salvage_trailer_totals_ok 0
# TYPE turbo_bytes_per_probe gauge
turbo_bytes_per_probe 3.4375
# TYPE turbo_inserts counter
turbo_inserts 2400
# TYPE turbo_kernel_bytes counter
turbo_kernel_bytes 10200
# TYPE turbo_kernel_runs counter
turbo_kernel_runs 600
# TYPE turbo_literals counter
turbo_literals 820
# TYPE turbo_match_bytes counter
turbo_match_bytes 3580
# TYPE turbo_match_ratio gauge
turbo_match_ratio 0.18
# TYPE turbo_matches counter
turbo_matches 180
# TYPE turbo_probes counter
turbo_probes 1280
"#;
