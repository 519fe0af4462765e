//! Observability invariants across all three execution paths.
//!
//! Telemetry is only trustworthy if it is (a) conservation-checked — every
//! input byte accounted for exactly once, every cycle charged to exactly
//! one state — and (b) provably free of side effects on the compressed
//! stream. These tests pin both properties end to end, plus the
//! machine-readability of the exported formats (JSONL events, chrome
//! trace-event JSON).

use lzfpga::hw::config::CLOCK_HZ;
use lzfpga::hw::trace::{spans_to_trace_events, trace_compress};
use lzfpga::hw::{HwCompressor, HwConfig};
use lzfpga::parallel::{compress_parallel, EngineKind, ParallelConfig};
use lzfpga::telemetry::json::obj;
use lzfpga::telemetry::{parse_jsonl, trace_events_json, JsonlWriter, MatchProbe, TurboCounters};
use lzfpga::workloads::{generate, Corpus};

fn par_cfg(telemetry: bool) -> ParallelConfig {
    ParallelConfig {
        chunk_bytes: 48 * 1024,
        workers: 3,
        instances: 1,
        hw: HwConfig::paper_fast(),
        engine: EngineKind::Turbo,
        telemetry,
    }
}

#[test]
fn turbo_counters_conserve_every_input_byte() {
    for (corpus, seed) in
        [(Corpus::Wiki, 1), (Corpus::X2e, 7), (Corpus::JsonTelemetry, 3), (Corpus::Random, 9)]
    {
        let data = generate(corpus, seed, 150_000);
        let params = HwConfig::paper_fast().as_lzss_params();
        let mut counters = TurboCounters::default();
        let mut tokens = Vec::new();
        lzfpga::lzss::TurboEngine::new().compress_into_probed(
            &data,
            &params,
            &mut tokens,
            &mut counters,
        );
        assert_eq!(
            counters.covered_bytes(),
            data.len() as u64,
            "{corpus:?}: literals + match bytes must cover the input exactly"
        );
        assert_eq!(counters.literals + counters.matches, tokens.len() as u64);
        // Every emitted position was first inserted into the hash chain or
        // skipped by a match body; probes only happen on inserted heads.
        assert!(counters.inserts <= data.len() as u64);
        assert_eq!(counters.match_len_hist.count(), counters.matches);
        assert_eq!(counters.match_len_hist.sum, counters.match_bytes);
    }
}

#[test]
fn hw_state_stats_total_equals_engine_cycles() {
    let cfg = HwConfig::paper_fast();
    let data = generate(Corpus::Mixed, 2, 90_000);
    let rep = HwCompressor::new(cfg).compress(&data);
    // Every cycle after DMA setup is charged to exactly one Figure-5
    // state — no double counting, no leakage.
    assert_eq!(rep.stats.total() + cfg.dma_setup_cycles, rep.cycles);
    let json = rep.telemetry_json();
    assert_eq!(json.get("cycles").unwrap().as_i64(), Some(rep.cycles as i64));
    let states = json.get("states").unwrap();
    assert_eq!(states.get("total").unwrap().as_i64(), Some(rep.stats.total() as i64));
    let rows = states.get("states").unwrap().as_array().unwrap();
    let sum: i64 = rows.iter().map(|r| r.get("cycles").unwrap().as_i64().unwrap()).sum();
    assert_eq!(sum, rep.stats.total() as i64);
}

#[test]
fn hw_trace_events_cover_the_run_and_round_trip() {
    let cfg = HwConfig::paper_fast();
    let data = generate(Corpus::LogLines, 5, 80_000);
    let (report, spans) = trace_compress(&data, &cfg);
    let events = spans_to_trace_events(&spans, cfg.dma_setup_cycles, CLOCK_HZ);
    let total_us: f64 = events.iter().map(|e| e.dur_us).sum();
    let expect_us = report.cycles as f64 * 1e6 / CLOCK_HZ;
    assert!((total_us - expect_us).abs() < 1e-6, "trace events leak cycles");

    let doc = trace_events_json(&events);
    let parsed = lzfpga::telemetry::json::parse(&doc).expect("exported trace must parse");
    let reparsed = lzfpga::telemetry::json::parse(&parsed.render()).unwrap();
    assert_eq!(parsed, reparsed, "render/parse must be a fixed point");
}

#[test]
fn jsonl_events_round_trip_through_the_parser() {
    let mut sink = JsonlWriter::new(Vec::new());
    sink.emit("run", obj([("input_bytes", 4_096u64.into()), ("ratio", 2.125.into())])).unwrap();
    sink.emit("hw", obj([("cycles", 12_345u64.into())])).unwrap();
    let text = String::from_utf8(sink.finish().unwrap()).unwrap();
    let events = parse_jsonl(&text).unwrap();
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].get("event").unwrap().as_str(), Some("run"));
    assert_eq!(events[0].get("seq").unwrap().as_i64(), Some(0));
    assert_eq!(events[1].get("seq").unwrap().as_i64(), Some(1));
    assert_eq!(events[0].get("ratio").unwrap().as_f64(), Some(2.125));
}

#[test]
fn telemetry_off_and_on_produce_identical_streams() {
    let data = generate(Corpus::Mixed, 17, 400_000);
    let off = compress_parallel(&data, &par_cfg(false)).unwrap();
    let on = compress_parallel(&data, &par_cfg(true)).unwrap();
    assert_eq!(off.compressed, on.compressed, "telemetry must not perturb the stream");
    assert!(off.telemetry.is_none());
    let tel = on.telemetry.expect("telemetry requested");

    // Pipeline accounting: every chunk and byte shows up in exactly one
    // worker's ledger, and the merged counters cover the input.
    let chunks: u64 = tel.workers.iter().map(|w| w.chunks).sum();
    assert_eq!(chunks, on.chunks.len() as u64);
    let bytes: u64 = tel.workers.iter().map(|w| w.input_bytes).sum();
    assert_eq!(bytes, data.len() as u64);
    assert_eq!(tel.turbo.covered_bytes(), data.len() as u64);
    assert!(tel.wall_s > 0.0);
    assert!(!tel.trace_events.is_empty());
}

#[test]
fn noprobe_run_matches_probed_token_stream() {
    // The probe is observation only: swapping NoProbe for TurboCounters
    // must not change a single token.
    let data = generate(Corpus::Wiki, 23, 200_000);
    let params = HwConfig::paper_fast().as_lzss_params();
    let mut engine = lzfpga::lzss::TurboEngine::new();
    let plain = engine.compress(&data, &params);
    let mut counters = TurboCounters::default();
    let mut probed = Vec::new();
    engine.compress_into_probed(&data, &params, &mut probed, &mut counters);
    assert_eq!(plain, probed);
    assert!(counters.probes > 0, "instrumented run must actually count");
}

#[test]
fn custom_probe_sees_a_consistent_event_stream() {
    // A bespoke probe observing the raw callbacks sees the same story the
    // aggregated counters tell.
    #[derive(Default)]
    struct Tally {
        literals: u64,
        match_bytes: u64,
    }
    impl MatchProbe for Tally {
        fn literal(&mut self) {
            self.literals += 1;
        }
        fn matched(&mut self, len: u32) {
            self.match_bytes += u64::from(len);
        }
    }
    let data = generate(Corpus::SensorFrames, 31, 90_000);
    let params = HwConfig::paper_fast().as_lzss_params();
    let mut tally = Tally::default();
    let mut tokens = Vec::new();
    lzfpga::lzss::TurboEngine::new().compress_into_probed(&data, &params, &mut tokens, &mut tally);
    assert_eq!(tally.literals + tally.match_bytes, data.len() as u64);
}
