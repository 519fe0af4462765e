//! The software fast path's verification twin of `hw_equivalence.rs`: the
//! turbo engine must produce a **token-for-token identical** command stream
//! to the cycle-accurate hardware model (at the greedy presets the hardware
//! implements) and to the lazy software reference at every level — and the
//! resulting zlib bytes must be identical end to end, chunk-parallel
//! included, for every worker count.

use lzfpga::deflate::zlib_decompress;
use lzfpga::hw::{compress_to_zlib, turbo_compress_to_zlib, HwCompressor, HwConfig};
use lzfpga::lzss::params::CompressionLevel;
use lzfpga::lzss::reference::compress;
use lzfpga::lzss::{decode_tokens, TurboEngine};
use lzfpga::parallel::{compress_parallel, EngineKind, ParallelConfig};
use lzfpga::workloads::{generate, Corpus};

const ALL_CORPORA: [Corpus; 11] = [
    Corpus::Wiki,
    Corpus::X2e,
    Corpus::LogLines,
    Corpus::Random,
    Corpus::Constant,
    Corpus::CollisionStress,
    Corpus::Periodic { period: 777 },
    Corpus::JsonTelemetry,
    Corpus::SensorFrames,
    Corpus::WikiXml,
    Corpus::Mixed,
];

fn assert_turbo_equivalent(data: &[u8], cfg: HwConfig, what: &str) {
    let mut engine = TurboEngine::new();
    let params = cfg.as_lzss_params();
    let turbo = engine.compress(data, &params);
    // Token-for-token against the hardware model…
    let hw = HwCompressor::new(cfg).compress(data);
    assert_eq!(turbo.len(), hw.tokens.len(), "{what}: token count differs");
    for (i, (t, h)) in turbo.iter().zip(&hw.tokens).enumerate() {
        assert_eq!(t, h, "{what}: token {i} differs");
    }
    // …and byte-for-byte at the zlib layer.
    let hw_bytes = compress_to_zlib(data, &cfg).compressed;
    let turbo_bytes = turbo_compress_to_zlib(data, &cfg);
    assert_eq!(turbo_bytes, hw_bytes, "{what}: zlib bytes differ");
    assert_eq!(zlib_decompress(&turbo_bytes).unwrap(), data, "{what}: round trip");
}

#[test]
fn turbo_equivalent_on_all_corpora_at_paper_config() {
    for corpus in ALL_CORPORA {
        let data = generate(corpus, 11, 200_000);
        assert_turbo_equivalent(&data, HwConfig::paper_fast(), &corpus.name());
    }
}

#[test]
fn turbo_equivalent_across_presets() {
    let data = generate(Corpus::Mixed, 5, 200_000);
    for cfg in [
        HwConfig::paper_fast(),
        HwConfig::new(1_024, 9),
        HwConfig::new(2_048, 12),
        HwConfig::new(8_192, 15),
        HwConfig::new(32_768, 15),
        HwConfig::paper_fast().with_chain_limit(1),
        HwConfig::paper_fast().with_chain_limit(300),
    ] {
        assert_turbo_equivalent(&data, cfg, &format!("{cfg:?}"));
    }
}

#[test]
fn turbo_matches_the_lazy_reference_at_every_level() {
    // The hardware is greedy-only, so the lazy levels are verified against
    // the software reference instead.
    for level in [CompressionLevel::Min, CompressionLevel::Medium, CompressionLevel::Max] {
        let cfg = HwConfig::new(4_096, 15).with_level(level);
        let params = cfg.as_lzss_params();
        let mut engine = TurboEngine::new();
        for corpus in [Corpus::Wiki, Corpus::JsonTelemetry, Corpus::Random] {
            let data = generate(corpus, 7, 150_000);
            let turbo = engine.compress(&data, &params);
            assert_eq!(turbo, compress(&data, &params), "{level:?}/{}", corpus.name());
            assert_eq!(decode_tokens(&turbo, params.window_size).unwrap(), data);
        }
    }
}

#[test]
fn parallel_turbo_is_identical_to_the_model_for_every_worker_count() {
    let data = generate(Corpus::Mixed, 3, 600_000);
    let hw = HwConfig::paper_fast();
    let modelled = compress_parallel(
        &data,
        &ParallelConfig {
            chunk_bytes: 64 * 1024,
            workers: 1,
            instances: 1,
            hw,
            engine: EngineKind::Modelled,
            telemetry: false,
        },
    )
    .expect("valid modelled config");
    for workers in [1usize, 2, 3, 8] {
        let turbo = compress_parallel(
            &data,
            &ParallelConfig {
                chunk_bytes: 64 * 1024,
                workers,
                instances: 1,
                hw,
                engine: EngineKind::Turbo,
                telemetry: false,
            },
        )
        .expect("valid turbo config");
        assert_eq!(turbo.compressed, modelled.compressed, "workers = {workers}");
    }
    assert_eq!(zlib_decompress(&modelled.compressed).unwrap(), data);
}
