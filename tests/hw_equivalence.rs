//! The central verification of the cycle-accurate model: the hardware
//! compressor must produce a **token-for-token identical** command stream to
//! the zlib-equivalent greedy software reference, across corpora, dictionary
//! and hash geometries, bus widths and prefetch settings.
//!
//! This is the repo's analogue of the paper's own validation ("we have
//! verified the quality of our design by compressing more than 1 TB of data
//! on the FPGA and comparing the results to software reference model") —
//! scaled to CI sizes but covering every parameter axis.

use lzfpga::hw::{HwCompressor, HwConfig};
use lzfpga::lzss::decode_tokens;
use lzfpga::lzss::params::CompressionLevel;
use lzfpga::lzss::reference::compress;
use lzfpga::workloads::{generate, Corpus};

fn assert_equivalent(data: &[u8], cfg: HwConfig, what: &str) {
    let hw = HwCompressor::new(cfg).compress(data);
    let sw = compress(data, &cfg.as_lzss_params());
    assert_eq!(
        hw.tokens.len(),
        sw.len(),
        "{what}: token count differs (hw {} vs sw {})",
        hw.tokens.len(),
        sw.len()
    );
    for (i, (h, s)) in hw.tokens.iter().zip(&sw).enumerate() {
        assert_eq!(h, s, "{what}: token {i} differs");
    }
    // And both must reproduce the input.
    assert_eq!(decode_tokens(&hw.tokens, cfg.window_size).unwrap(), data, "{what}");
}

#[test]
fn equivalent_on_all_corpora_at_paper_config() {
    for corpus in [
        Corpus::Wiki,
        Corpus::X2e,
        Corpus::LogLines,
        Corpus::Random,
        Corpus::Constant,
        Corpus::CollisionStress,
        Corpus::Periodic { period: 777 },
    ] {
        let data = generate(corpus, 11, 300_000);
        assert_equivalent(&data, HwConfig::paper_fast(), &corpus.name());
    }
}

#[test]
fn equivalent_across_window_and_hash_geometries() {
    let data = generate(Corpus::Wiki, 5, 200_000);
    for window in [1_024u32, 2_048, 8_192, 32_768] {
        for hash_bits in [9u32, 12, 15] {
            let cfg = HwConfig::new(window, hash_bits);
            assert_equivalent(&data, cfg, &format!("window {window}, hash {hash_bits}"));
        }
    }
}

#[test]
fn bus_width_and_prefetch_do_not_change_output() {
    // Timing optimisations must be output-invariant.
    let data = generate(Corpus::X2e, 9, 250_000);
    for cfg in [
        HwConfig::paper_fast(),
        HwConfig::paper_fast().with_8bit_bus(),
        HwConfig::paper_fast().without_prefetch(),
        HwConfig::paper_fast().with_8bit_bus().without_prefetch(),
        HwConfig::paper_fast().with_head_divisions(1),
    ] {
        assert_equivalent(&data, cfg, &format!("{cfg:?}"));
    }
}

#[test]
fn equivalent_across_generation_bits() {
    // Every G >= 1 variant must match the (slide-free) software reference:
    // the relative next-table + generation-bit slide is semantically
    // invisible. (G = 0 wipes history and legitimately diverges.)
    let data = generate(Corpus::Wiki, 2, 400_000);
    for gen_bits in [1u32, 2, 3, 4, 6] {
        let mut cfg = HwConfig::new(2_048, 13);
        cfg.gen_bits = gen_bits;
        let report = HwCompressor::new(cfg).compress(&data);
        let sw = compress(&data, &cfg.as_lzss_params());
        assert_eq!(report.tokens, sw, "gen_bits = {gen_bits}");
        assert!(
            report.counters.rotations > 0,
            "gen_bits = {gen_bits} must rotate over 400 KB at a 2 KB window"
        );
    }
}

#[test]
fn equivalent_at_max_level() {
    let data = generate(Corpus::LogLines, 4, 150_000);
    let cfg = HwConfig::new(4_096, 15).with_level(CompressionLevel::Min);
    assert_equivalent(&data, cfg, "min level");
    // The hardware is greedy-only; Max maps to a deep iteration limit.
    // (The lazy software levels are a different algorithm by design, so only
    // greedy presets participate in equivalence.)
}

#[test]
fn equivalent_across_chain_limit_overrides() {
    // The run-time matching iteration limit must steer both models
    // identically (it is one CSR in the hardware, one field here).
    let data = generate(Corpus::Wiki, 14, 200_000);
    for limit in [1u32, 3, 17, 300] {
        let cfg = HwConfig::paper_fast().with_chain_limit(limit);
        assert_equivalent(&data, cfg, &format!("chain limit {limit}"));
    }
}

#[test]
fn deeper_chain_limits_compress_monotonically_better() {
    let data = generate(Corpus::Wiki, 15, 200_000);
    let bits = |limit: u32| {
        let cfg = HwConfig::paper_fast().with_chain_limit(limit);
        let rep = HwCompressor::new(cfg).compress(&data);
        lzfpga::deflate::encoder::fixed_block_bit_size(&rep.tokens)
    };
    let sizes: Vec<u64> = [1u32, 4, 16, 64, 256].iter().map(|&l| bits(l)).collect();
    assert!(sizes.windows(2).all(|w| w[1] <= w[0]), "{sizes:?}");
}

#[test]
fn gen0_still_round_trips_despite_history_wipes() {
    let data = generate(Corpus::Wiki, 8, 300_000);
    let cfg = HwConfig::paper_fast().without_generation_bits();
    let report = HwCompressor::new(cfg).compress(&data);
    assert_eq!(decode_tokens(&report.tokens, cfg.window_size).unwrap(), data);
    // History wipes can only cost compression, never correctness; and with
    // matches lost around wipes the stream can't be *smaller* than the
    // reference stream by more than noise.
    let sw = compress(&data, &cfg.as_lzss_params());
    let bits = |t: &[lzfpga::deflate::Token]| lzfpga::deflate::encoder::fixed_block_bit_size(t);
    assert!(bits(&report.tokens) as f64 >= bits(&sw) as f64 * 0.999);
}
