//! Property-based round-trip guarantees across the whole stack: for *any*
//! input bytes and *any* legal configuration, compress → container → inflate
//! must reproduce the input exactly. This is the repo's scaled-down version
//! of the paper's ">1 TB compressed and compared against the reference
//! model" validation, driven by a seeded in-repo xorshift generator so the
//! suite is deterministic and dependency-free.

use lzfpga::cam::{CamCompressor, CamConfig};
use lzfpga::deflate::encoder::BlockKind;
use lzfpga::deflate::gzip::{gzip_compress_tokens, gzip_decompress};
use lzfpga::deflate::zlib_decompress;
use lzfpga::hw::{compress_to_zlib, HwConfig, ZlibSession};
use lzfpga::lzss::params::CompressionLevel;
use lzfpga::lzss::reference::compress;
use lzfpga::lzss::{decode_tokens, LzssParams};
use lzfpga::sim::rng::XorShift64;

const CASES: usize = 48;

/// Arbitrary-but-legal hardware geometries.
fn random_hw_config(rng: &mut XorShift64) -> HwConfig {
    let window = [1_024u32, 2_048, 4_096, 8_192][rng.below_usize(4)];
    let hash = rng.range_u32(9, 15);
    let mut cfg = HwConfig::new(window, hash);
    cfg.gen_bits = rng.range_u32(0, 5);
    cfg.head_divisions = [1u32, 4, 16][rng.below_usize(3)].min(1 << hash);
    cfg.bus_bytes = if rng.chance(1, 2) { 1 } else { 4 };
    cfg.hash_prefetch = rng.chance(1, 2);
    cfg.level = [CompressionLevel::Min, CompressionLevel::Medium, CompressionLevel::Max]
        [rng.below_usize(3)];
    cfg
}

/// Input generator mixing structured and unstructured content — compressible
/// runs, dictionary-crossing repeats, and raw noise.
fn random_input(rng: &mut XorShift64) -> Vec<u8> {
    match rng.below_usize(3) {
        0 => {
            let mut v = vec![0u8; rng.below_usize(20_000)];
            rng.fill_bytes(&mut v);
            v
        }
        1 => {
            let alphabet = [b'a', b'b', b' '];
            (0..rng.below_usize(30_000)).map(|_| alphabet[rng.below_usize(3)]).collect()
        }
        _ => {
            let mut tile = vec![0u8; 1 + rng.below_usize(127)];
            rng.fill_bytes(&mut tile);
            let reps = 1 + rng.below_usize(399);
            tile.iter().copied().cycle().take(reps * tile.len()).collect()
        }
    }
}

#[test]
fn hw_zlib_round_trips() {
    let mut rng = XorShift64::new(0x2007_0001);
    for _ in 0..CASES {
        let data = random_input(&mut rng);
        let cfg = random_hw_config(&mut rng);
        let rep = compress_to_zlib(&data, &cfg);
        assert_eq!(zlib_decompress(&rep.compressed).unwrap(), data);
    }
}

#[test]
fn sw_reference_round_trips() {
    let mut rng = XorShift64::new(0x2007_0002);
    for _ in 0..CASES {
        let data = random_input(&mut rng);
        let params = random_hw_config(&mut rng).as_lzss_params();
        let tokens = compress(&data, &params);
        assert_eq!(decode_tokens(&tokens, params.window_size).unwrap(), data);
    }
}

#[test]
fn gzip_container_round_trips() {
    let mut rng = XorShift64::new(0x2007_0003);
    for _ in 0..CASES {
        let data = random_input(&mut rng);
        let params = LzssParams::paper_fast();
        let tokens = compress(&data, &params);
        let gz = gzip_compress_tokens(&tokens, &data, BlockKind::FixedHuffman);
        assert_eq!(gzip_decompress(&gz).unwrap(), data);
    }
}

#[test]
fn dynamic_blocks_round_trip() {
    let mut rng = XorShift64::new(0x2007_0004);
    for _ in 0..CASES {
        let data = random_input(&mut rng);
        let params = LzssParams::paper_fast();
        let tokens = compress(&data, &params);
        let dynamic =
            lzfpga::deflate::zlib_compress_tokens(&tokens, &data, BlockKind::DynamicHuffman, 4_096);
        assert_eq!(zlib_decompress(&dynamic).unwrap(), data);
    }
}

#[test]
fn session_chunking_is_invisible() {
    let mut rng = XorShift64::new(0x2007_0005);
    for _ in 0..CASES {
        let data = random_input(&mut rng);
        let chunk = 1 + rng.below_usize(4_999);
        let mut s = ZlibSession::new(HwConfig::paper_fast());
        for c in data.chunks(chunk) {
            s.write(c);
        }
        let (out, _) = s.finish();
        let one_shot = compress_to_zlib(&data, &HwConfig::paper_fast());
        assert_eq!(out, one_shot.compressed);
    }
}

#[test]
fn cam_round_trips() {
    let mut rng = XorShift64::new(0x2007_0006);
    for _ in 0..CASES {
        let data = random_input(&mut rng);
        let rep = CamCompressor::new(CamConfig::paper_window()).compress(&data);
        assert_eq!(decode_tokens(&rep.tokens, 4_096).unwrap(), data);
    }
}

#[test]
fn hw_decompressor_inverts_hw_compressor() {
    use lzfpga::hw::{DecompConfig, HwDecompressor};
    let mut rng = XorShift64::new(0x2007_0007);
    for _ in 0..CASES {
        let data = random_input(&mut rng);
        let rep = compress_to_zlib(&data, &HwConfig::paper_fast());
        let out = HwDecompressor::new(DecompConfig::paper_fast())
            .decompress_zlib(&rep.compressed)
            .unwrap();
        assert_eq!(out.bytes, data);
    }
}

#[test]
fn hw_model_matches_reference_on_arbitrary_data() {
    let mut rng = XorShift64::new(0x2007_0008);
    for _ in 0..CASES {
        // Greedy equivalence on arbitrary content (the corpora-based suite
        // covers realistic data; this covers the adversarial rest).
        let data = random_input(&mut rng);
        let cfg = HwConfig::paper_fast();
        let hw = lzfpga::hw::HwCompressor::new(cfg).compress(&data);
        let sw = compress(&data, &cfg.as_lzss_params());
        assert_eq!(hw.tokens, sw);
    }
}

#[test]
fn turbo_matches_reference_and_hw_model_on_arbitrary_data() {
    let mut rng = XorShift64::new(0x2007_0009);
    let mut engine = lzfpga::lzss::TurboEngine::new();
    for _ in 0..CASES {
        // The word-at-a-time fast path must agree with the software
        // reference on adversarial geometry/level combinations, and with
        // the cycle model wherever the hardware algorithm is exact: the
        // greedy level (lazy matching is software-only by design) with at
        // least one generation bit. Table III row D (`gen_bits == 0`)
        // wipes the head table every window instead of sliding it, which
        // intentionally discards chain history the software keeps.
        let data = random_input(&mut rng);
        let cfg = random_hw_config(&mut rng);
        let params = cfg.as_lzss_params();
        let turbo = engine.compress(&data, &params);
        assert_eq!(turbo, compress(&data, &params));
        if cfg.level == CompressionLevel::Min && cfg.gen_bits >= 1 {
            let hw = lzfpga::hw::HwCompressor::new(cfg).compress(&data);
            assert_eq!(hw.tokens, turbo);
        }
    }
}
