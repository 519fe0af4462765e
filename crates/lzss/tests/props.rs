//! Property tests on the algorithm layer: compression round trips under
//! randomised data/parameters, hash-function contracts, classic-format
//! round trips, and cost-model monotonicity. Inputs come from a seeded
//! in-repo xorshift generator so the suite is deterministic and needs no
//! external framework.

use lzfpga_deflate::token::Token;
use lzfpga_lzss::classic::{decode_classic, encode_classic, ClassicParams};
use lzfpga_lzss::cost::estimate_software;
use lzfpga_lzss::decoder::decode_tokens;
use lzfpga_lzss::hash::{HashFn, HASH_BYTES};
use lzfpga_lzss::params::{CompressionLevel, LzssParams};
use lzfpga_lzss::reference::compress;
use lzfpga_sim::rng::XorShift64;

const CASES: usize = 64;

fn random_params(rng: &mut XorShift64) -> LzssParams {
    let window = [1_024u32, 2_048, 4_096, 16_384][rng.below_usize(4)];
    let hash = rng.range_u32(9, 15);
    let level = [CompressionLevel::Min, CompressionLevel::Medium, CompressionLevel::Max]
        [rng.below_usize(3)];
    let hash_fn = if rng.chance(1, 2) { HashFn::multiplicative(hash) } else { HashFn::zlib(hash) };
    LzssParams { window_size: window, hash_bits: hash, hash_fn, level, chain_limit: None }
}

/// Mixed input shapes: raw noise, low-alphabet text, and repeated tiles.
fn random_input(rng: &mut XorShift64) -> Vec<u8> {
    match rng.below_usize(3) {
        0 => {
            let mut v = vec![0u8; rng.below_usize(8_000)];
            rng.fill_bytes(&mut v);
            v
        }
        1 => {
            let alphabet = [b'x', b'y', b'.'];
            (0..rng.below_usize(12_000)).map(|_| alphabet[rng.below_usize(3)]).collect()
        }
        _ => {
            let mut tile = vec![0u8; 1 + rng.below_usize(63)];
            rng.fill_bytes(&mut tile);
            let n = 1 + rng.below_usize(199);
            tile.iter().copied().cycle().take(n * tile.len()).collect()
        }
    }
}

#[test]
fn compress_decode_round_trips() {
    let mut rng = XorShift64::new(0x1A55_0001);
    for _ in 0..CASES {
        let data = random_input(&mut rng);
        let params = random_params(&mut rng);
        let tokens = compress(&data, &params);
        assert_eq!(decode_tokens(&tokens, params.window_size).unwrap(), data);
    }
}

#[test]
fn all_matches_respect_the_window() {
    let mut rng = XorShift64::new(0x1A55_0002);
    for _ in 0..CASES {
        let data = random_input(&mut rng);
        let params = random_params(&mut rng);
        let limit = params.max_distance();
        for t in compress(&data, &params) {
            if let Token::Match { dist, len } = t {
                assert!(dist >= 1 && dist <= limit);
                assert!((3..=258).contains(&len));
            }
        }
    }
}

#[test]
fn coverage_is_exact() {
    let mut rng = XorShift64::new(0x1A55_0003);
    for _ in 0..CASES {
        let data = random_input(&mut rng);
        let params = random_params(&mut rng);
        let covered: u64 = compress(&data, &params)
            .iter()
            .map(|t| match *t {
                Token::Literal(_) => 1,
                Token::Match { len, .. } => u64::from(len),
            })
            .sum();
        assert_eq!(covered, data.len() as u64);
    }
}

#[test]
fn hash_values_stay_in_declared_range() {
    let mut rng = XorShift64::new(0x1A55_0004);
    for _ in 0..CASES {
        let bytes = [rng.next_u8(), rng.next_u8(), rng.next_u8()];
        let bits = rng.range_u32(8, 16);
        for f in [HashFn::zlib(bits), HashFn::multiplicative(bits)] {
            let h = f.hash3(bytes[0], bytes[1], bytes[2]);
            assert!(h < (1 << bits), "{f:?}: {h}");
        }
    }
}

#[test]
fn hash_at_matches_hash3() {
    let mut rng = XorShift64::new(0x1A55_0005);
    for _ in 0..CASES {
        let mut data = vec![0u8; HASH_BYTES + rng.below_usize(200 - HASH_BYTES)];
        rng.fill_bytes(&mut data);
        let f = HashFn::zlib(rng.range_u32(8, 16));
        for pos in 0..=data.len() - HASH_BYTES {
            assert_eq!(f.hash_at(&data, pos), f.hash3(data[pos], data[pos + 1], data[pos + 2]));
        }
    }
}

#[test]
fn classic_format_round_trips() {
    let mut rng = XorShift64::new(0x1A55_0006);
    for _ in 0..CASES {
        let data = random_input(&mut rng);
        let params = LzssParams::new(4_096, 13, CompressionLevel::Min);
        let tokens = compress(&data, &params);
        let cp = ClassicParams::okumura();
        let bits = encode_classic(&tokens, &cp);
        assert_eq!(decode_classic(&bits, &cp).unwrap(), data);
    }
}

#[test]
fn cost_model_is_monotone_in_input() {
    let mut rng = XorShift64::new(0x1A55_0007);
    for _ in 0..CASES {
        // More data never costs fewer modelled cycles.
        let data = random_input(&mut rng);
        let params = LzssParams::paper_fast();
        let half = estimate_software(&data[..data.len() / 2], &params);
        let full = estimate_software(&data, &params);
        assert!(full.cycles >= half.cycles);
        assert_eq!(full.tokens, compress(&data, &params));
    }
}

#[test]
fn deeper_levels_never_compress_worse() {
    let mut rng = XorShift64::new(0x1A55_0008);
    for _ in 0..CASES {
        let data = random_input(&mut rng);
        let bits = |level| {
            let params = LzssParams::new(4_096, 15, level);
            lzfpga_deflate::encoder::fixed_block_bit_size(&compress(&data, &params))
        };
        let min = bits(CompressionLevel::Min);
        let max = bits(CompressionLevel::Max);
        // The lazy matcher can in principle lose a little on tiny inputs
        // but must never be more than marginally worse.
        assert!(max as f64 <= min as f64 * 1.02 + 64.0, "max {max} vs min {min}");
    }
}
