//! Mixed-corpus builder: realistic logger sessions interleave traffic types
//! (CAN frames, then a burst of JSON status, then binary sensor dumps...).
//! Mixing stresses the compressor's *adaptivity*: every segment switch
//! invalidates most of the dictionary, so designs that amortise slowly
//! (big windows, deep chains) lose more than the per-corpus numbers
//! suggest.

use crate::corpus::{generate, Corpus};
use lzfpga_sim::rng::XorShift64;

/// A segment recipe: corpus plus relative weight.
#[derive(Debug, Clone, Copy)]
pub struct Ingredient {
    /// What to generate.
    pub corpus: Corpus,
    /// Relative share of the output (weights are normalised).
    pub weight: f64,
}

/// The default logger mix: mostly CAN, some telemetry, occasional text.
pub fn logger_mix() -> Vec<Ingredient> {
    vec![
        Ingredient { corpus: Corpus::X2e, weight: 5.0 },
        Ingredient { corpus: Corpus::JsonTelemetry, weight: 2.0 },
        Ingredient { corpus: Corpus::SensorFrames, weight: 2.0 },
        Ingredient { corpus: Corpus::LogLines, weight: 1.0 },
    ]
}

/// Build `len` bytes from `ingredients`, switching segment every
/// `segment_len` bytes on a weighted deterministic schedule.
///
/// # Panics
/// Panics on an empty recipe or non-positive weights.
pub fn generate_mixed(
    ingredients: &[Ingredient],
    seed: u64,
    len: usize,
    segment_len: usize,
) -> Vec<u8> {
    assert!(!ingredients.is_empty(), "need at least one ingredient");
    assert!(ingredients.iter().all(|i| i.weight > 0.0), "weights must be positive");
    assert!(segment_len > 0, "segment length must be positive");
    let total_weight: f64 = ingredients.iter().map(|i| i.weight).sum();
    let mut rng = XorShift64::new(seed ^ 0x4D49_5845);
    let mut out = Vec::with_capacity(len);
    let mut segment_seed = seed;
    while out.len() < len {
        // Weighted pick.
        let mut roll = rng.next_f64() * total_weight;
        let mut chosen = ingredients[0].corpus;
        for ing in ingredients {
            if roll < ing.weight {
                chosen = ing.corpus;
                break;
            }
            roll -= ing.weight;
        }
        segment_seed = segment_seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let take = segment_len.min(len - out.len());
        out.extend_from_slice(&generate(chosen, segment_seed, take));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sized() {
        let a = generate_mixed(&logger_mix(), 7, 100_000, 8_192);
        let b = generate_mixed(&logger_mix(), 7, 100_000, 8_192);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100_000);
        assert_ne!(a, generate_mixed(&logger_mix(), 8, 100_000, 8_192));
    }

    #[test]
    fn contains_multiple_traffic_types() {
        let data = generate_mixed(&logger_mix(), 3, 300_000, 8_192);
        let text = String::from_utf8_lossy(&data);
        // JSON telemetry keys and sensor magic both appear somewhere.
        assert!(text.contains("\"seq\":"), "telemetry segment missing");
        assert!(data.windows(2).any(|w| w == 0xA55Au16.to_le_bytes()), "sensor segment missing");
    }

    #[test]
    fn weights_steer_composition() {
        // All-weight-on-one degenerates to that corpus.
        let only = vec![Ingredient { corpus: Corpus::Constant, weight: 1.0 }];
        let data = generate_mixed(&only, 1, 10_000, 1_000);
        assert!(data.iter().all(|&b| b == data[0]));
    }

    #[test]
    #[should_panic(expected = "at least one ingredient")]
    fn empty_recipe_rejected() {
        generate_mixed(&[], 1, 100, 10);
    }

    /// `data`'s `block`-byte blocks dealt round-robin across its
    /// `segment`-byte segments: the same bytes, switching segment every
    /// block.
    fn interleave(data: &[u8], segment: usize, block: usize) -> Vec<u8> {
        let segments: Vec<Vec<&[u8]>> =
            data.chunks(segment).map(|s| s.chunks(block).collect()).collect();
        let mut out = Vec::with_capacity(data.len());
        for round in 0..segment.div_ceil(block) {
            for blocks in &segments {
                if let Some(b) = blocks.get(round) {
                    out.extend_from_slice(b);
                }
            }
        }
        out
    }

    #[test]
    fn segment_switches_cost_ratio() {
        // The adaptivity claim: a fine-grained mix compresses worse than
        // the same ingredient bytes in long segments. Two independent
        // mixes of 400 KB hold only ~6 weighted draws at 64 KiB, so they
        // differ in content, not just granularity; the fine side is
        // therefore the coarse side's own 4 KiB blocks, interleaved.
        let coarse = generate_mixed(&logger_mix(), 5, 400_000, 65_536);
        let fine = interleave(&coarse, 65_536, 4_096);
        let (mut a, mut b) = (coarse.clone(), fine.clone());
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "both sides must carry the same bytes");
        let params = lzfpga_lzss::LzssParams::paper_fast();
        let bits = |d: &[u8]| {
            lzfpga_deflate::encoder::fixed_block_bit_size(&lzfpga_lzss::compress(d, &params))
        };
        assert!(bits(&fine) > bits(&coarse) * 95 / 100, "mixing must not look free");
    }
}
