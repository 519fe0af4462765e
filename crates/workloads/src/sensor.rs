//! Binary sensor-acquisition stand-in: packed little-endian sample frames
//! from a multi-channel ADC front-end.
//!
//! Unlike text corpora, the redundancy here is *vertical* (the same channel
//! changes slowly frame-to-frame) rather than *horizontal* (strings
//! repeating nearby). With an LZSS window larger than the frame size, the
//! compressor turns that into matches at distances equal to the frame
//! stride; with a smaller window it degrades gracefully to literals — a good
//! probe of the Figure 2 window-size sensitivity on non-text data.

use lzfpga_sim::rng::XorShift64;

/// Frame layout: magic (2) + seq (2) + 12 channels x i16 + crc (2).
pub const FRAME_BYTES: usize = 2 + 2 + 12 * 2 + 2;

/// Generate `len` bytes of packed sensor frames.
pub fn generate(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = XorShift64::new(seed ^ 0x5E_50_12);
    let mut out = Vec::with_capacity(len + FRAME_BYTES);
    let mut seq: u16 = rng.next_u16();
    // Channel states: sine-ish oscillators with different rates + noise.
    let mut phase: [f64; 12] = core::array::from_fn(|i| i as f64 * 0.7);
    let rates: [f64; 12] = core::array::from_fn(|i| 0.002 + i as f64 * 0.0013);
    while out.len() < len {
        let start = out.len();
        out.extend_from_slice(&0xA55Au16.to_le_bytes());
        out.extend_from_slice(&seq.to_le_bytes());
        seq = seq.wrapping_add(1);
        for ch in 0..12 {
            phase[ch] += rates[ch];
            let clean = (phase[ch].sin() * 12_000.0) as i32;
            // A third of the channels are full-resolution and noisy (ADC
            // dither); the rest are quantised process values whose low bits
            // sit still between frames — the vertical redundancy real
            // acquisition front-ends exhibit.
            let sample =
                if ch % 3 == 0 { clean + rng.range_i64(-6, 6) as i32 } else { clean >> 7 << 7 };
            out.extend_from_slice(&(sample.clamp(-32_768, 32_767) as i16).to_le_bytes());
        }
        // CRC-16-ish (xor-fold; a real CRC's exact polynomial is irrelevant
        // to compressibility — what matters is that it changes every frame).
        let mut crc: u16 = 0xFFFF;
        for &b in &out[start..] {
            crc = crc.rotate_left(3) ^ u16::from(b);
        }
        out.extend_from_slice(&crc.to_le_bytes());
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sized() {
        assert_eq!(generate(9, 30_000), generate(9, 30_000));
        assert_eq!(generate(9, 30_000).len(), 30_000);
        assert_ne!(generate(9, 30_000), generate(10, 30_000));
    }

    #[test]
    fn frames_carry_magic_at_stride() {
        let data = generate(4, FRAME_BYTES * 50);
        for f in 0..50 {
            let at = f * FRAME_BYTES;
            assert_eq!(&data[at..at + 2], &0xA55Au16.to_le_bytes(), "frame {f}");
        }
    }

    #[test]
    fn sequence_numbers_increment() {
        let data = generate(4, FRAME_BYTES * 10);
        let seq_at =
            |f: usize| u16::from_le_bytes([data[f * FRAME_BYTES + 2], data[f * FRAME_BYTES + 3]]);
        for f in 1..10 {
            assert_eq!(seq_at(f), seq_at(f - 1).wrapping_add(1));
        }
    }

    #[test]
    fn compressible_but_not_trivially() {
        let data = generate(7, 120_000);
        let params = lzfpga_lzss::LzssParams::paper_fast();
        let tokens = lzfpga_lzss::TurboEngine::new().compress(&data, &params);
        let bits = lzfpga_deflate::encoder::fixed_block_bit_size(&tokens);
        let ratio = data.len() as f64 * 8.0 / bits as f64;
        assert!(ratio > 1.05, "sensor frames must compress: {ratio}");
        assert!(ratio < 3.0, "but not collapse to nothing: {ratio}");
    }
}
