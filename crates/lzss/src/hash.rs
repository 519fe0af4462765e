//! 3-byte string hashes for the head/next chain tables.
//!
//! "Exact hash function" is one of the paper's compile-time generics; the two
//! families implemented here are the ones that make sense in the design:
//!
//! * [`HashFn::zlib`] — ZLib's shift-xor rolling hash. Cheap in LUTs (pure
//!   xor/shift network) and updatable one byte at a time, which is what the
//!   background filler's hash-cache pipeline needs.
//! * [`HashFn::multiplicative`] — Knuth-style multiplicative hash over the
//!   packed 3 bytes. Better avalanche at small widths, but needs a DSP
//!   multiplier in hardware.

/// Minimum match length — the hash covers exactly this many bytes.
pub const HASH_BYTES: usize = 3;

/// A concrete 3-byte hash configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashFn {
    /// ZLib rolling hash: `h = ((h << shift) ^ byte) & mask` applied to each
    /// of the 3 bytes starting from zero.
    ZlibRolling {
        /// Output width in bits.
        bits: u32,
        /// Per-byte shift; zlib uses `ceil(bits / 3)` so all three bytes
        /// influence the result.
        shift: u32,
    },
    /// `(b0 | b1<<8 | b2<<16) * 2654435761 >> (32 - bits)`.
    Multiplicative {
        /// Output width in bits.
        bits: u32,
    },
}

impl HashFn {
    /// ZLib's default configuration for a given width.
    pub fn zlib(bits: u32) -> Self {
        HashFn::ZlibRolling { bits, shift: bits.div_ceil(3) }
    }

    /// Multiplicative (Fibonacci) hash of a given width.
    pub fn multiplicative(bits: u32) -> Self {
        HashFn::Multiplicative { bits }
    }

    /// Output width in bits.
    pub fn bits(&self) -> u32 {
        match *self {
            HashFn::ZlibRolling { bits, .. } | HashFn::Multiplicative { bits } => bits,
        }
    }

    /// Hash three bytes.
    #[inline]
    pub fn hash3(&self, b0: u8, b1: u8, b2: u8) -> u32 {
        match *self {
            HashFn::ZlibRolling { bits, shift } => {
                let mask = (1u32 << bits) - 1;
                let mut h = u32::from(b0);
                h = ((h << shift) ^ u32::from(b1)) & mask;
                h = ((h << shift) ^ u32::from(b2)) & mask;
                h
            }
            HashFn::Multiplicative { bits } => {
                let x = u32::from(b0) | (u32::from(b1) << 8) | (u32::from(b2) << 16);
                x.wrapping_mul(2_654_435_761) >> (32 - bits)
            }
        }
    }

    /// Hash the 3 bytes at `data[pos..pos + 3]`.
    ///
    /// # Panics
    /// Panics (via slice indexing) when fewer than 3 bytes remain.
    #[inline]
    pub fn hash_at(&self, data: &[u8], pos: usize) -> u32 {
        self.hash3(data[pos], data[pos + 1], data[pos + 2])
    }

    /// [`Self::hash_at`] from one little-endian `u32` read: the low three
    /// bytes of the word at `pos` are the three hashed bytes, so the result
    /// is the same, for one bounds check instead of three. The greedy
    /// matcher's main span uses it, where `MIN_LOOKAHEAD` bytes lie ahead.
    ///
    /// # Panics
    /// Panics (via slice indexing) when fewer than 4 bytes remain.
    #[inline]
    pub(crate) fn hash_word_at(&self, data: &[u8], pos: usize) -> u32 {
        let w = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes"));
        self.hash3(w as u8, (w >> 8) as u8, (w >> 16) as u8)
    }

    /// Hash the 4 consecutive positions `pos..pos + 4` in one call —
    /// four independent lanes of the same arithmetic, written so the
    /// compiler can schedule (or vectorize) them together instead of
    /// serializing one table insert per hash. Each lane equals
    /// [`Self::hash_at`] at its position exactly; the bulk-insert loops in
    /// the turbo engine rely on that to stay token-identical.
    ///
    /// # Panics
    /// Panics (via slice indexing) when fewer than 7 bytes remain at `pos`
    /// (position `pos + 3` still hashes 3 bytes).
    #[inline]
    pub fn hash4_at(&self, data: &[u8], pos: usize) -> [u32; 4] {
        let b: [u32; 7] = {
            let w = &data[pos..pos + 7];
            [
                u32::from(w[0]),
                u32::from(w[1]),
                u32::from(w[2]),
                u32::from(w[3]),
                u32::from(w[4]),
                u32::from(w[5]),
                u32::from(w[6]),
            ]
        };
        match *self {
            HashFn::ZlibRolling { bits, shift } => {
                let mask = (1u32 << bits) - 1;
                let mut h = [b[0], b[1], b[2], b[3]];
                for i in 0..4 {
                    h[i] = ((h[i] << shift) ^ b[i + 1]) & mask;
                }
                for i in 0..4 {
                    h[i] = ((h[i] << shift) ^ b[i + 2]) & mask;
                }
                h
            }
            HashFn::Multiplicative { bits } => {
                let mut h = [0u32; 4];
                for i in 0..4 {
                    let x = b[i] | (b[i + 1] << 8) | (b[i + 2] << 16);
                    h[i] = x.wrapping_mul(2_654_435_761) >> (32 - bits);
                }
                h
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zlib_default_shift() {
        assert_eq!(HashFn::zlib(15), HashFn::ZlibRolling { bits: 15, shift: 5 });
        assert_eq!(HashFn::zlib(9), HashFn::ZlibRolling { bits: 9, shift: 3 });
    }

    #[test]
    fn outputs_fit_declared_width() {
        for bits in 8..=20 {
            for f in [HashFn::zlib(bits), HashFn::multiplicative(bits)] {
                for (a, b, c) in [(0, 0, 0), (255, 255, 255), (1, 2, 3), (0x61, 0x62, 0x63)] {
                    let h = f.hash3(a, b, c);
                    assert!(h < (1 << bits), "{f:?} hash3({a},{b},{c}) = {h}");
                }
            }
        }
    }

    #[test]
    fn deterministic_and_position_sensitive() {
        let f = HashFn::zlib(15);
        assert_eq!(f.hash3(1, 2, 3), f.hash3(1, 2, 3));
        assert_ne!(f.hash3(1, 2, 3), f.hash3(3, 2, 1));
    }

    #[test]
    fn all_three_bytes_influence_zlib_hash() {
        let f = HashFn::zlib(15);
        let base = f.hash3(10, 20, 30);
        assert_ne!(base, f.hash3(11, 20, 30));
        assert_ne!(base, f.hash3(10, 21, 30));
        assert_ne!(base, f.hash3(10, 20, 31));
    }

    #[test]
    fn hash_at_matches_hash3() {
        let f = HashFn::multiplicative(12);
        let data = b"hello world";
        for pos in 0..data.len() - 2 {
            assert_eq!(f.hash_at(data, pos), f.hash3(data[pos], data[pos + 1], data[pos + 2]));
        }
    }

    #[test]
    fn hash4_at_equals_four_hash_ats() {
        let data = b"the quick brown fox jumps over the lazy dog 0123456789";
        for f in [HashFn::zlib(15), HashFn::zlib(9), HashFn::multiplicative(12)] {
            for pos in 0..data.len() - 7 {
                let wide = f.hash4_at(data, pos);
                for (lane, h) in wide.into_iter().enumerate() {
                    assert_eq!(h, f.hash_at(data, pos + lane), "{f:?} pos={pos} lane={lane}");
                }
            }
        }
    }

    #[test]
    fn hash_word_at_equals_hash_at() {
        let mut data: Vec<u8> = (0..=255u8).collect();
        data.extend_from_slice(b"the quick brown fox jumps over the lazy dog 0123456789");
        data.extend((0..256u32).map(|i| (i * 167 + 13) as u8));
        for bits in 8..=20 {
            for f in [HashFn::zlib(bits), HashFn::multiplicative(bits)] {
                for pos in 0..=data.len() - 4 {
                    assert_eq!(
                        f.hash_word_at(&data, pos),
                        f.hash_at(&data, pos),
                        "{f:?} pos={pos}"
                    );
                }
            }
        }
    }

    #[test]
    fn rough_distribution_quality() {
        // Hashing all 3-grams of a text-like alphabet should touch a decent
        // fraction of a small table (collision behaviour drives Fig. 3).
        let f = HashFn::zlib(12);
        let mut seen = vec![false; 1 << 12];
        let alphabet = b"abcdefghij ";
        for &a in alphabet {
            for &b in alphabet {
                for &c in alphabet {
                    seen[f.hash3(a, b, c) as usize] = true;
                }
            }
        }
        let used = seen.iter().filter(|&&s| s).count();
        // 1331 trigrams into 4096 slots: expect most to be distinct.
        assert!(used > 900, "only {used} distinct slots");
    }
}
