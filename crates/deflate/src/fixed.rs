//! RFC 1951 fixed Huffman tables and the length/distance code mappings.
//!
//! The hardware design uses exactly these tables: because they are fixed,
//! "no additional clock cycles or memories are required to build it and the
//! encoder does not introduce any delays" (§IV). The same mappings drive the
//! dynamic encoder's symbol statistics.

/// Number of literal/length symbols (0–285 used, 286–287 reserved but coded).
pub const NUM_LITLEN: usize = 288;
/// Number of distance symbols (0–29 used, 30–31 reserved).
pub const NUM_DIST: usize = 32;
/// End-of-block symbol.
pub const END_OF_BLOCK: usize = 256;
/// Minimum match length representable by a length code.
pub const MIN_MATCH: u32 = 3;
/// Maximum match length representable by a length code.
pub const MAX_MATCH: u32 = 258;
/// Maximum distance representable by a distance code.
pub const MAX_DISTANCE: u32 = 32_768;

/// Fixed literal/length code lengths (RFC 1951 §3.2.6).
pub const fn fixed_litlen_lengths() -> [u8; NUM_LITLEN] {
    let mut l = [8u8; NUM_LITLEN];
    let mut i = 144;
    while i < 256 {
        l[i] = 9;
        i += 1;
    }
    while i < 280 {
        l[i] = 7;
        i += 1;
    }
    l
}

/// Fixed distance code lengths: 5 bits for all 32 symbols.
pub const fn fixed_dist_lengths() -> [u8; NUM_DIST] {
    [5u8; NUM_DIST]
}

/// `(base_length, extra_bits)` for length codes 257..=285, index 0 = code 257.
pub const LENGTH_CODES: [(u32, u32); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// `(base_distance, extra_bits)` for distance codes 0..=29.
pub const DIST_CODES: [(u32, u32); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12_289, 12),
    (16_385, 13),
    (24_577, 13),
];

/// Encoded form of a match length: the litlen symbol plus its extra bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LengthSym {
    /// Literal/length alphabet symbol (257..=285).
    pub symbol: u16,
    /// Number of extra bits.
    pub extra_bits: u32,
    /// Extra-bit value (length − base).
    pub extra_val: u32,
}

/// Encoded form of a match distance: the distance symbol plus extra bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistSym {
    /// Distance alphabet symbol (0..=29).
    pub symbol: u16,
    /// Number of extra bits.
    pub extra_bits: u32,
    /// Extra-bit value (distance − base).
    pub extra_val: u32,
}

// The fixed code as compile-time tables: the software form of the
// hardware's code ROM. The encoder, the bit-size estimate and the hardware
// model's map stage all read these; nothing searches or builds a codebook
// per call.

/// Reverse the low `n` bits of `code` (Huffman codes go out MSB-first into
/// the LSB-first stream).
const fn reverse(code: u16, n: u8) -> u16 {
    let mut r = 0;
    let mut i = 0;
    while i < n {
        r = (r << 1) | (code >> i & 1);
        i += 1;
    }
    r
}

/// Every fixed literal/length symbol's `(bit-reversed code, length)`:
/// the canonical codes of [`fixed_litlen_lengths`] (RFC 1951 §3.2.2).
pub const FIXED_LITLEN: [(u16, u8); NUM_LITLEN] = {
    let lengths = fixed_litlen_lengths();
    let mut count = [0u16; 10];
    let mut s = 0;
    while s < NUM_LITLEN {
        count[lengths[s] as usize] += 1;
        s += 1;
    }
    let mut next = [0u16; 10];
    let mut code = 0;
    let mut bits = 1;
    while bits < 10 {
        code = (code + count[bits - 1]) << 1;
        next[bits] = code;
        bits += 1;
    }
    let mut table = [(0u16, 0u8); NUM_LITLEN];
    let mut s = 0;
    while s < NUM_LITLEN {
        let len = lengths[s];
        table[s] = (reverse(next[len as usize], len), len);
        next[len as usize] += 1;
        s += 1;
    }
    table
};

/// Match lengths 3..=258, indexed by `len - MIN_MATCH`, so a length out
/// of range fails the bounds check instead of reading a wrong entry.
const LENGTHS: usize = (MAX_MATCH - MIN_MATCH + 1) as usize;

/// `LENGTH_SLOT[len - MIN_MATCH]` is the index into [`LENGTH_CODES`] of
/// match length `len`. Length 258 has a dedicated zero-extra code and must
/// not be encoded as 227 + 31 even though that also fits (zlib always uses
/// code 285).
const LENGTH_SLOT: [u8; LENGTHS] = {
    let mut slots = [0u8; LENGTHS];
    let mut slot = 0;
    let mut i = 0;
    while i + 1 < LENGTHS {
        if slot + 1 < 28 && i as u32 + MIN_MATCH >= LENGTH_CODES[slot + 1].0 {
            slot += 1;
        }
        slots[i] = slot as u8;
        i += 1;
    }
    slots[LENGTHS - 1] = 28;
    slots
};

/// Match length `len` under the fixed code, indexed by `len - MIN_MATCH`:
/// the length symbol's code followed by its extra bits, merged into one
/// `(bits, count)` field of at most 8 + 5 bits.
const FIXED_LENGTH: [(u16, u8); LENGTHS] = {
    let mut table = [(0u16, 0u8); LENGTHS];
    let mut i = 0;
    while i < LENGTHS {
        let slot = LENGTH_SLOT[i] as usize;
        let (base, extra) = LENGTH_CODES[slot];
        let (code, n) = FIXED_LITLEN[257 + slot];
        let extra_val = (i as u32 + MIN_MATCH - base) as u16;
        table[i] = (code | extra_val << n, n + extra as u8);
        i += 1;
    }
    table
};

/// The distance slot table (zlib's `_dist_code`): entry `d - 1` for
/// distances `d <= 256`, entry `256 + ((d - 1) >> 7)` above, where every
/// code spans whole 128-distance blocks.
const DIST_SLOT: [u8; 512] = {
    let mut slots = [0u8; 512];
    let mut i = 0;
    while i < 512 {
        let dist = if i < 256 { i as u32 + 1 } else { ((i as u32 - 256) << 7) + 1 };
        let mut slot = 0;
        while slot + 1 < DIST_CODES.len() && dist >= DIST_CODES[slot + 1].0 {
            slot += 1;
        }
        slots[i] = slot as u8;
        i += 1;
    }
    slots
};

/// The distance symbol of `dist` (1..=32768) from [`DIST_SLOT`].
#[inline]
fn dist_slot(dist: u32) -> usize {
    let d = (dist - 1) as usize;
    usize::from(if d < 256 { DIST_SLOT[d] } else { DIST_SLOT[256 + (d >> 7)] })
}

/// Per distance symbol: `(bit-reversed 5-bit fixed code, extra bits, base)`.
const FIXED_DIST: [(u16, u8, u16); 30] = {
    let mut table = [(0u16, 0u8, 0u16); 30];
    let mut s = 0;
    while s < 30 {
        let (base, extra) = DIST_CODES[s];
        table[s] = (reverse(s as u16, 5), extra as u8, base as u16);
        s += 1;
    }
    table
};

/// A whole match under the fixed code as one `(bits, count)` field for an
/// LSB-first packer: length code, length extra, distance code, distance
/// extra — at most 8 + 5 + 5 + 13 = 31 bits.
#[inline]
pub fn fixed_match_bits(dist: u32, len: u32) -> (u64, u32) {
    let (len_bits, len_n) = FIXED_LENGTH[(len - MIN_MATCH) as usize];
    let (code, extra, base) = FIXED_DIST[dist_slot(dist)];
    let dist_bits = u32::from(code) | (dist - u32::from(base)) << 5;
    (u64::from(len_bits) | u64::from(dist_bits) << len_n, u32::from(len_n) + 5 + u32::from(extra))
}

/// Map a match length (3..=258) to its code.
///
/// # Panics
/// Panics on lengths outside the representable range.
pub fn length_symbol(len: u32) -> LengthSym {
    assert!((MIN_MATCH..=MAX_MATCH).contains(&len), "match length {len} out of range");
    let slot = LENGTH_SLOT[(len - MIN_MATCH) as usize] as usize;
    let (base, extra) = LENGTH_CODES[slot];
    LengthSym { symbol: (257 + slot) as u16, extra_bits: extra, extra_val: len - base }
}

/// Map a match distance (1..=32768) to its code.
///
/// # Panics
/// Panics on distances outside the representable range.
pub fn distance_symbol(dist: u32) -> DistSym {
    assert!((1..=MAX_DISTANCE).contains(&dist), "distance {dist} out of range");
    let slot = dist_slot(dist);
    let (base, extra) = DIST_CODES[slot];
    DistSym { symbol: slot as u16, extra_bits: extra, extra_val: dist - base }
}

/// Decode side: `(base, extra_bits)` for a length symbol (257..=285).
pub fn length_base(symbol: u16) -> Option<(u32, u32)> {
    LENGTH_CODES.get(symbol.checked_sub(257)? as usize).copied()
}

/// Decode side: `(base, extra_bits)` for a distance symbol (0..=29).
pub fn distance_base(symbol: u16) -> Option<(u32, u32)> {
    DIST_CODES.get(symbol as usize).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_litlen_lengths_match_rfc() {
        let l = fixed_litlen_lengths();
        assert_eq!(l[0], 8);
        assert_eq!(l[143], 8);
        assert_eq!(l[144], 9);
        assert_eq!(l[255], 9);
        assert_eq!(l[256], 7);
        assert_eq!(l[279], 7);
        assert_eq!(l[280], 8);
        assert_eq!(l[287], 8);
        // The fixed code is complete: Kraft sum == 1.
        let kraft: u64 = l.iter().map(|&b| 1u64 << (15 - b)).sum();
        assert_eq!(kraft, 1 << 15);
    }

    #[test]
    fn every_length_maps_and_inverts() {
        for len in MIN_MATCH..=MAX_MATCH {
            let s = length_symbol(len);
            assert!((257..=285).contains(&s.symbol), "len {len} -> {s:?}");
            let (base, extra) = length_base(s.symbol).unwrap();
            assert_eq!(extra, s.extra_bits);
            assert_eq!(base + s.extra_val, len, "len {len}");
            assert!(s.extra_val < (1 << s.extra_bits) || s.extra_bits == 0);
        }
    }

    #[test]
    fn every_distance_maps_and_inverts() {
        for dist in 1..=MAX_DISTANCE {
            let s = distance_symbol(dist);
            assert!(s.symbol <= 29, "dist {dist} -> {s:?}");
            let (base, extra) = distance_base(s.symbol).unwrap();
            assert_eq!(extra, s.extra_bits);
            assert_eq!(base + s.extra_val, dist, "dist {dist}");
            assert!(s.extra_val < (1 << s.extra_bits) || s.extra_bits == 0);
        }
    }

    #[test]
    fn length_258_uses_code_285() {
        assert_eq!(length_symbol(258), LengthSym { symbol: 285, extra_bits: 0, extra_val: 0 });
    }

    #[test]
    fn boundary_lengths() {
        assert_eq!(length_symbol(3).symbol, 257);
        assert_eq!(length_symbol(10).symbol, 264);
        assert_eq!(length_symbol(11).symbol, 265);
        assert_eq!(length_symbol(257).symbol, 284);
        assert_eq!(length_symbol(257).extra_val, 30);
    }

    #[test]
    fn boundary_distances() {
        assert_eq!(distance_symbol(1).symbol, 0);
        assert_eq!(distance_symbol(4).symbol, 3);
        assert_eq!(distance_symbol(5).symbol, 4);
        assert_eq!(distance_symbol(24_577).symbol, 29);
        assert_eq!(distance_symbol(32_768).symbol, 29);
        assert_eq!(distance_symbol(32_768).extra_val, 8_191);
    }

    #[test]
    fn decode_side_rejects_out_of_range() {
        assert!(length_base(256).is_none());
        assert!(length_base(286).is_none());
        assert!(distance_base(30).is_none());
    }
}
