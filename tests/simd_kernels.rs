//! Verification of the match kernels against a trivial byte-at-a-time loop:
//! the portable scalar kernel and the one kernel this target compiles
//! (SSE2 on x86_64, NEON on AArch64, the scalar kernel elsewhere). A single
//! wrong length silently corrupts token streams, so both are checked on
//! adversarial layouts: random offsets, a mismatch at every byte offset,
//! overlapping windows, exact limits and the end of the buffer.

use lzfpga::lzss::simd::{match_length, match_length_scalar};

type Kernel = fn(&[u8], usize, usize, u32) -> u32;

/// The scalar kernel and the compiled one, by name.
const KERNELS: [(&str, Kernel); 2] = [("scalar", match_length_scalar), ("compiled", match_length)];

/// The obviously-correct reference every kernel must match.
fn naive_match_length(data: &[u8], a: usize, b: usize, limit: u32) -> u32 {
    let mut n = 0u32;
    while n < limit && data[a + n as usize] == data[b + n as usize] {
        n += 1;
    }
    n
}

/// A deterministic xorshift so the adversarial cases don't depend on any
/// external RNG crate.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn every_supported_kernel_matches_the_naive_loop() {
    // Buffer with long runs, so matches of every length occur, plus a
    // pseudo-random tail so mismatches land at arbitrary offsets.
    let mut data = vec![0u8; 4096];
    let mut state = 0x9E3779B97F4A7C15u64;
    for (i, byte) in data.iter_mut().enumerate() {
        *byte = if i < 2048 { (i / 97) as u8 } else { (xorshift(&mut state) & 0xFF) as u8 };
    }

    let mut cases = 0usize;
    for _ in 0..4000 {
        let a = (xorshift(&mut state) % 2000) as usize;
        let b = a + 1 + (xorshift(&mut state) % 1500) as usize;
        let max_limit = (data.len() - b) as u64;
        if max_limit == 0 {
            continue;
        }
        let limit = (1 + xorshift(&mut state) % max_limit.min(258)) as u32;
        let want = naive_match_length(&data, a, b, limit);
        for (name, kernel) in KERNELS {
            assert_eq!(kernel(&data, a, b, limit), want, "{name} at a={a} b={b} limit={limit}");
        }
        cases += 1;
    }
    assert!(cases > 3000, "the case generator degenerated");
}

#[test]
fn kernels_agree_on_mismatches_at_every_byte_offset() {
    // The hard part of a vectorized compare is locating the first differing
    // byte *within* a vector word. Plant a single mismatch at each offset
    // 0..80 (past the second 32-byte step) and demand an exact length from
    // every kernel.
    let base = vec![0xA5u8; 600];
    for mismatch_at in 0..80usize {
        let mut data = base.clone();
        data[300 + mismatch_at] = 0x5A;
        for limit in [1u32, 7, 8, 9, 15, 16, 17, 24, 25, 31, 32, 33, 39, 40, 41, 71, 72, 73, 258] {
            if 300 + limit as usize > data.len() {
                continue;
            }
            let want = naive_match_length(&data, 0, 300, limit);
            for (name, kernel) in KERNELS {
                assert_eq!(
                    kernel(&data, 0, 300, limit),
                    want,
                    "{name} with mismatch at {mismatch_at}, limit {limit}"
                );
            }
        }
    }
}

#[test]
fn overlapping_matches_are_kernel_independent() {
    // LZSS compares may overlap (b - a < match length): the canonical RLE
    // encoding `a=0, b=1` over a constant run. Vector kernels must load
    // from both cursors independently, never memcpy-style.
    let data = vec![7u8; 1024];
    for dist in [1usize, 2, 3, 7, 8, 15, 16, 17, 31] {
        for limit in [8u32, 57, 258] {
            let want = naive_match_length(&data, 0, dist, limit);
            for (name, kernel) in KERNELS {
                assert_eq!(
                    kernel(&data, 0, dist, limit),
                    want,
                    "{name} at distance {dist} limit {limit}"
                );
            }
        }
    }
}

#[test]
fn kernels_stop_at_exactly_the_limit() {
    // A full-agreement window: the length is the limit itself, for every
    // limit up to 258, so every step boundary of both kernels is crossed.
    let data = vec![0x3Cu8; 1024];
    for limit in 0..=258u32 {
        for (name, kernel) in KERNELS {
            assert_eq!(kernel(&data, 10, 400, limit), limit, "{name} limit {limit}");
        }
    }
}

#[test]
fn kernels_never_read_past_the_end_of_the_buffer() {
    // `b + limit == data.len()`: the window ends exactly at the buffer's
    // end, with the match running all the way or breaking on the last byte.
    for len in 8..=80usize {
        let mut data: Vec<u8> = (0..2 * len).map(|i| (i % len) as u8).collect();
        let b = len;
        let limit = len as u32;
        for (name, kernel) in KERNELS {
            assert_eq!(kernel(&data, 0, b, limit), limit, "{name} full match, len {len}");
        }
        *data.last_mut().expect("non-empty") ^= 0xFF;
        for (name, kernel) in KERNELS {
            assert_eq!(kernel(&data, 0, b, limit), limit - 1, "{name} last byte, len {len}");
        }
    }
}
