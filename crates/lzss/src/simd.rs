//! The match-length kernel: one compare width, fixed when the crate is
//! compiled.
//!
//! The paper fixes the comparison datapath at synthesis: a 32-bit
//! dictionary bus compares up to 4 bytes per cycle (§IV). This module does
//! the same at compile time. [`match_length`] is the one kernel the
//! matcher calls, and `cfg` picks its body:
//!
//! * x86_64 with SSE2 (the x86_64 baseline): two 16-byte `pcmpeqb` +
//!   `pmovmskb` compares per step;
//! * AArch64 with NEON (the AArch64 baseline): 16 bytes per step with
//!   `cmeq` + the `shrn`-by-4 mask narrowing;
//! * anywhere else: [`match_length_scalar`], 8 bytes per step as a
//!   little-endian `u64`. The vector kernels use it for their tails too.
//!
//! Both functions compute exactly the same value — the length of the
//! common prefix of `data[a..]` and `data[b..]`, capped at `limit` — so the
//! token stream never depends on the target. `tests/simd_kernels.rs` and
//! the tests below check both against a naive byte loop.
//!
//! # Safety of the vector loads
//!
//! The vector kernels hold the only `unsafe` in the workspace: one block
//! per architecture, around the unaligned 16-byte loads of one step.
//! [`match_length`] first slices the two windows `&data[a..a + limit]`
//! and `&data[b..b + limit]` (checked, so a bad caller panics instead of
//! reading out of bounds) and hands the kernels those slices; a kernel's
//! loop condition (`n + 32 <= len` for SSE2, `n + 16 <= len` for NEON,
//! `len` the shorter window) keeps every load inside them. Overlapping
//! windows (`b - a < 16`) are fine: the kernels only read and compare.

/// Name of the kernel [`match_length`] compiles to on this target
/// (`"sse2"`, `"neon"` or `"scalar"`), for reports.
pub const KERNEL: &str = if cfg!(all(target_arch = "x86_64", target_feature = "sse2")) {
    "sse2"
} else if cfg!(all(target_arch = "aarch64", target_feature = "neon")) {
    "neon"
} else {
    "scalar"
};

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `limit`, on the widest compare this build targets (see the module docs).
///
/// The matcher upholds `a < b` and `b + limit <= data.len()` (its
/// `limit = MAX_MATCH.min(len - pos)` invariant); a call that breaks the
/// bound panics.
#[inline(always)]
pub fn match_length(data: &[u8], a: usize, b: usize, limit: u32) -> u32 {
    let max = limit as usize;
    let (pa, pb) = (&data[a..a + max], &data[b..b + max]);
    #[cfg(any(
        all(target_arch = "x86_64", target_feature = "sse2"),
        all(target_arch = "aarch64", target_feature = "neon")
    ))]
    if max >= 8 {
        // Most compares mismatch within the first 8 bytes (the match-length
        // histograms are log2-heavy at the short end), so one word compare
        // resolves the common case before any vector load is paid for.
        let wa = u64::from_le_bytes(pa[..8].try_into().expect("8 bytes"));
        let wb = u64::from_le_bytes(pb[..8].try_into().expect("8 bytes"));
        let diff = wa ^ wb;
        if diff != 0 {
            return diff.trailing_zeros() / 8;
        }
        return wide_from_8(pa, pb);
    }
    common_prefix(pa, pb)
}

/// Scalar kernel: 8 bytes per branch as a little-endian `u64`.
///
/// Same contract as [`match_length`].
#[inline]
pub fn match_length_scalar(data: &[u8], a: usize, b: usize, limit: u32) -> u32 {
    let max = limit as usize;
    common_prefix(&data[a..a + max], &data[b..b + max])
}

/// Common prefix of two windows, 8 bytes per branch, with the tail folded
/// into a single zero-padded partial-word compare (no per-byte loop —
/// short matches are the common case in the log2 histograms, so the tail
/// *is* the hot path).
#[inline]
fn common_prefix(pa: &[u8], pb: &[u8]) -> u32 {
    // `chunks_exact(8)` makes each `try_into` a free reinterpretation.
    let mut ca = pa.chunks_exact(8);
    let mut cb = pb.chunks_exact(8);
    let mut n = 0usize;
    for (wa, wb) in ca.by_ref().zip(cb.by_ref()) {
        let wa = u64::from_le_bytes(wa.try_into().expect("8-byte chunk"));
        let wb = u64::from_le_bytes(wb.try_into().expect("8-byte chunk"));
        let diff = wa ^ wb;
        if diff != 0 {
            // First differing byte: in little-endian order the low byte of
            // the word is the first byte of the slice, so the mismatch
            // offset is trailing-zero-bits / 8 — the software form of the
            // hardware's priority encoder over the bus comparator lanes.
            return (n + (diff.trailing_zeros() / 8) as usize) as u32;
        }
        n += 8;
    }
    // Masked tail: widen the `tail < 8` remaining bytes to one zero-padded
    // word each. Equal padding can never create a difference, so the XOR
    // form is exact, and a clean tail falls straight through.
    let (ra, rb) = (ca.remainder(), cb.remainder());
    let tail = ra.len().min(rb.len());
    if tail > 0 {
        let mut wa = [0u8; 8];
        let mut wb = [0u8; 8];
        wa[..tail].copy_from_slice(&ra[..tail]);
        wb[..tail].copy_from_slice(&rb[..tail]);
        let diff = u64::from_le_bytes(wa) ^ u64::from_le_bytes(wb);
        if diff != 0 {
            return (n + (diff.trailing_zeros() / 8) as usize) as u32;
        }
        n += tail;
    }
    n as u32
}

/// SSE2 continuation of [`match_length`] once the first 8 bytes of the
/// two windows agree: two 16-byte compares per branch, so a long match
/// takes half the branches of a 16-byte loop; the first zero bit of the
/// joined `pmovmskb` equality masks is the mismatch offset. The last
/// `< 32` bytes go to the scalar loop.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[inline]
#[allow(unsafe_code)]
fn wide_from_8(pa: &[u8], pb: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8};
    let max = pa.len().min(pb.len());
    let mut n = 8usize;
    while n + 32 <= max {
        // SAFETY: SSE2 is enabled at compile time (this item's `cfg`), and
        // `n + 32 <= max <= pa.len(), pb.len()` keeps all four unaligned
        // 16-byte loads inside their slices.
        let eq = unsafe {
            let (ca, cb) = (pa.as_ptr().add(n), pb.as_ptr().add(n));
            let lo = _mm_cmpeq_epi8(_mm_loadu_si128(ca.cast()), _mm_loadu_si128(cb.cast()));
            let hi = _mm_cmpeq_epi8(
                _mm_loadu_si128(ca.add(16).cast()),
                _mm_loadu_si128(cb.add(16).cast()),
            );
            _mm_movemask_epi8(lo) as u32 | (_mm_movemask_epi8(hi) as u32) << 16
        };
        if eq != u32::MAX {
            // One mask bit per byte lane, lane 0 in bit 0.
            return (n + (!eq).trailing_zeros() as usize) as u32;
        }
        n += 32;
    }
    n as u32 + common_prefix(&pa[n..max], &pb[n..max])
}

/// NEON continuation of [`match_length`] once the first 8 bytes of the
/// two windows agree: 16 bytes per branch; narrowing the `cmeq` result with
/// `shrn #4` packs 4 mask bits per byte lane into one `u64`, lane 0 in the
/// low nibble.
#[cfg(all(target_arch = "aarch64", target_feature = "neon"))]
#[inline]
#[allow(unsafe_code)]
fn wide_from_8(pa: &[u8], pb: &[u8]) -> u32 {
    use std::arch::aarch64::{
        vceqq_u8, vget_lane_u64, vld1q_u8, vreinterpret_u64_u8, vreinterpretq_u16_u8, vshrn_n_u16,
    };
    let max = pa.len().min(pb.len());
    let mut n = 8usize;
    while n + 16 <= max {
        // SAFETY: NEON is enabled at compile time (this item's `cfg`), and
        // `n + 16 <= max <= pa.len(), pb.len()` keeps both 16-byte loads
        // inside their slices.
        let mask = unsafe {
            let eq = vceqq_u8(vld1q_u8(pa.as_ptr().add(n)), vld1q_u8(pb.as_ptr().add(n)));
            vget_lane_u64::<0>(vreinterpret_u64_u8(vshrn_n_u16::<4>(vreinterpretq_u16_u8(eq))))
        };
        if mask != u64::MAX {
            return (n + ((!mask).trailing_zeros() / 4) as usize) as u32;
        }
        n += 16;
    }
    n as u32 + common_prefix(&pa[n..max], &pb[n..max])
}

#[cfg(test)]
mod tests {
    use super::*;
    use lzfpga_sim::rng::XorShift64;

    type Kernel = fn(&[u8], usize, usize, u32) -> u32;

    /// The scalar kernel and the one this target compiles (the same
    /// function on targets without a vector kernel).
    const KERNELS: [(&str, Kernel); 2] =
        [("scalar", match_length_scalar), ("compiled", match_length)];

    /// Naive byte loop both kernels must agree with everywhere.
    fn match_length_slow(data: &[u8], a: usize, b: usize, limit: u32) -> u32 {
        let max = limit as usize;
        let mut n = 0usize;
        while n < max && data[a + n] == data[b + n] {
            n += 1;
        }
        n as u32
    }

    #[test]
    fn every_kernel_matches_the_byte_loop_on_random_offsets() {
        let mut rng = XorShift64::new(0xA11CE);
        let mut data: Vec<u8> = (0..8_192).map(|_| b'a' + rng.next_u8() % 3).collect();
        for plant in 0..64 {
            data[2_000 + plant * 13] = b'!';
        }
        for (name, kernel) in KERNELS {
            for _ in 0..5_000 {
                let b = 1 + rng.below_usize(data.len() - 1);
                let a = rng.below_usize(b);
                let limit = 258.min((data.len() - b) as u32);
                assert_eq!(
                    kernel(&data, a, b, limit),
                    match_length_slow(&data, a, b, limit),
                    "{name} a={a} b={b} limit={limit}"
                );
            }
        }
    }

    #[test]
    fn every_kernel_handles_every_boundary_length() {
        // All prefix lengths 0..=100: crosses the first word, the 16- and
        // 32-byte vector steps and the scalar kernel's 8-byte words.
        for (name, kernel) in KERNELS {
            for agree in 0..=100usize {
                let mut data = vec![b'x'; 160 + agree];
                data[80 + agree] = b'?';
                let limit = 258.min((data.len() - 80) as u32);
                assert_eq!(kernel(&data, 0, 80, limit), agree as u32, "{name}");
            }
        }
    }

    #[test]
    fn kernels_respect_the_limit_exactly() {
        let data = vec![7u8; 1_024];
        for (name, kernel) in KERNELS {
            for limit in
                [0u32, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 39, 40, 41, 71, 72, 73, 258]
            {
                assert_eq!(kernel(&data, 0, 500, limit), limit, "{name}");
            }
        }
    }

    #[test]
    fn kernels_handle_overlapping_windows() {
        // dist < 16: the a- and b-side loads overlap. Comparison semantics
        // (unlike copy semantics) are unaffected; verify anyway.
        let data = vec![b'r'; 600];
        for (name, kernel) in KERNELS {
            for dist in 1..40usize {
                let b = 300;
                let a = b - dist;
                let limit = 258.min((data.len() - b) as u32);
                assert_eq!(
                    kernel(&data, a, b, limit),
                    match_length_slow(&data, a, b, limit),
                    "{name} dist={dist}"
                );
            }
        }
    }

    #[test]
    fn kernels_agree_at_the_very_end_of_the_buffer() {
        // `b + limit == data.len()` exactly: no kernel may read past it.
        let mut rng = XorShift64::new(9);
        let mut data = vec![0u8; 512];
        rng.fill_bytes(&mut data);
        let pattern: Vec<u8> = data[100..150].to_vec();
        data.extend_from_slice(&pattern);
        let b = data.len() - pattern.len();
        for (name, kernel) in KERNELS {
            for limit in 0..=pattern.len() as u32 {
                assert_eq!(
                    kernel(&data, 100, b, limit),
                    match_length_slow(&data, 100, b, limit),
                    "{name} limit={limit}"
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn a_limit_past_the_buffer_panics_instead_of_reading_it() {
        let data = vec![5u8; 64];
        match_length(&data, 0, 32, 40);
    }
}
