//! LZSS algorithm layer: parameters, hashing, the software reference
//! compressor, the token decoder, and the embedded-CPU cost model.
//!
//! The paper's §III defines the data format (literal / copy commands over a
//! sliding window with ZLib's head/next hash-chain search); this crate
//! implements that algorithm in ordinary software form:
//!
//! * [`params`] — the tunable knobs the paper exposes as generics
//!   (dictionary size, hash bits, matching iteration limit, …) plus the
//!   min/medium/max level presets used in Figure 4.
//! * [`hash`] — the 3-byte rolling hash (ZLib's shift-xor and a
//!   multiplicative alternative; the "exact hash function" is a generic in
//!   the paper's design).
//! * [`mod@reference`] — a ZLib-algorithm-equivalent compressor (greedy and lazy
//!   variants) producing [`lzfpga_deflate::Token`] streams. This is both the
//!   Table I software baseline and the golden model the cycle-accurate
//!   hardware simulation is checked against token-for-token.
//! * [`decoder`] — expands token streams back to bytes, enforcing window
//!   discipline; used for round-trip verification everywhere.
//! * [`classic`] — the *original* fixed-field LZSS wire format \[4\], for
//!   quantifying what the Deflate/Huffman back-end buys.
//! * [`cost`] — an instrumented operation-count model of the compressor on a
//!   PowerPC-440-class embedded CPU (the paper's 400 MHz SW baseline),
//!   documented in `DESIGN.md` as a substitution for the physical board.
//! * [`turbo`] — the same algorithm as [`mod@reference`], token-for-token,
//!   but with a wide match kernel and reusable arenas: the software fast
//!   path every compress command runs.
//! * [`simd`] — the one match-length kernel behind [`turbo`], chosen at
//!   compile time: two 16-byte SSE2 compares per step on x86_64, a 16-byte
//!   NEON compare on AArch64, and the 8-byte `u64` scalar kernel anywhere
//!   else. All return identical lengths.
//!
//! Unsafe code is denied crate-wide and allowed in exactly two functions,
//! one per architecture: the SSE2 and NEON kernels in [`simd`], each with
//! a single block around its vector loads, justified by the in-bounds
//! argument documented there.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod classic;
pub mod cost;
pub mod decoder;
pub mod hash;
pub mod params;
pub mod reference;
pub mod simd;
pub mod turbo;

pub use analysis::{analyze_tokens, TokenStats};
pub use decoder::{decode_tokens, DecodeError};
pub use hash::HashFn;
pub use params::{CompressionLevel, LzssParams};
pub use reference::{compress, compress_with_probe, Probe};
pub use turbo::TurboEngine;
