//! LZSS algorithm layer: parameters, hashing, the matcher, the token
//! decoder, and the embedded-CPU cost model.
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
//! * [`turbo`] — the one matcher: a ZLib-algorithm-equivalent compressor
//!   (greedy and lazy variants) with a wide match kernel and reusable
//!   arenas, producing [`lzfpga_deflate::Token`] streams. Every compress
//!   path runs it, and so does the Table I cost model.
//! * [`simd`] — the one match-length kernel behind [`turbo`], chosen at
//!   compile time: two 16-byte SSE2 compares per step on x86_64, a 16-byte
//!   NEON compare on AArch64, and the 8-byte `u64` scalar kernel anywhere
//!   else. All return identical lengths.
//! * [`cost`] — an operation-count model of the compressor on a
//!   PowerPC-440-class embedded CPU (the paper's 400 MHz SW baseline):
//!   [`cost::OpCounts`] observes [`turbo`] as a
//!   [`MatchProbe`](lzfpga_telemetry::MatchProbe). `DESIGN.md` documents it
//!   as a substitution for the physical board.
//! * [`decoder`] — expands token streams back to bytes, enforcing window
//!   discipline; used for round-trip verification everywhere.
//! * [`classic`] — the *original* fixed-field LZSS wire format \[4\], for
//!   quantifying what the Deflate/Huffman back-end buys.
//! * [`mod@reference`] — the test oracle: the same algorithm as plain byte
//!   loops, which the equivalence suites compare [`turbo`] and the
//!   cycle-accurate hardware model against token for token. Only tests
//!   call it.
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
pub use turbo::TurboEngine;
