//! Deflate (RFC 1951), zlib (RFC 1950) and gzip (RFC 1952) in pure Rust.
//!
//! The paper encodes the LZSS command stream "using a fixed Huffman table
//! defined by the Deflate specification" so that the hardware output is
//! consumable by stock ZLib. This crate provides the complete format layer
//! needed to reproduce and *verify* that claim without linking the C zlib:
//!
//! * [`bitio`] — LSB-first bit packing exactly as Deflate requires.
//! * [`huffman`] — canonical Huffman codebooks (encode + decode side).
//! * [`fixed`] — the RFC 1951 §3.2.6 fixed literal/length and distance
//!   tables, plus the length/distance extra-bits mapping.
//! * [`token`] — the literal/match token stream shared with the LZSS stages.
//! * [`sink`] — the [`TokenSink`] consumer interface the match kernels feed,
//!   the software shape of the matcher→Huffman FIFO.
//! * [`encoder`] — token stream → Deflate blocks (stored, fixed-Huffman, and
//!   dynamic-Huffman — the trade-off the paper declined in hardware), and
//!   [`FixedZlibSink`], the fixed-table packer a matcher streams into.
//! * [`mod@inflate`] — a full Deflate decoder (stored/fixed/dynamic) used as the
//!   reference decompressor for round-trip verification.
//! * [`zlib`] / [`gzip`] — stream containers with Adler-32 / CRC-32.
//!
//! Everything is dependency-free plain Rust; streams are byte vectors because
//! the simulator works on in-memory samples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adler32;
pub mod bitio;
pub mod crc32;
pub mod encoder;
pub mod fixed;
pub mod gzip;
pub mod huffman;
pub mod inflate;
pub mod sink;
pub mod token;
pub mod vectors;
pub mod zlib;

pub use adler32::adler32;
pub use crc32::{crc32, Crc32};
pub use encoder::{pick_block_kind, BlockKind, DeflateEncoder, FixedZlibSink};
pub use gzip::{gzip_decompress_limited, GzipError};
pub use inflate::{inflate, inflate_limited, InflateError, InflateStream, Limits};
pub use sink::{CountingSink, TokenSink};
pub use token::Token;
pub use zlib::{
    zlib_compress_tokens, zlib_decompress, zlib_decompress_limited, zlib_decompress_prefix,
    zlib_inflate_head, ZlibError,
};
