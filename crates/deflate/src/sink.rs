//! Token sinks: where a compressor front-end delivers its command stream.
//!
//! The hardware pipeline hands tokens from the LZSS matcher to the Huffman
//! back-end over a FIFO; the software fast path wants the same decoupling so
//! the match kernel never allocates and the consumer chooses whether to
//! buffer, count, or encode on the fly. A [`TokenSink`] is that FIFO's
//! software shape: the matcher pushes literals and matches, the sink decides
//! what to do with them.

use crate::token::Token;

/// Consumer of an LZSS command stream, fed in output order.
///
/// Implementations must not reorder: the byte stream a sink sees is exactly
/// `sum(literal | match)` in emission order, which is what makes a sink's
/// view equivalent to a `Vec<Token>` buffer.
pub trait TokenSink {
    /// One literal byte.
    fn literal(&mut self, byte: u8);

    /// One back-reference: copy `len` bytes from `dist` bytes back.
    /// Callers guarantee Deflate-representable ranges (`dist` in
    /// `1..=32768`, `len` in `3..=258`).
    fn matched(&mut self, dist: u32, len: u32);

    /// Feed an already-buffered token stream, in order.
    fn push_tokens(&mut self, tokens: &[Token]) {
        for t in tokens {
            match *t {
                Token::Literal(b) => self.literal(b),
                Token::Match { dist, len } => self.matched(dist, len),
            }
        }
    }
}

/// The trivial sink: buffer every token.
impl TokenSink for Vec<Token> {
    #[inline]
    fn literal(&mut self, byte: u8) {
        self.push(Token::Literal(byte));
    }

    #[inline]
    fn matched(&mut self, dist: u32, len: u32) {
        debug_assert!((1..=32_768).contains(&dist));
        debug_assert!((3..=258).contains(&len));
        self.push(Token::Match { dist, len });
    }

    fn push_tokens(&mut self, tokens: &[Token]) {
        self.extend_from_slice(tokens);
    }
}

/// A sink that only counts, for ratio estimation without buffering.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingSink {
    /// Literal tokens seen.
    pub literals: u64,
    /// Match tokens seen.
    pub matches: u64,
    /// Uncompressed bytes covered by all tokens so far.
    pub expanded_bytes: u64,
}

impl TokenSink for CountingSink {
    #[inline]
    fn literal(&mut self, _byte: u8) {
        self.literals += 1;
        self.expanded_bytes += 1;
    }

    #[inline]
    fn matched(&mut self, _dist: u32, len: u32) {
        self.matches += 1;
        self.expanded_bytes += u64::from(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sink_buffers_in_order() {
        let mut v: Vec<Token> = Vec::new();
        v.literal(b'a');
        v.matched(6, 4);
        v.literal(b'z');
        assert_eq!(
            v,
            vec![Token::Literal(b'a'), Token::Match { dist: 6, len: 4 }, Token::Literal(b'z')]
        );
    }

    #[test]
    fn counting_sink_tracks_coverage() {
        let mut c = CountingSink::default();
        c.literal(b'x');
        c.matched(1, 258);
        c.matched(10, 3);
        assert_eq!(c.literals, 1);
        assert_eq!(c.matches, 2);
        assert_eq!(c.expanded_bytes, 262);
    }
}
