//! The test oracle: zlib's algorithm as plain byte loops.
//!
//! This module is *obviously* the zlib algorithm — byte-at-a-time compares,
//! fresh tables per call, no quick reject — and that is its whole job: the
//! equivalence suites check the one matcher the program runs
//! ([`crate::turbo`]) and the cycle-accurate hardware model in
//! `lzfpga-core` against it token for token. Nothing outside the tests
//! calls it.
//!
//! With [`CompressionLevel::Min`](crate::params::CompressionLevel::Min) the
//! greedy path follows zlib's `deflate_fast` decision-for-decision
//! (head/next chains, newest-candidate-first walk, `max_insert_length` skip
//! rule), which is exactly the algorithm the paper moved into hardware. The
//! lazy path (`Medium`/`Max`) mirrors zlib's `deflate_slow` one-position
//! deferral, providing the Fig. 4 "max compression level" end point.

use crate::hash::HASH_BYTES;
use crate::params::LzssParams;
use lzfpga_deflate::fixed::{MAX_MATCH, MIN_MATCH};
use lzfpga_deflate::token::Token;

/// Matches at exactly the minimum length are not worth emitting when the
/// distance is large (zlib's `TOO_FAR`); applied only on the lazy path, as in
/// zlib.
const TOO_FAR: u32 = 4_096;

/// Head/prev chain tables with the hardware's zero-initialisation semantics.
///
/// BRAMs power up to zero, so a never-written head entry reads as
/// "position 0". The design does not reserve a NIL value: a candidate is
/// *valid* iff its distance from the current position lies in
/// `1..=max_distance`, and a false candidate (fresh bucket near the start of
/// the stream) simply fails the byte comparison. This is why the paper's own
/// "snowy snow" example can copy from position 0 — unlike stock zlib, whose
/// `NIL == 0` makes the first string unmatchable. Chains terminate when the
/// next link does not move strictly backwards (the hardware's relative-offset
/// next table encodes "no previous" as offset 0).
struct ChainTables {
    head: Vec<usize>,
    prev: Vec<usize>,
    wmask: usize,
}

impl ChainTables {
    fn new(params: &LzssParams) -> Self {
        Self {
            head: vec![0; 1 << params.hash_bits],
            prev: vec![0; params.window_size as usize],
            wmask: params.window_size as usize - 1,
        }
    }

    /// Insert `pos` under hash `h`; returns the previous head (the first
    /// match candidate), exactly like zlib's `INSERT_STRING`.
    #[inline]
    fn insert(&mut self, h: u32, pos: usize) -> usize {
        let old = self.head[h as usize];
        self.prev[pos & self.wmask] = old;
        self.head[h as usize] = pos;
        old
    }

    /// Next candidate on the chain after `cand`, or `None` at the chain end
    /// (a link that does not move strictly backwards).
    #[inline]
    fn chain_next(&self, cand: usize) -> Option<usize> {
        let nxt = self.prev[cand & self.wmask];
        (nxt < cand).then_some(nxt)
    }
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `limit`, compared one byte at a time.
#[inline]
fn match_length(data: &[u8], a: usize, b: usize, limit: u32) -> u32 {
    debug_assert!(a < b);
    let max = limit as usize;
    let mut n = 0usize;
    while n < max && data[a + n] == data[b + n] {
        n += 1;
    }
    n as u32
}

/// Compress `data` into an LZSS token stream.
pub fn compress(data: &[u8], params: &LzssParams) -> Vec<Token> {
    params.validate();
    if params.effective_tuning().lazy {
        compress_lazy(data, params)
    } else {
        compress_greedy_from(data, 0, params)
    }
}

/// Compress `data` with a *preset dictionary*: the window and hash chains
/// are primed with `dict` before the first byte of `data` is matched, so
/// early matches can reach back into the dictionary (zlib's
/// `deflateSetDictionary`). Only the greedy path supports priming — the
/// hardware is greedy, and that is the equivalence target.
///
/// The emitted tokens cover exactly `data`; distances may reach up to
/// `dict.len()` bytes before its start. Decode with
/// [`crate::decoder::decode_tokens_with_dict`].
///
/// # Panics
/// Panics if a lazy level is selected or the dictionary exceeds the window.
pub fn compress_with_dict(dict: &[u8], data: &[u8], params: &LzssParams) -> Vec<Token> {
    params.validate();
    let tuning = params.effective_tuning();
    assert!(!tuning.lazy, "preset dictionaries support the greedy (hardware) path only");
    assert!(
        dict.len() <= params.window_size as usize,
        "dictionary of {} bytes exceeds the {} byte window",
        dict.len(),
        params.window_size
    );
    let mut buf = Vec::with_capacity(dict.len() + data.len());
    buf.extend_from_slice(dict);
    buf.extend_from_slice(data);
    compress_greedy_from(&buf, dict.len(), params)
}

/// Search the hash chain starting at `cand` for the longest match against
/// `data[pos..]`. Returns `(best_len, best_dist)`, `(0, 0)` if none.
fn longest_match(
    data: &[u8],
    pos: usize,
    mut cand: usize,
    tables: &ChainTables,
    max_dist: u32,
    mut chain_budget: u32,
    nice: u32,
) -> (u32, u32) {
    let limit = MAX_MATCH.min((data.len() - pos) as u32);
    let nice = nice.min(limit);
    let mut best_len = 0u32;
    let mut best_dist = 0u32;
    while chain_budget > 0 {
        if cand >= pos {
            // Only possible for the zero-initialised "position 0" pseudo
            // candidate seen while pos == 0.
            break;
        }
        let dist = (pos - cand) as u32;
        if dist > max_dist {
            break;
        }
        let len = match_length(data, cand, pos, limit);
        if len > best_len {
            best_len = len;
            best_dist = dist;
            if len >= nice {
                break;
            }
        }
        match tables.chain_next(cand) {
            Some(nxt) => cand = nxt,
            None => break,
        }
        chain_budget -= 1;
    }
    (best_len, best_dist)
}

/// Greedy compression of `data[start..]` with `data[..start]` serving as a
/// pre-inserted dictionary (every hashable dictionary position enters the
/// chains first, exactly like zlib's `deflateSetDictionary`).
fn compress_greedy_from(data: &[u8], start: usize, params: &LzssParams) -> Vec<Token> {
    let tuning = params.effective_tuning();
    let max_dist = params.max_distance();
    let mut tables = ChainTables::new(params);
    let mut out = Vec::new();
    let n = data.len();
    for k in 0..start.min(n.saturating_sub(HASH_BYTES - 1)) {
        let hk = params.hash_fn.hash_at(data, k);
        tables.insert(hk, k);
    }
    let mut pos = start;

    while pos < n {
        if n - pos < HASH_BYTES {
            // Tail too short to hash: emit the remaining bytes as literals.
            out.push(Token::Literal(data[pos]));
            pos += 1;
            continue;
        }
        let h = params.hash_fn.hash_at(data, pos);
        let cand = tables.insert(h, pos);

        let (best_len, best_dist) =
            longest_match(data, pos, cand, &tables, max_dist, tuning.max_chain, tuning.nice_length);

        if best_len >= MIN_MATCH {
            out.push(Token::new_match(best_dist, best_len));
            // zlib deflate_fast: insert every position of a short match;
            // skip hash maintenance entirely for long ones.
            if best_len <= tuning.max_lazy {
                for k in pos + 1..pos + best_len as usize {
                    if k + HASH_BYTES <= n {
                        let hk = params.hash_fn.hash_at(data, k);
                        tables.insert(hk, k);
                    }
                }
            }
            pos += best_len as usize;
        } else {
            out.push(Token::Literal(data[pos]));
            pos += 1;
        }
    }
    out
}

fn compress_lazy(data: &[u8], params: &LzssParams) -> Vec<Token> {
    let tuning = params.effective_tuning();
    let max_dist = params.max_distance();
    let mut tables = ChainTables::new(params);
    let mut out = Vec::new();
    let n = data.len();
    let mut pos = 0usize;

    // Deferred previous-position match, zlib deflate_slow style.
    let mut prev_len = 0u32;
    let mut prev_dist = 0u32;
    let mut have_prev_literal = false; // data[pos-1] pending as a literal

    while pos < n {
        if n - pos < HASH_BYTES {
            if prev_len >= MIN_MATCH {
                out.push(Token::new_match(prev_dist, prev_len));
                let skip = prev_len as usize - 1;
                prev_len = 0;
                have_prev_literal = false;
                pos += skip;
                continue;
            }
            if have_prev_literal {
                out.push(Token::Literal(data[pos - 1]));
                have_prev_literal = false;
            }
            out.push(Token::Literal(data[pos]));
            pos += 1;
            continue;
        }

        let h = params.hash_fn.hash_at(data, pos);
        let cand = tables.insert(h, pos);

        // Reduce effort when the pending match is already good (zlib).
        let budget =
            if prev_len >= tuning.good_length { tuning.max_chain >> 2 } else { tuning.max_chain };
        let (mut cur_len, cur_dist) = if prev_len < tuning.max_lazy {
            longest_match(data, pos, cand, &tables, max_dist, budget.max(1), tuning.nice_length)
        } else {
            (0, 0)
        };
        if cur_len == MIN_MATCH && cur_dist > TOO_FAR {
            cur_len = 0;
        }

        if prev_len >= MIN_MATCH && cur_len <= prev_len {
            // The deferred match wins: emit it, covering data[pos-1..].
            out.push(Token::new_match(prev_dist, prev_len));
            // Insert the remaining covered positions (pos .. pos-1+prev_len),
            // pos itself is already inserted.
            for k in pos + 1..pos - 1 + prev_len as usize {
                if k + HASH_BYTES <= n {
                    let hk = params.hash_fn.hash_at(data, k);
                    tables.insert(hk, k);
                }
            }
            pos += prev_len as usize - 1;
            prev_len = 0;
            have_prev_literal = false;
        } else {
            if have_prev_literal {
                out.push(Token::Literal(data[pos - 1]));
            }
            prev_len = cur_len;
            prev_dist = cur_dist;
            have_prev_literal = true;
            pos += 1;
        }
    }
    if have_prev_literal {
        out.push(Token::Literal(data[n - 1]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::decode_tokens;
    use crate::params::CompressionLevel;

    fn roundtrip(data: &[u8], params: &LzssParams) {
        let tokens = compress(data, params);
        let decoded = decode_tokens(&tokens, params.window_size).unwrap();
        assert_eq!(decoded, data, "round trip failed for {params:?}");
    }

    fn fast() -> LzssParams {
        LzssParams::paper_fast()
    }

    #[test]
    fn empty_input() {
        assert!(compress(b"", &fast()).is_empty());
    }

    #[test]
    fn short_inputs_become_literals() {
        for data in [&b"a"[..], b"ab", b"abc"] {
            let tokens = compress(data, &fast());
            assert!(tokens.iter().all(|t| matches!(t, Token::Literal(_))));
            roundtrip(data, &fast());
        }
    }

    #[test]
    fn snowy_snow_finds_the_papers_match() {
        let tokens = compress(b"snowy snow", &fast());
        assert_eq!(tokens.len(), 7, "{tokens:?}");
        assert_eq!(tokens[6], Token::Match { dist: 6, len: 4 });
    }

    #[test]
    fn repetitive_data_compresses_hard() {
        let data = vec![b'z'; 10_000];
        let tokens = compress(&data, &fast());
        // One literal then max-length matches: ~40 tokens.
        assert!(tokens.len() < 64, "{} tokens", tokens.len());
        roundtrip(&data, &fast());
    }

    #[test]
    fn all_levels_round_trip_on_mixed_data() {
        let mut data = Vec::new();
        for i in 0..3_000u32 {
            data.extend_from_slice(format!("entry {} value {}\n", i % 97, i * 7 % 13).as_bytes());
        }
        for level in [CompressionLevel::Min, CompressionLevel::Medium, CompressionLevel::Max] {
            let params = LzssParams::new(4_096, 15, level);
            roundtrip(&data, &params);
        }
    }

    #[test]
    fn higher_levels_compress_at_least_as_well() {
        let mut data = Vec::new();
        for i in 0..5_000u32 {
            data.extend_from_slice(format!("the quick brown fox {} jumps\n", i % 31).as_bytes());
        }
        let count = |level| {
            let params = LzssParams::new(8_192, 15, level);
            let tokens = compress(&data, &params);
            // Compare by encoded size proxy: literals cost ~1, matches ~2.
            tokens
                .iter()
                .map(|t| match t {
                    Token::Literal(_) => 1usize,
                    Token::Match { .. } => 2,
                })
                .sum::<usize>()
        };
        let min = count(CompressionLevel::Min);
        let max = count(CompressionLevel::Max);
        assert!(max <= min, "max level {max} worse than min {min}");
    }

    #[test]
    fn window_limit_respected() {
        // Two identical blocks separated by more than the window.
        let block: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        let mut data = block.clone();
        data.extend(std::iter::repeat_n(b'.', 5_000));
        data.extend_from_slice(&block);
        let params = LzssParams::new(1_024, 12, CompressionLevel::Min);
        let tokens = compress(&data, &params);
        for t in &tokens {
            if let Token::Match { dist, .. } = t {
                assert!(*dist <= params.max_distance(), "dist {dist} escapes window");
            }
        }
        roundtrip(&data, &params);
    }

    #[test]
    fn incompressible_data_is_all_literals_and_round_trips() {
        // A de Bruijn-ish byte sequence with no 3-byte repeats in range.
        let mut data = Vec::new();
        let mut x = 1u32;
        for _ in 0..4_096 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            data.push((x >> 24) as u8);
        }
        roundtrip(&data, &fast());
    }

    #[test]
    fn greedy_matches_are_window_and_length_legal() {
        let mut data = Vec::new();
        for i in 0..20_000u32 {
            data.push((i * i % 7 + i % 3) as u8 + b'a');
        }
        let params = LzssParams::new(2_048, 13, CompressionLevel::Min);
        for t in compress(&data, &params) {
            if let Token::Match { dist, len } = t {
                assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
                assert!(dist >= 1 && dist <= params.max_distance());
            }
        }
    }

    #[test]
    fn lazy_mode_defers_to_better_matches() {
        // Construct data where greedy takes a 3-byte match but lazy finds a
        // longer one starting one byte later:
        //   dictionary: "abc" ... "bcdefgh"
        //   cursor:     "abcdefgh"
        let data = b"abc....bcdefgh....abcdefgh".to_vec();
        let greedy = compress(&data, &LzssParams::new(4_096, 15, CompressionLevel::Min));
        let lazy = compress(&data, &LzssParams::new(4_096, 15, CompressionLevel::Max));
        let cost = |tokens: &[Token]| {
            tokens
                .iter()
                .map(|t| match t {
                    Token::Literal(_) => 9usize,
                    Token::Match { .. } => 14,
                })
                .sum::<usize>()
        };
        assert!(cost(&lazy) <= cost(&greedy));
        assert_eq!(decode_tokens(&lazy, 4_096).unwrap(), data);
    }

    #[test]
    fn lazy_mode_tail_handling() {
        // Exercise the < HASH_BYTES tail with a pending match and a pending
        // literal.
        for tail in 0..4usize {
            let mut data = b"qwertyqwerty".to_vec();
            data.extend(std::iter::repeat_n(b'#', tail));
            let params = LzssParams::new(1_024, 12, CompressionLevel::Max);
            roundtrip(&data, &params);
        }
    }
}
