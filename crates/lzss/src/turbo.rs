//! The matcher: zlib's hash-chain LZSS with a wide match kernel and
//! zero-allocation engine reuse. Every compress path in the workspace runs
//! it, and so does the Table I cost model ([`crate::cost`]).
//!
//! The decision procedure is zlib's; what makes it fast:
//!
//! * **Wide matching.** Where the hardware compares a full dictionary bus
//!   word per cycle (§IV of the paper; see `compare_cycles` in
//!   `lzfpga-core`), the software kernel ([`crate::simd::match_length`])
//!   compares 8 bytes as one `u64`, then 16-byte vector compares on
//!   targets with SSE2 or NEON — one branch per word instead of one per
//!   byte — and a one-byte quick reject (zlib's `scan_end`) skips most
//!   candidates before the kernel runs.
//! * **Full-lookahead main span.** The hardware's main FSM matches only
//!   once its lookahead buffer holds `MIN_LOOKAHEAD` = 262 bytes
//!   (*WaitData*), so its comparator never checks for end of data inside
//!   a match. The greedy loop does the same in software: while 262 bytes
//!   lie ahead, the match limit is the constant `MAX_MATCH`, `nice` is
//!   used unclamped, the bulk insert runs without its end-of-input guards
//!   and the position hash reads one little-endian `u32`. The last 261
//!   positions run the same loop body with every check (`FULL = false`),
//!   so both spans make the same decisions, probe callbacks and tokens.
//!   The lazy loop runs checked throughout: the split did not pay there.
//! * **Arena reuse.** A [`TurboEngine`] owns its head/next tables and hands
//!   them to every call: compressing a stream of chunks allocates nothing
//!   after the first chunk (reset is a `fill(0)`, preserving the hardware's
//!   BRAM power-up-to-zero semantics).
//! * **Sink output.** Tokens stream into a
//!   [`TokenSink`](lzfpga_deflate::sink::TokenSink), so callers can buffer,
//!   count, or encode without an intermediate `Vec` when they don't need
//!   one.
//!
//! The output is **token-for-token identical** to the byte-loop test
//! oracle, [`mod@crate::reference`], for every parameter set — greedy and
//! lazy — and at the greedy level to the cycle-accurate hardware model.
//! The tests here and the workspace-level `turbo_equivalence` and
//! `hw_equivalence` suites enforce that.
//!
//! **Observability.** Every hot loop is generic over
//! [`MatchProbe`](lzfpga_telemetry::MatchProbe): the plain entry points use
//! [`NoProbe`](lzfpga_telemetry::NoProbe) (whose callbacks monomorphize
//! away — zero cost, byte-identical output), while
//! [`TurboEngine::compress_into_probed`] reports hash-chain inserts, each
//! visited chain candidate, kernel runs, chain-walk lengths and the
//! match/literal mix to any probe: [`lzfpga_telemetry::TurboCounters`] for
//! the `--metrics` report, [`crate::cost::OpCounts`] for the cost model.
//! Probes observe; they never influence a decision.

use crate::hash::HASH_BYTES;
use crate::params::{LevelTuning, LzssParams, MIN_LOOKAHEAD};
use crate::simd::match_length;
use lzfpga_deflate::fixed::{MAX_MATCH, MIN_MATCH};
use lzfpga_deflate::sink::TokenSink;
use lzfpga_deflate::token::Token;
use lzfpga_faults::{Failpoints, InjectedFault};
use lzfpga_telemetry::{MatchProbe, NoProbe};

/// zlib's `TOO_FAR`: on the lazy path a minimum-length match reaching
/// further back than this is dropped.
const TOO_FAR: u32 = 4_096;

/// Per-run search geometry, hoisted out of the hot loop.
#[derive(Clone, Copy)]
struct Search {
    /// Largest emittable distance ([`LzssParams::max_distance`]).
    max_dist: u32,
    /// Stop searching once a match of this length is found.
    nice: u32,
}

/// zlib `INSERT_STRING`: file `pos` under `h`, return the old head.
///
/// `head` and `prev` must be exactly the live regions (`1 << hash_bits` and
/// `window_size` entries) so the mask-derived-from-length indexing below is
/// both correct and bounds-check free. Positions are `u32` — half the table
/// footprint of `usize` entries, which matters because the
/// head table is hit at a random slot for every input position.
#[inline]
fn insert(head: &mut [u32], prev: &mut [u32], h: u32, pos: u32) -> u32 {
    let slot = h as usize & (head.len() - 1);
    let old = head[slot];
    prev[pos as usize & (prev.len() - 1)] = old;
    head[slot] = pos;
    old
}

/// Walk the chain from `cand` for the longest match against `data[pos..]`,
/// zlib's `longest_match`. `prev` is the live
/// `window_size`-entry ring (its length is the index mask + 1).
///
/// `#[inline(always)]`, like the kernel it calls: the chain walk makes
/// millions of probes, most of which resolve in a handful of bytes, so a
/// call boundary per probe would rival the cost of the compare itself.
#[inline(always)]
fn longest_match<const FULL: bool, P: MatchProbe>(
    data: &[u8],
    pos: usize,
    mut cand: u32,
    prev: &[u32],
    search: Search,
    mut chain_budget: u32,
    probe: &mut P,
) -> (u32, u32) {
    let Search { max_dist, nice } = search;
    let wmask = prev.len() - 1;
    // In the main span (`FULL`) at least `MIN_LOOKAHEAD` bytes lie ahead,
    // so the clamps below would return `MAX_MATCH` and `nice` unchanged.
    debug_assert!(!FULL || data.len() - pos >= MIN_LOOKAHEAD);
    let (limit, nice) = if FULL {
        (MAX_MATCH, nice)
    } else {
        let limit = MAX_MATCH.min((data.len() - pos) as u32);
        (limit, nice.min(limit))
    };
    let mut best_len = 0u32;
    let mut best_dist = 0u32;
    let mut steps = 0u32;
    // zlib's `scan_end` register: the byte a candidate must reproduce at
    // offset `best_len` to have any chance of beating the current best.
    let mut scan_end = data[pos];
    while chain_budget > 0 {
        if cand as usize >= pos {
            break;
        }
        let dist = (pos - cand as usize) as u32;
        if dist > max_dist {
            break;
        }
        steps += 1;
        probe.candidate(data, cand as usize, pos, limit);
        // Quick reject (zlib's probe): a candidate can only beat `best_len`
        // if it also matches at offset `best_len`, so one byte compare skips
        // most full kernel runs without changing which matches are found.
        // `best_len < limit` holds here — a best of `limit >= nice` would
        // have exited at its update below — so both probes are in bounds.
        if data[cand as usize + best_len as usize] == scan_end {
            // `cand < pos` (the break above) and `pos + limit <= data.len()`
            // (`limit`'s definition): the kernel's contract holds.
            let len = match_length(data, cand as usize, pos, limit);
            probe.kernel_run(len);
            if len > best_len {
                best_len = len;
                best_dist = dist;
                if len >= nice {
                    break;
                }
                scan_end = data[pos + len as usize];
            }
        }
        let nxt = prev[cand as usize & wmask];
        if nxt < cand {
            cand = nxt;
        } else {
            break;
        }
        chain_budget -= 1;
    }
    probe.chain_done(steps);
    (best_len, best_dist)
}

/// zlib's bulk `INSERT_STRING` run for the covered positions `from..to`
/// of a match: hashes are computed four lanes at a time ([`crate::hash::HashFn::hash4_at`])
/// so the serial hash→insert dependency of one position overlaps the next
/// three. Insert order and values are identical to the one-at-a-time loop,
/// which keeps the token stream identical. Positions with fewer than
/// `HASH_BYTES` bytes left are not filed, as in zlib.
///
/// `FULL` is the main span's promise that the run belongs to a match found
/// at `pos` with `MIN_LOOKAHEAD` bytes ahead. Every hash below reads at
/// most 3 bytes past `to`, and `to + 3 <= pos + MAX_MATCH + 3 < n`, so
/// both end-of-input guards are dropped.
#[inline]
#[allow(clippy::too_many_arguments)]
fn insert_run<const FULL: bool, P: MatchProbe>(
    data: &[u8],
    head: &mut [u32],
    prev: &mut [u32],
    hash: crate::hash::HashFn,
    from: usize,
    to: usize,
    n: usize,
    probe: &mut P,
) {
    let mut k = from;
    let mut filed = 0u32;
    // 4-wide while the group fits the run and `hash4_at`'s 7-byte window
    // fits the input (`k + 7 <= n` also guarantees every lane has its 3
    // hash bytes).
    while k + 4 <= to && (FULL || k + 7 <= n) {
        let hs = hash.hash4_at(data, k);
        for (j, hk) in hs.into_iter().enumerate() {
            insert(head, prev, hk, (k + j) as u32);
        }
        filed += 4;
        k += 4;
    }
    while k < to {
        if FULL || k + HASH_BYTES <= n {
            insert(head, prev, hash.hash_at(data, k), k as u32);
            filed += 1;
        }
        k += 1;
    }
    probe.inserted_n(filed);
}

/// A reusable LZSS compression engine: zlib's algorithm with persistent
/// head/next arenas and the wide match kernel.
///
/// Construction is cheap; tables are grown lazily to the largest geometry
/// seen and zero-filled (not reallocated) between inputs.
#[derive(Debug, Default)]
pub struct TurboEngine {
    /// Head table arena; the live region is `1 << hash_bits` entries.
    head: Vec<u32>,
    /// Next (chained previous-position) arena; live region is `window_size`.
    prev: Vec<u32>,
}

impl TurboEngine {
    /// A fresh engine with empty arenas.
    pub fn new() -> Self {
        Self::default()
    }

    /// Zero the live table regions for `params`, growing the arenas if this
    /// geometry is larger than anything seen before.
    fn reset(&mut self, params: &LzssParams) {
        let head_len = 1usize << params.hash_bits;
        let prev_len = params.window_size as usize;
        if self.head.len() < head_len {
            self.head.resize(head_len, 0);
        }
        if self.prev.len() < prev_len {
            self.prev.resize(prev_len, 0);
        }
        self.head[..head_len].fill(0);
        self.prev[..prev_len].fill(0);
    }

    /// Compress `data`, streaming tokens into `sink`.
    pub fn compress_into<S: TokenSink>(&mut self, data: &[u8], params: &LzssParams, sink: &mut S) {
        self.compress_into_probed(data, params, sink, &mut NoProbe);
    }

    /// [`Self::compress_into`] with telemetry: dynamic match-loop events are
    /// reported to `probe` (e.g. [`lzfpga_telemetry::TurboCounters`]).
    /// The token stream is identical to the unprobed call — probes observe,
    /// never steer.
    pub fn compress_into_probed<S: TokenSink, P: MatchProbe>(
        &mut self,
        data: &[u8],
        params: &LzssParams,
        sink: &mut S,
        probe: &mut P,
    ) {
        params.validate();
        assert!(data.len() <= u32::MAX as usize, "turbo inputs are limited to 4 GiB - 1");
        self.reset(params);
        let tuning = params.effective_tuning();
        let search = Search { max_dist: params.max_distance(), nice: tuning.nice_length };
        let hash = params.hash_fn;
        let head = &mut self.head[..1usize << params.hash_bits];
        let prev = &mut self.prev[..params.window_size as usize];
        if tuning.lazy {
            run_lazy(data, head, prev, hash, search, tuning, sink, probe)
        } else {
            run_greedy(data, head, prev, hash, search, tuning, sink, probe)
        }
    }

    /// Convenience wrapper buffering the tokens.
    pub fn compress(&mut self, data: &[u8], params: &LzssParams) -> Vec<Token> {
        let mut out = Vec::new();
        self.compress_into(data, params, &mut out);
        out
    }

    /// [`Self::compress_into`] with failpoints active: site
    /// `turbo.compress.enter` fires before any token is emitted, site
    /// `turbo.compress.exit` after the full stream was produced. On an
    /// injected error the sink may hold a partial (enter) or complete
    /// (exit) token stream — callers discard it. Panic-action failpoints
    /// unwind from here, exercising the caller's isolation; the engine
    /// itself stays reusable because every compress call re-zeroes its
    /// arenas.
    pub fn compress_into_faulty<S: TokenSink, F: Failpoints>(
        &mut self,
        data: &[u8],
        params: &LzssParams,
        sink: &mut S,
        faults: &F,
    ) -> Result<(), InjectedFault> {
        if faults.check("turbo.compress.enter") {
            return Err(InjectedFault { site: "turbo.compress.enter" });
        }
        self.compress_into(data, params, sink);
        if faults.check("turbo.compress.exit") {
            return Err(InjectedFault { site: "turbo.compress.exit" });
        }
        Ok(())
    }
}

/// Where a greedy span stops and the next resumes: the next position to
/// code and the literal and insert counts not yet flushed to the probe.
#[derive(Clone, Copy)]
struct GreedyCursor {
    pos: usize,
    lits: u32,
    inserts: u32,
}

/// zlib's `deflate_fast` as two spans of one loop. The main span covers
/// every position with at least `MIN_LOOKAHEAD` bytes ahead — the software
/// form of the hardware's *WaitData* guarantee — and runs without the
/// end-of-input clamps and guards; the tail span codes the last
/// `MIN_LOOKAHEAD - 1` positions (fewer on short inputs) with them. A match found in the main
/// span may end inside the tail: the tail resumes where it stopped.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn run_greedy<S: TokenSink, P: MatchProbe>(
    data: &[u8],
    head: &mut [u32],
    prev: &mut [u32],
    hash: crate::hash::HashFn,
    search: Search,
    tuning: LevelTuning,
    sink: &mut S,
    probe: &mut P,
) {
    let n = data.len();
    // Literal and head-insert counts accumulate in registers and flush to
    // the probe at match boundaries: the counts are exactly the per-event
    // ones, but the callback rate drops from per-byte to per-match.
    let cur = GreedyCursor { pos: 0, lits: 0, inserts: 0 };
    let main_end = n.saturating_sub(MIN_LOOKAHEAD - 1);
    let cur = greedy_span::<true, _, _>(
        data, main_end, cur, head, prev, hash, search, tuning, sink, probe,
    );
    let cur =
        greedy_span::<false, _, _>(data, n, cur, head, prev, hash, search, tuning, sink, probe);
    probe.literals_n(cur.lits);
    probe.inserted_n(cur.inserts);
}

/// Code positions from `cur.pos` while they are below `end`. `FULL` spans
/// end at or before `data.len() - (MIN_LOOKAHEAD - 1)`: every position in
/// them has a full hash word ahead, matches up to `MAX_MATCH` and a bulk
/// insert run that stays inside the input.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn greedy_span<const FULL: bool, S: TokenSink, P: MatchProbe>(
    data: &[u8],
    end: usize,
    cur: GreedyCursor,
    head: &mut [u32],
    prev: &mut [u32],
    hash: crate::hash::HashFn,
    search: Search,
    tuning: LevelTuning,
    sink: &mut S,
    probe: &mut P,
) -> GreedyCursor {
    let n = data.len();
    let GreedyCursor { mut pos, lits: mut pend_lits, inserts: mut pend_inserts } = cur;
    while pos < end {
        if !FULL && n - pos < HASH_BYTES {
            sink.literal(data[pos]);
            pend_lits += 1;
            pos += 1;
            continue;
        }
        let h = if FULL { hash.hash_word_at(data, pos) } else { hash.hash_at(data, pos) };
        let cand = insert(head, prev, h, pos as u32);
        pend_inserts += 1;

        let (best_len, best_dist) =
            longest_match::<FULL, P>(data, pos, cand, prev, search, tuning.max_chain, probe);

        if best_len >= MIN_MATCH {
            sink.matched(best_dist, best_len);
            probe.literals_n(pend_lits);
            probe.inserted_n(pend_inserts);
            pend_lits = 0;
            pend_inserts = 0;
            probe.matched(best_len);
            if best_len <= tuning.max_lazy {
                let to = pos + best_len as usize;
                insert_run::<FULL, P>(data, head, prev, hash, pos + 1, to, n, probe);
            }
            pos += best_len as usize;
        } else {
            sink.literal(data[pos]);
            pend_lits += 1;
            pos += 1;
        }
    }
    GreedyCursor { pos, lits: pend_lits, inserts: pend_inserts }
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn run_lazy<S: TokenSink, P: MatchProbe>(
    data: &[u8],
    head: &mut [u32],
    prev: &mut [u32],
    hash: crate::hash::HashFn,
    search: Search,
    tuning: LevelTuning,
    sink: &mut S,
    probe: &mut P,
) {
    let n = data.len();
    let mut pos = 0usize;

    let mut prev_len = 0u32;
    let mut prev_dist = 0u32;
    let mut have_prev_literal = false;
    // Register-accumulated event counts, flushed at match boundaries (see
    // `run_greedy`).
    let mut pend_lits = 0u32;
    let mut pend_inserts = 0u32;

    while pos < n {
        if n - pos < HASH_BYTES {
            if prev_len >= MIN_MATCH {
                sink.matched(prev_dist, prev_len);
                probe.literals_n(pend_lits);
                probe.inserted_n(pend_inserts);
                pend_lits = 0;
                pend_inserts = 0;
                probe.matched(prev_len);
                let skip = prev_len as usize - 1;
                prev_len = 0;
                have_prev_literal = false;
                pos += skip;
                continue;
            }
            if have_prev_literal {
                sink.literal(data[pos - 1]);
                pend_lits += 1;
                have_prev_literal = false;
            }
            sink.literal(data[pos]);
            pend_lits += 1;
            pos += 1;
            continue;
        }

        let h = hash.hash_at(data, pos);
        let cand = insert(head, prev, h, pos as u32);
        pend_inserts += 1;

        let budget =
            if prev_len >= tuning.good_length { tuning.max_chain >> 2 } else { tuning.max_chain };
        let (mut cur_len, cur_dist) = if prev_len < tuning.max_lazy {
            longest_match::<false, P>(data, pos, cand, prev, search, budget.max(1), probe)
        } else {
            (0, 0)
        };
        if cur_len == MIN_MATCH && cur_dist > TOO_FAR {
            cur_len = 0;
        }

        if prev_len >= MIN_MATCH && cur_len <= prev_len {
            sink.matched(prev_dist, prev_len);
            probe.literals_n(pend_lits);
            probe.inserted_n(pend_inserts);
            pend_lits = 0;
            pend_inserts = 0;
            probe.matched(prev_len);
            let to = pos - 1 + prev_len as usize;
            insert_run::<false, P>(data, head, prev, hash, pos + 1, to, n, probe);
            pos += prev_len as usize - 1;
            prev_len = 0;
            have_prev_literal = false;
        } else {
            if have_prev_literal {
                sink.literal(data[pos - 1]);
                pend_lits += 1;
            }
            prev_len = cur_len;
            prev_dist = cur_dist;
            have_prev_literal = true;
            pos += 1;
        }
    }
    if have_prev_literal {
        sink.literal(data[n - 1]);
        pend_lits += 1;
    }
    probe.literals_n(pend_lits);
    probe.inserted_n(pend_inserts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CompressionLevel;
    use crate::reference::compress as reference_compress;
    use lzfpga_sim::rng::XorShift64;

    #[test]
    fn snowy_snow_finds_the_papers_match() {
        let tokens = TurboEngine::new().compress(b"snowy snow", &LzssParams::paper_fast());
        assert_eq!(tokens.len(), 7, "{tokens:?}");
        assert_eq!(tokens[6], Token::Match { dist: 6, len: 4 });
    }

    fn sample_corpora() -> Vec<Vec<u8>> {
        let mut rng = XorShift64::new(7);
        let mut random = vec![0u8; 20_000];
        rng.fill_bytes(&mut random);
        let mut lowent: Vec<u8> = (0..40_000).map(|_| b'a' + rng.next_u8() % 4).collect();
        lowent.extend_from_slice(&lowent.clone());
        vec![
            Vec::new(),
            b"a".to_vec(),
            b"snowy snow".to_vec(),
            vec![b'z'; 10_000],
            random,
            lowent,
            b"abcabcabcabc xyz abcabc xyz ".repeat(200),
        ]
    }

    #[test]
    fn token_identical_to_reference_all_levels() {
        let mut engine = TurboEngine::new();
        for data in sample_corpora() {
            for level in [CompressionLevel::Min, CompressionLevel::Medium, CompressionLevel::Max] {
                for (w, h) in [(1_024u32, 12u32), (4_096, 15), (32_768, 15)] {
                    let params = LzssParams::new(w, h, level);
                    let expect = reference_compress(&data, &params);
                    let got = engine.compress(&data, &params);
                    assert_eq!(got, expect, "len={} {params:?}", data.len());
                }
            }
        }
    }

    /// The input families of the span-boundary tests: runs of random bytes
    /// and lengths, period-1..17 patterns and a 3-letter random text. An
    /// input longer than `TAIL` is random bytes with the family in its last
    /// `TAIL` bytes, where the main span hands over to the tail.
    fn boundary_family(family: usize, n: usize, seed: u64) -> Vec<u8> {
        const TAIL: usize = 1_024;
        let mut rng = XorShift64::new(seed);
        let mut data = vec![0u8; n - n.min(TAIL)];
        rng.fill_bytes(&mut data);
        let tail = n - data.len();
        match family {
            0 => {
                while data.len() < n {
                    let (byte, len) = (rng.next_u8() % 8, 1 + rng.below_usize(40));
                    data.resize(n.min(data.len() + len), byte);
                }
            }
            1..=17 => {
                let period: Vec<u8> = (0..family).map(|_| rng.next_u8()).collect();
                data.extend(period.iter().cycle().take(tail));
            }
            _ => data.extend((0..tail).map(|_| b'a' + rng.next_u8() % 3)),
        }
        data
    }

    const BOUNDARY_FAMILIES: usize = 19;
    const LEVELS: [CompressionLevel; 3] =
        [CompressionLevel::Min, CompressionLevel::Medium, CompressionLevel::Max];

    /// Plain and probed turbo runs both equal the oracle, and the probe
    /// accounts for every input byte.
    fn assert_matches_oracle(
        engine: &mut TurboEngine,
        data: &[u8],
        params: &LzssParams,
        what: &str,
    ) {
        let n = data.len();
        let expect = reference_compress(data, params);
        assert_eq!(engine.compress(data, params), expect, "{what} n={n} {params:?}");
        let mut probed = Vec::new();
        let mut counters = lzfpga_telemetry::TurboCounters::default();
        engine.compress_into_probed(data, params, &mut probed, &mut counters);
        assert_eq!(probed, expect, "{what} n={n} {params:?} (probed)");
        assert_eq!(counters.covered_bytes(), n as u64, "{what} n={n} {params:?}");
    }

    #[test]
    fn span_boundary_every_short_length() {
        // Every length up to 600 puts the main span's end (n - 261) at
        // every offset of these inputs, and inputs under 262 bytes are all
        // tail.
        let mut engine = TurboEngine::new();
        for n in 0..=600 {
            for family in 0..BOUNDARY_FAMILIES {
                let data = boundary_family(family, n, n as u64 * 31 + family as u64);
                for level in LEVELS {
                    let params = LzssParams::new(4_096, 15, level);
                    assert_matches_oracle(&mut engine, &data, &params, &format!("family {family}"));
                }
            }
        }
    }

    #[test]
    fn span_boundary_at_multiples_of_the_lookahead() {
        // n = 262k - 4 ..= 262k + 4 up to 64 KiB; family, level and hash
        // family rotate with the length so every combination recurs.
        let mut engine = TurboEngine::new();
        let mut i = 0usize;
        for k in 1..=65_536 / MIN_LOOKAHEAD {
            for n in k * MIN_LOOKAHEAD - 4..=k * MIN_LOOKAHEAD + 4 {
                let family = i % BOUNDARY_FAMILIES;
                let mut params = LzssParams::new(4_096, 15, LEVELS[i % 3]);
                if i % 2 == 1 {
                    params.hash_fn = crate::hash::HashFn::multiplicative(15);
                }
                let data = boundary_family(family, n, i as u64);
                assert_matches_oracle(&mut engine, &data, &params, &format!("family {family}"));
                i += 1;
            }
        }
    }

    /// Random inputs of each length in `lengths` with a 258-byte repeat
    /// planted at every start n-270..=n-250, 3, 300 or 3000 bytes back: it
    /// fits before the end, ends exactly at it, or is cut short by it, and
    /// its search starts on either side of the main span's end.
    fn planted_max_matches(lengths: &[usize]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for &n in lengths {
            let mut base = vec![0u8; n];
            XorShift64::new(n as u64).fill_bytes(&mut base);
            for start in n - 270..=n - 250 {
                for dist in [3, 300, 3_000].into_iter().filter(|&d| d <= start) {
                    let mut data = base.clone();
                    for k in start..n.min(start + MAX_MATCH as usize) {
                        data[k] = data[k - dist];
                    }
                    out.push(data);
                }
            }
        }
        out
    }

    #[test]
    fn span_boundary_planted_max_match() {
        let mut engine = TurboEngine::new();
        for data in planted_max_matches(&[530, 600, 1_000, 4_000, 262 * 50 + 1, 65_536]) {
            for level in LEVELS {
                let params = LzssParams::new(4_096, 15, level);
                assert_matches_oracle(&mut engine, &data, &params, "planted repeat");
            }
        }
    }

    /// Every [`MatchProbe`] callback in order, with its arguments.
    #[derive(Debug, Default, PartialEq)]
    struct CallLog(Vec<(&'static str, usize, usize, u32)>);

    impl MatchProbe for CallLog {
        fn inserted(&mut self) {
            self.0.push(("inserted", 0, 0, 1));
        }
        fn inserted_n(&mut self, n: u32) {
            self.0.push(("inserted", 0, 0, n));
        }
        fn kernel_run(&mut self, len: u32) {
            self.0.push(("kernel_run", 0, 0, len));
        }
        fn candidate(&mut self, _: &[u8], cand: usize, pos: usize, limit: u32) {
            self.0.push(("candidate", cand, pos, limit));
        }
        fn chain_done(&mut self, steps: u32) {
            self.0.push(("chain_done", 0, 0, steps));
        }
        fn literal(&mut self) {
            self.0.push(("literals", 0, 0, 1));
        }
        fn literals_n(&mut self, n: u32) {
            self.0.push(("literals", 0, 0, n));
        }
        fn matched(&mut self, len: u32) {
            self.0.push(("matched", 0, 0, len));
        }
    }

    /// The greedy loop at any tuning, either split into its two spans (as
    /// every compress runs it) or as one checked tail span over the whole
    /// input: the loop as it was before the split.
    fn greedy_log(
        engine: &mut TurboEngine,
        data: &[u8],
        params: &LzssParams,
        tuning: LevelTuning,
        split: bool,
    ) -> (Vec<Token>, CallLog) {
        engine.reset(params);
        let search = Search { max_dist: params.max_distance(), nice: tuning.nice_length };
        let head = &mut engine.head[..1usize << params.hash_bits];
        let prev = &mut engine.prev[..params.window_size as usize];
        let (mut tokens, mut log) = (Vec::new(), CallLog::default());
        let hash = params.hash_fn;
        if split {
            run_greedy(data, head, prev, hash, search, tuning, &mut tokens, &mut log);
        } else {
            let start = GreedyCursor { pos: 0, lits: 0, inserts: 0 };
            let cur = greedy_span::<false, _, _>(
                data,
                data.len(),
                start,
                head,
                prev,
                hash,
                search,
                tuning,
                &mut tokens,
                &mut log,
            );
            log.literals_n(cur.lits);
            log.inserted_n(cur.inserts);
        }
        (tokens, log)
    }

    #[test]
    fn span_split_equals_the_checked_loop_at_any_greedy_tuning() {
        // The presets run greedy only at Min, whose bulk inserts cover at
        // most 4 bytes; long insert runs (`max_lazy` up to 258) reach the
        // last byte the main span's lookahead guarantees.
        let tunings = [(4, 4, 8), (1, 258, 258), (8, 32, 16), (64, 258, 258), (4_096, 258, 130)]
            .map(|(max_chain, max_lazy, nice_length)| LevelTuning {
                max_chain,
                lazy: false,
                max_lazy,
                nice_length,
                good_length: 4,
            });
        let mut inputs: Vec<Vec<u8>> = (0..=700)
            .chain([1_000, 4_000, 262 * 30 + 3])
            .map(|n| boundary_family(n % BOUNDARY_FAMILIES, n, n as u64))
            .collect();
        inputs.extend(planted_max_matches(&[530, 700]));
        let mut engine = TurboEngine::new();
        for data in &inputs {
            let n = data.len();
            for (i, tuning) in tunings.into_iter().enumerate() {
                let mut params = LzssParams::new(1_024, 12, CompressionLevel::Min);
                if (n + i) % 2 == 1 {
                    params.hash_fn = crate::hash::HashFn::multiplicative(12);
                }
                let split = greedy_log(&mut engine, data, &params, tuning, true);
                let checked = greedy_log(&mut engine, data, &params, tuning, false);
                assert!(split == checked, "n={n} {tuning:?} {params:?}");
            }
        }
    }

    #[test]
    fn arena_reuse_does_not_leak_state_between_inputs() {
        let mut engine = TurboEngine::new();
        let params = LzssParams::paper_fast();
        let a = engine.compress(b"snowy snow", &params);
        // Compress something else (different geometry too), then repeat.
        let _ = engine
            .compress(&vec![7u8; 50_000], &LzssParams::new(32_768, 15, CompressionLevel::Max));
        let b = engine.compress(b"snowy snow", &params);
        assert_eq!(a, b);
        assert_eq!(a, TurboEngine::new().compress(b"snowy snow", &params));
    }

    #[test]
    fn probed_run_is_token_identical_and_counts_consistently() {
        let mut engine = TurboEngine::new();
        for data in sample_corpora() {
            for level in [CompressionLevel::Min, CompressionLevel::Medium, CompressionLevel::Max] {
                let params = LzssParams::new(4_096, 15, level);
                let plain = engine.compress(&data, &params);
                let mut probed = Vec::new();
                let mut counters = lzfpga_telemetry::TurboCounters::default();
                engine.compress_into_probed(&data, &params, &mut probed, &mut counters);
                assert_eq!(probed, plain, "len={} {level:?}", data.len());
                // Every input byte is covered by exactly one token.
                assert_eq!(counters.covered_bytes(), data.len() as u64, "{level:?}");
                assert_eq!(counters.literals + counters.matches, plain.len() as u64);
                assert_eq!(counters.match_len_hist.count(), counters.matches);
                assert_eq!(counters.match_len_hist.sum, counters.match_bytes);
                // A kernel run needs a probe first; a probe needs a search.
                assert!(counters.probes >= counters.kernel_runs);
                assert!(counters.probes >= counters.chain_hist.sum);
                assert_eq!(counters.chain_hist.sum, counters.probes);
            }
        }
    }

    #[test]
    fn counting_sink_sees_full_coverage() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(100);
        let mut engine = TurboEngine::new();
        let mut counts = lzfpga_deflate::sink::CountingSink::default();
        engine.compress_into(&data, &LzssParams::paper_fast(), &mut counts);
        assert_eq!(counts.expanded_bytes, data.len() as u64);
        assert!(counts.matches > 0);
    }

    #[test]
    fn faulty_path_injects_and_then_recovers() {
        use lzfpga_faults::{FailPlan, FailRule, NoFaults};
        let data = b"inject into the turbo engine ".repeat(50);
        let params = LzssParams::paper_fast();
        let mut engine = TurboEngine::new();

        let plan = FailPlan::new(1).rule(FailRule::new("turbo.compress.enter"));
        let mut sink: Vec<Token> = Vec::new();
        let err = engine.compress_into_faulty(&data, &params, &mut sink, &plan).unwrap_err();
        assert_eq!(err.site, "turbo.compress.enter");
        assert!(sink.is_empty(), "enter fault fires before any token");

        // Same engine, exhausted plan: output matches the plain path.
        let mut faulty: Vec<Token> = Vec::new();
        engine.compress_into_faulty(&data, &params, &mut faulty, &plan).unwrap();
        let mut plain: Vec<Token> = Vec::new();
        engine.compress_into(&data, &params, &mut plain);
        assert_eq!(faulty, plain);

        // Exit faults leave a complete stream behind (which callers drop).
        let plan = FailPlan::new(1).rule(FailRule::new("turbo.compress.exit"));
        let mut sink: Vec<Token> = Vec::new();
        let err = engine.compress_into_faulty(&data, &params, &mut sink, &plan).unwrap_err();
        assert_eq!(err.site, "turbo.compress.exit");
        assert_eq!(sink, plain);

        // Panic-action plans unwind; the engine stays usable afterwards.
        let plan = FailPlan::new(1).rule(FailRule::new("turbo.compress.enter").panics());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sink: Vec<Token> = Vec::new();
            let _ = engine.compress_into_faulty(&data, &params, &mut sink, &plan);
        }));
        assert!(caught.is_err());
        let mut after: Vec<Token> = Vec::new();
        engine.compress_into_faulty(&data, &params, &mut after, &NoFaults).unwrap();
        assert_eq!(after, plain);
    }
}
