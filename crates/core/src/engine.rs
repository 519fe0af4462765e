//! Resumable core of the compression FSM.
//!
//! [`HwEngine`] holds every piece of architectural state (the five
//! memories, the virtual-position slide bookkeeping, the prefetch flag, the
//! cycle counters) and advances **one matched position per
//! [`HwEngine::step`] call**. Two drivers sit on top:
//!
//! * [`crate::compressor::HwCompressor`] — the one-shot driver: feed the
//!   whole buffer with `eof = true` and loop until [`StepOutcome::Done`].
//! * [`crate::session::ZlibSession`] — the streaming driver: append chunks
//!   as they arrive and step with `eof = false`; the engine reports
//!   [`StepOutcome::NeedData`] whenever proceeding would require knowing
//!   bytes that have not arrived yet (matching reads up to `MIN_LOOKAHEAD`
//!   bytes ahead), which makes chunk boundaries *invisible* in the token
//!   stream: a session fed byte-by-byte emits exactly the one-shot tokens.
//!
//! The split mirrors the hardware: the FSM does not know or care whether
//! the DMA descriptor chain behind the filler is one buffer or many.

use crate::buffers::{compare_cycles, StreamBuffers};
use crate::compressor::HwCounters;
use crate::config::HwConfig;
use crate::head_table::HeadTable;
use crate::next_table::NextTable;
use crate::stats::{HwState, StateStats};
use lzfpga_deflate::fixed::{MAX_MATCH, MIN_MATCH};
use lzfpga_deflate::token::Token;
use lzfpga_lzss::hash::HASH_BYTES;
use lzfpga_lzss::params::{LevelTuning, MIN_LOOKAHEAD};
use lzfpga_sim::clock::Clocked;
use lzfpga_sim::stream::{BackPressure, HandshakeStream};

/// Safety margin before the virtual-position span at which a slide triggers.
///
/// The trigger is only checked once per step, so the position can overshoot
/// it by up to `MAX_MATCH - 1` bytes, and the hash-update state then inserts
/// virtual positions up to `MAX_MATCH - 1` past the *previous*
/// (pre-overshoot) position — in total at most `trigger + 256` is ever
/// written into a head entry. A margin of 260 keeps every write inside the
/// `log2(D)+G`-bit span while still leaving at least one full window of
/// headroom above `max_dist` at the trigger, which the slide-amount
/// computation needs to make progress at `G = 1`.
const SLIDE_MARGIN: u64 = 260;

/// One contiguous span of clock cycles spent in a single FSM state —
/// recorded when tracing is enabled, consumable as a VCD waveform via
/// [`crate::trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// First clock cycle of the span (absolute, DMA setup included).
    pub start: u64,
    /// The state occupying the span.
    pub state: HwState,
    /// Span length in cycles (>= 1).
    pub cycles: u64,
}

/// What one [`HwEngine::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// One position (or one tail literal) was processed; tokens may have
    /// been appended.
    Progressed,
    /// More input is required before the next decision can be made
    /// (streaming mode only — never returned when `eof` is true).
    NeedData,
    /// The whole input has been consumed.
    Done,
}

/// The resumable compression engine.
pub struct HwEngine {
    cfg: HwConfig,
    tuning: LevelTuning,
    head: HeadTable,
    next: NextTable,
    buffers: StreamBuffers,
    out_stream: HandshakeStream<(u16, u8)>,
    /// All tokens emitted so far (drivers slice it as they need).
    pub tokens: Vec<Token>,
    stats: StateStats,
    counters: HwCounters,
    clock: u64,
    pos: u64,
    slid: u64,
    next_wipe: u64,
    prefetch_valid: bool,
    max_dist: u64,
    slide_trigger: u64,
    wipe_period: u64,
    trace: Option<Vec<TraceSpan>>,
}

impl HwEngine {
    /// Power-up state for a configuration and output sink policy. The DMA
    /// setup charge is applied here, as in the paper's Table I methodology.
    pub fn new(cfg: HwConfig, sink: BackPressure) -> Self {
        cfg.validate();
        assert!(cfg.window_size >= 1_024, "hardware model requires a window of at least 1 KiB");
        let span = cfg.virtual_span();
        Self {
            cfg,
            tuning: cfg.as_lzss_params().effective_tuning(),
            head: HeadTable::new(&cfg),
            next: NextTable::new(&cfg),
            buffers: StreamBuffers::new(&cfg),
            out_stream: HandshakeStream::new(sink),
            tokens: Vec::new(),
            stats: StateStats::new(),
            counters: HwCounters::default(),
            clock: cfg.dma_setup_cycles,
            pos: 0,
            slid: 0,
            next_wipe: u64::from(cfg.window_size) / 2,
            prefetch_valid: false,
            max_dist: u64::from(cfg.as_lzss_params().max_distance()),
            slide_trigger: span - SLIDE_MARGIN,
            wipe_period: u64::from(cfg.window_size) / 2,
            trace: None,
        }
    }

    /// Start recording per-state cycle spans (costs memory proportional to
    /// the number of state transitions; off by default).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Take the recorded spans (empty if tracing was never enabled).
    pub fn take_trace(&mut self) -> Vec<TraceSpan> {
        self.trace.take().unwrap_or_default()
    }

    /// Charge `cycles` to `state`, advancing the clock and the optional
    /// trace in lock-step — the single bottleneck through which every
    /// simulated cycle passes.
    fn charge(&mut self, state: HwState, cycles: u64) {
        if cycles == 0 {
            return;
        }
        self.stats.charge(state, cycles);
        if let Some(t) = &mut self.trace {
            t.push(TraceSpan { start: self.clock, state, cycles });
        }
        self.clock += cycles;
    }

    /// The configuration in use.
    pub fn config(&self) -> &HwConfig {
        &self.cfg
    }

    /// Bytes processed so far.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Cycle statistics so far (excluding the DMA setup constant).
    pub fn stats(&self) -> &StateStats {
        &self.stats
    }

    /// Dynamic counters so far.
    pub fn counters(&self) -> HwCounters {
        self.counters
    }

    /// Total cycles so far including the DMA setup charge.
    pub fn cycles(&self) -> u64 {
        self.stats.total() + self.cfg.dma_setup_cycles
    }

    /// Complete the output handshake for one token, returning sink stalls.
    fn emit(&mut self, token: Token) -> u64 {
        self.out_stream.offer(token.to_dl_pair());
        let mut stalls = 0u64;
        while self.out_stream.take().is_none() {
            self.out_stream.tick();
            stalls += 1;
            assert!(stalls < 1_000_000, "sink permanently stalled");
        }
        self.out_stream.tick();
        self.tokens.push(token);
        stalls
    }

    /// Advance the FSM by one position.
    ///
    /// `data` is the input delivered so far (the driver may grow it between
    /// calls but must never mutate already-delivered bytes); `eof` declares
    /// that no further bytes will arrive after `data`.
    pub fn step(&mut self, data: &[u8], eof: bool) -> StepOutcome {
        let n = data.len() as u64;
        debug_assert!(self.pos <= n, "input shrank between steps");
        if self.pos >= n {
            return if eof { StepOutcome::Done } else { StepOutcome::NeedData };
        }
        // Streaming: every decision below reads at most MIN_LOOKAHEAD bytes
        // ahead of pos; without EOF we must wait for them.
        if !eof && n - self.pos < u64::from(MIN_LOOKAHEAD as u32) {
            return StepOutcome::NeedData;
        }

        // ---- Rotation due? ------------------------------------------------
        if self.cfg.gen_bits >= 1 {
            if self.pos - self.slid >= self.slide_trigger {
                // Largest multiple of D that leaves the post-slide position
                // strictly above max_dist, so stale entries clamped to 0 can
                // never pass the distance check. The multiple-of-D constraint
                // is load-bearing: next-table slots are indexed by
                // `virtual_position mod D`, so any other amount would shear
                // the chain links away from their owners.
                let d = u64::from(self.cfg.window_size);
                let slide_amount = (self.pos - self.slid - self.max_dist - 1) / d * d;
                debug_assert!(slide_amount >= d, "slide must make progress");
                let stall = self.head.slide(slide_amount);
                self.slid += slide_amount;
                self.charge(HwState::Rotate, stall);
                self.counters.rotations += 1;
                self.prefetch_valid = false;
            }
        } else if self.pos >= self.next_wipe {
            let stall = self.head.wipe();
            self.slid = self.pos; // virtual positions restart at zero
            self.next_wipe = self.pos + self.wipe_period;
            self.charge(HwState::Rotate, stall);
            self.counters.rotations += 1;
            self.prefetch_valid = false;
        }
        let virt = self.pos - self.slid;

        // ---- Wait for lookahead data --------------------------------------
        let need = u64::from(MIN_LOOKAHEAD as u32).min(n - self.pos);
        self.buffers.run_filler(data, self.clock);
        let starvation = self.buffers.cycles_until_available(need);
        if starvation > 0 {
            self.charge(HwState::Fetch, starvation);
            self.buffers.run_filler(data, self.clock);
        }

        // ---- Tail shorter than a hashable string: plain literals ----------
        if n - self.pos < HASH_BYTES as u64 {
            debug_assert!(eof, "tail path requires EOF");
            self.charge(HwState::Waiting, 1);
            let stall = self.emit(Token::Literal(data[self.pos as usize]));
            self.charge(HwState::Output, 1 + stall);
            self.counters.sink_stall_cycles += stall;
            self.counters.literals += 1;
            self.pos += 1;
            self.buffers.consume_to(data, self.pos);
            return StepOutcome::Progressed;
        }

        // ---- WaitData: route the hash unless prefetched --------------------
        if self.cfg.hash_prefetch && self.prefetch_valid {
            self.counters.prefetch_hits += 1;
        } else {
            self.charge(HwState::Waiting, 1);
        }
        self.prefetch_valid = false;

        // ---- MatchPrep: head read+update, next link (1 cycle) --------------
        let h = self.cfg.hash_fn.hash_at(data, self.pos as usize);
        let old_head = self.head.lookup_and_update(h, virt);
        self.next.link(virt, old_head);
        self.charge(HwState::Match, 1);

        // ---- Matching: walk the chain ---------------------------------------
        let limit = u64::from(MAX_MATCH).min(n - self.pos) as u32;
        let nice = self.tuning.nice_length.min(limit);
        let mut best_len = 0u32;
        let mut best_dist = 0u64;
        let mut budget = self.tuning.max_chain;
        let mut cand = old_head;
        let mut match_cycles = 0u64;
        while budget > 0 {
            if cand >= virt {
                break; // pseudo candidate at stream start (virt == 0)
            }
            let dist = virt - cand;
            if dist > self.max_dist {
                break;
            }
            self.counters.chain_steps += 1;
            let cand_abs = self.pos - dist;
            let mut len = 0u32;
            while len < limit
                && data[(cand_abs + u64::from(len)) as usize]
                    == data[(self.pos + u64::from(len)) as usize]
            {
                len += 1;
            }
            let examined = len + u32::from(len < limit);
            self.counters.compared_bytes += u64::from(examined);
            match_cycles += compare_cycles(self.cfg.bus_bytes, cand_abs, examined);
            if len > best_len {
                best_len = len;
                best_dist = dist;
                if len >= nice {
                    break;
                }
            }
            match self.next.step(cand) {
                Some(c) => cand = c,
                None => break,
            }
            budget -= 1;
        }
        self.charge(HwState::Match, match_cycles);

        // ---- Output + optional hash update ----------------------------------
        if best_len >= MIN_MATCH {
            let token = Token::new_match(best_dist as u32, best_len);
            let stall = self.emit(token);
            self.charge(HwState::Output, 1 + stall);
            self.counters.sink_stall_cycles += stall;
            self.counters.matches += 1;
            self.counters.match_bytes += u64::from(best_len);

            if best_len <= self.tuning.max_lazy {
                // Insert every byte of the short match (1 cycle each).
                for k in self.pos + 1..self.pos + u64::from(best_len) {
                    if k + HASH_BYTES as u64 <= n {
                        let hk = self.cfg.hash_fn.hash_at(data, k as usize);
                        let old = self.head.lookup_and_update(hk, k - self.slid);
                        self.next.link(k - self.slid, old);
                        self.charge(HwState::HashUpdate, 1);
                    }
                }
            }
            self.pos += u64::from(best_len);
            // The prefetched hash (for pos+1 of the *old* position) is
            // useless after a skip — the next step pays WaitData.
        } else {
            let stall = self.emit(Token::Literal(data[self.pos as usize]));
            self.charge(HwState::Output, 1 + stall);
            self.counters.sink_stall_cycles += stall;
            self.counters.literals += 1;
            self.pos += 1;
            // The prefetch FSM computed hash(pos+1) during prep/output.
            self.prefetch_valid = true;
        }
        self.buffers.consume_to(data, self.pos);
        StepOutcome::Progressed
    }

    /// Prime the window and hash chains with a preset dictionary: `full`
    /// must be `dictionary ++ payload` and `dict_len` the dictionary size.
    /// Every hashable dictionary position is inserted into head/next (one
    /// cycle each, charged as hash updates — the hardware streams the
    /// dictionary through the insert path), the dictionary bytes land in
    /// the window ring, and compression starts at `dict_len`. Matches may
    /// then reach into the dictionary, as with zlib's
    /// `deflateSetDictionary`.
    ///
    /// # Panics
    /// Panics if called after streaming started or the dictionary exceeds
    /// the window.
    pub fn preload_dictionary(&mut self, full: &[u8], dict_len: usize) {
        assert_eq!(self.pos, 0, "preload must precede compression");
        assert!(
            dict_len <= self.cfg.window_size as usize,
            "dictionary of {dict_len} bytes exceeds the window"
        );
        let insertable = dict_len.min(full.len().saturating_sub(HASH_BYTES - 1));
        for k in 0..insertable {
            let hk = self.cfg.hash_fn.hash_at(full, k);
            let old = self.head.lookup_and_update(hk, k as u64);
            self.next.link(k as u64, old);
            self.charge(HwState::HashUpdate, 1);
        }
        self.buffers.preload(full, dict_len as u64);
        self.pos = dict_len as u64;
    }

    /// Run to completion against `data` with `eof = true`.
    pub fn run_to_end(&mut self, data: &[u8]) {
        while self.step(data, true) != StepOutcome::Done {}
    }

    /// Head-table port collisions observed (must be zero — the design never
    /// schedules two same-cycle writes to one address).
    pub fn head_collisions(&self) -> u64 {
        self.head.collisions()
    }

    /// Head-table rotations performed.
    pub fn rotations(&self) -> u64 {
        self.head.rotations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lzfpga_lzss::decoder::decode_tokens;

    fn engine() -> HwEngine {
        HwEngine::new(HwConfig::paper_fast(), BackPressure::None)
    }

    #[test]
    fn empty_input_is_done_immediately() {
        let mut e = engine();
        assert_eq!(e.step(b"", true), StepOutcome::Done);
        assert!(e.tokens.is_empty());
    }

    #[test]
    fn streaming_withholds_until_lookahead_fills() {
        let mut e = engine();
        // 100 bytes < MIN_LOOKAHEAD: nothing can be decided without EOF.
        let data = vec![b'a'; 100];
        assert_eq!(e.step(&data, false), StepOutcome::NeedData);
        assert_eq!(e.position(), 0);
        // Grow past the lookahead: progress resumes.
        let data = vec![b'a'; 1_000];
        assert_eq!(e.step(&data, false), StepOutcome::Progressed);
        assert!(e.position() > 0);
    }

    #[test]
    fn eof_forces_the_tail_out() {
        let mut e = engine();
        let data = vec![b'z'; 150];
        assert_eq!(e.step(&data, false), StepOutcome::NeedData);
        while e.step(&data, true) != StepOutcome::Done {}
        assert_eq!(decode_tokens(&e.tokens, 4_096).unwrap(), data);
    }

    #[test]
    fn incremental_equals_oneshot_tokens() {
        let data = lzfpga_workloads::wiki::generate(4, 50_000);
        // One-shot.
        let mut a = engine();
        a.run_to_end(&data);
        // Byte-at-a-time growth.
        let mut b = engine();
        for end in 1..=data.len() {
            while b.step(&data[..end], false) == StepOutcome::Progressed {}
        }
        while b.step(&data, true) != StepOutcome::Done {}
        assert_eq!(a.tokens, b.tokens);
    }

    #[test]
    fn cycles_accessor_includes_dma_setup() {
        let mut e = engine();
        e.run_to_end(b"abcabcabc");
        assert_eq!(e.cycles(), e.stats().total() + HwConfig::paper_fast().dma_setup_cycles);
    }

    #[test]
    fn slow_fill_rate_starves_the_matcher() {
        let mut slow_cfg = HwConfig::paper_fast();
        slow_cfg.fill_bytes_per_cycle = 1;
        // Long matches consume ~3.8 bytes/cycle — far above the 1 B/cycle
        // delivery, so the matcher must repeatedly wait for data. (On text
        // at ~0.5 B/cycle consumption even a 1 B/cycle link keeps up.)
        let data = vec![b'x'; 200_000];
        let mut slow = HwEngine::new(slow_cfg, BackPressure::None);
        slow.run_to_end(&data);
        let mut fast = engine();
        fast.run_to_end(&data);
        assert_eq!(slow.tokens, fast.tokens, "fill rate is timing-only");
        assert!(slow.stats().get(HwState::Fetch) > 0, "1 B/cycle cannot keep up");
        assert!(slow.cycles() > fast.cycles());
        // At 1 byte/cycle delivery the engine can never beat 1 cycle/byte.
        assert!(slow.cycles() >= data.len() as u64);
    }

    #[test]
    fn trace_disabled_by_default_enabled_on_request() {
        let mut e = engine();
        e.run_to_end(b"trace me not");
        assert!(e.take_trace().is_empty());
        let mut e = engine();
        e.enable_trace();
        e.run_to_end(b"trace me so");
        assert!(!e.take_trace().is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "input shrank")]
    fn shrinking_input_is_a_driver_bug() {
        let mut e = engine();
        let data = vec![b'q'; 2_000];
        while e.step(&data, false) == StepOutcome::Progressed {}
        let _ = e.step(&data[..10], false);
    }
}
