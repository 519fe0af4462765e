//! Unified telemetry layer for every execution path in the workspace.
//!
//! The paper instruments its FSM down to the cycle (Figure 5); this crate
//! gives the software paths the same lens, and funnels the hardware model's
//! existing cycle taxonomy through the same sink so one report can compare
//! all three:
//!
//! * **[`probe`]** — the zero-cost-when-disabled counter interface. Hot
//!   loops are generic over [`probe::MatchProbe`]; the default
//!   [`probe::NoProbe`] monomorphizes every callback to nothing, so the
//!   uninstrumented build is bit-for-bit the old fast path. The counting
//!   implementation, [`probe::TurboCounters`], records hash probes,
//!   chain-walk and match lengths, kernel runs, match/literal mix and
//!   bytes-per-probe.
//! * **[`histogram`]** — the one histogram value type, log-linear
//!   [`Histogram`], with its bucket math, merge/delta/quantile and JSON
//!   forms. `TurboCounters`, the obs registry's snapshots and
//!   `lzfpga stats` all record into it.
//! * **[`spans`]** — wall-clock span timing ([`spans::SpanTimer`]) that
//!   doubles as a chrome://tracing *trace event* recorder: open the emitted
//!   file in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev) to
//!   see workers, the stitcher and their stalls on a shared timeline, the
//!   software counterpart of the VCD waveform the hardware model exports.
//! * **[`json`]** — a dependency-free JSON value model with a renderer *and
//!   parser*, so reports can be round-tripped in tests without serde.
//! * **[`sink`]** — the structured JSONL event sink: one self-describing
//!   JSON object per line, append-friendly, greppable, machine-readable.
//! * **[`pipeline`]** — the parallel-pipeline report types (per-worker
//!   utilization, stitcher stalls, token-buffer freelist traffic).
//!
//! Everything here is plain `std`; the crate is a leaf every other crate
//! can depend on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frames;
pub mod histogram;
pub mod json;
pub mod pipeline;
pub mod probe;
pub mod range;
pub mod sink;
pub mod spans;

pub use frames::{FrameEvent, FrameOutcome};
pub use histogram::Histogram;
pub use json::JsonValue;
pub use pipeline::{PipelineTelemetry, StitcherStats, WorkerStats};
pub use probe::{MatchProbe, NoProbe, TurboCounters};
pub use range::RangeCounters;
pub use sink::{parse_jsonl, JsonlWriter};
pub use spans::{
    frame_span, span_args, stage_span, trace_events_json, SpanTimer, TraceEvent, ROOT_SPAN,
};
