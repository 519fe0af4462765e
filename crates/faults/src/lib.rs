//! Fault injection and hostile-input tooling for the whole workspace.
//!
//! The paper's hardware never wedges on bad input: the decompressor FSM
//! raises explicit error flags (window exceeded, bad symbol) and the DMA
//! engine can always be re-armed. This crate gives the software stack the
//! same discipline, plus the test harness to prove it:
//!
//! * **[`plan`]** — named **failpoints** threaded through the hot paths
//!   behind the same zero-cost-generic pattern as the telemetry probes:
//!   production code runs with [`NoFaults`] (every check monomorphizes to
//!   an inline `false`), tests hand in a [`FailPlan`] that injects typed
//!   errors, panics, delays or whole-process crashes at chosen sites and
//!   hit counts, optionally gated by a seeded PRNG.
//! * **[`registry`]** — the contractual list of crash sites the
//!   crash-durability drill may arm by name from outside the process;
//!   kept drift-free against DESIGN §14 by `tests/crash_sites.rs`.
//! * **[`report`]** — the per-job [`FailureReport`]: how many chunk
//!   attempts ran, what was retried, which chunks degraded to a fresh
//!   engine, which faults actually fired. Renders to JSON for
//!   the telemetry sink.
//! * **[`mutate`]** — a deterministic, structure-aware stream mutator
//!   (bit flips, truncations, slice duplication/deletion, length-field
//!   corruption) used by the `faultstorm` harness and the shared
//!   robustness suite to hammer every decode path with thousands of
//!   reproducible corrupted streams.
//!
//! Everything here is plain `std`; like `lzfpga-telemetry` this is a leaf
//! crate any other crate can depend on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mutate;
pub mod plan;
pub mod registry;
pub mod report;

pub use mutate::{FrameSite, Mutant, MutationKind, StreamMutator};
pub use plan::{
    FailPlan, FailRule, Failpoints, FaultAction, FaultEvent, InjectedFault, NoFaults,
    CRASH_HIT_ENV, CRASH_SITE_ENV,
};
pub use registry::{CrashSite, CRASH_SITES};
pub use report::FailureReport;
