//! # lzfpga — a software reproduction of the IPDPS'12 FPGA LZSS compressor
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`sim`] | `lzfpga-sim` | Dual-port BRAM model, clocking, handshake streams, Virtex-5 resources |
//! | [`deflate`] | `lzfpga-deflate` | Deflate fixed/dynamic encoding, full inflate, zlib/gzip containers |
//! | [`lzss`] | `lzfpga-lzss` | Token model, turbo matcher, test-oracle compressor, decoder, CPU cost model |
//! | [`hw`] | `lzfpga-core` | The cycle-accurate hardware compressor model (the paper's contribution) |
//! | [`workloads`] | `lzfpga-workloads` | Wiki/X2E/synthetic data generators |
//! | [`estimator`] | `lzfpga-estimator` | Design-space exploration sweeps, Pareto/budget selection, interactive shell |
//! | [`cam`] | `lzfpga-cam` | Related-work CAM and systolic matcher models |
//! | [`parallel`] | `lzfpga-parallel` | Chunk-parallel multi-engine compression |
//! | [`telemetry`] | `lzfpga-telemetry` | Counters, span timing and span trees, JSONL sink, chrome://tracing export, metrics registry, Prometheus exporter, stats aggregation |
//! | [`faults`] | `lzfpga-faults` | Failpoints, failure reports, deterministic stream mutation |
//! | [`container`] | `lzfpga-container` | LZFC crash-safe framed container: salvage decode, checkpointed streaming |
//! | [`server`] | `lzfpga-server` | Fault-contained LZS1 compression daemon: admission, quotas, backpressure, drain |
//!
//! ## Quickstart
//!
//! ```
//! use lzfpga::hw::{compress_to_zlib, HwConfig};
//!
//! let data = lzfpga::workloads::wiki::generate(1, 64 * 1024);
//! let report = compress_to_zlib(&data, &HwConfig::paper_fast());
//! assert_eq!(lzfpga::deflate::zlib_decompress(&report.compressed).unwrap(), data);
//! println!("{:.1} MB/s at 100 MHz, ratio {:.2}", report.mb_per_s(), report.ratio());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Cycle-level FPGA simulation substrate.
pub use lzfpga_sim as sim;

/// Deflate / zlib / gzip format layer.
pub use lzfpga_deflate as deflate;

/// LZSS algorithm layer and software baseline.
pub use lzfpga_lzss as lzss;

/// The cycle-accurate hardware compressor model.
pub use lzfpga_core as hw;

/// Deterministic workload generators.
pub use lzfpga_workloads as workloads;

/// Design-space exploration tooling.
pub use lzfpga_estimator as estimator;

/// The CAM-based alternative matcher (related work \[7\]) for comparison.
pub use lzfpga_cam as cam;

/// Chunk-parallel multi-engine compression (pigz-style scale-out).
pub use lzfpga_parallel as parallel;

/// VHDL-93 generation from a hardware configuration (the THDL++ flow role).
pub use lzfpga_rtlgen as rtlgen;

/// Observability: counters, spans, JSONL sink, metrics registry, exporters.
pub use lzfpga_telemetry as telemetry;

/// Fault injection: failpoints, failure reports, stream mutation.
pub use lzfpga_faults as faults;

/// LZFC framed container: crash-safe streaming, resync/salvage, resume.
pub use lzfpga_container as container;

/// Fault-contained multi-stream compression daemon and its LZS1 client.
pub use lzfpga_server as server;
