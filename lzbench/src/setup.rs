//! The workloads: seeded inputs, the byte-exact oracle built from them,
//! and the operation stream each workload runs.

use std::io::Write;

use lzfpga_container::{FrameConfig, FrameWriter};
use lzfpga_core::HwConfig;
use lzfpga_lzss::LzssParams;
use lzfpga_workloads::{generate, Corpus};

/// Bytes served by one range read.
pub const READ_BYTES: u64 = 4096;

/// The benchmark's workloads. Their names are part of its interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `lzfpga frame`: streaming `FrameWriter` over whole files.
    Frame,
    /// `lzfpga frame --parallel`: `compress_frames_parallel`, 2 workers.
    FramePar,
    /// `lzfpga unframe`: strict decode of whole archives.
    Unframe,
    /// `lzfpga cat --range`: one-shot 4 KiB reads of a large archive.
    Range,
    /// In-memory server, mixed compress/decompress/range traffic.
    Serve,
    /// The same traffic against a server journaling to a state dir.
    ServeDurable,
}

/// Every workload, in run order.
pub const WORKLOADS: [Workload; 6] = [
    Workload::Frame,
    Workload::FramePar,
    Workload::Unframe,
    Workload::Range,
    Workload::Serve,
    Workload::ServeDurable,
];

impl Workload {
    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Frame => "frame",
            Workload::FramePar => "frame-par",
            Workload::Unframe => "unframe",
            Workload::Range => "range",
            Workload::Serve => "serve",
            Workload::ServeDurable => "serve-durable",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs through the server.
    pub fn served(self) -> bool {
        matches!(self, Workload::Serve | Workload::ServeDurable)
    }
}

/// The engine settings every path uses: the CLI's and the server's
/// default, `HwConfig::paper_fast`.
pub fn hw() -> HwConfig {
    HwConfig::paper_fast()
}

/// [`hw`] as matcher parameters.
pub fn params() -> LzssParams {
    hw().as_lzss_params()
}

/// Everything a workload reads, plus the oracle: `archives[i]` is the
/// `FrameWriter` stream of `files[i]` at `frame_bytes`.
pub struct Inputs {
    /// Uncompressed inputs.
    pub files: Vec<Vec<u8>>,
    /// Their LZFC streams, built once by the reference writer.
    pub archives: Vec<Vec<u8>>,
    /// Frame size of every archive.
    pub frame_bytes: usize,
}

impl Inputs {
    /// Generate the workload's inputs from `seed` and build the oracle.
    /// `smoke` shrinks every input to about 1 MiB in total.
    pub fn build(workload: Workload, seed: u64, smoke: bool) -> Inputs {
        let (corpus, count, len, frame_bytes) = match workload {
            Workload::Frame | Workload::FramePar | Workload::Unframe if smoke => {
                (Corpus::Mixed, 4, 256 << 10, 256 << 10)
            }
            Workload::Frame | Workload::FramePar | Workload::Unframe => {
                (Corpus::Mixed, 8, 2 << 20, 256 << 10)
            }
            Workload::Range if smoke => (Corpus::Wiki, 1, 1 << 20, 256 << 10),
            Workload::Range => (Corpus::Wiki, 1, 16 << 20, 256 << 10),
            Workload::Serve | Workload::ServeDurable if smoke => {
                (Corpus::Mixed, 16, 64 << 10, 64 << 10)
            }
            Workload::Serve | Workload::ServeDurable => (Corpus::Mixed, 64, 64 << 10, 64 << 10),
        };
        // Each file generated on its own, so set-up never holds a corpus
        // and its copy at once: the peak RSS stays the inputs plus oracle.
        let mut files: Vec<Vec<u8>> = (0..count as u64)
            .map(|i| generate(corpus, seed.wrapping_mul(0x1_0000).wrapping_add(i), len))
            .collect();
        if workload.served() {
            // The range target: a 256 KiB stream whose 4 KiB slices the
            // range requests ask for.
            files.push(generate(Corpus::Mixed, seed ^ 0x5EED, 256 << 10));
        }
        let archives = files.iter().map(|f| frame(f, frame_bytes)).collect();
        Inputs { files, archives, frame_bytes }
    }

    /// Input bytes over LZFC bytes across every file.
    pub fn ratio(&self) -> f64 {
        let input: usize = self.files.iter().map(Vec::len).sum();
        let output: usize = self.archives.iter().map(Vec::len).sum();
        input as f64 / output as f64
    }

    /// The frame configuration the oracle was written with.
    pub fn frame_config(&self) -> FrameConfig {
        FrameConfig { frame_bytes: self.frame_bytes, ..FrameConfig::default() }
    }
}

/// Stream `data` through `FrameWriter` into memory in the 8 KiB writes
/// `std::io::copy` makes when `lzfpga frame` reads a file. The output
/// buffer is sized up front for the worst case (every frame stored raw):
/// the CLI writes to a file and copies nothing when its output grows.
pub fn frame(data: &[u8], frame_bytes: usize) -> Vec<u8> {
    let cfg = FrameConfig { frame_bytes, ..FrameConfig::default() };
    let frames = data.len() / frame_bytes + 1;
    let out = Vec::with_capacity(data.len() + frames * 64 + 256);
    let mut w = FrameWriter::new(out, cfg, params()).expect("valid frame config");
    for piece in data.chunks(8 << 10) {
        w.write_all(piece).expect("writing to memory cannot fail");
    }
    w.finish().expect("writing to memory cannot fail").0
}

/// One operation against the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Compress `files[i]` into an LZFC stream.
    Compress(usize),
    /// Decompress `archives[i]`.
    Decompress(usize),
    /// Read `start..end` of `files[file]` out of `archives[file]`.
    Range {
        /// Which file's archive.
        file: usize,
        /// First byte.
        start: u64,
        /// One past the last byte.
        end: u64,
    },
}

impl Op {
    /// The bytes a correct run of the operation returns.
    pub fn expected(self, inputs: &Inputs) -> &[u8] {
        match self {
            Op::Compress(i) => &inputs.archives[i],
            Op::Decompress(i) => &inputs.files[i],
            Op::Range { file, start, end } => &inputs.files[file][start as usize..end as usize],
        }
    }

    /// Uncompressed bytes the operation moves (its throughput share).
    pub fn bytes(self, inputs: &Inputs) -> u64 {
        match self {
            Op::Compress(i) | Op::Decompress(i) => inputs.files[i].len() as u64,
            Op::Range { start, end, .. } => end - start,
        }
    }
}

/// splitmix64: a tiny seeded generator for op choices and arrivals.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and `stream` (distinct streams never overlap
    /// in practice).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// The seeded operation stream of one workload.
pub struct OpGen {
    workload: Workload,
    rng: Rng,
    sizes: Vec<u64>,
    turn: usize,
}

impl OpGen {
    /// Stream `stream` of `workload`'s operations over `inputs`.
    pub fn new(workload: Workload, inputs: &Inputs, seed: u64, stream: u64) -> OpGen {
        let sizes = inputs.files.iter().map(|f| f.len() as u64).collect();
        OpGen { workload, rng: Rng::new(seed, stream), sizes, turn: 0 }
    }

    /// The next operation the workload runs.
    pub fn next_op(&mut self) -> Op {
        let files = self.sizes.len();
        self.turn += 1;
        match self.workload {
            Workload::Frame | Workload::FramePar => Op::Compress(self.turn % files),
            Workload::Unframe => Op::Decompress(self.turn % files),
            Workload::Range => self.read(0),
            // 60% compress, 30% decompress, 10% range of the last file.
            Workload::Serve | Workload::ServeDurable => {
                let payloads = files as u64 - 1;
                match self.rng.below(100) {
                    0..=59 => Op::Compress(self.rng.below(payloads) as usize),
                    60..=89 => Op::Decompress(self.rng.below(payloads) as usize),
                    _ => self.read(files - 1),
                }
            }
        }
    }

    /// A 4 KiB read at a uniform offset of `files[file]`.
    pub fn read(&mut self, file: usize) -> Op {
        let start = self.rng.below(self.sizes[file] - READ_BYTES + 1);
        Op::Range { file, start, end: start + READ_BYTES }
    }

    /// A 4 KiB read of a uniformly chosen file.
    pub fn any_read(&mut self) -> Op {
        let file = self.rng.below(self.sizes.len() as u64) as usize;
        self.read(file)
    }
}
