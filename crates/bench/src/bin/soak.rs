//! `soak` — long-running randomized verification, the repo's analogue of the
//! paper's "we have verified the quality of our design by compressing more
//! than 1 TB of data on the FPGA and comparing the results to software
//! reference model".
//!
//! Each iteration draws a random corpus, size and hardware geometry, then
//! checks the full contract:
//!
//! 1. the cycle-accurate model's tokens equal the software reference's
//!    (greedy levels, G ≥ 1),
//! 2. the zlib stream inflates back to the input,
//! 3. the hardware decompressor model inverts the stream (4 KB-compatible
//!    geometries),
//! 4. cycle statistics sum exactly to the total.
//!
//! ```text
//! soak --bytes 100000000 [--seed N]     # run until ~100 MB verified
//! soak --minutes 10                      # or until a time budget expires
//! ```
//!
//! Numbers are decimal or `0x`-prefixed hex (`--seed 0xC0FFEE`); an
//! unparsable one exits 2. Exits 1 on the first divergence, printing a
//! reproducer command.

use lzfpga_core::pipeline::compress_to_zlib;
use lzfpga_core::{DecompConfig, HwConfig, HwDecompressor};
use lzfpga_deflate::zlib::zlib_decompress;
use lzfpga_lzss::reference::compress;
use lzfpga_sim::rng::XorShift64;
use lzfpga_workloads::{generate, Corpus};

struct Budget {
    bytes: u64,
    deadline: Option<std::time::Instant>,
}

#[derive(Debug, PartialEq, Eq)]
struct Args {
    bytes: u64,
    minutes: Option<u64>,
    seed: u64,
}

/// A decimal or `0x`-prefixed hexadecimal integer, as `faultstorm` reads
/// its seeds.
fn parse_num(flag: &str, value: Option<String>) -> Result<u64, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    let n = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    };
    n.ok_or_else(|| format!("{flag} takes an integer, not '{v}'"))
}

/// Parse the command line; `Ok(None)` asks for the usage line.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut out = Args { bytes: 50_000_000, minutes: None, seed: 0xC0FFEE };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bytes" => out.bytes = parse_num("--bytes", it.next())?,
            "--minutes" => out.minutes = Some(parse_num("--minutes", it.next())?),
            "--seed" => out.seed = parse_num("--seed", it.next())?,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Some(out))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("soak [--bytes N] [--minutes M] [--seed S]");
            return;
        }
        Err(e) => {
            eprintln!("soak: {e}");
            std::process::exit(2);
        }
    };
    let budget = Budget {
        bytes: args.bytes,
        deadline: args.minutes.and_then(|m| {
            std::time::Instant::now()
                .checked_add(std::time::Duration::from_secs(m.saturating_mul(60)))
        }),
    };
    let verified = run_soak(args.seed, &budget, true);
    println!("soak complete: {verified} bytes verified across randomized configurations");
}

/// Core loop, callable from tests. Returns bytes verified.
fn run_soak(seed: u64, budget: &Budget, verbose: bool) -> u64 {
    let corpora = [
        Corpus::Wiki,
        Corpus::X2e,
        Corpus::LogLines,
        Corpus::JsonTelemetry,
        Corpus::SensorFrames,
        Corpus::WikiXml,
        Corpus::Random,
        Corpus::CollisionStress,
    ];
    let windows = [1_024u32, 2_048, 4_096, 8_192, 16_384, 32_768];
    let mut rng = XorShift64::new(seed);
    let mut verified: u64 = 0;
    let mut iter: u64 = 0;
    while verified < budget.bytes {
        if let Some(deadline) = budget.deadline {
            if std::time::Instant::now() >= deadline {
                break;
            }
        }
        iter += 1;
        let corpus = corpora[(rng.next_u64() % corpora.len() as u64) as usize];
        let size = 20_000 + (rng.next_u64() % 400_000) as usize;
        let window = windows[(rng.next_u64() % windows.len() as u64) as usize];
        let hash_bits = 9 + (rng.next_u64() % 7) as u32; // 9..=15
        let mut cfg = HwConfig::new(window, hash_bits);
        cfg.gen_bits = 1 + (rng.next_u64() % 5) as u32;
        cfg.head_divisions = 1 << (rng.next_u64() % 5); // 1..=16
        cfg.bus_bytes = if rng.next_u64().is_multiple_of(4) { 1 } else { 4 };
        cfg.hash_prefetch = !rng.next_u64().is_multiple_of(5);
        let data = generate(corpus, rng.next_u64(), size);

        let fail = |what: &str| -> ! {
            eprintln!(
                "DIVERGENCE ({what}) at iteration {iter}: corpus={} size={size} cfg={cfg:?}\n\
                 reproduce with: soak --seed {seed:#x} (iteration {iter})",
                corpus.name()
            );
            std::process::exit(1);
        };

        let rep = compress_to_zlib(&data, &cfg);
        let sw = compress(&data, &cfg.as_lzss_params());
        if rep.run.tokens != sw {
            fail("hw/sw token mismatch");
        }
        match zlib_decompress(&rep.compressed) {
            Ok(out) if out == data => {}
            _ => fail("zlib round trip"),
        }
        if (256..=65_536).contains(&window) {
            let mut d = HwDecompressor::new(DecompConfig { window_size: window, bus_bytes: 4 });
            match d.decompress_zlib(&rep.compressed) {
                Ok(drep) if drep.bytes == data => {}
                _ => fail("hw decompressor"),
            }
        }
        if rep.run.cycles != rep.run.stats.total() + cfg.dma_setup_cycles {
            fail("cycle accounting");
        }

        verified += size as u64;
        if verbose && iter.is_multiple_of(50) {
            eprintln!("  {iter} iterations, {verified} bytes verified");
        }
    }
    verified
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_soak_passes() {
        let budget = Budget { bytes: 1_500_000, deadline: None };
        let verified = run_soak(42, &budget, false);
        assert!(verified >= 1_500_000);
    }

    #[test]
    fn args_take_hex_seeds_and_refuse_garbage() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(String::from));
        let args = parse("--seed 0xBEEF --bytes 20000000 --minutes 3").unwrap().unwrap();
        assert_eq!(args, Args { bytes: 20_000_000, minutes: Some(3), seed: 0xBEEF });
        assert_eq!(parse("--seed 0XbeEF").unwrap().unwrap().seed, 0xBEEF);
        assert_eq!(parse("--seed 48879").unwrap().unwrap().seed, 0xBEEF);
        assert_eq!(parse("").unwrap().unwrap().seed, 0xC0FFEE, "the default seed");
        assert_eq!(parse("--help").unwrap(), None);
        for bad in ["--seed BEEF", "--seed 0xZZ", "--seed", "--bytes 2e7", "--minutes -1", "--x"] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn time_budget_stops_the_loop() {
        let budget = Budget { bytes: u64::MAX, deadline: Some(std::time::Instant::now()) };
        assert_eq!(run_soak(1, &budget, false), 0);
    }
}
