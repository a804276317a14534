//! Gompresso benchmark: one workload per process, end-to-end metrics from
//! an untraced run (`--trace 0`) or the per-layer split from a traced run
//! (`--trace 1`). See `README.md` beside this package for the workloads,
//! the metrics and how they map onto each other.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload text-bit-de --seed 1 --seconds 45 --trace 0
//! ```
//!
//! A workload is one input kind under one configuration. Every run drives
//! it through all three user paths, interleaved in short slices so that
//! each path sees the same host conditions: whole-file `compress` and
//! `decompress` (bulk), 4 KiB `decompress_range` reads, and `gompressod`
//! requests.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.

mod bulk;
mod host;
mod layers;
mod range;
mod report;
mod service;
mod trace;

use gompresso_core::CompressorConfig;
use gompresso_datasets::{DatasetGenerator, MatrixMarketGenerator, WikipediaGenerator};
use report::{median, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Trace;

pub const KIB: usize = 1024;
pub const MIB: usize = 1024 * KIB;

/// Bytes of the bulk input, and of the archive the range reads hit.
pub const INPUT_LEN: usize = 16 * MIB;

/// The workload's set-up is repeated at least `SETUP_MIN_REPS` times, and
/// up to `SETUP_MAX_REPS` times while the total stays under
/// `SETUP_MIN_SECONDS`, so a cheap set-up still gives a steady median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 25;
const SETUP_MIN_SECONDS: f64 = 1.0;

/// One round of the measuring loop: each path gets its share of it in
/// turn, so a slow spell of the host lands on all of them alike.
const ROUND: Duration = Duration::from_millis(3000);
const BULK_SHARE: f64 = 0.45;
const RANGE_SHARE: f64 = 0.2;
const SERVICE_SHARE: f64 = 0.35;

const USAGE: &str = "usage: perfbench --workload <text-bit-de|matrix-byte-mrr> \
                     --seed <u64> --seconds <n> --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Wikipedia XML, Gompresso/Bit with Dependency Elimination.
    TextBitDe,
    /// Matrix Market edge list, Gompresso/Byte (blocks record MRR).
    MatrixByteMrr,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "text-bit-de" => Workload::TextBitDe,
            "matrix-byte-mrr" => Workload::MatrixByteMrr,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::TextBitDe => "text-bit-de",
            Workload::MatrixByteMrr => "matrix-byte-mrr",
        }
    }

    /// `len` bytes of the workload's input kind, from `seed` alone.
    pub fn generate(self, seed: u64, len: usize) -> Vec<u8> {
        match self {
            Workload::TextBitDe => WikipediaGenerator::new(seed).generate(len),
            Workload::MatrixByteMrr => MatrixMarketGenerator::new(seed).generate(len),
        }
    }

    /// The library configuration every path of the workload uses.
    pub fn config(self) -> CompressorConfig {
        match self {
            Workload::TextBitDe => CompressorConfig::bit_de(),
            Workload::MatrixByteMrr => CompressorConfig::byte(),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// SplitMix64: the seeded stream behind the range-read offsets.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5241_4e47_4553_4545)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is below 2^-40 for the sizes used).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Everything a run measures against, built from the seed.
struct Rig {
    bulk: bulk::Bulk,
    range: range::RangeReads,
    service: service::Service,
}

fn setup(workload: Workload, seed: u64) -> Result<Rig, String> {
    let input = workload.generate(seed, INPUT_LEN);
    let range = range::setup(input.clone(), workload.config())?;
    Ok(Rig {
        bulk: bulk::Bulk { input, config: workload.config() },
        range,
        service: service::setup(workload, seed)?,
    })
}

/// Runs `setup` repeatedly (see [`SETUP_MIN_REPS`]), dropping each result
/// before the next starts; returns the last result and the median set-up
/// seconds.
fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut seconds = Vec::new();
    let mut last = None;
    while seconds.len() < SETUP_MIN_REPS
        || (seconds.len() < SETUP_MAX_REPS && seconds.iter().sum::<f64>() < SETUP_MIN_SECONDS)
    {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&seconds)))
}

/// Where the traced run writes its spans: inside the build directory.
fn trace_path(workload: Workload) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"), PathBuf::from);
    target.join("perfbench-traces").join(format!("{}.jsonl", workload.name()))
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let host = host::calibrate()?;
    eprintln!(
        "perfbench: {} seed {} trace {}; host memcpy {:.2} GB/s, lz4-like decompress {:.3} GB/s, {} cores",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        host.memcpy_gbps,
        host.lz4like_decompress_gbps,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let (mut rig, setup_s) = timed_setup(|| setup(args.workload, args.seed))?;
    let epoch = args.trace.then(Instant::now);
    let mut bulk = bulk::Phase::new(&rig.bulk, epoch, &mut report)?;
    let mut range = range::Phase::new(&mut rig.range, args.seed, epoch, &mut report)?;
    let mut service = service::Phase::new(&mut rig.service, epoch, &mut report)?;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while Instant::now() < deadline {
        bulk.slice(ROUND.mul_f64(BULK_SHARE), &mut report);
        range.slice(ROUND.mul_f64(RANGE_SHARE), &mut report);
        service.slice(ROUND.mul_f64(SERVICE_SHARE), &mut report)?;
    }
    let traces = [bulk.finish(&mut report)?, range.finish(&mut report)?, service.finish(&mut report)?];
    rig.service.stop()?;

    match epoch {
        Some(epoch) => {
            report.metric("host.memcpy_gbps", host.memcpy_gbps, "GB/s");
            report.metric("host.lz4like_decompress_gbps", host.lz4like_decompress_gbps, "GB/s");
            let mut all = Trace::new(epoch);
            traces.into_iter().flatten().for_each(|t| all.absorb(t));
            let path = trace_path(args.workload);
            all.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!("perfbench: {} spans written to {}", all.len(), path.display());
        }
        None => {
            report.metric("setup_s", setup_s, "s");
            report.metric("peak_rss_mb", gompresso_service::peak_rss_bytes() as f64 / MIB as f64, "MiB");
        }
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Bulk operations run on one worker: two workers on two shared cores
    // doubled the run-to-run spread.
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
        .expect("the shim's pool set-up cannot fail");
    match run(&args) {
        Ok(report) => {
            eprint!("{}", report.table());
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
