//! The random-access path: 4 KiB `decompress_range` reads at seeded
//! uniform offsets, one client in a closed loop, against a seekable stream
//! archive of the bulk input held in memory behind one `ArchiveReader`.

use crate::report::{median, quantile, Report, FAST};
use crate::trace::Trace;
use crate::SplitMix;
use gompresso_core::{ArchiveReader, BlockIndex, CompressorConfig, StreamCompressor};
use std::io::{Cursor, Read, Seek, SeekFrom};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bytes per read.
pub const READ_LEN: u64 = 4096;

/// Untimed reads before measuring, so per-worker scratch has grown.
const WARM_UP_READS: usize = 32;

/// Archives opened to time `ArchiveReader::open`.
const OPENS: u64 = 9;

/// Request ids of this path's spans start here, apart from the other paths'.
const REQUEST_BASE: u64 = 2 << 40;

/// A `Read + Seek` source that counts the bytes read through it.
pub struct Counting<R> {
    inner: R,
    bytes: Arc<AtomicU64>,
}

impl<R: Read> Read for Counting<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl<R: Seek> Seek for Counting<R> {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.inner.seek(pos)
    }
}

type Source = Counting<Cursor<Arc<[u8]>>>;

fn open(archive: &Arc<[u8]>, bytes: Arc<AtomicU64>) -> Result<ArchiveReader<Source>, String> {
    ArchiveReader::open(Counting { inner: Cursor::new(Arc::clone(archive)), bytes })
        .map_err(|e| e.to_string())
}

pub struct RangeReads {
    input: Vec<u8>,
    archive: Arc<[u8]>,
    reader: ArchiveReader<Source>,
    fetched: Arc<AtomicU64>,
}

/// Builds the seekable archive of `input` on one worker and opens it.
pub fn setup(input: Vec<u8>, config: CompressorConfig) -> Result<RangeReads, String> {
    let mut archive = Cursor::new(Vec::new());
    StreamCompressor::new(config)
        .map_err(|e| e.to_string())?
        .with_workers(1)
        .compress_seekable(input.as_slice(), &mut archive)
        .map_err(|e| e.to_string())?;
    let archive: Arc<[u8]> = archive.into_inner().into();
    let fetched = Arc::new(AtomicU64::new(0));
    let reader = open(&archive, Arc::clone(&fetched))?;
    Ok(RangeReads { input, archive, reader, fetched })
}

fn slice(input: &[u8], range: std::ops::Range<u64>) -> &[u8] {
    &input[range.start as usize..range.end as usize]
}

/// What the traced run counts between slices.
struct Traced {
    trace: Trace,
    index: BlockIndex,
    reads: u64,
    blocks_touched: u64,
    decoded: u64,
    fetched: u64,
}

/// The range-read path of one run. Without tracing every read is timed.
/// With it, every read runs inside an `archive.read` span and is followed
/// by `decompress_block` of each block it touched, each in an
/// `archive.block_decode` span.
pub struct Phase<'a> {
    r: &'a mut RangeReads,
    rng: SplitMix,
    seconds: Vec<f64>,
    /// The p90 read latency of each slice.
    p90s: Vec<f64>,
    traced: Option<Traced>,
}

impl<'a> Phase<'a> {
    /// Warms up with untimed reads; `epoch` turns tracing on, which first
    /// times a few archive opens.
    pub fn new(
        r: &'a mut RangeReads,
        seed: u64,
        epoch: Option<Instant>,
        report: &mut Report,
    ) -> Result<Self, String> {
        let mut phase =
            Phase { r, rng: SplitMix::new(seed), seconds: Vec::new(), p90s: Vec::new(), traced: None };
        for _ in 0..WARM_UP_READS {
            phase.timed_read(report);
        }
        phase.seconds.clear();
        if let Some(epoch) = epoch {
            let mut trace = Trace::new(epoch);
            let (archive, len) = (&phase.r.archive, phase.r.input.len() as u64);
            for n in 0..OPENS {
                let opened = trace.span("archive.open", REQUEST_BASE | n, || open(archive, Arc::default()));
                report.check("archive open", opened.map(|reader| reader.uncompressed_size() == len));
            }
            let index = phase.r.reader.index().clone();
            phase.traced = Some(Traced { trace, index, reads: 0, blocks_touched: 0, decoded: 0, fetched: 0 });
        }
        Ok(phase)
    }

    fn next_range(&mut self) -> std::ops::Range<u64> {
        let offset = self.rng.below(self.r.input.len() as u64 - READ_LEN + 1);
        offset..offset + READ_LEN
    }

    /// One timed read at a seeded offset, checked against the input.
    fn timed_read(&mut self, report: &mut Report) {
        let range = self.next_range();
        let start = Instant::now();
        let got = self.r.reader.decompress_range(range.clone());
        let s = start.elapsed().as_secs_f64();
        if got.is_ok() {
            self.seconds.push(s);
        }
        let outcome = got.map(|bytes| bytes == slice(&self.r.input, range)).map_err(|e| e.to_string());
        report.check("range read against the input slice", outcome);
    }

    /// One traced read, then the blocks it touched one by one.
    fn traced_read(&mut self, report: &mut Report) {
        let range = self.next_range();
        let (r, t) = (&mut *self.r, self.traced.as_mut().expect("a traced phase"));
        let request = REQUEST_BASE | (OPENS + t.reads);
        let before = r.fetched.load(Ordering::Relaxed);
        let got = t.trace.span("archive.read", request, || r.reader.decompress_range(range.clone()));
        t.fetched += r.fetched.load(Ordering::Relaxed) - before;
        let outcome = got.map(|bytes| bytes == slice(&r.input, range.clone())).map_err(|e| e.to_string());
        report.check("traced range read against the input slice", outcome);
        t.reads += 1;

        for b in t.index.blocks_for_range(range) {
            let entry = t.index.entry(b);
            let expected = slice(&r.input, entry.uncompressed_range());
            let got = t.trace.span("archive.block_decode", request, || r.reader.decompress_block(b));
            report.check(
                "decompress_block against the input",
                got.map(|bytes| bytes == expected).map_err(|e| e.to_string()),
            );
            t.blocks_touched += 1;
            t.decoded += entry.uncompressed_size;
        }
    }

    /// Runs reads for about `budget`.
    pub fn slice(&mut self, budget: Duration, report: &mut Report) {
        let deadline = Instant::now() + budget;
        let first = self.seconds.len();
        while Instant::now() < deadline {
            if self.traced.is_some() {
                self.traced_read(report);
            } else {
                self.timed_read(report);
            }
        }
        if self.seconds.len() > first {
            self.p90s.push(quantile(&self.seconds[first..], 0.9));
        }
    }

    /// Reports the phase's metrics: the read latency percentiles, or with
    /// tracing the read split. Returns the spans.
    pub fn finish(self, report: &mut Report) -> Result<Option<Trace>, String> {
        let Some(t) = self.traced else {
            if self.seconds.len() < 10 {
                return Err(format!("only {} range reads completed", self.seconds.len()));
            }
            report.metric("range_read_p10_ms", quantile(&self.seconds, FAST) * 1e3, "ms");
            report.metric("range_read_p90_ms", median(&self.p90s) * 1e3, "ms");
            eprintln!("perfbench: {} range reads", self.seconds.len());
            return Ok(None);
        };
        if t.reads == 0 {
            return Err("no traced range read completed".into());
        }
        let per_read = |name: &str| t.trace.per_root_ms("archive.read", name);
        let read_ms = median(&per_read("archive.read"));
        let block_decode_ms = median(&per_read("archive.block_decode"));
        report.metric("archive.open_ms", median(&t.trace.per_root_ms("archive.open", "archive.open")), "ms");
        report.metric("archive.read_ms", read_ms, "ms");
        report.metric("archive.block_decode_ms", block_decode_ms, "ms");
        report.metric("archive.overhead_ms", read_ms - block_decode_ms, "ms");
        report.metric("archive.blocks_per_read", t.blocks_touched as f64 / t.reads as f64, "count");
        report.metric("archive.read_amplification", t.decoded as f64 / (t.reads * READ_LEN) as f64, "x");
        report.metric("archive.bytes_fetched_per_read", t.fetched as f64 / t.reads as f64, "bytes");
        Ok(Some(t.trace))
    }
}
