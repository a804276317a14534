//! The bulk path: whole-file in-memory `compress` and `decompress` of the
//! 16 MiB input, one worker.

use crate::layers::{self, DecodeCounts, DecodeScratch, EncodeState};
use crate::report::{median, quantile, Report, FAST};
use crate::trace::Trace;
use gompresso_core::{compress, decompress, CompressedFile, CompressionStats, CompressorConfig};
use std::time::{Duration, Instant};

pub struct Bulk {
    pub input: Vec<u8>,
    pub config: CompressorConfig,
}

/// The reference archive: one untimed warm-up compress whose output must
/// decompress to the input. Every timed compress must reproduce its bytes.
struct Reference {
    file: CompressedFile,
    bytes: Vec<u8>,
    stats: CompressionStats,
}

fn reference(bulk: &Bulk, report: &mut Report) -> Result<Reference, String> {
    let out = compress(&bulk.input, &bulk.config).map_err(|e| format!("warm-up compress: {e}"))?;
    let (restored, _) = decompress(&out.file).map_err(|e| format!("warm-up decompress: {e}"))?;
    if restored != bulk.input {
        report.mismatch("warm-up round trip differs from the input");
    }
    Ok(Reference { bytes: out.file.serialize(), file: out.file, stats: out.stats })
}

/// One turn of the bulk loop.
#[derive(Clone, Copy)]
enum Turn {
    Compress,
    Decompress,
}

/// Per-op seconds of the library calls.
#[derive(Default)]
struct Timings {
    compress: Vec<f64>,
    decompress: Vec<f64>,
}

/// One timed library call of `turn`, checked against the reference.
/// Returns its seconds.
fn library_op(bulk: &Bulk, reference: &Reference, turn: Turn, t: &mut Timings, report: &mut Report) -> f64 {
    let start = Instant::now();
    match turn {
        Turn::Compress => {
            let out = compress(&bulk.input, &bulk.config);
            let s = start.elapsed().as_secs_f64();
            if out.is_ok() {
                t.compress.push(s);
            }
            let outcome = out.map(|out| out.file.serialize() == reference.bytes).map_err(|e| e.to_string());
            report.check("compress output against the reference archive", outcome);
            s
        }
        Turn::Decompress => {
            let out = decompress(&reference.file);
            let s = start.elapsed().as_secs_f64();
            if out.is_ok() {
                t.decompress.push(s);
            }
            let outcome = out.map(|(restored, _)| restored == bulk.input).map_err(|e| e.to_string());
            report.check("decompress output against the input", outcome);
            s
        }
    }
}

fn gbps(bytes: usize, seconds: &[f64]) -> f64 {
    bytes as f64 / quantile(seconds, FAST) / 1e9
}

/// What the traced run keeps between turns.
struct Traced {
    trace: Trace,
    decode_scratch: DecodeScratch,
    counts: DecodeCounts,
    encode_state: EncodeState,
    request: u64,
}

/// The bulk path of one run. Without tracing every turn is one library
/// call. With it, every turn is an untraced library call followed by the
/// same operation through [`layers`] with a span per layer, so both sides
/// see the same host conditions.
pub struct Phase<'a> {
    bulk: &'a Bulk,
    reference: Reference,
    untraced: Timings,
    /// Seconds spent on each side so far, over every slice.
    compress_s: f64,
    decompress_s: f64,
    traced: Option<Traced>,
}

impl<'a> Phase<'a> {
    /// Warms up with the reference round trip; `epoch` turns tracing on.
    pub fn new(bulk: &'a Bulk, epoch: Option<Instant>, report: &mut Report) -> Result<Self, String> {
        Ok(Phase {
            bulk,
            reference: reference(bulk, report)?,
            untraced: Timings::default(),
            compress_s: 0.0,
            decompress_s: 0.0,
            traced: epoch.map(|epoch| Traced {
                trace: Trace::new(epoch),
                decode_scratch: DecodeScratch::default(),
                counts: DecodeCounts::default(),
                encode_state: EncodeState::new(),
                request: 0,
            }),
        })
    }

    /// Runs turns for about `budget`, alternating compress and decompress
    /// so that each gets the same share of the run: whichever side has
    /// spent less time so far goes next.
    pub fn slice(&mut self, budget: Duration, report: &mut Report) {
        let deadline = Instant::now() + budget;
        while Instant::now() < deadline {
            if self.decompress_s >= self.compress_s {
                self.compress_s += self.turn(Turn::Compress, report);
            } else {
                self.decompress_s += self.turn(Turn::Decompress, report);
            }
        }
    }

    /// One turn; returns its seconds.
    fn turn(&mut self, turn: Turn, report: &mut Report) -> f64 {
        let (bulk, reference) = (self.bulk, &self.reference);
        let library_s = library_op(bulk, reference, turn, &mut self.untraced, report);
        let Some(t) = self.traced.as_mut() else { return library_s };
        t.request += 1;
        let start = Instant::now();
        match turn {
            Turn::Compress => {
                let out = layers::compress_file(
                    &mut t.trace,
                    t.request,
                    &bulk.input,
                    &bulk.config,
                    &mut t.encode_state,
                );
                let outcome = out.map(|file| file.serialize() == reference.bytes);
                report.check("traced compress against the library archive", outcome);
            }
            Turn::Decompress => {
                let out = layers::decompress_file(
                    &mut t.trace,
                    t.request,
                    &reference.file,
                    &mut t.decode_scratch,
                    &mut t.counts,
                );
                report
                    .check("traced decompress against the input", out.map(|restored| restored == bulk.input));
            }
        }
        library_s + start.elapsed().as_secs_f64()
    }

    /// Reports the phase's metrics: the end-to-end ones, or with tracing
    /// the decode and encode split. Returns the spans.
    pub fn finish(self, report: &mut Report) -> Result<Option<Trace>, String> {
        let untraced = &self.untraced;
        if untraced.compress.is_empty() || untraced.decompress.is_empty() {
            return Err("no bulk operation completed".into());
        }
        eprintln!(
            "perfbench: {} compress and {} decompress ops",
            untraced.compress.len(),
            untraced.decompress.len()
        );
        let Some(t) = self.traced else {
            let len = self.bulk.input.len();
            report.metric("compress_gbps", gbps(len, &untraced.compress), "GB/s");
            report.metric("decompress_gbps", gbps(len, &untraced.decompress), "GB/s");
            report.metric("ratio", len as f64 / self.reference.bytes.len() as f64, "x");
            return Ok(None);
        };
        let trace = &t.trace;
        if trace.per_root_ms("decode.file", "decode.file").is_empty()
            || trace.per_root_ms("encode.file", "encode.file").is_empty()
        {
            return Err("no traced bulk operation completed".into());
        }

        // Decode split, per whole-file op.
        let untraced_decode_ms = median(&untraced.decompress) * 1e3;
        layers::report_decode_split(trace, "decode.file", untraced_decode_ms, &t.counts, report);

        // Encode split, per whole-file op.
        let untraced_encode_ms = median(&untraced.compress) * 1e3;
        let mut attributed = 0.0;
        for (layer, metric) in [
            ("encode.match", "encode.match_ms"),
            ("encode.entropy", "encode.entropy_ms"),
            ("encode.serialize", "encode.serialize_ms"),
            ("encode.checksum", "encode.checksum_ms"),
        ] {
            let ms = median(&trace.per_root_ms("encode.file", layer));
            attributed += ms;
            report.metric(metric, ms, "ms");
        }
        report.metric("encode.unattributed_ms", untraced_encode_ms - attributed, "ms");
        let stats = &self.reference.stats;
        report.metric("encode.sequences", stats.sequences as f64, "count");
        report.metric("encode.matches", stats.matches as f64, "count");
        report.metric("encode.literal_bytes", stats.literal_bytes as f64, "bytes");
        report.metric("encode.mean_match_len", stats.mean_match_len, "bytes");

        // Tracing overhead: traced against untraced op time, both sides. The
        // extra `decode.exec` pass is not part of the traced op.
        let exec = trace.per_root_ms("decode.file", "decode.exec");
        let traced_decode: Vec<f64> = trace
            .per_root_ms("decode.file", "decode.file")
            .iter()
            .zip(&exec)
            .map(|(file, exec)| file - exec)
            .collect();
        let traced_ms = median(&traced_decode) + median(&trace.per_root_ms("encode.file", "encode.file"));
        let untraced_ms = untraced_decode_ms + untraced_encode_ms;
        report.metric("trace.overhead_pct", (traced_ms - untraced_ms) / untraced_ms * 100.0, "%");
        Ok(Some(t.trace))
    }
}
