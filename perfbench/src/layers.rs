//! The in-memory compress and decompress paths, rebuilt from each layer's
//! public entry point so that the traced run can put a span around every
//! layer without touching the library.
//!
//! Each function mirrors one library decode or encode loop step for step:
//! [`decode_block`] follows `decompress_block_checked` (parse → LUT build →
//! token decode → warp walk → checksum), [`compress_file`] follows
//! `Compressor::compress` under static planning (match → entropy code →
//! serialize → checksum per block). The outputs are checked against the
//! library's own, so a drift between the two shows as a failed check
//! rather than as a wrong split.
//!
//! Two pieces of library work have no span and land in the
//! `*.unattributed_ms` remainder: the decoder's warp-counter charging and
//! declared-size validation, and the first-touch page faults of the output
//! buffer (taken up front here, see [`zeroed_output`]).

use crate::report::{median, Report};
use crate::trace::Trace;
use gompresso_bitstream::{ByteReader, ByteWriter};
use gompresso_core::warp_lz77::decompress_block_warp;
use gompresso_core::{CompressorConfig, MrrStats, PlanningMode};
use gompresso_format::token_code::TokenCoder;
use gompresso_format::{
    content_checksum, BitBlock, BlockConfig, BlockPayload, ByteBlock, CompressedFile, EncodeScratch,
    EncodingMode, FileHeader, InterleaveScratch, SubBlockStats,
};
use gompresso_huffman::DecodeTable;
use gompresso_lz77::{Matcher, MatcherScratch, SequenceBlock};
use gompresso_simt::WARP_SIZE;

/// Sub-block bitstreams the library decodes side by side per worker
/// (`INTERLEAVE_STREAMS` in `gompresso_core::decompress`).
const INTERLEAVE_STREAMS: usize = 4;

/// Reusable decode buffers, like the library's per-worker scratch.
#[derive(Default)]
pub struct DecodeScratch {
    seq: SequenceBlock,
    interleave: InterleaveScratch,
    stats: Vec<SubBlockStats>,
}

/// Work counted at the decode layer boundaries.
#[derive(Debug, Default)]
pub struct DecodeCounts {
    pub blocks: u64,
    pub sequences: u64,
    pub literal_bytes: u64,
    pub mrr: MrrStats,
}

/// A zero-filled output buffer whose pages are already mapped, so that
/// first-touch page faults are paid here rather than inside the span of
/// whichever layer writes the buffer first.
pub fn zeroed_output(len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    let pages = std::hint::black_box(&mut out[..]);
    for i in (0..pages.len()).step_by(4096) {
        pages[i] = 0;
    }
    out
}

/// Decodes one block payload into `dst` under its recorded config, one
/// span per layer. After the warp walk (which simulates and then executes
/// the block) the sequences are executed once more, alone, into the same
/// bytes: that `decode.exec` span is extra work, kept out of the op time,
/// and `decode.warp − decode.exec` is the simulator's self time.
#[allow(clippy::too_many_arguments)]
fn decode_block(
    trace: &mut Trace,
    request: u64,
    block: &BlockConfig,
    coder: &TokenCoder,
    index: usize,
    payload: &[u8],
    checksum: Option<u64>,
    dst: &mut [u8],
    scratch: &mut DecodeScratch,
    counts: &mut DecodeCounts,
) -> Result<(), String> {
    match block.mode {
        EncodingMode::Bit => {
            let bit = trace
                .span("decode.parse", request, || BitBlock::deserialize(&mut ByteReader::new(payload)))
                .map_err(|e| e.to_string())?;
            let (lit_len, offset) = trace
                .span("decode.lut", request, || {
                    Ok::<_, gompresso_huffman::HuffmanError>((
                        DecodeTable::new(&bit.lit_len_code)?,
                        DecodeTable::new(&bit.offset_code)?,
                    ))
                })
                .map_err(|e| e.to_string())?;
            trace.span("decode.tokens", request, || {
                decode_bit_tokens(&bit, coder, &lit_len, &offset, scratch)
            })?;
        }
        EncodingMode::Byte => {
            let byte = trace
                .span("decode.parse", request, || ByteBlock::deserialize(&mut ByteReader::new(payload)))
                .map_err(|e| e.to_string())?;
            trace
                .span("decode.tokens", request, || byte.decode_into(&mut scratch.seq))
                .map_err(|e| e.to_string())?;
        }
    }
    let seq = &scratch.seq;
    if seq.uncompressed_len != dst.len() {
        return Err(format!(
            "block {index} decoded to {} bytes, expected {}",
            seq.uncompressed_len,
            dst.len()
        ));
    }
    let outcome = trace
        .span("decode.warp", request, || decompress_block_warp(seq, block.strategy, false, index, dst))
        .map_err(|e| e.to_string())?;
    trace
        .span("decode.exec", request, || gompresso_lz77::decompress_block_into(seq, dst))
        .map_err(|e| e.to_string())?;
    if let Some(stored) = checksum {
        let computed = trace.span("decode.checksum", request, || content_checksum(dst));
        if computed != stored {
            return Err(format!("block {index} checksum mismatch"));
        }
    }
    counts.blocks += 1;
    counts.sequences += seq.sequences.len() as u64;
    counts.literal_bytes += seq.literals.len() as u64;
    counts.mrr.merge(&outcome.mrr);
    Ok(())
}

/// Huffman token decode of one Bit block, in lock-step groups of
/// [`WARP_SIZE`] sub-blocks, as the library's `decode_bit_block` walks it.
fn decode_bit_tokens(
    bit: &BitBlock,
    coder: &TokenCoder,
    lit_len: &DecodeTable,
    offset: &DecodeTable,
    scratch: &mut DecodeScratch,
) -> Result<(), String> {
    let seq = &mut scratch.seq;
    seq.sequences.clear();
    seq.literals.clear();
    seq.sequences.reserve((bit.n_sequences as usize).min(bit.bitstream.len().saturating_mul(8)));
    seq.literals.reserve((bit.uncompressed_len as usize).min(bit.bitstream.len().saturating_mul(8)));
    seq.uncompressed_len = bit.uncompressed_len as usize;
    let n_sub_blocks = bit.sub_block_count();
    let mut bit_cursor = 0u64;
    for group_start in (0..n_sub_blocks).step_by(WARP_SIZE) {
        let group_end = (group_start + WARP_SIZE).min(n_sub_blocks);
        scratch.stats.clear();
        bit.decode_sub_blocks_interleaved::<INTERLEAVE_STREAMS>(
            group_start,
            group_end - group_start,
            bit_cursor,
            coder,
            lit_len,
            offset,
            &mut scratch.interleave,
            &mut seq.sequences,
            &mut seq.literals,
            &mut scratch.stats,
        )
        .map_err(|e| e.to_string())?;
        bit_cursor += bit.sub_block_bits[group_start..group_end].iter().map(|&b| u64::from(b)).sum::<u64>();
    }
    Ok(())
}

/// Whole-file decode under one `decode.file` root span.
pub fn decompress_file(
    trace: &mut Trace,
    request: u64,
    file: &CompressedFile,
    scratch: &mut DecodeScratch,
    counts: &mut DecodeCounts,
) -> Result<Vec<u8>, String> {
    let root = trace.enter("decode.file", request);
    let out = decompress_blocks(trace, request, file, scratch, counts);
    trace.exit(root);
    out
}

fn decompress_blocks(
    trace: &mut Trace,
    request: u64,
    file: &CompressedFile,
    scratch: &mut DecodeScratch,
    counts: &mut DecodeCounts,
) -> Result<Vec<u8>, String> {
    let header = &file.header;
    let coder = TokenCoder::new(header.min_match_len, header.max_match_len, header.window_size)
        .map_err(|e| e.to_string())?;
    let mut out = zeroed_output(header.uncompressed_size as usize);
    let mut start = 0usize;
    for (index, payload) in file.blocks.iter().enumerate() {
        let end = start + header.block_uncompressed_size(index) as usize;
        decode_block(
            trace,
            request,
            header.block_config(index),
            &coder,
            index,
            &payload.bytes,
            header.block_checksums.get(index).copied(),
            &mut out[start..end],
            scratch,
            counts,
        )?;
        start = end;
    }
    Ok(out)
}

/// Reusable encode buffers, like the library's per-worker scratch.
pub struct EncodeState {
    seq: SequenceBlock,
    matcher: MatcherScratch,
    encode: EncodeScratch,
}

impl EncodeState {
    pub fn new() -> Self {
        EncodeState {
            seq: SequenceBlock::new(),
            matcher: MatcherScratch::new(),
            encode: EncodeScratch::new(),
        }
    }
}

/// Whole-file compression under static planning, one `encode.file` root
/// span with a span per layer per block.
pub fn compress_file(
    trace: &mut Trace,
    request: u64,
    data: &[u8],
    config: &CompressorConfig,
    state: &mut EncodeState,
) -> Result<CompressedFile, String> {
    assert_eq!(config.planning, PlanningMode::Static, "the traced encoder mirrors static planning only");
    let root = trace.enter("encode.file", request);
    let file = compress_blocks(trace, request, data, config, state);
    trace.exit(root);
    file
}

fn compress_blocks(
    trace: &mut Trace,
    request: u64,
    data: &[u8],
    config: &CompressorConfig,
    state: &mut EncodeState,
) -> Result<CompressedFile, String> {
    let settings = config.file_settings();
    let plan = config.base_plan();
    let coder =
        TokenCoder::new(config.min_match_len as u32, config.max_match_len as u32, config.window_size as u32)
            .map_err(|e| e.to_string())?;
    let mut payloads = Vec::new();
    let mut checksums = Vec::new();
    for chunk in data.chunks(config.block_size) {
        trace.span("encode.match", request, || {
            Matcher::new(plan.matcher_config(&settings)).compress_into(
                chunk,
                &mut state.seq,
                &mut state.matcher,
            )
        });
        let seq = &state.seq;
        let bytes = match plan.mode {
            EncodingMode::Bit => {
                let bit = trace
                    .span("encode.entropy", request, || {
                        BitBlock::encode_with_scratch(
                            seq,
                            &coder,
                            plan.sequences_per_sub_block,
                            plan.max_codeword_len,
                            &mut state.encode,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                trace.span("encode.serialize", request, || {
                    let mut w =
                        ByteWriter::with_capacity(bit.bitstream.len() + 5 * bit.sub_block_bits.len() + 1024);
                    bit.serialize(&mut w);
                    w.finish()
                })
            }
            EncodingMode::Byte => {
                let byte = trace
                    .span("encode.entropy", request, || ByteBlock::encode(seq))
                    .map_err(|e| e.to_string())?;
                trace.span("encode.serialize", request, || {
                    let mut w = ByteWriter::with_capacity(byte.data.len() + 16);
                    byte.serialize(&mut w);
                    w.finish()
                })
            }
        };
        payloads.push(BlockPayload { bytes });
        checksums.push(trace.span("encode.checksum", request, || content_checksum(chunk)));
    }
    let header = FileHeader {
        window_size: config.window_size as u32,
        min_match_len: config.min_match_len as u32,
        max_match_len: config.max_match_len as u32,
        uncompressed_size: data.len() as u64,
        block_size: config.block_size as u32,
        block_configs: vec![plan.block_config(); payloads.len()],
        block_compressed_sizes: Vec::new(),
        block_checksums: checksums,
    };
    CompressedFile::new(header, payloads).map_err(|e| e.to_string())
}

/// Reports the decode split per operation: for each request with a `root`
/// span, the time of each layer's spans, then their medians. The
/// unattributed remainder is `untraced_op_ms` (the same operation through
/// the library, untraced) minus the layers on the op's path; `exec` and
/// `sim` are not on it, they split `warp`.
pub fn report_decode_split(
    trace: &Trace,
    root: &str,
    untraced_op_ms: f64,
    counts: &DecodeCounts,
    report: &mut Report,
) {
    let per_op = |name: &str| trace.per_root_ms(root, name);
    // Parse and LUT builds are the per-block fixed cost paid before token
    // decode. Byte blocks build no LUTs, so they are reported together as
    // `prep`, and the LUT share of a Bit block is `prep − parse`.
    let parse = per_op("decode.parse");
    let prep: Vec<f64> = parse.iter().zip(per_op("decode.lut")).map(|(parse, lut)| parse + lut).collect();
    report.metric("decode.parse_ms", median(&parse), "ms");
    let mut attributed = median(&prep);
    report.metric("decode.prep_ms", attributed, "ms");
    for (layer, metric) in [
        ("decode.tokens", "decode.tokens_ms"),
        ("decode.warp", "decode.warp_ms"),
        ("decode.checksum", "decode.checksum_ms"),
    ] {
        let ms = median(&per_op(layer));
        attributed += ms;
        report.metric(metric, ms, "ms");
    }
    let exec = per_op("decode.exec");
    let sim: Vec<f64> = per_op("decode.warp").iter().zip(&exec).map(|(warp, exec)| warp - exec).collect();
    report.metric("decode.exec_ms", median(&exec), "ms");
    report.metric("decode.sim_ms", median(&sim), "ms");
    report.metric("decode.unattributed_ms", untraced_op_ms - attributed, "ms");
    let ops = exec.len() as f64;
    report.metric("decode.blocks", counts.blocks as f64 / ops, "count");
    report.metric("decode.sequences", counts.sequences as f64 / ops, "count");
    report.metric("decode.literal_bytes", counts.literal_bytes as f64 / ops, "bytes");
    report.metric("decode.mrr_mean_rounds", counts.mrr.mean_rounds(), "rounds");
}
