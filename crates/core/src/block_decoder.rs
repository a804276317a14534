//! The one block decoder every driver calls.
//!
//! The paper's decode unit is a single block: parse the payload,
//! Huffman-decode its sub-blocks (Gompresso/Bit), resolve the
//! back-references (Section III-B). The in-memory [`crate::Decompressor`],
//! the streaming pipeline, the random-access [`crate::ArchiveReader`] and
//! salvage all decode a block through [`BlockDecoder`], so each integrity
//! rule lives here once:
//!
//! * how a payload declares its uncompressed size, per [`EncodingMode`];
//! * the plausibility ceiling on what a payload of a given length can
//!   expand to, checked before any output buffer is sized from a claim;
//! * the exact-size bound of a header-indexed block and the `block_size`
//!   bound of a self-sized stream frame;
//! * the cap on a Bit payload's code widths (each sizes a decode table of
//!   2^width entries) at the block's recorded CWL;
//! * the declared-vs-produced output size check;
//! * the checksum policy ([`DecompressorConfig::verify_checksums`]);
//! * the per-worker decode scratch;
//! * when the simulated GPU warp observes a block: only for a decoder made
//!   [`BlockDecoder::simulating`] under a config with a cost model, or for
//!   the DE check of [`DecompressorConfig::validate_de`]. Execution never
//!   depends on it.

use crate::decompress::DecompressorConfig;
use crate::stats::MrrStats;
use crate::strategy::ResolutionStrategy;
use crate::warp_lz77::{simulate_block_warp, WarpDecompressOutcome};
use crate::{GompressoError, Result};
use gompresso_bitstream::ByteReader;
use gompresso_format::{
    token_code::TokenCoder, BitBlock, BlockConfig, ByteBlock, EncodingMode, FormatError, InterleaveScratch,
    SubBlockStats,
};
use gompresso_huffman::DecodeTable;
use gompresso_lz77::{decompress_block_into, SequenceBlock};
use gompresso_simt::{Warp, WarpCounters, WARP_SIZE};
use std::cell::RefCell;

/// Warp instructions charged per decoded Huffman symbol (table lookup,
/// shift/consume, extra-bit handling, token store).
const INSTR_PER_SYMBOL: u64 = 10;
/// Fixed per-sub-block decoding overhead (offset computation, loop set-up).
const SUB_BLOCK_OVERHEAD_INSTR: u64 = 24;
/// Bytes written to device memory per decoded token (the decoder's output
/// token stream that the LZ77 kernel later consumes).
const TOKEN_STREAM_BYTES_PER_SEQ: u64 = 12;

/// What the simulated warps observed while one block decoded. The
/// decompressed bytes land directly in the caller's destination slice.
pub(crate) struct BlockSimulation {
    /// The Huffman-decode kernel's counters (Bit blocks only).
    pub(crate) decode_counters: Option<WarpCounters>,
    pub(crate) lz77_counters: WarpCounters,
    pub(crate) mrr: MrrStats,
}

/// Per-worker decode scratch: the block-level sequence/literal buffers, the
/// cached token tables and the per-sub-block stats vector.
#[derive(Default)]
struct DecodeScratch {
    seq_block: SequenceBlock,
    tokens: InterleaveScratch,
    stats: Vec<SubBlockStats>,
}

thread_local! {
    /// Per-worker decode scratch. Each worker decodes every block it owns
    /// into the same buffers, so steady-state decompression performs no
    /// per-block heap allocation once the scratch has grown to the largest
    /// block handled by that worker.
    static DECODE_SCRATCH: RefCell<DecodeScratch> = RefCell::new(DecodeScratch::default());
}

/// Decodes single blocks of one archive under one configuration.
#[derive(Debug)]
pub(crate) struct BlockDecoder {
    config: DecompressorConfig,
    coder: TokenCoder,
    simulate: bool,
}

impl BlockDecoder {
    /// Creates an execute-only decoder for an archive with the given
    /// token-coding parameters (from its header or stream prelude).
    pub(crate) fn new(
        config: DecompressorConfig,
        min_match_len: u32,
        max_match_len: u32,
        window_size: u32,
    ) -> Result<Self> {
        let coder = TokenCoder::new(min_match_len, max_match_len, window_size)?;
        Ok(Self { config, coder, simulate: false })
    }

    /// Makes [`Self::decode`] also simulate every block on a GPU warp when
    /// the config carries a cost model.
    pub(crate) fn simulating(self) -> Self {
        Self { simulate: self.config.cost_model.is_some(), ..self }
    }

    /// The configuration in use.
    pub(crate) fn config(&self) -> &DecompressorConfig {
        &self.config
    }

    /// Rejects a `declared` output size that a payload of `payload_len`
    /// bytes cannot produce. Byte mode is LZ4-style (a 255-chained extension
    /// byte adds at most 255 output bytes, so < 255 output bytes per payload
    /// byte); bit mode yields at most one maximal match per coded bit. A
    /// larger claim can only come from a crafted archive, so callers check
    /// it *before* allocating output for the block.
    pub(crate) fn check_plausible(&self, mode: EncodingMode, payload_len: u64, declared: u64) -> Result<()> {
        let ceiling = match mode {
            EncodingMode::Byte => payload_len.saturating_mul(255),
            EncodingMode::Bit => {
                payload_len.saturating_mul(8).saturating_mul(u64::from(self.coder.max_match_len.max(1)))
            }
        };
        if declared > ceiling.saturating_add(64) {
            return Err(GompressoError::Format(FormatError::InvalidHeaderField {
                field: "uncompressed_size",
                value: declared,
            }));
        }
        Ok(())
    }

    /// Checks a header-indexed block before the output is allocated: the
    /// size the payload declares (read with the cheap peek that skips the
    /// code tables) must equal the header's `expected` size and be
    /// plausible for the payload's length.
    pub(crate) fn check_declared_size(
        &self,
        mode: EncodingMode,
        payload: &[u8],
        expected: u64,
    ) -> Result<()> {
        let declared = peek_declared_size(mode, payload)?;
        if declared != expected {
            return Err(GompressoError::OutputSizeMismatch { declared: expected, produced: declared });
        }
        self.check_plausible(mode, payload.len() as u64, declared)
    }

    /// Decodes a self-sized stream frame into `out`, a recycled buffer: the
    /// payload's declared size must lie in `1..=block_size` and be
    /// plausible *before* `out` is sized from it.
    pub(crate) fn decode_frame(
        &self,
        block: &BlockConfig,
        index: u64,
        payload: &[u8],
        checksum: Option<u64>,
        block_size: usize,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let declared = peek_declared_size(block.mode, payload)?;
        if declared == 0 || declared > block_size as u64 {
            return Err(GompressoError::Format(FormatError::InvalidHeaderField {
                field: "block_uncompressed_size",
                value: declared,
            }));
        }
        self.check_plausible(block.mode, payload.len() as u64, declared)?;
        // No full re-zero of the recycled buffer: resize only zero-fills the
        // grown tail, and `decode` succeeds only when every byte of the
        // destination was written (stale bytes can never leak — a failing
        // block's buffer is dropped, not emitted).
        out.resize(declared as usize, 0);
        self.decode(block, index as usize, payload, checksum, out).map(|_| ())
    }

    /// Decodes one block payload into `dst`, which is sized from the
    /// block's declared uncompressed size, under the block's recorded
    /// config; then, unless checksum verification is off, checks the
    /// stored content checksum (when the archive carries one).
    ///
    /// The block's sequences execute first, in the one validating walk, so
    /// a corrupt block fails with the same error whether or not it is
    /// simulated. The warp walk then runs over the validated sequences if
    /// this decoder simulates (its observations are returned) or if the
    /// block resolves with DE under `validate_de`.
    pub(crate) fn decode(
        &self,
        block: &BlockConfig,
        index: usize,
        payload: &[u8],
        checksum: Option<u64>,
        dst: &mut [u8],
    ) -> Result<Option<BlockSimulation>> {
        let simulation = DECODE_SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let scratch = &mut *scratch;
            let seq_block = &mut scratch.seq_block;
            let mut r = ByteReader::new(payload);
            let decode_warp = match block.mode {
                EncodingMode::Bit => {
                    let bit = BitBlock::deserialize(&mut r)?;
                    // Each code sizes a decode LUT of 2^max_len entries. The
                    // encoder writes codes exactly as wide as the block's
                    // recorded CWL, so a wider one is corrupt or crafted and
                    // is refused before any table is allocated.
                    for code in [&bit.lit_len_code, &bit.offset_code] {
                        if code.max_len() > block.max_codeword_len {
                            return Err(GompressoError::Format(FormatError::InvalidHeaderField {
                                field: "code_max_len",
                                value: u64::from(code.max_len()),
                            }));
                        }
                    }
                    decode_bit_block(
                        &bit,
                        &self.coder,
                        payload.len(),
                        seq_block,
                        &mut scratch.tokens,
                        &mut scratch.stats,
                        self.simulate,
                    )?
                }
                EncodingMode::Byte => {
                    ByteBlock::deserialize(&mut r)?.decode_into(seq_block)?;
                    None
                }
            };

            // A mismatch here means the payload decoded to something other
            // than the size it (or the header) declared.
            if seq_block.uncompressed_len != dst.len() {
                return Err(GompressoError::OutputSizeMismatch {
                    declared: dst.len() as u64,
                    produced: seq_block.uncompressed_len as u64,
                });
            }

            decompress_block_into(seq_block, dst)?;

            let strategy = self.config.strategy.resolve(block);
            let check_de = self.config.validate_de && strategy == ResolutionStrategy::DependencyEliminated;
            if !(self.simulate || check_de) {
                return Ok(None);
            }
            let WarpDecompressOutcome { counters, mrr } =
                simulate_block_warp(seq_block, strategy, check_de, index)?;
            Ok(self.simulate.then(|| BlockSimulation {
                decode_counters: decode_warp.map(Warp::into_counters),
                lz77_counters: counters,
                mrr,
            }))
        })?;
        if let Some(stored) = checksum.filter(|_| self.config.verify_checksums) {
            let computed = gompresso_format::content_checksum(dst);
            if computed != stored {
                return Err(GompressoError::BlockChecksumMismatch { block: index as u64, stored, computed });
            }
        }
        Ok(simulation)
    }
}

/// Reads a payload's declared uncompressed size without building codes or
/// copying the bitstream.
fn peek_declared_size(mode: EncodingMode, payload: &[u8]) -> Result<u64> {
    Ok(match mode {
        EncodingMode::Bit => BitBlock::peek_uncompressed_len(payload)?,
        EncodingMode::Byte => ByteBlock::peek_uncompressed_len(payload)?,
    })
}

/// Parallel Huffman decoding of one block: each lane of the simulated warp
/// decodes one sub-block using the block's two shared decode LUTs.
///
/// The host decodes the sub-blocks one after another with a single cursor,
/// straight into the block buffers. With `simulate`, the returned warp is
/// charged per lock-step group of [`WARP_SIZE`] sub-blocks from the
/// per-sub-block stats, one sub-block per lane; without it, nothing is
/// charged.
fn decode_bit_block(
    bit: &BitBlock,
    coder: &TokenCoder,
    payload_bytes: usize,
    seq_block: &mut SequenceBlock,
    tokens: &mut InterleaveScratch,
    stats: &mut Vec<SubBlockStats>,
    simulate: bool,
) -> Result<Option<Warp>> {
    let mut warp = simulate.then(Warp::new);

    let lit_len_dec = DecodeTable::new(&bit.lit_len_code)?;
    let offset_dec = DecodeTable::new(&bit.offset_code)?;
    if let Some(warp) = &mut warp {
        // The compressed block is staged in device memory; reading it is a
        // coalesced streaming read.
        warp.global_read(payload_bytes as u64, true);
        // LUT construction into shared memory (charged once per block; on
        // the GPU the group's threads cooperate on this).
        let lut_bytes = u64::from(lit_len_dec.simulated_shared_bytes() + offset_dec.simulated_shared_bytes());
        warp.shared_write(lut_bytes);
        warp.charge_instructions(lut_bytes / 4);
    }

    let n_sub_blocks = bit.sub_block_count();
    let sequences = &mut seq_block.sequences;
    let literals = &mut seq_block.literals;
    sequences.clear();
    literals.clear();
    sequences.reserve((bit.n_sequences as usize).min(bit.bitstream.len().saturating_mul(8)));
    literals.reserve((bit.uncompressed_len as usize).min(bit.bitstream.len().saturating_mul(8)));
    seq_block.uncompressed_len = bit.uncompressed_len as usize;

    // Lanes process sub-blocks 32 at a time in lock step; the host decodes
    // each group in sub-block order into the block-level scratch buffers.
    // The bit cursor advances incrementally so seeking each sub-block is
    // O(1) instead of a per-sub-block prefix sum.
    let mut bit_cursor = 0u64;
    for group_start in (0..n_sub_blocks).step_by(WARP_SIZE) {
        let group_end = (group_start + WARP_SIZE).min(n_sub_blocks);
        stats.clear();
        bit.decode_sub_blocks_interleaved::<1>(
            group_start,
            group_end - group_start,
            bit_cursor,
            coder,
            &lit_len_dec,
            &offset_dec,
            tokens,
            sequences,
            literals,
            stats,
        )?;
        bit_cursor += bit.sub_block_bits[group_start..group_end].iter().map(|&b| u64::from(b)).sum::<u64>();

        let Some(warp) = &mut warp else { continue };
        let mut max_lane_symbols = 0u64;
        let mut group_sequences = 0u64;
        let mut group_shared_reads = 0u64;
        for sub_stats in stats.iter() {
            let symbols = sub_stats.symbols();
            max_lane_symbols = max_lane_symbols.max(symbols);
            group_sequences += u64::from(sub_stats.sequences);
            group_shared_reads += symbols * 4;
        }
        // Lock-step cost: the warp runs as long as its busiest lane.
        warp.charge_instructions(max_lane_symbols * INSTR_PER_SYMBOL + SUB_BLOCK_OVERHEAD_INSTR);
        warp.shared_read(group_shared_reads);
        // The decoded token stream is written back to device memory for the
        // LZ77 kernel (paper, Section III-B-1).
        warp.global_write(group_sequences * TOKEN_STREAM_BYTES_PER_SEQ, true);
        // Literal bytes also travel through the token stream.
        warp.global_write(literals.len() as u64, true);
    }

    Ok(warp)
}
