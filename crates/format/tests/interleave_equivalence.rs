//! Shipped sub-block decode ≡ reference sub-block decode.
//!
//! `BitBlock::decode_sub_blocks_interleaved` (one cursor walking the
//! requested sub-blocks) must append exactly the sequences and literals the
//! reference `decode_sub_block_into` walk produces, in the same order, for
//! every value of its unused `S` parameter — including single-symbol
//! sub-blocks and the short tail sub-block — and its per-sub-block stats
//! must agree with a re-walk of the decoded sequences. The differential
//! part pins the rest: hand-built blocks with every token-bucket edge under
//! every coder shape, and every bit flip and byte truncation of small
//! bitstreams, must give the same output or the same error from both.

use gompresso_format::token_code::TokenCoder;
use gompresso_format::{BitBlock, FormatError, InterleaveScratch, SubBlockStats};
use gompresso_huffman::DecodeTable;
use gompresso_lz77::{Matcher, MatcherConfig, Sequence, SequenceBlock};
use proptest::prelude::*;

fn coder() -> TokenCoder {
    TokenCoder::new(3, 64, 8 * 1024).unwrap()
}

/// Decodes the whole block with `S` interleaved streams, group-at-a-time
/// like the core driver (groups of 32 sub-blocks, incremented bit cursor).
fn interleaved_decode<const S: usize>(bit: &BitBlock) -> (Vec<Sequence>, Vec<u8>, Vec<SubBlockStats>) {
    let lit_dec = DecodeTable::new(&bit.lit_len_code).unwrap();
    let off_dec = DecodeTable::new(&bit.offset_code).unwrap();
    let mut scratch = InterleaveScratch::default();
    let mut sequences = Vec::new();
    let mut literals = Vec::new();
    let mut stats = Vec::new();
    let mut bit_cursor = 0u64;
    let n = bit.sub_block_count();
    for group_start in (0..n).step_by(32) {
        let count = 32.min(n - group_start);
        bit.decode_sub_blocks_interleaved::<S>(
            group_start,
            count,
            bit_cursor,
            &coder(),
            &lit_dec,
            &off_dec,
            &mut scratch,
            &mut sequences,
            &mut literals,
            &mut stats,
        )
        .unwrap();
        bit_cursor +=
            bit.sub_block_bits[group_start..group_start + count].iter().map(|&b| u64::from(b)).sum::<u64>();
    }
    (sequences, literals, stats)
}

fn sequential_decode(bit: &BitBlock) -> (Vec<Sequence>, Vec<u8>) {
    let lit_dec = DecodeTable::new(&bit.lit_len_code).unwrap();
    let off_dec = DecodeTable::new(&bit.offset_code).unwrap();
    let mut sequences = Vec::new();
    let mut literals = Vec::new();
    for i in 0..bit.sub_block_count() {
        bit.decode_sub_block_into(i, &coder(), &lit_dec, &off_dec, &mut sequences, &mut literals).unwrap();
    }
    (sequences, literals)
}

/// Per-sub-block ground truth for the stats, re-walked from the decoded
/// sequences.
fn stats_of(bit: &BitBlock, sequences: &[Sequence]) -> Vec<SubBlockStats> {
    let mut stats = Vec::new();
    let mut seq_cursor = 0usize;
    for i in 0..bit.sub_block_count() {
        let n = bit.sub_block_sequences(i).unwrap() as usize;
        let slice = &sequences[seq_cursor..seq_cursor + n];
        stats.push(SubBlockStats {
            sequences: n as u32,
            matches: slice.iter().filter(|s| s.has_match()).count() as u32,
            literals: slice.iter().map(|s| s.literal_len).sum(),
        });
        seq_cursor += n;
    }
    stats
}

fn check_all_stream_counts(bit: &BitBlock) {
    let (ref_seqs, ref_lits) = sequential_decode(bit);
    let expected_stats = stats_of(bit, &ref_seqs);

    macro_rules! check {
        ($s:literal) => {{
            let (seqs, lits, stats) = interleaved_decode::<$s>(bit);
            assert_eq!(seqs, ref_seqs, "S = {}", $s);
            assert_eq!(lits, ref_lits, "S = {}", $s);
            assert_eq!(stats, expected_stats, "S = {}", $s);
        }};
    }
    check!(1);
    check!(2);
    check!(3);
    check!(4);
    check!(8);
}

fn encode(input: &[u8], per_sub_block: u32) -> BitBlock {
    let block = Matcher::new(MatcherConfig::default()).compress(input);
    BitBlock::encode(&block, &coder(), per_sub_block, 10).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random compressible inputs across sub-block granularities, including
    /// granularities that leave sub-block counts not divisible by any S.
    #[test]
    fn interleaved_matches_sequential(
        input in proptest::collection::vec(proptest::collection::vec(0u8..12, 1..50), 1..80)
            .prop_map(|chunks| chunks.concat()),
        per_sub_block in prop_oneof![Just(1u32), Just(2), Just(3), Just(5), Just(8), Just(16)],
    ) {
        check_all_stream_counts(&encode(&input, per_sub_block));
    }

    /// Incompressible inputs: literal-heavy single-sequence sub-blocks.
    #[test]
    fn interleaved_matches_sequential_on_random_data(
        input in proptest::collection::vec(any::<u8>(), 0..2000),
        per_sub_block in prop_oneof![Just(1u32), Just(4), Just(16)],
    ) {
        check_all_stream_counts(&encode(&input, per_sub_block));
    }
}

#[test]
fn sub_block_counts_not_divisible_by_stream_count() {
    // Force specific sub-block counts around the chunk boundaries: 1, S-1,
    // S, S+1, 2S+3 sub-blocks for the S values under test.
    let input = b"the quick brown fox jumps over the lazy dog, again and again and again. ".repeat(60);
    let block = Matcher::new(MatcherConfig::default()).compress(&input);
    for target_sub_blocks in [1usize, 2, 3, 4, 5, 7, 9, 11] {
        let per = (block.sequences.len().div_ceil(target_sub_blocks)).max(1) as u32;
        let bit = BitBlock::encode(&block, &coder(), per, 10).unwrap();
        check_all_stream_counts(&bit);
    }
}

#[test]
fn empty_block_and_empty_range_are_noops() {
    let bit = encode(&[], 4);
    assert_eq!(bit.sub_block_count(), 0);
    let lit_dec = DecodeTable::new(&bit.lit_len_code).unwrap();
    let off_dec = DecodeTable::new(&bit.offset_code).unwrap();
    let mut scratch = InterleaveScratch::default();
    let (mut seqs, mut lits, mut stats) = (Vec::new(), Vec::new(), Vec::new());
    bit.decode_sub_blocks_interleaved::<4>(
        0,
        0,
        0,
        &coder(),
        &lit_dec,
        &off_dec,
        &mut scratch,
        &mut seqs,
        &mut lits,
        &mut stats,
    )
    .unwrap();
    assert!(seqs.is_empty() && lits.is_empty() && stats.is_empty());
}

#[test]
fn out_of_range_interleaved_decode_is_rejected() {
    let bit = encode(b"range check range check range check", 4);
    let lit_dec = DecodeTable::new(&bit.lit_len_code).unwrap();
    let off_dec = DecodeTable::new(&bit.offset_code).unwrap();
    let mut scratch = InterleaveScratch::default();
    let (mut seqs, mut lits, mut stats) = (Vec::new(), Vec::new(), Vec::new());
    let n = bit.sub_block_count();
    let err = bit.decode_sub_blocks_interleaved::<2>(
        0,
        n + 1,
        0,
        &coder(),
        &lit_dec,
        &off_dec,
        &mut scratch,
        &mut seqs,
        &mut lits,
        &mut stats,
    );
    assert!(err.is_err());
}

#[test]
fn corrupted_bitstream_interleaved_errors_not_panics() {
    let mut bit = encode(&b"corrupt me corrupt me corrupt me ".repeat(40), 8);
    let mid = bit.bitstream.len() / 2;
    let end = (mid + 24).min(bit.bitstream.len());
    for b in &mut bit.bitstream[mid..end] {
        *b ^= 0xA5;
    }
    let lit_dec = DecodeTable::new(&bit.lit_len_code).unwrap();
    let off_dec = DecodeTable::new(&bit.offset_code).unwrap();
    let mut scratch = InterleaveScratch::default();
    let (mut seqs, mut lits, mut stats) = (Vec::new(), Vec::new(), Vec::new());
    // Either an error or a structurally different decode is fine; a panic
    // is not.
    let _ = bit.decode_sub_blocks_interleaved::<4>(
        0,
        bit.sub_block_count(),
        0,
        &coder(),
        &lit_dec,
        &off_dec,
        &mut scratch,
        &mut seqs,
        &mut lits,
        &mut stats,
    );
}

type Decoded = (Vec<Sequence>, Vec<u8>);

/// The shipped decoder over the whole block under `coder`, in lock-step
/// groups of 32 sub-blocks with an incremented bit cursor, as the core
/// driver calls it.
fn shipped_decode(bit: &BitBlock, coder: &TokenCoder) -> Result<(Decoded, Vec<SubBlockStats>), FormatError> {
    let lit_dec = DecodeTable::new(&bit.lit_len_code)?;
    let off_dec = DecodeTable::new(&bit.offset_code)?;
    let mut scratch = InterleaveScratch::default();
    let (mut sequences, mut literals, mut stats) = (Vec::new(), Vec::new(), Vec::new());
    let mut bit_cursor = 0u64;
    let n = bit.sub_block_count();
    for group_start in (0..n).step_by(32) {
        let count = 32.min(n - group_start);
        bit.decode_sub_blocks_interleaved::<1>(
            group_start,
            count,
            bit_cursor,
            coder,
            &lit_dec,
            &off_dec,
            &mut scratch,
            &mut sequences,
            &mut literals,
            &mut stats,
        )?;
        bit_cursor +=
            bit.sub_block_bits[group_start..group_start + count].iter().map(|&b| u64::from(b)).sum::<u64>();
    }
    Ok(((sequences, literals), stats))
}

/// The reference walk, one `decode_sub_block_into` call per sub-block.
fn reference_decode(bit: &BitBlock, coder: &TokenCoder) -> Result<Decoded, FormatError> {
    let lit_dec = DecodeTable::new(&bit.lit_len_code)?;
    let off_dec = DecodeTable::new(&bit.offset_code)?;
    let (mut sequences, mut literals) = (Vec::new(), Vec::new());
    for i in 0..bit.sub_block_count() {
        bit.decode_sub_block_into(i, coder, &lit_dec, &off_dec, &mut sequences, &mut literals)?;
    }
    Ok((sequences, literals))
}

/// Both decoders must agree: the same sequences, literals and stats, or the
/// same error. Returns the common output, if any.
fn assert_same_outcome(bit: &BitBlock, coder: &TokenCoder, what: &str) -> Option<Decoded> {
    match (shipped_decode(bit, coder), reference_decode(bit, coder)) {
        (Ok((shipped, stats)), Ok(reference)) => {
            assert_eq!(shipped, reference, "{what}: decoded tokens differ");
            assert_eq!(stats, stats_of(bit, &reference.0), "{what}: stats differ");
            Some(shipped)
        }
        (Err(shipped), Err(reference)) => {
            assert_eq!(shipped, reference, "{what}: errors differ");
            None
        }
        (shipped, reference) => {
            panic!("{what}: shipped {:?} vs reference {:?}", shipped.map(|_| "Ok"), reference.map(|_| "Ok"))
        }
    }
}

/// The first and last value of every token-code bucket that meets
/// `0..=max`, plus `max`: values `0..=3` have a bucket each, then each bit
/// length `k ≥ 3` splits into two buckets of `2^(k-2)` values.
fn bucket_edges(max: u32) -> Vec<u32> {
    let max = u64::from(max);
    let mut edges: Vec<u64> = (0..4).filter(|&v| v <= max).collect();
    for k in 3..=32u32 {
        for half in 0..2u64 {
            let first = (1u64 << (k - 1)) + (half << (k - 2));
            if first <= max {
                edges.push(first);
                edges.push((first + (1u64 << (k - 2)) - 1).min(max));
            }
        }
    }
    edges.push(max);
    edges.sort_unstable();
    edges.dedup();
    edges.into_iter().map(|v| v as u32).collect()
}

/// A hand-built block: `filler` copies of one cheap match (so the edge
/// tokens get the long codewords), the `edges` sequences, then a closing
/// literal-only sequence. Every literal is `b'a'`.
fn edge_block(coder: &TokenCoder, filler: usize, edges: &[Sequence]) -> SequenceBlock {
    let common = Sequence { literal_len: 1, match_offset: 1, match_len: coder.min_match_len };
    let mut sequences = vec![common; filler];
    sequences.extend_from_slice(edges);
    sequences.push(Sequence { literal_len: 1, match_offset: 0, match_len: 0 });
    let literal_count: u32 = sequences.iter().map(|s| s.literal_len).sum();
    let uncompressed_len = sequences.iter().map(|s| (s.literal_len + s.match_len) as usize).sum();
    SequenceBlock { sequences, literals: vec![b'a'; literal_count as usize], uncompressed_len }
}

/// Encodes the edge sequences under `cwl`, splitting them over several
/// blocks where one block would need more distinct symbols than a
/// `cwl`-bit code can hold.
fn encode_edges(
    coder: &TokenCoder,
    cwl: u8,
    filler: usize,
    edges: &[Sequence],
    out: &mut Vec<(SequenceBlock, BitBlock)>,
) {
    let block = edge_block(coder, filler, edges);
    match BitBlock::encode(&block, coder, 7, cwl) {
        Ok(bit) => out.push((block, bit)),
        Err(_) if edges.len() > 1 => {
            let (a, b) = edges.split_at(edges.len() / 2);
            encode_edges(coder, cwl, filler, a, out);
            encode_edges(coder, cwl, filler, b, out);
        }
        Err(e) => panic!("one edge sequence must encode under CWL {cwl}: {e}"),
    }
}

/// Lengths and offsets at every bucket edge up to the coder maximum, under
/// every codeword limit, window and match-length cap the format allows at
/// its extremes. A 2^30 window puts 28 extra bits behind an offset
/// codeword, so a decoder that refilled only below 32 cached bits would
/// report a false end of stream here.
#[test]
fn bucket_edges_decode_like_the_reference_under_every_coder_shape() {
    for cwl in [2u8, 4, 10, 16] {
        for window in [256u32, 8 << 10, 64 << 10, 1 << 20, 1 << 30] {
            for max_match in [4u32, 64, 258, 65_536] {
                let coder = TokenCoder::new(3, max_match, window).unwrap();
                let lengths: Vec<u32> = bucket_edges(max_match - 3).into_iter().map(|v| v + 3).collect();
                let offsets: Vec<u32> = bucket_edges(window - 1).into_iter().map(|v| v + 1).collect();
                let edges: Vec<Sequence> = (0..lengths.len().max(offsets.len()))
                    .map(|i| Sequence {
                        literal_len: (i % 2) as u32,
                        match_offset: offsets[i % offsets.len()],
                        match_len: lengths[i % lengths.len()],
                    })
                    .collect();
                let mut blocks = Vec::new();
                encode_edges(&coder, cwl, 1 << cwl.min(12), &edges, &mut blocks);
                for (block, bit) in &blocks {
                    let what = format!("CWL {cwl}, window {window}, max match {max_match}");
                    let decoded = assert_same_outcome(bit, &coder, &what)
                        .unwrap_or_else(|| panic!("{what}: a valid block failed to decode"));
                    assert_eq!(decoded.0, block.sequences, "{what}");
                    assert_eq!(decoded.1, block.literals, "{what}");
                }
            }
        }
    }
}

/// Every single-bit flip and every byte truncation of small multi-sub-block
/// bitstreams: one from the matcher under the default test coder, one of
/// bucket edges under a 2^30 window and 16-bit codes.
#[test]
fn every_bit_flip_and_truncation_fails_or_decodes_like_the_reference() {
    let input: Vec<u8> = (0..40).flat_map(|i| format!("item {i}: flip me, cut me. ").into_bytes()).collect();
    let text = encode(&input, 3);
    let wide = TokenCoder::new(3, 258, 1 << 30).unwrap();
    let edges: Vec<Sequence> = bucket_edges((1 << 30) - 1)
        .into_iter()
        .enumerate()
        .map(|(i, v)| Sequence {
            literal_len: (i % 3) as u32,
            match_offset: v + 1,
            match_len: 3 + (i as u32 * 7) % 256,
        })
        .collect();
    let wide_block = BitBlock::encode(&edge_block(&wide, 40, &edges), &wide, 5, 16).unwrap();
    for (name, bit, coder) in [("text", text, coder()), ("wide", wide_block, wide)] {
        assert!(bit.sub_block_count() > 4, "{name}: want several sub-blocks");
        assert!(assert_same_outcome(&bit, &coder, name).is_some(), "{name}: intact block must decode");
        for flip in 0..bit.bitstream.len() * 8 {
            let mut damaged = bit.clone();
            damaged.bitstream[flip / 8] ^= 1 << (flip % 8);
            assert_same_outcome(&damaged, &coder, &format!("{name}: flip of bit {flip}"));
        }
        for cut in 0..bit.bitstream.len() {
            let mut damaged = bit.clone();
            damaged.bitstream.truncate(cut);
            assert_same_outcome(&damaged, &coder, &format!("{name}: cut to {cut} bytes"));
        }
    }
}
