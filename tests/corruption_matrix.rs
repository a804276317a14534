//! The corruption test matrix: every damage class the integrity layer
//! claims to handle, driven against both archive formats.
//!
//! The decoder contract under test is absolute: for ANY single-bit flip in
//! a v4 archive, strict decompression either returns an error or returns
//! bytes identical to the original input — never silently-wrong output.
//! On top of that, salvage must recover every block the damage did not
//! touch, byte-exactly.
//!
//! The matrix is exhaustive where it can afford to be (every bit of a
//! small multi-block archive) and seeded-random where it cannot
//! ([`FaultPlan::random_flips`]); both are fully deterministic.

use gompresso::{
    compress, decompress, decompress_salvage, decompress_with, ArchiveReader, CompressedFile,
    CompressorConfig, CostModel, DecompressorConfig, FaultPlan, FaultReader, GompressoError,
    StreamCompressor, StreamDecompressor,
};
use std::io::Cursor;
use std::path::Path;

/// Four-and-a-bit blocks of mildly compressible data: big enough that
/// per-block effects are distinguishable, small enough that the exhaustive
/// bit-flip sweep stays fast.
fn test_input() -> Vec<u8> {
    let mut data = Vec::with_capacity(2200);
    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    while data.len() < 2200 {
        data.extend_from_slice(b"the quick brown fox jumps over the lazy dog -- ");
        // A sprinkle of deterministic noise so blocks aren't identical.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        data.push((x & 0xFF) as u8);
    }
    data.truncate(2200);
    data
}

fn small_block_config() -> CompressorConfig {
    let mut c = CompressorConfig::bit_de();
    c.block_size = 512;
    c.sequences_per_sub_block = 4;
    c
}

fn container_archive(data: &[u8]) -> Vec<u8> {
    compress(data, &small_block_config()).unwrap().file.serialize()
}

/// Stream archive via the seekable path, so the prelude carries the
/// back-patched totals (the richest framing to attack).
fn stream_archive(data: &[u8]) -> Vec<u8> {
    let compressor = StreamCompressor::new(small_block_config()).unwrap();
    let mut cursor = Cursor::new(Vec::new());
    compressor.compress_seekable(data, &mut cursor).unwrap();
    cursor.into_inner()
}

fn container_decode(bytes: &[u8]) -> Result<Vec<u8>, GompressoError> {
    let file = CompressedFile::deserialize(bytes).map_err(GompressoError::Format)?;
    decompress(&file).map(|(out, _)| out)
}

/// Container decode under an explicit config (e.g. with the GPU simulation
/// on).
fn container_decode_with(bytes: &[u8], config: &DecompressorConfig) -> Result<Vec<u8>, GompressoError> {
    let file = CompressedFile::deserialize(bytes).map_err(GompressoError::Format)?;
    decompress_with(&file, config).map(|(out, _)| out)
}

fn stream_decode(bytes: &[u8]) -> Result<Vec<u8>, GompressoError> {
    let mut out = Vec::new();
    StreamDecompressor::new(DecompressorConfig::default()).decompress(bytes, &mut out).map(|_| out)
}

/// Byte offset where the container's block payloads start (everything
/// before it is header).
fn container_header_len(archive: &[u8]) -> usize {
    let file = CompressedFile::deserialize(archive).unwrap();
    archive.len() - file.header.block_compressed_sizes.iter().map(|&s| s as usize).sum::<usize>()
}

// ---------------------------------------------------------------------------
// Exhaustive single-bit-flip sweeps: detected, or byte-identical. Never
// silently wrong.
// ---------------------------------------------------------------------------

#[test]
fn exhaustive_bit_flips_on_container_are_never_silently_wrong() {
    let data = test_input();
    let archive = container_archive(&data);
    let header_len = container_header_len(&archive);
    let mut detected = 0u64;
    let mut benign = 0u64;
    for offset in 0..archive.len() {
        for bit in 0..8 {
            let damaged = FaultPlan::clean().flip(offset as u64, bit).apply_to(&archive);
            match container_decode(&damaged) {
                Err(_) => detected += 1,
                Ok(out) => {
                    assert_eq!(
                        out, data,
                        "SILENT CORRUPTION: flip of bit {bit} at byte {offset} decoded without \
                         error to different bytes"
                    );
                    benign += 1;
                }
            }
            // Salvage over a payload-region flip must hand back every
            // untouched block byte-exactly.
            if offset >= header_len {
                assert_salvaged_blocks_match_container(&damaged, &data, offset as u64);
            }
        }
    }
    assert!(detected > 0, "the sweep never tripped a check — matrix is not exercising detection");
    // Benign flips do exist: the unused padding bits at the tail of each
    // sub-block's Huffman bitstream don't participate in decoding, so
    // flipping them changes nothing. The contract only demands that such
    // flips yield byte-identical output — which the match above asserted.
    assert!(benign < detected / 10, "suspiciously many benign flips ({benign} vs {detected} detected)");
}

/// The GPU simulator only observes host decode: for every single-bit flip
/// of the container, decoding with a cost model returns exactly what the
/// default (execute-only) decode returns — the same bytes, or the same
/// corruption error.
#[test]
fn exhaustive_bit_flips_decode_the_same_with_and_without_simulation() {
    let data = test_input();
    let archive = container_archive(&data);
    let plain = DecompressorConfig::default();
    let simulated =
        DecompressorConfig { cost_model: Some(CostModel::tesla_k40()), ..DecompressorConfig::default() };
    assert!(plain.cost_model.is_none());
    let mut detected = 0u64;
    for offset in 0..archive.len() {
        for bit in 0..8 {
            let damaged = FaultPlan::clean().flip(offset as u64, bit).apply_to(&archive);
            match (container_decode_with(&damaged, &plain), container_decode_with(&damaged, &simulated)) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "flip of bit {bit} at byte {offset}: outputs differ"),
                (Err(a), Err(b)) => {
                    assert!(
                        a.is_corruption() && b.is_corruption(),
                        "flip of bit {bit} at byte {offset}: {a} / {b}"
                    );
                    assert_eq!(
                        std::mem::discriminant(a.root_cause()),
                        std::mem::discriminant(b.root_cause()),
                        "flip of bit {bit} at byte {offset}: root causes differ: {a} / {b}"
                    );
                    assert_eq!(a, b, "flip of bit {bit} at byte {offset}: errors differ");
                    detected += 1;
                }
                (a, b) => panic!("flip of bit {bit} at byte {offset}: execute-only {a:?} vs simulated {b:?}"),
            }
        }
    }
    assert!(detected > 0, "the sweep never tripped a check");
}

#[test]
fn exhaustive_bit_flips_on_stream_are_never_silently_wrong() {
    let data = test_input();
    let archive = stream_archive(&data);
    let prelude_len = gompresso::substrate::format::stream_frame::PRELUDE_LEN;
    let mut detected = 0u64;
    for offset in 0..archive.len() {
        for bit in 0..8 {
            let damaged = FaultPlan::clean().flip(offset as u64, bit).apply_to(&archive);
            match stream_decode(&damaged) {
                Err(_) => detected += 1,
                Ok(out) => {
                    assert_eq!(
                        out, data,
                        "SILENT CORRUPTION: flip of bit {bit} at byte {offset} decoded without \
                         error to different bytes"
                    );
                }
            }
            if offset >= prelude_len {
                assert_salvaged_blocks_match_stream(&damaged, &data, offset as u64);
            }
        }
    }
    assert!(detected > 0, "the sweep never tripped a check — matrix is not exercising detection");
}

/// After a single payload-region flip, container salvage must report every
/// block whose input range excludes the flip as recovered, byte-exactly.
fn assert_salvaged_blocks_match_container(damaged: &[u8], data: &[u8], flip_at: u64) {
    let (out, report) = decompress_salvage(damaged, &DecompressorConfig::default())
        .unwrap_or_else(|e| panic!("container salvage refused a payload flip at {flip_at}: {e}"));
    for record in &report.blocks {
        let touched = flip_at >= record.input_range.0 && flip_at < record.input_range.1;
        let (s, e) = (record.output_range.0 as usize, record.output_range.1 as usize);
        if record.status.is_recovered() {
            assert_eq!(
                &out[s..e],
                &data[s..e],
                "recovered block {} differs (flip at {flip_at})",
                record.block
            );
        } else {
            assert!(touched, "block {} lost but the flip at {flip_at} is outside it", record.block);
            assert!(out[s..e].iter().all(|&b| b == 0), "lost block {} not zero-filled", record.block);
        }
    }
}

/// After a single post-prelude flip, stream salvage must recover every
/// frame the flip did not touch (trailer flips drop to the scan path and
/// still recover everything).
fn assert_salvaged_blocks_match_stream(damaged: &[u8], data: &[u8], flip_at: u64) {
    let (out, report) = StreamDecompressor::new(DecompressorConfig::default())
        .salvage_bytes(damaged)
        .unwrap_or_else(|e| panic!("stream salvage refused a post-prelude flip at {flip_at}: {e}"));
    for record in &report.blocks {
        let touched = flip_at >= record.input_range.0 && flip_at < record.input_range.1;
        let (s, e) = (record.output_range.0 as usize, record.output_range.1 as usize);
        if record.status.is_recovered() {
            assert_eq!(
                &out[s..e],
                &data[s..e],
                "recovered block {} differs (flip at {flip_at})",
                record.block
            );
        } else {
            assert!(touched, "block {} lost but the flip at {flip_at} is outside it", record.block);
        }
    }
    assert!(
        report.blocks.iter().filter(|b| !b.status.is_recovered()).count() <= 1,
        "one flip at {flip_at} must cost at most one block"
    );
}

// ---------------------------------------------------------------------------
// Salvage semantics on specific damage shapes.
// ---------------------------------------------------------------------------

#[test]
fn salvage_of_intact_archives_is_complete_and_identical() {
    let data = test_input();

    let archive = container_archive(&data);
    let (out, report) = decompress_salvage(&archive, &DecompressorConfig::default()).unwrap();
    assert_eq!(out, data);
    assert!(report.is_complete());
    assert!(report.head_intact && report.trailer_intact && report.checksummed);
    assert_eq!(report.bytes_recovered, data.len() as u64);

    let stream = stream_archive(&data);
    let (out, report) =
        StreamDecompressor::new(DecompressorConfig::default()).salvage_bytes(&stream).unwrap();
    assert_eq!(out, data);
    assert!(report.is_complete());
    assert!(report.head_intact && report.trailer_intact && report.checksummed);
    assert_eq!(report.resyncs, 0, "intact stream must take the exact-offset path");
}

#[test]
fn stream_salvage_without_trailer_resynchronizes_by_scanning() {
    let data = test_input();
    let stream = stream_archive(&data);
    // Kill the trailer magic AND a mid-stream frame: salvage loses both
    // the exact-offset path and one block, and must scan its way back.
    let mid = (stream.len() / 2) as u64;
    let damaged = FaultPlan::clean().flip(mid, 2).flip(stream.len() as u64 - 2, 0).apply_to(&stream);
    let (out, report) =
        StreamDecompressor::new(DecompressorConfig::default()).salvage_bytes(&damaged).unwrap();
    assert!(!report.trailer_intact, "trailer magic flip must disable the exact-offset path");
    assert!(report.resyncs >= 1, "a damaged frame without a trailer must force a resync");
    assert_eq!(report.blocks_lost, 1, "one flip must cost exactly one region");
    assert!(report.lost_sizes_exact, "with prelude totals the single gap is exactly sized");
    assert_eq!(out.len(), data.len(), "output length must be reconstructed exactly");
    for record in report.blocks.iter().filter(|b| b.status.is_recovered()) {
        let (s, e) = (record.output_range.0 as usize, record.output_range.1 as usize);
        assert_eq!(&out[s..e], &data[s..e], "recovered block {} differs", record.block);
    }
}

#[test]
fn stream_salvage_recovers_prefix_of_truncated_archive() {
    let data = test_input();
    let stream = stream_archive(&data);
    // Cut the stream at 60%: the trailer is gone; every complete frame
    // before the cut must still come back.
    let cut = stream.len() * 6 / 10;
    let damaged = FaultPlan::clean().truncate(cut as u64).apply_to(&stream);
    let (out, report) =
        StreamDecompressor::new(DecompressorConfig::default()).salvage_bytes(&damaged).unwrap();
    assert!(!report.trailer_intact);
    assert!(report.blocks_recovered >= 1, "a 60% prefix of a 5-block stream holds complete frames");
    for record in report.blocks.iter().filter(|b| b.status.is_recovered()) {
        let (s, e) = (record.output_range.0 as usize, record.output_range.1 as usize);
        assert_eq!(&out[s..e], &data[s..e], "recovered block {} differs", record.block);
    }
}

#[test]
fn container_salvage_survives_header_checksum_damage() {
    let data = test_input();
    let archive = container_archive(&data);
    // The v4 header checksum is the u64 right before the payloads; flipping
    // it invalidates no field, so lenient parsing proceeds and the
    // per-block checksums arbitrate every byte.
    let header_len = container_header_len(&archive);
    let damaged = FaultPlan::clean().flip(header_len as u64 - 5, 7).apply_to(&archive);
    assert!(container_decode(&damaged).is_err(), "strict decode must reject the bad header checksum");
    let (out, report) = decompress_salvage(&damaged, &DecompressorConfig::default()).unwrap();
    assert!(!report.head_intact);
    assert!(report.is_complete(), "payloads are pristine; salvage must recover everything");
    assert_eq!(out, data);
}

#[test]
fn stream_salvage_names_the_damaged_frame_in_its_root_cause() {
    // Byte-mode blocks of noise are one literal run each, so flipping a
    // frame's last payload byte changes one output byte: the frame still
    // decodes, and only its content checksum can catch the damage.
    let mut data = Vec::with_capacity(2200);
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    while data.len() < 2200 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        data.push((x >> 24) as u8);
    }
    let mut config = CompressorConfig::byte();
    config.block_size = 512;
    let mut cursor = Cursor::new(Vec::new());
    StreamCompressor::new(config).unwrap().compress_seekable(&data[..], &mut cursor).unwrap();
    let stream = cursor.into_inner();
    let entries =
        gompresso::ArchiveReader::open(Cursor::new(stream.clone())).unwrap().index().entries().to_vec();
    assert!(entries.len() >= 4, "need a multi-block archive");

    for (k, entry) in entries.iter().enumerate().skip(1) {
        let last_payload_byte = entry.compressed_offset + u64::from(entry.compressed_size) - 1;
        let damaged = FaultPlan::clean().flip(last_payload_byte, 0).apply_to(&stream);
        // With the trailer intact salvage takes the exact-offset path;
        // with its magic flipped too it scans frame by frame. Both must
        // blame frame k.
        let no_trailer = FaultPlan::clean().flip(stream.len() as u64 - 2, 0).apply_to(&damaged);
        for (path, archive) in [("trailer", &damaged), ("scan", &no_trailer)] {
            let (_, report) =
                StreamDecompressor::new(DecompressorConfig::default()).salvage_bytes(archive).unwrap();
            let lost: Vec<_> = report.blocks.iter().filter(|b| !b.status.is_recovered()).collect();
            assert_eq!(lost.len(), 1, "{path}: one flip must cost one block (frame {k})");
            let gompresso::BlockStatus::Lost(error) = &lost[0].status else { unreachable!() };
            assert!(
                matches!(
                    error.root_cause(),
                    GompressoError::BlockChecksumMismatch { block, .. } if *block == k as u64
                ),
                "{path}: frame {k} root cause is {error}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Random-access damage locality: a flip in block k fails exactly the
// ranges that touch block k.
// ---------------------------------------------------------------------------

/// For each block k of a v4 archive (either layout), flip one payload bit
/// of that block and drive every block's range through `ArchiveReader`:
/// ranges not touching k must decode byte-exactly, and the flip must be
/// detected on block k itself (or be benign padding, in which case k too
/// decodes byte-exactly). Damage never leaks across block boundaries.
#[test]
fn range_decode_fails_only_ranges_touching_the_damaged_block() {
    let data = test_input();
    for archive in [container_archive(&data), stream_archive(&data)] {
        let entries: Vec<_> = {
            let reader = gompresso::ArchiveReader::open(Cursor::new(archive.clone())).unwrap();
            assert!(reader.index().checksummed(), "v4 archives carry per-block checksums");
            reader.index().entries().to_vec()
        };
        assert!(entries.len() >= 4, "need a multi-block archive");
        let mut detected = 0u64;
        for (k, damaged_entry) in entries.iter().enumerate() {
            let flip_at = damaged_entry.compressed_offset + u64::from(damaged_entry.compressed_size) / 2;
            let damaged = FaultPlan::clean().flip(flip_at, 3).apply_to(&archive);
            let mut reader = gompresso::ArchiveReader::open(Cursor::new(damaged))
                .unwrap_or_else(|e| panic!("payload flip in block {k} must not break the index: {e}"));
            for (j, entry) in entries.iter().enumerate() {
                let range = entry.uncompressed_range();
                match reader.decompress_range(range.clone()) {
                    Ok(out) => assert_eq!(
                        out,
                        &data[range.start as usize..range.end as usize],
                        "block {j} decoded wrong after a flip in block {k}"
                    ),
                    Err(e) => {
                        assert_eq!(j, k, "flip in block {k} failed unrelated block {j}: {e}");
                        detected += 1;
                    }
                }
            }
            // A range spanning all blocks touches the damaged one, so it
            // must agree with the per-block outcome: full-file decode
            // errors exactly when block k's own range did.
            let full = reader.decompress_range(0..data.len() as u64);
            let block_ok = reader.decompress_range(damaged_entry.uncompressed_range()).is_ok();
            assert_eq!(full.is_ok(), block_ok, "full-range outcome diverges for flip in block {k}");
            if let Ok(out) = full {
                assert_eq!(out, data);
            }
        }
        assert!(detected > 0, "no payload flip was ever detected — the matrix is toothless");
    }
}

// ---------------------------------------------------------------------------
// Fault-injection matrix: seeded random damage through the Read adapter.
// ---------------------------------------------------------------------------

#[test]
fn fault_reader_matrix_never_yields_silent_corruption() {
    let data = test_input();
    let stream = stream_archive(&data);
    let len = stream.len() as u64;

    let mut plans = Vec::new();
    for seed in 0..32u64 {
        plans.push(FaultPlan::random_flips(seed, len, 1 + (seed % 4) as usize));
    }
    for cut in [1u64, len / 4, len / 2, len - 1] {
        plans.push(FaultPlan::clean().truncate(cut));
    }
    for at in [0u64, 5, len / 3, len - 8] {
        plans.push(FaultPlan::clean().error(at));
    }

    for (i, plan) in plans.iter().enumerate() {
        let reader = FaultReader::new(stream.as_slice(), plan.clone());
        let mut out = Vec::new();
        match StreamDecompressor::new(DecompressorConfig::default()).decompress(reader, &mut out) {
            Err(_) => {}
            Ok(_) => assert_eq!(out, data, "plan #{i} ({plan:?}) decoded silently wrong"),
        }
    }
}

#[test]
fn short_reads_alone_are_harmless() {
    let data = test_input();
    let stream = stream_archive(&data);
    for cap in [1usize, 2, 3, 7, 64] {
        let reader = FaultReader::new(stream.as_slice(), FaultPlan::clean().short_reads(cap));
        let mut out = Vec::new();
        StreamDecompressor::new(DecompressorConfig::default())
            .decompress(reader, &mut out)
            .unwrap_or_else(|e| panic!("short reads of {cap} bytes broke the decoder: {e}"));
        assert_eq!(out, data, "short reads of {cap} bytes changed the output");
    }
}

// ---------------------------------------------------------------------------
// Committed damaged fixtures: the on-disk corpus for `verify`/`salvage`.
// ---------------------------------------------------------------------------

fn fixture(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

#[test]
fn damaged_stream_fixture_fails_strict_and_salvages() {
    let input = fixture("fixture_input.bin");
    let damaged = fixture("v4_damaged_frame.gpsos");
    let err = stream_decode(&damaged).expect_err("damaged fixture must not decode strictly");
    assert!(err.is_corruption(), "strict decode must classify the damage as corruption: {err}");
    let (out, report) =
        StreamDecompressor::new(DecompressorConfig::default()).salvage_bytes(&damaged).unwrap();
    assert_eq!(report.blocks_lost, 1, "the fixture damages exactly one frame");
    assert_eq!(out.len(), input.len());
    for record in report.blocks.iter().filter(|b| b.status.is_recovered()) {
        let (s, e) = (record.output_range.0 as usize, record.output_range.1 as usize);
        assert_eq!(&out[s..e], &input[s..e], "recovered block {} differs", record.block);
    }
}

#[test]
fn truncated_stream_fixture_salvages_prefix() {
    let input = fixture("fixture_input.bin");
    let damaged = fixture("v4_truncated.gpsos");
    assert!(stream_decode(&damaged).is_err(), "truncated fixture must not decode strictly");
    let (out, report) =
        StreamDecompressor::new(DecompressorConfig::default()).salvage_bytes(&damaged).unwrap();
    assert!(report.blocks_recovered >= 1);
    for record in report.blocks.iter().filter(|b| b.status.is_recovered()) {
        let (s, e) = (record.output_range.0 as usize, record.output_range.1 as usize);
        assert_eq!(&out[s..e], &input[s..e], "recovered block {} differs", record.block);
    }
}

#[test]
fn damaged_container_fixture_fails_strict_and_salvages() {
    let input = fixture("fixture_input.bin");
    let damaged = fixture("v4_damaged_block.gpso");
    assert!(container_decode(&damaged).is_err(), "damaged fixture must not decode strictly");
    let (out, report) = decompress_salvage(&damaged, &DecompressorConfig::default()).unwrap();
    assert_eq!(report.blocks_lost, 1, "the fixture damages exactly one block");
    assert_eq!(out.len(), input.len());
    for record in report.blocks.iter().filter(|b| b.status.is_recovered()) {
        let (s, e) = (record.output_range.0 as usize, record.output_range.1 as usize);
        assert_eq!(&out[s..e], &input[s..e], "recovered block {} differs", record.block);
    }
}

#[test]
fn intact_v4_fixtures_decode_and_verify() {
    let input = fixture("fixture_input.bin");
    assert_eq!(container_decode(&fixture("v4_bit_de.gpso")).unwrap(), input);
    assert_eq!(stream_decode(&fixture("v4_bit_de.gpsos")).unwrap(), input);
}

/// Regenerates the v4 fixtures (intact and damaged). Run explicitly:
/// `cargo test -p gompresso --test corruption_matrix -- --ignored regenerate`
/// and commit the results. Damage positions derive from the intact bytes,
/// so regeneration is deterministic.
/// A Bit payload's Huffman code carries its own maximum codeword length,
/// which sizes a decode table of 2^max_len entries. Raising that one byte
/// from the block's CWL (10) to 24 would make a few payload bytes allocate a
/// 64 MiB table; every driver must refuse the block first, with the same
/// typed error.
#[test]
fn code_wider_than_the_block_cwl_is_refused_by_every_driver() {
    use gompresso::substrate::bitstream::{read_varint, ByteReader};
    use gompresso::substrate::format::FormatError;

    let data = test_input();
    let mut config = small_block_config();
    config.max_codeword_len = 10;
    let container = compress(&data, &config).unwrap().file.serialize();
    let mut cursor = Cursor::new(Vec::new());
    StreamCompressor::new(config).unwrap().compress_seekable(data.as_slice(), &mut cursor).unwrap();
    let stream = cursor.into_inner();

    let refused = |err: &GompressoError, what: &str| {
        assert!(
            matches!(
                err.root_cause(),
                GompressoError::Format(FormatError::InvalidHeaderField { field: "code_max_len", value: 24 })
            ),
            "{what}: expected the code_max_len refusal, got {err:?}"
        );
    };
    for (name, mut archive) in [("container", container), ("stream", stream)] {
        // The literal/length code opens block 0's payload: a varint
        // alphabet size, then the max-length byte.
        let entry = ArchiveReader::open(Cursor::new(archive.clone())).unwrap().index().entry(0).clone();
        let payload_at = entry.compressed_offset as usize;
        let mut r = ByteReader::new(&archive[payload_at..]);
        read_varint(&mut r).unwrap();
        let max_len_at = payload_at + r.position();
        assert_eq!(archive[max_len_at], 10, "{name}: the code records the block's CWL");
        archive[max_len_at] = 24;

        let err = if name == "container" { container_decode(&archive) } else { stream_decode(&archive) };
        refused(&err.unwrap_err(), name);
        let mut reader = ArchiveReader::open(Cursor::new(archive)).unwrap();
        refused(&reader.decompress_range(0..1).unwrap_err(), &format!("{name} range read"));
    }
}

#[test]
#[ignore = "fixture generator, run manually"]
fn regenerate_v4_fixtures() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let input = fixture("fixture_input.bin");
    let mut config = CompressorConfig::bit_de();
    config.block_size = 32 * 1024; // match the v1-v3 fixture geometry

    let container = compress(&input, &config).unwrap().file.serialize();
    std::fs::write(dir.join("v4_bit_de.gpso"), &container).unwrap();

    let compressor = StreamCompressor::new(config).unwrap();
    let mut cursor = Cursor::new(Vec::new());
    compressor.compress_seekable(input.as_slice(), &mut cursor).unwrap();
    let stream = cursor.into_inner();
    std::fs::write(dir.join("v4_bit_de.gpsos"), &stream).unwrap();

    // One flip in the middle of the stream (inside some frame's payload).
    let damaged = FaultPlan::clean().flip(stream.len() as u64 / 2, 3).apply_to(&stream);
    std::fs::write(dir.join("v4_damaged_frame.gpsos"), damaged).unwrap();

    // Truncation at 70%: loses the tail frames and the whole trailer.
    let truncated = FaultPlan::clean().truncate(stream.len() as u64 * 7 / 10).apply_to(&stream);
    std::fs::write(dir.join("v4_truncated.gpsos"), truncated).unwrap();

    // One flip in the middle of the container's payload region.
    let header_len = container_header_len(&container);
    let mid_payload = (header_len + (container.len() - header_len) / 2) as u64;
    let damaged = FaultPlan::clean().flip(mid_payload, 5).apply_to(&container);
    std::fs::write(dir.join("v4_damaged_block.gpso"), damaged).unwrap();
}
