//! Massively-parallel decompression (paper, Section III-B).
//!
//! Decompression exploits two levels of parallelism:
//!
//! * **inter-block** — every data block is independent; blocks are handed to
//!   a rayon thread pool, standing in for the GPU grid of thread groups;
//! * **intra-block** — within each block, a simulated 32-lane warp performs
//!   parallel Huffman decoding (one sub-block per lane, Gompresso/Bit only)
//!   followed by warp-level LZ77 decompression with the block's
//!   back-reference resolution strategy.
//!
//! Since the v3 container every block carries its own
//! [`BlockConfig`](crate::BlockConfig), so a single file may mix Huffman and
//! byte-coded blocks and mix resolution strategies. The decompressor follows
//! those records by default ([`StrategySelection::Planned`]) and can force
//! one strategy file-wide for experiments ([`StrategySelection::Force`], the
//! paper's Figure 9a sweep). Each block is decoded by the crate's one block
//! decoder, which the stream, random-access and salvage drivers share.
//!
//! Host decode executes only. The GPU simulation is an observer that runs
//! when asked for: with [`DecompressorConfig::cost_model`] set, the
//! in-memory [`Decompressor`] also walks every block's validated sequences
//! on a simulated warp, charging the instruction, memory and round counters
//! that the cost model turns into the GPU time estimates of
//! [`DecompressionReport::simulation`]. The stream, random-access, salvage
//! and scan drivers never simulate. A forced [`StrategySelection`] changes
//! only what the simulator charges and which blocks DE validation checks;
//! the decompressed bytes are the same under every strategy.

use crate::block_decoder::BlockDecoder;
use crate::stats::{DecompressionReport, GpuSimulation, MrrStats};
use crate::strategy::StrategySelection;
use crate::{GompressoError, Result};
use gompresso_format::CompressedFile;
use gompresso_simt::{CostModel, KernelCounters};
use rayon::prelude::*;
use std::time::Instant;

/// Decompressor configuration.
#[derive(Debug, Clone)]
pub struct DecompressorConfig {
    /// How to pick each block's back-reference resolution strategy: follow
    /// the per-block records (default) or force one strategy file-wide.
    pub strategy: StrategySelection,
    /// When a block resolves with the DE strategy, verify the DE invariant
    /// and fail with [`GompressoError::DependencyEliminationViolated`] if
    /// the block was not compressed with Dependency Elimination.
    pub validate_de: bool,
    /// GPU device / PCIe model for the time estimates. `None` (the
    /// default) decodes without simulating; `Some` makes
    /// [`Decompressor::decompress`] simulate every block and report the
    /// estimate. Only the in-memory decompressor reads it.
    pub cost_model: Option<CostModel>,
    /// Hard ceiling on the decompressed output size the decompressor will
    /// allocate (default 4 GiB). Together with the per-block payload
    /// plausibility bound this keeps a crafted header from requesting an
    /// arbitrarily large allocation; raise it explicitly for larger files.
    pub max_output_size: u64,
    /// Verify each block's stored content checksum against the bytes
    /// actually produced (v4 archives; pre-v4 archives carry no checksums
    /// and skip the check). On by default — the explicit opt-out exists for
    /// benchmarking the raw decode path and for callers that layer their
    /// own end-to-end integrity checks.
    pub verify_checksums: bool,
}

impl Default for DecompressorConfig {
    fn default() -> Self {
        DecompressorConfig {
            strategy: StrategySelection::Planned,
            validate_de: false,
            cost_model: None,
            max_output_size: 4 << 30,
            verify_checksums: true,
        }
    }
}

/// Gompresso decompressor.
#[derive(Debug, Clone)]
pub struct Decompressor {
    config: DecompressorConfig,
}

/// Decompresses `file` with the default configuration (per-block planned
/// strategies, no GPU simulation).
pub fn decompress(file: &CompressedFile) -> Result<(Vec<u8>, DecompressionReport)> {
    Decompressor::new(DecompressorConfig::default()).decompress(file)
}

/// Decompresses `file` with an explicit configuration.
pub fn decompress_with(
    file: &CompressedFile,
    config: &DecompressorConfig,
) -> Result<(Vec<u8>, DecompressionReport)> {
    Decompressor::new(config.clone()).decompress(file)
}

impl Decompressor {
    /// Creates a decompressor.
    pub fn new(config: DecompressorConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DecompressorConfig {
        &self.config
    }

    /// Decompresses an in-memory Gompresso file, returning the original data
    /// and a report; the report carries the GPU simulation (counters, MRR
    /// statistics, time estimates) when the config sets a cost model.
    ///
    /// The output buffer is allocated exactly once; every worker writes its
    /// blocks' bytes directly into the block's disjoint slice of that
    /// buffer (located via the header's prefix-summed block sizes), so each
    /// decompressed byte is written exactly once and never re-copied.
    pub fn decompress(&self, file: &CompressedFile) -> Result<(Vec<u8>, DecompressionReport)> {
        let start = Instant::now();
        let header = &file.header;
        header.validate()?;
        let decoder = BlockDecoder::new(
            self.config.clone(),
            header.min_match_len,
            header.max_match_len,
            header.window_size,
        )?
        .simulating();

        // Before allocating `uncompressed_size` bytes, bound the header's
        // claim: the total must not exceed the configured output ceiling,
        // every block's payload-declared size must agree with the header,
        // and no block may claim more output than its payload bytes could
        // plausibly expand to — so neither a corrupt nor a crafted header
        // can trigger an enormous allocation backed by a tiny payload.
        if header.uncompressed_size > self.config.max_output_size {
            return Err(GompressoError::Format(gompresso_format::FormatError::InvalidHeaderField {
                field: "uncompressed_size",
                value: header.uncompressed_size,
            }));
        }
        validate_declared_sizes(&decoder, file)?;

        let mut output = vec![0u8; header.uncompressed_size as usize];
        let mut work: Vec<(usize, &[u8], &mut [u8])> = Vec::with_capacity(file.blocks.len());
        let mut rest: &mut [u8] = &mut output;
        for (idx, payload) in file.blocks.iter().enumerate() {
            let (dst, tail) = rest.split_at_mut(header.block_uncompressed_size(idx) as usize);
            rest = tail;
            work.push((idx, payload.bytes.as_slice(), dst));
        }

        let results: Vec<_> = work
            .into_par_iter()
            .map(|(idx, payload, dst)| {
                decoder
                    .decode(
                        header.block_config(idx),
                        idx,
                        payload,
                        header.block_checksums.get(idx).copied(),
                        dst,
                    )
                    .map_err(|e| e.in_block(idx as u64, None))
            })
            .collect();

        let blocks = results.into_iter().collect::<Result<Vec<_>>>()?;
        let compressed_size = file.compressed_size() as u64;
        let simulation = self.config.cost_model.as_ref().map(|cost| {
            let mut decode_counters = KernelCounters::new();
            let mut lz77_counters = KernelCounters::new();
            let mut mrr = MrrStats::default();
            for block in blocks.iter().flatten() {
                if let Some(decode) = &block.decode_counters {
                    decode_counters.add_warp(decode);
                }
                lz77_counters.add_warp(&block.lz77_counters);
                mrr.merge(&block.mrr);
            }
            let gpu = DecompressionReport::estimate(
                cost,
                &decode_counters,
                &lz77_counters,
                header.max_codeword_len(),
                compressed_size,
                header.uncompressed_size,
            );
            GpuSimulation { decode_counters, lz77_counters, mrr, gpu }
        });
        let report = DecompressionReport {
            uncompressed_size: header.uncompressed_size,
            compressed_size,
            wall_seconds: start.elapsed().as_secs_f64(),
            simulation,
        };
        Ok((output, report))
    }
}

/// Checks, before any output allocation, that the header's claimed
/// `uncompressed_size` is corroborated by the blocks themselves: every
/// block must pass the decoder's declared-size check against its
/// header-derived size, and those sizes must sum to the header's total.
fn validate_declared_sizes(decoder: &BlockDecoder, file: &CompressedFile) -> Result<()> {
    let header = &file.header;
    let mut total = 0u64;
    for (idx, payload) in file.blocks.iter().enumerate() {
        let expected = header.block_uncompressed_size(idx);
        decoder.check_declared_size(header.block_config(idx).mode, &payload.bytes, expected)?;
        total += expected;
    }
    if total != header.uncompressed_size {
        return Err(GompressoError::OutputSizeMismatch {
            declared: header.uncompressed_size,
            produced: total,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::compress;
    use crate::config::CompressorConfig;
    use crate::strategy::ResolutionStrategy;
    use gompresso_format::{BlockConfig, EncodingMode};

    fn wiki_like(len: usize) -> Vec<u8> {
        let mut data = Vec::with_capacity(len);
        let mut i = 0u64;
        while data.len() < len {
            data.extend_from_slice(
                format!(
                    "<page><title>Article {}</title><text>The quick brown fox jumps over entry {} of the corpus.</text></page>\n",
                    i % 1000,
                    i
                )
                .as_bytes(),
            );
            i += 1;
        }
        data.truncate(len);
        data
    }

    fn cfg_small(mut c: CompressorConfig) -> CompressorConfig {
        c.block_size = 64 * 1024;
        c
    }

    /// The default config plus the K40 cost model, for tests that read the
    /// GPU simulation.
    fn simulated() -> DecompressorConfig {
        DecompressorConfig { cost_model: Some(CostModel::tesla_k40()), ..DecompressorConfig::default() }
    }

    #[test]
    fn only_a_cost_model_makes_decode_simulate() {
        let data = wiki_like(100_000);
        let out = compress(&data, &cfg_small(CompressorConfig::bit_de())).unwrap();
        let (plain, report) = decompress(&out.file).unwrap();
        assert!(report.simulation.is_none());
        assert_eq!(report.gpu_bandwidth_no_pcie(), None);
        assert_eq!(report.gpu_bandwidth_in(), None);
        assert_eq!(report.gpu_bandwidth_in_out(), None);

        let (simulated_bytes, report) = decompress_with(&out.file, &simulated()).unwrap();
        assert_eq!(simulated_bytes, plain);
        let sim = report.simulation.as_ref().expect("a cost model was set");
        assert_eq!(sim.lz77_counters.warps as usize, out.file.blocks.len());
        assert!(report.gpu_bandwidth_no_pcie().is_some_and(|bw| bw > 0.0));
    }

    #[test]
    fn bit_mode_roundtrip_with_all_strategies() {
        let data = wiki_like(300_000);
        let out = compress(&data, &cfg_small(CompressorConfig::bit_de())).unwrap();
        for strategy in ResolutionStrategy::ALL {
            let config = DecompressorConfig { strategy: strategy.into(), ..simulated() };
            let (restored, report) = decompress_with(&out.file, &config).unwrap();
            assert_eq!(restored, data, "strategy {strategy}");
            assert_eq!(report.uncompressed_size, data.len() as u64);
            assert!(report.compressed_size > 0);
            assert!(report.wall_seconds > 0.0);
            let sim = report.simulation.expect("a cost model was set");
            // Bit mode runs a decode kernel on every block.
            assert_eq!(sim.decode_counters.warps as usize, out.file.blocks.len());
            assert_eq!(sim.lz77_counters.warps as usize, out.file.blocks.len());
            assert!(sim.gpu.decode_kernel_s > 0.0);
            assert!(sim.gpu.lz77_kernel_s > 0.0);
            assert!(sim.gpu.with_io_s() > sim.gpu.device_only_s());
        }
    }

    #[test]
    fn byte_mode_roundtrip_and_fused_kernel() {
        let data = wiki_like(200_000);
        let out = compress(&data, &cfg_small(CompressorConfig::byte_de())).unwrap();
        let (restored, report) = decompress_with(&out.file, &simulated()).unwrap();
        assert_eq!(restored, data);
        let sim = report.simulation.expect("a cost model was set");
        // Byte mode has no separate Huffman decode kernel.
        assert_eq!(sim.decode_counters.warps, 0);
        assert_eq!(sim.gpu.decode_kernel_s, 0.0);
        assert!(sim.gpu.lz77_kernel_s > 0.0);
    }

    #[test]
    fn planned_selection_follows_per_block_records() {
        // A DE file's blocks record the DE strategy; a plain file's record
        // MRR. The default (planned) selection must resolve both correctly
        // with DE validation enabled — proving it reads the records rather
        // than assuming one strategy file-wide.
        let data = wiki_like(200_000);
        let config = DecompressorConfig { validate_de: true, ..DecompressorConfig::default() };
        for compressor in [cfg_small(CompressorConfig::byte_de()), cfg_small(CompressorConfig::byte())] {
            let out = compress(&data, &compressor).unwrap();
            let (restored, _) = decompress_with(&out.file, &config).unwrap();
            assert_eq!(restored, data);
        }
    }

    #[test]
    fn validate_de_accepts_de_files_and_rejects_others() {
        let data = wiki_like(200_000);
        let de_file = compress(&data, &cfg_small(CompressorConfig::byte_de())).unwrap();
        let plain_file = compress(&data, &cfg_small(CompressorConfig::byte())).unwrap();

        // DE validation needs no simulator: the config sets no cost model.
        let config = DecompressorConfig {
            strategy: ResolutionStrategy::DependencyEliminated.into(),
            validate_de: true,
            ..DecompressorConfig::default()
        };
        assert!(config.cost_model.is_none());
        let (restored, report) = decompress_with(&de_file.file, &config).unwrap();
        assert_eq!(restored, data);
        assert!(report.simulation.is_none());

        // The non-DE file contains same-warp nesting on this input and must
        // be rejected when DE is forced with validation, with or without a
        // cost model...
        for config in [config.clone(), DecompressorConfig { cost_model: simulated().cost_model, ..config }] {
            let err = decompress_with(&plain_file.file, &config);
            // Per-block failures carry block context; the root cause is the
            // DE violation.
            assert!(matches!(
                err.as_ref().map_err(|e| e.root_cause()),
                Err(GompressoError::DependencyEliminationViolated { .. })
            ));
        }
        // ...but decompresses fine with MRR.
        let mrr = DecompressorConfig { strategy: ResolutionStrategy::MultiRound.into(), ..simulated() };
        let (restored, report) = decompress_with(&plain_file.file, &mrr).unwrap();
        assert_eq!(restored, data);
        let sim = report.simulation.expect("a cost model was set");
        assert!(sim.mrr.total_groups > 0);
        assert!(sim.mrr.mean_rounds() >= 1.0);
    }

    #[test]
    fn mrr_round_statistics_decrease_per_round() {
        let data = wiki_like(400_000);
        let out = compress(&data, &cfg_small(CompressorConfig::bit())).unwrap();
        let config = DecompressorConfig { strategy: ResolutionStrategy::MultiRound.into(), ..simulated() };
        let (_, report) = decompress_with(&out.file, &config).unwrap();
        let stats = &report.simulation.expect("a cost model was set").mrr;
        assert!(stats.total_groups > 0);
        assert!(!stats.bytes_per_round.is_empty());
        // Figure 9b: the bulk of the bytes resolve in round 1.
        assert!(stats.bytes_per_round[0] > *stats.bytes_per_round.last().unwrap());
    }

    #[test]
    fn strategy_costs_are_ordered_de_fastest_sc_slowest() {
        let data = wiki_like(400_000);
        let out = compress(&data, &cfg_small(CompressorConfig::byte_de())).unwrap();
        let mut estimates = Vec::new();
        for strategy in ResolutionStrategy::ALL {
            let config = DecompressorConfig { strategy: strategy.into(), ..simulated() };
            let (_, report) = decompress_with(&out.file, &config).unwrap();
            estimates.push((strategy, report.simulation.expect("a cost model was set").gpu.device_only_s()));
        }
        let sc = estimates[0].1;
        let mrr = estimates[1].1;
        let de = estimates[2].1;
        assert!(de <= mrr, "DE ({de}) should not be slower than MRR ({mrr})");
        assert!(mrr <= sc, "MRR ({mrr}) should not be slower than SC ({sc})");
        assert!(sc / de >= 2.0, "SC should be much slower than DE (sc={sc}, de={de})");
    }

    #[test]
    fn corrupted_payload_is_an_error_not_a_panic() {
        let data = wiki_like(150_000);
        let out = compress(&data, &cfg_small(CompressorConfig::bit())).unwrap();
        let mut bytes = out.file.serialize();
        // Corrupt a span in the middle of the first block payload.
        let start = bytes.len() / 2;
        let end = (start + 64).min(bytes.len());
        for b in &mut bytes[start..end] {
            *b = b.wrapping_add(97);
        }
        if let Ok(file) = CompressedFile::deserialize(&bytes) {
            // Whatever happens, it must be an error or a clean (possibly
            // wrong-length-detected) result, never a panic.
            let _ = decompress(&file);
        }
    }

    #[test]
    fn hostile_header_size_is_rejected_before_allocating() {
        // A tiny file whose header claims a 2 GiB output: the declared
        // per-block sizes in the payloads cannot corroborate the claim, so
        // decompression must fail in the pre-allocation validation instead
        // of allocating gigabytes backed by a few hundred bytes of payload.
        let data = wiki_like(100_000);
        for config in [cfg_small(CompressorConfig::bit()), cfg_small(CompressorConfig::byte())] {
            let out = compress(&data, &config).unwrap();
            let mut file = out.file.clone();
            file.header.block_size = 1 << 30;
            file.header.uncompressed_size = (file.blocks.len() as u64) << 30;
            file.header.validate().expect("tampered header is self-consistent");
            let err = decompress(&file);
            assert!(
                matches!(err, Err(GompressoError::OutputSizeMismatch { .. })),
                "expected pre-allocation size mismatch, got {err:?}"
            );
        }
    }

    #[test]
    fn crafted_consistent_header_is_rejected_by_plausibility_bound() {
        // A fully self-consistent *crafted* file: tiny byte-mode payloads
        // whose declared sizes exactly match a header claiming 1 GiB blocks.
        // The payload-expansion ceiling must reject it before allocation.
        use gompresso_bitstream::ByteWriter;
        use gompresso_format::{BlockPayload, FileHeader};
        let block_size = 1u32 << 30;
        let n_blocks = 2usize;
        let payloads: Vec<BlockPayload> = (0..n_blocks)
            .map(|_| {
                let mut w = ByteWriter::new();
                gompresso_bitstream::write_varint(&mut w, 0); // n_sequences
                gompresso_bitstream::write_varint(&mut w, u64::from(block_size)); // declared size
                gompresso_bitstream::write_varint(&mut w, 0); // data length
                BlockPayload { bytes: w.finish() }
            })
            .collect();
        let header = FileHeader {
            window_size: 8 * 1024,
            min_match_len: 3,
            max_match_len: 64,
            uncompressed_size: u64::from(block_size) * n_blocks as u64,
            block_size,
            block_configs: vec![BlockConfig::legacy_uniform(EncodingMode::Byte, 16, 0); n_blocks],
            block_compressed_sizes: vec![],
            block_checksums: vec![],
        };
        let file = CompressedFile::new(header, payloads).expect("crafted file assembles");
        file.header.validate().expect("crafted header is self-consistent");
        let err = decompress(&file);
        assert!(
            matches!(err, Err(GompressoError::Format(_))),
            "expected plausibility rejection, got {err:?}"
        );
    }

    #[test]
    fn output_cap_is_enforced_and_configurable() {
        let data = wiki_like(50_000);
        let out = compress(&data, &cfg_small(CompressorConfig::byte())).unwrap();
        // A cap below the file size rejects up front...
        let tight = DecompressorConfig { max_output_size: 1024, ..DecompressorConfig::default() };
        assert!(matches!(decompress_with(&out.file, &tight), Err(GompressoError::Format(_))));
        // ...and raising it restores normal operation.
        let roomy = DecompressorConfig { max_output_size: 1 << 40, ..DecompressorConfig::default() };
        let (restored, _) = decompress_with(&out.file, &roomy).unwrap();
        assert_eq!(restored, data);
    }

    #[test]
    fn tampered_block_declared_size_is_rejected() {
        // Growing one block's declared uncompressed size (consistently with
        // the file header) must be caught by the cross-check against the
        // payload-declared sizes.
        let data = wiki_like(100_000);
        let out = compress(&data, &cfg_small(CompressorConfig::byte())).unwrap();
        let mut file = out.file.clone();
        file.header.uncompressed_size += 1;
        if file.header.validate().is_ok() {
            let err = decompress(&file);
            assert!(
                matches!(err, Err(GompressoError::OutputSizeMismatch { .. })),
                "expected declared-size mismatch, got {err:?}"
            );
        }
    }

    #[test]
    fn shrunken_header_total_is_rejected_not_truncated() {
        // Shrinking the header's uncompressed_size (keeping the same block
        // count, so FileHeader::validate still passes) makes the header's
        // per-block sizes disagree with the blocks' declared sizes for the
        // trailing block. The decompressor must reject the file instead of
        // trusting the header and truncating the output.
        let data = wiki_like(100_000);
        for config in [cfg_small(CompressorConfig::bit()), cfg_small(CompressorConfig::byte())] {
            let out = compress(&data, &config).unwrap();
            let mut file = out.file.clone();
            file.header.uncompressed_size -= 1;
            file.header.validate().expect("tampered header is still self-consistent");
            let err = decompress(&file);
            assert!(
                matches!(err, Err(GompressoError::OutputSizeMismatch { .. })),
                "expected declared-size mismatch, got {err:?}"
            );
        }
    }

    #[test]
    fn per_block_declared_sum_must_match_header_total() {
        // Swap the final (short) block's payload for a copy of a full-size
        // block: every size is still plausible in isolation, but the sum of
        // the blocks' declared uncompressed sizes now disagrees with
        // header.uncompressed_size — the cross-check must catch it before
        // any output is produced.
        let data = wiki_like(100_000); // 64 KiB blocks -> short trailing block
        let out = compress(&data, &cfg_small(CompressorConfig::byte())).unwrap();
        assert!(out.file.blocks.len() >= 2);
        let mut file = out.file.clone();
        let last = file.blocks.len() - 1;
        file.blocks[last] = file.blocks[0].clone();
        file.header.block_compressed_sizes[last] = file.header.block_compressed_sizes[0];
        file.header.validate().expect("tampered header is still self-consistent");
        let err = decompress(&file);
        assert!(
            matches!(err, Err(GompressoError::OutputSizeMismatch { .. })),
            "expected sum mismatch, got {err:?}"
        );
    }

    #[test]
    fn truncated_file_is_an_error() {
        let data = wiki_like(100_000);
        let out = compress(&data, &cfg_small(CompressorConfig::byte())).unwrap();
        let bytes = out.file.serialize();
        let truncated = &bytes[..bytes.len() / 2];
        assert!(CompressedFile::deserialize(truncated).is_err());
    }

    #[test]
    fn empty_file_decompresses_to_empty_output() {
        let out = compress(&[], &CompressorConfig::bit()).unwrap();
        let (restored, report) = decompress_with(&out.file, &simulated()).unwrap();
        assert!(restored.is_empty());
        assert_eq!(report.uncompressed_size, 0);
        assert_eq!(report.simulation.expect("a cost model was set").gpu.device_only_s(), 0.0);
    }

    #[test]
    fn larger_blocks_improve_estimated_bit_decode_speed() {
        // Figure 12: larger blocks expose more sub-block parallelism and
        // amortise per-block overhead.
        let data = wiki_like(1 << 20);
        let small =
            compress(&data, &CompressorConfig { block_size: 32 * 1024, ..CompressorConfig::bit_de() })
                .unwrap();
        let large =
            compress(&data, &CompressorConfig { block_size: 256 * 1024, ..CompressorConfig::bit_de() })
                .unwrap();
        let (_, small_report) = decompress_with(&small.file, &simulated()).unwrap();
        let (_, large_report) = decompress_with(&large.file, &simulated()).unwrap();
        let small_report = small_report.simulation.expect("a cost model was set");
        let large_report = large_report.simulation.expect("a cost model was set");
        // Allow a modest tolerance: this corpus is far more compressible
        // than the paper's, so per-block effects (LUT amortisation vs
        // sub-block parallelism) sit within measurement slack of each
        // other; the realistic Figure 12 reproduction lives in the bench
        // crate.
        assert!(
            large_report.gpu.with_io_s() <= small_report.gpu.with_io_s() * 1.15,
            "large blocks should not be slower end-to-end: {} vs {}",
            large_report.gpu.with_io_s(),
            small_report.gpu.with_io_s()
        );
        // Ratio changes only moderately with block size (this synthetic
        // corpus is far more compressible than the paper's datasets, which
        // amplifies the relative per-block header overhead; the realistic
        // Figure 12 reproduction lives in the bench crate).
        let small_ratio = small.stats.ratio();
        let large_ratio = large.stats.ratio();
        assert!((small_ratio - large_ratio).abs() / large_ratio < 0.3);
        assert!(small_ratio > 1.0 && large_ratio > 1.0);
    }

    #[test]
    fn gpu_estimate_reflects_pcie_ceiling_for_byte_mode() {
        let data = wiki_like(1 << 20);
        let out = compress(&data, &CompressorConfig::byte_de()).unwrap();
        let (_, report) = decompress_with(&out.file, &simulated()).unwrap();
        let no_pcie = report.gpu_bandwidth_no_pcie().expect("a cost model was set");
        let in_out = report.gpu_bandwidth_in_out().expect("a cost model was set");
        // Adding transfers can only slow things down, and the end-to-end
        // bandwidth cannot exceed the PCIe link's sustained bandwidth.
        assert!(in_out < no_pcie);
        let pcie = CostModel::tesla_k40().pcie().sustained_bandwidth();
        assert!(in_out <= pcie * 1.01, "in_out {in_out} exceeds PCIe {pcie}");
    }
}
