//! Quickstart: compress a document with Gompresso/Bit + Dependency
//! Elimination, decompress it with the massively-parallel decompressor, and
//! print the compression ratio plus the estimated Tesla K40 decompression
//! bandwidth.
//!
//! Run with: `cargo run --release --example quickstart`

use gompresso::datasets::{DatasetGenerator, WikipediaGenerator};
use gompresso::{compress, decompress_with, CompressorConfig, CostModel, DecompressorConfig};

fn main() {
    // 8 MiB of synthetic Wikipedia-style XML (the paper's first dataset).
    let data = WikipediaGenerator::new(7).generate(8 * 1024 * 1024);

    // Gompresso/Bit with Dependency Elimination: the configuration the paper
    // uses for its headline GPU-vs-CPU comparison.
    let config = CompressorConfig::bit_de();
    let compressed = compress(&data, &config).expect("compression failed");
    println!(
        "compressed {} bytes -> {} bytes (ratio {:.2}:1) across {} blocks in {:.1} ms",
        compressed.stats.uncompressed_size,
        compressed.stats.compressed_size,
        compressed.stats.ratio(),
        compressed.stats.blocks,
        compressed.stats.wall_seconds * 1e3,
    );

    // A cost model asks the decompressor to also simulate every block on a
    // Tesla K40 warp; without one, decode executes only and reports no
    // estimate.
    let decompressor = DecompressorConfig { cost_model: Some(CostModel::tesla_k40()), ..Default::default() };
    let (restored, report) = decompress_with(&compressed.file, &decompressor).expect("decompression failed");
    assert_eq!(restored, data, "round trip must be lossless");
    let sim = report.simulation.as_ref().expect("a cost model was set");

    println!(
        "decompressed on the host in {:.1} ms ({:.2} GB/s across {} rayon threads)",
        report.wall_seconds * 1e3,
        report.host_bandwidth() / 1e9,
        rayon::current_num_threads(),
    );
    println!(
        "simulated Tesla K40: decode kernel {:.2} ms + LZ77 kernel {:.2} ms + PCIe {:.2} ms",
        sim.gpu.decode_kernel_s * 1e3,
        sim.gpu.lz77_kernel_s * 1e3,
        (sim.gpu.input_transfer_s + sim.gpu.output_transfer_s) * 1e3,
    );
    println!(
        "estimated GPU decompression speed: {:.1} GB/s (device only), {:.1} GB/s (with PCIe in/out)",
        report.gpu_bandwidth_no_pcie().expect("a cost model was set") / 1e9,
        report.gpu_bandwidth_in_out().expect("a cost model was set") / 1e9,
    );
}
