//! Figure 9a: host wall-clock cost of simulating the three back-reference
//! resolution strategies on Gompresso/Byte files (GPU estimates are produced
//! by the `experiments` binary; this bench pins down the measured CPU-side
//! cost of the same code paths). The strategy only changes the simulated
//! warp walk, so the K40 cost model is on; without it every strategy runs
//! the same execute-only decode.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gompresso_bench::{matrix_data, wikipedia_data};
use gompresso_core::{
    compress, decompress_with, CompressorConfig, CostModel, DecompressorConfig, ResolutionStrategy,
};

const SIZE: usize = 4 * 1024 * 1024;

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9a_lz77_strategies");
    group.sample_size(10);
    for (name, data) in [("wikipedia", wikipedia_data(SIZE)), ("matrix", matrix_data(SIZE))] {
        let plain = compress(&data, &CompressorConfig::byte()).unwrap();
        let de = compress(&data, &CompressorConfig::byte_de()).unwrap();
        group.throughput(Throughput::Bytes(data.len() as u64));
        for strategy in ResolutionStrategy::ALL {
            let file =
                if strategy == ResolutionStrategy::DependencyEliminated { &de.file } else { &plain.file };
            let config = DecompressorConfig {
                strategy: strategy.into(),
                cost_model: Some(CostModel::tesla_k40()),
                ..DecompressorConfig::default()
            };
            group.bench_with_input(BenchmarkId::new(strategy.short_name(), name), file, |b, file| {
                b.iter(|| decompress_with(file, &config).unwrap().0.len());
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_strategies);
criterion_main!(benches);
