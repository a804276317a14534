//! Figure 9c: MRR decompression cost as a function of the artificial
//! nesting depth (Figure 10 datasets). MRR rounds exist only in the
//! simulated warp walk, so the K40 cost model is on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gompresso_bench::nesting_data;
use gompresso_core::{
    compress, decompress_with, CompressorConfig, CostModel, DecompressorConfig, ResolutionStrategy,
};

const SIZE: usize = 2 * 1024 * 1024;

fn bench_nesting(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9c_nesting_depth");
    group.sample_size(10);
    for depth in [1u32, 4, 16, 32] {
        let data = nesting_data(depth, SIZE);
        let file = compress(&data, &CompressorConfig::byte()).unwrap();
        let config = DecompressorConfig {
            strategy: ResolutionStrategy::MultiRound.into(),
            cost_model: Some(CostModel::tesla_k40()),
            ..DecompressorConfig::default()
        };
        group.throughput(Throughput::Bytes(data.len() as u64));
        group.bench_with_input(BenchmarkId::new("mrr_depth", depth), &file.file, |b, f| {
            b.iter(|| decompress_with(f, &config).unwrap().0.len());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_nesting);
criterion_main!(benches);
