//! Host calibration, timed in the same process as every run: a memory copy
//! and a reference LZ decoder that no Gompresso change touches. A slow
//! neighbour moves these figures too; a code change does not.

use crate::layers::zeroed_output;
use crate::report::median;
use crate::MIB;
use gompresso_baselines::{Codec, Lz4Like};
use gompresso_datasets::{DatasetGenerator, WikipediaGenerator};
use std::hint::black_box;
use std::time::Instant;

const COPY_LEN: usize = 16 * MIB;
const LZ_LEN: usize = 4 * MIB;
const REPS: usize = 9;
/// Fixed, so the calibration input is the same for every workload seed.
const LZ_SEED: u64 = 0x484f_5354;

pub struct Host {
    pub memcpy_gbps: f64,
    pub lz4like_decompress_gbps: f64,
}

fn median_gbps(reps: usize, bytes: usize, mut op: impl FnMut()) -> f64 {
    let seconds: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            op();
            start.elapsed().as_secs_f64()
        })
        .collect();
    bytes as f64 / median(&seconds) / 1e9
}

pub fn calibrate() -> Result<Host, String> {
    let src = vec![0x5au8; COPY_LEN];
    let mut dst = zeroed_output(COPY_LEN);
    let memcpy_gbps = median_gbps(REPS, COPY_LEN, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });

    let input = WikipediaGenerator::new(LZ_SEED).generate(LZ_LEN);
    let codec = Lz4Like::new();
    let compressed = codec.compress(&input).map_err(|e| e.to_string())?;
    let mut out = zeroed_output(LZ_LEN);
    let mut failed = None;
    let lz4like_decompress_gbps = median_gbps(REPS, LZ_LEN, || {
        if let Err(e) = codec.decompress_into(black_box(&compressed), &mut out) {
            failed = Some(e.to_string());
        }
    });
    if let Some(e) = failed {
        return Err(format!("lz4-like calibration decode failed: {e}"));
    }
    if out != input {
        return Err("lz4-like calibration decode differs from its input".into());
    }
    Ok(Host { memcpy_gbps, lz4like_decompress_gbps })
}
