//! Storage-engine benchmarks: codec throughput and segment scan over
//! the calibrated Louvre dataset.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sitm_core::SemanticTrajectory;
use sitm_louvre::{build_louvre, generate_dataset, GeneratorConfig};
use sitm_store::codec::{decode_trajectory, encode_trajectory};
use sitm_store::segment::{scan, write_frame, write_header};

fn trajectories() -> Vec<SemanticTrajectory> {
    let model = build_louvre();
    let dataset = generate_dataset(&GeneratorConfig::default());
    dataset
        .visits
        .iter()
        .filter(|v| !v.detections.is_empty())
        .filter_map(|v| dataset.to_trajectory(&model, v))
        .collect()
}

fn bench_codec(c: &mut Criterion) {
    let trajs = trajectories();
    let mut group = c.benchmark_group("store/codec");
    group.sample_size(20);
    group.bench_function("encode_4945_visits", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(512 * 1024);
            for t in &trajs {
                encode_trajectory(black_box(&mut buf), t);
            }
            buf
        });
    });
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(trajs.len());
    for t in &trajs {
        let mut buf = Vec::new();
        encode_trajectory(&mut buf, t);
        encoded.push(buf);
    }
    group.bench_function("decode_4945_visits", |b| {
        b.iter(|| {
            let mut decoded = 0usize;
            for buf in &encoded {
                decode_trajectory(black_box(&mut buf.as_slice())).expect("clean");
                decoded += 1;
            }
            decoded
        });
    });
    group.finish();
}

fn bench_segment_scan(c: &mut Criterion) {
    let trajs = trajectories();
    let mut segment = Vec::new();
    write_header(&mut segment);
    let mut scratch = Vec::new();
    for t in &trajs {
        scratch.clear();
        encode_trajectory(&mut scratch, t);
        write_frame(&mut segment, &scratch);
    }
    let mut group = c.benchmark_group("store/segment");
    group.throughput(criterion::Throughput::Bytes(segment.len() as u64));
    group.bench_function("scan_validate_crc", |b| {
        b.iter(|| scan(black_box(&segment)).payloads.len());
    });
    group.finish();
}

criterion_group!(benches, bench_codec, bench_segment_scan);
criterion_main!(benches);
