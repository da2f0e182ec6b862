//! Hot-kernel microbenchmarks for paths the kernel overhaul rewrote:
//! bit I/O (word-accumulator writer/reader and Rice coding) and the
//! ISABELA window pipeline (radix sort + scratch + basis cache).

use cc_codecs::{Codec, Layout};
use cc_lossless::bitio::{BitReader, BitWriter};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

/// Deterministic residual-like values: geometric-ish magnitudes that
/// exercise both short and long Rice quotients.
fn residuals(n: usize) -> Vec<u64> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let shift = (state >> 58) as u32; // 0..63: mostly small values
            (state >> 32) >> shift.min(31)
        })
        .collect()
}

fn bench_bitio(c: &mut Criterion) {
    const N: usize = 1 << 18;
    let vals = residuals(N);
    let widths: Vec<u32> = vals.iter().map(|v| 64 - v.leading_zeros().min(63)).collect();

    let mut group = c.benchmark_group("bitio");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("write_bits/mixed", |b| {
        b.iter(|| {
            let mut w = BitWriter::new();
            for (&v, &n) in vals.iter().zip(&widths) {
                w.write_bits(v & ((1u64 << n) - 1), n.max(1));
            }
            black_box(w.finish())
        })
    });

    let mut w = BitWriter::new();
    for (&v, &n) in vals.iter().zip(&widths) {
        w.write_bits(v & ((1u64 << n) - 1), n.max(1));
    }
    let stream = w.finish();
    group.bench_function("read_bits/mixed", |b| {
        b.iter(|| {
            let mut r = BitReader::new(&stream);
            let mut acc = 0u64;
            for &n in &widths {
                acc ^= r.read_bits(n.max(1)).unwrap();
            }
            black_box(acc)
        })
    });

    group.bench_function("write_rice/k7", |b| {
        b.iter(|| {
            let mut w = BitWriter::new();
            for &v in &vals {
                w.write_rice(v >> 20, 7);
            }
            black_box(w.finish())
        })
    });
    let mut w = BitWriter::new();
    for &v in &vals {
        w.write_rice(v >> 20, 7);
    }
    let rice_stream = w.finish();
    group.bench_function("read_rice/k7", |b| {
        b.iter(|| {
            let mut r = BitReader::new(&rice_stream);
            let mut acc = 0u64;
            for _ in 0..N {
                acc ^= r.read_rice(7).unwrap();
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_isabela_window(c: &mut Criterion) {
    // 64 ISABELA windows (1024 points each) of a smooth field: the
    // sort + spline-fit + correction pipeline end to end.
    const ELEMS: usize = 64 * 1024;
    let layout = Layout::linear(ELEMS);
    let data: Vec<f32> = (0..ELEMS)
        .map(|i| {
            let x = i as f32 / ELEMS as f32;
            250.0 + 40.0 * (7.1 * x).sin() + 3.0 * (53.0 * x).cos()
        })
        .collect();
    let codec = cc_codecs::isabela::Isabela::new(0.005);
    let stream = codec.compress(&data, layout);

    let mut group = c.benchmark_group("isabela");
    group.throughput(Throughput::Bytes((ELEMS * 4) as u64));
    group.bench_function("compress/64-windows", |b| {
        b.iter(|| black_box(codec.compress(black_box(&data), layout)))
    });
    group.bench_function("decompress/64-windows", |b| {
        b.iter(|| black_box(codec.decompress(black_box(&stream), layout).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_bitio, bench_isabela_window);
criterion_main!(benches);
