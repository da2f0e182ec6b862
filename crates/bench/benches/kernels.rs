//! Hot-kernel microbenchmarks for paths the kernel overhaul rewrote:
//! bit I/O (word-accumulator writer/reader and Rice coding), the ISABELA
//! window pipeline (radix sort + scratch + basis cache), and the three
//! kernels of the tuning sweep that per-call overhead dominated: Huffman
//! code lengths (package-merge), ensemble accumulation, and the APAX
//! fixed-rate shift search.

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

/// A smooth field with noise on the scale of ensemble spread: member `m`
/// of `npts` points.
fn member_field(m: usize, npts: usize) -> Vec<f32> {
    let mut state = 0x2545_F491_4F6C_DD1Du64 ^ (m as u64).wrapping_mul(0x9E37_79B9);
    (0..npts)
        .map(|p| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let noise = ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.2;
            let x = p as f32 / npts as f32;
            250.0 + 40.0 * (7.1 * x).sin() + 3.0 * (53.0 * x).cos() + noise
        })
        .collect()
}

/// The three kernels the tuning sweep spends its per-call overhead in.
/// Indicative only: the offline criterion stand-in times one sample of
/// ten iterations, and two runs of unchanged code have differed by about
/// 20%, so these figures cannot resolve a change of that size.
fn bench_tuning_kernels(c: &mut Criterion) {
    // A deflate literal/length alphabet (286 symbols) with the skewed,
    // partly empty histogram an SZ token stream gives.
    let freqs: Vec<u64> = residuals(286)
        .iter()
        .enumerate()
        .map(|(i, &v)| if i % 9 == 4 { 0 } else { (v >> 20) + 1 })
        .collect();
    let mut group = c.benchmark_group("huffman");
    group.bench_function("code_lengths/286", |b| {
        b.iter(|| black_box(cc_lossless::huffman::code_lengths(black_box(&freqs), 15)))
    });
    group.finish();

    // One ne=3 level (3,456 points), 11 members as in a tuning sweep.
    const NPTS: usize = 3_456;
    let members: Vec<Vec<f32>> = (0..11).map(|m| member_field(m, NPTS)).collect();
    let mut group = c.benchmark_group("pvt");
    group.throughput(Throughput::Elements((11 * NPTS) as u64));
    group.bench_function("add_member/11x3456", |b| {
        b.iter(|| {
            let mut stats = cc_pvt::EnsembleStats::new(NPTS);
            for f in &members {
                stats.add_member(black_box(f));
            }
            black_box(stats)
        })
    });
    group.finish();

    let codec = cc_codecs::apax::Apax::fixed_rate(5.0);
    let layout = Layout::linear(NPTS);
    let mut group = c.benchmark_group("apax");
    group.throughput(Throughput::Bytes((NPTS * 4) as u64));
    group.bench_function("encode_fixed_rate/APAX-5", |b| {
        b.iter(|| black_box(codec.compress(black_box(&members[0]), layout)))
    });
    group.finish();
}

criterion_group!(benches, bench_bitio, bench_isabela_window, bench_tuning_kernels);
criterion_main!(benches);
