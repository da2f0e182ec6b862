//! Golden pins for the lossless kernels: deflate, shuffled-float
//! containers, and the raw bit-I/O primitives.
//!
//! Hashes captured from the pre-kernel-overhaul implementation
//! (u8-accumulator BitWriter, byte-loop BitReader refill, bit-at-a-time
//! Rice coding). The word-at-a-time bit I/O must reproduce every stream
//! byte-for-byte.
//!
//! Regenerate (only after an intentional format change) with:
//! `GOLDEN_DUMP=1 cargo test -p cc-lossless --test golden -- --nocapture`

use cc_lossless::bitio::{BitReader, BitWriter};
use cc_lossless::{compress, compress_f32_shuffled, Level};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Repetitive text with an aperiodic tail: exercises LZ77 matches.
fn text_input() -> Vec<u8> {
    let mut v = b"the community earth system model writes history files. "
        .repeat(800)
        .to_vec();
    v.extend_from_slice(b"unique-tail-0123456789");
    v
}

/// Pseudo-random bytes (xorshift64*): near-incompressible, forces stored
/// blocks in deflate.
fn random_input(n: usize) -> Vec<u8> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut v = Vec::with_capacity(n);
    while v.len() < n {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let w = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
        v.extend_from_slice(&w.to_le_bytes());
    }
    v.truncate(n);
    v
}

/// Little-endian bytes of a smooth float field: the shuffled-container
/// shape (long runs in high bytes, noise in low bytes).
fn float_field(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let x = i as f32 / n as f32;
            250.0 + 40.0 * (7.1 * x).sin() + 0.05 * ((i * 37) % 97) as f32
        })
        .collect()
}

const GOLDEN: &[(&str, u64)] = &[
    ("deflate/text/default", 0x222d3da89c6e66f0),
    ("deflate/text/fast", 0x222d3da89c6e66f0),
    ("deflate/text/best", 0x222d3da89c6e66f0),
    ("deflate/random/default", 0x479e62704e33999a),
    ("shuffled-f32/default", 0x797f0c884dc6b51a),
    ("bitio/mixed-widths", 0x22df3175de6edf7b),
    ("bitio/rice-sweep", 0x13c57f7bf3e64bc6),
];

fn check(dump: &mut String, name: &str, bytes: &[u8]) {
    let h = fnv1a(bytes);
    if std::env::var("GOLDEN_DUMP").is_ok() {
        dump.push_str(&format!("    (\"{name}\", {h:#018x}),\n"));
        return;
    }
    let (_, g) = GOLDEN
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no golden entry for {name}"));
    assert_eq!(h, *g, "{name}: stream bytes drifted");
}

#[test]
fn lossless_streams_are_pinned() {
    let text = text_input();
    let random = random_input(50_000);
    let floats = float_field(30_000);
    let mut dump = String::new();

    check(&mut dump, "deflate/text/default", &compress(&text, Level::Default));
    check(&mut dump, "deflate/text/fast", &compress(&text, Level::Fast));
    check(&mut dump, "deflate/text/best", &compress(&text, Level::Best));
    check(&mut dump, "deflate/random/default", &compress(&random, Level::Default));

    check(
        &mut dump,
        "shuffled-f32/default",
        &compress_f32_shuffled(&floats, Level::Default),
    );

    // Raw bit-level output: every width 0..=57 plus single bits and
    // mid-stream byte alignment, with patterned values.
    let mut w = BitWriter::new();
    for n in 0..=57u32 {
        let v = 0x0123_4567_89ab_cdefu64 & if n == 0 { 0 } else { u64::MAX >> (64 - n) };
        w.write_bits(v, n);
        w.write_bit(n % 3 == 0);
        if n % 13 == 0 {
            w.align_byte();
        }
    }
    check(&mut dump, "bitio/mixed-widths", &w.finish());

    // Rice streams across k values, including the 48-ones escape path.
    let mut w = BitWriter::new();
    for k in 0..=14u32 {
        for v in [0u64, 1, 2, 5, 47, 48, 49, 1000, 1 << 17, (48 << k) + 3, u64::MAX >> 9] {
            w.write_rice(v, k);
        }
    }
    let rice = w.finish();
    let mut r = BitReader::new(&rice);
    for k in 0..=14u32 {
        for v in [0u64, 1, 2, 5, 47, 48, 49, 1000, 1 << 17, (48 << k) + 3, u64::MAX >> 9] {
            assert_eq!(r.read_rice(k).unwrap(), v, "rice readback k={k}");
        }
    }
    check(&mut dump, "bitio/rice-sweep", &rice);

    if !dump.is_empty() {
        println!("const GOLDEN: &[(&str, u64)] = &[\n{dump}];");
    }
}
