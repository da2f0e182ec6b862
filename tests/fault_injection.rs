//! Corrupt-stream fault injection across every decode path in the
//! workspace.
//!
//! For each decoder a valid stream is damaged five ways — truncation
//! prefixes, seeded bit flips, seeded byte overwrites, seeded region
//! splices, and pure random bytes (`cc_bench::faults`) — and every
//! damaged stream is decoded. The
//! decode must be *total*: return `Ok` or `Err`, never panic, and never
//! make a single allocation beyond 16× the larger of the input stream and
//! the original uncompressed data (plus a 64 KiB floor for fixed decoder
//! tables and block buffers). A custom global allocator records the peak
//! single-allocation size to enforce the bound.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;
use std::panic::AssertUnwindSafe;

use cc_codecs::{Layout, Variant};

// ---------------------------------------------------------------------------
// Peak single-allocation tracker.
// ---------------------------------------------------------------------------

struct PeakAlloc;

thread_local! {
    // const-initialized so first access inside `alloc` cannot itself
    // allocate (lazy TLS init would recurse into the allocator).
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    // try_with: TLS may already be torn down during thread exit.
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

// ---------------------------------------------------------------------------
// Harness core.
// ---------------------------------------------------------------------------

/// Run `decode` over the full damage corpus for `stream`, asserting
/// totality and the allocation bound for every case. `base_bytes` is the
/// size of the original uncompressed data, which legitimate decode output
/// may approach regardless of how short a damaged input is.
fn fuzz_decoder(path: &str, base_bytes: usize, stream: &[u8], decode: &dyn Fn(&[u8])) {
    let seed = 0xC0FFEE ^ stream.len() as u64;
    let cases = cc_bench::faults::corpus(stream, seed);
    fuzz_cases(path, base_bytes, stream, &cases, decode);
}

/// The case loop of [`fuzz_decoder`], for callers that build their own
/// damage corpus (the archive corpus targets the index section).
fn fuzz_cases(
    path: &str,
    base_bytes: usize,
    stream: &[u8],
    cases: &[Vec<u8>],
    decode: &dyn Fn(&[u8]),
) {
    assert!(cases.len() >= 1000, "{path}: corpus too small ({})", cases.len());
    for (i, case) in cases.iter().enumerate() {
        PEAK.with(|p| p.set(0));
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| decode(case)));
        let peak = PEAK.with(|p| p.get());
        assert!(
            outcome.is_ok(),
            "{path}: case {i} (len {}) panicked instead of returning Err",
            case.len()
        );
        let cap = 16 * case.len().max(base_bytes) + (64 << 10);
        assert!(
            peak <= cap,
            "{path}: case {i} (len {}) made a {peak}-byte allocation (cap {cap})",
            case.len()
        );
    }
    // The pristine stream must still decode after the fuzz loop (guards
    // against decoders with hidden global state).
    decode(stream);
}

/// Smooth climate-like test field (same shape as the codec unit tests).
fn smooth_field(npts: usize, nlev: usize) -> (Vec<f32>, Layout) {
    let linear = Layout::linear(npts);
    let layout = Layout { nlev, npts, rows: linear.rows, cols: linear.cols };
    let mut data = Vec::with_capacity(layout.len());
    for lev in 0..nlev {
        for p in 0..npts {
            let x = p as f32 / npts as f32;
            let v = 240.0
                + 30.0 * (6.3 * x).sin()
                + 5.0 * (31.0 * x + lev as f32).cos()
                + lev as f32 * 2.0;
            data.push(v);
        }
    }
    (data, layout)
}

fn fuzz_variant(variant: Variant) {
    let (data, layout) = smooth_field(1500, 2);
    let codec = variant.codec();
    let stream = codec.compress(&data, layout);
    let name = variant.name();
    fuzz_decoder(&name, data.len() * 4, &stream, &|bytes| {
        let _ = codec.decompress(bytes, layout);
    });
}

// ---------------------------------------------------------------------------
// The ten Variant decode paths.
// ---------------------------------------------------------------------------

#[test]
fn grib2_decode_is_total() {
    fuzz_variant(Variant::Grib2 { decimal_scale: None });
}

#[test]
fn apax_decode_is_total() {
    for rate in [2.0, 4.0, 5.0] {
        fuzz_variant(Variant::Apax { rate });
    }
}

#[test]
fn fpzip_decode_is_total() {
    for bits in [16u8, 24] {
        fuzz_variant(Variant::Fpzip { bits });
    }
}

#[test]
fn isabela_decode_is_total() {
    for rel_err in [0.001, 0.005, 0.01] {
        fuzz_variant(Variant::Isabela { rel_err });
    }
}

#[test]
fn netcdf4_variant_decode_is_total() {
    fuzz_variant(Variant::NetCdf4);
}

#[test]
fn sz_decode_is_total() {
    use cc_codecs::ErrorBound;
    for bound in [
        ErrorBound::Abs(1e-2),
        ErrorBound::Rel(1e-3),
        ErrorBound::Rel(1e-5),
    ] {
        fuzz_variant(Variant::Sz { bound });
    }
}

#[test]
fn sz_chunked_decode_is_total() {
    use cc_codecs::chunked::{compress_chunked, decompress_chunked};
    use cc_codecs::ErrorBound;
    let (data, layout) = smooth_field(40_000, 4);
    let codec = Variant::Sz { bound: ErrorBound::Rel(1e-3) }.codec();
    let stream = compress_chunked(codec.as_ref(), &data, layout, 2);
    fuzz_decoder("chunked/SZ-rel-1e-3", data.len() * 4, &stream, &|bytes| {
        let _ = decompress_chunked(codec.as_ref(), bytes, layout, 2);
    });
}

// ---------------------------------------------------------------------------
// Raw cc-lossless entry points.
// ---------------------------------------------------------------------------

/// Mildly compressible byte payload for the lossless paths.
fn byte_payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i / 64) as u8 ^ (i as u8 & 7)).collect()
}

#[test]
fn deflate_decode_is_total() {
    let payload = byte_payload(64 << 10);
    let stream = cc_lossless::compress(&payload, cc_lossless::Level::Default);
    fuzz_decoder("cc-lossless/deflate", payload.len(), &stream, &|bytes| {
        let _ = cc_lossless::decompress(bytes);
    });
}

/// Literal-heavy payload with a skewed 256-symbol distribution, like the
/// archive's delta-frame bodies: mostly small values, plus a thin uniform
/// tail whose rare bytes get literal codes longer than the decoder's root
/// table, so decoding goes through its subtables.
fn skewed_payload(n: usize) -> Vec<u8> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = state >> 16;
            if r.is_multiple_of(32) {
                (r >> 8) as u8
            } else {
                ((r >> 8).trailing_zeros() as u8) << 1 | (r >> 5 & 1) as u8
            }
        })
        .collect()
}

#[test]
fn deflate_long_codes_decode_is_total() {
    use cc_lossless::bitio::BitReader;
    use cc_lossless::huffman::ROOT_BITS;
    let payload = skewed_payload(64 << 10);
    let stream = cc_lossless::compress(&payload, cc_lossless::Level::Default);
    // The first block must be a Huffman block with literal codes past the
    // root table: 64-bit length, final and kind bits, 286 4-bit lengths.
    let mut r = BitReader::new(&stream);
    r.read_bits(32).unwrap();
    r.read_bits(32).unwrap();
    r.read_bit().unwrap();
    assert!(r.read_bit().unwrap(), "skewed payload must take a Huffman block");
    let longest = (0..286).map(|_| r.read_bits(4).unwrap() as u32).max().unwrap();
    assert!(longest > ROOT_BITS, "longest literal code {longest} fits the root table");
    fuzz_decoder("cc-lossless/deflate-long-codes", payload.len(), &stream, &|bytes| {
        let _ = cc_lossless::decompress(bytes);
    });
}

#[test]
fn shuffled_f32_decode_is_total() {
    let (data, _) = smooth_field(8192, 1);
    let stream = cc_lossless::compress_f32_shuffled(&data, cc_lossless::Level::Default);
    fuzz_decoder("cc-lossless/f32-shuffled", data.len() * 4, &stream, &|bytes| {
        let _ = cc_lossless::decompress_f32_shuffled(bytes);
    });
}

// ---------------------------------------------------------------------------
// cc-ncdf container decode.
// ---------------------------------------------------------------------------

#[test]
fn ncdf_dataset_decode_is_total() {
    let mut ds = cc_ncdf::Dataset::new();
    let (data, _) = smooth_field(4096, 1);
    let d = ds.add_dim("ncol", data.len());
    let v = ds
        .def_var("t", cc_ncdf::DType::F32, &[d], cc_ncdf::FilterPipeline::shuffle_deflate())
        .unwrap();
    ds.put_attr_text(Some(v), "units", "K");
    ds.put_f32(v, &data).unwrap();
    let stream = ds.to_bytes();
    fuzz_decoder("cc-ncdf/dataset", data.len() * 4, &stream, &|bytes| {
        // Decoding the container AND reading the variable exercises the
        // chunk CRC + filter-reversal paths on damaged payloads.
        if let Ok(back) = cc_ncdf::Dataset::from_bytes(bytes) {
            let _ = back.get_f32(0);
        }
    });
}

// ---------------------------------------------------------------------------
// Chunked parallel frames (cc-codecs::chunked).
// ---------------------------------------------------------------------------

#[test]
fn chunked_decode_is_total() {
    use cc_codecs::chunked::{compress_chunked, decompress_chunked};
    // Multi-chunk 3-D stream so the corpus damages real frame boundaries.
    let (data, layout) = smooth_field(40_000, 4);
    for variant in [Variant::Fpzip { bits: 24 }, Variant::NetCdf4] {
        let codec = variant.codec();
        let stream = compress_chunked(codec.as_ref(), &data, layout, 2);
        let name = format!("chunked/{}", variant.name());
        fuzz_decoder(&name, data.len() * 4, &stream, &|bytes| {
            let _ = decompress_chunked(codec.as_ref(), bytes, layout, 2);
        });
    }
}

#[test]
fn chunked_frame_damage_is_rejected() {
    use cc_codecs::chunked::{compress_chunked, decompress_chunked, plan};
    use cc_codecs::LAYOUT_HEADER_LEN;
    let (data, layout) = smooth_field(40_000, 4);
    let codec = Variant::NetCdf4.codec();
    let good = compress_chunked(codec.as_ref(), &data, layout, 2);
    let nchunks = plan(layout).len();
    assert!(nchunks >= 2, "stream must span chunks");

    let decode = |bytes: &[u8]| decompress_chunked(codec.as_ref(), bytes, layout, 2);

    // Chunk count rewritten to every nearby wrong value.
    for wrong in [0u32, 1, nchunks as u32 - 1, nchunks as u32 + 1, u32::MAX] {
        if wrong as usize == nchunks {
            continue;
        }
        let mut bad = good.clone();
        bad[LAYOUT_HEADER_LEN..LAYOUT_HEADER_LEN + 4].copy_from_slice(&wrong.to_le_bytes());
        assert!(decode(&bad).is_err(), "chunk count {wrong} must be rejected");
    }
    // First chunk length inflated past the body / to absurd sizes.
    for wrong in [u32::MAX, 1 << 30, good.len() as u32] {
        let mut bad = good.clone();
        bad[LAYOUT_HEADER_LEN + 4..LAYOUT_HEADER_LEN + 8].copy_from_slice(&wrong.to_le_bytes());
        assert!(decode(&bad).is_err(), "chunk length {wrong} must be rejected");
    }
    // Truncation mid-frame: inside the count, inside a length prefix,
    // and inside every chunk payload.
    let step = (good.len() / 37).max(1);
    for cut in (0..good.len()).step_by(step) {
        assert!(decode(&good[..cut]).is_err(), "prefix of {cut} bytes must be rejected");
    }
    // Trailing bytes after the last frame.
    let mut bad = good.clone();
    bad.push(0);
    assert!(decode(&bad).is_err(), "trailing byte must be rejected");
    // Pristine stream still decodes.
    assert_eq!(decode(&good).unwrap().len(), data.len());
}

// ---------------------------------------------------------------------------
// Temporal archive container (cc-arch/1).
// ---------------------------------------------------------------------------

/// A small multi-variable archive of a correlated synthetic run, plus
/// its index offset (read back from the footer) and raw byte count.
fn build_archive() -> (Vec<u8>, usize, usize) {
    use cc_archive::{ArchiveOptions, ArchiveWriter};
    use cc_codecs::ErrorBound;
    let (data, layout) = smooth_field(1500, 2);
    let frames: Vec<Vec<f32>> = (0..12)
        .map(|t| data.iter().map(|v| v + (t as f32) * 0.01 * v.cos()).collect())
        .collect();
    let mut w = ArchiveWriter::new();
    let bounded = ArchiveOptions::new(Variant::Sz { bound: ErrorBound::Rel(1e-4) })
        .with_bound(ErrorBound::Rel(1e-4))
        .with_keyframe_every(4);
    w.add_variable("T", layout, &frames, &bounded).expect("bounded variable");
    let exact = ArchiveOptions::new(Variant::NetCdf4).with_keyframe_every(4);
    w.add_variable("Q", layout, &frames, &exact).expect("xor variable");
    let bytes = w.finish();
    let n = bytes.len();
    let index_offset = u64::from_le_bytes(bytes[n - 16..n - 8].try_into().unwrap()) as usize;
    (bytes, index_offset, frames.len() * layout.len() * 4 * 2)
}

#[test]
fn archive_decode_is_total() {
    let (bytes, index_offset, raw_bytes) = build_archive();
    let seed = 0xA2C41 ^ bytes.len() as u64;
    // The archive corpus aims damage at the index section (splices,
    // chain-pointer rewrites, oversized declared ranges) on top of the
    // generic shapes.
    let cases = cc_bench::faults::archive_corpus(&bytes, index_offset, seed);
    fuzz_cases("cc-archive/container", raw_bytes, &bytes, &cases, &|case| {
        if let Ok(mut reader) = cc_archive::ArchiveReader::open(case) {
            let _ = reader.fetch_slice("T", 7, 1);
            let _ = reader.decode_variable("Q");
        }
    });
}

#[test]
fn archive_index_crafts_are_rejected_with_typed_errors() {
    use cc_archive::{ArchiveError, ArchiveReader};
    let (bytes, index_offset, _) = build_archive();

    // Walk the index wire format to the first variable's frame entries:
    // n_vars u32 | name_len u16 | name | layout 4xu32 | codec_len u16 |
    // codec | mode u8 kind u8 param f64 | keyframe_every u32 |
    // n_frames u32 | entries (kind u8, parent u32, offset u64, len u64).
    let u16_at = |at: usize| u16::from_le_bytes(bytes[at..at + 2].try_into().unwrap()) as usize;
    let mut at = index_offset + 4;
    at += 2 + u16_at(at); // name
    at += 16; // layout
    at += 2 + u16_at(at); // codec
    at += 10 + 4 + 4; // delta mode/bound, keyframe_every, n_frames
    let entry = |i: usize| at + i * 21;

    // Frame 1 is a delta (keyframe_every 4); pointing its parent at
    // itself must be rejected as a chain cycle, not walked forever.
    let mut cycled = bytes.clone();
    cycled[entry(1) + 1..entry(1) + 5].copy_from_slice(&1u32.to_le_bytes());
    match ArchiveReader::open(cycled.as_slice()) {
        Err(ArchiveError::Corrupt(msg)) => {
            assert!(msg.contains("cycle"), "wrong rejection: {msg}")
        }
        other => panic!("chain cycle accepted: {:?}", other.map(|_| ())),
    }

    // An oversized declared range (frame 0 len = u64::MAX) must be
    // rejected by the index bounds check before any allocation.
    let mut oversized = bytes.clone();
    oversized[entry(0) + 13..entry(0) + 21].copy_from_slice(&u64::MAX.to_le_bytes());
    match ArchiveReader::open(oversized.as_slice()) {
        Err(ArchiveError::Corrupt(msg)) => {
            assert!(msg.contains("frame range"), "wrong rejection: {msg}")
        }
        other => panic!("oversized range accepted: {:?}", other.map(|_| ())),
    }

    // The pristine container still opens and serves both variables.
    let mut reader = ArchiveReader::open(bytes.as_slice()).expect("pristine archive");
    assert_eq!(reader.index().vars.len(), 2);
    reader.fetch_slice("T", 7, 1).expect("bounded fetch");
    reader.fetch_slice("Q", 11, 0).expect("xor fetch");
}

// ---------------------------------------------------------------------------
// Standalone double-precision fpzip.
// ---------------------------------------------------------------------------

#[test]
fn fpzip64_decode_is_total() {
    let (data32, layout) = smooth_field(2048, 1);
    let data: Vec<f64> = data32.iter().map(|&v| v as f64).collect();
    let codec = cc_codecs::fpzip64::Fpzip64::lossless();
    let stream = codec.compress(&data, layout);
    fuzz_decoder("cc-codecs/fpzip64", data.len() * 8, &stream, &|bytes| {
        let _ = codec.decompress(bytes, layout);
    });
}
