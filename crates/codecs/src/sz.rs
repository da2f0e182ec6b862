//! SZ-style error-bounded predictive compression.
//!
//! Follows the published SZ design (Di & Cappello 2016; Tao et al. 2017;
//! the "error bounded lossy compression" line of work the paper's
//! follow-ups converged on): predict each value from already-*decoded*
//! neighbours, quantize the prediction residual on a uniform lattice of
//! step `2e`, and entropy-code the quantization codes. Because the
//! encoder mirrors the decoder's reconstruction exactly, every decoded
//! value provably satisfies `|x' − x| ≤ e` — the bound is checked against
//! the final `f32` reconstruction at encode time and any value the
//! predictor cannot capture within the bound takes the escape path and is
//! stored bit-exactly.
//!
//! Two predictors compete per 256-element block, the same pairing SZ-2
//! uses:
//!
//! 1. the 2-D **Lorenzo** predictor over the (level × horizontal) layout,
//!    identical in shape to the fpzip predictor but running on
//!    reconstructed values;
//! 2. a per-block **linear regression** `x ≈ a + b·j` fitted to the
//!    block's original values (coefficients stored as two `f32`s), which
//!    wins on smooth ramps where Lorenzo's noise feedback loses.
//!
//! The winner is the block with the smaller coded size; one choice bit
//! per block is recorded. Codes, choice bits, regression coefficients,
//! and escape literals are serialized into one body that goes through
//! `cc_lossless::compress`, behind the standard 16-byte layout echo.
//!
//! The bound is either **absolute** (`|x' − x| ≤ e`) or **value-range
//! relative** (`|x' − x| ≤ r · (max − min)` over the encoded stream's
//! finite values — the classic SZ "REL" mode). Degenerate streams
//! (constant fields under a relative bound, empty fields, all-NaN
//! ranges) fall back to an exact mode that stores the raw bits through
//! the shuffled lossless path.

use crate::varint::{push_varint, read_varint, unzigzag, varint_len, zigzag};
use crate::{Codec, CodecError, CodecProperties, Layout};

/// The user-specified error bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Pointwise absolute bound: `|x' − x| ≤ e`.
    Abs(f64),
    /// Value-range relative bound: `|x' − x| ≤ r · (max − min)` of the
    /// encoded stream's finite values.
    Rel(f64),
}

impl ErrorBound {
    /// Display suffix used in codec/variant names (`abs-1e-3`).
    pub fn label(&self) -> String {
        match self {
            ErrorBound::Abs(e) => format!("abs-{e:e}"),
            ErrorBound::Rel(r) => format!("rel-{r:e}"),
        }
    }

    fn kind_byte(&self) -> u8 {
        match self {
            ErrorBound::Abs(_) => 0,
            ErrorBound::Rel(_) => 1,
        }
    }

    fn param(&self) -> f64 {
        match self {
            ErrorBound::Abs(e) => *e,
            ErrorBound::Rel(r) => *r,
        }
    }

    /// The effective absolute bound this bound implies for `data`, or
    /// `None` when a stream must use an exact fallback (no finite values,
    /// zero range under a relative bound). Shared by the SZ codec and the
    /// archive delta frames so both quantize on the identical lattice.
    pub fn effective(&self, data: &[f32]) -> Option<f64> {
        let e = match self {
            ErrorBound::Abs(e) => *e,
            ErrorBound::Rel(r) => {
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for &v in data {
                    if v.is_finite() {
                        lo = lo.min(v as f64);
                        hi = hi.max(v as f64);
                    }
                }
                if hi <= lo {
                    return None; // constant or no finite values
                }
                r * (hi - lo)
            }
        };
        (e.is_finite() && e > 0.0).then_some(e)
    }
}

/// SZ-style codec with a fixed error bound.
#[derive(Debug, Clone, Copy)]
pub struct Sz {
    bound: ErrorBound,
}

/// Elements per predictor-choice block.
const BLOCK: usize = 256;

/// Largest admissible quantization-code magnitude; larger residuals take
/// the escape path. Keeps codes inside 32 bits and reconstruction
/// arithmetic far from `f64` precision loss.
const QMAX: i64 = 1 << 30;

/// Stream mode tags.
const MODE_QUANTIZED: u8 = 0;
const MODE_EXACT: u8 = 1;

impl Sz {
    /// Create an SZ codec; the bound parameter must be positive and
    /// finite.
    pub fn new(bound: ErrorBound) -> Self {
        let p = bound.param();
        assert!(
            p.is_finite() && p > 0.0,
            "SZ error bound must be positive and finite, got {p}"
        );
        Sz { bound }
    }

    /// Absolute-bound constructor.
    pub fn abs(e: f64) -> Self {
        Sz::new(ErrorBound::Abs(e))
    }

    /// Relative-bound constructor.
    pub fn rel(r: f64) -> Self {
        Sz::new(ErrorBound::Rel(r))
    }

    /// The configured bound.
    pub fn bound(&self) -> ErrorBound {
        self.bound
    }

    /// The effective absolute bound for `data`, or `None` when the
    /// stream must use the exact fallback (no finite values, zero range
    /// under a relative bound).
    fn effective_bound(&self, data: &[f32]) -> Option<f64> {
        self.bound.effective(data)
    }
}

/// 2-D Lorenzo prediction over decoded values: `left + above − above-left`
/// in the (level × horizontal) layout, degrading to the available
/// neighbours on the edges. `col` is `i % npts` (callers walking the
/// field in order track it without a division); `get` reads the
/// reconstruction at an index.
#[inline]
fn lorenzo_pred(i: usize, npts: usize, col: usize, get: impl Fn(usize) -> f32) -> f64 {
    match (i >= npts, col > 0) {
        (true, true) => {
            get(i - 1) as f64 + get(i - npts) as f64 - get(i - npts - 1) as f64
        }
        (true, false) => get(i - npts) as f64,
        (false, true) => get(i - 1) as f64,
        (false, false) => 0.0,
    }
}

/// Least-squares fit `x ≈ a + b·j` over the block's original values,
/// returned as the `f32`-rounded coefficients the decoder will use.
/// Non-finite inputs or degenerate fits collapse to `(0, 0)` — the
/// block then escapes wherever the zero prediction misses the bound.
fn regression_fit(block: &[f32]) -> (f32, f32) {
    let m = block.len();
    if m == 0 {
        return (0.0, 0.0);
    }
    let mf = m as f64;
    let mean_t = (mf - 1.0) / 2.0;
    let mut mean_x = 0.0f64;
    for &x in block {
        mean_x += x as f64;
    }
    mean_x /= mf;
    let mut cov = 0.0f64;
    let mut var = 0.0f64;
    for (j, &x) in block.iter().enumerate() {
        let dt = j as f64 - mean_t;
        cov += dt * (x as f64 - mean_x);
        var += dt * dt;
    }
    let b = if var > 0.0 { cov / var } else { 0.0 };
    let a = mean_x - b * mean_t;
    if a.is_finite() && b.is_finite() {
        (a as f32, b as f32)
    } else {
        (0.0, 0.0)
    }
}

/// Which predictor a block uses.
#[derive(Clone, Copy, PartialEq)]
enum Predictor {
    Lorenzo,
    Regression { a: f32, b: f32 },
}

/// One block's tentative encoding: codes, escapes, reconstruction, and
/// the coded-size cost used to pick the winner.
struct BlockTrial {
    codes: Vec<u64>,
    escapes: Vec<u32>,
    recon: Vec<f32>,
    cost: usize,
}

/// Encode `block` (original values at `start..start+len`) under one
/// predictor against the current reconstruction `state`, without
/// committing. Within-block neighbours read the tentative
/// reconstruction.
fn try_block(
    data: &[f32],
    start: usize,
    len: usize,
    npts: usize,
    e: f64,
    pred: Predictor,
    state: &[f32],
) -> BlockTrial {
    let twoe = 2.0 * e;
    let mut codes = Vec::with_capacity(len);
    let mut escapes = Vec::new();
    let mut recon: Vec<f32> = Vec::with_capacity(len);
    let mut cost = if matches!(pred, Predictor::Regression { .. }) { 8 } else { 0 };
    for j in 0..len {
        let i = start + j;
        let x = data[i];
        let p = match pred {
            Predictor::Lorenzo => lorenzo_pred(i, npts, i % npts, |k| {
                if k >= start { recon[k - start] } else { state[k] }
            }),
            Predictor::Regression { a, b } => a as f64 + b as f64 * j as f64,
        };
        let q = ((x as f64 - p) / twoe).round();
        let mut coded = None;
        if q.is_finite() && q.abs() <= QMAX as f64 {
            let xr = (p + q * twoe) as f32;
            if xr.is_finite() && (xr as f64 - x as f64).abs() <= e {
                coded = Some((q as i64, xr));
            }
        }
        match coded {
            Some((q, xr)) => {
                let token = zigzag(q) + 1;
                cost += varint_len(token);
                codes.push(token);
                recon.push(xr);
            }
            None => {
                cost += 1 + 4; // escape token + literal
                codes.push(0);
                escapes.push(x.to_bits());
                recon.push(x);
            }
        }
    }
    BlockTrial { codes, escapes, recon, cost }
}

impl Codec for Sz {
    fn name(&self) -> String {
        format!("SZ-{}", self.bound.label())
    }

    fn properties(&self) -> CodecProperties {
        // Error-bounded ⇒ fixed quality, varying CR; no native special
        // handling (the guard supplies it) and no lossless mode.
        CodecProperties {
            lossless_mode: false,
            special_values: false,
            freely_available: true,
            fixed_quality: true,
            fixed_cr: false,
            bits_32_and_64: true,
        }
    }

    fn compress(&self, data: &[f32], layout: Layout) -> Vec<u8> {
        assert_eq!(data.len(), layout.len(), "data length must match layout");
        let mut out = Vec::new();
        crate::write_layout_header(&mut out, layout);
        out.push(0); // mode, patched below
        out.push(self.bound.kind_byte());
        out.extend_from_slice(&self.bound.param().to_bits().to_le_bytes());

        let n = data.len();
        let e = match self.effective_bound(data) {
            Some(e) if n > 0 => e,
            _ => {
                // Exact fallback: raw bits through the shuffled path.
                out[crate::LAYOUT_HEADER_LEN] = MODE_EXACT;
                out.extend(cc_lossless::compress_f32_shuffled(data, cc_lossless::Level::Default));
                return out;
            }
        };
        out[crate::LAYOUT_HEADER_LEN] = MODE_QUANTIZED;
        out.extend_from_slice(&e.to_bits().to_le_bytes());

        let npts = layout.npts;
        let nblocks = n.div_ceil(BLOCK);
        let mut state: Vec<f32> = Vec::with_capacity(n);
        let mut choice = vec![0u8; nblocks.div_ceil(8)];
        let mut reg_coeffs: Vec<u8> = Vec::new();
        let mut codes: Vec<u8> = Vec::new();
        let mut escapes: Vec<u8> = Vec::new();
        let mut n_escapes = 0usize;

        for blk in 0..nblocks {
            let start = blk * BLOCK;
            let len = BLOCK.min(n - start);
            let (a, b) = regression_fit(&data[start..start + len]);
            let lorenzo =
                try_block(data, start, len, npts, e, Predictor::Lorenzo, &state);
            let regression = try_block(
                data, start, len, npts, e, Predictor::Regression { a, b }, &state,
            );
            // Ties favour Lorenzo (no coefficients to store).
            let (trial, is_reg) = if regression.cost < lorenzo.cost {
                (regression, true)
            } else {
                (lorenzo, false)
            };
            if is_reg {
                choice[blk / 8] |= 1 << (blk % 8);
                reg_coeffs.extend_from_slice(&a.to_bits().to_le_bytes());
                reg_coeffs.extend_from_slice(&b.to_bits().to_le_bytes());
            }
            for &t in &trial.codes {
                push_varint(&mut codes, t);
            }
            for &bits in &trial.escapes {
                escapes.extend_from_slice(&bits.to_le_bytes());
                n_escapes += 1;
            }
            state.extend_from_slice(&trial.recon);
        }

        let mut body = Vec::with_capacity(12 + choice.len() + reg_coeffs.len() + codes.len() + escapes.len());
        body.extend_from_slice(&(n_escapes as u32).to_le_bytes());
        body.extend_from_slice(&(codes.len() as u32).to_le_bytes());
        body.extend_from_slice(&((reg_coeffs.len() / 8) as u32).to_le_bytes());
        body.extend_from_slice(&choice);
        body.extend_from_slice(&reg_coeffs);
        body.extend_from_slice(&codes);
        body.extend_from_slice(&escapes);
        out.extend(cc_lossless::compress(&body, cc_lossless::Level::Default));
        out
    }

    fn decompress(&self, bytes: &[u8], layout: Layout) -> Result<Vec<f32>, CodecError> {
        let bytes = crate::check_layout_header(bytes, layout)?;
        if bytes.len() < 10 {
            return Err(CodecError::Corrupt("truncated sz header"));
        }
        let mode = bytes[0];
        if bytes[1] != self.bound.kind_byte() {
            return Err(CodecError::Corrupt("sz bound kind mismatch"));
        }
        let param = f64::from_bits(u64::from_le_bytes(bytes[2..10].try_into().unwrap()));
        if param.to_bits() != self.bound.param().to_bits() {
            return Err(CodecError::Corrupt("sz bound parameter mismatch"));
        }
        let n = layout.len();
        match mode {
            MODE_EXACT => {
                let out = cc_lossless::decompress_f32_shuffled(&bytes[10..])?;
                if out.len() != n {
                    return Err(CodecError::LayoutMismatch);
                }
                Ok(out)
            }
            MODE_QUANTIZED => self.decode_quantized(&bytes[10..], layout),
            _ => Err(CodecError::Corrupt("unknown sz mode")),
        }
    }
}

impl Sz {
    fn decode_quantized(&self, bytes: &[u8], layout: Layout) -> Result<Vec<f32>, CodecError> {
        if bytes.len() < 8 {
            return Err(CodecError::Corrupt("truncated sz bound"));
        }
        let e = f64::from_bits(u64::from_le_bytes(bytes[..8].try_into().unwrap()));
        if !(e.is_finite() && e > 0.0) {
            return Err(CodecError::Corrupt("sz effective bound out of range"));
        }
        let twoe = 2.0 * e;
        let n = layout.len();
        let npts = layout.npts;
        if n == 0 {
            return Err(CodecError::Corrupt("quantized sz stream for empty layout"));
        }

        let body = cc_lossless::decompress(&bytes[8..])?;
        if body.len() < 12 {
            return Err(CodecError::Corrupt("truncated sz body header"));
        }
        let rd32 = |at: usize| u32::from_le_bytes(body[at..at + 4].try_into().unwrap()) as usize;
        let n_escapes = rd32(0);
        let code_len = rd32(4);
        let n_reg = rd32(8);
        let nblocks = n.div_ceil(BLOCK);
        let bitmap_len = nblocks.div_ceil(8);
        if n_escapes > n || n_reg > nblocks {
            return Err(CodecError::Corrupt("sz section counts out of range"));
        }
        let expect = 12usize
            .checked_add(bitmap_len)
            .and_then(|v| v.checked_add(n_reg.checked_mul(8)?))
            .and_then(|v| v.checked_add(code_len))
            .and_then(|v| v.checked_add(n_escapes.checked_mul(4)?))
            .ok_or(CodecError::Corrupt("sz section lengths overflow"))?;
        if expect != body.len() {
            return Err(CodecError::Corrupt("sz section lengths disagree with body"));
        }
        let bitmap = &body[12..12 + bitmap_len];
        let set_bits: usize =
            bitmap.iter().map(|b| b.count_ones() as usize).sum();
        if set_bits != n_reg {
            return Err(CodecError::Corrupt("sz regression count disagrees with bitmap"));
        }
        let coeffs = &body[12 + bitmap_len..12 + bitmap_len + n_reg * 8];
        let codes = &body[12 + bitmap_len + n_reg * 8..12 + bitmap_len + n_reg * 8 + code_len];
        let escapes = &body[12 + bitmap_len + n_reg * 8 + code_len..];

        let mut out: Vec<f32> = Vec::with_capacity(n);
        let mut pos = 0usize;
        let mut esc = 0usize;
        let mut reg_idx = 0usize;
        let mut pred = Predictor::Lorenzo;
        let mut next_col = 0usize;
        for i in 0..n {
            let col = next_col;
            next_col = if col + 1 == npts { 0 } else { col + 1 };
            let j = i % BLOCK;
            if j == 0 {
                let blk = i / BLOCK;
                pred = if bitmap[blk / 8] >> (blk % 8) & 1 == 1 {
                    let at = reg_idx * 8;
                    reg_idx += 1;
                    let a = f32::from_bits(u32::from_le_bytes(coeffs[at..at + 4].try_into().unwrap()));
                    let b = f32::from_bits(u32::from_le_bytes(coeffs[at + 4..at + 8].try_into().unwrap()));
                    Predictor::Regression { a, b }
                } else {
                    Predictor::Lorenzo
                };
            }
            let token = read_varint(codes, &mut pos)?;
            if token == 0 {
                if esc >= n_escapes {
                    return Err(CodecError::Corrupt("sz escape literals exhausted"));
                }
                let at = esc * 4;
                out.push(f32::from_bits(u32::from_le_bytes(
                    escapes[at..at + 4].try_into().unwrap(),
                )));
                esc += 1;
                continue;
            }
            let q = unzigzag(token - 1);
            if q.abs() > QMAX {
                return Err(CodecError::Corrupt("sz code out of range"));
            }
            let p = match pred {
                Predictor::Lorenzo => lorenzo_pred(i, npts, col, |k| out[k]),
                Predictor::Regression { a, b } => a as f64 + b as f64 * j as f64,
            };
            let xr = (p + q as f64 * twoe) as f32;
            if !xr.is_finite() {
                return Err(CodecError::Corrupt("sz reconstruction overflow"));
            }
            out.push(xr);
        }
        // Canonical streams consume their sections exactly.
        if pos != codes.len() || esc != n_escapes {
            return Err(CodecError::Corrupt("sz trailing section bytes"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roundtrip;
    use crate::testdata::{noisy_field, smooth_field};

    fn assert_bound(data: &[f32], back: &[f32], e: f64, tag: &str) {
        for (i, (&a, &b)) in data.iter().zip(back).enumerate() {
            if a.is_finite() {
                let err = (b as f64 - a as f64).abs();
                assert!(err <= e, "{tag}: |{b} - {a}| = {err} > {e} at {i}");
            } else {
                assert_eq!(b.to_bits(), a.to_bits(), "{tag}: non-finite at {i}");
            }
        }
    }

    #[test]
    fn abs_bound_holds_on_smooth_field() {
        let (data, layout) = smooth_field(3000, 2);
        for e in [1.0, 0.1, 1e-3, 1e-6] {
            let codec = Sz::abs(e);
            let (back, n) = roundtrip(&codec, &data, layout);
            assert_eq!(back.len(), data.len());
            assert!(n > 0);
            assert_bound(&data, &back, e, "abs");
        }
    }

    #[test]
    fn abs_bound_holds_on_noisy_field() {
        let (data, layout) = noisy_field(5000);
        let codec = Sz::abs(1e-2);
        let (back, _) = roundtrip(&codec, &data, layout);
        assert_bound(&data, &back, 1e-2, "noisy");
    }

    #[test]
    fn rel_bound_scales_with_range() {
        let (data, layout) = smooth_field(4000, 1);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in &data {
            lo = lo.min(v as f64);
            hi = hi.max(v as f64);
        }
        let r = 1e-4;
        let codec = Sz::rel(r);
        let (back, _) = roundtrip(&codec, &data, layout);
        assert_bound(&data, &back, r * (hi - lo), "rel");
    }

    #[test]
    fn constant_field_is_exact_under_rel_bound() {
        let layout = Layout::linear(2000);
        let data = vec![42.5f32; 2000];
        let codec = Sz::rel(1e-3);
        let (back, n) = roundtrip(&codec, &data, layout);
        assert_eq!(back, data);
        assert!(n < 400, "constant field must compress tightly: {n}");
    }

    #[test]
    fn non_finite_values_survive_exactly() {
        let (mut data, layout) = smooth_field(1024, 1);
        data[10] = f32::NAN;
        data[100] = f32::INFINITY;
        data[500] = f32::NEG_INFINITY;
        let codec = Sz::abs(1e-3);
        let (back, _) = roundtrip(&codec, &data, layout);
        assert!(back[10].is_nan());
        assert_eq!(back[100], f32::INFINITY);
        assert_eq!(back[500], f32::NEG_INFINITY);
        assert_bound(&data, &back, 1e-3, "specials");
    }

    #[test]
    fn tighter_bound_costs_more_bytes() {
        let (data, layout) = smooth_field(8000, 2);
        let loose = Sz::abs(1.0).compress(&data, layout).len();
        let tight = Sz::abs(1e-5).compress(&data, layout).len();
        assert!(loose < tight, "loose {loose} vs tight {tight}");
        assert!(loose < data.len() * 4 / 4, "loose bound must compress well: {loose}");
    }

    #[test]
    fn empty_and_single_value_fields() {
        let codec = Sz::abs(0.5);
        let empty = codec.compress(&[], Layout::linear(0));
        assert!(codec.decompress(&empty, Layout::linear(0)).unwrap().is_empty());
        let one = Layout::linear(1);
        let (back, _) = roundtrip(&codec, &[3.25f32], one);
        assert!((back[0] - 3.25).abs() <= 0.5);
    }

    #[test]
    fn subnormals_and_negative_zero_respect_bound() {
        let layout = Layout::linear(6);
        let data = vec![1e-42f32, -1e-42, -0.0, 0.0, f32::MIN_POSITIVE, -f32::MIN_POSITIVE];
        let codec = Sz::abs(1e-6);
        let (back, _) = roundtrip(&codec, &data, layout);
        assert_bound(&data, &back, 1e-6, "subnormal");
    }

    #[test]
    fn reconstruction_is_idempotent() {
        // Re-encoding the reconstruction must also satisfy the bound and
        // produce a decodable stream (values near the lattice).
        let (data, layout) = smooth_field(2000, 1);
        let codec = Sz::abs(1e-2);
        let (once, _) = roundtrip(&codec, &data, layout);
        let (twice, _) = roundtrip(&codec, &once, layout);
        assert_bound(&once, &twice, 1e-2, "idempotent");
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let (data, layout) = smooth_field(1500, 2);
        let codec = Sz::abs(1e-3);
        let good = codec.compress(&data, layout);
        let mut truncated = good.clone();
        truncated.truncate(good.len() / 2);
        assert!(codec.decompress(&truncated, layout).is_err());
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        let _ = codec.decompress(&flipped, layout); // must not panic
        assert!(codec.decompress(&[], layout).is_err());
    }

    #[test]
    fn decoder_rejects_wrong_bound_config() {
        let (data, layout) = smooth_field(500, 1);
        let stream = Sz::abs(1e-3).compress(&data, layout);
        assert!(Sz::abs(1e-4).decompress(&stream, layout).is_err());
        assert!(Sz::rel(1e-3).decompress(&stream, layout).is_err());
    }

    #[test]
    fn regression_blocks_win_on_linear_ramps() {
        // A pure ramp with per-block slope changes: regression predicts
        // it nearly exactly, so at least one block must choose it and the
        // stream stays tiny.
        let n = 4096;
        let layout = Layout::linear(n);
        let data: Vec<f32> = (0..n).map(|i| 5.0 + 0.25 * i as f32).collect();
        let codec = Sz::abs(1e-3);
        let bytes = codec.compress(&data, layout);
        assert!(bytes.len() < n, "ramp must compress far below 1 byte/value: {}", bytes.len());
        let back = codec.decompress(&bytes, layout).unwrap();
        assert_bound(&data, &back, 1e-3, "ramp");
    }

    #[test]
    fn wide_magnitude_field_respects_abs_bound() {
        let layout = Layout::linear(4000);
        let data: Vec<f32> = (0..4000)
            .map(|i| {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                sign * 10f32.powf((i % 70) as f32 - 35.0)
            })
            .collect();
        let codec = Sz::abs(1e-4);
        let (back, _) = roundtrip(&codec, &data, layout);
        assert_bound(&data, &back, 1e-4, "wide");
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_bound_rejected() {
        Sz::abs(0.0);
    }

    #[test]
    fn properties_fixed_quality() {
        let p = Sz::abs(1e-3).properties();
        assert!(p.fixed_quality);
        assert!(!p.fixed_cr);
        assert!(!p.lossless_mode);
    }
}
