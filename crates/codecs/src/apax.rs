//! APAX-style adaptive block-floating-point compression.
//!
//! Reimplements the observable behaviour of Samplify's APAX encoder as
//! described in the paper and its references (Hübbe et al. ISC'13, Laney
//! et al. SC'13, and US patent 7,009,533): the signal is cut into blocks,
//! an *adaptive pre-filter*
//! chooses a derivative order (0, 1, or 2) per block according to the
//! block's dominant frequency content, samples are represented in
//! block-floating-point form (shared exponent + mantissas), and mantissas
//! are packed with either
//!
//! * **fixed-rate** operation — an exact bit budget per block, so the
//!   overall compression ratio is exactly `1/rate` ("the only method that
//!   allows for the specification of fixed compression rates", Section
//!   3.2.4), quality varying; or
//! * **fixed-quality** operation — a per-block quantization chosen to meet
//!   an absolute error target, rate varying.
//!
//! Quantization bounds the **absolute** error (the paper's fpzip/APAX
//! contrast). [`Profiler`] reproduces the APAX profiler tool: it sweeps
//! encoding rates and recommends the highest rate whose reconstruction
//! keeps the Pearson correlation above 0.99999.

use crate::{Codec, CodecError, CodecProperties, Layout};
use cc_lossless::bitio::{BitReader, BitWriter};

/// Samples per block.
pub const BLOCK: usize = 256;

/// Mantissa bits used for the block-floating-point representation before
/// rate reduction (f32 has 24 significant bits; +2 headroom for the
/// second derivative).
const BFP_BITS: u32 = 26;

/// Operating mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Exact compression rate (e.g. 2.0, 4.0, 5.0): output bits per sample
    /// = 32/rate, enforced per block.
    FixedRate(f64),
    /// Absolute error target in units of the data: quantization step is
    /// chosen per block so `|x − x̃| ≤ target`.
    FixedQuality(f64),
    /// Lossless (rate 1): full-precision mantissas.
    Lossless,
}

/// The APAX-style codec.
#[derive(Debug, Clone, Copy)]
pub struct Apax {
    mode: Mode,
}

impl Apax {
    /// Fixed-rate encoder (`rate > 1`), e.g. `Apax::fixed_rate(4.0)` for
    /// the paper's APAX-4.
    pub fn fixed_rate(rate: f64) -> Self {
        assert!(rate > 1.0 && rate <= 32.0, "rate must be in (1, 32]");
        Apax { mode: Mode::FixedRate(rate) }
    }

    /// Fixed-quality encoder with an absolute error target.
    pub fn fixed_quality(max_abs_err: f64) -> Self {
        assert!(max_abs_err > 0.0, "error target must be positive");
        Apax { mode: Mode::FixedQuality(max_abs_err) }
    }

    /// Lossless mode (32-bit data only, as Table 1 footnotes).
    pub fn lossless() -> Self {
        Apax { mode: Mode::Lossless }
    }

    /// The mode this encoder runs in.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The paper's fixed rates: APAX-2, APAX-4, APAX-5.
    pub fn paper_variants() -> [Apax; 3] {
        [Apax::fixed_rate(2.0), Apax::fixed_rate(4.0), Apax::fixed_rate(5.0)]
    }
}

/// Choose the derivative order whose differenced signal has the smallest
/// mean magnitude — APAX's adaptive pre-filter ("center frequency"
/// detection): smooth low-frequency blocks benefit from differencing,
/// noisy blocks do not.
fn choose_derivative(q: &[i64]) -> u32 {
    let sum_abs = |v: &[i64]| v.iter().map(|&x| x.unsigned_abs() as u128).sum::<u128>();
    let d0 = sum_abs(q);
    let d1v: Vec<i64> = q.windows(2).map(|w| w[1] - w[0]).collect();
    let d1 = sum_abs(&d1v);
    let d2v: Vec<i64> = d1v.windows(2).map(|w| w[1] - w[0]).collect();
    let d2 = sum_abs(&d2v);
    if d0 <= d1 && d0 <= d2 {
        0
    } else if d1 <= d2 {
        1
    } else {
        2
    }
}

// Differencing and its inverse wrap: corrupt streams can decode mantissas
// near the i64 extremes, and wrapping keeps the pair exactly inverse while
// never trapping on overflow.
fn apply_derivative(q: &mut [i64], order: u32) {
    for _ in 0..order {
        for i in (1..q.len()).rev() {
            q[i] = q[i].wrapping_sub(q[i - 1]);
        }
    }
}

fn integrate(q: &mut [i64], order: u32) {
    for _ in 0..order {
        for i in 1..q.len() {
            q[i] = q[i].wrapping_add(q[i - 1]);
        }
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Bits needed for the largest zigzagged magnitude in `q`.
fn bits_needed(q: &[i64]) -> u32 {
    let max = q.iter().map(|&v| zigzag(v)).max().unwrap_or(0);
    64 - max.leading_zeros()
}

/// Rice parameter minimizing the exact coded size, with that size. The
/// candidates are the log2(mean) estimate and the two parameters on
/// either side of it, all sized in one pass. A tie keeps the estimate if
/// it reaches the least size, otherwise the lowest candidate that does.
fn rice_best(zz: &[u64]) -> (u32, u64) {
    let mean = zz.iter().map(|&v| v as u128).sum::<u128>() / zz.len().max(1) as u128;
    let mut k = 0u32;
    while (1u128 << (k + 1)) <= mean + 1 && k < 40 {
        k += 1;
    }
    let (lo, hi) = (k.saturating_sub(2), (k + 2).min(40));
    // Lanes past `hi` repeat `hi`, so they never come first at the minimum.
    let cands: [u32; 5] = std::array::from_fn(|j| (lo + j as u32).min(hi));
    let mut sizes = [0u64; 5];
    for &v in zz {
        for (size, &c) in sizes.iter_mut().zip(&cands) {
            let q = v >> c;
            *size += if q < 48 { q + 1 + c as u64 } else { 48 + 64 };
        }
    }
    let least = sizes.into_iter().min().unwrap_or(0);
    let at_estimate = sizes[(k - lo) as usize];
    let best = if at_estimate == least {
        k
    } else {
        cands[sizes.iter().position(|&size| size == least).unwrap_or(0)]
    };
    (best, least)
}

/// Split a residual stream into (up to) four equal quarters, each of which
/// carries its own Rice parameter.
fn quarters(zz: &[u64]) -> impl Iterator<Item = &[u64]> {
    let chunk = zz.len().div_ceil(4).max(1);
    zz.chunks(chunk)
}

/// The fixed-rate search: the smallest quantization shift (at most 40)
/// whose Rice-coded residuals fit `payload` bits. Leaves that shift's
/// filtered mantissas in `filtered`. Both buffers are reused across the
/// trial shifts, and a trial stops summing quarters once it is over the
/// payload.
fn fixed_rate_shift(q: &[i64], order: usize, payload: u64, filtered: &mut Vec<i64>) -> u32 {
    let mut zz = Vec::with_capacity(q.len());
    let mut s = 0u32;
    loop {
        Apax::quantize_and_filter(q, s, order as u32, filtered);
        if s >= 40 {
            return s;
        }
        zz.clear();
        zz.extend(filtered[order..].iter().map(|&v| zigzag(v)));
        let mut size = 0u64;
        if quarters(&zz).all(|quarter| {
            size += rice_best(quarter).1;
            size <= payload
        }) {
            return s;
        }
        s += 1;
    }
}

/// Block header: exp(16) + order(2) + shift s(6) + width W(6) bits.
const HEADER_BITS: u64 = 30;

/// Fixed-rate bit budget for a block of `n` samples. The floor covers the
/// worst-case framing (header + three extra Rice parameters + two verbatim
/// warm-up samples + one bit per sample) so tiny trailing blocks stay
/// representable; it only lifts the budget for blocks far smaller than
/// [`BLOCK`].
fn block_budget_bits(n: usize, rate: f64) -> u64 {
    (((n as f64) * 32.0 / rate).floor() as u64).max(HEADER_BITS + 18 + 2 * 28 + n as u64)
}

impl Apax {
    /// Quantize mantissas by `s` bits (round-to-nearest, in the original
    /// domain so the error is bounded per sample with no integration
    /// amplification), then apply the derivative pre-filter losslessly.
    /// Writes into `out`, whose allocation the fixed-rate search reuses.
    fn quantize_and_filter(q: &[i64], s: u32, order: u32, out: &mut Vec<i64>) {
        out.clear();
        out.extend(q.iter().map(|&v| round_shift(v, s)));
        apply_derivative(out, order);
    }

    fn compress_block(&self, block: &[f32], w: &mut BitWriter) {
        let n = block.len();

        // Block floating point: shared exponent from the block's max
        // magnitude; mantissas are signed integers of BFP_BITS precision.
        let max_abs = block.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let exp = if max_abs == 0.0 { -126 } else { max_abs.log2().floor() as i32 };
        let shift = BFP_BITS as i32 - 2 - exp;
        let scale = 2f64.powi(shift);
        let q: Vec<i64> = block.iter().map(|&v| (v as f64 * scale).round() as i64).collect();

        // Adaptive derivative pre-filter (chosen on unquantized mantissas).
        let order = (choose_derivative(&q) as usize).min(n);
        // The first `order` filtered samples are derivative warm-ups that
        // still carry the block's full (DC) magnitude; coding them verbatim
        // keeps the quantization shift `s` from being forced up by them.
        const WARMUP_BITS: u64 = 28; // zigzagged 26-bit BFP mantissas

        // Choose the quantization shift `s`.
        let mut filtered = Vec::with_capacity(n);
        let s = match self.mode {
            Mode::Lossless => {
                Self::quantize_and_filter(&q, 0, order as u32, &mut filtered);
                0
            }
            Mode::FixedQuality(target) => {
                // Quantizing mantissas by s bits gives |err| ≤ 2^(s−1)/scale.
                let max_step = (target * scale).max(1.0);
                let s = (max_step.log2().floor().max(0.0) as u32).min(40);
                Self::quantize_and_filter(&q, s, order as u32, &mut filtered);
                s
            }
            Mode::FixedRate(rate) => {
                // Find the smallest quantization shift whose Rice-coded
                // stream fits the block budget, so smooth blocks spend the
                // rate on extra precision instead of padding.
                let budget = block_budget_bits(n, rate);
                let payload = budget.saturating_sub(
                    HEADER_BITS + 3 * 6 + order as u64 * WARMUP_BITS,
                );
                fixed_rate_shift(&q, order, payload, &mut filtered)
            }
        };

        let start_bits = w.bit_len();
        w.write_bits(exp as i64 as u64 & 0xFFFF, 16);
        w.write_bits(order as u64, 2);
        w.write_bits(s as u64, 6);
        match self.mode {
            Mode::FixedRate(rate) => {
                // Rice-coded payload padded to the exact block budget —
                // fixed rate means fixed size. Each quarter of the block
                // carries its own Rice parameter (values spanning decades
                // within a block are common for lognormal variables); the
                // 6-bit header field holds the first.
                let zz: Vec<u64> = filtered[order..].iter().map(|&v| zigzag(v)).collect();
                let mut ks: Vec<u32> = quarters(&zz).map(|quarter| rice_best(quarter).0).collect();
                ks.resize(4, 0);
                for &k in &ks {
                    w.write_bits(k as u64, 6);
                }
                for &v in &filtered[..order] {
                    w.write_bits(zigzag(v), WARMUP_BITS as u32);
                }
                for (quarter, &k) in quarters(&zz).zip(&ks) {
                    for &z in quarter {
                        w.write_rice(z, k);
                    }
                }
                let target = block_budget_bits(n, rate) as usize;
                let used = w.bit_len() - start_bits;
                debug_assert!(used <= target, "block overran its budget: {used} > {target}");
                let mut pad = target - used;
                while pad > 0 {
                    let chunk = pad.min(48);
                    w.write_bits(0, chunk as u32);
                    pad -= chunk;
                }
            }
            _ => {
                // Uniform-width packing (after verbatim warm-ups) for
                // lossless / fixed-quality modes.
                let width = bits_needed(&filtered[order..]).clamp(1, 56);
                w.write_bits(width as u64, 6);
                for &v in &filtered[..order] {
                    w.write_bits(zigzag(v), WARMUP_BITS as u32);
                }
                let maxv = if width >= 63 { u64::MAX } else { (1u64 << width) - 1 };
                for &v in &filtered[order..] {
                    w.write_bits(zigzag(v).min(maxv), width);
                }
            }
        }
    }

    fn decompress_block(
        &self,
        r: &mut BitReader<'_>,
        n: usize,
    ) -> Result<Vec<f32>, CodecError> {
        let start = r.bits_consumed();
        let exp = (r.read_bits(16)? as u16) as i16 as i32;
        let order = r.read_bits(2)? as u32;
        let s = r.read_bits(6)? as u32;
        let field = r.read_bits(6)? as u32; // Rice k (fixed-rate) or width
        if order > 2 {
            return Err(CodecError::Corrupt("bad APAX block header"));
        }
        let warmup = (order as usize).min(n);
        let mut q = Vec::with_capacity(n);
        if let Mode::FixedRate(rate) = self.mode {
            let mut ks = [field, 0, 0, 0];
            for slot in ks.iter_mut().skip(1) {
                *slot = r.read_bits(6)? as u32;
            }
            if ks.iter().any(|&k| k > 40) {
                return Err(CodecError::Corrupt("bad APAX rice parameter"));
            }
            for _ in 0..warmup {
                q.push(unzigzag(r.read_bits(28)?));
            }
            let rest = n - warmup;
            let chunk = rest.div_ceil(4).max(1);
            for i in 0..rest {
                let k = ks[(i / chunk).min(3)];
                q.push(unzigzag(r.read_rice(k)?));
            }
            integrate(&mut q, order);
            // Skip the block's padding.
            let target = block_budget_bits(n, rate) as usize;
            let used = r.bits_consumed() - start;
            if used > target {
                return Err(CodecError::Corrupt("APAX block exceeds fixed-rate budget"));
            }
            let mut pad = target - used;
            while pad > 0 {
                let chunk = pad.min(48);
                r.read_bits(chunk as u32)?;
                pad -= chunk;
            }
        } else {
            let width = field;
            if width == 0 || width > 56 {
                return Err(CodecError::Corrupt("bad APAX block header"));
            }
            for _ in 0..warmup {
                q.push(unzigzag(r.read_bits(28)?));
            }
            for _ in warmup..n {
                let zz = r.read_bits(width)?;
                q.push(unzigzag(zz));
            }
            integrate(&mut q, order);
        }
        let shift = BFP_BITS as i32 - 2 - exp;
        let inv_scale = 2f64.powi(-(shift - s as i32));
        Ok(q.into_iter().map(|v| (v as f64 * inv_scale) as f32).collect())
    }
}

/// Round-to-nearest arithmetic right shift.
#[inline]
fn round_shift(v: i64, s: u32) -> i64 {
    if s == 0 {
        v
    } else {
        (v + (1i64 << (s - 1))) >> s
    }
}

impl Codec for Apax {
    fn name(&self) -> String {
        match self.mode {
            Mode::FixedRate(r) => format!("APAX-{}", r),
            Mode::FixedQuality(q) => format!("APAX-q{q:.0e}"),
            Mode::Lossless => "APAX-lossless".to_string(),
        }
    }

    fn properties(&self) -> CodecProperties {
        // Table 1 row "APAX": lossless Y (32-bit only), special N, freely
        // available N (commercial), fixed quality Y, fixed CR Y, 32&64 Y.
        CodecProperties {
            lossless_mode: true,
            special_values: false,
            freely_available: false,
            fixed_quality: true,
            fixed_cr: true,
            bits_32_and_64: true,
        }
    }

    fn compress(&self, data: &[f32], layout: Layout) -> Vec<u8> {
        assert_eq!(data.len(), layout.len(), "data length must match layout");
        let mut out = Vec::new();
        crate::write_layout_header(&mut out, layout);
        let mut w = BitWriter::new();
        for block in data.chunks(BLOCK) {
            self.compress_block(block, &mut w);
        }
        out.extend(w.finish());
        out
    }

    fn decompress(&self, bytes: &[u8], layout: Layout) -> Result<Vec<f32>, CodecError> {
        let bytes = crate::check_layout_header(bytes, layout)?;
        let n = layout.len();
        let mut r = BitReader::new(bytes);
        let mut out = Vec::with_capacity(n);
        let mut done = 0usize;
        while done < n {
            let len = BLOCK.min(n - done);
            out.extend(self.decompress_block(&mut r, len)?);
            done += len;
        }
        Ok(out)
    }
}

/// The APAX profiler: sweeps fixed rates, reports quality per rate, and
/// recommends the highest rate meeting the correlation threshold the paper
/// adopts (ρ ≥ 0.99999).
#[derive(Debug)]
pub struct Profiler {
    /// Rates to sweep, descending aggressiveness.
    pub rates: Vec<f64>,
    /// Correlation threshold for the recommendation.
    pub rho_threshold: f64,
}

/// One profiler measurement.
#[derive(Debug, Clone, Copy)]
pub struct ProfileEntry {
    /// Encoding rate (CR = 1/rate).
    pub rate: f64,
    /// Pearson correlation of reconstruction vs original.
    pub pearson: f64,
    /// Maximum absolute error.
    pub max_abs_err: f64,
    /// Compressed size in bytes.
    pub bytes: usize,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler { rates: vec![8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0], rho_threshold: 0.99999 }
    }
}

impl Profiler {
    /// Profile `data`, returning per-rate quality and the recommended rate
    /// (the most aggressive meeting the threshold; `None` if none does).
    pub fn profile(&self, data: &[f32], layout: Layout) -> (Vec<ProfileEntry>, Option<f64>) {
        let mut entries = Vec::new();
        let mut recommended = None;
        for &rate in &self.rates {
            let codec = Apax::fixed_rate(rate);
            let bytes = codec.compress(data, layout);
            let back = codec.decompress(&bytes, layout).expect("own stream");
            let (rho, max_err) = quality(data, &back);
            entries.push(ProfileEntry { rate, pearson: rho, max_abs_err: max_err, bytes: bytes.len() });
            if recommended.is_none() && rho >= self.rho_threshold {
                recommended = Some(rate);
            }
        }
        (entries, recommended)
    }
}

fn quality(a: &[f32], b: &[f32]) -> (f64, f64) {
    let n = a.len() as f64;
    if a.is_empty() {
        return (1.0, 0.0);
    }
    let ma = a.iter().map(|&v| v as f64).sum::<f64>() / n;
    let mb = b.iter().map(|&v| v as f64).sum::<f64>() / n;
    let mut sab = 0.0;
    let mut saa = 0.0;
    let mut sbb = 0.0;
    let mut emax = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        let (x, y) = (x as f64, y as f64);
        sab += (x - ma) * (y - mb);
        saa += (x - ma) * (x - ma);
        sbb += (y - mb) * (y - mb);
        emax = emax.max((x - y).abs());
    }
    let rho = if saa <= 0.0 || sbb <= 0.0 { 1.0 } else { sab / (saa.sqrt() * sbb.sqrt()) };
    (rho, emax)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roundtrip;
    use crate::testdata::{noisy_field, smooth_field};

    #[test]
    fn fixed_rate_hits_exact_budget() {
        let (data, layout) = smooth_field(BLOCK * 8, 1);
        for rate in [2.0f64, 4.0, 5.0] {
            let codec = Apax::fixed_rate(rate);
            let bytes = codec.compress(&data, layout);
            let expect = (data.len() as f64 * 4.0 / rate).ceil();
            let got = bytes.len() as f64;
            assert!(
                (got - expect).abs() <= expect * 0.01 + 16.0,
                "rate {rate}: {got} bytes vs expected {expect}"
            );
        }
    }

    #[test]
    fn fixed_rate_roundtrips_with_small_error() {
        let (data, layout) = smooth_field(BLOCK * 4 + 57, 2);
        for rate in [2.0f64, 4.0, 5.0] {
            let codec = Apax::fixed_rate(rate);
            let (back, _) = roundtrip(&codec, &data, layout);
            assert_eq!(back.len(), data.len());
            let range = 330.0f64;
            for (&a, &b) in data.iter().zip(&back) {
                let err = (a as f64 - b as f64).abs() / range;
                assert!(err < 0.05, "rate {rate}: normalized err {err}");
            }
        }
    }

    #[test]
    fn higher_rate_means_higher_error() {
        let (data, layout) = smooth_field(BLOCK * 8, 1);
        let err = |rate: f64| -> f64 {
            let (back, _) = roundtrip(&Apax::fixed_rate(rate), &data, layout);
            data.iter()
                .zip(&back)
                .map(|(&a, &b)| (a as f64 - b as f64).abs())
                .fold(0.0, f64::max)
        };
        let e2 = err(2.0);
        let e5 = err(5.0);
        assert!(e5 > e2, "rate 5 err {e5} must exceed rate 2 err {e2}");
    }

    #[test]
    fn lossless_mode_is_block_exact() {
        // Block floating point is exact relative to the block's shared
        // exponent: |err| ≤ block_max · 2^-24. Samples much smaller than
        // their block's max necessarily lose trailing mantissa bits — the
        // reason Table 1 footnotes APAX's lossless mode.
        let (data, layout) = noisy_field(BLOCK * 3 + 11);
        let (back, _) = roundtrip(&Apax::lossless(), &data, layout);
        for (block_a, block_b) in data.chunks(BLOCK).zip(back.chunks(BLOCK)) {
            let max = block_a.iter().fold(0.0f64, |m, &v| m.max(v.abs() as f64));
            let tol = max.max(1e-300) * 2f64.powi(-23);
            for (&a, &b) in block_a.iter().zip(block_b) {
                let err = (a as f64 - b as f64).abs();
                assert!(err <= tol, "{a} -> {b} (err {err}, tol {tol})");
            }
        }
    }

    #[test]
    fn fixed_quality_meets_absolute_target() {
        let (data, layout) = smooth_field(BLOCK * 6, 1);
        for target in [1.0f64, 0.1, 0.01] {
            let codec = Apax::fixed_quality(target);
            let (back, _) = roundtrip(&codec, &data, layout);
            for (&a, &b) in data.iter().zip(&back) {
                let err = (a as f64 - b as f64).abs();
                assert!(err <= target * 1.5 + 1e-6, "target {target}: err {err}");
            }
        }
    }

    #[test]
    fn fixed_quality_rate_varies_with_target() {
        let (data, layout) = smooth_field(BLOCK * 6, 1);
        let loose = Apax::fixed_quality(1.0).compress(&data, layout).len();
        let tight = Apax::fixed_quality(0.001).compress(&data, layout).len();
        assert!(tight > loose, "tight {tight} loose {loose}");
    }

    #[test]
    fn derivative_filter_chooses_sensibly() {
        // A linear ramp should prefer differencing.
        let ramp: Vec<i64> = (0..256).map(|i| i * 1000).collect();
        assert!(choose_derivative(&ramp) >= 1);
        // White noise should prefer order 0.
        let mut state = 99u64;
        let noise: Vec<i64> = (0..256)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 40) as i64 - (1 << 23)
            })
            .collect();
        assert_eq!(choose_derivative(&noise), 0);
    }

    /// Deterministic pseudo-random words for the tests below.
    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        }
    }

    /// Exact bit count `write_rice` produces for `zz` at parameter `k`
    /// (including the 48-one escape used for huge quotients).
    fn rice_size(zz: &[u64], k: u32) -> u64 {
        let mut bits = 0u64;
        for &v in zz {
            let q = v >> k;
            if q < 48 {
                bits += q + 1 + k as u64;
            } else {
                bits += 48 + 64;
            }
        }
        bits
    }

    /// The log2(mean) estimate the Rice parameter search starts from.
    fn rice_k_estimate(zz: &[u64]) -> u32 {
        let mean = zz.iter().map(|&v| v as u128).sum::<u128>() / zz.len().max(1) as u128;
        let mut k = 0u32;
        while (1u128 << (k + 1)) <= mean + 1 && k < 40 {
            k += 1;
        }
        k
    }

    /// The Rice parameter search as first written, one pass per
    /// candidate: start from the estimate, then take each candidate from
    /// k−2 up to k+2 that is strictly smaller.
    fn rice_k_for(zz: &[u64]) -> u32 {
        let k = rice_k_estimate(zz);
        let mut best = (rice_size(zz, k), k);
        for cand in k.saturating_sub(2)..=(k + 2).min(40) {
            let size = rice_size(zz, cand);
            if size < best.0 {
                best = (size, cand);
            }
        }
        best.1
    }

    #[test]
    fn one_pass_rice_choice_matches_search() {
        let mut next = lcg(0xA9A7);
        // Both halves of the tie rule must be exercised: the estimate
        // kept although a lower candidate ties it, and the lowest of two
        // tied candidates taken when the estimate is larger.
        let (mut escaped, mut kept_estimate, mut took_lowest) = (false, false, false);
        for case in 0..800 {
            let len = (next() % 70) as usize;
            let zz: Vec<u64> = match case % 4 {
                // Random magnitudes from 0 to 64 bits.
                0 => (0..len).map(|_| next() >> (next() % 65).min(63)).collect(),
                1 => vec![0; len],
                // Escape-heavy: small values with every seventh one huge.
                2 => (0..len)
                    .map(|i| match i % 7 {
                        0 => (next() >> (next() % 8)) | 1 << 56,
                        _ => next() % 4,
                    })
                    .collect(),
                // Short runs of small values, where candidate sizes tie.
                _ => (0..len % 6).map(|_| next() % 16).collect(),
            };
            let k = rice_k_for(&zz);
            let size = rice_size(&zz, k);
            let est = rice_k_estimate(&zz);
            let ties = (est.saturating_sub(2)..=(est + 2).min(40))
                .filter(|&c| rice_size(&zz, c) == size)
                .count();
            escaped |= zz.iter().any(|&v| v >> k >= 48);
            kept_estimate |= k == est && est > 0 && rice_size(&zz, est - 1) == size;
            took_lowest |= k != est && ties > 1;
            assert_eq!(rice_best(&zz), (k, size), "case {case}: {zz:?}");
        }
        assert!(escaped, "no case reached the escape code");
        assert!(kept_estimate, "no case kept the estimate over a tied lower candidate");
        assert!(took_lowest, "no case chose between tied candidates below the estimate");
    }

    /// The fixed-rate search as first written: new vectors per trial
    /// shift, `rice_k_for` then `rice_size` per quarter, the full sum.
    fn fixed_rate_shift_reference(q: &[i64], order: usize, payload: u64) -> (u32, Vec<i64>) {
        let mut s = 0u32;
        loop {
            let mut f = Vec::new();
            Apax::quantize_and_filter(q, s, order as u32, &mut f);
            let zz: Vec<u64> = f[order..].iter().map(|&v| zigzag(v)).collect();
            let size: u64 =
                quarters(&zz).map(|quarter| rice_size(quarter, rice_k_for(quarter))).sum();
            if size <= payload || s >= 40 {
                return (s, f);
            }
            s += 1;
        }
    }

    #[test]
    fn fixed_rate_search_matches_reference() {
        let mut next = lcg(0x5A17);
        for case in 0..400 {
            let n = 1 + (next() % BLOCK as u64) as usize;
            let bits = 1 + next() % 26;
            let smooth = case % 2 == 0;
            let mut acc = 0i64;
            let q: Vec<i64> = (0..n)
                .map(|_| {
                    let step = (next() % (1 << bits)) as i64 - (1 << (bits - 1));
                    acc = if smooth { acc.wrapping_add(step >> 4) } else { step };
                    acc
                })
                .collect();
            let order = (case % 3).min(n);
            let payload = next() % (40 * n as u64);
            let mut filtered = Vec::new();
            let s = fixed_rate_shift(&q, order, payload, &mut filtered);
            let (s_ref, f_ref) = fixed_rate_shift_reference(&q, order, payload);
            assert_eq!((s, &filtered), (s_ref, &f_ref), "case {case}");
        }
    }

    #[test]
    fn fixed_rate_blocks_fill_their_budget_exactly() {
        let mut next = lcg(0xB10C);
        // Three full blocks and a short trailing one.
        let n = 3 * BLOCK + 41;
        let layout = Layout::linear(n);
        for rate in 2..=7 {
            let rate = rate as f64;
            let data: Vec<f32> = (0..n)
                .map(|_| {
                    let mag = 2f32.powi((next() % 40) as i32 - 20);
                    mag * ((next() >> 40) as f32 / (1u64 << 24) as f32 - 0.5)
                })
                .collect();
            let codec = Apax::fixed_rate(rate);
            let mut w = BitWriter::new();
            for block in data.chunks(BLOCK) {
                let before = w.bit_len();
                codec.compress_block(block, &mut w);
                let used = (w.bit_len() - before) as u64;
                assert_eq!(used, block_budget_bits(block.len(), rate), "rate {rate}");
            }
            let bytes = codec.compress(&data, layout);
            assert_eq!(crate::check_layout_header(&bytes, layout).unwrap(), w.finish());
            let back = codec.decompress(&bytes, layout).unwrap();
            assert_eq!(back.len(), n);
            // Each sample is off by at most the BFP rounding plus the
            // quantization its block header's shift `s` allows.
            let mut r = BitReader::new(crate::check_layout_header(&bytes, layout).unwrap());
            for (block, decoded) in data.chunks(BLOCK).zip(back.chunks(BLOCK)) {
                let start = r.bits_consumed();
                let exp = (r.read_bits(16).unwrap() as u16) as i16 as i32;
                r.read_bits(2).unwrap();
                let s = r.read_bits(6).unwrap() as i32;
                let scale = 2f64.powi(BFP_BITS as i32 - 2 - exp);
                let bound = (0.5 + 2f64.powi(s - 1)) / scale;
                for (&a, &b) in block.iter().zip(decoded) {
                    let err = (a as f64 - b as f64).abs();
                    assert!(err <= bound + b.abs() as f64 * 1e-7, "rate {rate}: {a} vs {b}");
                }
                let budget = block_budget_bits(block.len(), rate) as usize;
                let mut skip = budget - (r.bits_consumed() - start);
                while skip > 0 {
                    let chunk = skip.min(48);
                    r.read_bits(chunk as u32).unwrap();
                    skip -= chunk;
                }
            }
        }
    }

    #[test]
    fn derivative_integrate_roundtrip() {
        let q: Vec<i64> = (0..100).map(|i| (i * i) as i64 - 50).collect();
        for order in 0..3u32 {
            let mut f = q.clone();
            apply_derivative(&mut f, order);
            integrate(&mut f, order);
            assert_eq!(f, q, "order {order}");
        }
    }

    #[test]
    fn blocks_with_zeros_and_constants() {
        let mut data = vec![0.0f32; BLOCK];
        data.extend(vec![7.25f32; BLOCK]);
        let layout = Layout::linear(data.len());
        let (back, _) = roundtrip(&Apax::fixed_rate(4.0), &data, layout);
        for (&a, &b) in data.iter().zip(&back) {
            assert!((a - b).abs() < 0.1, "{a} vs {b}");
        }
    }

    #[test]
    fn partial_final_block() {
        let (data, layout) = smooth_field(BLOCK + 37, 1);
        let (back, _) = roundtrip(&Apax::fixed_rate(2.0), &data, layout);
        assert_eq!(back.len(), data.len());
    }

    #[test]
    fn profiler_recommends_reasonable_rate() {
        let (data, layout) = smooth_field(BLOCK * 16, 1);
        let profiler = Profiler::default();
        let (entries, rec) = profiler.profile(&data, layout);
        assert_eq!(entries.len(), 7);
        // Smooth data must admit at least rate 2 at five-nines correlation.
        let rec = rec.expect("profiler should find an acceptable rate");
        assert!(rec >= 2.0);
        // Entries must show monotone-ish quality degradation with rate.
        let rho2 = entries.iter().find(|e| e.rate == 2.0).unwrap().pearson;
        let rho8 = entries.iter().find(|e| e.rate == 8.0).unwrap().pearson;
        assert!(rho2 >= rho8);
    }

    #[test]
    fn corrupt_stream_is_error() {
        let (data, layout) = smooth_field(BLOCK * 2, 1);
        let codec = Apax::fixed_rate(4.0);
        let bytes = codec.compress(&data, layout);
        assert!(codec.decompress(&bytes[..8], layout).is_err());
    }

    #[test]
    fn properties_match_table1() {
        let p = Apax::fixed_rate(2.0).properties();
        assert!(p.lossless_mode);
        assert!(!p.special_values);
        assert!(!p.freely_available, "APAX is the one commercial product");
        assert!(p.fixed_quality);
        assert!(p.fixed_cr);
        assert!(p.bits_32_and_64);
    }

    #[test]
    #[should_panic(expected = "rate must be")]
    fn bad_rate_rejected() {
        Apax::fixed_rate(1.0);
    }
}
