//! Property tests for the CESM-PVT machinery.

use cc_metrics::{is_special, FILL_VALUE, SPECIAL_THRESHOLD};
use cc_pvt::{enmax_test, rmsz_test, BiasRegression, EnsembleStats, ScoreDistribution, MIN_SIGMA};
use proptest::prelude::*;

fn member(seed: u64, m: usize, p: usize) -> f32 {
    let h = (m.wrapping_mul(2654435761) ^ p.wrapping_mul(40503))
        .wrapping_add(seed as usize)
        .wrapping_mul(2246822519);
    ((h % 100_000) as f32) / 1000.0 + (p as f32 * 0.37).sin() * 20.0
}

/// Scalar reference for [`EnsembleStats`]: the branching loops it was
/// first written with. The accumulator must match it bit for bit.
struct ReferenceStats {
    n_members: usize,
    sum: Vec<f64>,
    sumsq: Vec<f64>,
    min1: Vec<f32>,
    min2: Vec<f32>,
    max1: Vec<f32>,
    max2: Vec<f32>,
    special: Vec<bool>,
    global_means: Vec<f64>,
}

impl ReferenceStats {
    fn new(npts: usize) -> Self {
        ReferenceStats {
            n_members: 0,
            sum: vec![0.0; npts],
            sumsq: vec![0.0; npts],
            min1: vec![f32::INFINITY; npts],
            min2: vec![f32::INFINITY; npts],
            max1: vec![f32::NEG_INFINITY; npts],
            max2: vec![f32::NEG_INFINITY; npts],
            special: vec![false; npts],
            global_means: Vec::new(),
        }
    }

    fn add_member(&mut self, data: &[f32]) {
        let mut gsum = 0.0f64;
        let mut gcount = 0usize;
        for (p, &v) in data.iter().enumerate() {
            if is_special(v) {
                self.special[p] = true;
                continue;
            }
            let x = v as f64;
            self.sum[p] += x;
            self.sumsq[p] += x * x;
            if v < self.min1[p] {
                self.min2[p] = self.min1[p];
                self.min1[p] = v;
            } else if v < self.min2[p] {
                self.min2[p] = v;
            }
            if v > self.max1[p] {
                self.max2[p] = self.max1[p];
                self.max1[p] = v;
            } else if v > self.max2[p] {
                self.max2[p] = v;
            }
            gsum += x;
            gcount += 1;
        }
        self.global_means.push(if gcount == 0 { 0.0 } else { gsum / gcount as f64 });
        self.n_members += 1;
    }

    fn rmsz_excluding(&self, member_orig: &[f32], eval: &[f32]) -> Option<f64> {
        let nm1 = (self.n_members - 1) as f64;
        let mut acc = 0.0f64;
        let mut count = 0usize;
        for p in 0..self.sum.len() {
            if self.special[p] {
                continue;
            }
            let xm = member_orig[p] as f64;
            let mean = (self.sum[p] - xm) / nm1;
            let var = ((self.sumsq[p] - xm * xm) / nm1 - mean * mean).max(0.0);
            let sigma = var.sqrt();
            if sigma < MIN_SIGMA {
                continue;
            }
            let z = (eval[p] as f64 - mean) / sigma;
            acc += z * z;
            count += 1;
        }
        (count > 0).then(|| (acc / count as f64).sqrt())
    }

    fn enmax_excluding(&self, member_orig: &[f32]) -> Option<f64> {
        let mut stats_min = f64::INFINITY;
        let mut stats_max = f64::NEG_INFINITY;
        for &v in member_orig {
            if !is_special(v) {
                stats_min = stats_min.min(v as f64);
                stats_max = stats_max.max(v as f64);
            }
        }
        let range = stats_max - stats_min;
        if !range.is_finite() || range <= 0.0 {
            return None;
        }
        let mut emax = 0.0f64;
        for (p, &v) in member_orig.iter().enumerate() {
            if self.special[p] {
                continue;
            }
            let lo = if v == self.min1[p] { self.min2[p] } else { self.min1[p] };
            let hi = if v == self.max1[p] { self.max2[p] } else { self.max1[p] };
            if lo.is_finite() {
                emax = emax.max((v as f64 - lo as f64).abs());
            }
            if hi.is_finite() {
                emax = emax.max((hi as f64 - v as f64).abs());
            }
        }
        Some(emax / range)
    }
}

/// An ensemble built to reach every branch of the accumulator. Each point
/// has a shape: continuous values; a few repeated values with both signed
/// zeros (duplicated extremes, zero variance in places); one constant;
/// continuous with some members special (NaN, ±∞, at or past
/// `SPECIAL_THRESHOLD`); special in every member; and large values on
/// either side of the threshold.
fn edge_ensemble(seed: u64, n: usize, npts: usize) -> Vec<Vec<f32>> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 11
    };
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, SPECIAL_THRESHOLD, -FILL_VALUE];
    let repeated = [-0.0f32, 0.0, 1.5, 1.5, -2.25];
    let shapes: Vec<u64> = (0..npts).map(|_| next() % 6).collect();
    (0..n)
        .map(|_| {
            shapes
                .iter()
                .map(|&shape| {
                    let u = (next() % 1_000_000) as f32 / 1_000_000.0;
                    let pick = next() as usize;
                    match shape {
                        0 => 250.0 + 10.0 * u,
                        1 => repeated[pick % repeated.len()],
                        2 => 7.0,
                        3 if pick.is_multiple_of(4) => specials[pick / 4 % specials.len()],
                        3 => -3.0 + u,
                        4 => specials[pick % specials.len()],
                        _ => [9.9e29, -9.99e29, 1.0e29, SPECIAL_THRESHOLD][pick % 4],
                    }
                })
                .collect()
        })
        .collect()
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn enmax_streaming_matches_naive(
        seed in any::<u64>(),
        n in 4usize..14,
        npts in 8usize..50,
        target in 0usize..4,
    ) {
        let mut stats = EnsembleStats::new(npts);
        for m in 0..n {
            let f: Vec<f32> = (0..npts).map(|p| member(seed, m, p)).collect();
            stats.add_member(&f);
        }
        let m = target.min(n - 1);
        let fm: Vec<f32> = (0..npts).map(|p| member(seed, m, p)).collect();
        if let Some(fast) = stats.enmax_excluding(&fm) {
            let mut emax = 0.0f64;
            for (p, &vp) in fm.iter().enumerate().take(npts) {
                for k in 0..n {
                    if k != m {
                        emax = emax.max((vp as f64 - member(seed, k, p) as f64).abs());
                    }
                }
            }
            let min = fm.iter().cloned().fold(f32::INFINITY, f32::min) as f64;
            let max = fm.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
            if max > min {
                let naive = emax / (max - min);
                prop_assert!((fast - naive).abs() <= 1e-9 * naive.max(1.0),
                    "fast {} naive {}", fast, naive);
            }
        }
    }

    #[test]
    fn exact_reconstruction_always_passes_rmsz(
        seed in any::<u64>(),
        n in 5usize..15,
        npts in 16usize..64,
    ) {
        let mut stats = EnsembleStats::new(npts);
        let fields: Vec<Vec<f32>> = (0..n)
            .map(|m| (0..npts).map(|p| member(seed, m, p)).collect())
            .collect();
        for f in &fields {
            stats.add_member(f);
        }
        let scores: Vec<f64> = fields
            .iter()
            .map(|f| stats.rmsz_excluding(f, f).unwrap_or(0.0))
            .collect();
        let dist = ScoreDistribution::new(scores.clone());
        for (m, f) in fields.iter().enumerate() {
            let z = stats.rmsz_excluding(f, f).unwrap_or(0.0);
            let outcome = rmsz_test(&dist, z, z);
            prop_assert!(outcome.passed(), "member {} score {} failed own test", m, z);
        }
        // And e_nmax = 0 always passes the E_nmax test when the
        // distribution has spread.
        let en: Vec<f64> = fields.iter().filter_map(|f| stats.enmax_excluding(f)).collect();
        if en.len() == n {
            let edist = ScoreDistribution::new(en);
            if edist.range() > 0.0 {
                prop_assert!(enmax_test(&edist, 0.0).passed());
            }
        }
    }

    #[test]
    fn score_distribution_invariants(scores in prop::collection::vec(0.0f64..10.0, 1..101)) {
        let d = ScoreDistribution::new(scores.clone());
        prop_assert!(d.min() <= d.max());
        prop_assert!(d.contains(d.min()));
        prop_assert!(d.contains(d.max()));
        prop_assert!(!d.contains(d.max() + 1.0 + d.range()));
        let (q1, q2, q3) = d.quartiles();
        prop_assert!(q1 <= q2 && q2 <= q3);
        prop_assert!(d.histogram(7).iter().sum::<usize>() == scores.len());
    }

    #[test]
    fn regression_recovers_known_lines(
        slope in 0.5f64..1.5,
        intercept in -0.5f64..0.5,
        noise in 0.0f64..0.02,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let x: Vec<f64> = (0..101).map(|i| 0.8 + i as f64 / 101.0).collect();
        let y: Vec<f64> = x.iter().map(|&v| intercept + slope * v + noise * rnd()).collect();
        let r = BiasRegression::fit(&x, &y);
        // True slope must lie in (a slightly widened) 95% interval almost
        // surely at these noise levels.
        let (lo, hi) = r.slope_ci();
        let slack = 4.0 * r.se_slope + 1e-12;
        prop_assert!(slope >= lo - slack && slope <= hi + slack,
            "true slope {} outside [{}, {}]", slope, lo, hi);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ensemble_stats_match_scalar_reference_bit_for_bit(
        seed in any::<u64>(),
        n in 3usize..14,
        npts in 1usize..600,
    ) {
        let members = edge_ensemble(seed, n, npts);
        let mut stats = EnsembleStats::new(npts);
        let mut reference = ReferenceStats::new(npts);
        for f in &members {
            stats.add_member(f);
            reference.add_member(f);
        }
        let means: Vec<u64> = stats.global_means().iter().map(|v| v.to_bits()).collect();
        let ref_means: Vec<u64> = reference.global_means.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(means, ref_means);
        // A reconstruction: tiny perturbations, with a NaN, an infinity, a
        // special value or a signed zero dropped in at some points.
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for (m, orig) in members.iter().enumerate() {
            let perturbed: Vec<f32> = orig
                .iter()
                .map(|&v| match next() % 40 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => FILL_VALUE,
                    3 => -0.0,
                    k => v + (k as f32 - 20.0) * 1e-3,
                })
                .collect();
            for eval in [orig, &perturbed] {
                prop_assert_eq!(
                    bits(stats.rmsz_excluding(orig, eval)),
                    bits(reference.rmsz_excluding(orig, eval)),
                    "member {} rmsz", m
                );
            }
            prop_assert_eq!(
                bits(stats.enmax_excluding(orig)),
                bits(reference.enmax_excluding(orig)),
                "member {} enmax", m
            );
        }
    }
}
