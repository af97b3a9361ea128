//! Noise models for ion counting and detection electronics.
//!
//! Three noise sources dominate IMS-TOF data (Belov et al. 2007/2008):
//!
//! * **shot noise** — ion arrivals are Poisson distributed, so a bin whose
//!   mean signal is `λ` ions fluctuates with σ = √λ;
//! * **electronic noise** — the MCP/amplifier/ADC chain adds approximately
//!   Gaussian noise independent of the signal;
//! * **chemical background** — slowly varying baseline from solvent clusters
//!   and matrix ions, plus sporadic interference spikes.
//!
//! All generators are deterministic given the caller-supplied RNG, so every
//! experiment in the evaluation is exactly reproducible from its seed.

use crate::simd::Backend;
use rand::Rng;

/// Draws a Poisson-distributed count with the given mean.
///
/// Uses Knuth's product-of-uniforms method for small means and a clamped
/// Gaussian approximation (exact to within counting noise itself) for
/// `mean > 30`, which is where the Poisson is already visually Gaussian.
pub fn poisson(rng: &mut impl Rng, mean: f64) -> u64 {
    assert!(
        mean.is_finite() && mean >= 0.0,
        "invalid Poisson mean {mean}"
    );
    if mean == 0.0 {
        return 0;
    }
    if mean > 30.0 {
        let g = mean + mean.sqrt() * gaussian(rng);
        return g.round().max(0.0) as u64;
    }
    let limit = (-mean).exp();
    let mut count = 0u64;
    let mut product: f64 = rng.gen::<f64>();
    while product > limit {
        count += 1;
        product *= rng.gen::<f64>();
    }
    count
}

/// Standard normal deviate via the Box–Muller transform.
pub fn gaussian(rng: &mut impl Rng) -> f64 {
    let (u1, u2) = gaussian_uniforms(rng);
    box_muller(u1, u2)
}

/// The two uniforms one [`gaussian`] deviate consumes, in draw order; `u1`
/// is redrawn until it is above `f64::MIN_POSITIVE`, to avoid `ln(0)`.
/// Callers that only need the stream position, or that evaluate the
/// transform later in a batch, draw through this.
#[inline(always)]
pub fn gaussian_uniforms(rng: &mut impl Rng) -> (f64, f64) {
    let u1: f64 = loop {
        let u: f64 = rng.gen();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    (u1, rng.gen())
}

/// The Box–Muller transform of one uniform pair, with libm `ln`/`cos`.
#[inline(always)]
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// One digitised zero-signal sample: `σ·g` for the deviate `g` of the
/// uniform pair `(u1, u2)`, clamped to `[0, full_scale]` and rounded to
/// the nearest count. The reference for [`rounded_gaussians`].
#[inline(always)]
pub fn rounded_gaussian(u1: f64, u2: f64, sigma: f64, full_scale: f64) -> u32 {
    (sigma * box_muller(u1, u2)).clamp(0.0, full_scale).round() as u32
}

/// Calls `body` compiled for `be`'s instruction set: `body` is
/// `#[inline(always)]`, so each `#[target_feature]` wrapper compiles its
/// own copy of it, vectorized for that set. The caller checks that `be`
/// is available.
macro_rules! on_backend {
    ($be:expr, $body:ident($($arg:ident: $ty:ty),* $(,)?) -> $ret:ty) => {{
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        unsafe fn avx512($($arg: $ty),*) -> $ret {
            $body($($arg),*)
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn avx2($($arg: $ty),*) -> $ret {
            $body($($arg),*)
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "sse2")]
        unsafe fn sse2($($arg: $ty),*) -> $ret {
            $body($($arg),*)
        }
        match $be {
            // SAFETY (all three arms): the caller checked that `be` is
            // available, so the CPU has the wrapper's instruction set.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => unsafe { avx512($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => unsafe { avx2($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => unsafe { sse2($($arg),*) },
            _ => $body($($arg),*),
        }
    }};
}

/// Bound on `|g̃ − g|`, where `g` is the libm Box–Muller deviate of a pair
/// `(u1, u2)` with `u1 ∈ [2⁻⁵³, 1)` and `u2 ∈ [0, 1)`, and `g̃` is the
/// polynomial approximation [`rounded_gaussians`] evaluates. `|g| ≤ 8.6`
/// there; the series tails are below `2e-16` and the rest is a few
/// roundings scaled by `√(−2 ln u1) ≤ 8.6`, plus up to an ulp of libm in
/// each of `ln` and `cos`. The measured worst case is about `3e-15`.
pub const GAUSSIAN_APPROX_ERROR: f64 = 1e-13;

/// Half-width, per unit of `max(|σ|, 1)`, of the band around each
/// rounding boundary inside which [`rounded_gaussians`] recomputes a lane
/// with libm. It is `10⁴` times [`GAUSSIAN_APPROX_ERROR`], so a lane
/// outside the band rounds the same way from either value.
pub const ROUNDING_MARGIN: f64 = 1e-9;

/// [`rounded_gaussian`] for a batch of uniform pairs, on backend `be`;
/// returns how many lanes it recomputed with libm.
///
/// `ln` and `cos` are replaced by branch-free polynomials that vectorize:
/// `ln u1` splits off the binary exponent and sums the `atanh` series of
/// the mantissa to `s¹⁷`, and `cos 2πu2` folds `u2` exactly (Sterbenz) to
/// `[0, ¼]` with a sign flip and sums the Taylor series to `x²⁰`. The
/// approximate amplitude is within `|σ|·`[`GAUSSIAN_APPROX_ERROR`] (plus
/// an ulp) of the libm one, and the rounded sample can only differ where
/// a `k + ½` boundary (or `full_scale`) lies between the two. So every
/// lane within `ROUNDING_MARGIN·max(|σ|, 1)` of one is recomputed with
/// [`rounded_gaussian`], as is every lane whose value is not finite or
/// not below `2³² − 1`, or whose `u1` is not normal or `u2` not in
/// `[0, 1)`: the output equals the reference lane for lane, on every
/// backend.
///
/// Panics when the slices differ in length or `be` is not available on
/// this CPU.
pub fn rounded_gaussians(
    be: Backend,
    u1: &[f64],
    u2: &[f64],
    sigma: f64,
    full_scale: f64,
    out: &mut [u32],
) -> usize {
    assert!(
        u1.len() == out.len() && u2.len() == out.len(),
        "uniform batches and output differ in length"
    );
    assert!(be.is_available(), "backend {} unavailable", be.name());
    on_backend!(be, rounded_gaussians_body(u1: &[f64], u2: &[f64], sigma: f64, full_scale: f64, out: &mut [u32]) -> usize)
}

/// Lanes per pass of the kernel: the vector pass writes a flag per lane
/// to a stack array this long, and the fallback pass reads it.
const PASS: usize = 64;

#[inline(always)]
fn rounded_gaussians_body(
    u1: &[f64],
    u2: &[f64],
    sigma: f64,
    full_scale: f64,
    out: &mut [u32],
) -> usize {
    // 2⁵²: adding it to `t ∈ [0, 2³²)` rounds `t` to the nearest integer
    // (ties to even; ties lie inside the margin) and leaves that integer
    // in the low mantissa bits.
    const ROUND: f64 = 4_503_599_627_370_496.0;
    const U32_LIMIT: f64 = u32::MAX as f64;
    let margin = ROUNDING_MARGIN * sigma.abs().max(1.0);
    let mut recomputed = 0;
    for ((out, u1), u2) in out
        .chunks_mut(PASS)
        .zip(u1.chunks(PASS))
        .zip(u2.chunks(PASS))
    {
        let mut unsure = [false; PASS];
        for ((o, flag), (&x, &y)) in out.iter_mut().zip(unsure.iter_mut()).zip(u1.iter().zip(u2)) {
            let a = sigma * approx_box_muller(x, y);
            let t = if a > 0.0 { a } else { 0.0 };
            let t = if t < full_scale { t } else { full_scale };
            let biased = t + ROUND;
            let nearest = biased - ROUND;
            // `t ≥ 0` fails only for a negative or NaN `full_scale`,
            // which the reference's `clamp` rejects.
            let clear = ((t - nearest).abs() - 0.5).abs() > margin
                && (a - full_scale).abs() > margin
                && (0.0..U32_LIMIT).contains(&t)
                && x >= f64::MIN_POSITIVE
                && (0.0..1.0).contains(&y);
            *o = biased.to_bits() as u32;
            *flag = !clear;
        }
        for (i, _) in unsure.iter().enumerate().filter(|(_, &f)| f) {
            out[i] = rounded_gaussian(u1[i], u2[i], sigma, full_scale);
            recomputed += 1;
        }
    }
    recomputed
}

/// Branch-free approximation of [`box_muller`], within
/// [`GAUSSIAN_APPROX_ERROR`] of it for `u1 ∈ [2⁻⁵³, 1)`, `u2 ∈ [0, 1)`.
#[inline(always)]
fn approx_box_muller(u1: f64, u2: f64) -> f64 {
    const MANTISSA: u64 = (1 << 52) - 1;
    const ONE: u64 = 0x3FF0_0000_0000_0000;
    // 2⁵² as bits: OR-ing an exponent field (< 2¹¹) into the mantissa and
    // subtracting 2⁵² converts it to f64 exactly, without an int→float
    // instruction SSE2 and AVX2 lack for 64-bit lanes.
    const TWO52: u64 = 0x4330_0000_0000_0000;
    // 1/(2k+1), k = 0..=8: ln m = 2s·Σ s²ᵏ/(2k+1), s = (m−1)/(m+1).
    const LN: [f64; 9] = [
        1.0,
        1.0 / 3.0,
        1.0 / 5.0,
        1.0 / 7.0,
        1.0 / 9.0,
        1.0 / 11.0,
        1.0 / 13.0,
        1.0 / 15.0,
        1.0 / 17.0,
    ];
    // (−1)ᵏ/(2k)!, k = 0..=10: cos x = Σ (−1)ᵏ x²ᵏ/(2k)!.
    const COS: [f64; 11] = [
        1.0,
        -1.0 / 2.0,
        1.0 / 24.0,
        -1.0 / 720.0,
        1.0 / 40_320.0,
        -1.0 / 3_628_800.0,
        1.0 / 479_001_600.0,
        -1.0 / 87_178_291_200.0,
        1.0 / 20_922_789_888_000.0,
        -1.0 / 6_402_373_705_728_000.0,
        1.0 / 2_432_902_008_176_640_000.0,
    ];
    #[inline(always)]
    fn horner(x: f64, coeffs: &[f64]) -> f64 {
        coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }

    // ln u1 = e·ln 2 + ln m, with u1 = m·2ᵉ and m ∈ [√½, √2).
    let bits = u1.to_bits();
    let m = f64::from_bits((bits & MANTISSA) | ONE);
    let e = f64::from_bits(TWO52 | (bits >> 52)) - (f64::from_bits(TWO52) + 1023.0);
    let high = m > std::f64::consts::SQRT_2;
    let m = if high { 0.5 * m } else { m };
    let e = if high { e + 1.0 } else { e };
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let ln = e * std::f64::consts::LN_2 + 2.0 * s * horner(s * s, &LN);
    let r = (-2.0 * ln).sqrt();

    // cos 2πu2 = cos 2πw for w = u2 or u2 − 1 (exact for u2 ≥ ½), even in
    // w, and cos 2πw = −cos 2π(½ − w) (exact for w ≥ ¼).
    let w = (if u2 >= 0.5 { u2 - 1.0 } else { u2 }).abs();
    let flip = w > 0.25;
    let w = if flip { 0.5 - w } else { w };
    let x = std::f64::consts::TAU * w;
    let c = horner(x * x, &COS);
    r * if flip { -c } else { c }
}

/// Replaces each bin's mean intensity with a Poisson draw (shot noise).
pub fn apply_shot_noise(rng: &mut impl Rng, signal: &mut [f64]) {
    for v in signal.iter_mut() {
        *v = poisson(rng, v.max(0.0)) as f64;
    }
}

/// Adds zero-mean Gaussian electronic noise of the given σ.
pub fn add_electronic_noise(rng: &mut impl Rng, signal: &mut [f64], sigma: f64) {
    if sigma <= 0.0 {
        return;
    }
    for v in signal.iter_mut() {
        *v += sigma * gaussian(rng);
    }
}

/// Parameters of the chemical-background model.
#[derive(Debug, Clone, Copy)]
pub struct ChemicalBackground {
    /// Mean level of the slowly varying baseline (counts/bin).
    pub baseline_level: f64,
    /// Relative amplitude of the slow baseline undulation (0–1).
    pub undulation: f64,
    /// Expected number of sporadic interference spikes per 1000 bins.
    pub spike_rate_per_kbin: f64,
    /// Mean spike amplitude (counts).
    pub spike_amplitude: f64,
}

impl Default for ChemicalBackground {
    fn default() -> Self {
        Self {
            baseline_level: 2.0,
            undulation: 0.3,
            spike_rate_per_kbin: 1.0,
            spike_amplitude: 20.0,
        }
    }
}

impl ChemicalBackground {
    /// Adds the chemical background (baseline + spikes) to `signal`.
    ///
    /// The baseline mean is modulated by a slow sinusoid with an RNG-chosen
    /// phase and then Poisson sampled; spikes land at Poisson-distributed
    /// positions with exponentially distributed amplitudes.
    pub fn add_to(&self, rng: &mut impl Rng, signal: &mut [f64]) {
        let n = signal.len();
        if n == 0 || self.baseline_level <= 0.0 {
            return;
        }
        let phase: f64 = rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
        let period = (n as f64 / 3.0).max(8.0);
        for (i, v) in signal.iter_mut().enumerate() {
            let slow = 1.0
                + self.undulation * (2.0 * std::f64::consts::PI * i as f64 / period + phase).sin();
            let mean = self.baseline_level * slow;
            *v += poisson(rng, mean.max(0.0)) as f64;
        }
        let expected_spikes = self.spike_rate_per_kbin * n as f64 / 1000.0;
        let spikes = poisson(rng, expected_spikes);
        for _ in 0..spikes {
            let pos = rng.gen_range(0..n);
            let amp = -self.spike_amplitude * rng.gen::<f64>().max(f64::MIN_POSITIVE).ln();
            signal[pos] += amp;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn poisson_mean_and_variance() {
        let mut r = rng();
        for &mean in &[0.5, 3.0, 12.0, 80.0] {
            let n = 20_000;
            let draws: Vec<f64> = (0..n).map(|_| poisson(&mut r, mean) as f64).collect();
            let m = draws.iter().sum::<f64>() / n as f64;
            let var = draws.iter().map(|d| (d - m) * (d - m)).sum::<f64>() / n as f64;
            assert!(
                (m - mean).abs() < 4.0 * (mean / n as f64).sqrt() + 0.05,
                "mean {mean}: estimated {m}"
            );
            assert!(
                (var - mean).abs() < 0.15 * mean + 0.1,
                "mean {mean}: variance {var}"
            );
        }
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let mut r = rng();
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn gaussian_moments() {
        let mut r = rng();
        let n = 50_000;
        let draws: Vec<f64> = (0..n).map(|_| gaussian(&mut r)).collect();
        let m = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - m) * (d - m)).sum::<f64>() / n as f64;
        assert!(m.abs() < 0.02, "mean {m}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }

    #[test]
    fn shot_noise_preserves_expectation() {
        let mut r = rng();
        let mut total = 0.0;
        let reps = 400;
        for _ in 0..reps {
            let mut sig = vec![10.0; 50];
            apply_shot_noise(&mut r, &mut sig);
            total += sig.iter().sum::<f64>();
        }
        let mean = total / (reps as f64 * 50.0);
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn electronic_noise_zero_sigma_is_noop() {
        let mut r = rng();
        let mut sig = vec![1.0, 2.0, 3.0];
        add_electronic_noise(&mut r, &mut sig, 0.0);
        assert_eq!(sig, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn chemical_background_raises_mean() {
        let mut r = rng();
        let bg = ChemicalBackground::default();
        let mut sig = vec![0.0; 2000];
        bg.add_to(&mut r, &mut sig);
        let mean = sig.iter().sum::<f64>() / sig.len() as f64;
        assert!(mean > 1.0 && mean < 4.0, "background mean {mean}");
        assert!(sig.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = rng();
        let mut r2 = rng();
        let a: Vec<u64> = (0..100).map(|_| poisson(&mut r1, 5.0)).collect();
        let b: Vec<u64> = (0..100).map(|_| poisson(&mut r2, 5.0)).collect();
        assert_eq!(a, b);
    }

    /// A scripted generator: hands out `script` (then zeros) as u64 words
    /// and counts how many it handed out.
    struct Scripted {
        script: Vec<u64>,
        drawn: usize,
    }

    impl RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            let v = self.script.get(self.drawn).copied().unwrap_or(0);
            self.drawn += 1;
            v
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let word = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&word[..chunk.len()]);
            }
        }
    }

    #[test]
    fn gaussian_uniforms_consumes_exactly_what_gaussian_consumes() {
        // Zero words are rejected `u1`s (0 ≤ MIN_POSITIVE), so the
        // rejection loop draws again; both paths must take the same words
        // and leave the stream at the same position.
        let script = vec![0, 0, u64::MAX, 1 << 62, 12345];
        let mut a = Scripted {
            script: script.clone(),
            drawn: 0,
        };
        let mut b = Scripted { script, drawn: 0 };
        let g = gaussian(&mut a);
        let (u1, u2) = gaussian_uniforms(&mut b);
        assert_eq!(g.to_bits(), box_muller(u1, u2).to_bits());
        assert!(g.is_finite());
        assert_eq!(a.drawn, 4, "two rejected u1 draws, then u1 and u2");
        assert_eq!(a.drawn, b.drawn);
        assert_eq!(a.next_u64(), b.next_u64());

        for seed in 0..5 {
            let mut a = ChaCha8Rng::seed_from_u64(seed);
            let mut b = a.clone();
            for _ in 0..1000 {
                gaussian(&mut a);
                gaussian_uniforms(&mut b);
            }
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "seed {seed}");
        }
    }

    fn approx_box_mullers(be: Backend, u1: &[f64], u2: &[f64], out: &mut [f64]) {
        #[inline(always)]
        fn body(u1: &[f64], u2: &[f64], out: &mut [f64]) {
            for ((o, &x), &y) in out.iter_mut().zip(u1).zip(u2) {
                *o = approx_box_muller(x, y);
            }
        }
        assert!(be.is_available());
        on_backend!(be, body(u1: &[f64], u2: &[f64], out: &mut [f64]) -> ())
    }

    /// Uniform pairs for the kernel tests: `n` draws as `gaussian` takes
    /// them, then every pairing of the extreme `u1` words with `u2` at the
    /// cosine's fold points (0, ¼, ½, ¾) and one ulp either side.
    fn uniform_pairs(n: usize) -> (Vec<f64>, Vec<f64>) {
        let mut r = rng();
        let (mut u1, mut u2): (Vec<f64>, Vec<f64>) =
            (0..n).map(|_| gaussian_uniforms(&mut r)).unzip();
        // 2⁻⁵³: the generator's grid step.
        let step = f64::EPSILON / 2.0;
        for x in [step, 2.0 * step, 0.5, 1.0 - 2.0 * step, 1.0 - step] {
            for q in [0.0f64, 0.25, 0.5, 0.75] {
                for y in [q, q.next_up(), q.next_down(), q + step, q - step] {
                    if (0.0..1.0).contains(&y) {
                        u1.push(x);
                        u2.push(y);
                    }
                }
            }
        }
        (u1, u2)
    }

    #[test]
    fn box_muller_approximation_stays_within_its_bound() {
        let (u1, u2) = uniform_pairs(1 << 20);
        for be in crate::simd::available_backends() {
            let mut approx = vec![0.0; u1.len()];
            approx_box_mullers(be, &u1, &u2, &mut approx);
            let worst = u1
                .iter()
                .zip(&u2)
                .zip(&approx)
                .map(|((&x, &y), &a)| (a - box_muller(x, y)).abs())
                .fold(0.0, f64::max);
            assert!(
                worst <= GAUSSIAN_APPROX_ERROR,
                "{}: worst error {worst:e}",
                be.name()
            );
        }
    }

    /// The kernel on every backend equals the libm reference lane for
    /// lane, and reports `recomputed` lanes.
    fn check_kernel(u1: &[f64], u2: &[f64], sigma: f64, full_scale: f64) -> usize {
        let expected: Vec<u32> = u1
            .iter()
            .zip(u2)
            .map(|(&x, &y)| rounded_gaussian(x, y, sigma, full_scale))
            .collect();
        let mut counts = Vec::new();
        for be in crate::simd::available_backends() {
            let mut out = vec![0; u1.len()];
            counts.push(rounded_gaussians(be, u1, u2, sigma, full_scale, &mut out));
            assert_eq!(out, expected, "{} at σ = {sigma}", be.name());
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        counts[0]
    }

    #[test]
    fn rounded_gaussians_match_libm_on_every_backend() {
        let (u1, u2) = uniform_pairs(1 << 16);
        // σ = 5e4 saturates the 16-bit ceiling for g above ~1.3 and puts
        // a rounding boundary every 2e-5 of g.
        for sigma in [0.0, 1.2, 3.7, -2.0, 5e4] {
            check_kernel(&u1, &u2, sigma, 65_535.0);
        }
        let saturated = u1
            .iter()
            .zip(&u2)
            .filter(|(&x, &y)| rounded_gaussian(x, y, 5e4, 65_535.0) == 65_535)
            .count();
        assert!(saturated > u1.len() / 20, "only {saturated} lanes clamp");
        // Odd batch lengths leave a partial pass.
        check_kernel(&u1[..PASS + 7], &u2[..PASS + 7], 1.2, 65_535.0);
    }

    #[test]
    fn lanes_at_a_rounding_boundary_are_recomputed() {
        // u2 = 0 puts cos at 1, so g = √(−2 ln u1) = k + ½ when
        // u1 = exp(−(k + ½)²/2); the nearest doubles and a few ulps either
        // side all land inside the margin.
        let (mut u1, mut u2) = (Vec::new(), Vec::new());
        for half in [0.5f64, 1.5] {
            let centre = (-half * half / 2.0).exp();
            for ulps in -4i64..=4 {
                u1.push(f64::from_bits((centre.to_bits() as i64 + ulps) as u64));
                u2.push(0.0);
            }
        }
        let recomputed = check_kernel(&u1, &u2, 1.0, 65_535.0);
        assert!(recomputed > 0, "no lane recomputed");
    }

    #[test]
    fn lanes_outside_the_approximation_domain_are_recomputed() {
        let (mut u1, mut u2) = (Vec::new(), Vec::new());
        for x in [
            0.0,
            1e-310,
            f64::MIN_POSITIVE,
            1.0,
            2.0,
            f64::INFINITY,
            f64::NAN,
        ] {
            for y in [-0.25, 0.0, 0.3, 1.0, 3.7, f64::NAN] {
                u1.push(x);
                u2.push(y);
            }
        }
        let outside = u1
            .iter()
            .zip(&u2)
            .filter(|(&x, &y)| !(x >= f64::MIN_POSITIVE && (0.0..1.0).contains(&y)))
            .count();
        assert!(check_kernel(&u1, &u2, 1.2, 65_535.0) >= outside);
        // A non-finite σ leaves no lane clear of the margin.
        assert_eq!(check_kernel(&u1, &u2, f64::INFINITY, 65_535.0), u1.len());
    }

    #[test]
    #[should_panic(expected = "min > max")]
    fn negative_full_scale_panics_like_the_reference() {
        let mut out = [0];
        rounded_gaussians(Backend::Scalar, &[0.5], &[0.1], 1.0, -1.0, &mut out);
    }

    #[test]
    #[should_panic(expected = "invalid Poisson mean")]
    fn poisson_rejects_negative_mean() {
        let mut r = rng();
        let _ = poisson(&mut r, -1.0);
    }
}
