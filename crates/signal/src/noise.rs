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
    let (u1, u2) = box_muller_uniforms(rng);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Advances `rng` exactly as [`gaussian`] would, without computing the
/// deviate: for callers that multiply it by zero, where only the stream
/// position matters.
pub fn skip_gaussian(rng: &mut impl Rng) {
    box_muller_uniforms(rng);
}

/// The two uniforms one Box–Muller deviate consumes; `u1` is redrawn
/// until it is above `f64::MIN_POSITIVE`, to avoid `ln(0)`.
#[inline(always)]
fn box_muller_uniforms(rng: &mut impl Rng) -> (f64, f64) {
    let u1: f64 = loop {
        let u: f64 = rng.gen();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    (u1, rng.gen())
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
    fn skip_gaussian_consumes_exactly_what_gaussian_consumes() {
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
        skip_gaussian(&mut b);
        assert!(g.is_finite());
        assert_eq!(a.drawn, 4, "two rejected u1 draws, then u1 and u2");
        assert_eq!(a.drawn, b.drawn);
        assert_eq!(a.next_u64(), b.next_u64());

        for seed in 0..5 {
            let mut a = ChaCha8Rng::seed_from_u64(seed);
            let mut b = a.clone();
            for _ in 0..1000 {
                gaussian(&mut a);
                skip_gaussian(&mut b);
            }
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid Poisson mean")]
    fn poisson_rejects_negative_mean() {
        let mut r = rng();
        let _ = poisson(&mut r, -1.0);
    }
}
