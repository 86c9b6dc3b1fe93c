//! Measurement noise.
//!
//! Side-channel acquisitions carry random noise (thermal/amplifier) and
//! systematic components. The synthesizer adds white Gaussian noise per
//! raw execution — averaging the 16 executions of one trace then improves
//! SNR by √16, exactly as in the paper's acquisition protocol — plus an
//! optional external noise source (the OS/second-core model from
//! `sca-osnoise` plugs in through [`NoiseSource`]).

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A pluggable additive noise source (e.g. co-resident workload power).
pub trait NoiseSource: Send {
    /// Adds this source's contribution to a sample series in place.
    fn add_to(&mut self, rng: &mut StdRng, samples: &mut [f64]);
}

/// White Gaussian measurement noise plus a constant baseline.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct GaussianNoise {
    /// Standard deviation, in the same unit as node switching power.
    pub sd: f64,
    /// Constant baseline offset (static power; irrelevant to CPA but kept
    /// for realistic-looking traces).
    pub baseline: f64,
}

impl GaussianNoise {
    /// A bare-metal-quality acquisition: moderate noise.
    pub fn bare_metal() -> GaussianNoise {
        GaussianNoise {
            sd: 12.0,
            baseline: 40.0,
        }
    }

    /// An ideal noiseless probe (unit tests and audits).
    pub fn none() -> GaussianNoise {
        GaussianNoise {
            sd: 0.0,
            baseline: 0.0,
        }
    }

    /// Samples one Gaussian value via Box–Muller (keeps us independent of
    /// `rand_distr`, which is outside the approved dependency set).
    fn sample(&self, rng: &mut StdRng) -> f64 {
        if self.sd == 0.0 {
            return 0.0;
        }
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        z * self.sd
    }
}

impl GaussianNoise {
    /// Like [`NoiseSource::add_to`] on a `total`-sample series of which
    /// only the samples `[offset, offset + samples.len())` are kept and
    /// passed in. The RNG is advanced exactly as `add_to` over all
    /// `total` samples advances it — one `gen_range` + one `gen` per
    /// sample whenever `sd != 0` — so the kept values are bit-identical
    /// to the full path's; the skipped samples cost their two draws but
    /// none of the Box–Muller transcendentals (`ln`/`sqrt`/`cos`).
    ///
    /// This is the campaign fast path: a windowed campaign keeps only
    /// its analysis window — a few hundred samples of a cipher run that
    /// spans tens of thousands. Callers that post-process whole traces
    /// (e.g. the OS-noise jitter, which shifts samples *into* the
    /// window) pass the whole series (`offset` 0, `total` its length).
    pub fn add_to_clipped(
        &mut self,
        rng: &mut StdRng,
        samples: &mut [f64],
        offset: usize,
        total: usize,
    ) {
        let before = offset.min(total);
        let after = total.saturating_sub(offset + samples.len());
        self.skip(rng, before);
        self.add_to(rng, samples);
        self.skip(rng, after);
    }

    /// Consumes the draws `count` samples would, keeping the per-trace
    /// RNG stream aligned sample for sample.
    fn skip(&self, rng: &mut StdRng, count: usize) {
        if self.sd == 0.0 {
            return;
        }
        for _ in 0..count {
            let _: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let _: f64 = rng.gen();
        }
    }
}

impl NoiseSource for GaussianNoise {
    fn add_to(&mut self, rng: &mut StdRng, samples: &mut [f64]) {
        for s in samples.iter_mut() {
            *s += self.baseline + self.sample(rng);
        }
    }
}

impl Default for GaussianNoise {
    fn default() -> GaussianNoise {
        GaussianNoise::bare_metal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zero_noise_only_shifts_baseline() {
        let mut noise = GaussianNoise {
            sd: 0.0,
            baseline: 5.0,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let mut samples = vec![1.0, 2.0];
        noise.add_to(&mut rng, &mut samples);
        assert_eq!(samples, vec![6.0, 7.0]);
    }

    #[test]
    fn gaussian_statistics_are_plausible() {
        let mut noise = GaussianNoise {
            sd: 3.0,
            baseline: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(42);
        let mut samples = vec![0.0; 20_000];
        noise.add_to(&mut rng, &mut samples);
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        let var: f64 =
            samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.1, "sd {}", var.sqrt());
    }

    #[test]
    fn clipped_noise_is_bit_identical_inside_the_window() {
        let make = || GaussianNoise {
            sd: 4.0,
            baseline: 7.0,
        };
        let mut full = vec![0.0f64; 64];
        make().add_to(&mut StdRng::seed_from_u64(99), &mut full);
        let mut clipped = vec![0.0f64; 20];
        make().add_to_clipped(&mut StdRng::seed_from_u64(99), &mut clipped, 20, 64);
        assert_eq!(&clipped[..], &full[20..40], "window bit-identical");
        // The RNG stream stays aligned past the window: appending more
        // draws after either pass yields the same values.
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        make().add_to(&mut a, &mut vec![0.0; 64]);
        make().add_to_clipped(&mut b, &mut [0.0; 3], 0, 64);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "stream alignment");
    }

    #[test]
    fn clipped_noise_with_zero_sd_draws_nothing() {
        let mut noise = GaussianNoise {
            sd: 0.0,
            baseline: 2.0,
        };
        let mut a = StdRng::seed_from_u64(5);
        let mut samples = vec![0.0f64; 2];
        noise.add_to_clipped(&mut a, &mut samples, 2, 8);
        assert_eq!(samples, vec![2.0, 2.0]);
        // sd == 0 consumes no randomness in either path.
        let mut b = StdRng::seed_from_u64(5);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn determinism_with_same_seed() {
        let run = || {
            let mut noise = GaussianNoise {
                sd: 1.0,
                baseline: 0.0,
            };
            let mut rng = StdRng::seed_from_u64(7);
            let mut samples = vec![0.0; 8];
            noise.add_to(&mut rng, &mut samples);
            samples
        };
        assert_eq!(run(), run());
    }
}
