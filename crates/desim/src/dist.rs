//! Latency-model distributions.
//!
//! Every timing in the simulated testbed (container start, image pull
//! throughput, API-server round trip, link jitter, ...) is drawn from a
//! [`Sample`] implementation. All samplers draw exclusively from the supplied
//! [`SimRng`], keeping experiments reproducible.
//!
//! Durations in the models are expressed in *seconds* as `f64` and converted
//! by callers via [`crate::Duration::from_secs_f64`]; sampling in seconds
//! keeps the parameters legible against the paper's reported numbers.

use crate::rng::SimRng;
use crate::time::Duration;

/// A source of random values of type `f64` (interpreted by convention as
/// seconds when used for latency models).
pub trait Sample {
    /// Draws one value.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// Draws one value and converts it to a non-negative [`Duration`].
    fn sample_duration(&self, rng: &mut SimRng) -> Duration {
        Duration::from_secs_f64(self.sample(rng))
    }
}

/// Uniform over `[lo, hi)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Uniform {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound.
    pub hi: f64,
}

impl Uniform {
    /// Creates a uniform sampler; `lo` must not exceed `hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "Uniform: lo > hi");
        Uniform { lo, hi }
    }
}

impl Sample for Uniform {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.lo + (self.hi - self.lo) * rng.next_f64()
    }
}

/// Exponential with the given rate `lambda` (mean `1/lambda`). Models
/// memoryless inter-arrival gaps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exponential {
    /// Rate parameter (events per second).
    pub lambda: f64,
}

impl Exponential {
    /// Creates an exponential sampler with rate `lambda > 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0, "Exponential: lambda must be positive");
        Exponential { lambda }
    }

    /// Creates an exponential sampler with the given mean.
    pub fn with_mean(mean: f64) -> Self {
        Self::new(1.0 / mean)
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse transform; (1 - u) avoids ln(0).
        let u = rng.next_f64();
        -(1.0 - u).ln() / self.lambda
    }
}

/// One standard-normal draw via the Marsaglia polar method.
fn standard_normal(rng: &mut SimRng) -> f64 {
    loop {
        let u = 2.0 * rng.next_f64() - 1.0;
        let v = 2.0 * rng.next_f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Log-normal, parameterised directly by the *median* and a multiplicative
/// spread `sigma` (the std-dev of the underlying normal in log space).
///
/// This parameterisation matches how the paper reports results: medians of
/// right-skewed timing populations. `median` is exactly the distribution
/// median, so calibrating a model to a published median is a one-liner.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogNormal {
    /// Median of the distribution (`exp(mu)`).
    pub median: f64,
    /// Log-space standard deviation.
    pub sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal sampler with the given median (> 0) and log-space
    /// sigma (>= 0).
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "LogNormal: median must be positive");
        assert!(sigma >= 0.0, "LogNormal: negative sigma");
        LogNormal { median, sigma }
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let z = standard_normal(rng);
        self.median * (self.sigma * z).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(s: &impl Sample, seed: u64, n: usize) -> f64 {
        let mut rng = SimRng::new(seed);
        (0..n).map(|_| s.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let u = Uniform::new(1.0, 3.0);
        let mut rng = SimRng::new(1);
        for _ in 0..10_000 {
            let x = u.sample(&mut rng);
            assert!((1.0..3.0).contains(&x));
        }
        assert!((mean_of(&u, 2, 100_000) - 2.0).abs() < 0.01);
    }

    #[test]
    fn exponential_mean_matches() {
        let e = Exponential::with_mean(0.25);
        let m = mean_of(&e, 3, 200_000);
        assert!((m - 0.25).abs() < 0.005, "mean {m}");
    }

    #[test]
    fn exponential_is_nonnegative() {
        let e = Exponential::new(10.0);
        let mut rng = SimRng::new(4);
        assert!((0..10_000).all(|_| e.sample(&mut rng) >= 0.0));
    }

    #[test]
    fn lognormal_median_matches() {
        let ln = LogNormal::from_median(0.5, 0.3);
        let mut rng = SimRng::new(7);
        let mut v: Vec<f64> = (0..100_001).map(|_| ln.sample(&mut rng)).collect();
        v.sort_by(f64::total_cmp);
        let med = v[v.len() / 2];
        assert!((med - 0.5).abs() < 0.01, "median {med}");
        assert!(v.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn lognormal_zero_sigma_is_constant() {
        let ln = LogNormal::from_median(1.25, 0.0);
        let mut rng = SimRng::new(8);
        for _ in 0..100 {
            assert!((ln.sample(&mut rng) - 1.25).abs() < 1e-12);
        }
    }

    #[test]
    fn sample_duration_clamps_negative() {
        struct Negative;
        impl Sample for Negative {
            fn sample(&self, _rng: &mut SimRng) -> f64 {
                -5.0
            }
        }
        assert_eq!(Negative.sample_duration(&mut SimRng::new(11)), Duration::ZERO);
    }
}
