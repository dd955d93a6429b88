//! Special functions needed by the priors and proposal densities.
//!
//! Implemented in-house (error function, normal CDF, log-gamma) so the core
//! crate needs no distributions dependency beyond `rand`'s uniform source.

/// `x.floor() as i64` without the libm call: baseline x86-64 has no
/// `roundsd`, so `f64::floor` is a call through the GOT that also spills
/// every live `xmm` register — twice per disk row in the span walkers.
/// Exact for every input, saturating like the `as` cast it replaces
/// (NaN → 0, ±∞ and anything beyond ±2⁶³ → `i64::MIN`/`MAX`).
#[inline]
pub(crate) fn floor_i64(x: f64) -> i64 {
    let t = x as i64;
    if (t as f64) > x {
        t.saturating_sub(1)
    } else {
        t
    }
}

/// `x.ceil() as i64` without the libm call; see [`floor_i64`].
#[inline]
pub(crate) fn ceil_i64(x: f64) -> i64 {
    let t = x as i64;
    if (t as f64) < x {
        t.saturating_add(1)
    } else {
        t
    }
}

/// Error function, Abramowitz & Stegun approximation 7.1.26
/// (|error| ≤ 1.5e-7, plenty for acceptance-ratio arithmetic).
#[must_use]
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function.
#[must_use]
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Log-density of `N(mu, sigma)` at `x`.
#[must_use]
pub fn normal_logpdf(x: f64, mu: f64, sigma: f64) -> f64 {
    let z = (x - mu) / sigma;
    -0.5 * z * z - sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
}

/// Log-gamma via the Lanczos approximation (g = 7, n = 9), accurate to
/// ~1e-13 for positive arguments.
#[must_use]
pub fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula for small/negative arguments.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// `ln(k!)` for non-negative integers.
#[must_use]
pub fn ln_factorial(k: usize) -> f64 {
    ln_gamma(k as f64 + 1.0)
}

/// A truncated normal distribution on `[lo, hi]`: the paper's radius prior
/// ("the expected size ... of cells").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    /// Mean of the underlying normal.
    pub mu: f64,
    /// Standard deviation of the underlying normal.
    pub sigma: f64,
    /// Lower truncation bound (inclusive).
    pub lo: f64,
    /// Upper truncation bound (inclusive).
    pub hi: f64,
    /// Cached `ln` of the truncation mass `Phi((hi-mu)/sigma) - Phi((lo-mu)/sigma)`.
    ln_mass: f64,
    /// Cached `sigma.ln()` and `0.5 * (2π).ln()`, the two constants of
    /// [`normal_logpdf`].
    ln_sigma: f64,
    half_ln_two_pi: f64,
}

impl TruncatedNormal {
    /// Creates the distribution.
    ///
    /// # Panics
    /// Panics when `lo >= hi` or `sigma <= 0`.
    #[must_use]
    pub fn new(mu: f64, sigma: f64, lo: f64, hi: f64) -> Self {
        assert!(hi > lo, "truncation interval must be non-empty");
        assert!(sigma > 0.0, "sigma must be positive");
        let mass = normal_cdf((hi - mu) / sigma) - normal_cdf((lo - mu) / sigma);
        Self {
            mu,
            sigma,
            lo,
            hi,
            ln_mass: mass.max(1e-300).ln(),
            ln_sigma: sigma.ln(),
            half_ln_two_pi: 0.5 * (2.0 * std::f64::consts::PI).ln(),
        }
    }

    /// Normalised log-density at `x` (`-inf` outside the support).
    #[must_use]
    pub fn logpdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            return f64::NEG_INFINITY;
        }
        // `normal_logpdf(x, mu, sigma)` with its logarithms cached.
        let z = (x - self.mu) / self.sigma;
        -0.5 * z * z - self.ln_sigma - self.half_ln_two_pi - self.ln_mass
    }

    /// Whether `x` lies in the support.
    #[must_use]
    pub fn in_support(&self, x: f64) -> bool {
        x >= self.lo && x <= self.hi
    }

    /// Samples by rejection from the underlying normal (efficient when the
    /// bounds are a few sigma wide, as the radius prior's are).
    pub fn sample(&self, rng: &mut impl rand::Rng) -> f64 {
        for _ in 0..10_000 {
            let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let x = self.mu + self.sigma * z;
            if self.in_support(x) {
                return x;
            }
        }
        // Pathological truncation far in a tail: fall back to the midpoint.
        0.5 * (self.lo + self.hi)
    }
}

/// Log-PMF of `Poisson(lambda)` at `k` (the artifact-count prior).
#[must_use]
pub fn poisson_logpmf(k: usize, lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
    }
    k as f64 * lambda.ln() - lambda - ln_factorial(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_rounds_like_libm(x: f64) {
        assert_eq!(floor_i64(x), x.floor() as i64, "floor of {x:e}");
        assert_eq!(ceil_i64(x), x.ceil() as i64, "ceil of {x:e}");
    }

    #[test]
    fn integer_rounding_edge_cases_match_libm() {
        let ulp_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let ulp_down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let two53 = 9_007_199_254_740_992.0f64;
        let two63 = 9_223_372_036_854_775_808.0f64;
        let mut cases = vec![
            0.0,
            0.5,
            f64::MIN_POSITIVE,
            1e-300,
            two53,
            ulp_down(two53),
            two63,
            ulp_down(two63),
            1e300,
            f64::MAX,
            f64::INFINITY,
        ];
        // Exact integers and both neighbours, where truncation and
        // rounding part ways.
        for n in [
            1.0,
            2.0,
            3.0,
            17.0,
            1023.0,
            1024.0,
            1e7,
            4_503_599_627_370_496.0,
        ] {
            cases.extend([n, ulp_up(n), ulp_down(n), n + 0.5]);
        }
        for x in cases {
            assert_rounds_like_libm(x);
            assert_rounds_like_libm(-x);
        }
        assert_rounds_like_libm(f64::NAN);
    }

    proptest! {
        #[test]
        fn integer_rounding_matches_libm(x in -1e7f64..1e7, n in -10_000_000i64..10_000_000) {
            assert_rounds_like_libm(x);
            // Exact integers and half-way points are measure-zero for the
            // draw above.
            assert_rounds_like_libm(n as f64);
            assert_rounds_like_libm(n as f64 + 0.5);
        }
    }

    #[test]
    fn erf_known_values() {
        // The A&S 7.1.26 approximation is accurate to ~1.5e-7.
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-6);
    }

    #[test]
    fn normal_cdf_symmetry() {
        for &x in &[0.0, 0.5, 1.3, 2.7] {
            assert!((normal_cdf(x) + normal_cdf(-x) - 1.0).abs() < 1e-6);
        }
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for k in 1..15usize {
            let expect: f64 = (1..=k).map(|i| (i as f64).ln()).sum();
            assert!((ln_gamma(k as f64 + 1.0) - expect).abs() < 1e-9, "k={k}");
        }
        // Gamma(1/2) = sqrt(pi).
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-9);
    }

    #[test]
    fn poisson_logpmf_normalises() {
        let lambda = 4.2;
        let total: f64 = (0..200).map(|k| poisson_logpmf(k, lambda).exp()).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn poisson_degenerate_lambda() {
        assert_eq!(poisson_logpmf(0, 0.0), 0.0);
        assert_eq!(poisson_logpmf(3, 0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn truncated_normal_logpdf_normalises() {
        let d = TruncatedNormal::new(10.0, 2.0, 5.0, 18.0);
        // Numerical integral of exp(logpdf).
        let n = 20_000;
        let h = (d.hi - d.lo) / n as f64;
        let integral: f64 = (0..n)
            .map(|i| d.logpdf(d.lo + (i as f64 + 0.5) * h).exp() * h)
            .sum();
        assert!((integral - 1.0).abs() < 1e-4, "integral {integral}");
    }

    #[test]
    fn truncated_normal_outside_support() {
        let d = TruncatedNormal::new(10.0, 2.0, 5.0, 18.0);
        assert_eq!(d.logpdf(4.9), f64::NEG_INFINITY);
        assert_eq!(d.logpdf(18.1), f64::NEG_INFINITY);
        assert!(d.in_support(5.0) && d.in_support(18.0));
    }

    #[test]
    fn truncated_normal_sampling_in_bounds_with_right_mean() {
        let d = TruncatedNormal::new(10.0, 2.0, 6.0, 14.0);
        let mut rng = StdRng::seed_from_u64(77);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            assert!(d.in_support(x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn ln_factorial_small_values() {
        assert!((ln_factorial(0)).abs() < 1e-12);
        assert!((ln_factorial(1)).abs() < 1e-12);
        assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-9);
    }
}
