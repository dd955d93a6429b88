//! The §VI theoretical runtime models (eqs. 2–4) and the Fig. 1 series.
//!
//! Notation: `N` iterations total, `q_g` global-move probability, `τ_g`
//! and `τ_l` mean iteration times of global and local moves, `s` partitions
//! (one thread each), `p_gr`/`p_lr` global/local rejection probabilities,
//! `n`/`t` speculative threads.

/// eq. (2): time to perform `n` iterations with `s` parallel partitions in
/// the `Ml` phase, assuming negligible overhead:
/// `N·q_g·τ_g + N·(1−q_g)·τ_l / s`.
#[must_use]
pub fn eq2_time(n: f64, qg: f64, tau_g: f64, tau_l: f64, s: usize) -> f64 {
    n * qg * tau_g + n * (1.0 - qg) * tau_l / s as f64
}

/// Sequential reference time: `N·(q_g·τ_g + (1−q_g)·τ_l)`.
#[must_use]
pub fn sequential_time(n: f64, qg: f64, tau_g: f64, tau_l: f64) -> f64 {
    n * (qg * tau_g + (1.0 - qg) * tau_l)
}

/// eq. (2) as a fraction of the sequential runtime with `τ_g = τ_l`
/// (the Fig. 1 y-axis): `q_g + (1 − q_g)/s`.
#[must_use]
pub fn eq2_fraction(qg: f64, s: usize) -> f64 {
    qg + (1.0 - qg) / s as f64
}

/// The speculative-move runtime *fraction* `(1 − p_r)/(1 − p_rⁿ)` (ref. \[11\]):
/// the factor by which `n` speculative threads shrink a phase with
/// rejection rate `p_r`.
#[must_use]
pub fn speculative_fraction(pr: f64, n: usize) -> f64 {
    if n <= 1 || pr <= 0.0 {
        return 1.0;
    }
    let pr = pr.min(1.0 - 1e-12);
    (1.0 - pr) / (1.0 - pr.powi(n as i32))
}

/// Expected iterations consumed per speculative round: `(1 − p_rⁿ)/(1 − p_r)`.
#[must_use]
pub fn speculative_iters_per_round(pr: f64, n: usize) -> f64 {
    1.0 / speculative_fraction(pr, n)
}

/// eq. (3): periodic partitioning with speculative execution of the global
/// phases on `n` cores:
/// `N·q_g·τ_g·(1−p_gr)/(1−p_grⁿ) + N·(1−q_g)·τ_l/s`.
#[must_use]
pub fn eq3_time(
    n_iters: f64,
    qg: f64,
    tau_g: f64,
    tau_l: f64,
    s: usize,
    p_gr: f64,
    n_spec: usize,
) -> f64 {
    n_iters * qg * tau_g * speculative_fraction(p_gr, n_spec)
        + n_iters * (1.0 - qg) * tau_l / s as f64
}

/// eq. (4): a cluster of `s` machines with `t` threads each — speculative
/// global phases on one machine's `t` threads, and per-partition
/// speculative local phases:
/// `N·q_g·τ_g·(1−p_gr)/(1−p_grᵗ) + N·(1−q_g)·τ_l·(1−p_lr)/(s·(1−p_lrᵗ))`.
#[must_use]
#[allow(clippy::too_many_arguments)] // mirrors the eq. (4) symbol list verbatim
pub fn eq4_time(
    n_iters: f64,
    qg: f64,
    tau_g: f64,
    tau_l: f64,
    s: usize,
    t: usize,
    p_gr: f64,
    p_lr: f64,
) -> f64 {
    n_iters * qg * tau_g * speculative_fraction(p_gr, t)
        + n_iters * (1.0 - qg) * tau_l * speculative_fraction(p_lr, t) / s as f64
}

/// One Fig. 1 sample: `(q_g, fraction for each s)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Point {
    /// Global move proposal probability.
    pub qg: f64,
    /// Runtime fraction for each requested process count.
    pub fractions: Vec<f64>,
}

/// The Fig. 1 series: predicted runtime fraction vs `q_g` for each process
/// count in `s_values` (the paper plots s ∈ {2, 4, 8, 16}, τ_g = τ_l).
#[must_use]
pub fn fig1_series(s_values: &[usize], steps: usize) -> Vec<Fig1Point> {
    (0..=steps)
        .map(|i| {
            let qg = i as f64 / steps as f64;
            Fig1Point {
                qg,
                fractions: s_values.iter().map(|&s| eq2_fraction(qg, s)).collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq2_limits() {
        // qg = 1: no parallelisable work, fraction 1 regardless of s.
        assert!((eq2_fraction(1.0, 8) - 1.0).abs() < 1e-12);
        // qg = 0: perfectly parallel, fraction 1/s.
        assert!((eq2_fraction(0.0, 8) - 0.125).abs() < 1e-12);
        // Paper §VII: qg = 0.4, s = 4 → 1 − 0.45 = 0.55.
        assert!((eq2_fraction(0.4, 4) - 0.55).abs() < 1e-12);
    }

    #[test]
    fn eq2_time_consistent_with_fraction() {
        let (n, qg, tau) = (1e6, 0.3, 2e-6);
        let frac = eq2_time(n, qg, tau, tau, 4) / sequential_time(n, qg, tau, tau);
        assert!((frac - eq2_fraction(qg, 4)).abs() < 1e-12);
    }

    #[test]
    fn fig1_series_monotonic_in_qg_and_s() {
        let series = fig1_series(&[2, 4, 8, 16], 50);
        assert_eq!(series.len(), 51);
        for p in &series {
            // More processes help (weakly) at any qg.
            for w in p.fractions.windows(2) {
                assert!(w[0] >= w[1] - 1e-12);
            }
        }
        // Fraction grows with qg for fixed s.
        for w in series.windows(2) {
            assert!(w[0].fractions[1] <= w[1].fractions[1] + 1e-12);
        }
        // Endpoints.
        assert!((series[0].fractions[0] - 0.5).abs() < 1e-12);
        assert!((series[50].fractions[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speculative_fraction_known_values() {
        // pr = 0.75, n = 2: (0.25)/(1 − 0.5625) = 0.5714...
        assert!((speculative_fraction(0.75, 2) - 0.25 / 0.4375).abs() < 1e-9);
        assert_eq!(speculative_fraction(0.75, 1), 1.0);
        assert_eq!(speculative_fraction(0.0, 8), 1.0);
        // n → ∞ limit: fraction → 1 − pr.
        assert!((speculative_fraction(0.75, 1000) - 0.25).abs() < 1e-9);
        // Iterations per round is the reciprocal.
        assert!(
            (speculative_iters_per_round(0.75, 4) * speculative_fraction(0.75, 4) - 1.0).abs()
                < 1e-12
        );
    }

    #[test]
    fn eq3_reduces_to_eq2_without_speculation() {
        let t_eq3 = eq3_time(1e5, 0.4, 3e-6, 3e-6, 4, 0.8, 1);
        let t_eq2 = eq2_time(1e5, 0.4, 3e-6, 3e-6, 4);
        assert!((t_eq3 - t_eq2).abs() < 1e-12);
    }

    #[test]
    fn eq4_reduces_to_eq3_with_single_thread_locals() {
        let t_eq4 = eq4_time(1e5, 0.4, 3e-6, 3e-6, 4, 1, 0.8, 0.6);
        let t_eq2 = eq2_time(1e5, 0.4, 3e-6, 3e-6, 4);
        assert!((t_eq4 - t_eq2).abs() < 1e-12);
        // And speculation in both phases beats eq. (2).
        let t = eq4_time(1e5, 0.4, 3e-6, 3e-6, 4, 4, 0.8, 0.6);
        assert!(t < t_eq2);
    }
}
