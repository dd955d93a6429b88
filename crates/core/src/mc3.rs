//! Metropolis-coupled MCMC, (MC)³ — the related-work parallelisation of
//! §IV: several chains run simultaneously, all but one "heated" so they
//! explore the state space more freely; periodically two chains may swap
//! states subject to a modified Metropolis–Hastings test, letting the cold
//! chain escape local optima.

use crate::model::NucleiModel;
use crate::rng::Xoshiro256;
use crate::sampler::Sampler;
use rand::Rng;

/// Swap-attempt statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SwapStats {
    /// Swap proposals made.
    pub attempted: u64,
    /// Swaps accepted.
    pub accepted: u64,
}

/// A Metropolis-coupled ensemble. Chain 0 is the cold chain (β = 1).
/// [`Mc3::run`] steps the chains one after another; a parallel driver
/// [`split`](Mc3::split)s the ensemble and swaps through the same rule.
pub struct Mc3<'m> {
    chains: Vec<Sampler<'m>>,
    rng: Xoshiro256,
    /// Swap accounting.
    pub swap_stats: SwapStats,
}

impl<'m> Mc3<'m> {
    /// Creates `n_chains` chains with a geometric temperature ladder:
    /// `β_i = 1 / (1 + heat · i)` (the MrBayes-style incremental heating
    /// scheme).
    #[must_use]
    pub fn new(model: &'m NucleiModel, n_chains: usize, heat: f64, seed: u64) -> Self {
        let n_chains = n_chains.max(1);
        let root = Xoshiro256::new(seed);
        let chains = (0..n_chains)
            .map(|i| {
                let mut s = Sampler::new(model, crate::rng::derive_seed(seed, i as u64));
                s.beta = 1.0 / (1.0 + heat * i as f64);
                s
            })
            .collect();
        Self {
            chains,
            rng: root.split(u64::MAX),
            swap_stats: SwapStats::default(),
        }
    }

    /// Number of chains.
    #[must_use]
    pub fn n_chains(&self) -> usize {
        self.chains.len()
    }

    /// The cold chain.
    #[must_use]
    pub fn cold(&self) -> &Sampler<'m> {
        &self.chains[0]
    }

    /// Mutable access to all chains (lets a driver step them in parallel
    /// between swap points; chains are independent within a segment).
    pub fn chains_mut(&mut self) -> &mut [Sampler<'m>] {
        &mut self.chains
    }

    /// Splits the ensemble into its chains and its [`SwapRule`], so that a
    /// driver can step chains on other threads while it decides swaps.
    pub fn split(&mut self) -> (&mut [Sampler<'m>], SwapRule<'_>) {
        let swaps = SwapRule {
            rng: &mut self.rng,
            stats: &mut self.swap_stats,
        };
        (&mut self.chains, swaps)
    }

    /// Runs `segments` rounds of (`segment_len` iterations on every chain,
    /// then one swap attempt between a random adjacent pair), sequentially.
    pub fn run(&mut self, segments: u64, segment_len: u64) {
        let (chains, mut swaps) = self.split();
        for _ in 0..segments {
            for chain in chains.iter_mut() {
                chain.run(segment_len);
            }
            if let Some(i) = swaps.draw_pair(chains.len()) {
                let (lower, upper) = chains.split_at_mut(i + 1);
                swaps.decide(&mut lower[i], &mut upper[0]);
            }
        }
    }
}

/// The swap half of an [`Mc3`]: the ensemble's own stream, which draws
/// every pair and every acceptance uniform, and the swap accounting. A
/// pair depends on the stream alone, so a driver may draw it as soon as
/// the previous swap is decided; deciding the swaps in order keeps every
/// chain on the states [`Mc3::run`] gives it.
pub struct SwapRule<'a> {
    rng: &'a mut Xoshiro256,
    stats: &'a mut SwapStats,
}

impl SwapRule<'_> {
    /// Draws the next swap's pair `(i, i + 1)` among `n_chains` and returns
    /// `i`; draws nothing for fewer than two chains.
    pub fn draw_pair(&mut self, n_chains: usize) -> Option<usize> {
        (n_chains >= 2).then(|| self.rng.gen_range(0..n_chains - 1))
    }

    /// Decides the swap between the pair's chains `lower` (`i`) and `upper`
    /// (`i + 1`) by Metropolis-coupled acceptance, drawing a uniform only
    /// when `log α < 0`. An accepted swap trades the configurations;
    /// temperatures stay with the chains.
    pub fn decide(&mut self, lower: &mut Sampler<'_>, upper: &mut Sampler<'_>) {
        self.stats.attempted += 1;
        let log_alpha = (lower.beta - upper.beta) * (upper.log_posterior() - lower.log_posterior());
        if log_alpha >= 0.0 || self.rng.gen::<f64>().ln() < log_alpha {
            self.stats.accepted += 1;
            std::mem::swap(&mut lower.config, &mut upper.config);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;
    use pmcmc_imaging::GrayImage;

    fn small_model() -> NucleiModel {
        let params = ModelParams::new(64, 64, 4.0, 8.0);
        let img = GrayImage::from_fn(64, 64, |x, y| {
            let d = ((x as f32 - 32.0).powi(2) + (y as f32 - 32.0).powi(2)).sqrt();
            if d < 8.0 {
                0.9
            } else {
                0.1
            }
        });
        NucleiModel::new(&img, params)
    }

    #[test]
    fn ladder_temperatures_descend() {
        let m = small_model();
        let mc3 = Mc3::new(&m, 4, 0.3, 1);
        assert_eq!(mc3.n_chains(), 4);
        assert_eq!(mc3.cold().beta, 1.0);
        let betas: Vec<f64> = mc3.chains.iter().map(|c| c.beta).collect();
        for w in betas.windows(2) {
            assert!(w[0] > w[1], "ladder must cool monotonically");
        }
    }

    #[test]
    fn swaps_occur_and_chains_stay_consistent() {
        let m = small_model();
        let mut mc3 = Mc3::new(&m, 3, 0.5, 7);
        mc3.run(40, 100);
        assert_eq!(mc3.swap_stats.attempted, 40);
        assert!(
            mc3.swap_stats.accepted > 0,
            "no swap accepted in 40 attempts"
        );
        for chain in mc3.chains_mut() {
            chain
                .config
                .verify_consistency(chain.model())
                .expect("chain consistent after swaps");
        }
    }

    #[test]
    fn single_chain_swap_is_noop() {
        let m = small_model();
        let mut mc3 = Mc3::new(&m, 1, 0.5, 2);
        assert_eq!(mc3.split().1.draw_pair(1), None);
        mc3.run(3, 10);
        assert_eq!(mc3.swap_stats.attempted, 0);
    }

    #[test]
    fn cold_chain_targets_posterior() {
        // The cold chain of an ensemble should reach at least as good a
        // posterior as a lone chain given the same budget.
        let m = small_model();
        let mut mc3 = Mc3::new(&m, 3, 0.4, 3);
        mc3.run(20, 200);
        let lp = mc3.cold().log_posterior();
        assert!(lp.is_finite());
        // It found the planted blob: count should be near 1 + noise.
        assert!(mc3.cold().config.len() <= 8);
    }
}
