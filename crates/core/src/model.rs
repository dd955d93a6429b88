//! The case-study model bundle: parameters + precomputed gain image +
//! proposal scales.

use crate::likelihood::Gain;
use crate::params::{ModelParams, ProposalScales};
use pmcmc_imaging::GrayImage;

/// Everything immutable that a sampler needs: the Bayesian model of §III
/// (priors + likelihood against the filtered image) and the proposal
/// scales. Shared read-only between threads.
#[derive(Debug, Clone)]
pub struct NucleiModel {
    /// Prior and likelihood parameters.
    pub params: ModelParams,
    /// Precomputed per-pixel likelihood gains for the input image.
    pub gain: Gain,
    /// Proposal distribution scales.
    pub scales: ProposalScales,
    /// `ln params.expected_count` as of construction (the count prior is
    /// evaluated twice per dimension-changing proposal).
    ln_expected_count: f64,
}

impl NucleiModel {
    /// Builds the model for a filtered input image.
    #[must_use]
    pub fn new(img: &GrayImage, params: ModelParams) -> Self {
        Self::with_scales(img, params, ProposalScales::default())
    }

    /// Builds the model with explicit proposal scales.
    #[must_use]
    pub fn with_scales(img: &GrayImage, params: ModelParams, scales: ProposalScales) -> Self {
        let gain = Gain::from_image(img, &params);
        Self {
            ln_expected_count: params.expected_count.ln(),
            params,
            gain,
            scales,
        }
    }

    /// Point-process count log-density of `k` circles under the prior
    /// intensity `λ = params.expected_count`: `k·ln λ − λ` (set convention,
    /// see [`crate::Configuration::log_prior`]).
    #[must_use]
    pub fn count_log_prior(&self, k: usize) -> f64 {
        let lambda = self.params.expected_count;
        if lambda <= 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        debug_assert_eq!(
            self.ln_expected_count.to_bits(),
            lambda.ln().to_bits(),
            "params.expected_count changed after the model was built"
        );
        k as f64 * self.ln_expected_count - lambda
    }

    /// Largest radius in the prior's support.
    #[must_use]
    pub fn r_max(&self) -> f64 {
        self.params.radius_prior.hi
    }

    /// The spatial reach of a circle's prior/likelihood footprint beyond
    /// its own radius: another circle can interact (overlap prior) only if
    /// its centre is within `c.r + r_max` of `c`'s centre, and the
    /// likelihood footprint is the disk itself. The §V safeguard margin —
    /// "features whose prior/likelihood calculations would draw on data
    /// from another partition may not be selected" — is therefore `r_max`.
    #[must_use]
    pub fn interaction_margin(&self) -> f64 {
        self.r_max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn margin_is_rmax() {
        let p = ModelParams::new(64, 64, 5.0, 10.0);
        let img = GrayImage::filled(64, 64, 0.1);
        let m = NucleiModel::new(&img, p);
        assert_eq!(m.interaction_margin(), m.params.radius_prior.hi);
        assert!(m.r_max() > 10.0);
    }
}
