//! Model parameters, move-kind taxonomy and proposal scales.
//!
//! §V of the paper separates the move set into global moves `Mg` (anything
//! that "alters the configuration in a manner that impacts prior/likelihood
//! calculations across the entire image", in particular every
//! dimensionality-changing move since the expected artifact count is a
//! global prior term) and local moves `Ml` (position/radius fine-tuning
//! with spatially bounded impact). The case-study move set is
//! `Mg = {add, delete, merge, split, replace}` and
//! `Ml = {alter position, alter radius}`.

use crate::math::TruncatedNormal;

/// The seven reversible-jump move kinds of the case study (§III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MoveKind {
    /// Add a new circle (global; changes dimensionality).
    Birth,
    /// Delete a circle (global).
    Death,
    /// Split one circle into two (global).
    Split,
    /// Merge two nearby circles into one (global).
    Merge,
    /// Resample one circle's position and radius from scratch (global: its
    /// impact is not bounded by the current circle's neighbourhood).
    Replace,
    /// Perturb a circle's position (local).
    Translate,
    /// Perturb a circle's radius (local).
    Resize,
}

impl MoveKind {
    /// All move kinds, in a fixed order (used for stats tables).
    pub const ALL: [MoveKind; 7] = [
        MoveKind::Birth,
        MoveKind::Death,
        MoveKind::Split,
        MoveKind::Merge,
        MoveKind::Replace,
        MoveKind::Translate,
        MoveKind::Resize,
    ];

    /// Whether the move belongs to the global set `Mg`.
    #[must_use]
    pub const fn is_global(self) -> bool {
        !matches!(self, MoveKind::Translate | MoveKind::Resize)
    }

    /// Short label for reports.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            MoveKind::Birth => "birth",
            MoveKind::Death => "death",
            MoveKind::Split => "split",
            MoveKind::Merge => "merge",
            MoveKind::Replace => "replace",
            MoveKind::Translate => "translate",
            MoveKind::Resize => "resize",
        }
    }
}

/// Relative proposal probabilities for each move kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoveWeights {
    /// Weight of [`MoveKind::Birth`].
    pub birth: f64,
    /// Weight of [`MoveKind::Death`].
    pub death: f64,
    /// Weight of [`MoveKind::Split`].
    pub split: f64,
    /// Weight of [`MoveKind::Merge`].
    pub merge: f64,
    /// Weight of [`MoveKind::Replace`].
    pub replace: f64,
    /// Weight of [`MoveKind::Translate`].
    pub translate: f64,
    /// Weight of [`MoveKind::Resize`].
    pub resize: f64,
}

impl Default for MoveWeights {
    /// The §VII setting: "the proposal probabilities are such that 60 % of
    /// moves are from `Ml`", i.e. `q_g = 0.4`.
    fn default() -> Self {
        Self {
            birth: 0.08,
            death: 0.08,
            split: 0.08,
            merge: 0.08,
            replace: 0.08,
            translate: 0.30,
            resize: 0.30,
        }
    }
}

impl MoveWeights {
    /// Weight of one kind.
    #[must_use]
    pub const fn weight(&self, kind: MoveKind) -> f64 {
        match kind {
            MoveKind::Birth => self.birth,
            MoveKind::Death => self.death,
            MoveKind::Split => self.split,
            MoveKind::Merge => self.merge,
            MoveKind::Replace => self.replace,
            MoveKind::Translate => self.translate,
            MoveKind::Resize => self.resize,
        }
    }

    /// Sum of all weights.
    #[must_use]
    pub fn total(&self) -> f64 {
        MoveKind::ALL.iter().map(|&k| self.weight(k)).sum()
    }

    /// Global move proposal probability `q_g` (after normalisation).
    #[must_use]
    pub fn qg(&self) -> f64 {
        let global: f64 = MoveKind::ALL
            .iter()
            .filter(|k| k.is_global())
            .map(|&k| self.weight(k))
            .sum();
        global / self.total()
    }

    /// Conditional weights given that the move is global (`Ml` weights
    /// zeroed). Used during the `Mg` phases of periodic partitioning; the
    /// common `1/q_g` factor cancels in every paired acceptance ratio
    /// because each global kind's inverse (birth↔death, split↔merge,
    /// replace↔replace) is also global.
    #[must_use]
    pub fn global_only(&self) -> Self {
        Self {
            translate: 0.0,
            resize: 0.0,
            ..*self
        }
    }

    /// Conditional weights given that the move is local.
    #[must_use]
    pub fn local_only(&self) -> Self {
        Self {
            birth: 0.0,
            death: 0.0,
            split: 0.0,
            merge: 0.0,
            replace: 0.0,
            ..*self
        }
    }

    /// Samples a move kind proportionally to the weights.
    pub fn sample(&self, rng: &mut impl rand::Rng) -> MoveKind {
        let total = self.total();
        assert!(total > 0.0, "all move weights are zero");
        let mut u = rng.gen::<f64>() * total;
        for &k in &MoveKind::ALL {
            u -= self.weight(k);
            if u < 0.0 {
                return k;
            }
        }
        // Rounding left `u ≥ 0` after the last subtraction: the draw
        // belongs to the last kind that can be drawn at all — under
        // `global_only()` that is not `Resize`.
        MoveKind::ALL
            .into_iter()
            .rev()
            .find(|&k| self.weight(k) > 0.0)
            .expect("a positive total has a positive weight")
    }
}

/// Scales of the proposal distributions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProposalScales {
    /// Std-dev of the Gaussian translate step (pixels).
    pub translate_sd: f64,
    /// Std-dev of the Gaussian resize step (pixels).
    pub resize_sd: f64,
    /// Std-dev of the Gaussian split displacement auxiliaries (pixels).
    pub split_sd: f64,
    /// Maximum centre distance for a pair to be merge-eligible; split
    /// children further apart than this are auto-rejected (reverse move
    /// impossible).
    pub merge_max_dist: f64,
    /// Minimum radius fraction `u3 ∈ [f, 1-f]` a split child may take.
    pub split_frac_min: f64,
}

impl Default for ProposalScales {
    fn default() -> Self {
        Self {
            translate_sd: 2.0,
            resize_sd: 0.75,
            split_sd: 4.0,
            merge_max_dist: 14.0,
            split_frac_min: 0.25,
        }
    }
}

/// Full model parameterisation: priors plus the two-level Gaussian
/// likelihood of §III.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    /// Image width (pixels).
    pub width: u32,
    /// Image height (pixels).
    pub height: u32,
    /// Expected number of artifacts (Poisson prior mean λ).
    pub expected_count: f64,
    /// Radius prior (truncated normal).
    pub radius_prior: TruncatedNormal,
    /// Pairwise overlap penalty coefficient γ: the prior is multiplied by
    /// `exp(-γ · lens_area)` per overlapping pair ("the degree to which
    /// overlap is tolerated").
    pub overlap_gamma: f64,
    /// Expected foreground intensity.
    pub fg: f64,
    /// Expected background intensity.
    pub bg: f64,
    /// Gaussian pixel-noise standard deviation of the likelihood.
    pub noise_sd: f64,
}

impl ModelParams {
    /// A reasonable default model for a `width × height` image with
    /// `expected_count` cells of mean radius `radius_mean`.
    #[must_use]
    pub fn new(width: u32, height: u32, expected_count: f64, radius_mean: f64) -> Self {
        Self {
            width,
            height,
            expected_count,
            radius_prior: TruncatedNormal::new(
                radius_mean,
                radius_mean * 0.2,
                (radius_mean * 0.4).max(1.0),
                radius_mean * 2.0,
            ),
            overlap_gamma: 0.05,
            fg: 0.9,
            bg: 0.1,
            noise_sd: 0.15,
        }
    }

    /// Log-density of the uniform position prior (`1 / (W·H)` per circle).
    #[must_use]
    pub fn position_log_density(&self) -> f64 {
        -((f64::from(self.width) * f64::from(self.height)).ln())
    }

    /// Whether a circle lies in the prior's support: centre inside the
    /// image and radius inside the radius prior's truncation interval.
    #[must_use]
    pub fn in_support(&self, c: &pmcmc_imaging::Circle) -> bool {
        c.x >= 0.0
            && c.y >= 0.0
            && c.x < f64::from(self.width)
            && c.y < f64::from(self.height)
            && self.radius_prior.in_support(c.r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;
    use pmcmc_imaging::Circle;

    #[test]
    fn default_weights_have_paper_qg() {
        let w = MoveWeights::default();
        assert!((w.qg() - 0.4).abs() < 1e-12);
        assert!((w.total() - 1.0).abs() < 1e-12);
    }

    /// Weights of a given `q_g` in the default proportions inside each
    /// group: `q_g / 5` for each global kind, `(1 − q_g) / 2` for each
    /// local one.
    fn weights_with_qg(qg: f64) -> MoveWeights {
        let (g, l) = (qg / 5.0, (1.0 - qg) / 2.0);
        MoveWeights {
            birth: g,
            death: g,
            split: g,
            merge: g,
            replace: g,
            translate: l,
            resize: l,
        }
    }

    /// An RNG whose every `f64` draw is the largest one, `1 − 2⁻⁵³`.
    struct TopOfRange;

    impl rand::RngCore for TopOfRange {
        fn next_u32(&mut self) -> u32 {
            u32::MAX
        }
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            dest.fill(0xFF);
        }
    }

    /// At the top of the unit interval the running subtraction in
    /// `sample` can end at `u ≥ 0` by rounding; the draw must still be a
    /// kind with positive weight, never a local move in an `Mg` phase.
    #[test]
    fn top_of_range_draw_never_picks_a_zero_weight_kind() {
        let mut fell_through = 0;
        for i in 1..=1000 {
            let w = weights_with_qg(f64::from(i) / 1000.0).global_only();
            let kind = w.sample(&mut TopOfRange);
            assert!(w.weight(kind) > 0.0, "{w:?} drew {kind:?}");
            let u = (u64::MAX >> 11) as f64 / (1u64 << 53) as f64 * w.total();
            let left = MoveKind::ALL.iter().fold(u, |u, &k| u - w.weight(k));
            if left >= 0.0 {
                fell_through += 1;
                assert_eq!(kind, MoveKind::Replace, "{w:?}");
            }
        }
        assert!(fell_through > 0, "no weights exercised the fall-through");
    }

    #[test]
    fn restricted_weights_zero_other_group() {
        let w = MoveWeights::default();
        let g = w.global_only();
        assert_eq!(g.translate, 0.0);
        assert_eq!(g.resize, 0.0);
        assert!((g.qg() - 1.0).abs() < 1e-12);
        let l = w.local_only();
        assert_eq!(l.qg(), 0.0);
        assert!(l.translate > 0.0);
    }

    #[test]
    fn global_classification_matches_paper() {
        use MoveKind::*;
        for k in [Birth, Death, Split, Merge, Replace] {
            assert!(k.is_global(), "{k:?}");
        }
        for k in [Translate, Resize] {
            assert!(!k.is_global(), "{k:?}");
        }
    }

    #[test]
    fn sampling_matches_weights() {
        let w = MoveWeights::default();
        let mut rng = Xoshiro256::new(123);
        let n = 100_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            *counts.entry(w.sample(&mut rng)).or_insert(0usize) += 1;
        }
        for &k in &MoveKind::ALL {
            let frac = *counts.get(&k).unwrap_or(&0) as f64 / n as f64;
            let expect = w.weight(k) / w.total();
            assert!((frac - expect).abs() < 0.01, "{k:?}: {frac} vs {expect}");
        }
    }

    #[test]
    fn support_checks() {
        let p = ModelParams::new(100, 80, 10.0, 10.0);
        assert!(p.in_support(&Circle::new(50.0, 40.0, 10.0)));
        assert!(!p.in_support(&Circle::new(-1.0, 40.0, 10.0)));
        assert!(!p.in_support(&Circle::new(50.0, 80.0, 10.0)));
        assert!(!p.in_support(&Circle::new(50.0, 40.0, 100.0)));
    }

    #[test]
    fn position_log_density_is_log_inverse_area() {
        let p = ModelParams::new(100, 50, 10.0, 8.0);
        assert!((p.position_log_density() + (5000.0f64).ln()).abs() < 1e-12);
    }
}
