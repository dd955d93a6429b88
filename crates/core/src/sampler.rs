//! The sequential reversible-jump Metropolis–Hastings sampler.
//!
//! This is the baseline implementation every parallelisation scheme is
//! compared against (the horizontal line of Fig. 2), and the engine reused
//! for the `Mg` phases of periodic partitioning and for the per-partition
//! chains of intelligent/blind partitioning.

use crate::config::{Configuration, EvalScratch};
use crate::diagnostics::AcceptanceStats;
use crate::model::NucleiModel;
#[cfg(test)]
use crate::moves::propose;
use crate::moves::{propose_into, Proposal};
use crate::params::{MoveKind, MoveWeights};
use crate::rng::{BatchedRng, Xoshiro256};
use rand::Rng;

/// Outcome of one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepResult {
    /// The move kind drawn this iteration.
    pub kind: MoveKind,
    /// Whether the chain state changed.
    pub accepted: bool,
}

/// The two components of a proposal's log acceptance ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// `Δ log posterior` (prior + likelihood).
    pub d_log_posterior: f64,
    /// `log q(reverse) − log q(forward) + log|J|` (complete, including any
    /// post-state pair-count term).
    pub log_q: f64,
}

impl Evaluation {
    /// `log α` at inverse temperature `beta` (heating applies to the
    /// posterior only, never to the proposal mechanism).
    #[must_use]
    pub fn log_alpha(&self, beta: f64) -> f64 {
        beta * self.d_log_posterior + self.log_q
    }
}

/// Evaluates a proposal **without mutating** the configuration. This is the
/// single source of acceptance arithmetic, shared by the sequential
/// sampler, the speculative-move sampler (which must evaluate several
/// proposals of one state concurrently) and the (MC)³ chains.
#[must_use]
pub fn evaluate_proposal(
    config: &Configuration,
    model: &NucleiModel,
    proposal: &crate::moves::Proposal,
) -> Evaluation {
    let mut scratch = EvalScratch::new();
    let eval = evaluate_tallied(config, model, proposal, &mut scratch);
    scratch.tally.flush();
    eval
}

/// [`evaluate_proposal`] with the caller's scratch: the work is counted
/// into `scratch.tally` instead of [`crate::perf`], whose counters every
/// core shares.
fn evaluate_tallied(
    config: &Configuration,
    model: &NucleiModel,
    proposal: &crate::moves::Proposal,
    scratch: &mut EvalScratch,
) -> Evaluation {
    scratch.tally.proposals += 1;
    let p = &model.params;
    // Support pre-check: outside the prior's support the ratio is -inf.
    if !proposal.edit.add.iter().all(|c| p.in_support(c)) {
        return Evaluation {
            d_log_posterior: f64::NEG_INFINITY,
            log_q: 0.0,
        };
    }
    let k = config.len();
    let dk = proposal.edit.dimension_delta();
    let radius_delta: f64 = proposal
        .edit
        .add
        .iter()
        .map(|c| p.radius_prior.logpdf(c.r))
        .sum::<f64>()
        - proposal
            .edit
            .remove
            .iter()
            .map(|&i| p.radius_prior.logpdf(config.circle(i).r))
            .sum::<f64>();
    // A move that keeps the dimension (translate, resize, replace — most
    // draws) has count terms that cancel to exactly `0.0` (under a prior
    // that allows circles at all) and a position term of `0 × ln(W·H) =
    // −0.0`, which the sum below would absorb without a bit changing:
    // their three logarithms are not taken.
    let prior_delta = if dk == 0 && p.expected_count > 0.0 {
        0.0 + radius_delta
    } else {
        let count_delta =
            model.count_log_prior((k as i64 + dk) as usize) - model.count_log_prior(k);
        count_delta + radius_delta + dk as f64 * p.position_log_density()
    };
    let d_overlap = config.delta_overlap_readonly(&proposal.edit, model);
    let d_log_lik = config.delta_log_lik_tallied(&proposal.edit, model, scratch);

    let mut log_q = proposal.log_q;
    if proposal.needs_post_pairs {
        let pairs =
            config.count_close_pairs_after_edit(&proposal.edit, model.scales.merge_max_dist);
        // The split's children are themselves a close pair, so pairs >= 1.
        log_q -= (pairs.max(1) as f64).ln();
    }

    Evaluation {
        d_log_posterior: prior_delta - p.overlap_gamma * d_overlap + d_log_lik,
        log_q,
    }
}

/// Refill-amortised pre-draw of a burst of proposals' randomness.
///
/// Every iteration consumes a handful of `u64` words (move-kind draw,
/// proposal geometry, acceptance uniform). Rather than letting each draw
/// individually hit `BatchedRng`'s empty-buffer refill at an arbitrary
/// point of the hot loop, the sampler tops the stream up to a full block
/// once per [`ProposalBatch::STEPS`] iterations — one compacting burst
/// that preserves the delivered word sequence exactly (see
/// [`BatchedRng::top_up`]), so clone/rewind snapshots (the speculative
/// engine's replay machinery), cancellation points and same-seed
/// determinism are all untouched.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProposalBatch {
    steps_left: u32,
}

impl ProposalBatch {
    /// Iterations served per burst. A full 64-word block covers eight
    /// iterations of worst-case draws (≈8 words each), so a mid-batch
    /// refill is rare.
    pub const STEPS: u32 = 8;

    /// Accounts one iteration; true when a fresh burst must be pre-drawn.
    #[inline]
    fn begin_step(&mut self) -> bool {
        if self.steps_left == 0 {
            self.steps_left = Self::STEPS - 1;
            crate::perf::record_proposal_batch();
            return true;
        }
        self.steps_left -= 1;
        false
    }
}

/// A sequential RJMCMC sampler over circle configurations.
#[derive(Debug, Clone)]
pub struct Sampler<'m> {
    model: &'m NucleiModel,
    /// The chain state (public so drivers can partition/merge it).
    pub config: Configuration,
    /// Deterministic RNG stream, buffered so the proposal stream is drawn
    /// in refill-amortised bursts (the delivered word sequence is the raw
    /// xoshiro stream — see [`BatchedRng`]).
    pub rng: BatchedRng<Xoshiro256>,
    batch: ProposalBatch,
    /// Reusable proposal buffer: [`propose_into`] writes every iteration's
    /// proposal here, so the steady-state iteration loop never allocates.
    scratch: Proposal,
    weights: MoveWeights,
    /// Acceptance accounting.
    pub stats: AcceptanceStats,
    /// Inverse temperature: acceptance uses `beta · Δlog-posterior`.
    /// 1.0 is the cold (target) chain; (MC)³ heats chains with `beta < 1`.
    pub beta: f64,
    iterations: u64,
    /// Evaluation scratch; its tally is flushed to [`crate::perf`] at the
    /// end of every public call.
    eval: EvalScratch,
}

impl<'m> Sampler<'m> {
    /// Creates a sampler with a random initial configuration (§III).
    #[must_use]
    pub fn new(model: &'m NucleiModel, seed: u64) -> Self {
        let mut rng = Xoshiro256::new(seed);
        let config = Configuration::random_init(model, &mut rng);
        Self::with_config(model, config, rng)
    }

    /// Creates a sampler starting from an empty configuration.
    #[must_use]
    pub fn new_empty(model: &'m NucleiModel, seed: u64) -> Self {
        Self::with_config(model, Configuration::empty(model), Xoshiro256::new(seed))
    }

    /// Creates a sampler from an explicit state and RNG.
    #[must_use]
    pub fn with_config(model: &'m NucleiModel, config: Configuration, rng: Xoshiro256) -> Self {
        Self {
            model,
            config,
            rng: BatchedRng::new(rng),
            batch: ProposalBatch::default(),
            scratch: Proposal::scratch(),
            weights: MoveWeights::default(),
            stats: AcceptanceStats::new(),
            beta: 1.0,
            iterations: 0,
            eval: EvalScratch::new(),
        }
    }

    /// The model this sampler targets.
    #[must_use]
    pub fn model(&self) -> &'m NucleiModel {
        self.model
    }

    /// Current move weights.
    #[must_use]
    pub fn weights(&self) -> MoveWeights {
        self.weights
    }

    /// Replaces the move weights (e.g. `global_only()` during `Mg` phases).
    pub fn set_weights(&mut self, weights: MoveWeights) {
        self.weights = weights;
    }

    /// Iterations performed so far.
    #[must_use]
    pub const fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Log-posterior of the current state.
    #[must_use]
    pub fn log_posterior(&self) -> f64 {
        self.config.log_posterior(self.model)
    }

    /// Performs one MCMC iteration.
    pub fn step(&mut self) -> StepResult {
        let result = self.step_tallied();
        self.eval.tally.flush();
        result
    }

    /// [`Sampler::step`] that leaves the evaluation's work in `self.eval`.
    fn step_tallied(&mut self) -> StepResult {
        self.iterations += 1;
        if self.batch.begin_step() {
            // Pre-draw the burst's randomness in one compacting top-up.
            self.rng.top_up();
        }
        let kind = self.weights.sample(&mut self.rng);
        if !propose_into(
            &mut self.scratch,
            kind,
            &self.config,
            self.model,
            &self.weights,
            &mut self.rng,
        ) {
            self.stats.record_invalid(kind);
            return StepResult {
                kind,
                accepted: false,
            };
        }

        // Draw the acceptance uniform *before* evaluating, unconditionally.
        // This keeps RNG consumption a function of the proposal draw alone
        // (never of the evaluation's outcome), which is what lets the
        // speculative engine pre-draw per-lane streams and replay the
        // sequential chain bit-for-bit.
        let log_u = self.rng.gen::<f64>().ln();
        let eval = evaluate_tallied(&self.config, self.model, &self.scratch, &mut self.eval);
        let log_alpha = eval.log_alpha(self.beta);
        let accept = log_alpha >= 0.0 || log_u < log_alpha;
        if accept {
            self.config.apply(&self.scratch.edit, self.model);
            self.stats.record_accept(kind);
        } else {
            self.stats.record_reject(kind);
        }
        StepResult {
            kind,
            accepted: accept,
        }
    }

    /// Runs `n` iterations. The [`crate::perf`] counters see their work
    /// when the call returns.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step_tallied();
        }
        self.eval.tally.flush();
    }

    /// Runs `n` iterations, invoking `observer(iteration, &sampler)` every
    /// `stride` iterations (for traces and convergence detection).
    pub fn run_observed(
        &mut self,
        n: u64,
        stride: u64,
        mut observer: impl FnMut(u64, &Configuration, f64),
    ) {
        let stride = stride.max(1);
        for _ in 0..n {
            self.step();
            if self.iterations.is_multiple_of(stride) {
                observer(self.iterations, &self.config, self.log_posterior());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;
    use pmcmc_imaging::synth::{generate, SceneSpec};
    use pmcmc_imaging::Circle;

    fn scene_model(n: usize, size: u32, seed: u64) -> (NucleiModel, Vec<Circle>) {
        let spec = SceneSpec {
            width: size,
            height: size,
            n_circles: n,
            radius_mean: 8.0,
            radius_sd: 0.8,
            radius_min: 5.0,
            radius_max: 12.0,
            noise_sd: 0.05,
            ..SceneSpec::default()
        };
        let mut rng = Xoshiro256::new(seed);
        let scene = generate(&spec, &mut rng);
        let img = scene.render(&mut rng);
        let mut params = ModelParams::new(size, size, n as f64, 8.0);
        params.noise_sd = 0.15;
        (NucleiModel::new(&img, params), scene.circles)
    }

    #[test]
    fn chain_stays_consistent_over_many_steps() {
        let (model, _) = scene_model(6, 96, 1);
        let mut s = Sampler::new(&model, 42);
        for chunk in 0..10 {
            s.run(500);
            s.config
                .verify_consistency(&model)
                .unwrap_or_else(|e| panic!("chunk {chunk}: {e}"));
        }
        assert_eq!(s.iterations(), 5000);
        assert_eq!(s.stats.total_proposed(), 5000);
    }

    #[test]
    fn deterministic_given_seed() {
        let (model, _) = scene_model(5, 64, 2);
        let mut a = Sampler::new(&model, 7);
        let mut b = Sampler::new(&model, 7);
        a.run(2000);
        b.run(2000);
        assert_eq!(a.config.len(), b.config.len());
        assert!((a.log_posterior() - b.log_posterior()).abs() < 1e-9);
        let mut c = Sampler::new(&model, 8);
        c.run(2000);
        // Overwhelmingly likely to differ somewhere.
        assert!(
            a.config.len() != c.config.len()
                || (a.log_posterior() - c.log_posterior()).abs() > 1e-9
        );
    }

    #[test]
    fn finds_planted_circles() {
        let (model, truth) = scene_model(6, 96, 3);
        let mut s = Sampler::new_empty(&model, 11);
        s.run(30_000);
        // Count detection: within ±2 of the planted count.
        let k = s.config.len() as i64;
        assert!(
            (k - truth.len() as i64).abs() <= 2,
            "found {k} circles, planted {}",
            truth.len()
        );
        // Every truth circle has a detection within 4 px.
        let mut matched = 0;
        for t in &truth {
            if s.config
                .circles()
                .iter()
                .any(|d| t.centre_distance(d) < 4.0)
            {
                matched += 1;
            }
        }
        assert!(
            matched >= truth.len() - 1,
            "only {matched}/{} truth circles located",
            truth.len()
        );
    }

    #[test]
    fn log_posterior_increases_during_burn_in() {
        let (model, _) = scene_model(6, 96, 4);
        let mut s = Sampler::new_empty(&model, 5);
        let lp0 = s.log_posterior();
        s.run(10_000);
        assert!(
            s.log_posterior() > lp0 + 10.0,
            "posterior did not improve: {lp0} -> {}",
            s.log_posterior()
        );
    }

    #[test]
    fn global_only_weights_never_translate() {
        let (model, _) = scene_model(4, 64, 5);
        let mut s = Sampler::new(&model, 3);
        s.set_weights(MoveWeights::default().global_only());
        s.run(2000);
        assert_eq!(s.stats.kind(MoveKind::Translate).proposed, 0);
        assert_eq!(s.stats.kind(MoveKind::Resize).proposed, 0);
        assert!(s.stats.kind(MoveKind::Birth).proposed > 0);
    }

    #[test]
    fn observer_called_at_stride() {
        let (model, _) = scene_model(4, 64, 6);
        let mut s = Sampler::new(&model, 3);
        let mut calls = 0;
        s.run_observed(1000, 100, |_, _, _| calls += 1);
        assert_eq!(calls, 10);
    }

    #[test]
    fn heated_chain_accepts_more() {
        let (model, _) = scene_model(6, 96, 7);
        let mut cold = Sampler::new(&model, 9);
        let mut hot = Sampler::new(&model, 9);
        hot.beta = 0.2;
        cold.run(8000);
        hot.run(8000);
        assert!(
            hot.stats.acceptance_rate() > cold.stats.acceptance_rate(),
            "hot {} <= cold {}",
            hot.stats.acceptance_rate(),
            cold.stats.acceptance_rate()
        );
    }

    /// The read-only evaluation path must agree exactly with the mutating
    /// apply path for every move kind (this is the invariant the
    /// speculative sampler relies on) — on either lane backend, and on a
    /// tall image too, where a replace lands hundreds of rows from the
    /// circle it removes.
    #[test]
    fn readonly_deltas_match_apply_receipts() {
        let detected = crate::simd::backend();
        for backend in [crate::simd::Backend::Scalar, crate::simd::Backend::Avx2] {
            crate::simd::force_backend(backend);
            readonly_deltas_match_apply_receipts_on_this_backend();
        }
        crate::simd::force_backend(detected);
    }

    fn readonly_deltas_match_apply_receipts_on_this_backend() {
        let (model, _) = scene_model(8, 96, 12);
        let w = MoveWeights::default();
        let mut checked = [0u32; 7];

        let check_draws = |s: &mut Sampler<'_>, draws: u32, checked: &mut [u32; 7]| {
            let model = s.model();
            for _ in 0..draws {
                let kind = w.sample(&mut s.rng);
                let Some(proposal) = propose(kind, &s.config, model, &w, &mut s.rng) else {
                    continue;
                };
                if !proposal.edit.add.iter().all(|c| model.params.in_support(c)) {
                    continue;
                }
                let ro_lik = s.config.delta_log_lik_readonly(&proposal.edit, model);
                let ro_ov = s.config.delta_overlap_readonly(&proposal.edit, model);
                let ro_pairs = s
                    .config
                    .count_close_pairs_after_edit(&proposal.edit, model.scales.merge_max_dist);
                let receipt = s.config.apply(&proposal.edit, model);
                let post_pairs = s.config.count_close_pairs(model.scales.merge_max_dist);
                assert!(
                    (ro_lik - receipt.d_log_lik).abs() < 1e-9,
                    "{kind:?}: readonly lik {ro_lik} vs applied {}",
                    receipt.d_log_lik
                );
                assert!(
                    (ro_ov - receipt.d_overlap).abs() < 1e-9,
                    "{kind:?}: readonly overlap {ro_ov} vs applied {}",
                    receipt.d_overlap
                );
                assert_eq!(ro_pairs, post_pairs, "{kind:?}: pair count mismatch");
                s.config.revert(&receipt, model);
                checked[MoveKind::ALL.iter().position(|&k| k == kind).unwrap()] += 1;
                // Advance the chain a little so states vary.
                s.run(10);
            }
        };

        // Phase 1: organic states reached by a burnt-in chain (seed 55 —
        // arbitrary; coverage of the common kinds does not depend on it).
        let mut organic = Sampler::new(&model, 55);
        organic.run(500); // get to an interesting state
        check_draws(&mut organic, 3000, &mut checked);

        // Phase 2: states guaranteed to contain close pairs. Merge needs a
        // pair within merge_max_dist at proposal time, and whether the
        // organic chain visits such a state within N draws depends on the
        // exact RNG stream backing `gen_range` — under seed drift it can
        // plausibly never happen (observed: 0 merges in 20k draws). Plant
        // pairs 6 px apart so merge proposals are always constructible.
        let pairs: Vec<Circle> = (0..4)
            .flat_map(|i| {
                let cx = 18.0 + 20.0 * f64::from(i);
                [Circle::new(cx, 30.0, 7.0), Circle::new(cx + 4.0, 34.0, 8.0)]
            })
            .collect();
        let mut dense = Sampler::with_config(
            &model,
            Configuration::from_circles(&model, &pairs),
            Xoshiro256::new(56),
        );
        check_draws(&mut dense, 1500, &mut checked);

        // Phase 3: a 64 × 768 image, so that the two disks of a replace
        // are usually separated by rows neither reaches.
        let mut params = ModelParams::new(64, 768, 10.0, 8.0);
        params.noise_sd = 0.15;
        let stripes =
            pmcmc_imaging::GrayImage::from_fn(64, 768, |x, y| ((x * 5 + y * 3) % 17) as f32 / 17.0);
        let tall_model = NucleiModel::new(&stripes, params);
        let mut tall = Sampler::new(&tall_model, 57);
        check_draws(&mut tall, 1500, &mut checked);

        for (i, &k) in MoveKind::ALL.iter().enumerate() {
            assert!(checked[i] >= 5, "{k:?} exercised only {} times", checked[i]);
        }
    }

    /// Statistical validation of the full kernel: with a flat likelihood
    /// (uniform image exactly between fg and bg, i.e. zero gain) and no
    /// overlap penalty, the chain must sample the prior: the circle count
    /// is Poisson(λ). This exercises birth/death/split/merge/replace
    /// proposal-ratio arithmetic end to end — any imbalance shows up as a
    /// biased count distribution.
    #[test]
    fn samples_poisson_prior_under_flat_likelihood() {
        let lambda = 3.0;
        let size = 64;
        let mut params = ModelParams::new(size, size, lambda, 8.0);
        params.overlap_gamma = 0.0;
        // fg=0.9, bg=0.1 → a 0.5 image has zero gain everywhere.
        let img = pmcmc_imaging::GrayImage::filled(size, size, 0.5);
        let model = NucleiModel::new(&img, params);
        let mut s = Sampler::new_empty(&model, 1234);
        s.run(20_000); // burn-in
        let mut counts = vec![0u64; 40];
        let samples = 60_000u64;
        for _ in 0..samples {
            s.step();
            let k = s.config.len().min(39);
            counts[k] += 1;
        }
        let mean: f64 = counts
            .iter()
            .enumerate()
            .map(|(k, &c)| k as f64 * c as f64)
            .sum::<f64>()
            / samples as f64;
        assert!(
            (mean - lambda).abs() < 0.4,
            "posterior count mean {mean}, expected {lambda}"
        );
        // Check a few probability masses against Poisson within loose
        // Monte-Carlo tolerance (samples are autocorrelated).
        for (k, &count) in counts.iter().enumerate().take(8) {
            let got = count as f64 / samples as f64;
            let want = crate::math::poisson_logpmf(k, lambda).exp();
            assert!(
                (got - want).abs() < 0.05,
                "P(k={k}): got {got:.3}, Poisson {want:.3}"
            );
        }
    }
}
