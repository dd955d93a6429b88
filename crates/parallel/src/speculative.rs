//! Speculative moves (ref. \[11\], reviewed in §IV and used by
//! eqs. (3)/(4)).
//!
//! Each round, `n` lanes evaluate **independent** proposals conditioned on
//! the *same* chain state concurrently (read-only). The first accepted
//! proposal (in lane order) is applied; everything after it is discarded.
//! Because rejected iterations leave the state unchanged, the sequence of
//! kept decisions is distributed exactly like the sequential chain — the
//! chain advances `j + 1` iterations when lane `j` is the first to accept
//! (or `n` when none accepts).
//!
//! This engine goes further than distributional equivalence: it replays
//! the sequential chain **bit for bit**. All lanes draw from one chain RNG
//! stream — the leader pre-draws each lane's `(kind, proposal, accept
//! uniform)` serially (proposal construction is O(1); the likelihood scan
//! is the expensive part) and snapshots the RNG after each lane's draws.
//! Lanes then evaluate in parallel, and on the first acceptance the RNG is
//! restored to that lane's snapshot — exactly where a sequential sampler's
//! stream would stand. This works because [`pmcmc_core::Sampler`] draws
//! the acceptance uniform unconditionally (before evaluating), making RNG
//! consumption a function of the proposal draws alone.
//!
//! Rounds only buy time when lanes can actually run concurrently. When the
//! host has fewer cores than lanes (broadcast degenerates into a context-
//! switch relay), the engine transparently evaluates lanes inline instead
//! — same decisions, same stream, no synchronisation — which is what keeps
//! `fraction_of_seq` near 1 instead of orders of magnitude above it.
//!
//! With per-iteration rejection probability `p_r`, a round advances
//! `(1 − p_rⁿ)/(1 − p_r)` iterations in expectation for roughly one
//! iteration of wall time — the runtime factor `(1 − p_r)/(1 − p_rⁿ)` of
//! eq. (3).

use pmcmc_core::diagnostics::AcceptanceStats;
use pmcmc_core::moves::{propose, Proposal};
use pmcmc_core::rng::BatchedRng;
use pmcmc_core::sampler::evaluate_proposal;
use pmcmc_core::{Configuration, MoveKind, MoveWeights, NucleiModel, Xoshiro256};
use pmcmc_runtime::SpinTeam;
use rand::Rng;
use std::cell::UnsafeCell;

/// One lane's pre-drawn iteration: everything the sequential sampler would
/// have drawn from the chain stream, plus the stream position after it.
struct Lane {
    kind: MoveKind,
    proposal: Option<Proposal>,
    /// `ln(u)` for the acceptance test; NaN when there is no proposal (an
    /// invalid draw consumes no acceptance uniform).
    log_u: f64,
    /// Chain RNG state after this lane's draws.
    rng_after: BatchedRng<Xoshiro256>,
}

/// Cache-line-padded accept flag, one per lane; written only by its own
/// lane during the broadcast, read by the leader after the completion
/// barrier.
#[repr(align(64))]
struct AcceptSlot(UnsafeCell<bool>);

// SAFETY: lane `id` is the only writer of slot `id`, and the broadcast's
// completion barrier orders writes before the leader's reads.
unsafe impl Sync for AcceptSlot {}

/// The reusable speculative execution engine: a spin team plus the single
/// chain RNG stream. [`SpeculativeSampler`] wraps it for standalone use;
/// [`crate::periodic::PeriodicSampler`] embeds it to realise eq. (3)
/// (speculative execution of the `Mg` phases).
pub struct SpeculativeEngine {
    team: SpinTeam,
    rng: BatchedRng<Xoshiro256>,
    /// Reused per-round lane buffer (no allocation after the first round).
    lanes: Vec<Lane>,
    /// Reused lock-free per-lane accept flags.
    accept_slots: Vec<AcceptSlot>,
    /// Whether rounds evaluate lanes via the team (true) or inline
    /// (false). Defaults to true only when the host can actually run ≥ 2
    /// lanes concurrently.
    parallel_eval: bool,
    rounds: u64,
}

impl SpeculativeEngine {
    /// Creates an engine with `members` lanes (1 = sequential evaluation),
    /// with a fresh chain stream seeded by `seed`.
    #[must_use]
    pub fn new(seed: u64, members: usize) -> Self {
        Self::with_rng(Xoshiro256::new(seed), members)
    }

    /// Creates an engine continuing an existing chain stream — used when
    /// the stream already produced the initial configuration, so the whole
    /// run replays a sequential sampler exactly.
    #[must_use]
    pub fn with_rng(rng: Xoshiro256, members: usize) -> Self {
        let members = members.max(1);
        let team = SpinTeam::new(members);
        let parallel_eval = members >= 2 && team.effective_parallelism() >= 2;
        Self {
            team,
            rng: BatchedRng::new(rng),
            lanes: Vec::with_capacity(members),
            accept_slots: (0..members)
                .map(|_| AcceptSlot(UnsafeCell::new(false)))
                .collect(),
            parallel_eval,
            rounds: 0,
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn members(&self) -> usize {
        self.team.members()
    }

    /// Rounds executed so far.
    #[must_use]
    pub const fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Whether rounds evaluate lanes concurrently via the team.
    #[must_use]
    pub const fn parallel_eval(&self) -> bool {
        self.parallel_eval
    }

    /// Forces team (true) or inline (false) lane evaluation. Both paths
    /// make identical decisions from identical streams; this exists so
    /// tests can exercise the team path deterministically regardless of
    /// host core count, and so callers can override the core-count
    /// heuristic.
    pub fn set_parallel_eval(&mut self, parallel: bool) {
        self.parallel_eval = parallel;
    }

    /// Runs one speculative round on `config`; returns the iterations the
    /// chain consumed (`1..=members`).
    pub fn round(
        &mut self,
        config: &mut Configuration,
        model: &NucleiModel,
        weights: &MoveWeights,
        stats: &mut AcceptanceStats,
    ) -> u64 {
        self.rounds += 1;
        pmcmc_core::perf::record_spec_round();
        if self.parallel_eval {
            self.round_parallel(config, model, weights, stats)
        } else {
            self.round_inline(config, model, weights, stats)
        }
    }

    /// Inline round: run up to `members` sequential iterations, stopping
    /// at the first acceptance. No pre-draws, no snapshots, no
    /// synchronisation — this *is* the sequential sampler's loop, capped
    /// at the round length.
    fn round_inline(
        &mut self,
        config: &mut Configuration,
        model: &NucleiModel,
        weights: &MoveWeights,
        stats: &mut AcceptanceStats,
    ) -> u64 {
        let members = self.team.members();
        let mut consumed = 0u64;
        for _ in 0..members {
            consumed += 1;
            let kind = weights.sample(&mut self.rng);
            match propose(kind, config, model, weights, &mut self.rng) {
                None => stats.record_invalid(kind),
                Some(p) => {
                    let log_u = self.rng.gen::<f64>().ln();
                    let eval = evaluate_proposal(config, model, &p);
                    let log_alpha = eval.log_alpha(1.0);
                    if log_alpha >= 0.0 || log_u < log_alpha {
                        config.apply(&p.edit, model);
                        stats.record_accept(kind);
                        break;
                    }
                    stats.record_reject(kind);
                }
            }
        }
        consumed
    }

    /// Team round: pre-draw every lane's iteration from the chain stream,
    /// fan the read-only evaluations out over the team, then consume
    /// decisions in lane order and rewind the stream to the winning lane.
    fn round_parallel(
        &mut self,
        config: &mut Configuration,
        model: &NucleiModel,
        weights: &MoveWeights,
        stats: &mut AcceptanceStats,
    ) -> u64 {
        let members = self.team.members();
        // The round's pre-draws are one proposal burst: refill the RNG
        // buffer in a single amortised top-up (stream-preserving, so the
        // lane snapshots and the sequential trace are unaffected).
        self.rng.top_up();
        pmcmc_core::perf::record_proposal_batch();
        self.lanes.clear();
        for _ in 0..members {
            let kind = weights.sample(&mut self.rng);
            let proposal = propose(kind, config, model, weights, &mut self.rng);
            let log_u = if proposal.is_some() {
                self.rng.gen::<f64>().ln()
            } else {
                f64::NAN
            };
            self.lanes.push(Lane {
                kind,
                proposal,
                log_u,
                rng_after: self.rng.clone(),
            });
        }

        {
            let lanes = &self.lanes;
            let slots = &self.accept_slots;
            let config = &*config;
            self.team.broadcast(|id| {
                let lane = &lanes[id];
                let accept = match &lane.proposal {
                    None => false,
                    Some(p) => {
                        let eval = evaluate_proposal(config, model, p);
                        let log_alpha = eval.log_alpha(1.0);
                        log_alpha >= 0.0 || lane.log_u < log_alpha
                    }
                };
                // SAFETY: slot `id` is written only by lane `id` this
                // round; the broadcast barrier orders it before the reads
                // below.
                unsafe {
                    *slots[id].0.get() = accept;
                }
            });
        }
        pmcmc_core::perf::add_spin_wait_ns(self.team.take_spin_wait_ns());

        // Consume decisions in lane order up to (and including) the first
        // acceptance; later lanes are discarded un-counted, and the chain
        // stream rewinds to the winning lane's position.
        let mut consumed = 0u64;
        for id in 0..members {
            let lane = &self.lanes[id];
            // SAFETY: the broadcast above completed, so no lane is writing.
            let accept = unsafe { *self.accept_slots[id].0.get() };
            consumed += 1;
            match (&lane.proposal, accept) {
                (None, _) => stats.record_invalid(lane.kind),
                (Some(_), false) => stats.record_reject(lane.kind),
                (Some(p), true) => {
                    config.apply(&p.edit, model);
                    stats.record_accept(lane.kind);
                    self.rng = lane.rng_after.clone();
                    break;
                }
            }
        }
        consumed
    }

    /// Runs rounds until at least `min_iters` iterations are consumed;
    /// returns the exact number consumed.
    pub fn run(
        &mut self,
        config: &mut Configuration,
        model: &NucleiModel,
        weights: &MoveWeights,
        stats: &mut AcceptanceStats,
        min_iters: u64,
    ) -> u64 {
        let mut consumed = 0;
        while consumed < min_iters {
            consumed += self.round(config, model, weights, stats);
        }
        consumed
    }
}

/// A sampler that advances the chain with speculative rounds. For a given
/// model and seed its chain is **bit-identical** to
/// [`pmcmc_core::Sampler`]'s, for any lane count.
pub struct SpeculativeSampler<'m> {
    model: &'m NucleiModel,
    /// The chain state.
    pub config: Configuration,
    engine: SpeculativeEngine,
    weights: MoveWeights,
    /// Acceptance accounting (counts exactly the iterations the chain
    /// consumed, matching the sequential semantics).
    pub stats: AcceptanceStats,
    iterations: u64,
}

impl<'m> SpeculativeSampler<'m> {
    /// Creates a sampler with `members` speculative lanes (1 = sequential)
    /// and a random initial configuration. The chain stream continues the
    /// initialisation stream, mirroring [`pmcmc_core::Sampler::new`].
    #[must_use]
    pub fn new(model: &'m NucleiModel, seed: u64, members: usize) -> Self {
        let mut init_rng = Xoshiro256::new(seed);
        let config = Configuration::random_init(model, &mut init_rng);
        Self::with_parts(model, config, init_rng, members)
    }

    /// Creates a sampler from an existing configuration with a fresh chain
    /// stream seeded by `seed`.
    #[must_use]
    pub fn with_config(
        model: &'m NucleiModel,
        config: Configuration,
        seed: u64,
        members: usize,
    ) -> Self {
        Self::with_parts(model, config, Xoshiro256::new(seed), members)
    }

    /// Creates a sampler from an explicit state and chain stream.
    #[must_use]
    pub fn with_parts(
        model: &'m NucleiModel,
        config: Configuration,
        rng: Xoshiro256,
        members: usize,
    ) -> Self {
        Self {
            model,
            config,
            engine: SpeculativeEngine::with_rng(rng, members),
            weights: MoveWeights::default(),
            stats: AcceptanceStats::new(),
            iterations: 0,
        }
    }

    /// Number of speculative lanes.
    #[must_use]
    pub fn members(&self) -> usize {
        self.engine.members()
    }

    /// Replaces the move weights.
    pub fn set_weights(&mut self, weights: MoveWeights) {
        self.weights = weights;
    }

    /// Forces team or inline lane evaluation (see
    /// [`SpeculativeEngine::set_parallel_eval`]).
    pub fn set_parallel_eval(&mut self, parallel: bool) {
        self.engine.set_parallel_eval(parallel);
    }

    /// Iterations consumed so far.
    #[must_use]
    pub const fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Rounds executed so far.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.engine.rounds()
    }

    /// Runs one speculative round; returns the number of iterations the
    /// chain consumed (1..=members).
    pub fn round(&mut self) -> u64 {
        let consumed =
            self.engine
                .round(&mut self.config, self.model, &self.weights, &mut self.stats);
        self.iterations += consumed;
        consumed
    }

    /// Runs rounds until at least `n` iterations have been consumed.
    pub fn run(&mut self, n: u64) {
        let target = self.iterations + n;
        while self.iterations < target {
            self.round();
        }
    }

    /// Log-posterior of the current state.
    #[must_use]
    pub fn log_posterior(&self) -> f64 {
        self.config.log_posterior(self.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcmc_core::{ModelParams, Sampler};
    use pmcmc_imaging::synth::{generate, SceneSpec};

    fn scene_model(size: u32, n: usize, seed: u64) -> (NucleiModel, Vec<pmcmc_imaging::Circle>) {
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
    fn single_member_behaves_sequentially() {
        let (model, _) = scene_model(96, 6, 1);
        let mut s = SpeculativeSampler::new(&model, 5, 1);
        s.run(2_000);
        assert_eq!(s.iterations(), s.rounds());
        s.config.verify_consistency(&model).unwrap();
    }

    /// The headline correctness property of the rewrite: for the same
    /// model and seed, the speculative chain *is* the sequential chain —
    /// same circles, same log-posterior, same per-kind acceptance counts —
    /// for any lane count, on both the inline and the team evaluation
    /// path.
    #[test]
    fn matches_sequential_sampler_exactly() {
        let (model, _) = scene_model(96, 6, 8);
        for members in 1..=4 {
            for parallel in [false, true] {
                let mut spec = SpeculativeSampler::new(&model, 42, members);
                spec.set_parallel_eval(parallel);
                spec.run(2_000);
                let mut seq = Sampler::new(&model, 42);
                seq.run(spec.iterations());
                assert_eq!(
                    spec.config.circles(),
                    seq.config.circles(),
                    "members={members} parallel={parallel}: circle lists diverged"
                );
                assert_eq!(
                    spec.stats, seq.stats,
                    "members={members} parallel={parallel}: acceptance stats diverged"
                );
                assert!(
                    (spec.log_posterior() - seq.log_posterior()).abs() < 1e-12,
                    "members={members} parallel={parallel}: log-posterior diverged"
                );
            }
        }
    }

    /// Inline and team evaluation must be interchangeable mid-run: the
    /// decision sequence depends only on the stream, not on the path.
    #[test]
    fn eval_paths_agree_midstream() {
        let (model, _) = scene_model(64, 4, 9);
        let mut a = SpeculativeSampler::new(&model, 77, 3);
        a.set_parallel_eval(false);
        let mut b = SpeculativeSampler::new(&model, 77, 3);
        b.set_parallel_eval(true);
        for _ in 0..10 {
            a.run(200);
            b.run(200);
            // Flip both paths and keep going.
            a.set_parallel_eval(true);
            b.set_parallel_eval(false);
        }
        assert_eq!(a.iterations(), b.iterations());
        assert_eq!(a.config.circles(), b.config.circles());
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn rounds_consume_between_one_and_n_iterations() {
        let (model, _) = scene_model(96, 6, 2);
        let mut s = SpeculativeSampler::new(&model, 9, 4);
        for _ in 0..200 {
            let consumed = s.round();
            assert!((1..=4).contains(&consumed));
        }
        s.config.verify_consistency(&model).unwrap();
    }

    #[test]
    fn expected_iterations_per_round_matches_rejection_rate() {
        let (model, _) = scene_model(96, 8, 3);
        let mut s = SpeculativeSampler::new(&model, 13, 4);
        s.run(20_000);
        let pr = s.stats.rejection_rate();
        let expect = (1.0 - pr.powi(4)) / (1.0 - pr);
        let got = s.iterations() as f64 / s.rounds() as f64;
        // The formula assumes i.i.d. accept probability; tolerate the
        // state-dependence with a generous band.
        assert!(
            (got - expect).abs() < 0.45,
            "iters/round {got:.3} vs predicted {expect:.3} (p_r={pr:.3})"
        );
    }

    #[test]
    fn finds_planted_circles() {
        let (model, truth) = scene_model(96, 6, 4);
        let mut s = SpeculativeSampler::new(&model, 21, 4);
        s.run(30_000);
        let m = pmcmc_core::match_circles(&truth, s.config.circles(), 5.0);
        assert!(m.recall() >= 0.8, "recall {}", m.recall());
    }

    #[test]
    fn deterministic_given_seed() {
        let (model, _) = scene_model(64, 4, 5);
        let run = |seed| {
            let mut s = SpeculativeSampler::new(&model, seed, 3);
            s.run(3_000);
            (s.config.len(), s.log_posterior())
        };
        let a = run(33);
        let b = run(33);
        assert_eq!(a.0, b.0);
        assert!((a.1 - b.1).abs() < 1e-9);
    }
}
