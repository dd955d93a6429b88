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
//! Lanes then decide in parallel, and on the first acceptance the RNG is
//! restored to that lane's snapshot — exactly where a sequential sampler's
//! stream would stand. This works because [`pmcmc_core::Sampler`] draws
//! the acceptance uniform unconditionally (before evaluating), making RNG
//! consumption a function of the proposal draws alone.
//!
//! A round of lanes buys time only when it costs less than the iterations
//! it consumes would cost one after the other: the team's cross-core
//! hand-off has to be cheaper than the evaluations it overlaps. On a host
//! with fewer than two cores it never is, and rounds run inline — a
//! [`Stepper`], the sequential sampler's own loop, capped at the round
//! length. Elsewhere the engine times its first rounds on each path, team
//! then inline, and keeps the cheaper one. Both paths make the same
//! decisions from the same stream, so the choice moves time, never a
//! chain.
//!
//! With per-iteration rejection probability `p_r`, a round advances
//! `(1 − p_rⁿ)/(1 − p_r)` iterations in expectation for roughly one
//! iteration of wall time — the runtime factor `(1 − p_r)/(1 − p_rⁿ)` of
//! eq. (3).

use pmcmc_core::diagnostics::AcceptanceStats;
use pmcmc_core::moves::{propose_into, Proposal};
use pmcmc_core::rng::BatchedRng;
use pmcmc_core::sampler::{decide, Stepper};
use pmcmc_core::{Configuration, EvalScratch, MoveKind, MoveWeights, NucleiModel, Xoshiro256};
use pmcmc_runtime::SpinTeam;
use rand::Rng;
use std::cell::UnsafeCell;
use std::time::Instant;

/// One lane's pre-drawn iteration: everything the sequential sampler would
/// have drawn from the chain stream, plus the stream position after it.
struct Lane {
    kind: MoveKind,
    /// The lane's proposal buffer, reused round after round.
    proposal: Proposal,
    /// Whether `kind` was proposable (`proposal` holds it).
    valid: bool,
    /// `ln(u)` for the acceptance test; NaN when there is no proposal (an
    /// invalid draw consumes no acceptance uniform).
    log_u: f64,
    /// Chain RNG state after this lane's draws.
    rng_after: BatchedRng<Xoshiro256>,
}

/// What lane `id` writes during a round: its decision and the evaluation
/// scratch it counts its work into.
struct LaneWork {
    accept: bool,
    eval: EvalScratch,
}

/// One lane's [`LaneWork`], alone on its cache lines; written only by its
/// own lane during the broadcast, read by the leader after it.
#[repr(align(64))]
struct LaneSlot(UnsafeCell<LaneWork>);

// SAFETY: lane `id` is the only one that touches slot `id` during a
// broadcast, and the broadcast's completion barrier orders its writes
// before the leader's reads (which go through `&mut self`).
unsafe impl Sync for LaneSlot {}

/// The two ways to run a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Pre-draw every lane, decide them concurrently on the team.
    Team,
    /// Step the chain inline, stopping at the first acceptance.
    Inline,
}

/// The cheaper path, given the nanoseconds per consumed iteration measured
/// on each. The inline path wins ties and takes over when a cost is not a
/// number: it needs no second core.
fn cheaper(team_ns: f64, inline_ns: f64) -> Path {
    if team_ns < inline_ns {
        Path::Team
    } else {
        Path::Inline
    }
}

/// Rounds timed on each path before the engine keeps one.
const TRIAL_ROUNDS: usize = 64;

/// The path rounds take.
#[derive(Debug)]
enum PathChoice {
    /// Timing `path`: the nanoseconds per consumed iteration of each of its
    /// rounds so far, and the team's median once the team has been timed.
    Trial {
        path: Path,
        costs: Vec<f64>,
        team: f64,
    },
    /// Chosen for good: by the trial, by the host, or by
    /// [`SpeculativeEngine::set_parallel_eval`].
    Kept(Path),
}

impl PathChoice {
    /// A trial of `path`, given the team's cost (NaN before it is timed).
    fn trial(path: Path, team: f64) -> Self {
        PathChoice::Trial {
            path,
            costs: Vec::with_capacity(TRIAL_ROUNDS),
            team,
        }
    }

    const fn path(&self) -> Path {
        match self {
            PathChoice::Trial { path, .. } | PathChoice::Kept(path) => *path,
        }
    }

    /// Accounts a round of the trial that took `ns` and consumed `iters`.
    /// After [`TRIAL_ROUNDS`] on the team the inline path is timed, and
    /// after as many on it the cheaper is kept. A path's cost is the median
    /// over its rounds, so a round that woke parked helpers or that the
    /// host preempted does not decide.
    fn round_done(&mut self, ns: f64, iters: u64) {
        let PathChoice::Trial { path, costs, team } = self else {
            return;
        };
        costs.push(ns / iters as f64);
        if costs.len() < TRIAL_ROUNDS {
            return;
        }
        let (_, &mut median, _) = costs.select_nth_unstable_by(TRIAL_ROUNDS / 2, f64::total_cmp);
        *self = match path {
            Path::Team => PathChoice::trial(Path::Inline, median),
            Path::Inline => PathChoice::Kept(cheaper(*team, median)),
        };
    }
}

/// The reusable speculative execution engine: a spin team plus the single
/// chain RNG stream. [`SpeculativeSampler`] wraps it for standalone use;
/// [`crate::periodic::PeriodicSampler`] embeds it to realise eq. (3)
/// (speculative execution of the `Mg` phases).
pub struct SpeculativeEngine {
    team: SpinTeam,
    rng: BatchedRng<Xoshiro256>,
    /// One pre-draw buffer per lane, reused every team round.
    lanes: Vec<Lane>,
    /// One decision-and-scratch slot per lane.
    slots: Vec<LaneSlot>,
    /// The inline path: the sequential sampler's loop.
    inline: Stepper,
    choice: PathChoice,
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
        let rng = BatchedRng::new(rng);
        let team = SpinTeam::new(members);
        // With one lane, or one core, nothing runs concurrently: a team
        // round would be a context-switch relay.
        let choice = if team.effective_parallelism() >= 2 {
            PathChoice::trial(Path::Team, f64::NAN)
        } else {
            PathChoice::Kept(Path::Inline)
        };
        Self {
            team,
            lanes: (0..members)
                .map(|_| Lane {
                    kind: MoveKind::Birth,
                    proposal: Proposal::scratch(),
                    valid: false,
                    log_u: f64::NAN,
                    rng_after: rng.clone(),
                })
                .collect(),
            slots: (0..members)
                .map(|_| {
                    LaneSlot(UnsafeCell::new(LaneWork {
                        accept: false,
                        eval: EvalScratch::new(),
                    }))
                })
                .collect(),
            rng,
            inline: Stepper::new(),
            choice,
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

    /// Whether the next round evaluates its lanes concurrently on the team.
    #[must_use]
    pub const fn parallel_eval(&self) -> bool {
        matches!(self.choice.path(), Path::Team)
    }

    /// Pins rounds to the team (true) or the inline path (false) instead
    /// of choosing by measured cost. Both paths make identical decisions
    /// from identical streams; the pin exists so tests can exercise either
    /// path regardless of host and load.
    pub fn set_parallel_eval(&mut self, parallel: bool) {
        self.choice = PathChoice::Kept(if parallel { Path::Team } else { Path::Inline });
    }

    /// Runs one speculative round on `config`; returns the iterations the
    /// chain consumed (`1..=members`). The [`pmcmc_core::perf`] counters
    /// see its work when the call returns.
    pub fn round(
        &mut self,
        config: &mut Configuration,
        model: &NucleiModel,
        weights: &MoveWeights,
        stats: &mut AcceptanceStats,
    ) -> u64 {
        let consumed = self.round_tallied(config, model, weights, stats);
        self.flush();
        consumed
    }

    /// [`SpeculativeEngine::round`] that leaves the work in the scratches.
    fn round_tallied(
        &mut self,
        config: &mut Configuration,
        model: &NucleiModel,
        weights: &MoveWeights,
        stats: &mut AcceptanceStats,
    ) -> u64 {
        self.rounds += 1;
        pmcmc_core::perf::record_spec_round();
        let start = matches!(self.choice, PathChoice::Trial { .. }).then(Instant::now);
        let consumed = match self.choice.path() {
            Path::Team => self.round_team(config, model, weights, stats),
            Path::Inline => self.round_inline(config, model, weights, stats),
        };
        if let Some(start) = start {
            self.choice
                .round_done(start.elapsed().as_nanos() as f64, consumed);
        }
        consumed
    }

    /// Inline round: up to `members` iterations of the sequential loop,
    /// stopping at the first acceptance. No pre-draws, no snapshots, no
    /// synchronisation.
    fn round_inline(
        &mut self,
        config: &mut Configuration,
        model: &NucleiModel,
        weights: &MoveWeights,
        stats: &mut AcceptanceStats,
    ) -> u64 {
        let members = self.team.members() as u64;
        let mut consumed = 0;
        while consumed < members {
            consumed += 1;
            let step = self
                .inline
                .step(config, model, weights, 1.0, &mut self.rng, stats);
            if step.accepted {
                break;
            }
        }
        consumed
    }

    /// Team round: pre-draw every lane's iteration from the chain stream,
    /// fan the read-only decisions out over the team, then consume them in
    /// lane order and rewind the stream to the winning lane.
    fn round_team(
        &mut self,
        config: &mut Configuration,
        model: &NucleiModel,
        weights: &MoveWeights,
        stats: &mut AcceptanceStats,
    ) -> u64 {
        // The round's pre-draws are one proposal burst: refill the RNG
        // buffer in a single amortised top-up (stream-preserving, so the
        // lane snapshots and the sequential trace are unaffected).
        self.rng.top_up();
        pmcmc_core::perf::record_proposal_batch();
        for lane in &mut self.lanes {
            lane.kind = weights.sample(&mut self.rng);
            lane.valid = propose_into(
                &mut lane.proposal,
                lane.kind,
                config,
                model,
                weights,
                &mut self.rng,
            );
            lane.log_u = if lane.valid {
                self.rng.gen::<f64>().ln()
            } else {
                f64::NAN
            };
            lane.rng_after.clone_from(&self.rng);
        }

        {
            let (lanes, slots, config) = (&self.lanes, &self.slots, &*config);
            self.team.broadcast(|id| {
                let lane = &lanes[id];
                // SAFETY: slot `id` is touched only by lane `id` this
                // round; the broadcast barrier orders it before the reads
                // below.
                let work = unsafe { &mut *slots[id].0.get() };
                work.accept = lane.valid
                    && decide(
                        config,
                        model,
                        &lane.proposal,
                        1.0,
                        lane.log_u,
                        &mut work.eval,
                    );
            });
        }
        pmcmc_core::perf::add_spin_wait_ns(self.team.take_spin_wait_ns());

        // Consume decisions in lane order up to (and including) the first
        // acceptance; later lanes are discarded un-counted, and the chain
        // stream rewinds to the winning lane's position.
        let mut consumed = 0u64;
        for (lane, slot) in self.lanes.iter().zip(&mut self.slots) {
            consumed += 1;
            match (lane.valid, slot.0.get_mut().accept) {
                (false, _) => stats.record_invalid(lane.kind),
                (true, false) => stats.record_reject(lane.kind),
                (true, true) => {
                    config.apply(&lane.proposal.edit, model);
                    stats.record_accept(lane.kind);
                    self.rng.clone_from(&lane.rng_after);
                    break;
                }
            }
        }
        consumed
    }

    /// Adds the work every path counted since the last flush to
    /// [`pmcmc_core::perf`].
    fn flush(&mut self) {
        self.inline.flush();
        for slot in &mut self.slots {
            slot.0.get_mut().eval.flush();
        }
    }

    /// Runs rounds until at least `min_iters` iterations are consumed;
    /// returns the exact number consumed. Its work reaches
    /// [`pmcmc_core::perf`] at the end.
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
            consumed += self.round_tallied(config, model, weights, stats);
        }
        self.flush();
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

    /// Pins rounds to the team or the inline path (see
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
        self.iterations += self.engine.run(
            &mut self.config,
            self.model,
            &self.weights,
            &mut self.stats,
            n,
        );
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
    /// same circles, same log-posterior bits, same per-kind acceptance
    /// counts — for any lane count, pinned to the inline or the team path
    /// or left to choose by measured cost.
    #[test]
    fn matches_sequential_sampler_exactly() {
        let (model, _) = scene_model(96, 6, 8);
        for members in 1..=4 {
            for pin in [Some(false), Some(true), None] {
                let mut spec = SpeculativeSampler::new(&model, 42, members);
                if let Some(parallel) = pin {
                    spec.set_parallel_eval(parallel);
                }
                spec.run(2_000);
                let mut seq = Sampler::new(&model, 42);
                seq.run(spec.iterations());
                assert_eq!(
                    spec.config.circles(),
                    seq.config.circles(),
                    "members={members} pin={pin:?}: circle lists diverged"
                );
                assert_eq!(
                    spec.stats, seq.stats,
                    "members={members} pin={pin:?}: acceptance stats diverged"
                );
                assert_eq!(
                    spec.log_posterior().to_bits(),
                    seq.log_posterior().to_bits(),
                    "members={members} pin={pin:?}: log-posterior diverged"
                );
            }
        }
    }

    #[test]
    fn the_cheaper_path_wins_and_the_inline_path_takes_ties_and_nan() {
        assert_eq!(cheaper(900.0, 1000.0), Path::Team);
        assert_eq!(cheaper(4000.0, 830.0), Path::Inline);
        assert_eq!(cheaper(830.0, 830.0), Path::Inline);
        assert_eq!(cheaper(f64::NAN, 830.0), Path::Inline);
        assert_eq!(cheaper(830.0, f64::NAN), Path::Inline);
        assert_eq!(cheaper(f64::NAN, f64::NAN), Path::Inline);
    }

    /// The trial with injected round costs: it times the team, then the
    /// inline path, [`TRIAL_ROUNDS`] rounds each, keeps the cheaper by
    /// median cost per iteration, and is not swayed by a few slow rounds.
    #[test]
    fn the_trial_keeps_the_cheaper_path_by_median_cost() {
        // Runs a trial where round `i` on a path costs `cost(path, i)` ns
        // for two iterations; returns the paths run and the one kept.
        let trial = |cost: &dyn Fn(Path, usize) -> f64| {
            let mut choice = PathChoice::trial(Path::Team, f64::NAN);
            let mut ran = Vec::new();
            while let PathChoice::Trial { path, costs, .. } = &choice {
                let (path, i) = (*path, costs.len());
                ran.push(path);
                choice.round_done(2.0 * cost(path, i), 2);
            }
            (ran, choice.path())
        };
        let flat = |team: f64, inline: f64| {
            move |path, _| match path {
                Path::Team => team,
                Path::Inline => inline,
            }
        };
        let (ran, kept) = trial(&flat(4000.0, 800.0));
        assert_eq!(ran.len(), 2 * TRIAL_ROUNDS);
        assert!(ran[..TRIAL_ROUNDS].iter().all(|&p| p == Path::Team));
        assert!(ran[TRIAL_ROUNDS..].iter().all(|&p| p == Path::Inline));
        assert_eq!(kept, Path::Inline);
        assert_eq!(trial(&flat(500.0, 800.0)).1, Path::Team);
        assert_eq!(trial(&flat(800.0, 800.0)).1, Path::Inline);
        // A team that is cheaper but for its wake-up round, against an
        // inline path the host preempted three times, still wins.
        let noisy = |path, i| match (path, i) {
            (Path::Team, 0) => 1e6,
            (Path::Team, _) => 500.0,
            (Path::Inline, 5 | 20 | 40) => 1e7,
            (Path::Inline, _) => 800.0,
        };
        assert_eq!(trial(&noisy).1, Path::Team);
        // A kept path stays kept.
        let mut kept = PathChoice::Kept(Path::Team);
        kept.round_done(1e9, 1);
        assert_eq!(kept.path(), Path::Team);
    }

    /// A pinned engine never leaves its path.
    #[test]
    fn pins_hold() {
        let (model, _) = scene_model(64, 4, 10);
        for parallel in [false, true] {
            let mut s = SpeculativeSampler::new(&model, 3, 2);
            s.set_parallel_eval(parallel);
            s.run(20_000);
            assert_eq!(s.engine.parallel_eval(), parallel);
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
