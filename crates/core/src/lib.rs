//! # pmcmc-core
//!
//! Reversible-jump MCMC core of the `pmcmc` workspace — the case-study
//! model of *"On the Parallelisation of MCMC-based Image Processing"*
//! (Byrd, Jarvis & Bhalerao, IPDPS-W 2010): detection of stained cell
//! nuclei, abstracted to finding circles of high intensity (§III).
//!
//! The layers:
//!
//! * [`math`] / [`rng`] — special functions and deterministic, splittable
//!   random streams;
//! * [`params`] — priors, the global/local move taxonomy of §V, proposal
//!   scales;
//! * [`likelihood`] / [`coverage`] — the two-level Gaussian pixel
//!   likelihood with O(Δarea) incremental updates, priced read-only by
//!   whole-evaluation kernels over per-disk span tables;
//! * [`simd`] — runtime-dispatched lane kernels behind the overlapped-span
//!   residuals of those updates (scalar fallback via `PMCMC_FORCE_SCALAR=1`);
//! * [`config`] — the chain state (circles + caches) with reversible
//!   [`config::Edit`]s;
//! * [`moves`] — the seven RJMCMC proposal builders with exact
//!   dimension-matching ratios;
//! * [`sampler`] — the sequential baseline sampler;
//! * [`tile`] — tile state and persistent coverage replicas for the
//!   parallel local phases of periodic partitioning (§V);
//! * [`diagnostics`] / [`matching`] — acceptance stats, traces,
//!   convergence detection and anomaly scoring;
//! * [`mc3`] — Metropolis-coupled MCMC (§IV related work).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod config;
pub mod coverage;
pub mod diagnostics;
pub mod likelihood;
pub mod matching;
pub mod math;
pub mod mc3;
pub mod model;
pub mod moves;
pub mod params;
pub mod perf;
pub mod rng;
pub mod sampler;
pub mod samples;
pub mod simd;
mod spans;
pub mod spatial;
pub mod tile;

pub use config::{Configuration, Edit, EvalScratch, Receipt};
pub use diagnostics::{AcceptanceStats, ConvergenceDetector, Trace};
pub use likelihood::Gain;
pub use matching::{match_circles, MatchResult};
pub use mc3::Mc3;
pub use model::NucleiModel;
pub use params::{ModelParams, MoveKind, MoveWeights, ProposalScales};
pub use perf::PerfSnapshot;
pub use rng::{BatchedRng, Xoshiro256};
pub use sampler::{decide, evaluate_proposal, Evaluation, ProposalBatch, Sampler, Stepper};
pub use samples::{CountDistribution, SampleCollector};
pub use tile::{Replica, TilePlan, TileState, TileWorkspace};
