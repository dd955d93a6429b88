//! Wire schemas for the job layer: how a [`JobSpec`]-shaped workload, a
//! [`RunReport`] and a [`RunError`] cross a socket between the
//! distributed coordinator and a node daemon.
//!
//! Built on the framing and primitives of [`pmcmc_runtime::wire`]; this
//! module owns the codecs for the types that live in `pmcmc-parallel`
//! (strategy specs, reports, errors) plus the two composite frame
//! payloads, [`Assign`] and [`JobResult`].
//!
//! Two deliberate choices:
//!
//! * **Strategy specs are encoded structurally** (a tag byte plus every
//!   option field), not through the CLI grammar — `Display`/`FromStr`
//!   drop options outside the grammar (tiling schemes, chain convergence
//!   knobs, dispute policies), and the distributed backend's equivalence
//!   guarantee needs encode∘decode to be the identity on *all* of
//!   [`StrategySpec`], not just its stringly projection.
//! * **Reports travel as [`WireReport`]** — the final circles instead of
//!   the full [`Configuration`] (whose
//!   coverage grids are derivable and large), with `log_posterior`
//!   carried verbatim rather than recomputed so the reconstructed report
//!   is bit-identical to the one the daemon measured.

use crate::blind::DisputePolicy;
use crate::engine::{NodeTiming, PhaseTiming, RunDiagnostics, RunReport, StrategySpec, Validity};
use crate::intelligent::IntelligentPartitioner;
use crate::job::error::RunError;
use crate::naive::{NaiveOptions, NaivePrior};
use crate::periodic::{PartitionScheme, PeriodicOptions};
use crate::subchain::SubChainOptions;
use pmcmc_core::{Configuration, ModelParams, NucleiModel};
use pmcmc_imaging::{Circle, GrayImage};
use pmcmc_runtime::wire::{Wire, WireError, WireReader, WireWriter};
use pmcmc_runtime::NodeId;
use std::time::Duration;

#[cfg(doc)]
use crate::job::JobSpec;

impl Wire for PartitionScheme {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            PartitionScheme::Grid { xm, ym } => {
                w.u8(0);
                w.u64(*xm as u64);
                w.u64(*ym as u64);
            }
            PartitionScheme::Corner => w.u8(1),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(PartitionScheme::Grid {
                xm: r.u64()? as i64,
                ym: r.u64()? as i64,
            }),
            1 => Ok(PartitionScheme::Corner),
            t => Err(WireError::Malformed(format!(
                "unknown partition scheme tag {t}"
            ))),
        }
    }
}

impl Wire for SubChainOptions {
    fn encode(&self, w: &mut WireWriter) {
        w.f32(self.theta);
        w.u64(self.conv_window as u64);
        w.f64(self.conv_tol);
        w.u64(self.conv_stride);
        w.u64(self.max_iters);
        w.f64(self.settle_frac);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SubChainOptions {
            theta: r.f32()?,
            conv_window: r.u64()? as usize,
            conv_tol: r.f64()?,
            conv_stride: r.u64()?,
            max_iters: r.u64()?,
            settle_frac: r.f64()?,
        })
    }
}

impl Wire for DisputePolicy {
    fn encode(&self, w: &mut WireWriter) {
        w.u8(match self {
            DisputePolicy::Accept => 0,
            DisputePolicy::Discard => 1,
        });
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(DisputePolicy::Accept),
            1 => Ok(DisputePolicy::Discard),
            t => Err(WireError::Malformed(format!(
                "unknown dispute policy tag {t}"
            ))),
        }
    }
}

impl Wire for NaivePrior {
    fn encode(&self, w: &mut WireWriter) {
        w.u8(match self {
            NaivePrior::UniformSplit => 0,
            NaivePrior::DensityEstimate => 1,
        });
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(NaivePrior::UniformSplit),
            1 => Ok(NaivePrior::DensityEstimate),
            t => Err(WireError::Malformed(format!("unknown naive prior tag {t}"))),
        }
    }
}

impl Wire for StrategySpec {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            StrategySpec::Sequential => w.u8(0),
            StrategySpec::Periodic(o) => {
                w.u8(1);
                w.u64(o.global_phase_iters);
                o.scheme.encode(w);
                w.u64(o.threads as u64);
                w.u64(o.speculative_global_lanes as u64);
            }
            StrategySpec::Speculative { lanes } => {
                w.u8(2);
                w.u64(*lanes as u64);
            }
            StrategySpec::Mc3 {
                chains,
                heat,
                segment_len,
            } => {
                w.u8(3);
                w.u64(*chains as u64);
                w.f64(*heat);
                w.u64(*segment_len);
            }
            StrategySpec::Intelligent { partitioner, chain } => {
                w.u8(4);
                w.f32(partitioner.theta);
                w.u32(partitioner.min_gap);
                chain.encode(w);
            }
            StrategySpec::Blind(o) => {
                w.u8(5);
                w.u32(o.cols);
                w.u32(o.rows);
                w.f64(o.margin_factor);
                w.f64(o.merge_eps);
                o.dispute.encode(w);
                o.chain.encode(w);
            }
            StrategySpec::Naive(o) => {
                w.u8(6);
                w.u32(o.cols);
                w.u32(o.rows);
                o.prior.encode(w);
                o.chain.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(StrategySpec::Sequential),
            1 => Ok(StrategySpec::Periodic(PeriodicOptions {
                global_phase_iters: r.u64()?,
                scheme: PartitionScheme::decode(r)?,
                threads: r.u64()? as usize,
                speculative_global_lanes: r.u64()? as usize,
            })),
            2 => Ok(StrategySpec::Speculative {
                lanes: r.u64()? as usize,
            }),
            3 => Ok(StrategySpec::Mc3 {
                chains: r.u64()? as usize,
                heat: r.f64()?,
                segment_len: r.u64()?,
            }),
            4 => Ok(StrategySpec::Intelligent {
                partitioner: IntelligentPartitioner {
                    theta: r.f32()?,
                    min_gap: r.u32()?,
                },
                chain: SubChainOptions::decode(r)?,
            }),
            5 => Ok(StrategySpec::Blind(crate::blind::BlindOptions {
                cols: r.u32()?,
                rows: r.u32()?,
                margin_factor: r.f64()?,
                merge_eps: r.f64()?,
                dispute: DisputePolicy::decode(r)?,
                chain: SubChainOptions::decode(r)?,
            })),
            6 => Ok(StrategySpec::Naive(NaiveOptions {
                cols: r.u32()?,
                rows: r.u32()?,
                prior: NaivePrior::decode(r)?,
                chain: SubChainOptions::decode(r)?,
            })),
            t => Err(WireError::Malformed(format!("unknown strategy tag {t}"))),
        }
    }
}

impl Wire for Validity {
    fn encode(&self, w: &mut WireWriter) {
        w.u8(match self {
            Validity::Exact => 0,
            Validity::Heuristic => 1,
            Validity::Broken => 2,
        });
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Validity::Exact),
            1 => Ok(Validity::Heuristic),
            2 => Ok(Validity::Broken),
            t => Err(WireError::Malformed(format!("unknown validity tag {t}"))),
        }
    }
}

/// The phase labels any shipped strategy can emit. `PhaseTiming.phase`
/// is `&'static str`, so decoding interns into this table; an unknown
/// label (a newer peer's custom phase) is leaked once — phase vocabulary
/// is tiny and fixed per build, so this cannot grow unboundedly in
/// practice.
static KNOWN_PHASES: [&str; 9] = [
    "chain",
    "chains",
    "global",
    "local",
    "merge",
    "overhead",
    "preprocess",
    "rounds",
    "segments",
];

fn intern_phase(name: String) -> &'static str {
    KNOWN_PHASES
        .iter()
        .find(|&&k| k == name)
        .copied()
        .unwrap_or_else(|| Box::leak(name.into_boxed_str()))
}

impl Wire for PhaseTiming {
    fn encode(&self, w: &mut WireWriter) {
        w.str(self.phase);
        self.duration.encode(w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(PhaseTiming {
            phase: intern_phase(r.str()?),
            duration: Duration::decode(r)?,
        })
    }
}

impl Wire for NodeTiming {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(self.node.index() as u64);
        self.queued.encode(w);
        self.busy.encode(w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(NodeTiming {
            node: NodeId(r.u64()? as usize),
            queued: Duration::decode(r)?,
            busy: Duration::decode(r)?,
        })
    }
}

impl Wire for RunDiagnostics {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(self.partitions as u64);
        w.opt(self.acceptance_rate.as_ref(), |w, v| w.f64(*v));
        w.f64(self.log_posterior);
        w.seq(&self.notes, |w, n| w.str(n));
        w.opt(self.perf.as_ref(), |w, p| p.encode(w));
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RunDiagnostics {
            partitions: r.u64()? as usize,
            acceptance_rate: r.opt(|r| r.f64())?,
            log_posterior: r.f64()?,
            notes: r.seq(|r| r.str())?,
            perf: r.opt(pmcmc_core::PerfSnapshot::decode)?,
        })
    }
}

impl Wire for RunError {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            RunError::InvalidSpec(msg) => {
                w.u8(0);
                w.str(msg);
            }
            RunError::UnknownStrategy(name) => {
                w.u8(1);
                w.str(name);
            }
            RunError::Cancelled {
                completed_iterations,
            } => {
                w.u8(2);
                w.u64(*completed_iterations);
            }
            RunError::DeadlineExceeded {
                completed_iterations,
            } => {
                w.u8(3);
                w.u64(*completed_iterations);
            }
            RunError::Panicked(msg) => {
                w.u8(4);
                w.str(msg);
            }
            RunError::Transport(msg) => {
                w.u8(5);
                w.str(msg);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(RunError::InvalidSpec(r.str()?)),
            1 => Ok(RunError::UnknownStrategy(r.str()?)),
            2 => Ok(RunError::Cancelled {
                completed_iterations: r.u64()?,
            }),
            3 => Ok(RunError::DeadlineExceeded {
                completed_iterations: r.u64()?,
            }),
            4 => Ok(RunError::Panicked(r.str()?)),
            5 => Ok(RunError::Transport(r.str()?)),
            t => Err(WireError::Malformed(format!("unknown run-error tag {t}"))),
        }
    }
}

/// A [`RunReport`] in transit: identical field-for-field except that the
/// final [`Configuration`] is carried as its
/// circles (the coverage/spatial grids are derivable from image +
/// params, which the coordinator already holds).
#[derive(Debug, Clone, PartialEq)]
pub struct WireReport {
    /// Name of the strategy that produced the report.
    pub strategy: String,
    /// Statistical validity of the scheme.
    pub validity: Validity,
    /// The final configuration's circles, in configuration order.
    pub circles: Vec<Circle>,
    /// Per-phase wall-time breakdown.
    pub phases: Vec<PhaseTiming>,
    /// End-to-end wall time.
    pub total_time: Duration,
    /// Iterations actually executed.
    pub iterations: u64,
    /// Scheme diagnostics (with `log_posterior` carried verbatim).
    pub diagnostics: RunDiagnostics,
    /// Per-node wall-clock accounting.
    pub node_timings: Vec<NodeTiming>,
}

impl WireReport {
    /// Flattens a report for transmission.
    #[must_use]
    pub fn from_report(report: &RunReport) -> Self {
        Self {
            strategy: report.strategy.clone(),
            validity: report.validity,
            circles: report.detected().to_vec(),
            phases: report.phases.clone(),
            total_time: report.total_time,
            iterations: report.iterations,
            diagnostics: report.diagnostics.clone(),
            node_timings: report.node_timings.clone(),
        }
    }

    /// Rebuilds the full report against the job's image and parameters
    /// (the coordinator's copies). The configuration is reconstructed
    /// from the transmitted circles; every other field — including the
    /// diagnostics' `log_posterior` — is restored verbatim, so the result
    /// is bit-identical to the report the daemon produced.
    #[must_use]
    pub fn into_report(self, image: &GrayImage, params: &ModelParams) -> RunReport {
        let model = NucleiModel::new(image, params.clone());
        let config = Configuration::from_circles(&model, &self.circles);
        RunReport {
            strategy: self.strategy,
            validity: self.validity,
            config,
            phases: self.phases,
            total_time: self.total_time,
            iterations: self.iterations,
            diagnostics: self.diagnostics,
            node_timings: self.node_timings,
        }
    }
}

impl Wire for WireReport {
    fn encode(&self, w: &mut WireWriter) {
        w.str(&self.strategy);
        self.validity.encode(w);
        w.seq(&self.circles, |w, c| c.encode(w));
        w.seq(&self.phases, |w, p| p.encode(w));
        self.total_time.encode(w);
        w.u64(self.iterations);
        self.diagnostics.encode(w);
        w.seq(&self.node_timings, |w, t| t.encode(w));
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(WireReport {
            strategy: r.str()?,
            validity: Validity::decode(r)?,
            circles: r.seq(Circle::decode)?,
            phases: r.seq(PhaseTiming::decode)?,
            total_time: Duration::decode(r)?,
            iterations: r.u64()?,
            diagnostics: RunDiagnostics::decode(r)?,
            node_timings: r.seq(NodeTiming::decode)?,
        })
    }
}

/// Everything a node daemon needs to run one job — the [`JobSpec`]
/// payload fields, with the deadline already converted to a *remaining*
/// duration (wall clocks differ across machines; re-encoding on every
/// requeue shrinks it by the time already burned).
#[derive(Debug, Clone, PartialEq)]
pub struct JobBlueprint {
    /// The strategy to run (structural encoding, all options).
    pub strategy: StrategySpec,
    /// The image to process.
    pub image: GrayImage,
    /// The model parameterisation.
    pub params: ModelParams,
    /// Master RNG seed.
    pub seed: u64,
    /// Iteration budget.
    pub iterations: u64,
    /// Deadline budget left at send time, if the spec had one.
    pub remaining_deadline: Option<Duration>,
    /// Checkpoint-event cadence, if requested.
    pub checkpoint_interval: Option<u64>,
    /// Progress-event cadence.
    pub progress_stride: u64,
    /// Queue time already accumulated coordinator-side, so the daemon's
    /// [`NodeTiming::queued`] spans the whole submission-to-start wait.
    pub queued_so_far: Duration,
}

impl Wire for JobBlueprint {
    fn encode(&self, w: &mut WireWriter) {
        self.strategy.encode(w);
        self.image.encode(w);
        self.params.encode(w);
        w.u64(self.seed);
        w.u64(self.iterations);
        w.opt(self.remaining_deadline.as_ref(), |w, d| d.encode(w));
        w.opt(self.checkpoint_interval.as_ref(), |w, c| w.u64(*c));
        w.u64(self.progress_stride);
        self.queued_so_far.encode(w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(JobBlueprint {
            strategy: StrategySpec::decode(r)?,
            image: GrayImage::decode(r)?,
            params: ModelParams::decode(r)?,
            seed: r.u64()?,
            iterations: r.u64()?,
            remaining_deadline: r.opt(Duration::decode)?,
            checkpoint_interval: r.opt(|r| r.u64())?,
            progress_stride: r.u64()?,
            queued_so_far: Duration::decode(r)?,
        })
    }
}

/// The [`FrameKind::Assign`](pmcmc_runtime::wire::FrameKind::Assign)
/// payload: one job and its coordinator-assigned id.
#[derive(Debug, Clone, PartialEq)]
pub struct Assign {
    /// Coordinator-unique job id (echoed in [`JobResult`]/requeues).
    pub job: u64,
    /// The workload.
    pub blueprint: JobBlueprint,
}

impl Assign {
    /// The payload of `Assign { job, blueprint }`, encoded from a borrowed
    /// blueprint: the same bytes as [`Wire::to_wire_bytes`] without
    /// cloning the blueprint's image first.
    #[must_use]
    pub fn payload(job: u64, blueprint: &JobBlueprint) -> Vec<u8> {
        // The image dominates; the rest of the schema is under 256 bytes.
        let mut w = WireWriter::with_capacity(4 * blueprint.image.len() + 256);
        encode_assign(&mut w, job, blueprint);
        w.into_bytes()
    }
}

fn encode_assign(w: &mut WireWriter, job: u64, blueprint: &JobBlueprint) {
    w.u64(job);
    blueprint.encode(w);
}

impl Wire for Assign {
    fn encode(&self, w: &mut WireWriter) {
        encode_assign(w, self.job, &self.blueprint);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Assign {
            job: r.u64()?,
            blueprint: JobBlueprint::decode(r)?,
        })
    }
}

/// The [`FrameKind::Result`](pmcmc_runtime::wire::FrameKind::Result)
/// payload: one job's terminal outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The job this resolves.
    pub job: u64,
    /// The run's outcome.
    pub outcome: Result<WireReport, RunError>,
}

impl Wire for JobResult {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(self.job);
        match &self.outcome {
            Ok(report) => {
                w.u8(0);
                report.encode(w);
            }
            Err(err) => {
                w.u8(1);
                err.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let job = r.u64()?;
        let outcome = match r.u8()? {
            0 => Ok(WireReport::decode(r)?),
            1 => Err(RunError::decode(r)?),
            t => return Err(WireError::Malformed(format!("unknown job-result tag {t}"))),
        };
        Ok(JobResult { job, outcome })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blind::BlindOptions;
    use pmcmc_runtime::wire::{write_frame, FrameKind};

    fn sample_specs() -> Vec<StrategySpec> {
        let mut specs = StrategySpec::all();
        // Non-default options the CLI grammar cannot express — the
        // structural codec must carry them anyway.
        specs.push(StrategySpec::Periodic(PeriodicOptions {
            global_phase_iters: 64,
            scheme: PartitionScheme::Grid { xm: 40, ym: 56 },
            threads: 3,
            speculative_global_lanes: 2,
        }));
        specs.push(StrategySpec::Blind(BlindOptions {
            cols: 3,
            rows: 1,
            margin_factor: 1.4,
            merge_eps: 7.5,
            dispute: DisputePolicy::Discard,
            chain: SubChainOptions {
                theta: 0.4,
                conv_window: 11,
                conv_tol: 0.25,
                conv_stride: 99,
                max_iters: 12_345,
                settle_frac: 0.5,
            },
        }));
        specs
    }

    #[test]
    fn strategy_specs_round_trip_structurally() {
        for spec in sample_specs() {
            let bytes = spec.to_wire_bytes();
            assert_eq!(
                StrategySpec::from_wire_bytes(&bytes).unwrap(),
                spec,
                "round trip of {spec:?}"
            );
        }
    }

    #[test]
    fn run_errors_round_trip() {
        let errors = [
            RunError::InvalidSpec("zero iterations".to_owned()),
            RunError::UnknownStrategy("warp-drive".to_owned()),
            RunError::Cancelled {
                completed_iterations: 42,
            },
            RunError::DeadlineExceeded {
                completed_iterations: 7,
            },
            RunError::Panicked("index out of bounds".to_owned()),
            RunError::Transport("node-1 lost".to_owned()),
        ];
        for err in errors {
            assert_eq!(
                RunError::from_wire_bytes(&err.to_wire_bytes()).unwrap(),
                err
            );
        }
    }

    #[test]
    fn phase_names_intern_to_static_table() {
        let pt = PhaseTiming {
            phase: "merge",
            duration: Duration::from_millis(3),
        };
        let back = PhaseTiming::from_wire_bytes(&pt.to_wire_bytes()).unwrap();
        assert_eq!(back.phase, "merge");
        assert!(
            std::ptr::eq(back.phase, KNOWN_PHASES[4]),
            "known phase must intern, not leak"
        );
    }

    #[test]
    fn blueprint_and_result_round_trip() {
        let blueprint = JobBlueprint {
            strategy: StrategySpec::Mc3 {
                chains: 3,
                heat: 0.4,
                segment_len: 250,
            },
            image: GrayImage::from_fn(8, 6, |x, y| (x + y) as f32 * 0.05),
            params: ModelParams::new(8, 6, 2.0, 3.0),
            seed: 99,
            iterations: 1_000,
            remaining_deadline: Some(Duration::from_secs(30)),
            checkpoint_interval: None,
            progress_stride: 512,
            queued_so_far: Duration::from_millis(12),
        };
        let assign = Assign {
            job: 17,
            blueprint: blueprint.clone(),
        };
        assert_eq!(
            Assign::from_wire_bytes(&assign.to_wire_bytes()).unwrap(),
            assign
        );

        let result = JobResult {
            job: 17,
            outcome: Err(RunError::Cancelled {
                completed_iterations: 400,
            }),
        };
        assert_eq!(
            JobResult::from_wire_bytes(&result.to_wire_bytes()).unwrap(),
            result
        );
    }

    /// Golden bytes: the encodings below are pinned byte for byte. If
    /// this test fails, the wire format changed — bump
    /// [`pmcmc_runtime::wire::WIRE_VERSION`] and add a new golden vector
    /// instead of editing these. (v2 widened `PerfSnapshot` with the
    /// span-kernel counters; v3 appended its lane-kernel and
    /// proposal-batch counters; v4 changed how images and `Assign`
    /// payloads are encoded but not their bytes, so only the frame
    /// header's version byte differs from v3; the other payload encodings
    /// here are unchanged since v1.)
    #[test]
    fn golden_bytes_v4() {
        // A sequential spec is a single tag byte.
        assert_eq!(StrategySpec::Sequential.to_wire_bytes(), vec![0]);

        // mc3:chains=4,heat=0.5,segment=500.
        let mc3 = StrategySpec::Mc3 {
            chains: 4,
            heat: 0.5,
            segment_len: 500,
        };
        assert_eq!(
            mc3.to_wire_bytes(),
            vec![
                3, // tag
                4, 0, 0, 0, 0, 0, 0, 0, // chains u64
                0, 0, 0, 0, 0, 0, 0xE0, 0x3F, // heat = 0.5 as f64 bits
                0xF4, 1, 0, 0, 0, 0, 0, 0, // segment_len = 500
            ]
        );

        // A cancelled error: tag 2 + iteration count.
        let cancelled = RunError::Cancelled {
            completed_iterations: 7,
        };
        assert_eq!(cancelled.to_wire_bytes(), vec![2, 7, 0, 0, 0, 0, 0, 0, 0]);

        // A whole v4 frame around that error payload: magic "PM",
        // version 4, kind Result=4, little-endian length, payload.
        let mut frame = Vec::new();
        write_frame(&mut frame, FrameKind::Result, &cancelled.to_wire_bytes()).unwrap();
        assert_eq!(
            frame,
            vec![
                b'P', b'M', 4, 4, 9, 0, 0, 0, // header
                2, 7, 0, 0, 0, 0, 0, 0, 0, // payload
            ]
        );

        // A v3 PerfSnapshot payload: eleven little-endian u64 counters in
        // declaration order, the two v3 additions appended last.
        let perf = pmcmc_core::PerfSnapshot {
            proposals_evaluated: 1,
            pixels_visited: 2,
            pair_count_queries: 3,
            pair_cache_hits: 4,
            rng_refills: 5,
            spin_wait_ns: 6,
            spec_rounds: 7,
            span_fastpath_hits: 8,
            pixels_skipped: 9,
            simd_lanes_processed: 10,
            proposal_batches: 11,
        };
        let mut expect = Vec::new();
        for v in 1u64..=11 {
            expect.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(perf.to_wire_bytes(), expect);

        // An `Assign` of a sequential job on a 2×1 image: the job id, then
        // the blueprint's fields in declaration order. Encoding from a
        // borrowed blueprint gives the same bytes as encoding the value.
        let blueprint = JobBlueprint {
            strategy: StrategySpec::Sequential,
            image: GrayImage::from_vec(2, 1, vec![0.5, -1.0]),
            params: ModelParams::new(2, 1, 1.0, 3.0),
            seed: 5,
            iterations: 6,
            remaining_deadline: None,
            checkpoint_interval: Some(8),
            progress_stride: 9,
            queued_so_far: Duration::new(1, 2),
        };
        let mut expect = vec![17, 0, 0, 0, 0, 0, 0, 0, 0]; // job, sequential tag
        expect.extend_from_slice(&[2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x3F, 0, 0, 0x80, 0xBF]);
        expect.extend_from_slice(&blueprint.params.to_wire_bytes());
        expect.extend_from_slice(&[5, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0]);
        expect.extend_from_slice(&[0, 1, 8, 0, 0, 0, 0, 0, 0, 0]); // no deadline, cadence 8
        expect.extend_from_slice(&[9, 0, 0, 0, 0, 0, 0, 0]); // progress stride
        expect.extend_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0]); // queued 1 s 2 ns
        assert_eq!(Assign::payload(17, &blueprint), expect);
        let assign = Assign { job: 17, blueprint };
        assert_eq!(assign.to_wire_bytes(), expect);

        // A 2×1 image: dims + f32 bit patterns.
        let img = GrayImage::from_vec(2, 1, vec![0.5, -1.0]);
        assert_eq!(
            img.to_wire_bytes(),
            vec![
                2, 0, 0, 0, // width
                1, 0, 0, 0, // height
                0, 0, 0, 0x3F, // 0.5f32
                0, 0, 0x80, 0xBF, // -1.0f32
            ]
        );
    }
}
