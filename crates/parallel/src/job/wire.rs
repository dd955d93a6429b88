//! Wire schemas for the job layer: how a [`JobSpec`]-shaped workload, a
//! [`RunReport`] and a [`RunError`] cross a socket between the
//! distributed coordinator and a node daemon.
//!
//! Built on the framing and [`Wire`] impls of [`pmcmc_runtime::wire`];
//! this module owns the codecs for the types that live in
//! `pmcmc-parallel` (strategy specs, reports, errors) plus the two
//! composite frame payloads, [`Assign`] and [`JobResult`]. Each layout is
//! one field list ([`wire_struct!`], [`wire_enum!`]); only
//! [`PhaseTiming`] is hand-written, because it interns its label (an
//! unknown label is malformed).
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

use crate::blind::{BlindOptions, DisputePolicy};
use crate::engine::{NodeTiming, PhaseTiming, RunDiagnostics, RunReport, StrategySpec, Validity};
use crate::intelligent::IntelligentPartitioner;
use crate::job::error::RunError;
use crate::naive::{NaiveOptions, NaivePrior};
use crate::periodic::{PartitionScheme, PeriodicOptions};
use crate::subchain::SubChainOptions;
use pmcmc_core::{Configuration, ModelParams, NucleiModel, PerfSnapshot};
use pmcmc_imaging::{Circle, GrayImage};
use pmcmc_runtime::wire::{Wire, WireError, WireReader, WireWriter};
use pmcmc_runtime::{wire_enum, wire_struct, NodeId};
use std::time::Duration;

#[cfg(doc)]
use crate::job::JobSpec;

wire_enum!(PartitionScheme, "partition scheme" { 0 => Grid { xm: i64, ym: i64 }, 1 => Corner });

wire_struct!(SubChainOptions {
    theta: f32,
    conv_window: usize,
    conv_tol: f64,
    conv_stride: u64,
    max_iters: u64,
    settle_frac: f64,
});

wire_enum!(DisputePolicy, "dispute policy" { 0 => Accept, 1 => Discard });

wire_enum!(NaivePrior, "naive prior" { 0 => UniformSplit, 1 => DensityEstimate });

wire_struct!(PeriodicOptions {
    global_phase_iters: u64,
    scheme: PartitionScheme,
    threads: usize,
    speculative_global_lanes: usize,
});

wire_struct!(IntelligentPartitioner {
    theta: f32,
    min_gap: u32
});

wire_struct!(BlindOptions {
    cols: u32,
    rows: u32,
    margin_factor: f64,
    merge_eps: f64,
    dispute: DisputePolicy,
    chain: SubChainOptions,
});

wire_struct!(NaiveOptions {
    cols: u32,
    rows: u32,
    prior: NaivePrior,
    chain: SubChainOptions,
});

wire_enum!(StrategySpec, "strategy" {
    0 => Sequential,
    1 => Periodic(options: PeriodicOptions),
    2 => Speculative { lanes: usize },
    3 => Mc3 { chains: usize, heat: f64, segment_len: u64 },
    4 => Intelligent { partitioner: IntelligentPartitioner, chain: SubChainOptions },
    5 => Blind(options: BlindOptions),
    6 => Naive(options: NaiveOptions),
});

wire_enum!(Validity, "validity" { 0 => Exact, 1 => Heuristic, 2 => Broken });

/// The phase labels any shipped strategy can emit. `PhaseTiming.phase`
/// is `&'static str`, so decoding interns into this table, and a label
/// outside it is malformed. Every label a shipped scheme reports is in
/// the table (a test runs each scheme to keep it so), and peers speak the
/// same [`WIRE_VERSION`](pmcmc_runtime::wire::WIRE_VERSION), so only a
/// peer that breaks the protocol sends one.
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

/// Interns a decoded phase label. The error does not echo the label: it
/// came from the peer and may be arbitrarily long.
fn intern_phase(name: &str) -> Result<&'static str, WireError> {
    (KNOWN_PHASES.iter().find(|&&k| k == name).copied())
        .ok_or_else(|| WireError::Malformed(format!("unknown phase label ({} bytes)", name.len())))
}

impl Wire for PhaseTiming {
    fn encode(&self, w: &mut WireWriter) {
        w.str(self.phase);
        <Duration as Wire>::encode(&self.duration, w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(PhaseTiming {
            phase: intern_phase(&r.str()?)?,
            duration: <Duration as Wire>::decode(r)?,
        })
    }
}

wire_struct!(NodeTiming {
    node: NodeId,
    queued: Duration,
    busy: Duration
});

wire_struct!(RunDiagnostics {
    partitions: usize,
    acceptance_rate: Option<f64>,
    log_posterior: f64,
    notes: Vec<String>,
    perf: Option<PerfSnapshot>,
});

wire_enum!(RunError, "run-error" {
    0 => InvalidSpec(msg: String),
    1 => UnknownStrategy(name: String),
    2 => Cancelled { completed_iterations: u64 },
    3 => DeadlineExceeded { completed_iterations: u64 },
    4 => Panicked(msg: String),
    5 => Transport(msg: String),
});

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

wire_struct!(WireReport {
    strategy: String,
    validity: Validity,
    circles: Vec<Circle>,
    phases: Vec<PhaseTiming>,
    total_time: Duration,
    iterations: u64,
    diagnostics: RunDiagnostics,
    node_timings: Vec<NodeTiming>,
});

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

wire_struct!(JobBlueprint {
    strategy: StrategySpec,
    image: GrayImage,
    params: ModelParams,
    seed: u64,
    iterations: u64,
    remaining_deadline: Option<Duration>,
    checkpoint_interval: Option<u64>,
    progress_stride: u64,
    queued_so_far: Duration,
});

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
        encode_assign(&mut w, &job, blueprint);
        w.into_bytes()
    }
}

wire_struct!(Assign { job: u64, blueprint: JobBlueprint }, fn encode_assign);

/// The [`FrameKind::Result`](pmcmc_runtime::wire::FrameKind::Result)
/// payload: one job's terminal outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The job this resolves.
    pub job: u64,
    /// The run's outcome.
    pub outcome: Result<WireReport, RunError>,
}

wire_struct!(JobResult { job: u64, outcome: Result<WireReport, RunError> });

#[cfg(test)]
mod tests {
    use super::*;
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
    fn an_unknown_phase_label_is_malformed_and_not_echoed() {
        let mut w = WireWriter::new();
        w.str("custom-phase");
        <Duration as Wire>::encode(&Duration::from_millis(3), &mut w);
        match PhaseTiming::from_wire_bytes(&w.into_bytes()) {
            Err(WireError::Malformed(msg)) => assert!(!msg.contains("custom"), "{msg}"),
            other => panic!("expected Malformed, got {other:?}"),
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

    /// Every phase label a shipped scheme reports is in [`KNOWN_PHASES`],
    /// so a real report always decodes.
    #[test]
    fn every_reported_phase_interns_to_the_static_table() {
        let image = GrayImage::from_fn(64, 64, |x, y| {
            let (dx, dy) = (f64::from(x) - 20.0, f64::from(y) - 40.0);
            if dx * dx + dy * dy < 36.0 {
                0.9
            } else {
                0.1
            }
        });
        let params = ModelParams::new(64, 64, 1.0, 6.0);
        let pool = pmcmc_runtime::WorkerPool::new(2);
        let req = crate::engine::RunRequest::new(&image, &params, &pool, 7).iterations(500);
        for spec in StrategySpec::all() {
            let report = spec
                .run(&req, &crate::job::RunCtx::default())
                .unwrap_or_else(|e| panic!("{} failed: {e}", spec.name()));
            assert!(
                !report.phases.is_empty(),
                "{} reported no phase",
                spec.name()
            );
            for phase in &report.phases {
                let back = PhaseTiming::from_wire_bytes(&phase.to_wire_bytes()).unwrap();
                assert!(
                    KNOWN_PHASES.iter().any(|&k| std::ptr::eq(k, back.phase)),
                    "{} reports phase {:?}, which is not in KNOWN_PHASES",
                    spec.name(),
                    phase.phase
                );
            }
        }
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

    /// One pinned payload: a value's literal bytes, checked in both
    /// directions by [`golden`], and the decoder the mutation fuzz replays.
    struct Golden {
        name: &'static str,
        bytes: Vec<u8>,
        decode: fn(&[u8]) -> Result<(), WireError>,
    }

    fn decodes<T: Wire>(bytes: &[u8]) -> Result<(), WireError> {
        T::from_wire_bytes(bytes).map(drop)
    }

    /// Asserts `value` encodes to exactly `bytes` and decodes back from them.
    fn golden<T: Wire + PartialEq + std::fmt::Debug>(
        name: &'static str,
        value: &T,
        bytes: Vec<u8>,
    ) -> Golden {
        assert_eq!(value.to_wire_bytes(), bytes, "{name} encodes to its golden");
        assert_eq!(
            T::from_wire_bytes(&bytes).as_ref(),
            Ok(value),
            "{name} decodes from its golden"
        );
        Golden {
            name,
            bytes,
            decode: decodes::<T>,
        }
    }

    /// A tag byte, then a length-prefixed string.
    fn tagged_str(tag: u8, s: &str) -> Vec<u8> {
        let mut bytes = vec![tag, s.len() as u8, 0, 0, 0];
        bytes.extend_from_slice(s.as_bytes());
        bytes
    }

    /// The literal payload of every job-layer type and of every variant of
    /// its enums. These bytes are the wire format: if one changes, bump
    /// [`pmcmc_runtime::wire::WIRE_VERSION`].
    fn goldens() -> Vec<Golden> {
        let chain = SubChainOptions {
            theta: 0.25,
            conv_window: 11,
            conv_tol: 0.25,
            conv_stride: 99,
            max_iters: 12_345,
            settle_frac: 0.5,
        };
        let chain_bytes = [
            0, 0, 0x80, 0x3E, // theta = 0.25f32
            11, 0, 0, 0, 0, 0, 0, 0, // conv_window
            0, 0, 0, 0, 0, 0, 0xD0, 0x3F, // conv_tol = 0.25
            99, 0, 0, 0, 0, 0, 0, 0, // conv_stride
            0x39, 0x30, 0, 0, 0, 0, 0, 0, // max_iters = 12 345
            0, 0, 0, 0, 0, 0, 0xE0, 0x3F, // settle_frac = 0.5
        ];
        let with_chain = |head: &[u8]| [head, &chain_bytes[..]].concat();
        let grid = PartitionScheme::Grid { xm: 40, ym: 56 };
        let grid_bytes = [
            0, // grid tag
            40, 0, 0, 0, 0, 0, 0, 0, // xm
            56, 0, 0, 0, 0, 0, 0, 0, // ym
        ];
        let timing = NodeTiming {
            node: NodeId(2),
            queued: Duration::new(0, 1_500),
            busy: Duration::new(1, 0),
        };
        let timing_bytes = [
            2, 0, 0, 0, 0, 0, 0, 0, // node
            0, 0, 0, 0, 0, 0, 0, 0, 0xDC, 0x05, 0, 0, // queued 1 500 ns
            1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // busy 1 s
        ];
        let report = WireReport {
            strategy: "mc3".to_owned(),
            validity: Validity::Exact,
            circles: vec![Circle::new(1.5, -2.25, 3.0), Circle::new(10.0, 20.0, 4.5)],
            phases: vec![PhaseTiming {
                phase: "segments",
                duration: Duration::from_millis(2),
            }],
            total_time: Duration::new(2, 500),
            iterations: 4_000,
            diagnostics: RunDiagnostics {
                partitions: 3,
                acceptance_rate: Some(0.25),
                log_posterior: -12.5,
                notes: vec!["ok".to_owned()],
                perf: Some(pmcmc_core::PerfSnapshot {
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
                }),
            },
            node_timings: vec![timing.clone()],
        };
        let mut report_bytes = vec![
            3, 0, 0, 0, b'm', b'c', b'3', // strategy
            0,    // validity: exact
            2, 0, 0, 0, // two circles
            0, 0, 0, 0, 0, 0, 0xF8, 0x3F, // x = 1.5
            0, 0, 0, 0, 0, 0, 0x02, 0xC0, // y = -2.25
            0, 0, 0, 0, 0, 0, 0x08, 0x40, // r = 3.0
            0, 0, 0, 0, 0, 0, 0x24, 0x40, // x = 10.0
            0, 0, 0, 0, 0, 0, 0x34, 0x40, // y = 20.0
            0, 0, 0, 0, 0, 0, 0x12, 0x40, // r = 4.5
            1, 0, 0, 0, // one phase
            8, 0, 0, 0, b's', b'e', b'g', b'm', b'e', b'n', b't', b's', // label
            0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x84, 0x1E, 0, // 2 ms
            2, 0, 0, 0, 0, 0, 0, 0, 0xF4, 0x01, 0, 0, // total 2 s 500 ns
            0xA0, 0x0F, 0, 0, 0, 0, 0, 0, // iterations = 4 000
            3, 0, 0, 0, 0, 0, 0, 0, // partitions
            1, 0, 0, 0, 0, 0, 0, 0xD0, 0x3F, // acceptance rate Some(0.25)
            0, 0, 0, 0, 0, 0, 0x29, 0xC0, // log posterior = -12.5
            1, 0, 0, 0, 2, 0, 0, 0, b'o', b'k', // notes
            1,    // perf present: eleven u64 counters
        ];
        report_bytes.extend((1u64..=11).flat_map(u64::to_le_bytes));
        report_bytes.extend_from_slice(&[1, 0, 0, 0]); // one node timing
        report_bytes.extend_from_slice(&timing_bytes);
        let blueprint = JobBlueprint {
            strategy: StrategySpec::Speculative { lanes: 6 },
            image: GrayImage::from_vec(1, 1, vec![0.5]),
            params: ModelParams {
                width: 1,
                height: 1,
                expected_count: 1.0,
                radius_prior: pmcmc_core::math::TruncatedNormal::new(3.0, 0.5, 1.0, 6.0),
                overlap_gamma: 0.75,
                fg: 0.625,
                bg: 0.125,
                noise_sd: 0.0625,
            },
            seed: 5,
            iterations: 6,
            remaining_deadline: Some(Duration::new(30, 0)),
            checkpoint_interval: None,
            progress_stride: 9,
            queued_so_far: Duration::new(0, 7),
        };
        let blueprint_bytes = vec![
            2, 6, 0, 0, 0, 0, 0, 0, 0, // speculative, 6 lanes
            1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x3F, // 1×1 image of 0.5
            1, 0, 0, 0, 1, 0, 0, 0, // params: width, height
            0, 0, 0, 0, 0, 0, 0xF0, 0x3F, // expected_count = 1.0
            0, 0, 0, 0, 0, 0, 0x08, 0x40, // radius prior mu = 3.0
            0, 0, 0, 0, 0, 0, 0xE0, 0x3F, // sigma = 0.5
            0, 0, 0, 0, 0, 0, 0xF0, 0x3F, // lo = 1.0
            0, 0, 0, 0, 0, 0, 0x18, 0x40, // hi = 6.0
            0, 0, 0, 0, 0, 0, 0xE8, 0x3F, // overlap_gamma = 0.75
            0, 0, 0, 0, 0, 0, 0xE4, 0x3F, // fg = 0.625
            0, 0, 0, 0, 0, 0, 0xC0, 0x3F, // bg = 0.125
            0, 0, 0, 0, 0, 0, 0xB0, 0x3F, // noise_sd = 0.0625
            5, 0, 0, 0, 0, 0, 0, 0, // seed
            6, 0, 0, 0, 0, 0, 0, 0, // iterations
            1, 30, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // deadline Some(30 s)
            0, // no checkpoint cadence
            9, 0, 0, 0, 0, 0, 0, 0, // progress stride
            0, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, // queued 7 ns
        ];
        let assign = Assign {
            job: 17,
            blueprint: blueprint.clone(),
        };
        let assign_bytes = [&[17, 0, 0, 0, 0, 0, 0, 0][..], &blueprint_bytes].concat();
        vec![
            golden("PartitionScheme::Grid", &grid, grid_bytes.to_vec()),
            golden("PartitionScheme::Corner", &PartitionScheme::Corner, vec![1]),
            golden("SubChainOptions", &chain, chain_bytes.to_vec()),
            golden("DisputePolicy::Accept", &DisputePolicy::Accept, vec![0]),
            golden("DisputePolicy::Discard", &DisputePolicy::Discard, vec![1]),
            golden(
                "NaivePrior::UniformSplit",
                &NaivePrior::UniformSplit,
                vec![0],
            ),
            golden(
                "NaivePrior::DensityEstimate",
                &NaivePrior::DensityEstimate,
                vec![1],
            ),
            golden("Validity::Exact", &Validity::Exact, vec![0]),
            golden("Validity::Heuristic", &Validity::Heuristic, vec![1]),
            golden("Validity::Broken", &Validity::Broken, vec![2]),
            golden(
                "StrategySpec::Sequential",
                &StrategySpec::Sequential,
                vec![0],
            ),
            golden(
                "StrategySpec::Periodic",
                &StrategySpec::Periodic(PeriodicOptions {
                    global_phase_iters: 64,
                    scheme: grid,
                    threads: 3,
                    speculative_global_lanes: 2,
                }),
                [
                    &[1, 64, 0, 0, 0, 0, 0, 0, 0][..], // tag, global_phase_iters
                    &grid_bytes,
                    &[3, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0], // threads, lanes
                ]
                .concat(),
            ),
            golden(
                "StrategySpec::Speculative",
                &StrategySpec::Speculative { lanes: 6 },
                vec![2, 6, 0, 0, 0, 0, 0, 0, 0],
            ),
            golden(
                "StrategySpec::Mc3",
                &StrategySpec::Mc3 {
                    chains: 4,
                    heat: 0.4,
                    segment_len: 250,
                },
                vec![
                    3, // tag
                    4, 0, 0, 0, 0, 0, 0, 0, // chains
                    0x9A, 0x99, 0x99, 0x99, 0x99, 0x99, 0xD9, 0x3F, // heat = 0.4
                    250, 0, 0, 0, 0, 0, 0, 0, // segment_len
                ],
            ),
            golden(
                "StrategySpec::Intelligent",
                &StrategySpec::Intelligent {
                    partitioner: IntelligentPartitioner {
                        theta: 0.75,
                        min_gap: 5,
                    },
                    chain,
                },
                with_chain(&[
                    4, // tag
                    0, 0, 0x40, 0x3F, // theta = 0.75f32
                    5, 0, 0, 0, // min_gap
                ]),
            ),
            golden(
                "StrategySpec::Blind",
                &StrategySpec::Blind(BlindOptions {
                    cols: 3,
                    rows: 1,
                    margin_factor: 1.5,
                    merge_eps: 7.5,
                    dispute: DisputePolicy::Discard,
                    chain,
                }),
                with_chain(&[
                    5, // tag
                    3, 0, 0, 0, 1, 0, 0, 0, // cols, rows
                    0, 0, 0, 0, 0, 0, 0xF8, 0x3F, // margin_factor = 1.5
                    0, 0, 0, 0, 0, 0, 0x1E, 0x40, // merge_eps = 7.5
                    1,    // discard
                ]),
            ),
            golden(
                "StrategySpec::Naive",
                &StrategySpec::Naive(NaiveOptions {
                    cols: 2,
                    rows: 4,
                    prior: NaivePrior::UniformSplit,
                    chain,
                }),
                with_chain(&[
                    6, // tag
                    2, 0, 0, 0, 4, 0, 0, 0, // cols, rows
                    0, // uniform split
                ]),
            ),
            golden(
                "RunError::InvalidSpec",
                &RunError::InvalidSpec("zero".to_owned()),
                tagged_str(0, "zero"),
            ),
            golden(
                "RunError::UnknownStrategy",
                &RunError::UnknownStrategy("warp".to_owned()),
                tagged_str(1, "warp"),
            ),
            golden(
                "RunError::Cancelled",
                &RunError::Cancelled {
                    completed_iterations: 7,
                },
                vec![2, 7, 0, 0, 0, 0, 0, 0, 0],
            ),
            golden(
                "RunError::DeadlineExceeded",
                &RunError::DeadlineExceeded {
                    completed_iterations: 9,
                },
                vec![3, 9, 0, 0, 0, 0, 0, 0, 0],
            ),
            golden(
                "RunError::Panicked",
                &RunError::Panicked("boom".to_owned()),
                tagged_str(4, "boom"),
            ),
            golden(
                "RunError::Transport",
                &RunError::Transport("lost".to_owned()),
                tagged_str(5, "lost"),
            ),
            golden(
                "PhaseTiming",
                &PhaseTiming {
                    phase: "merge",
                    duration: Duration::from_millis(3),
                },
                vec![
                    5, 0, 0, 0, b'm', b'e', b'r', b'g', b'e', // label
                    0, 0, 0, 0, 0, 0, 0, 0, 0xC0, 0xC6, 0x2D, 0, // 3 ms
                ],
            ),
            golden("NodeTiming", &timing, timing_bytes.to_vec()),
            golden("WireReport", &report, report_bytes.clone()),
            golden("JobBlueprint", &blueprint, blueprint_bytes),
            golden("Assign", &assign, assign_bytes),
            golden(
                "JobResult::Ok",
                &JobResult {
                    job: 17,
                    outcome: Ok(report),
                },
                [&[17, 0, 0, 0, 0, 0, 0, 0, 0][..], &report_bytes].concat(),
            ),
            golden(
                "JobResult::Err",
                &JobResult {
                    job: 17,
                    outcome: Err(RunError::Cancelled {
                        completed_iterations: 400,
                    }),
                },
                vec![
                    17, 0, 0, 0, 0, 0, 0, 0, // job
                    1, // err
                    2, 0x90, 0x01, 0, 0, 0, 0, 0, 0, // cancelled after 400
                ],
            ),
        ]
    }

    #[test]
    fn every_job_wire_type_matches_its_golden_bytes() {
        let names: Vec<&str> = goldens().iter().map(|g| g.name).collect();
        assert_eq!(names.len(), 30, "{names:?}");
    }

    /// Mutation fuzz over the goldens: every strict prefix of a payload is
    /// an error, and no single-byte substitution makes its decoder panic
    /// (an error or another value are both fine).
    #[test]
    fn mutated_goldens_decode_without_panicking() {
        let mut tried = 0;
        for g in goldens() {
            for cut in 0..g.bytes.len() {
                assert!(
                    (g.decode)(&g.bytes[..cut]).is_err(),
                    "{}: a {cut}-byte prefix decoded",
                    g.name
                );
            }
            for (i, &b) in g.bytes.iter().enumerate() {
                for sub in [0x00, 0x01, 0x7F, 0x80, 0xFF, b ^ 0x01, b ^ 0x80] {
                    let mut bytes = g.bytes.clone();
                    bytes[i] = sub;
                    if std::panic::catch_unwind(|| (g.decode)(&bytes)).is_err() {
                        panic!("{}: byte {i} set to {sub:#04x} panicked", g.name);
                    }
                    tried += 1;
                }
            }
        }
        assert!(tried > 5_000, "{tried} mutations");
    }

    /// Golden bytes: the encodings below are pinned byte for byte. If
    /// this test fails, the wire format changed — bump
    /// [`pmcmc_runtime::wire::WIRE_VERSION`] and add a new golden vector
    /// instead of editing these. (v2 widened `PerfSnapshot` with the
    /// span-kernel counters; v3 appended its lane-kernel and
    /// proposal-batch counters; v4 changed how images and `Assign`
    /// payloads are encoded but not their bytes, v5 generated every
    /// codec from a field list, again byte for byte, and v6 rejects
    /// unknown phase labels, so only the frame header's version byte
    /// differs from v3; the other payload encodings here are unchanged
    /// since v1.)
    #[test]
    fn golden_bytes_v6() {
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

        // A whole v6 frame around that error payload: magic "PM",
        // version 6, kind Result=4, little-endian length, payload.
        let mut frame = Vec::new();
        write_frame(&mut frame, FrameKind::Result, &cancelled.to_wire_bytes()).unwrap();
        assert_eq!(
            frame,
            vec![
                b'P', b'M', 6, 4, 9, 0, 0, 0, // header
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
            params: ModelParams {
                width: 2,
                height: 1,
                expected_count: 1.0,
                radius_prior: pmcmc_core::math::TruncatedNormal::new(3.0, 0.5, 1.0, 6.0),
                overlap_gamma: 0.75,
                fg: 0.625,
                bg: 0.125,
                noise_sd: 0.0625,
            },
            seed: 5,
            iterations: 6,
            remaining_deadline: None,
            checkpoint_interval: Some(8),
            progress_stride: 9,
            queued_so_far: Duration::new(1, 2),
        };
        let mut expect = vec![17, 0, 0, 0, 0, 0, 0, 0, 0]; // job, sequential tag
        expect.extend_from_slice(&[2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x3F, 0, 0, 0x80, 0xBF]);
        expect.extend_from_slice(&[
            2, 0, 0, 0, 1, 0, 0, 0, // params: width, height
            0, 0, 0, 0, 0, 0, 0xF0, 0x3F, // expected_count = 1.0
            0, 0, 0, 0, 0, 0, 0x08, 0x40, // radius prior mu = 3.0
            0, 0, 0, 0, 0, 0, 0xE0, 0x3F, // sigma = 0.5
            0, 0, 0, 0, 0, 0, 0xF0, 0x3F, // lo = 1.0
            0, 0, 0, 0, 0, 0, 0x18, 0x40, // hi = 6.0
            0, 0, 0, 0, 0, 0, 0xE8, 0x3F, // overlap_gamma = 0.75
            0, 0, 0, 0, 0, 0, 0xE4, 0x3F, // fg = 0.625
            0, 0, 0, 0, 0, 0, 0xC0, 0x3F, // bg = 0.125
            0, 0, 0, 0, 0, 0, 0xB0, 0x3F, // noise_sd = 0.0625
        ]);
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
