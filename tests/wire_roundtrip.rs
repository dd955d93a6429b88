//! Property tests for the distributed wire format: `decode ∘ encode = id`
//! over randomly generated images, model parameters, strategy specs and
//! run reports, plus the version gate (future-version frames must be
//! rejected, not misparsed).

use pmcmc::parallel::engine::{NodeTiming, PhaseTiming, RunDiagnostics, StrategySpec, Validity};
use pmcmc::parallel::job::wire::WireReport;
use pmcmc::parallel::{
    BlindOptions, DisputePolicy, IntelligentPartitioner, NaiveOptions, PeriodicOptions,
    SubChainOptions,
};
use pmcmc::prelude::*;
use pmcmc::runtime::wire::{
    read_frame, write_frame, FrameKind, Wire, WireError, MAGIC, WIRE_VERSION,
};
use proptest::prelude::*;
use std::time::Duration;

fn arb_image() -> impl Strategy<Value = GrayImage> {
    (1u32..9, 1u32..9, any::<u64>()).prop_map(|(w, h, seed)| {
        use rand::Rng;
        let mut rng = Xoshiro256::new(seed);
        GrayImage::from_fn(w, h, |_, _| rng.gen::<f32>() * 2.0 - 0.5)
    })
}

fn arb_params() -> impl Strategy<Value = ModelParams> {
    (
        (1u32..512, 1u32..512, 0.1f64..50.0, 2.0f64..20.0),
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.01f64..0.5),
    )
        .prop_map(|((w, h, count, r_mean), (gamma, fg, bg, noise))| {
            let mut p = ModelParams::new(w, h, count, r_mean);
            p.overlap_gamma = gamma;
            p.fg = fg;
            p.bg = bg;
            p.noise_sd = noise;
            p
        })
}

fn arb_spec() -> impl Strategy<Value = StrategySpec> {
    (
        0u8..7,
        (1u64..100_000, 1usize..16, 0.01f64..2.0, 1u64..10_000),
        (1u32..6, 1u32..6, 0.5f64..3.0, 0.5f64..20.0),
        (0.0f32..1.0, 1usize..100, 0.0f64..5.0, 1u64..1_000),
        any::<bool>(),
    )
        .prop_map(
            |(
                variant,
                (g, lanes, heat, seg),
                (cols, rows, margin, eps),
                (theta, win, tol, stride),
                flag,
            )| {
                let chain = SubChainOptions {
                    theta,
                    conv_window: win,
                    conv_tol: tol,
                    conv_stride: stride,
                    settle_frac: tol / 10.0,
                };
                match variant {
                    0 => StrategySpec::Sequential,
                    1 => StrategySpec::Periodic(PeriodicOptions {
                        global_phase_iters: g,
                        scheme: if flag {
                            PartitionScheme::Corner
                        } else {
                            PartitionScheme::Grid {
                                xm: i64::from(cols) * 16,
                                ym: i64::from(rows) * 16,
                            }
                        },
                        speculative_global_lanes: lanes / 2,
                    }),
                    2 => StrategySpec::Speculative { lanes },
                    3 => StrategySpec::Mc3 {
                        chains: lanes.max(2),
                        heat,
                        segment_len: seg,
                    },
                    4 => StrategySpec::Intelligent {
                        partitioner: IntelligentPartitioner {
                            theta,
                            min_gap: cols,
                        },
                        chain,
                    },
                    5 => StrategySpec::Blind(BlindOptions {
                        cols,
                        rows,
                        margin_factor: margin,
                        merge_eps: eps,
                        dispute: if flag {
                            DisputePolicy::Accept
                        } else {
                            DisputePolicy::Discard
                        },
                        chain,
                    }),
                    _ => StrategySpec::Naive(NaiveOptions {
                        cols,
                        rows,
                        prior: if flag {
                            pmcmc::parallel::NaivePrior::UniformSplit
                        } else {
                            pmcmc::parallel::NaivePrior::DensityEstimate
                        },
                        chain,
                    }),
                }
            },
        )
}

fn arb_circle() -> impl Strategy<Value = Circle> {
    (0.0f64..256.0, 0.0f64..256.0, 1.0f64..20.0).prop_map(|(x, y, r)| Circle::new(x, y, r))
}

fn arb_report() -> impl Strategy<Value = WireReport> {
    (
        (0u8..3, 0u8..7, any::<u64>(), any::<u64>()),
        prop::collection::vec(arb_circle(), 0..8),
        (0u64..u64::MAX / 2, 0u32..1_000_000_000),
        (0usize..16, -1.0e6f64..1.0e6, 0.0f64..1.0, any::<bool>()),
        (0u64..64, 0u64..10_000, 0u64..10_000),
    )
        .prop_map(
            |(
                (validity, phase_pick, iters, _),
                circles,
                (secs, nanos),
                (partitions, lp, acc, has_acc),
                (node, queued_ms, busy_ms),
            )| {
                static PHASES: [&str; 7] = [
                    "chain", "chains", "global", "local", "merge", "overhead", "rounds",
                ];
                let phase = PHASES[phase_pick as usize];
                WireReport {
                    strategy: phase.to_owned(), // any string payload will do
                    validity: match validity {
                        0 => Validity::Exact,
                        1 => Validity::Heuristic,
                        _ => Validity::Broken,
                    },
                    circles,
                    phases: vec![PhaseTiming {
                        phase,
                        duration: Duration::new(secs, nanos),
                    }],
                    total_time: Duration::new(secs, nanos),
                    iterations: iters,
                    diagnostics: RunDiagnostics {
                        partitions,
                        acceptance_rate: has_acc.then_some(acc),
                        log_posterior: lp,
                        notes: vec![format!("prop-note-{partitions}")],
                        perf: None,
                    },
                    node_timings: vec![NodeTiming {
                        node: NodeId(node as usize),
                        queued: Duration::from_millis(queued_ms),
                        busy: Duration::from_millis(busy_ms),
                    }],
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn images_round_trip(img in arb_image()) {
        let back = GrayImage::from_wire_bytes(&img.to_wire_bytes()).unwrap();
        prop_assert_eq!(back.width(), img.width());
        prop_assert_eq!(back.height(), img.height());
        // Pixels must survive bit-for-bit (f32 bit patterns on the wire).
        prop_assert!(back
            .as_slice()
            .iter()
            .zip(img.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn params_round_trip(params in arb_params()) {
        let back = ModelParams::from_wire_bytes(&params.to_wire_bytes()).unwrap();
        prop_assert_eq!(back, params);
    }

    #[test]
    fn strategy_specs_round_trip(spec in arb_spec()) {
        let back = StrategySpec::from_wire_bytes(&spec.to_wire_bytes()).unwrap();
        prop_assert_eq!(back, spec);
    }

    #[test]
    fn reports_round_trip(report in arb_report()) {
        let back = WireReport::from_wire_bytes(&report.to_wire_bytes()).unwrap();
        // Float fields ride as bit patterns, so derived PartialEq is exact.
        prop_assert_eq!(back, report);
    }

    #[test]
    fn truncated_garbage_is_an_error_not_a_panic(
        report in arb_report(),
        cut in 0usize..64,
    ) {
        let bytes = report.to_wire_bytes();
        prop_assume!(cut < bytes.len());
        // Every strict prefix must decode to an error, never panic or
        // silently succeed (the `finish` trailing-bytes check guards the
        // other direction).
        prop_assert!(WireReport::from_wire_bytes(&bytes[..cut]).is_err());
    }
}

#[test]
fn future_version_frames_are_rejected() {
    let mut buf = Vec::new();
    write_frame(&mut buf, FrameKind::Heartbeat, &[]).unwrap();
    assert_eq!(buf[0..2], MAGIC);
    assert_eq!(buf[2], WIRE_VERSION);

    // Bump the version byte: a v2 peer must be refused, not misparsed.
    buf[2] = WIRE_VERSION + 1;
    match read_frame(&mut buf.as_slice()) {
        Err(WireError::UnsupportedVersion(v)) => assert_eq!(v, WIRE_VERSION + 1),
        other => panic!("future version must be rejected, got {other:?}"),
    }

    // The unmodified frame still reads back.
    buf[2] = WIRE_VERSION;
    let frame = read_frame(&mut buf.as_slice()).unwrap();
    assert_eq!(frame.kind, FrameKind::Heartbeat);
    assert!(frame.payload.is_empty());
}
