//! The benchmark's contract: metric names, units, directions and bounds.
//! `BENCHMARK.json` is rendered from this file (`--print-manifest`), and a
//! test holds the committed copy to it.

use crate::json::Json;
use crate::workload::Workload;

/// How long one driver run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the engine sees; the same six on every workload.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "f1",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.05,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// One value per layer boundary, named after the module it prices. A traced
/// run of any workload reports all of them, measured on that workload's own
/// image, configuration and reports; a layer the workload never enters reads
/// 0 there (no calls, no share of the time).
pub const PER_LAYER: &[PerLayer] = &[
    lower("imaging.synth.scene_ms", "ms"),
    lower("core.model.build_ms", "ms"),
    lower("core.model.build_ns_per_px", "ns"),
    lower("core.sampler.ns_per_iter", "ns"),
    lower("core.sampler.proposals_per_iter", "ratio"),
    higher("core.sampler.acceptance_rate", "ratio"),
    lower("core.perf.pixels_per_proposal", "count"),
    higher("core.perf.pixels_skipped_per_proposal", "count"),
    lower("core.perf.simd_lanes_per_proposal", "count"),
    higher("core.perf.fastpath_hits_per_proposal", "count"),
    higher("core.perf.pair_cache_hit_ratio", "ratio"),
    lower("core.perf.rng_refills_per_kiter", "count"),
    lower("core.config.delta_birth_ns", "ns"),
    lower("core.config.delta_move_ns", "ns"),
    lower("core.config.apply_revert_move_ns", "ns"),
    lower("core.config.from_circles_ms", "ms"),
    lower("core.coverage.add_remove_sparse_ns", "ns"),
    lower("core.coverage.add_remove_dense_ns", "ns"),
    lower("core.simd.inc_dec_64_ns", "ns"),
    lower("core.simd.sum_gain_flips_64_ns", "ns"),
    lower("core.tile.duplicate_us", "us"),
    lower("core.tile.local_ns_per_iter", "ns"),
    lower("core.tile.merge_us", "us"),
    lower("core.tile.overhead_ratio", "ratio"),
    lower("parallel.sequential.wall_share", "ratio"),
    lower("parallel.periodic.wall_share", "ratio"),
    lower("parallel.periodic.global_share", "ratio"),
    lower("parallel.periodic.overhead_share", "ratio"),
    lower("parallel.periodic.cycles", "count"),
    higher("parallel.periodic.max_tiles", "count"),
    lower("parallel.speculative.wall_share", "ratio"),
    lower("parallel.speculative.rounds_per_kiter", "count"),
    higher("parallel.speculative.f1", "ratio"),
    lower("parallel.mc3par.wall_share", "ratio"),
    higher("parallel.mc3par.f1", "ratio"),
    lower("parallel.intelligent.wall_share", "ratio"),
    lower("parallel.intelligent.preprocess_share", "ratio"),
    higher("parallel.intelligent.partitions", "count"),
    higher("parallel.intelligent.f1", "ratio"),
    lower("parallel.blind.wall_share", "ratio"),
    lower("parallel.blind.merge_share", "ratio"),
    higher("parallel.blind.f1", "ratio"),
    lower("runtime.team.spin_wait_share", "ratio"),
    lower("runtime.team.broadcast_ns", "ns"),
    lower("runtime.pool.dispatch_us", "us"),
    lower("runtime.pool.tasks_run", "count"),
    higher("runtime.pool.busy_share", "ratio"),
    lower("runtime.scheduler.lpt_order_us.256", "us"),
    lower("parallel.job.submit_ms", "ms"),
    lower("parallel.job.queued_ms.p50", "ms"),
    lower("parallel.job.queued_ms.p95", "ms"),
    lower("parallel.job.busy_ms.p50", "ms"),
    lower("parallel.job.busy_ms.p95", "ms"),
    lower("parallel.job.first_result_ms", "ms"),
    lower("parallel.job.node_busy_imbalance", "ratio"),
    lower("parallel.job.unattributed_ms", "ms"),
    lower("parallel.job.unattributed_share", "ratio"),
    lower("parallel.job.ns_per_budget_iter", "ns"),
    lower("parallel.job.wire.assign_encode_us", "us"),
    lower("parallel.job.wire.assign_decode_us", "us"),
    lower("parallel.job.wire.assign_bytes", "count"),
    lower("parallel.job.wire.result_encode_us", "us"),
    lower("parallel.job.wire.result_decode_us", "us"),
    lower("parallel.job.wire.result_bytes", "count"),
    lower("parallel.job.wire.into_report_us", "us"),
    lower("parallel.job.backend.distributed.modelled_per_job_us", "us"),
    lower("runtime.wire.frame_roundtrip_ns", "ns"),
    higher("runtime.wire.frame_mb_per_s", "MB/s"),
    lower("runtime.net.loopback_rtt_us", "us"),
    higher("runtime.net.loopback_mb_per_s", "MB/s"),
    lower("trace.overhead_ratio", "ratio"),
    lower("trace.spans", "count"),
];

/// `BENCHMARK.json`, in the schema the driver reads.
pub fn manifest() -> Json {
    let workloads = Workload::ALL
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))]));
    let end_to_end = END_TO_END.iter().map(|m| {
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.label())),
            ("bound", Json::Num(m.bound)),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.label())),
        ])
    });
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        ("workloads", Json::Arr(workloads.collect())),
        ("end_to_end", Json::Arr(end_to_end.collect())),
        ("per_layer", Json::Arr(per_layer.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str, max_len: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max_len
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let workloads = Workload::ALL.iter().map(|w| w.name());
        let metrics = END_TO_END.iter().map(|m| (m.name, m.unit));
        let layers = PER_LAYER.iter().map(|m| (m.name, m.unit));
        let mut seen = BTreeSet::new();
        for name in workloads.chain(metrics.clone().chain(layers.clone()).map(|(n, _)| n)) {
            assert!(well_formed(name, 64, "_.-"), "bad name {name:?}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name:?}"
            );
            assert!(seen.insert(name), "{name:?} is used twice");
        }
        for (name, unit) in metrics.chain(layers) {
            assert!(
                well_formed(unit, 16, "_/%.-"),
                "bad unit {unit:?} of {name}"
            );
        }
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }

    #[test]
    fn bounds_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_manifest_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest().pretty(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- --print-manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
