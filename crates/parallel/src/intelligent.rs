//! Intelligent partitioning (§VIII, Fig. 3, Table I).
//!
//! A fast threshold pre-processor finds rows/columns that are completely
//! empty and cuts the image "on columns/rows equidistant between the
//! closest columns/rows containing pixels that passed the threshold
//! criteria", recursively, so that no artifact spans a partition boundary.
//! Each partition then runs a fully independent chain (see
//! [`crate::subchain`]) and the results are concatenated — trivially,
//! because the pre-processor guarantees the partitions don't interact.

use crate::engine::RunRequest;
use crate::job::{RunCtx, RunError};
use crate::subchain::{fan_out_chains, SubChainOptions, SubChainResult};
use pmcmc_core::NucleiModel;
use pmcmc_imaging::filter::threshold;
use pmcmc_imaging::{Circle, GrayImage, Mask, Rect};
use std::time::{Duration, Instant};

/// The guillotine pre-processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntelligentPartitioner {
    /// Intensity threshold θ (paper: 0.5 for intensities in `[0, 1]`).
    pub theta: f32,
    /// Minimum width (pixels) of an empty corridor worth cutting.
    pub min_gap: u32,
}

impl Default for IntelligentPartitioner {
    fn default() -> Self {
        Self {
            theta: 0.5,
            min_gap: 3,
        }
    }
}

impl IntelligentPartitioner {
    /// Partitions the image; returns the leaf rectangles (which tile the
    /// image exactly) and the threshold mask used.
    #[must_use]
    pub fn partition(&self, img: &GrayImage) -> (Vec<Rect>, Mask) {
        let mask = threshold(img, self.theta);
        let mut leaves = Vec::new();
        self.split(&mask, img.frame(), &mut leaves);
        (leaves, mask)
    }

    fn split(&self, mask: &Mask, rect: Rect, out: &mut Vec<Rect>) {
        if let Some(cuts) = self.find_cuts(mask, &rect, true) {
            let mut x0 = rect.x0;
            for c in cuts.into_iter().chain(std::iter::once(rect.x1)) {
                self.split_rows(mask, Rect::new(x0, rect.y0, c, rect.y1), out);
                x0 = c;
            }
        } else {
            self.split_rows(mask, rect, out);
        }
    }

    fn split_rows(&self, mask: &Mask, rect: Rect, out: &mut Vec<Rect>) {
        if let Some(cuts) = self.find_cuts(mask, &rect, false) {
            let mut y0 = rect.y0;
            for c in cuts.into_iter().chain(std::iter::once(rect.y1)) {
                // Recurse: new empty columns may appear inside each band.
                self.split(mask, Rect::new(rect.x0, y0, rect.x1, c), out);
                y0 = c;
            }
        } else {
            out.push(rect);
        }
    }

    /// Finds cut coordinates along x (`vertical = true`) or y. A cut is
    /// the midpoint of a maximal empty run of at least `min_gap`
    /// rows/columns with occupied lines on *both* sides (runs touching the
    /// rectangle border stay attached to their neighbour, so the leaves
    /// tile the full rectangle, matching the near-1.0 relative-area sums of
    /// Table I).
    fn find_cuts(&self, mask: &Mask, rect: &Rect, vertical: bool) -> Option<Vec<i64>> {
        let (lo, hi) = if vertical {
            (rect.x0, rect.x1)
        } else {
            (rect.y0, rect.y1)
        };
        let line_empty = |v: i64| -> bool {
            if vertical {
                mask.col_empty_in(v as u32, rect.y0 as u32, rect.y1 as u32)
            } else {
                mask.row_empty_in(v as u32, rect.x0 as u32, rect.x1 as u32)
            }
        };
        let mut cuts = Vec::new();
        let mut run_start: Option<i64> = None;
        let mut seen_occupied = false;
        for v in lo..hi {
            if line_empty(v) {
                if run_start.is_none() {
                    run_start = Some(v);
                }
            } else {
                if let Some(a) = run_start.take() {
                    // Run [a, v): occupied on the right here; occupied on
                    // the left iff we had seen an occupied line before it.
                    if seen_occupied && (v - a) >= i64::from(self.min_gap) {
                        cuts.push((a + v) / 2);
                    }
                }
                seen_occupied = true;
            }
        }
        if cuts.is_empty() {
            None
        } else {
            Some(cuts)
        }
    }
}

/// Result of the full intelligent-partitioning pipeline.
#[derive(Debug, Clone)]
pub struct IntelligentResult {
    /// Per-partition chain outcomes, in partition order.
    pub partitions: Vec<SubChainResult>,
    /// The union of all partition detections (global coordinates) —
    /// combining "is trivial" (§IX) because partitions cannot share
    /// artifacts.
    pub merged: Vec<Circle>,
    /// Wall time of the pre-processor (threshold + guillotine).
    pub preprocess_time: Duration,
    /// Wall time of the parallel chain stage (max over the schedule).
    pub chains_time: Duration,
}

impl IntelligentResult {
    /// End-to-end runtime: pre-processing plus the parallel chain stage.
    #[must_use]
    pub fn total_time(&self) -> Duration {
        self.preprocess_time + self.chains_time
    }
}

/// Runs the full intelligent-partitioning pipeline on the request's
/// image, whose prebuilt full-image model is `full`: pre-process, run one
/// chain per partition on `req.pool`
/// ([`crate::subchain::run_partition_chain`], capped at `req.iterations`,
/// each building its sub-model on its crop with `full`'s parameters),
/// concatenate results. Phase and per-partition progress events are
/// emitted through `ctx` (progress counts completed partitions), and its
/// cancel token / deadline propagate into every partition chain.
///
/// # Errors
/// [`RunError::Cancelled`] / [`RunError::DeadlineExceeded`] when the
/// context stops the run; `completed_iterations` sums the iterations the
/// partition chains had executed before winding down.
pub fn run_intelligent(
    full: &NucleiModel,
    req: &RunRequest<'_>,
    partitioner: &IntelligentPartitioner,
    opts: &SubChainOptions,
    ctx: &RunCtx,
) -> Result<IntelligentResult, RunError> {
    let t0 = Instant::now();
    ctx.phase("preprocess");
    let (rects, mask) = partitioner.partition(req.image);
    let preprocess_time = t0.elapsed();

    let t1 = Instant::now();
    ctx.phase("chains");
    // Weight by thresholded pixel count, a proxy for chain cost.
    let cells = rects
        .iter()
        .map(|&r| (mask.count_ones_in(&r) as f64 + 1.0, r))
        .collect();
    let partitions = fan_out_chains(full, req, cells, None, opts, ctx)?;
    let chains_time = t1.elapsed();
    let merged = partitions
        .iter()
        .flat_map(|p| p.detected.iter().copied())
        .collect();
    Ok(IntelligentResult {
        partitions,
        merged,
        preprocess_time,
        chains_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcmc_core::{ModelParams, Xoshiro256};
    use pmcmc_imaging::synth::{generate_clustered, ClusterSpec, SceneSpec};
    use pmcmc_runtime::WorkerPool;

    /// Three well-separated clusters, like the latex-bead dish of Fig. 3.
    fn bead_image(seed: u64) -> (GrayImage, Vec<Circle>) {
        let spec = SceneSpec {
            width: 384,
            height: 384,
            radius_mean: 8.0,
            radius_sd: 0.4,
            radius_min: 5.0,
            radius_max: 12.0,
            noise_sd: 0.04,
            ..SceneSpec::default()
        };
        let clusters = [
            ClusterSpec {
                cx: 70.0,
                cy: 80.0,
                n: 5,
                spread: 22.0,
            },
            ClusterSpec {
                cx: 260.0,
                cy: 140.0,
                n: 12,
                spread: 45.0,
            },
            ClusterSpec {
                cx: 100.0,
                cy: 320.0,
                n: 3,
                spread: 15.0,
            },
        ];
        let mut rng = Xoshiro256::new(seed);
        let scene = generate_clustered(&spec, &clusters, &mut rng);
        let img = scene.render(&mut rng);
        (img, scene.circles)
    }

    #[test]
    fn partitions_tile_image_and_separate_artifacts() {
        let (img, truth) = bead_image(1);
        let p = IntelligentPartitioner::default();
        let (rects, mask) = p.partition(&img);
        assert!(rects.len() >= 2, "only {} partitions found", rects.len());
        // Exact tiling.
        let area: i64 = rects.iter().map(Rect::area).sum();
        assert_eq!(area, 384 * 384);
        for (i, a) in rects.iter().enumerate() {
            for b in rects.iter().skip(i + 1) {
                assert!(!a.intersects(b));
            }
        }
        // No truth artifact spans a partition boundary: each circle's disk
        // is inside exactly one rect.
        for c in &truth {
            let holders: Vec<_> = rects
                .iter()
                .filter(|r| r.intersects_circle(c, 0.0))
                .collect();
            assert_eq!(
                holders.len(),
                1,
                "circle at ({:.0},{:.0}) spans {} partitions",
                c.x,
                c.y,
                holders.len()
            );
        }
        assert!(mask.count_ones() > 0);
    }

    #[test]
    fn uniform_image_yields_single_partition() {
        let img = GrayImage::filled(100, 100, 0.9); // everything occupied
        let p = IntelligentPartitioner::default();
        let (rects, _) = p.partition(&img);
        assert_eq!(rects, vec![Rect::new(0, 0, 100, 100)]);
        let dark = GrayImage::filled(100, 100, 0.1); // nothing occupied
        let (rects2, _) = p.partition(&dark);
        assert_eq!(rects2, vec![Rect::new(0, 0, 100, 100)]);
    }

    #[test]
    fn cut_positions_are_corridor_midpoints() {
        // Two blobs: columns 10..20 and 40..50 occupied; corridor 20..40.
        let img = GrayImage::from_fn(60, 20, |x, _| {
            if (10..20).contains(&x) || (40..50).contains(&x) {
                0.9
            } else {
                0.1
            }
        });
        let p = IntelligentPartitioner::default();
        let (rects, _) = p.partition(&img);
        assert_eq!(rects.len(), 2);
        assert_eq!(rects[0].x1, 30, "cut must bisect the 20..40 corridor");
        assert_eq!(rects[1].x0, 30);
    }

    #[test]
    fn pipeline_detects_all_clusters() {
        let (img, truth) = bead_image(2);
        let params = ModelParams::new(384, 384, truth.len() as f64, 8.0);
        let pool = WorkerPool::new(4);
        let req = RunRequest::new(&img, &params, &pool, 77).iterations(80_000);
        let res = run_intelligent(
            &req.model(),
            &req,
            &IntelligentPartitioner::default(),
            &SubChainOptions::default(),
            &RunCtx::default(),
        )
        .unwrap();
        assert!(res.partitions.len() >= 2);
        let m = pmcmc_core::match_circles(&truth, &res.merged, 5.0);
        assert!(
            m.recall() >= 0.8,
            "recall {} ({} detected / {} truth over {} partitions)",
            m.recall(),
            res.merged.len(),
            truth.len(),
            res.partitions.len()
        );
        assert!(
            m.duplicates.is_empty(),
            "intelligent partitioning cannot duplicate artifacts"
        );
    }
}
