//! The simulated `s × t` cluster backend for eq. (4).
//!
//! §VI's scaling argument culminates in eq. (4): a cluster of `s` machines
//! with `t` threads each. [`ShardedBackend`] gives that model an execution
//! counterpart: `s` *private* [`WorkerPool`]s of `t` workers, one per node,
//! and one [`JobExecutor`] that places jobs over the `s` nodes by the rule
//! every backend shares (see the [`backend`](super) docs). A job runs on a
//! worker of its node's pool and fans out onto the same workers, so a node
//! holds `t` threads and runs at most `min(max_in_flight, t)` jobs at
//! once. That is the
//! greedy rule of
//! [`list_schedule_makespan`](pmcmc_runtime::list_schedule_makespan), and
//! batches launch in [`lpt_order`] so heavy jobs place first — the classic
//! Graham bound then applies to the cluster's makespan.
//!
//! Two placement modes exist (see [`ShardPlacement`]): packing whole jobs
//! onto nodes, or splitting each job's image into one stripe per node,
//! running the job's strategy on every stripe concurrently, and merging the
//! per-stripe reports through the blind scheme's duplicate-clustering path.

use crate::blind::{grid_cells, merge_sources, BlindOptions, MergeOutcome};
use crate::engine::{PhaseTiming, RunReport, Validity};
use crate::job::backend::{EventSink, ExecutionBackend, JobCompletion, PreparedJob};
use crate::job::ctx::Event;
use crate::job::error::RunError;
use crate::job::runner::{run_blueprint, stamp_wait};
use crate::job::wire::JobBlueprint;
use parking_lot::Mutex;
use pmcmc_core::rng::derive_seed;
use pmcmc_core::{Configuration, NucleiModel};
use pmcmc_imaging::{Circle, Rect};
use pmcmc_runtime::{lpt_order, ClusterTopology, JobExecutor, WorkerPool};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a sharded cluster maps jobs onto its nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPlacement {
    /// Each job runs whole on one node — the least committed of those
    /// with a free slot, or the first to free one. Batches launch in LPT
    /// order, so the cluster behaves like greedy list scheduling over
    /// jobs.
    #[default]
    PackJobs,
    /// Each job is split into one vertical image stripe per node (with a
    /// blind-partitioning overlap margin); the stripes run the job's
    /// strategy concurrently and their reports are merged through the
    /// blind duplicate-clustering path. A 1-node cluster degenerates to
    /// [`ShardPlacement::PackJobs`] (whole image, original parameters), so
    /// local and 1-node sharded runs stay byte-identical.
    SplitJobs,
}

/// The eq. (4) cluster as an [`ExecutionBackend`]: `s` node pools × `t`
/// workers, one executor placing jobs over them, LPT batch order. See the
/// module docs for the execution model and [`ShardPlacement`] for the two
/// job-mapping modes. Dropping the backend waits for every submitted job.
pub struct ShardedBackend {
    topology: ClusterTopology,
    placement: ShardPlacement,
    jobs: JobExecutor,
}

impl ShardedBackend {
    /// Spins up the cluster: `s` node pools of `t` workers each. A node runs
    /// at most `min(max_in_flight, t)` jobs at once, each on one of its
    /// workers.
    ///
    /// # Errors
    /// [`RunError::InvalidSpec`] for a degenerate topology (zero nodes,
    /// threads, or jobs at once).
    pub fn new(topology: ClusterTopology) -> Result<Self, RunError> {
        topology.validate().map_err(RunError::InvalidSpec)?;
        let t = topology.threads_per_node();
        let pools = (0..topology.nodes())
            .map(|_| WorkerPool::shared(t))
            .collect();
        Ok(Self {
            topology,
            placement: ShardPlacement::PackJobs,
            jobs: JobExecutor::new(pools, topology.max_in_flight_per_node().min(t)),
        })
    }

    /// Sets the job-to-node mapping mode.
    #[must_use]
    pub fn placement(mut self, placement: ShardPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Offers one stripe per node, each charged an equal share of the
    /// job's weight. On an idle cluster least-committed placement puts
    /// stripe i on node i. The stripe that finishes last merges them and
    /// resolves the job.
    fn launch_split(&self, job: PreparedJob) {
        let s = self.topology.nodes();
        let share = job.weight() / s as f64;
        let PreparedJob {
            work,
            submitted_at,
            cancel,
            sink,
            completion,
            ..
        } = job;
        // One vertical stripe per node: a blind grid of `s × 1` cells, each
        // extended by the overlap margin so artifacts on a seam appear in
        // both neighbours.
        let radius_mean = work.params.radius_prior.mu;
        let margin = BlindOptions::default().margin_factor;
        let (cores, extended) = grid_cells(&work.image, s as u32, 1, margin, radius_mean);
        sink.emit(&Event::PhaseStarted { phase: "chains" });
        let split = Arc::new(SplitJob {
            work,
            sink,
            cores,
            extended,
            start: Instant::now(),
            finished: Mutex::new(((0..s).map(|_| None).collect(), Some(completion))),
        });
        for i in 0..s {
            let (mut stripe, cancel, split) = (split.stripe(i), cancel.clone(), Arc::clone(&split));
            self.jobs.launch(share, move |node, pool| {
                stamp_wait(&mut stripe, submitted_at);
                let outcome = run_blueprint(&stripe, pool, node, Some(&cancel), None);
                Box::new(move || split.finish(i, outcome))
            });
        }
    }
}

impl ExecutionBackend for ShardedBackend {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn topology(&self) -> ClusterTopology {
        self.topology
    }

    fn primary_pool(&self) -> &Arc<WorkerPool> {
        &self.jobs.pools()[0]
    }

    fn launch(&self, job: PreparedJob) -> Result<(), RunError> {
        match self.placement {
            // A 1-node split is exactly a whole-job run; skipping the
            // stripe machinery keeps it byte-identical to LocalBackend.
            ShardPlacement::SplitJobs if self.topology.nodes() > 1 => self.launch_split(job),
            // Whole, on the least-committed node with a free slot, or
            // queued for the first node to free one.
            _ => (self.jobs).launch(job.weight(), move |node, pool| job.run(pool, node)),
        }
        Ok(())
    }

    fn batch_order(&self, weights: &[f64]) -> Vec<usize> {
        lpt_order(weights)
    }
}

/// Merges per-stripe detections (in stripe-local coordinates, as the
/// stripe reports carry them) through blind partitioning's own seam
/// post-processor, [`merge_sources`], with the blind scheme's 5 px merge
/// distance and its `Accept` policy for unpaired overlap-band detections.
fn merge_stripes(cores: &[Rect], extended: &[Rect], found: &[&[Circle]]) -> MergeOutcome {
    let global: Vec<Vec<Circle>> = found
        .iter()
        .zip(extended)
        .map(|(circles, ext)| {
            circles
                .iter()
                .map(|c| Circle::new(c.x + ext.x0 as f64, c.y + ext.y0 as f64, c.r))
                .collect()
        })
        .collect();
    let global: Vec<&[Circle]> = global.iter().map(Vec::as_slice).collect();
    let opts = BlindOptions::default();
    merge_sources(cores, extended, &global, opts.merge_eps, opts.dispute)
}

type StripeOutcome = Result<RunReport, RunError>;

/// A split job whose stripes are queued or running: what the merge needs,
/// and each stripe's outcome as it arrives next to the completion the last
/// one resolves.
struct SplitJob {
    work: JobBlueprint,
    sink: EventSink,
    cores: Vec<Rect>,
    extended: Vec<Rect>,
    start: Instant,
    finished: Mutex<(Vec<Option<StripeOutcome>>, Option<JobCompletion>)>,
}

impl SplitJob {
    /// Stripe `i`'s blueprint: the job on the stripe's cropped image, with
    /// the expected count scaled to its core's share of the image.
    fn stripe(&self, i: usize) -> JobBlueprint {
        let work = &self.work;
        let image = work.image.crop(&self.extended[i]);
        let mut params = work.params.clone();
        (params.width, params.height) = (image.width(), image.height());
        let total_area = work.image.frame().area() as f64;
        params.expected_count =
            (work.params.expected_count * self.cores[i].area() as f64 / total_area).max(0.05);
        JobBlueprint {
            strategy: work.strategy,
            image,
            params,
            seed: derive_seed(work.seed, i as u64),
            iterations: work.iterations,
            // The job's deadline runs from submission; each stripe charges
            // its wait since then against it.
            remaining_deadline: work.remaining_deadline,
            // Checkpoints require a central chain state; a split run has
            // one per stripe, so the knob is ignored here.
            checkpoint_interval: None,
            progress_stride: work.progress_stride,
            queued_so_far: Duration::ZERO,
        }
    }

    /// Records stripe `i`'s outcome; the stripe that finishes last merges
    /// every stripe's report and resolves the job.
    fn finish(&self, i: usize, outcome: StripeOutcome) {
        let (outcomes, completion) = {
            let mut finished = self.finished.lock();
            let (outcomes, completion) = &mut *finished;
            outcomes[i] = Some(outcome);
            let done = outcomes.iter().filter(|o| o.is_some()).count();
            self.sink.emit(&Event::Progress {
                done: done as u64,
                total: outcomes.len() as u64,
            });
            if done < outcomes.len() {
                return;
            }
            (std::mem::take(outcomes), completion.take())
        };
        let result = self.merge(outcomes.into_iter().flatten().collect());
        if let Some(completion) = completion {
            completion.resolve(result);
        }
    }

    /// Merges the stripe outcomes, in stripe order. Any stripe failure
    /// fails the job; completed iterations aggregate over every stripe
    /// (finished and stopped alike).
    fn merge(&self, mut outcomes: Vec<StripeOutcome>) -> StripeOutcome {
        let work = &self.work;
        let s = outcomes.len();
        let chains_time = self.start.elapsed();
        let total_iters: u64 = (outcomes.iter_mut())
            .map(|outcome| match outcome {
                Ok(report) => report.iterations,
                Err(e) => e.completed_iterations_mut().map_or(0, |n| *n),
            })
            .sum();
        let mut reports: Vec<RunReport> = Vec::with_capacity(s);
        for outcome in outcomes {
            match outcome {
                Ok(report) => reports.push(report),
                Err(mut err) => {
                    if let Some(completed) = err.completed_iterations_mut() {
                        *completed = total_iters;
                    }
                    return Err(err);
                }
            }
        }

        self.sink.emit(&Event::PhaseStarted { phase: "merge" });
        let merge_start = Instant::now();
        let found: Vec<&[Circle]> = reports.iter().map(RunReport::detected).collect();
        let outcome = merge_stripes(&self.cores, &self.extended, &found);
        let model = NucleiModel::new(&work.image, work.params.clone());
        let config = Configuration::from_circles(&model, &outcome.merged);
        let merge_time = merge_start.elapsed();

        // Striping an exact scheme is a blind-partitioning heuristic at
        // cluster scale; only the already-broken baseline keeps its tag.
        let validity = match work.strategy.validity() {
            Validity::Broken => Validity::Broken,
            _ => Validity::Heuristic,
        };
        let mut report = RunReport::finish(
            work.strategy.name(),
            validity,
            &model,
            config,
            self.start.elapsed(),
            total_iters,
        );
        report.phases = vec![
            PhaseTiming::new("chains", chains_time),
            PhaseTiming::new("merge", merge_time),
        ];
        report.diagnostics.partitions = s;
        report.diagnostics.notes.push(format!(
            "sharded-split: {s} node stripes, merged_pairs={}, disputed={}",
            outcome.merged_pairs, outcome.disputed
        ));
        // Each stripe report carries the one node timing its runner stamped.
        for (stripe_index, stripe) in reports.iter_mut().enumerate() {
            report.diagnostics.notes.push(format!(
                "node-{stripe_index}: iters={}, circles={}",
                stripe.iterations,
                stripe.detected().len()
            ));
            report.node_timings.append(&mut stripe.node_timings);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blind::{run_blind, BlindOptions};
    use crate::job::RunCtx;
    use crate::subchain::SubChainOptions;
    use pmcmc_core::{ModelParams, Xoshiro256};
    use pmcmc_imaging::synth::{generate, SceneSpec};

    #[test]
    fn a_node_never_runs_more_than_min_max_in_flight_t_jobs_at_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let topology = ClusterTopology::new(1, 2).max_in_flight(10_000);
        let backend = ShardedBackend::new(topology).unwrap();
        assert_eq!(backend.topology().max_in_flight_per_node(), 10_000);
        // 40 jobs that hold their worker until the gate opens: 2 run, the
        // rest wait in the backlog.
        let gate = Arc::new(std::sync::RwLock::new(()));
        let closed = gate.write().unwrap();
        let (running, most) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        for _ in 0..40 {
            let (gate, running, most) =
                (Arc::clone(&gate), Arc::clone(&running), Arc::clone(&most));
            backend.jobs.launch(1.0, move |_, _| {
                most.fetch_max(running.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                drop(gate.read());
                running.fetch_sub(1, Ordering::SeqCst);
                Box::new(|| ())
            });
        }
        let waited = Instant::now();
        while running.load(Ordering::SeqCst) < 2 {
            assert!(
                waited.elapsed() < Duration::from_secs(10),
                "2 jobs never started"
            );
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(running.load(Ordering::SeqCst), 2);
        drop(closed);
        backend.jobs.wait_idle();
        assert_eq!(most.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_two_node_split_merges_exactly_like_a_two_by_one_blind_grid() {
        // Nuclei dense enough that some sit on the seam at x = 96.
        let spec = SceneSpec {
            width: 192,
            height: 128,
            n_circles: 12,
            ..SceneSpec::default()
        };
        let mut rng = Xoshiro256::new(19);
        let img = generate(&spec, &mut rng).render(&mut rng);
        let full = NucleiModel::new(&img, ModelParams::new(192, 128, 12.0, 10.0));
        let opts = BlindOptions {
            cols: 2,
            rows: 1,
            chain: SubChainOptions {
                max_iters: 20_000,
                ..SubChainOptions::default()
            },
            ..BlindOptions::default()
        };
        let blind = run_blind(
            &full,
            &img,
            &opts,
            &WorkerPool::new(2),
            7,
            &RunCtx::default(),
        )
        .unwrap();
        assert!(
            blind.merged_pairs + blind.disputed > 0,
            "the scene must exercise the seam"
        );

        // The split job cuts the same cells…
        let radius_mean = full.params.radius_prior.mu;
        let (cores, extended) = grid_cells(&img, 2, 1, opts.margin_factor, radius_mean);
        for (p, (core, ext)) in blind.partitions.iter().zip(cores.iter().zip(&extended)) {
            assert_eq!((&p.core, &p.extended), (core, ext));
        }
        // …receives each stripe's detections in stripe-local coordinates
        // (subtracting an integer origin no larger than the coordinate is
        // exact, so translating back restores every bit)…
        let local: Vec<Vec<Circle>> = blind
            .partitions
            .iter()
            .map(|p| {
                let (x0, y0) = (p.extended.x0 as f64, p.extended.y0 as f64);
                let found = p.chain.detected.iter();
                found
                    .map(|c| Circle::new(c.x - x0, c.y - y0, c.r))
                    .collect()
            })
            .collect();
        let local: Vec<&[Circle]> = local.iter().map(Vec::as_slice).collect();
        // …and must merge them to the very outcome blind reached.
        let split = merge_stripes(&cores, &extended, &local);
        assert_eq!(split.merged_pairs, blind.merged_pairs);
        assert_eq!(split.disputed, blind.disputed);
        assert_eq!(split.merged.len(), blind.merged.len());
        for (a, b) in split.merged.iter().zip(&blind.merged) {
            assert_eq!(
                (a.x.to_bits(), a.y.to_bits(), a.r.to_bits()),
                (b.x.to_bits(), b.y.to_bits(), b.r.to_bits())
            );
        }
    }
}
