//! The simulated `s × t` cluster backend for eq. (4).
//!
//! §VI's scaling argument culminates in eq. (4): a cluster of `s` machines
//! with `t` threads each. [`ShardedBackend`] gives that model an execution
//! counterpart: `s` node structs, each owning a *private*
//! [`WorkerPool`] of `t` workers and a [`JobExecutor`] that runs admitted
//! jobs against the node's pool on at most one driver thread per
//! admission slot (capped at 32), spawned on demand.
//!
//! Admission and placement go through the cluster's one [`SlotTable`], as
//! on the distributed backend: a node holds at most `max_in_flight` jobs,
//! a whole job goes to the least-committed node with a free slot, and
//! while every node is full the submitter waits for the next slot freed on
//! *any* node — so submission back-pressures a saturated cluster instead of
//! piling work up, and a node that finishes first gets the next job
//! instead of idling until another one does. That is the greedy rule of
//! [`list_schedule_makespan`](pmcmc_runtime::list_schedule_makespan), and
//! batches launch in [`lpt_order`] so heavy jobs place first — the classic
//! Graham bound then applies to the cluster's makespan.
//!
//! Two placement modes exist (see [`ShardPlacement`]): packing whole jobs
//! onto nodes, or splitting each job's image into one stripe per node,
//! running the job's strategy on every node concurrently, and merging the
//! per-node reports through the blind scheme's duplicate-clustering path.

use crate::blind::{grid_cells, merge_sources, DisputePolicy, MergeOutcome};
use crate::engine::{PhaseTiming, RunReport, Validity};
use crate::job::backend::{ExecutionBackend, PreparedJob};
use crate::job::ctx::Event;
use crate::job::error::RunError;
use crate::job::runner::{run_blueprint, stamp_wait};
use crate::job::wire::JobBlueprint;
use crossbeam::channel::unbounded;
use pmcmc_core::rng::derive_seed;
use pmcmc_core::{Configuration, NucleiModel};
use pmcmc_imaging::{Circle, Rect};
use pmcmc_runtime::{lpt_order, ClusterTopology, JobExecutor, NodeId, Slot, SlotTable, WorkerPool};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a sharded cluster maps jobs onto its nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPlacement {
    /// Each job runs whole on one node — the least committed of those
    /// with a free admission slot, or the first to free one. Batches
    /// launch in LPT order, so the cluster behaves like greedy list
    /// scheduling over jobs.
    #[default]
    PackJobs,
    /// Each job is split into one vertical image stripe per node (with a
    /// blind-partitioning overlap margin); every node runs the job's
    /// strategy on its stripe concurrently and the per-node reports are
    /// merged through the blind duplicate-clustering path. A 1-node
    /// cluster degenerates to [`ShardPlacement::PackJobs`] (whole image,
    /// original parameters), so local and 1-node sharded runs stay
    /// byte-identical.
    SplitJobs,
}

/// One simulated cluster node: a private pool of `t` workers and the
/// executor its admitted work runs on.
#[derive(Clone)]
struct NodeRuntime {
    id: NodeId,
    pool: Arc<WorkerPool>,
    jobs: Arc<JobExecutor>,
}

impl NodeRuntime {
    /// Runs admitted work — a whole job's [`PreparedJob::execute`] (pack
    /// placement) or one stripe of a split job — on the node's pool under
    /// the node's id. `slot` is the work's hold on this node; it is given
    /// back once `task` returns, or with the task if it never runs.
    fn run(
        &self,
        slot: Slot,
        task: impl FnOnce(&Arc<WorkerPool>, NodeId) + Send + 'static,
    ) -> Result<(), RunError> {
        let (id, pool) = (self.id, Arc::clone(&self.pool));
        self.jobs
            .launch(move || {
                task(&pool, id);
                drop(slot);
            })
            .map_err(|e| RunError::InvalidSpec(format!("failed to spawn node driver: {e}")))
    }
}

/// The eq. (4) cluster as an [`ExecutionBackend`]: `s` nodes × `t`
/// workers, one slot table for admission and placement, LPT batch order.
/// See the module docs for the execution model and [`ShardPlacement`] for
/// the two job-mapping modes.
pub struct ShardedBackend {
    topology: ClusterTopology,
    placement: ShardPlacement,
    /// Maximum centre distance for clustering duplicate detections when
    /// merging split-job stripes (the paper's 5 px).
    merge_eps: f64,
    /// Stripe overlap margin as a multiple of the expected radius (the
    /// blind scheme's 1.1).
    margin_factor: f64,
    /// What to do with unpaired overlap-band detections in split-job
    /// merges (the blind scheme's disputable-artifact policy).
    dispute: DisputePolicy,
    nodes: Vec<NodeRuntime>,
    slots: Arc<SlotTable>,
}

impl ShardedBackend {
    /// Spins up the cluster: `s` node pools of `t` workers each. A node runs
    /// at most one admitted job per admission slot (capped at 32) at once,
    /// on driver threads spawned on demand.
    ///
    /// # Errors
    /// [`RunError::InvalidSpec`] for a degenerate topology (zero nodes,
    /// threads, or admission bound).
    pub fn new(topology: ClusterTopology) -> Result<Self, RunError> {
        topology.validate().map_err(RunError::InvalidSpec)?;
        // With more slots than the cap, the surplus waits (admitted) in the
        // executor's backlog.
        let drivers = topology.max_in_flight_per_node().min(32);
        let nodes = (0..topology.nodes())
            .map(|n| NodeRuntime {
                id: NodeId(n),
                pool: WorkerPool::shared(topology.threads_per_node()),
                jobs: Arc::new(JobExecutor::new(format!("pmcmc-node{n}-driver"), drivers)),
            })
            .collect();
        Ok(Self {
            topology,
            placement: ShardPlacement::PackJobs,
            merge_eps: 5.0,
            margin_factor: 1.1,
            dispute: DisputePolicy::Accept,
            nodes,
            slots: SlotTable::new(topology.nodes(), topology.max_in_flight_per_node()),
        })
    }

    /// Sets the job-to-node mapping mode.
    #[must_use]
    pub fn placement(mut self, placement: ShardPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the duplicate-clustering distance for split-job merges
    /// (default 5 px, the paper's).
    #[must_use]
    pub fn merge_eps(mut self, eps: f64) -> Self {
        self.merge_eps = eps;
        self
    }

    /// Sets the stripe overlap margin factor for split jobs (default 1.1,
    /// the blind scheme's).
    #[must_use]
    pub fn margin_factor(mut self, factor: f64) -> Self {
        self.margin_factor = factor;
        self
    }

    /// Sets the disputable-artifact policy for split-job merges: keep
    /// unpaired overlap-band detections (`Accept`, the default — favours
    /// recall) or drop them (`Discard` — favours precision).
    #[must_use]
    pub fn dispute(mut self, dispute: DisputePolicy) -> Self {
        self.dispute = dispute;
        self
    }

    /// Runs a job whole on the least-committed node with a free slot.
    /// While every node is full it blocks for the next slot freed on any
    /// node — this is the submission throttling the local backend never
    /// had.
    fn launch_whole(&self, job: PreparedJob) -> Result<(), RunError> {
        let slot = self
            .slots
            .acquire(job.weight())
            .ok_or_else(|| RunError::InvalidSpec("no cluster node is open".to_owned()))?;
        self.nodes[slot.node()].run(slot, move |pool, id| job.execute(pool, id))
    }

    fn launch_split(&self, job: PreparedJob) -> Result<(), RunError> {
        // Hand the fan-out/merge to a coordinator thread, so launch() does
        // not block for the run.
        let (nodes, slots) = (self.nodes.clone(), Arc::clone(&self.slots));
        let (merge_eps, margin_factor, dispute) =
            (self.merge_eps, self.margin_factor, self.dispute);
        std::thread::Builder::new()
            .name(format!("pmcmc-{}-split", job.id()))
            .spawn(move || run_split(job, &nodes, &slots, merge_eps, margin_factor, dispute))
            .map(|_| ())
            .map_err(|e| RunError::InvalidSpec(format!("failed to spawn split coordinator: {e}")))
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
        &self.nodes[0].pool
    }

    fn launch(&self, job: PreparedJob) -> Result<(), RunError> {
        match self.placement {
            ShardPlacement::PackJobs => self.launch_whole(job),
            // A 1-node split is exactly a whole-job run; skipping the
            // stripe machinery keeps it byte-identical to LocalBackend.
            ShardPlacement::SplitJobs if self.nodes.len() == 1 => self.launch_whole(job),
            ShardPlacement::SplitJobs => self.launch_split(job),
        }
    }

    fn batch_order(&self, weights: &[f64]) -> Vec<usize> {
        lpt_order(weights)
    }
}

impl Drop for ShardedBackend {
    fn drop(&mut self) {
        // Let in-flight work drain. Split coordinators hold their own
        // clones of the nodes, so stripes they launch later still run.
        for node in &self.nodes {
            node.jobs.wait_idle();
        }
    }
}

/// Merges per-node detections (in stripe-local coordinates, as the stripe
/// reports carry them) through blind partitioning's own seam
/// post-processor, [`merge_sources`].
fn merge_stripes(
    cores: &[Rect],
    extended: &[Rect],
    found: &[&[Circle]],
    merge_eps: f64,
    dispute: DisputePolicy,
) -> MergeOutcome {
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
    merge_sources(cores, extended, &global, merge_eps, dispute)
}

/// The split-job coordinator: stripes the image, fans one stripe
/// blueprint per node (each charged an equal share of the job's weight),
/// collects and merges the per-node reports, and resolves the job's
/// handle.
fn run_split(
    job: PreparedJob,
    nodes: &[NodeRuntime],
    slots: &Arc<SlotTable>,
    merge_eps: f64,
    margin_factor: f64,
    dispute: DisputePolicy,
) {
    let work = &job.work;
    let start = Instant::now();
    let s = nodes.len();
    // One vertical stripe per node: a blind grid of `s × 1` cells, each
    // extended by the overlap margin so artifacts on a seam appear in both
    // neighbours.
    let radius_mean = work.params.radius_prior.mu;
    let (cores, extended) = grid_cells(&work.image, s as u32, 1, margin_factor, radius_mean);
    let total_area = work.image.frame().area() as f64;
    let share = job.weight() / s as f64;

    job.sink.emit(&Event::PhaseStarted { phase: "chains" });
    let (result_tx, result_rx) = unbounded();
    for (i, node) in nodes.iter().enumerate() {
        let crop = work.image.crop(&extended[i]);
        let mut stripe_params = work.params.clone();
        stripe_params.width = crop.width();
        stripe_params.height = crop.height();
        stripe_params.expected_count =
            (work.params.expected_count * cores[i].area() as f64 / total_area).max(0.05);
        let enqueued = Instant::now();
        let stripe = JobBlueprint {
            strategy: work.strategy,
            image: crop,
            params: stripe_params,
            seed: derive_seed(work.seed, i as u64),
            iterations: work.iterations,
            // The job's deadline runs from submission; the stripe gets
            // what is left of it now, and its driver takes the stripe's
            // own queue wait off that.
            remaining_deadline: work
                .remaining_deadline
                .map(|d| d.saturating_sub(enqueued - job.submitted_at)),
            // Checkpoints require a central chain state; a split run has
            // one per node, so the knob is ignored here (documented on the
            // backend).
            checkpoint_interval: None,
            progress_stride: work.progress_stride,
            queued_so_far: Duration::ZERO,
        };
        // Slots are acquired in node order, so concurrent split jobs
        // cannot hold-and-wait in a cycle.
        let slot = slots.acquire_on(i, share);
        let (cancel, result) = (job.cancel.clone(), result_tx.clone());
        let launched = node.run(slot, move |pool, node| {
            let mut stripe = stripe;
            stamp_wait(&mut stripe, enqueued);
            let outcome = run_blueprint(&stripe, pool, node, Some(&cancel), None);
            let _ = result.send((node.index(), outcome));
        });
        if let Err(e) = launched {
            job.completion.resolve(Err(e));
            return;
        }
    }
    drop(result_tx);

    // Every stripe's sender is dropped once its driver has reported, so
    // the stream ends after exactly one result per stripe.
    let mut outcomes: Vec<(usize, Result<RunReport, RunError>)> = Vec::with_capacity(s);
    while let Ok(outcome) = result_rx.recv() {
        outcomes.push(outcome);
        job.sink.emit(&Event::Progress {
            done: outcomes.len() as u64,
            total: s as u64,
        });
    }
    outcomes.sort_unstable_by_key(|(node, _)| *node);
    let chains_time = start.elapsed();

    // Any stripe failure fails the job; completed iterations aggregate
    // over every stripe (finished and stopped alike).
    let mut reports: Vec<RunReport> = Vec::with_capacity(s);
    let mut first_err: Option<RunError> = None;
    let mut total_iters = 0u64;
    for (_, outcome) in outcomes {
        match outcome {
            Ok(report) => {
                total_iters += report.iterations;
                reports.push(report);
            }
            Err(mut e) => {
                total_iters += e.completed_iterations_mut().map_or(0, |n| *n);
                first_err.get_or_insert(e);
            }
        }
    }
    if let Some(mut err) = first_err {
        if let Some(completed) = err.completed_iterations_mut() {
            *completed = total_iters;
        }
        job.completion.resolve(Err(err));
        return;
    }

    job.sink.emit(&Event::PhaseStarted { phase: "merge" });
    let merge_start = Instant::now();
    let found: Vec<&[Circle]> = reports.iter().map(RunReport::detected).collect();
    let outcome = merge_stripes(&cores, &extended, &found, merge_eps, dispute);
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
        start.elapsed(),
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
    for (node, stripe) in reports.iter_mut().enumerate() {
        report.diagnostics.notes.push(format!(
            "node-{node}: iters={}, circles={}",
            stripe.iterations,
            stripe.detected().len()
        ));
        report.node_timings.append(&mut stripe.node_timings);
    }

    job.completion.resolve(Ok(report));
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

        // The split coordinator cuts the same cells…
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
        let split = merge_stripes(&cores, &extended, &local, opts.merge_eps, opts.dispute);
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
