//! The six workloads: what each submits, on which backend, and how one timed
//! unit of it is run through the public job API.

use crate::inputs::{scene, Scene, SceneKind};
use crate::trace::{now_ns, JobStamp};
use pmcmc_parallel::engine::{RunReport, StrategySpec};
use pmcmc_parallel::job::{
    DistributedBackend, DistributedConfig, Engine, InProcessDaemon, JobSpec, RunError,
    ShardedBackend,
};
use pmcmc_runtime::ClusterTopology;
use std::time::Instant;

/// Jobs in one retrieval batch.
pub const BATCH_JOBS: usize = 256;

/// The warm-up unit runs every job of a unit at this fraction of its
/// iteration budget: enough to start every thread, fault in every buffer and
/// take every lazy branch once, at a cost that lets set-up be repeated.
pub const WARMUP_DIVISOR: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DenseSequential,
    DensePeriodic,
    DenseStrategySweep,
    BatchSmallLocal,
    BatchSmallSharded,
    BatchSmallDistributed,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::DenseSequential,
        Workload::DensePeriodic,
        Workload::DenseStrategySweep,
        Workload::BatchSmallLocal,
        Workload::BatchSmallSharded,
        Workload::BatchSmallDistributed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseSequential => "dense_sequential",
            Workload::DensePeriodic => "dense_periodic",
            Workload::DenseStrategySweep => "dense_strategy_sweep",
            Workload::BatchSmallLocal => "batch_small_local",
            Workload::BatchSmallSharded => "batch_small_sharded",
            Workload::BatchSmallDistributed => "batch_small_distributed",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, for `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::DenseSequential => {
                "1024x1024/150-cell scene, four sequential chains of 250k iterations: the core \
                 propose/evaluate/apply loop does all the work and every parallel layer idles"
            }
            Workload::DensePeriodic => {
                "same scene, periodic partitioning at the paper's 500k budget: tile \
                 duplicate/run_local/merge plus pool phase barriers replace Sampler::step"
            }
            Workload::DenseStrategySweep => {
                "same scene, speculative+mc3+intelligent+blind at 300k each: guards spin team, \
                 segment fan-out, pre-processing and duplicate-merge, which have no other workload"
            }
            Workload::BatchSmallLocal => {
                "256 small images x 5k iterations in one submit_batch on the local backend: \
                 per-job costs (model build, thread spawn, plumbing) are a large share"
            }
            Workload::BatchSmallSharded => {
                "same 256 jobs through placement and bounded admission without sockets: the \
                 reference the distributed path is priced against"
            }
            Workload::BatchSmallDistributed => {
                "same 256 jobs to loopback daemons: the only workload where job codecs, \
                 framing, sockets and the daemon loop do real work"
            }
        }
    }

    /// Timed repeats of a full run; `--seconds` replaces it by a time limit.
    pub fn repeats(self) -> usize {
        match self {
            Workload::DensePeriodic => 7,
            Workload::DenseStrategySweep => 5,
            _ => 9,
        }
    }

    pub fn scene_kind(self) -> SceneKind {
        match self {
            Workload::DenseSequential | Workload::DensePeriodic | Workload::DenseStrategySweep => {
                SceneKind::Dense
            }
            _ => SceneKind::Small,
        }
    }

    /// Whether a unit is one `submit_batch`; otherwise its jobs are
    /// submitted and awaited one after another.
    pub fn is_batch(self) -> bool {
        self.scene_kind() == SceneKind::Small
    }

    /// Lowest mean F1 a run may report: the smallest value seen while the
    /// benchmark was written (seeds 1 to 20 and 42), less 0.05.
    pub fn f1_floor(self) -> f64 {
        match self {
            Workload::DenseSequential => 0.89,
            Workload::DensePeriodic => 0.91,
            Workload::DenseStrategySweep => 0.92,
            _ => 0.75,
        }
    }

    /// Iterations one unit asks for, over all its jobs.
    pub fn budget(self) -> u64 {
        self.plan(0).iter().map(|job| job.iterations).sum()
    }

    fn plan(self, seed: u64) -> Vec<JobPlan> {
        let named =
            |name: &str| -> StrategySpec { name.parse().expect("a registered strategy name") };
        let job = |index: usize, scene: usize, strategy: StrategySpec, iterations: u64| JobPlan {
            scene,
            strategy,
            iterations,
            // The multiplier keeps job seeds apart from the scene seeds
            // (`seed + scene`); one per job, so that no two chains of a unit
            // follow the same path.
            seed: seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(index as u64),
        };
        match self {
            // Four chains, not one of four times the length: what an
            // iteration costs depends on the mode a chain settles in, by some
            // 10 % from seed to seed, and four chains average that out.
            Workload::DenseSequential => (0..4)
                .map(|i| job(i, 0, StrategySpec::Sequential, 250_000))
                .collect(),
            Workload::DensePeriodic => vec![job(0, 0, named("periodic"), 500_000)],
            Workload::DenseStrategySweep => ["speculative", "mc3", "intelligent", "blind"]
                .into_iter()
                .enumerate()
                .map(|(i, name)| job(i, 0, named(name), 300_000))
                .collect(),
            _ => (0..BATCH_JOBS)
                .map(|i| job(i, i, StrategySpec::Sequential, 5_000))
                .collect(),
        }
    }

    fn start_backend(self, workers: usize) -> Result<(Engine, Vec<InProcessDaemon>), RunError> {
        match self {
            Workload::BatchSmallSharded => {
                let topology = ClusterTopology::new(workers, 1).max_in_flight(1);
                Ok((Engine::with_backend(ShardedBackend::new(topology)?), vec![]))
            }
            Workload::BatchSmallDistributed => {
                let daemons = (0..workers)
                    .map(|_| InProcessDaemon::spawn(1, 1))
                    .collect::<Result<Vec<_>, _>>()?;
                let addrs: Vec<_> = daemons.iter().map(InProcessDaemon::addr).collect();
                let config = DistributedConfig {
                    max_in_flight: 1,
                    ..DistributedConfig::default()
                };
                let backend = DistributedBackend::connect_with(&addrs, config)?;
                Ok((Engine::with_backend(backend), daemons))
            }
            _ => Ok((Engine::new(workers)?, vec![])),
        }
    }
}

/// One job of a unit.
pub struct JobPlan {
    /// Index into [`Rig::scenes`].
    pub scene: usize,
    pub strategy: StrategySpec,
    pub iterations: u64,
    pub seed: u64,
}

/// What one unit produced, as its caller saw it.
pub struct Unit {
    /// From just before the first submit to the last wait returning.
    pub wall_s: f64,
    /// The same two instants on the trace's clock.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time spent inside `submit`/`submit_batch` calls.
    pub submit_s: f64,
    /// One result per planned job, in plan order.
    pub results: Vec<Result<RunReport, RunError>>,
    /// When each job was submitted and handed back; traced units only.
    pub stamps: Vec<JobStamp>,
}

/// A started workload: inputs generated, backend up and connected.
pub struct Rig {
    pub workload: Workload,
    pub scenes: Vec<Scene>,
    pub plan: Vec<JobPlan>,
    pub engine: Engine,
    /// Seconds spent generating the scenes.
    pub scene_gen_s: f64,
    /// Threads alive once the backend is up and idle.
    idle_threads: Option<usize>,
    daemons: Vec<InProcessDaemon>,
}

impl Rig {
    pub fn start(workload: Workload, seed: u64, workers: usize) -> Result<Self, RunError> {
        let plan = workload.plan(seed);
        let n_scenes = plan.iter().map(|j| j.scene + 1).max().unwrap_or(0);
        let t = Instant::now();
        let scenes: Vec<Scene> = (0..n_scenes)
            .map(|i| scene(workload.scene_kind(), seed.wrapping_add(i as u64)))
            .collect();
        let scene_gen_s = t.elapsed().as_secs_f64();
        let (engine, daemons) = workload.start_backend(workers)?;
        Ok(Self {
            workload,
            scenes,
            plan,
            engine,
            scene_gen_s,
            idle_threads: crate::procfs::thread_count(),
            daemons,
        })
    }

    fn spec(&self, job: &JobPlan, divisor: u64) -> JobSpec {
        let scene = &self.scenes[job.scene];
        JobSpec::new(job.strategy, scene.image.clone(), scene.params.clone())
            .seed(job.seed)
            .iterations((job.iterations / divisor).max(1))
    }

    /// Runs one unit with every budget divided by `divisor`. Specs are built
    /// before the clock starts: a `JobSpec` owns its image, so building one
    /// is the caller's copy, not the engine's work.
    ///
    /// With `traced`, every job's submission and completion is stamped, and
    /// a batch is drained through `next_finished` so that each job's
    /// completion is seen when it happens, not when `wait_all` returns.
    pub fn run_unit(&self, divisor: u64, traced: bool) -> Unit {
        let specs: Vec<JobSpec> = self.plan.iter().map(|j| self.spec(j, divisor)).collect();
        let n = specs.len();
        let mut stamps = Vec::with_capacity(if traced { n } else { 0 });
        let mut submit_s = 0.0;
        let (start, start_ns) = (Instant::now(), now_ns());
        let results = if self.workload.is_batch() {
            let submit_ns = now_ns();
            let submitted = self.engine.submit_batch(specs);
            submit_s = start.elapsed().as_secs_f64();
            match submitted {
                Err(e) => (0..n).map(|_| Err(e.clone())).collect(),
                Ok(batch) if !traced => batch.wait_all(),
                Ok(mut batch) => {
                    let submitted_ns = now_ns();
                    stamps = vec![JobStamp::default(); n];
                    while let Some((idx, _)) = batch.next_finished() {
                        stamps[idx] = JobStamp {
                            submit_ns,
                            submitted_ns,
                            done_ns: now_ns(),
                        };
                    }
                    batch.wait_all()
                }
            }
        } else {
            specs
                .into_iter()
                .map(|spec| {
                    let (t, submit_ns) = (Instant::now(), now_ns());
                    let submitted = self.engine.submit(spec);
                    submit_s += t.elapsed().as_secs_f64();
                    let submitted_ns = now_ns();
                    let result = submitted.and_then(|handle| handle.wait());
                    if traced {
                        stamps.push(JobStamp {
                            submit_ns,
                            submitted_ns,
                            done_ns: now_ns(),
                        });
                    }
                    result
                })
                .collect()
        };
        let unit = Unit {
            wall_s: start.elapsed().as_secs_f64(),
            start_ns,
            end_ns: now_ns(),
            submit_s,
            results,
            stamps,
        };
        self.settle();
        unit
    }

    /// Waits, off the clock, until the threads the unit's jobs ran on have
    /// exited. A job's result arrives before its driver thread is gone, and a
    /// job submitted in that window gets a fresh allocator arena instead of
    /// the one about to be freed: peak memory then depends on a race.
    fn settle(&self) {
        let deadline = Instant::now() + std::time::Duration::from_millis(200);
        while crate::procfs::thread_count() > self.idle_threads && Instant::now() < deadline {
            std::thread::yield_now();
        }
    }

    /// Shuts the backend down and waits for every thread it started: the
    /// coordinator's drop sends `Shutdown` to the daemons, which then exit.
    pub fn stop(self) {
        drop(self.engine);
        for daemon in self.daemons {
            daemon.join();
        }
    }
}
