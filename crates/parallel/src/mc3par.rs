//! Parallel driver for (MC)³ (§IV).
//!
//! "Multiple MCMC chains are performed simultaneously" and meet only at
//! swaps, so [`run_mc3_parallel`] puts no barrier after a segment: one
//! pool batch of `min(chains, t)` tasks takes chain segments from a board
//! (one mutex, one condvar). Swap `s` follows every chain's segment `s`:
//!
//! - its pair `(i, i + 1)` depends on the ensemble stream alone, so it is
//!   drawn as soon as swap `s − 1` is decided;
//! - chain `c` may run segment `s + 1` once swap `s` is decided, or once
//!   pair `s` is drawn and `c` is not in it;
//! - the task that parks the pair's second chain decides the swap, draws
//!   the next pair, emits `Progress` (and a due `Checkpoint`, recorded by
//!   whoever took chain 0 past it early) and polls the cancel token and
//!   the deadline.
//!
//! It is exact: a chain meets its own segments and its swaps in the order
//! [`Mc3::run`] gives them, and the swaps go through the same [`SwapRule`]
//! in order, so chains, swap counts and events are bit for bit the same.
//! The caller's thread runs a task, so a node of `t` threads uses `t`, not
//! `t + 1` (one more only makes chains take turns on the cores; `t = 1`
//! runs them one after another). A task waits only while another holds a
//! chain, and with every chain parked some chain can run or the next swap
//! can be decided: the caller's task finishes the run alone if a
//! concurrent job holds every worker.

use crate::job::{Checkpointer, RunCtx, RunError};
use pmcmc_core::mc3::SwapRule;
use pmcmc_core::{Mc3, Sampler};
use pmcmc_runtime::WorkerPool;
use std::ops::Range;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Timing report of a parallel (MC)³ run.
#[derive(Debug, Clone, Default)]
pub struct Mc3Report {
    /// Segments executed.
    pub segments: u64,
    /// Iterations per chain.
    pub iters_per_chain: u64,
    /// Total wall time.
    pub total_time: Duration,
}

/// Runs `segments × segment_len` iterations on every chain of `mc3`, with
/// a swap attempt after each segment, as [`Mc3::run`] does and with its
/// result, on `min(chains, pool.threads())` threads, the caller's included.
/// Every decided swap emits per-chain progress and polls `ctx`.
///
/// # Errors
/// [`RunError::Cancelled`] / [`RunError::DeadlineExceeded`] when `ctx`
/// stops the run; `completed_iterations` is the last decided boundary. A
/// chain that had run ahead stops at its next boundary.
pub fn run_mc3_parallel(
    mc3: &mut Mc3<'_>,
    pool: &WorkerPool,
    segments: u64,
    segment_len: u64,
    ctx: &RunCtx,
) -> Result<Mc3Report, RunError> {
    let start = Instant::now();
    ctx.phase("segments");
    let (chains, swaps) = mc3.split();
    let width = chains.len().min(pool.threads());
    let mut board = Board {
        ran: vec![0; chains.len()],
        chains: chains.iter_mut().map(Some).collect(),
        swaps,
        decided: 0,
        pair: 0..1,
        cold: None,
        checkpoints: ctx.checkpointer(),
        segments,
        segment_len,
        halt: None,
    };
    board.draw_pair();
    let shared = Shared {
        board: Mutex::new(board),
        wake: Condvar::new(),
    };
    pool.run_batch((0..width).map(|_| (1.0, || shared.work(ctx))).collect());
    if let Some(stop) = shared.lock().halt.take() {
        return Err(stop);
    }
    Ok(Mc3Report {
        segments,
        iters_per_chain: segments * segment_len,
        total_time: start.elapsed(),
    })
}

struct Board<'c, 'm> {
    /// Each chain, `None` while a task runs it; chain `c` is at boundary
    /// `ran[c]`, the segments it has run.
    chains: Vec<Option<&'c mut Sampler<'m>>>,
    ran: Vec<u64>,
    swaps: SwapRule<'c>,
    decided: u64,
    /// Swap `decided`'s pair, or chain 0 alone in a one-chain ensemble.
    pair: Range<usize>,
    /// Chain 0 (circles, log-posterior) at a due boundary it ran past.
    cold: Option<(usize, f64)>,
    checkpoints: Checkpointer,
    segments: u64,
    segment_len: u64,
    halt: Option<RunError>,
}

impl<'c, 'm> Board<'c, 'm> {
    fn draw_pair(&mut self) {
        if self.decided < self.segments {
            let pair = self.swaps.draw_pair(self.chains.len());
            self.pair = pair.map_or(0..1, |i| i..i + 2);
        }
    }

    fn checkpoint_due(&self, boundary: u64) -> bool {
        self.checkpoints.clone().due(boundary * self.segment_len)
    }

    /// Whether swap `decided` can be decided: its pair (every chain, at
    /// the last boundary) is parked there, and chain 0 has reached a due
    /// checkpoint.
    fn swap_ready(&self) -> bool {
        let boundary = self.decided + 1;
        let parked = |c: usize| self.chains[c].is_some() && self.ran[c] == boundary;
        let mut waits = self.pair.clone();
        if boundary == self.segments {
            waits = 0..self.chains.len();
        }
        waits.all(parked) && (self.ran[0] >= boundary || !self.checkpoint_due(boundary))
    }

    /// Takes the chain a free task should run next: one at the lowest
    /// boundary, a chain of the pending pair first.
    fn take_next(&mut self) -> Option<(usize, &'c mut Sampler<'m>)> {
        let runnable = |&c: &usize| {
            let at = self.ran[c];
            self.chains[c].is_some()
                && at < self.segments
                && (at <= self.decided || (at == self.decided + 1 && !self.pair.contains(&c)))
        };
        let c = (0..self.chains.len())
            .filter(runnable)
            .min_by_key(|&c| (self.ran[c], !self.pair.contains(&c)))?;
        let chain = self.chains[c].take()?;
        if c == 0 && self.ran[0] > self.decided && self.checkpoint_due(self.ran[0]) {
            self.cold = Some((chain.config.len(), chain.log_posterior()));
        }
        Some((c, chain))
    }

    /// Decides swap `decided`, draws the next pair and reports the boundary.
    fn decide(&mut self, ctx: &RunCtx) -> Result<(), RunError> {
        if let [Some(lower), Some(upper)] = &mut self.chains[self.pair.clone()] {
            self.swaps.decide(lower, upper);
        }
        self.decided += 1;
        self.draw_pair();
        let (done, cold) = (self.decided * self.segment_len, self.cold.take());
        ctx.progress(done, self.segments * self.segment_len)?;
        if self.checkpoints.due(done) {
            let (circles, log_posterior) = match &self.chains[0] {
                Some(chain) if self.ran[0] == self.decided => {
                    (chain.config.len(), chain.log_posterior())
                }
                _ => cold.expect("a task that takes chain 0 past a due checkpoint records it"),
            };
            ctx.checkpoint(done, circles, log_posterior);
        }
        ctx.should_stop(done)
    }
}

struct Shared<'c, 'm> {
    board: Mutex<Board<'c, 'm>>,
    /// Signalled when a swap is decided or the run halts: only then can a
    /// task other than the one that parked a chain find work.
    wake: Condvar,
}

impl<'c, 'm> Shared<'c, 'm> {
    fn lock(&self) -> MutexGuard<'_, Board<'c, 'm>> {
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn work(&self, ctx: &RunCtx) {
        let _halt = HaltOnUnwind(self);
        let mut board = self.lock();
        while board.decided < board.segments && board.halt.is_none() {
            if board.swap_ready() {
                board.halt = board.decide(ctx).err();
                self.wake.notify_all();
            } else if let Some((c, chain)) = board.take_next() {
                let segment_len = board.segment_len;
                drop(board);
                chain.run(segment_len);
                board = self.lock();
                board.chains[c] = Some(chain);
                board.ran[c] += 1;
            } else {
                let woken = self.wake.wait(board);
                board = woken.unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Halts the run when a task unwinds, so that no task waits for a chain
/// that will not come back; the pool re-raises the panic.
struct HaltOnUnwind<'s, 'c, 'm>(&'s Shared<'c, 'm>);

impl Drop for HaltOnUnwind<'_, '_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let panicked = RunError::Panicked("an (MC)³ task panicked".to_owned());
            self.0.lock().halt.get_or_insert(panicked);
            self.0.wake.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{CancelToken, Event};
    use pmcmc_core::mc3::SwapStats;
    use pmcmc_core::{AcceptanceStats, ModelParams, NucleiModel};
    use pmcmc_imaging::GrayImage;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};

    fn small_model() -> NucleiModel {
        let img = GrayImage::from_fn(96, 96, |x, y| {
            let d1 = ((x as f32 - 30.0).powi(2) + (y as f32 - 30.0).powi(2)).sqrt();
            let d2 = ((x as f32 - 70.0).powi(2) + (y as f32 - 66.0).powi(2)).sqrt();
            if d1 < 8.0 || d2 < 8.0 {
                0.9
            } else {
                0.1
            }
        });
        NucleiModel::new(&img, ModelParams::new(96, 96, 4.0, 8.0))
    }

    type ChainBits = (Vec<[u64; 3]>, u64, AcceptanceStats);

    /// Every chain's circles and log-posterior, bit for bit, and its
    /// acceptance counts; then the swap counts.
    fn outcome(mc3: &mut Mc3<'_>) -> (Vec<ChainBits>, SwapStats) {
        let swaps = mc3.swap_stats;
        let chains = mc3.chains_mut().iter().map(|chain| {
            let circles = chain.config.circles().iter();
            let bits = circles.map(|k| [k.x.to_bits(), k.y.to_bits(), k.r.to_bits()]);
            let lp = chain.log_posterior().to_bits();
            (bits.collect(), lp, chain.stats.clone())
        });
        (chains.collect(), swaps)
    }

    /// Runs `f` on a thread of its own and returns its result, or `None`
    /// when it is not back within a minute (the thread is left behind).
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Option<T> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(value) => Some(value),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the run panicked"),
        }
    }

    #[test]
    fn every_pool_gives_the_sequential_ensemble_bit_for_bit() {
        let model = small_model();
        let pools: Vec<WorkerPool> = (1..=4).map(WorkerPool::new).collect();
        for (segment_len, segments) in [(1, 300), (37, 40), (500, 6)] {
            for chains in 2..=5 {
                let mut seq = Mc3::new(&model, chains, 0.4, 11);
                seq.run(segments, segment_len);
                let expected = outcome(&mut seq);
                for pool in &pools {
                    let mut par = Mc3::new(&model, chains, 0.4, 11);
                    let ctx = RunCtx::default();
                    run_mc3_parallel(&mut par, pool, segments, segment_len, &ctx).unwrap();
                    assert!(
                        outcome(&mut par) == expected,
                        "{chains} chains, segments of {segment_len}, {} workers",
                        pool.threads()
                    );
                }
            }
        }
    }

    #[test]
    fn progress_and_checkpoints_follow_the_sequential_schedule() {
        let model = small_model();
        let (segments, segment_len) = (60, 37);
        let total = segments * segment_len;
        // The sequential schedule's events, and for each boundary whether
        // chain 0 was in the pair drawn there.
        let mut seq = Mc3::new(&model, 3, 0.4, 5);
        let (mut expected, mut cold_in_pair) = (Vec::new(), Vec::new());
        for s in 1..=segments {
            let (chains, mut swaps) = seq.split();
            for chain in chains.iter_mut() {
                chain.run(segment_len);
            }
            let i = swaps.draw_pair(chains.len()).unwrap();
            let (lower, upper) = chains.split_at_mut(i + 1);
            swaps.decide(&mut lower[i], &mut upper[0]);
            cold_in_pair.push(i == 0);
            let done = s * segment_len;
            expected.push(Event::Progress { done, total });
            if s % 2 == 0 {
                expected.push(Event::Checkpoint {
                    iterations: done,
                    circles: chains[0].config.len(),
                    log_posterior: chains[0].log_posterior(),
                });
            }
        }
        // Checkpoints land where chain 0 was in the pair and where it was not.
        let at_checkpoints: Vec<bool> = cold_in_pair.into_iter().skip(1).step_by(2).collect();
        assert!(at_checkpoints.contains(&true) && at_checkpoints.contains(&false));

        for workers in 1..=4 {
            let events = Arc::new(Mutex::new(Vec::new()));
            let seen = Arc::clone(&events);
            let ctx = RunCtx::new()
                .with_checkpoint_interval(2 * segment_len)
                .with_observer(move |event| {
                    if !matches!(event, Event::PhaseStarted { .. }) {
                        seen.lock().unwrap().push(event.clone());
                    }
                });
            let mut par = Mc3::new(&model, 3, 0.4, 5);
            let pool = WorkerPool::new(workers);
            run_mc3_parallel(&mut par, &pool, segments, segment_len, &ctx).unwrap();
            assert_eq!(*events.lock().unwrap(), expected, "{workers} workers");
        }
    }

    #[test]
    fn the_callers_thread_alone_finishes_the_run_when_every_worker_is_held() {
        let workers = 2;
        let pool = Arc::new(WorkerPool::new(workers));
        let release = Arc::new(AtomicBool::new(false));
        // A batch of workers + 1 tasks from a helper thread holds every
        // worker until `release`.
        let (parked_tx, parked_rx) = mpsc::channel();
        let holder = {
            let (pool, release) = (Arc::clone(&pool), Arc::clone(&release));
            std::thread::spawn(move || {
                let hold = || {
                    parked_tx.send(()).unwrap();
                    while !release.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                };
                pool.run_batch((0..=workers).map(|_| (1.0, &hold)).collect());
            })
        };
        for _ in 0..=workers {
            parked_rx.recv().unwrap();
        }
        // The run's last boundary releases the workers, so every segment
        // before it ran on the caller's thread.
        let (segments, segment_len) = (20, 50);
        let total = segments * segment_len;
        let run = {
            let (pool, release) = (Arc::clone(&pool), Arc::clone(&release));
            move || {
                let model = small_model();
                let mut mc3 = Mc3::new(&model, 3, 0.4, 9);
                let ctx = RunCtx::new().with_observer(move |event| {
                    if *event == (Event::Progress { done: total, total }) {
                        release.store(true, Ordering::Release);
                    }
                });
                run_mc3_parallel(&mut mc3, &pool, segments, segment_len, &ctx)
                    .map(|report| report.iters_per_chain)
            }
        };
        let finished = within_a_minute(run);
        // Frees the workers if the run stalled, so the test can end.
        release.store(true, Ordering::Release);
        holder.join().unwrap();
        assert_eq!(finished, Some(Ok(total)), "the run stalled");
    }

    #[test]
    fn a_cancel_from_the_kth_progress_stops_at_boundary_k() {
        let (k, segment_len) = (4, 37);
        for workers in 1..=3 {
            let stopped = within_a_minute(move || {
                let model = small_model();
                let pool = WorkerPool::new(workers);
                let token = CancelToken::new();
                let (cancel, seen) = (token.clone(), AtomicU64::new(0));
                let ctx = RunCtx::new()
                    .with_cancel(token)
                    .with_observer(move |event| {
                        if let Event::Progress { .. } = event {
                            if seen.fetch_add(1, Ordering::SeqCst) + 1 == k {
                                cancel.cancel();
                            }
                        }
                    });
                let mut mc3 = Mc3::new(&model, 3, 0.4, 21);
                run_mc3_parallel(&mut mc3, &pool, 50, segment_len, &ctx).map(|_| ())
            });
            let cancelled = RunError::Cancelled {
                completed_iterations: k * segment_len,
            };
            assert_eq!(stopped, Some(Err(cancelled)), "{workers} workers");
        }
    }

    #[test]
    fn an_observer_panic_ends_every_task_and_reaches_the_caller() {
        for workers in 1..=3 {
            let caught = within_a_minute(move || {
                let model = small_model();
                let pool = WorkerPool::new(workers);
                let ctx = RunCtx::new().with_observer(|event| {
                    if *event
                        == (Event::Progress {
                            done: 3 * 37,
                            total: 50 * 37,
                        })
                    {
                        panic!("observer blew up");
                    }
                });
                let mut mc3 = Mc3::new(&model, 3, 0.4, 21);
                let run = || run_mc3_parallel(&mut mc3, &pool, 50, 37, &ctx);
                let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
                payload
                    .err()
                    .and_then(|p| p.downcast_ref::<&str>().copied())
            });
            assert_eq!(caught, Some(Some("observer blew up")), "{workers} workers");
        }
    }

    #[test]
    fn chains_stay_consistent() {
        let model = small_model();
        let mut mc3 = Mc3::new(&model, 4, 0.5, 5);
        let pool = WorkerPool::new(4);
        run_mc3_parallel(&mut mc3, &pool, 20, 150, &RunCtx::default()).unwrap();
        for chain in mc3.chains_mut() {
            chain
                .config
                .verify_consistency(chain.model())
                .expect("chain consistent after parallel segments");
        }
    }
}
