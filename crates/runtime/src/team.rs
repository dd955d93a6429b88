//! A low-latency broadcast team for speculative move rounds.
//!
//! Speculative moves (ref. \[11\], §IV) evaluate `n` independent proposals of the
//! *same* chain state concurrently; a round lasts roughly one MCMC
//! iteration (microseconds), so channel-based dispatch would dominate the
//! round. `SpinTeam` keeps `n − 1` helper threads hot: each spins briefly
//! on a generation counter (the fast path between back-to-back rounds) and
//! then parks on a condvar, so an idle or oversubscribed team never burns
//! cores the leader needs — the failure mode that made speculative rounds
//! orders of magnitude slower than sequential on machines with fewer cores
//! than lanes. Broadcasting a closure costs one mutex store plus an atomic
//! increment (plus a `notify_all` when some helper is parked), keeping the
//! "negligible overhead" regime the paper's eq. (3)/(4) assume.

use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Spin-loop iterations a helper burns waiting for the next round before
/// yielding and then parking. Long enough to catch back-to-back rounds,
/// short enough that an idle helper is off the core within microseconds.
const HELPER_SPINS: u32 = 2_000;
/// `yield_now` calls a helper makes after spinning, before parking.
const HELPER_YIELDS: u32 = 16;
/// Spin-loop iterations the leader burns waiting for helpers before it
/// starts yielding (helpers may need the leader's core on small machines).
const LEADER_SPINS: u32 = 200;

/// Type-erased shared job: a reference to the round's closure.
struct SharedJob {
    /// Raw wide pointer to the caller's closure; valid strictly for the
    /// duration of one `broadcast` call (the leader does not return until
    /// every helper has finished executing it).
    ptr: *const (dyn Fn(usize) + Sync),
}
// SAFETY: the pointee is `Sync` (bound enforced in `broadcast`) and the
// leader guarantees it outlives all concurrent use.
unsafe impl Send for SharedJob {}

struct TeamShared {
    generation: AtomicU64,
    completed: AtomicU64,
    shutdown: AtomicBool,
    panicked: AtomicBool,
    job: Mutex<Option<SharedJob>>,
    /// Latest generation announced to parked helpers; guarded by a std
    /// mutex so the condvar wait can re-check it without missed wakeups.
    announced: std::sync::Mutex<u64>,
    wake: std::sync::Condvar,
    /// Nanoseconds the leader has spent waiting for helpers to finish
    /// rounds (drained by [`SpinTeam::take_spin_wait_ns`]).
    spin_wait_ns: AtomicU64,
}

impl TeamShared {
    /// Publishes `gen` to parked helpers and wakes them.
    fn announce(&self, gen: u64) {
        let mut announced = self.announced.lock().unwrap();
        *announced = gen;
        drop(announced);
        self.wake.notify_all();
    }
}

/// One cache-line-padded output cell per member for `broadcast_map`; each
/// member writes only its own cell, so no locks and no false sharing.
#[repr(align(64))]
struct MapSlot<R>(UnsafeCell<Option<R>>);

// SAFETY: members access disjoint slots (slot `id` only from member `id`),
// and `broadcast`'s completion barrier orders all writes before the
// collecting reads.
unsafe impl<R: Send> Sync for MapSlot<R> {}

/// A team of workers executing one closure per round, each with a distinct
/// member id in `0..members` (id 0 is the calling thread).
pub struct SpinTeam {
    shared: Arc<TeamShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    members: usize,
}

impl SpinTeam {
    /// Creates a team with `members` total members (≥ 1). `members − 1`
    /// helper threads are spawned; the calling thread acts as member 0
    /// during [`SpinTeam::broadcast`].
    #[must_use]
    pub fn new(members: usize) -> Self {
        let members = members.max(1);
        let shared = Arc::new(TeamShared {
            generation: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            job: Mutex::new(None),
            announced: std::sync::Mutex::new(0),
            wake: std::sync::Condvar::new(),
            spin_wait_ns: AtomicU64::new(0),
        });
        let mut handles = Vec::with_capacity(members - 1);
        for id in 1..members {
            let sh = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("pmcmc-spec-{id}"))
                    .spawn(move || helper_loop(&sh, id))
                    .expect("failed to spawn team helper"),
            );
        }
        Self {
            shared,
            handles,
            members,
        }
    }

    /// Total team size including the calling thread.
    #[must_use]
    pub fn members(&self) -> usize {
        self.members
    }

    /// How many members can actually run concurrently on this host:
    /// `min(members, logical cores)`. Callers use this to decide whether a
    /// broadcast round buys real parallelism or whether inline execution is
    /// cheaper (on a host with fewer cores than lanes every round is a
    /// forced context-switch relay).
    #[must_use]
    pub fn effective_parallelism(&self) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        self.members.min(cores)
    }

    /// Drains the accumulated leader spin-wait time (nanoseconds spent in
    /// `broadcast` waiting for helpers after the leader's own share was
    /// done). Resets the counter to zero.
    #[must_use]
    pub fn take_spin_wait_ns(&self) -> u64 {
        self.shared.spin_wait_ns.swap(0, Ordering::Relaxed)
    }

    /// Runs `f(member_id)` once on every member (ids `0..members`)
    /// concurrently and returns when all have finished. The closure may
    /// borrow caller state.
    ///
    /// # Panics
    /// Panics if any member's closure panicked.
    pub fn broadcast<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if self.members == 1 {
            f(0);
            return;
        }
        let helpers = (self.members - 1) as u64;
        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: we erase the lifetime of `f_ref` to store it in the
        // shared slot. The leader waits below until `completed == helpers`,
        // i.e. until every helper has returned from the closure, before
        // clearing the slot and returning — so the reference never outlives
        // the closure it points to.
        let erased: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f_ref) };
        *self.shared.job.lock() = Some(SharedJob { ptr: erased });
        self.shared.completed.store(0, Ordering::Release);
        let gen = self.shared.generation.fetch_add(1, Ordering::Release) + 1;
        self.shared.announce(gen);

        // Member 0 = the leader itself.
        let leader_result = catch_unwind(AssertUnwindSafe(|| f(0)));

        if self.shared.completed.load(Ordering::Acquire) < helpers {
            let wait_start = std::time::Instant::now();
            let mut spins = 0u32;
            while self.shared.completed.load(Ordering::Acquire) < helpers {
                spins += 1;
                if spins < LEADER_SPINS {
                    std::hint::spin_loop();
                } else {
                    // Helpers may be queued behind us on a small machine —
                    // give up the core instead of starving them.
                    std::thread::yield_now();
                }
            }
            let waited = u64::try_from(wait_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.shared
                .spin_wait_ns
                .fetch_add(waited, Ordering::Relaxed);
        }
        *self.shared.job.lock() = None;

        if leader_result.is_err() || self.shared.panicked.swap(false, Ordering::AcqRel) {
            panic!("SpinTeam member panicked during broadcast");
        }
    }

    /// Broadcasts `f` and collects each member's return value, in member
    /// order.
    ///
    /// # Panics
    /// Panics if any member's closure panicked.
    pub fn broadcast_map<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let slots: Vec<MapSlot<R>> = (0..self.members)
            .map(|_| MapSlot(UnsafeCell::new(None)))
            .collect();
        let slots_ref = &slots;
        self.broadcast(|id| {
            // SAFETY: member `id` is the only writer of slot `id`, and the
            // completion barrier in `broadcast` sequences these writes
            // before the reads below.
            unsafe {
                *slots_ref[id].0.get() = Some(f(id));
            }
        });
        slots
            .into_iter()
            .map(|s| s.0.into_inner().expect("member ran"))
            .collect()
    }
}

fn helper_loop(shared: &TeamShared, id: usize) {
    let mut last_gen = 0u64;
    loop {
        // Fast path: spin briefly in case the next round is imminent …
        let mut spins = 0u32;
        loop {
            if shared.generation.load(Ordering::Acquire) != last_gen {
                break;
            }
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            spins += 1;
            if spins < HELPER_SPINS {
                std::hint::spin_loop();
            } else if spins < HELPER_SPINS + HELPER_YIELDS {
                std::thread::yield_now();
            } else {
                // … then park until the leader announces a new round. The
                // announced generation is re-checked under the lock, so a
                // notify between the atomic check and the wait cannot be
                // missed.
                let mut announced = shared.announced.lock().unwrap();
                while *announced == last_gen && !shared.shutdown.load(Ordering::Acquire) {
                    announced = shared.wake.wait(announced).unwrap();
                }
                break;
            }
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        last_gen = shared.generation.load(Ordering::Acquire);
        let job_ptr = shared.job.lock().as_ref().map(|j| j.ptr);
        if let Some(ptr) = job_ptr {
            // SAFETY: the leader keeps the closure alive until `completed`
            // reaches the helper count; we increment only after returning.
            let run = catch_unwind(AssertUnwindSafe(|| unsafe { (*ptr)(id) }));
            if run.is_err() {
                shared.panicked.store(true, Ordering::Release);
            }
        }
        shared.completed.fetch_add(1, Ordering::AcqRel);
    }
}

impl Drop for SpinTeam {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Take the announce lock so parked helpers observe the shutdown
        // flag when woken.
        drop(self.shared.announced.lock().unwrap());
        self.shared.wake.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn single_member_runs_inline() {
        let team = SpinTeam::new(1);
        let hits = AtomicUsize::new(0);
        team.broadcast(|id| {
            assert_eq!(id, 0);
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn every_member_runs_once_per_round() {
        let team = SpinTeam::new(4);
        for _ in 0..50 {
            let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            team.broadcast(|id| {
                hits[id].fetch_add(1, Ordering::SeqCst);
            });
            for h in &hits {
                assert_eq!(h.load(Ordering::SeqCst), 1);
            }
        }
    }

    #[test]
    fn broadcast_map_collects_in_member_order() {
        let team = SpinTeam::new(3);
        let out = team.broadcast_map(|id| id * 10);
        assert_eq!(out, vec![0, 10, 20]);
    }

    #[test]
    fn members_can_borrow_caller_state() {
        let team = SpinTeam::new(3);
        let input = [5u64, 7, 9];
        let out = team.broadcast_map(|id| input[id] * 2);
        assert_eq!(out, vec![10, 14, 18]);
    }

    #[test]
    fn many_rounds_back_to_back() {
        let team = SpinTeam::new(2);
        let total = AtomicUsize::new(0);
        for _ in 0..1000 {
            team.broadcast(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 2000);
    }

    #[test]
    fn rounds_resume_after_helpers_park() {
        let team = SpinTeam::new(3);
        for round in 0..5 {
            let total = AtomicUsize::new(0);
            team.broadcast(|_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(total.load(Ordering::SeqCst), 3, "round {round}");
            // Long gap: helpers exhaust their spin budget and park; the
            // next broadcast must wake them.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    #[test]
    fn spin_wait_counter_drains() {
        let team = SpinTeam::new(2);
        for _ in 0..20 {
            team.broadcast(|id| {
                if id == 1 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            });
        }
        let waited = team.take_spin_wait_ns();
        assert!(waited > 0, "leader never waited on the sleeping helper");
        // Drained: immediately reading again returns ~0 (no rounds ran).
        assert_eq!(team.take_spin_wait_ns(), 0);
    }

    #[test]
    fn effective_parallelism_is_bounded() {
        let team = SpinTeam::new(64);
        let eff = team.effective_parallelism();
        assert!(eff >= 1);
        assert!(eff <= 64);
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(eff, 64.min(cores));
        let solo = SpinTeam::new(1);
        assert_eq!(solo.effective_parallelism(), 1);
    }

    #[test]
    fn panic_in_member_propagates() {
        let team = SpinTeam::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            team.broadcast(|id| {
                if id == 1 {
                    panic!("helper boom");
                }
            });
        }));
        assert!(caught.is_err());
        // Team survives and is usable again.
        let out = team.broadcast_map(|id| id);
        assert_eq!(out, vec![0, 1]);
    }
}
