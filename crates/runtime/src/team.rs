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
//! than lanes.
//!
//! # The round protocol
//!
//! The leader stores the round's closure in the job slot and then bumps
//! `generation` to `g` (Release), which publishes the slot. A helper runs
//! round `g` only when `g` is newer than the last round it ran, and
//! reports it by storing `g` into its own cache-padded `done` slot
//! (Release); the leader returns once every slot reads `g` (Acquire). A
//! helper can therefore run a round once and only once, and the closure
//! outlives every call into it. The only lock guards the condvar: a helper
//! about to park registers in `parked` and re-checks `generation` under the
//! lock, and the leader takes the lock and notifies only when some helper
//! is registered, so a broadcast to spinning helpers costs one atomic store
//! and no system call.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Spin-loop iterations a helper burns waiting for the next round before
/// yielding and then parking. Long enough to catch back-to-back rounds,
/// short enough that an idle helper is off the core within microseconds.
const HELPER_SPINS: u32 = 2_000;
/// `yield_now` calls a helper makes after spinning, before parking.
const HELPER_YIELDS: u32 = 16;
/// Spin-loop iterations the leader burns waiting for helpers before it
/// starts yielding (helpers may need the leader's core on small machines).
const LEADER_SPINS: u32 = 200;

/// The round's closure as the job slot holds it: the leader's reference
/// to it, itself a local of `broadcast`.
type Job<'f> = &'f (dyn Fn(usize) + Sync);

/// A member's last finished generation, alone on its cache line.
#[repr(align(64))]
struct Done(AtomicU64);

struct TeamShared {
    /// Rounds broadcast so far; bumping it publishes `job`.
    generation: AtomicU64,
    /// Points at the current round's [`Job`] on the leader's stack.
    job: AtomicPtr<()>,
    /// Per member, the last generation it finished (slot 0, the leader's,
    /// unused).
    done: Box<[Done]>,
    /// Helpers registered to park.
    parked: AtomicUsize,
    shutdown: AtomicBool,
    panicked: AtomicBool,
    /// Guards the condvar wait; holds no data.
    lock: Mutex<()>,
    wake: Condvar,
    /// Nanoseconds the leader has spent waiting for helpers to finish
    /// rounds (drained by [`SpinTeam::take_spin_wait_ns`]).
    spin_wait_ns: AtomicU64,
}

impl TeamShared {
    /// Waits until a round newer than `last` is broadcast and returns its
    /// generation, or `None` on shutdown: spin, then yield, then park.
    fn next_round(&self, last: u64) -> Option<u64> {
        let mut spins = 0u32;
        loop {
            let gen = self.generation.load(Ordering::Acquire);
            if gen > last {
                return Some(gen);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            spins += 1;
            if spins < HELPER_SPINS {
                std::hint::spin_loop();
            } else if spins < HELPER_SPINS + HELPER_YIELDS {
                std::thread::yield_now();
            } else {
                // Register, then re-check under the lock: either the leader's
                // `parked` load sees this helper and notifies under the lock,
                // or its generation bump is already visible here (both sides
                // are SeqCst, so one of the two must happen).
                let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
                self.parked.fetch_add(1, Ordering::SeqCst);
                while self.generation.load(Ordering::SeqCst) == last
                    && !self.shutdown.load(Ordering::SeqCst)
                {
                    guard = self.wake.wait(guard).unwrap_or_else(|e| e.into_inner());
                }
                self.parked.fetch_sub(1, Ordering::SeqCst);
                spins = 0;
            }
        }
    }

    /// Wakes parked helpers, if there are any.
    fn wake_parked(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            drop(self.lock.lock().unwrap_or_else(|e| e.into_inner()));
            self.wake.notify_all();
        }
    }
}

/// One cache-line-padded output cell per member for `broadcast_map`; each
/// member writes only its own cell, so no locks and no false sharing.
#[repr(align(64))]
struct MapSlot<R>(std::cell::UnsafeCell<Option<R>>);

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
            job: AtomicPtr::new(std::ptr::null_mut()),
            done: (0..members).map(|_| Done(AtomicU64::new(0))).collect(),
            parked: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            lock: Mutex::new(()),
            wake: Condvar::new(),
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
        let shared = &*self.shared;
        let job: Job<'_> = &f;
        // Publish the slot: helpers read it only after they load a newer
        // generation (Acquire), and the bump below is a Release, so they
        // see this store. The pointee outlives every use: this call does
        // not return before every helper has stored this round's
        // generation in its `done` slot, i.e. has returned from `f`.
        shared.job.store(
            std::ptr::from_ref(&job).cast_mut().cast(),
            Ordering::Release,
        );
        let gen = shared.generation.fetch_add(1, Ordering::SeqCst) + 1;
        pause_after_bump();
        shared.wake_parked();

        // Member 0 = the leader itself.
        let leader_result = catch_unwind(AssertUnwindSafe(|| f(0)));

        let finished = |d: &Done| d.0.load(Ordering::Acquire) == gen;
        if !shared.done[1..].iter().all(finished) {
            let wait_start = std::time::Instant::now();
            let mut spins = 0u32;
            while !shared.done[1..].iter().all(finished) {
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
            shared.spin_wait_ns.fetch_add(waited, Ordering::Relaxed);
        }
        shared.job.store(std::ptr::null_mut(), Ordering::Release);

        if leader_result.is_err() || shared.panicked.swap(false, Ordering::AcqRel) {
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
            .map(|_| MapSlot(std::cell::UnsafeCell::new(None)))
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

/// Holds the leader between the generation bump and the wake-up for as
/// long as the unit test running it asks, widening the window in which
/// helpers catch a round by spinning.
#[cfg(test)]
fn pause_after_bump() {
    std::thread::sleep(tests::PAUSE_AFTER_BUMP.get());
}

#[cfg(not(test))]
fn pause_after_bump() {}

fn helper_loop(shared: &TeamShared, id: usize) {
    let mut last = 0u64;
    while let Some(gen) = shared.next_round(last) {
        debug_assert_eq!(gen, last + 1, "member {id} skipped a round");
        let job = shared
            .job
            .load(Ordering::Acquire)
            .cast::<Job<'_>>()
            .cast_const();
        // SAFETY: `job` was stored before generation `gen` was published
        // and points at the leader's `Job` for round `gen`, which stays
        // alive until this member stores `gen` into its `done` slot below.
        let run = catch_unwind(AssertUnwindSafe(|| unsafe { (*job)(id) }));
        if run.is_err() {
            shared.panicked.store(true, Ordering::Release);
        }
        last = gen;
        shared.done[id].0.store(gen, Ordering::Release);
    }
}

impl Drop for SpinTeam {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Take the lock so a helper between its shutdown check and its
        // wait cannot miss the notification.
        drop(
            self.shared
                .lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        self.shared.wake.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    thread_local! {
        /// How long [`pause_after_bump`] holds a leader on this thread.
        pub(super) static PAUSE_AFTER_BUMP: Cell<Duration> = const { Cell::new(Duration::ZERO) };
    }

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

    /// A helper that catches round g by spinning must not run it again
    /// while the leader is still between the generation bump and the
    /// wake-up: the pause outlasts a helper's whole spin-and-yield budget,
    /// so a helper that finished round g reaches its park path inside it.
    #[test]
    fn a_round_runs_once_when_the_wake_up_is_late() {
        for members in [2, 3, 4] {
            let team = SpinTeam::new(members);
            PAUSE_AFTER_BUMP.set(Duration::from_millis(3));
            for round in 0..8 {
                let hits: Vec<AtomicUsize> = (0..members).map(|_| AtomicUsize::new(0)).collect();
                team.broadcast(|id| {
                    hits[id].fetch_add(1, Ordering::SeqCst);
                });
                for (id, h) in hits.iter().enumerate() {
                    assert_eq!(
                        h.load(Ordering::SeqCst),
                        1,
                        "{members} members, round {round}: member {id}"
                    );
                }
            }
        }
        PAUSE_AFTER_BUMP.set(Duration::ZERO);
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
