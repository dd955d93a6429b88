//! Lightweight process-wide performance counters for the §VI hot paths.
//!
//! The paper's cost model (eqs. (2)–(4)) prices a scheme by what its hot
//! loop *does* — proposals evaluated, pixels touched, synchronisation
//! wasted — not just by wall time. These counters make that attribution
//! measurable: the hot paths increment relaxed atomics (a handful of
//! nanoseconds, no branches on the fast path), strategies snapshot the
//! counters around a run, and the difference lands in `RunReport`
//! diagnostics and the benchmark's `core.perf.*` metrics.
//!
//! The counters are global to the process, so attribution is exact only
//! when runs execute one at a time (as the benchmark's `dense_*` units do). Concurrent
//! runs see the union of their work — still useful for totals, not for
//! per-run comparison.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static PROPOSALS_EVALUATED: AtomicU64 = AtomicU64::new(0);
static PIXELS_VISITED: AtomicU64 = AtomicU64::new(0);
static PAIR_COUNT_QUERIES: AtomicU64 = AtomicU64::new(0);
static PAIR_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static RNG_REFILLS: AtomicU64 = AtomicU64::new(0);
static SPIN_WAIT_NS: AtomicU64 = AtomicU64::new(0);
static SPEC_ROUNDS: AtomicU64 = AtomicU64::new(0);
static SPAN_FASTPATH_HITS: AtomicU64 = AtomicU64::new(0);
static PIXELS_SKIPPED: AtomicU64 = AtomicU64::new(0);
static SIMD_LANES_PROCESSED: AtomicU64 = AtomicU64::new(0);
static PROPOSAL_BATCHES: AtomicU64 = AtomicU64::new(0);

/// Records `n` read-only proposal evaluations.
#[inline]
pub fn add_proposals_evaluated(n: u64) {
    PROPOSALS_EVALUATED.fetch_add(n, Relaxed);
}

/// Records `n` pixels visited by a likelihood-delta walk.
#[inline]
pub fn add_pixels_visited(n: u64) {
    PIXELS_VISITED.fetch_add(n, Relaxed);
}

/// Records one close-pair count query (`hit` when served from the cache).
#[inline]
pub fn record_pair_count_query(hit: bool) {
    PAIR_COUNT_QUERIES.fetch_add(1, Relaxed);
    if hit {
        PAIR_CACHE_HITS.fetch_add(1, Relaxed);
    }
}

/// Records one batched-RNG buffer refill.
#[inline]
pub fn record_rng_refill() {
    RNG_REFILLS.fetch_add(1, Relaxed);
}

/// Adds nanoseconds a leader spent spin-waiting on team synchronisation.
#[inline]
pub fn add_spin_wait_ns(ns: u64) {
    SPIN_WAIT_NS.fetch_add(ns, Relaxed);
}

/// Records one speculative round.
#[inline]
pub fn record_spec_round() {
    SPEC_ROUNDS.fetch_add(1, Relaxed);
}

/// Records `n` row spans resolved through the O(1) prefix-sum fast path
/// instead of a scalar pixel walk.
#[inline]
pub fn add_span_fastpath_hits(n: u64) {
    SPAN_FASTPATH_HITS.fetch_add(n, Relaxed);
}

/// Records `n` pixels whose per-pixel walk was skipped because a span
/// fast path answered for the whole run at once.
#[inline]
pub fn add_pixels_skipped(n: u64) {
    PIXELS_SKIPPED.fetch_add(n, Relaxed);
}

/// Records `n` coverage counts pushed through a vector lane kernel
/// (zero while the scalar backend is forced, so the counter doubles as
/// a dispatch witness in the BENCH artefacts).
#[inline]
pub fn add_simd_lanes(n: u64) {
    SIMD_LANES_PROCESSED.fetch_add(n, Relaxed);
}

/// Records one refill-amortised proposal-stream burst (a `ProposalBatch`
/// top-up in the sampler, or a speculative round's lane pre-draw).
#[inline]
pub fn record_proposal_batch() {
    PROPOSAL_BATCHES.fetch_add(1, Relaxed);
}

/// A point-in-time copy of every counter. Subtract two snapshots (taken
/// around a run) with [`PerfSnapshot::since`] to attribute work to the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfSnapshot {
    /// Read-only proposal evaluations (`evaluate_proposal` calls).
    pub proposals_evaluated: u64,
    /// Pixels visited by likelihood-delta walks.
    pub pixels_visited: u64,
    /// Close-pair count queries.
    pub pair_count_queries: u64,
    /// Close-pair count queries served from the configuration cache.
    pub pair_cache_hits: u64,
    /// Batched-RNG buffer refills.
    pub rng_refills: u64,
    /// Nanoseconds spent spin-waiting on team synchronisation.
    pub spin_wait_ns: u64,
    /// Speculative rounds executed.
    pub spec_rounds: u64,
    /// Row spans resolved through the prefix-sum/bitset fast path.
    pub span_fastpath_hits: u64,
    /// Pixels whose scalar walk the span fast path made unnecessary.
    pub pixels_skipped: u64,
    /// Coverage counts processed by vector lane kernels (0 under
    /// `PMCMC_FORCE_SCALAR=1`).
    pub simd_lanes_processed: u64,
    /// Refill-amortised proposal-stream bursts pre-drawn.
    pub proposal_batches: u64,
}

impl PerfSnapshot {
    /// Counter increments between `start` and this snapshot (saturating,
    /// so interleaved snapshots never underflow).
    #[must_use]
    pub fn since(&self, start: &PerfSnapshot) -> PerfSnapshot {
        PerfSnapshot {
            proposals_evaluated: self
                .proposals_evaluated
                .saturating_sub(start.proposals_evaluated),
            pixels_visited: self.pixels_visited.saturating_sub(start.pixels_visited),
            pair_count_queries: self
                .pair_count_queries
                .saturating_sub(start.pair_count_queries),
            pair_cache_hits: self.pair_cache_hits.saturating_sub(start.pair_cache_hits),
            rng_refills: self.rng_refills.saturating_sub(start.rng_refills),
            spin_wait_ns: self.spin_wait_ns.saturating_sub(start.spin_wait_ns),
            spec_rounds: self.spec_rounds.saturating_sub(start.spec_rounds),
            span_fastpath_hits: self
                .span_fastpath_hits
                .saturating_sub(start.span_fastpath_hits),
            pixels_skipped: self.pixels_skipped.saturating_sub(start.pixels_skipped),
            simd_lanes_processed: self
                .simd_lanes_processed
                .saturating_sub(start.simd_lanes_processed),
            proposal_batches: self.proposal_batches.saturating_sub(start.proposal_batches),
        }
    }
}

/// Reads every counter.
#[must_use]
pub fn snapshot() -> PerfSnapshot {
    PerfSnapshot {
        proposals_evaluated: PROPOSALS_EVALUATED.load(Relaxed),
        pixels_visited: PIXELS_VISITED.load(Relaxed),
        pair_count_queries: PAIR_COUNT_QUERIES.load(Relaxed),
        pair_cache_hits: PAIR_CACHE_HITS.load(Relaxed),
        rng_refills: RNG_REFILLS.load(Relaxed),
        spin_wait_ns: SPIN_WAIT_NS.load(Relaxed),
        spec_rounds: SPEC_ROUNDS.load(Relaxed),
        span_fastpath_hits: SPAN_FASTPATH_HITS.load(Relaxed),
        pixels_skipped: PIXELS_SKIPPED.load(Relaxed),
        simd_lanes_processed: SIMD_LANES_PROCESSED.load(Relaxed),
        proposal_batches: PROPOSAL_BATCHES.load(Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_between_snapshots() {
        let s0 = snapshot();
        add_proposals_evaluated(1);
        add_pixels_visited(42);
        record_pair_count_query(false);
        record_pair_count_query(true);
        record_rng_refill();
        add_spin_wait_ns(1000);
        record_spec_round();
        add_span_fastpath_hits(3);
        add_pixels_skipped(17);
        add_simd_lanes(64);
        record_proposal_batch();
        let d = snapshot().since(&s0);
        // Other test threads may add on top; assert lower bounds only.
        assert!(d.proposals_evaluated >= 1);
        assert!(d.pixels_visited >= 42);
        assert!(d.pair_count_queries >= 2);
        assert!(d.pair_cache_hits >= 1);
        assert!(d.rng_refills >= 1);
        assert!(d.spin_wait_ns >= 1000);
        assert!(d.spec_rounds >= 1);
        assert!(d.span_fastpath_hits >= 3);
        assert!(d.pixels_skipped >= 17);
        assert!(d.simd_lanes_processed >= 64);
        assert!(d.proposal_batches >= 1);
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        let newer = snapshot();
        add_proposals_evaluated(1);
        let older_view = PerfSnapshot {
            proposals_evaluated: newer.proposals_evaluated + 10,
            ..newer
        };
        let d = newer.since(&older_view);
        assert_eq!(d.proposals_evaluated, 0);
    }
}
