//! Runtime-dispatched lane kernels for the row-delta hot paths.
//!
//! The §VI likelihood engine resolves wholly-uncovered / singly-covered
//! spans with prefix subtractions (PR 8), but a span that *overlaps*
//! existing coverage still has to look at every `u16` count in it. These
//! kernels vectorise exactly that residual: each one takes a chunk of at
//! most 64 coverage counts (one occupancy-bitset word's worth) and
//! answers with *bitmasks* — which pixels crossed 0↔1, which crossed
//! 1↔2, which equal a target count — computed 16 `u16` lanes per AVX2
//! step with masked head/tail handling via a scalar remainder loop.
//!
//! Gain (`f64`) accumulation deliberately stays scalar: callers walk the
//! returned mask's set bits in ascending pixel order and add gains one by
//! one ([`sum_masked`]), so the floating-point addition sequence is the
//! same as the pre-SIMD scalar loops and results are **bit-identical**
//! across backends — not merely ≤1e-9. That is what lets the same-seed
//! determinism suite assert byte-identical `RunReport`s between the
//! vector and forced-scalar paths: a reordered sum could flip an
//! accept decision 60k iterations downstream.
//!
//! Backend selection happens once per process: `PMCMC_FORCE_SCALAR=1`
//! pins the portable path, otherwise runtime detection of AVX2 *and*
//! BMI2 (for `pext` mask packing; the pair has shipped together since
//! Haswell/Zen) picks the vector path on x86-64. Tests flip backends
//! mid-process with [`force_backend`].
//!
//! Not every hot loop routes through a compare kernel: the apply-side
//! mixed rows in `coverage.rs` derive their 0↔1 / 1↔2 crossing masks
//! directly from the occupancy bitsets (an add crosses 0→1 exactly where
//! `occ` is clear), so those paths need only a bulk ±1 sweep plus — on
//! remove — one [`eq_mask`] call to repair the `multi` plane.

use crate::spans::SPAN_ROWS;
use pmcmc_imaging::{Circle, Rect};
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};

/// Which kernel implementation serves the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable per-pixel loops (also the masked head/tail path).
    Scalar,
    /// 16×`u16` lanes per step via `core::arch::x86_64` AVX2.
    Avx2,
}

impl Backend {
    /// Human-readable name, as the examples' header line and README print it.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }
}

const BACKEND_UNSET: u8 = 0;
const BACKEND_SCALAR: u8 = 1;
const BACKEND_AVX2: u8 = 2;

static BACKEND: AtomicU8 = AtomicU8::new(BACKEND_UNSET);

fn detect() -> u8 {
    if std::env::var_os("PMCMC_FORCE_SCALAR").is_some_and(|v| v == "1") {
        return BACKEND_SCALAR;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // BMI2 rides along with AVX2 on every Haswell+/Zen CPU; requiring
        // both lets the kernels pack movemasks with a single `pext`
        // instead of a five-step shift-mask cascade.
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("bmi2") {
            return BACKEND_AVX2;
        }
    }
    BACKEND_SCALAR
}

/// The backend serving this process (detected once, then cached).
#[inline]
#[must_use]
pub fn backend() -> Backend {
    match BACKEND.load(Relaxed) {
        BACKEND_SCALAR => Backend::Scalar,
        BACKEND_AVX2 => Backend::Avx2,
        _ => {
            let b = detect();
            // A racing detector writes the same value; last store wins.
            BACKEND.store(b, Relaxed);
            if b == BACKEND_AVX2 {
                Backend::Avx2
            } else {
                Backend::Scalar
            }
        }
    }
}

/// Overrides the detected backend for the rest of the process (or until
/// the next call). Forcing [`Backend::Avx2`] on a machine without AVX2
/// falls back to scalar. This exists for the determinism suite, which
/// must compare both paths inside one process; production code selects
/// the backend once via [`backend`] + `PMCMC_FORCE_SCALAR`.
pub fn force_backend(b: Backend) {
    let tag = match b {
        Backend::Scalar => BACKEND_SCALAR,
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("bmi2") => {
            BACKEND_AVX2
        }
        Backend::Avx2 => BACKEND_SCALAR,
    };
    BACKEND.store(tag, Relaxed);
}

/// True when the vector path is live (drives the `simd_lanes_processed`
/// counter at call sites; the scalar fallback reports zero lanes).
#[inline]
#[must_use]
pub fn is_vectorized() -> bool {
    backend() == Backend::Avx2
}

/// Increments every count in `counts` (≤ 64 entries) by one. Returns
/// `(became_one, became_two)` masks, bit `k` describing `counts[k]`.
#[inline]
#[must_use]
pub fn inc_counts(counts: &mut [u16]) -> (u64, u64) {
    debug_assert!(counts.len() <= 64);
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 {
        // SAFETY: dispatched only when AVX2+BMI2 are detected at runtime.
        return unsafe { avx2::inc_counts(counts) };
    }
    scalar::inc_counts(counts)
}

/// Decrements every count in `counts` (≤ 64 entries) by one. Returns
/// `(became_zero, became_one)` masks, bit `k` describing `counts[k]`.
/// Counts must be ≥ 1 on entry (the coverage invariant for removal).
#[inline]
#[must_use]
pub fn dec_counts(counts: &mut [u16]) -> (u64, u64) {
    debug_assert!(counts.len() <= 64);
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 {
        // SAFETY: dispatched only when AVX2+BMI2 are detected at runtime.
        return unsafe { avx2::dec_counts(counts) };
    }
    scalar::dec_counts(counts)
}

/// Bitmask of entries equal to `target` (≤ 64 entries, bit `k` for
/// `counts[k]`).
#[inline]
#[must_use]
pub fn eq_mask(counts: &[u16], target: u16) -> u64 {
    debug_assert!(counts.len() <= 64);
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 {
        // SAFETY: dispatched only when AVX2+BMI2 are detected at runtime.
        return unsafe { avx2::eq_mask(counts, target) };
    }
    scalar::eq_mask(counts, target)
}

/// `(count ≥ 1, count ≥ 2)` occupancy masks for ≤ 64 counts — the two
/// per-row bitset planes maintained by the coverage grid.
#[inline]
#[must_use]
pub fn occupancy_masks(counts: &[u16]) -> (u64, u64) {
    debug_assert!(counts.len() <= 64);
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 {
        // SAFETY: dispatched only when AVX2+BMI2 are detected at runtime.
        return unsafe { avx2::occupancy_masks(counts) };
    }
    scalar::occupancy_masks(counts)
}

/// Bitmask of entries with `lo ≤ count ≤ hi` (≤ 64 entries).
#[inline]
#[must_use]
pub fn range_mask(counts: &[u16], lo: u16, hi: u16) -> u64 {
    debug_assert!(counts.len() <= 64);
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 {
        // SAFETY: dispatched only when AVX2+BMI2 are detected at runtime.
        return unsafe { avx2::range_mask(counts, lo, hi) };
    }
    scalar::range_mask(counts, lo, hi)
}

/// Minimum chunk length at which the vector path engages. Below this a
/// 16-lane AVX2 step cannot even fill once, so the fused scalar loop is
/// strictly cheaper (it skips the mask packing and the second pass);
/// both paths add gains in ascending pixel order starting from 0.0, so
/// the gate never changes a result bit.
pub const VECTOR_MIN: usize = 16;

#[inline]
fn use_vector(len: usize) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        return len >= VECTOR_MIN && backend() == Backend::Avx2;
    }
    #[allow(unreachable_code)]
    {
        let _ = len;
        false
    }
}

/// Fused remove-window kernel: decrements every count (≤ 64, each ≥ 1 on
/// entry) and sums the gains of pixels that crossed 1→0, in one pass on
/// the scalar path. Returns `(became_zero, became_one, gain_sum)`; the
/// sum is accumulated in ascending pixel order from 0.0 on both backends.
/// (The add direction needs no such kernel — its crossing masks fall out
/// of the occupancy bitsets, see `coverage.rs` — but a remove must find
/// the 2→1 pixels by comparing counts, which is exactly what the lane
/// compare in [`dec_counts`]'s vector body is good at.)
#[must_use]
pub fn remove_span(counts: &mut [u16], gains: &[f64]) -> (u64, u64, f64) {
    debug_assert!(counts.len() <= 64);
    debug_assert_eq!(counts.len(), gains.len());
    #[cfg(target_arch = "x86_64")]
    if use_vector(counts.len()) {
        record_lanes(counts.len() as u64);
        // SAFETY: dispatched only when AVX2+BMI2 are detected at runtime.
        let (m0, m1) = unsafe { avx2::dec_counts(counts) };
        return (m0, m1, sum_masked(gains, m0));
    }
    let mut m0 = 0u64;
    let mut m1 = 0u64;
    let mut sum = 0.0;
    for (k, c) in counts.iter_mut().enumerate() {
        debug_assert!(*c >= 1, "decrementing uncovered pixel");
        *c -= 1;
        match *c {
            0 => {
                m0 |= 1 << k;
                sum += gains[k];
            }
            1 => m1 |= 1 << k,
            _ => {}
        }
    }
    (m0, m1, sum)
}

/// Signed gain delta of pixels whose coverage flips under a uniform
/// count change `net` applied to every pixel of the slice: with `net > 0`
/// the uncovered pixels (count 0) gain coverage (`+gain`), with `net < 0`
/// the pixels with `1 ≤ count ≤ −net` lose it (`−gain`), and `net == 0`
/// flips nothing. Addition order is ascending pixel index.
#[must_use]
pub fn sum_gain_flips(counts: &[u16], gains: &[f64], net: i64) -> f64 {
    debug_assert_eq!(counts.len(), gains.len());
    if net == 0 {
        return 0.0;
    }
    if net > 0 {
        return sum_gains_where_eq(counts, gains, 0);
    }
    let hi = (-net).min(i64::from(u16::MAX)) as u16;
    let mut sum = 0.0;
    for (cs, gs) in counts.chunks(64).zip(gains.chunks(64)) {
        #[cfg(target_arch = "x86_64")]
        if use_vector(cs.len()) {
            record_lanes(cs.len() as u64);
            // SAFETY: dispatched only when AVX2+BMI2 are detected at runtime.
            sum += sum_masked(gs, unsafe { avx2::range_mask(cs, 1, hi) });
            continue;
        }
        let mut s = 0.0;
        for (k, &c) in cs.iter().enumerate() {
            if c >= 1 && c <= hi {
                s += gs[k];
            }
        }
        sum += s;
    }
    -sum
}

/// Sums `gains[k]` over the set bits of `mask` in ascending `k`. The
/// ascending order matches the historical scalar walks exactly, keeping
/// log-likelihood deltas bit-identical across backends.
#[inline]
#[must_use]
pub fn sum_masked(gains: &[f64], mut mask: u64) -> f64 {
    let mut sum = 0.0;
    while mask != 0 {
        let k = mask.trailing_zeros() as usize;
        sum += gains[k];
        mask &= mask - 1;
    }
    sum
}

/// Sums `gains[k]` where `counts[k] == target`, over arbitrary-length
/// slices (chunked 64 at a time internally). Addition order is ascending
/// `k`, matching the scalar loop bit for bit.
#[must_use]
pub fn sum_gains_where_eq(counts: &[u16], gains: &[f64], target: u16) -> f64 {
    debug_assert_eq!(counts.len(), gains.len());
    let mut sum = 0.0;
    for (cs, gs) in counts.chunks(64).zip(gains.chunks(64)) {
        #[cfg(target_arch = "x86_64")]
        if use_vector(cs.len()) {
            record_lanes(cs.len() as u64);
            // SAFETY: dispatched only when AVX2+BMI2 are detected at runtime.
            sum += sum_masked(gs, unsafe { avx2::eq_mask(cs, target) });
            continue;
        }
        let mut s = 0.0;
        for (k, &c) in cs.iter().enumerate() {
            if c == target {
                s += gs[k];
            }
        }
        sum += s;
    }
    sum
}

/// Tabulates [`crate::coverage::disk_row_span`] for rows `lo..lo + rows` of
/// `circle` clipped to `rect`: row `lo + k` goes to `x0[k]..=x1[k]`, and bit
/// `k` of the result is set iff that row is non-empty (the entries of an
/// empty row are unspecified). The caller ([`crate::spans::SpanTable`])
/// guarantees centre and `rect` within ±2³⁰ and a radius below 24, so
/// every value on the way is an exact `i32`.
///
/// The vector path does four rows per step with the scalar path's
/// operations in the scalar path's order — `vsqrtpd`, a separate multiply
/// and subtract (no FMA), `vroundpd` for [`crate::math::ceil_i64`] /
/// [`crate::math::floor_i64`], which it equals on that range — so the two
/// tables are equal bit for bit.
///
/// # Panics
/// Panics if `rows` exceeds the arrays.
#[must_use]
pub(crate) fn disk_spans(
    circle: &Circle,
    rect: &Rect,
    lo: i64,
    rows: usize,
    x0: &mut [i32; SPAN_ROWS],
    x1: &mut [i32; SPAN_ROWS],
) -> u64 {
    // The vector path stores whole groups of four rows without a bounds
    // check; `SPAN_ROWS` is a multiple of four.
    assert!(rows <= SPAN_ROWS, "span table holds {SPAN_ROWS} rows");
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 {
        // SAFETY: dispatched only when AVX2+BMI2 are detected at runtime,
        // and `rows <= SPAN_ROWS` was asserted above.
        return unsafe { avx2::disk_spans(circle, rect, lo, rows, x0, x1) };
    }
    scalar::disk_spans(circle, rect, lo, rows, x0, x1)
}

/// Records `n` coverage counts pushed through a vector kernel; a no-op on
/// the scalar backend so the counter doubles as a dispatch witness.
#[inline]
pub fn record_lanes(n: u64) {
    if is_vectorized() {
        crate::perf::add_simd_lanes(n);
    }
}

mod scalar {
    use super::{Circle, Rect, SPAN_ROWS};

    pub fn inc_counts(counts: &mut [u16]) -> (u64, u64) {
        let mut m1 = 0u64;
        let mut m2 = 0u64;
        for (k, c) in counts.iter_mut().enumerate() {
            *c += 1;
            match *c {
                1 => m1 |= 1 << k,
                2 => m2 |= 1 << k,
                _ => {}
            }
        }
        (m1, m2)
    }

    pub fn dec_counts(counts: &mut [u16]) -> (u64, u64) {
        let mut m0 = 0u64;
        let mut m1 = 0u64;
        for (k, c) in counts.iter_mut().enumerate() {
            debug_assert!(*c >= 1, "decrementing uncovered pixel");
            *c -= 1;
            match *c {
                0 => m0 |= 1 << k,
                1 => m1 |= 1 << k,
                _ => {}
            }
        }
        (m0, m1)
    }

    pub fn eq_mask(counts: &[u16], target: u16) -> u64 {
        let mut m = 0u64;
        for (k, &c) in counts.iter().enumerate() {
            if c == target {
                m |= 1 << k;
            }
        }
        m
    }

    pub fn range_mask(counts: &[u16], lo: u16, hi: u16) -> u64 {
        let mut m = 0u64;
        for (k, &c) in counts.iter().enumerate() {
            if c >= lo && c <= hi {
                m |= 1 << k;
            }
        }
        m
    }

    pub fn occupancy_masks(counts: &[u16]) -> (u64, u64) {
        let mut occ = 0u64;
        let mut multi = 0u64;
        for (k, &c) in counts.iter().enumerate() {
            if c >= 1 {
                occ |= 1 << k;
            }
            if c >= 2 {
                multi |= 1 << k;
            }
        }
        (occ, multi)
    }

    pub fn disk_spans(
        circle: &Circle,
        rect: &Rect,
        lo: i64,
        rows: usize,
        x0: &mut [i32; SPAN_ROWS],
        x1: &mut [i32; SPAN_ROWS],
    ) -> u64 {
        let r2 = circle.r * circle.r;
        let mut nonempty = 0u64;
        for (k, py) in (lo..).take(rows).enumerate() {
            if let Some((a, b)) = crate::coverage::disk_row_span(circle, r2, py, rect) {
                x0[k] = a as i32;
                x1[k] = b as i32;
                nonempty |= 1 << k;
            }
        }
        nonempty
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Circle, Rect, SPAN_ROWS};
    use core::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi16, _mm256_add_pd, _mm256_and_pd, _mm256_ceil_pd,
        _mm256_cmp_pd, _mm256_cmpeq_epi16, _mm256_cvttpd_epi32, _mm256_floor_pd,
        _mm256_loadu_si256, _mm256_max_pd, _mm256_min_epu16, _mm256_min_pd, _mm256_movemask_epi8,
        _mm256_movemask_pd, _mm256_mul_pd, _mm256_set1_epi16, _mm256_set1_pd, _mm256_set_pd,
        _mm256_setzero_pd, _mm256_setzero_si256, _mm256_sqrt_pd, _mm256_storeu_si256,
        _mm256_sub_epi16, _mm256_sub_pd, _mm_storeu_si128, _pext_u32, _CMP_GE_OQ, _CMP_LE_OQ,
    };

    /// Packs a 32-bit byte-lane movemask (2 identical bits per `u16`
    /// lane) down to one bit per lane — a single `pext`; the backend is
    /// only selected when BMI2 is present alongside AVX2. A safe
    /// `#[target_feature]` fn: the kernels below enable the same feature
    /// set, so their calls need no `unsafe`.
    #[inline]
    #[target_feature(enable = "avx2,bmi2")]
    fn mask16(v: __m256i) -> u64 {
        u64::from(_pext_u32(_mm256_movemask_epi8(v) as u32, 0x5555_5555))
    }

    /// Shifts a scalar-tail mask into place; `i == 64` (no tail, the
    /// vector loop consumed the full 64-lane window) must yield 0 rather
    /// than an overflowing shift.
    #[inline]
    fn tail_shl(m: u64, i: usize) -> u64 {
        if i >= 64 {
            0
        } else {
            m << i
        }
    }

    /// # Safety
    /// Caller must ensure AVX2 and BMI2 are available on the running CPU
    /// (the dispatchers check `backend() == Backend::Avx2`, which is only
    /// set after runtime feature detection).
    #[target_feature(enable = "avx2,bmi2")]
    pub unsafe fn inc_counts(counts: &mut [u16]) -> (u64, u64) {
        let len = counts.len();
        let one = _mm256_set1_epi16(1);
        let two = _mm256_set1_epi16(2);
        let mut m1 = 0u64;
        let mut m2 = 0u64;
        let mut i = 0;
        while i + 16 <= len {
            // SAFETY: `i + 16 <= len`, so lanes `i..i+16` are in bounds
            // for the unaligned load/store; no other reference aliases
            // `counts` while the `&mut` is live.
            let v = unsafe {
                let p = counts.as_mut_ptr().add(i).cast::<__m256i>();
                let v = _mm256_add_epi16(_mm256_loadu_si256(p), one);
                _mm256_storeu_si256(p, v);
                v
            };
            m1 |= mask16(_mm256_cmpeq_epi16(v, one)) << i;
            m2 |= mask16(_mm256_cmpeq_epi16(v, two)) << i;
            i += 16;
        }
        let (t1, t2) = super::scalar::inc_counts(&mut counts[i..]);
        (m1 | tail_shl(t1, i), m2 | tail_shl(t2, i))
    }

    /// # Safety
    /// Caller must ensure AVX2 and BMI2 are available on the running CPU
    /// (the dispatchers check `backend() == Backend::Avx2`, which is only
    /// set after runtime feature detection).
    #[target_feature(enable = "avx2,bmi2")]
    pub unsafe fn dec_counts(counts: &mut [u16]) -> (u64, u64) {
        let len = counts.len();
        let one = _mm256_set1_epi16(1);
        let zero = _mm256_setzero_si256();
        let mut m0 = 0u64;
        let mut m1 = 0u64;
        let mut i = 0;
        while i + 16 <= len {
            // SAFETY: `i + 16 <= len`, so lanes `i..i+16` are in bounds
            // for the unaligned load/store; no other reference aliases
            // `counts` while the `&mut` is live.
            let v = unsafe {
                let p = counts.as_mut_ptr().add(i).cast::<__m256i>();
                let v = _mm256_sub_epi16(_mm256_loadu_si256(p), one);
                _mm256_storeu_si256(p, v);
                v
            };
            m0 |= mask16(_mm256_cmpeq_epi16(v, zero)) << i;
            m1 |= mask16(_mm256_cmpeq_epi16(v, one)) << i;
            i += 16;
        }
        let (t0, t1) = super::scalar::dec_counts(&mut counts[i..]);
        (m0 | tail_shl(t0, i), m1 | tail_shl(t1, i))
    }

    /// # Safety
    /// Caller must ensure AVX2 and BMI2 are available on the running CPU
    /// (the dispatchers check `backend() == Backend::Avx2`, which is only
    /// set after runtime feature detection).
    #[target_feature(enable = "avx2,bmi2")]
    pub unsafe fn eq_mask(counts: &[u16], target: u16) -> u64 {
        let len = counts.len();
        let t = _mm256_set1_epi16(target as i16);
        let mut m = 0u64;
        let mut i = 0;
        while i + 16 <= len {
            // SAFETY: `i + 16 <= len` keeps the unaligned 16-lane load
            // inside the borrowed slice.
            let v = unsafe { _mm256_loadu_si256(counts.as_ptr().add(i).cast::<__m256i>()) };
            m |= mask16(_mm256_cmpeq_epi16(v, t)) << i;
            i += 16;
        }
        m | tail_shl(super::scalar::eq_mask(&counts[i..], target), i)
    }

    /// # Safety
    /// Caller must ensure AVX2 and BMI2 are available on the running CPU
    /// (the dispatchers check `backend() == Backend::Avx2`, which is only
    /// set after runtime feature detection).
    #[target_feature(enable = "avx2,bmi2")]
    pub unsafe fn range_mask(counts: &[u16], lo: u16, hi: u16) -> u64 {
        let len = counts.len();
        let lo_v = _mm256_set1_epi16(lo as i16);
        let hi_v = _mm256_set1_epi16(hi as i16);
        let mut m = 0u64;
        let mut i = 0;
        while i + 16 <= len {
            // SAFETY: `i + 16 <= len` keeps the unaligned 16-lane load
            // inside the borrowed slice.
            let v = unsafe { _mm256_loadu_si256(counts.as_ptr().add(i).cast::<__m256i>()) };
            // Unsigned `v >= lo` as `min(v, lo) == lo`; `v <= hi` as
            // `min(v, hi) == v`.
            let ge = mask16(_mm256_cmpeq_epi16(_mm256_min_epu16(v, lo_v), lo_v));
            let le = mask16(_mm256_cmpeq_epi16(_mm256_min_epu16(v, hi_v), v));
            m |= (ge & le) << i;
            i += 16;
        }
        m | tail_shl(super::scalar::range_mask(&counts[i..], lo, hi), i)
    }

    /// # Safety
    /// Caller must ensure AVX2 and BMI2 are available on the running CPU
    /// (the dispatchers check `backend() == Backend::Avx2`, which is only
    /// set after runtime feature detection).
    #[target_feature(enable = "avx2,bmi2")]
    pub unsafe fn occupancy_masks(counts: &[u16]) -> (u64, u64) {
        let len = counts.len();
        let one = _mm256_set1_epi16(1);
        let two = _mm256_set1_epi16(2);
        let mut occ = 0u64;
        let mut multi = 0u64;
        let mut i = 0;
        while i + 16 <= len {
            // SAFETY: `i + 16 <= len` keeps the unaligned 16-lane load
            // inside the borrowed slice.
            let v = unsafe { _mm256_loadu_si256(counts.as_ptr().add(i).cast::<__m256i>()) };
            // Unsigned `v >= t` as `min(v, t) == t`.
            occ |= mask16(_mm256_cmpeq_epi16(_mm256_min_epu16(v, one), one)) << i;
            multi |= mask16(_mm256_cmpeq_epi16(_mm256_min_epu16(v, two), two)) << i;
            i += 16;
        }
        let (t_occ, t_multi) = super::scalar::occupancy_masks(&counts[i..]);
        (occ | tail_shl(t_occ, i), multi | tail_shl(t_multi, i))
    }

    /// # Safety
    /// Caller must ensure AVX2 and BMI2 are available on the running CPU
    /// (the dispatcher checks `backend() == Backend::Avx2`, which is only
    /// set after runtime feature detection) and `rows <= SPAN_ROWS`.
    #[target_feature(enable = "avx2,bmi2")]
    pub unsafe fn disk_spans(
        circle: &Circle,
        rect: &Rect,
        lo: i64,
        rows: usize,
        x0: &mut [i32; SPAN_ROWS],
        x1: &mut [i32; SPAN_ROWS],
    ) -> u64 {
        let (cx, cy) = (_mm256_set1_pd(circle.x), _mm256_set1_pd(circle.y));
        let r2 = _mm256_set1_pd(circle.r * circle.r);
        let half = _mm256_set1_pd(0.5);
        let x_min = _mm256_set1_pd(rect.x0 as f64);
        let x_max = _mm256_set1_pd((rect.x1 - 1) as f64);
        // Pixel-centre ordinates `py + 0.5` of four rows; lanes past the
        // last row are computed like the others and masked out.
        let y_last = _mm256_set1_pd((lo + rows as i64 - 1) as f64 + 0.5);
        let l = lo as f64;
        let mut yc = _mm256_set_pd(l + 3.5, l + 2.5, l + 1.5, l + 0.5);
        let mut nonempty = 0u64;
        for step in 0..rows.div_ceil(4) {
            let dy = _mm256_sub_pd(yc, cy);
            let h2 = _mm256_sub_pd(r2, _mm256_mul_pd(dy, dy));
            // NaN where the row misses the disk; `max`/`min` then pick
            // their second operand, so the conversions below stay defined.
            let h = _mm256_sqrt_pd(h2);
            let left = _mm256_sub_pd(_mm256_sub_pd(cx, h), half);
            let right = _mm256_sub_pd(_mm256_add_pd(cx, h), half);
            let a = _mm256_max_pd(_mm256_ceil_pd(left), x_min);
            let b = _mm256_min_pd(_mm256_floor_pd(right), x_max);
            let hit = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GE_OQ>(h2, _mm256_setzero_pd()),
                _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_LE_OQ>(a, b),
                    _mm256_cmp_pd::<_CMP_LE_OQ>(yc, y_last),
                ),
            );
            nonempty |= (_mm256_movemask_pd(hit) as u64) << (4 * step);
            // SAFETY: `step < rows.div_ceil(4) <= SPAN_ROWS / 4` (the
            // caller's `rows <= SPAN_ROWS`), so lanes `4 * step..4 * step +
            // 4` are inside both arrays for the unaligned 4-lane stores.
            unsafe {
                _mm_storeu_si128(
                    x0.as_mut_ptr().add(4 * step).cast::<__m128i>(),
                    _mm256_cvttpd_epi32(a),
                );
                _mm_storeu_si128(
                    x1.as_mut_ptr().add(4 * step).cast::<__m128i>(),
                    _mm256_cvttpd_epi32(b),
                );
            }
            yc = _mm256_add_pd(yc, _mm256_set1_pd(4.0));
        }
        nonempty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_counts(len: usize, seed: u64) -> Vec<u16> {
        // Small deterministic mix of 0/1/2/3 counts exercising every mask.
        (0..len)
            .map(|k| {
                let mut s = seed.wrapping_add(k as u64);
                (crate::rng::splitmix64(&mut s) % 4) as u16
            })
            .collect()
    }

    #[test]
    fn backend_name_is_stable() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Avx2.name(), "avx2");
        // Whatever was detected, it must be one of the two.
        let b = backend();
        assert!(matches!(b, Backend::Scalar | Backend::Avx2));
    }

    #[test]
    fn kernels_agree_across_backends_at_every_length() {
        let detected = backend();
        for len in 0..=64usize {
            for seed in [1u64, 99, 0xDEAD] {
                let base = sample_counts(len, seed);
                let gains: Vec<f64> = (0..len).map(|k| (k as f64) * 0.37 - 3.0).collect();

                force_backend(Backend::Scalar);
                let mut a = base.clone();
                let inc_s = inc_counts(&mut a);
                let mut a2 = base.iter().map(|&c| c + 1).collect::<Vec<_>>();
                let dec_s = dec_counts(&mut a2);
                let eq_s = eq_mask(&base, 1);
                let rng_s = range_mask(&base, 1, 2);
                let occ_s = occupancy_masks(&base);
                let sum_s = sum_gains_where_eq(&base, &gains, 0);
                let flip_s = (
                    sum_gain_flips(&base, &gains, 2),
                    sum_gain_flips(&base, &gains, -2),
                );

                force_backend(Backend::Avx2);
                let mut b = base.clone();
                let inc_v = inc_counts(&mut b);
                let mut b2 = base.iter().map(|&c| c + 1).collect::<Vec<_>>();
                let dec_v = dec_counts(&mut b2);
                let eq_v = eq_mask(&base, 1);
                let rng_v = range_mask(&base, 1, 2);
                let occ_v = occupancy_masks(&base);
                let sum_v = sum_gains_where_eq(&base, &gains, 0);
                let flip_v = (
                    sum_gain_flips(&base, &gains, 2),
                    sum_gain_flips(&base, &gains, -2),
                );

                force_backend(detected);
                assert_eq!(inc_s, inc_v, "inc masks, len {len}");
                assert_eq!(a, b, "inc counts, len {len}");
                assert_eq!(dec_s, dec_v, "dec masks, len {len}");
                assert_eq!(a2, b2, "dec counts, len {len}");
                assert_eq!(eq_s, eq_v, "eq mask, len {len}");
                assert_eq!(rng_s, rng_v, "range mask, len {len}");
                assert_eq!(occ_s, occ_v, "occupancy masks, len {len}");
                // Bit-identical, not approximately equal.
                assert_eq!(sum_s.to_bits(), sum_v.to_bits(), "masked sum, len {len}");
                assert_eq!(flip_s.0.to_bits(), flip_v.0.to_bits(), "+flips, len {len}");
                assert_eq!(flip_s.1.to_bits(), flip_v.1.to_bits(), "-flips, len {len}");
            }
        }
    }

    #[test]
    fn masks_match_direct_definitions() {
        let counts = sample_counts(64, 7);
        let (occ, multi) = occupancy_masks(&counts);
        let eq2 = eq_mask(&counts, 2);
        for (k, &c) in counts.iter().enumerate() {
            assert_eq!(occ >> k & 1 == 1, c >= 1);
            assert_eq!(multi >> k & 1 == 1, c >= 2);
            assert_eq!(eq2 >> k & 1 == 1, c == 2);
        }
    }

    #[test]
    fn sum_masked_walks_bits_in_ascending_order() {
        let gains = [1.0, 10.0, 100.0, 1000.0];
        assert_eq!(sum_masked(&gains, 0b1010), 10.0 + 1000.0);
        assert_eq!(sum_masked(&gains, 0), 0.0);
        assert_eq!(sum_masked(&gains, 0b1111), 1111.0);
    }

    #[test]
    fn inc_then_dec_restores_counts_and_mirrors_masks() {
        let base = sample_counts(64, 3);
        let mut counts = base.clone();
        let (became1, became2) = inc_counts(&mut counts);
        let (became0, back_to1) = dec_counts(&mut counts);
        assert_eq!(counts, base);
        assert_eq!(became1, became0, "0↔1 crossings mirror");
        assert_eq!(became2, back_to1, "1↔2 crossings mirror");
    }

    #[test]
    fn forced_scalar_is_never_vectorized() {
        let detected = backend();
        force_backend(Backend::Scalar);
        assert!(!is_vectorized());
        assert_eq!(backend(), Backend::Scalar);
        force_backend(detected);
    }
}
