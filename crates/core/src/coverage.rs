//! Per-pixel circle-cover counts with incremental log-likelihood deltas.
//!
//! The two-level likelihood only cares whether a pixel is covered by *at
//! least one* circle, so adding/removing a circle changes the
//! log-likelihood by the summed gains of pixels whose cover count crosses
//! the 0↔1 boundary. The grid may represent the full image or one
//! partition tile (it stores its own global-coordinate rectangle): the
//! periodic sampler's tile workers run on full-image replicas, the
//! standalone [`crate::TileWorkspace`] on a private crop of its tile.
//!
//! The hot operations are span-based: a disk is a set of contiguous row
//! spans (`disk_row_span` is the single source of truth for the span
//! arithmetic, a `SpanTable` its tabulation), and per-row occupancy
//! bitsets detect the overlap-free common case, where a whole span crosses
//! 0↔1 together and its gain sum is one prefix-table subtraction
//! ([`Gain::row_prefix`]) instead of an O(span) walk. Mixed-coverage spans
//! run through the [`crate::simd`] lane kernels one bitset-word window
//! (≤ 64 counts) at a time: the kernel updates the counts and answers with
//! crossing masks, the masks patch the occupancy words directly, and gains
//! accumulate over the masks' set bits in ascending pixel order
//! (bit-identical across backends).
//!
//! # The read-only kernels
//!
//! A proposal is priced without touching the grid, by one kernel per edit
//! shape over the disks' span tables: `CoverageGrid::delta_one` (birth,
//! death), `CoverageGrid::delta_pair` (translate, resize, replace) and
//! `CoverageGrid::delta_sweep` (split, merge, anything up to
//! `SPAN_DISKS` tables). They are the row walker of
//! `config::walk_delta_log_lik` with the per-row work hoisted out,
//! and are held to it bit for bit. **Invariant: same segments, same order,
//! same formula.** A row's spans are cut into the same constant-net
//! segments, each segment is resolved as `CoverageGrid::segment_delta`
//! resolves it — one prefix subtraction when the tested bits are clear, an
//! ascending masked sum per bitset word otherwise, nothing where a removed
//! and an added disk both lie — and the results are added to the running
//! delta rows ascending, left to right. Every `f64` addition therefore
//! happens with the same operands in the same order, and the
//! `SpanTally` counts the same work. What the kernels drop is
//! bookkeeping: rows are sliced once per evaluation, a segment (at most
//! `spans::SPAN_ROWS` pixels, so inside one 64-bit window of its
//! row) is tested with two loads and a shift, and a sliver that turns out
//! empty is not branched around but contributes `−0.0`, the one value that
//! leaves every bit of every accumulator alone.

use crate::likelihood::Gain;
use crate::math::{ceil_i64, floor_i64};
use crate::spans::SpanTable;
use pmcmc_imaging::{Circle, Rect};

/// Most tables [`CoverageGrid::delta_sweep`] takes (every built-in move
/// touches at most 3 disks).
pub(crate) const SPAN_DISKS: usize = 4;

/// Cover counts over a rectangular region of the image.
///
/// Alongside the raw `u16` counts the grid maintains two per-row bitsets
/// (`occ`: count ≥ 1, `multi`: count ≥ 2) and a running covered-pixel
/// counter, so the overlap-free fast paths and [`CoverageGrid::covered_pixels`]
/// never rescan the counts array.
#[derive(Debug, Clone)]
pub struct CoverageGrid {
    /// The region this grid represents, in global image coordinates.
    rect: Rect,
    counts: Vec<u16>,
    /// Per-row occupancy bitset: bit `x - rect.x0` of row `y - rect.y0` is
    /// set iff the pixel's count is ≥ 1. `words_per_row` u64 words per row.
    occ: Vec<u64>,
    /// Per-row multi-coverage bitset: bit set iff the count is ≥ 2.
    multi: Vec<u64>,
    words_per_row: usize,
    /// Running number of covered pixels (count ≥ 1).
    covered: usize,
}

/// Equality is defined by the counts (the bitsets and covered counter are
/// derived state and always consistent with them).
impl PartialEq for CoverageGrid {
    fn eq(&self, other: &Self) -> bool {
        self.rect == other.rect && self.counts == other.counts
    }
}

impl Eq for CoverageGrid {}

/// The rows `y_lo..=y_hi` of `rect` that `circle`'s disk can reach. Empty
/// (`y_lo > y_hi`) when the disk lies wholly above or below `rect`.
#[inline]
pub(crate) fn disk_row_range(circle: &Circle, rect: &Rect) -> (i64, i64) {
    (
        ceil_i64(circle.y - circle.r - 0.5).max(rect.y0),
        floor_i64(circle.y + circle.r - 0.5).min(rect.y1 - 1),
    )
}

/// The pixels `x0..=x1` of row `py` whose centres lie in `circle`'s disk
/// (`r2` is its squared radius), clipped to `rect`; `None` when the row
/// misses the disk or the clip leaves nothing. The one definition of the
/// span arithmetic: every walker — apply, read-only, general — gets its
/// spans here, and rounds with the libm-free [`crate::math::floor_i64`] /
/// [`crate::math::ceil_i64`].
#[inline]
pub(crate) fn disk_row_span(circle: &Circle, r2: f64, py: i64, rect: &Rect) -> Option<(i64, i64)> {
    let dy = py as f64 + 0.5 - circle.y;
    let h2 = r2 - dy * dy;
    if h2 < 0.0 {
        return None;
    }
    let h = h2.sqrt();
    let x0 = ceil_i64(circle.x - h - 0.5).max(rect.x0);
    let x1 = floor_i64(circle.x + h - 0.5).min(rect.x1 - 1);
    (x0 <= x1).then_some((x0, x1))
}

/// Every row span of `circle`'s disk clipped to `rect` as `(y, x0, x1)` with
/// `x0..=x1` inclusive, in ascending `y` — what "the disk's pixels" means to
/// add, remove and the read-only evaluation alike: rows from
/// `disk_row_range`, spans from `disk_row_span`, empty rows skipped. A
/// [`SpanTable`] holds the same rows.
pub(crate) fn disk_rows(circle: &Circle, rect: &Rect) -> impl Iterator<Item = (i64, i64, i64)> {
    let (circle, rect) = (*circle, *rect);
    let (y0, y1) = disk_row_range(&circle, &rect);
    let r2 = circle.r * circle.r;
    (y0..=y1)
        .filter_map(move |py| disk_row_span(&circle, r2, py, &rect).map(|(x0, x1)| (py, x0, x1)))
}

/// Calls `f(y, x0, x1)` for every row span of `circle`'s disk clipped to
/// `rect`, in ascending `y`.
pub fn for_each_disk_row(circle: &Circle, rect: &Rect, mut f: impl FnMut(i64, i64, i64)) {
    disk_rows(circle, rect).for_each(|(y, x0, x1)| f(y, x0, x1));
}

/// Visits every integer pixel of `circle`'s disk clipped to `rect`,
/// row-by-row. Thin wrapper over [`for_each_disk_row`].
pub fn for_each_disk_pixel(circle: &Circle, rect: &Rect, mut f: impl FnMut(i64, i64)) {
    for_each_disk_row(circle, rect, |y, x0, x1| {
        for x in x0..=x1 {
            f(x, y);
        }
    });
}

/// Work accounting of read-only evaluations: filled in segment by segment,
/// flushed to [`crate::perf`] by whoever owns it — once per call at the
/// public entry points, once per `run` inside the samplers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpanTally {
    /// Proposals evaluated ([`crate::sampler::decide`],
    /// [`crate::sampler::evaluate_proposal`]).
    pub proposals: u64,
    /// Pixels whose bits or counts were looked at one by one.
    pub pixels: u64,
    /// Segments settled by one prefix subtraction.
    pub fast_hits: u64,
    /// Pixels settled without being looked at.
    pub skipped: u64,
}

impl SpanTally {
    /// Adds `other`'s counts. The kernels count into a local tally and hand
    /// it over once: a tally behind a reference has to be stored before
    /// every bounds check.
    #[inline(always)]
    fn absorb(&mut self, other: &SpanTally) {
        self.proposals += other.proposals;
        self.pixels += other.pixels;
        self.fast_hits += other.fast_hits;
        self.skipped += other.skipped;
    }

    /// Adds the counts to [`crate::perf`] and zeroes them.
    pub(crate) fn flush(&mut self) {
        crate::perf::add_proposals_evaluated(self.proposals);
        crate::perf::add_pixels_visited(self.pixels);
        crate::perf::add_span_fastpath_hits(self.fast_hits);
        crate::perf::add_pixels_skipped(self.skipped);
        *self = Self::default();
    }
}

/// One disk of an edit as the read-only evaluation
/// ([`crate::config::span_delta_log_lik`]) takes it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EditDisk<'a> {
    pub circle: Circle,
    /// The row spans of `circle` on the evaluated grid.
    pub spans: &'a SpanTable,
    pub is_add: bool,
}

impl EditDisk<'_> {
    /// Placeholder for the unused slots of a disk array.
    pub(crate) const NONE: Self = Self {
        circle: Circle::new(0.0, 0.0, 0.0),
        spans: &SpanTable::EMPTY,
        is_add: false,
    };
}

/// One grid row as the read-only kernels see it: occupancy words,
/// multi-coverage words, gain prefix sums.
type EvalRow<'a> = ((&'a [u64], &'a [u64]), &'a [f64]);

/// One disk's pixels `x0..=x1` on a row, and whether the disk is added.
pub(crate) type Span = (i64, i64, bool);

/// Bits `b..b + 64` of a bitset row, low bit first. Bits past the row's last
/// word read as copies of that word's, and `b` may be one past the last
/// bit: both only matter to a caller that masks with more bits than the row
/// has left.
#[inline(always)]
fn bit_window(words: &[u64], b: usize) -> u64 {
    let last = words.len() - 1;
    let w = (b / 64).min(last);
    let pair = u128::from(words[w]) | u128::from(words[(w + 1).min(last)]) << 64;
    (pair >> (b % 64)) as u64
}

/// `-v` if `negate`, else `v`, without a branch.
#[inline(always)]
fn negate_if(v: f64, negate: bool) -> f64 {
    f64::from_bits(v.to_bits() ^ u64::from(negate) << 63)
}

/// Resolves one row's spans (sorted by start): splits them into maximal
/// runs of touching or overlapping spans and sweeps each, left to right.
/// `resolve((x0, x1), (plus, minus))` prices one constant-net segment
/// ([`CoverageGrid::segment_delta`]).
#[inline]
pub(crate) fn sweep_row(
    spans: &[Span],
    delta: &mut f64,
    mut resolve: impl FnMut((i64, i64), (u32, u32)) -> f64,
) {
    let mut i = 0;
    while i < spans.len() {
        let mut hi = spans[i].1;
        let mut j = i + 1;
        while j < spans.len() && spans[j].0 <= hi + 1 {
            hi = hi.max(spans[j].1);
            j += 1;
        }
        sweep_run(&spans[i..j], hi, delta, &mut resolve);
        i = j;
    }
}

/// Sweeps one merged run of a row — `spans`, sorted by start, which
/// together cover every pixel up to `hi`: cuts it into segments over which
/// the set of active spans — hence the numbers of added and removed disks
/// over every pixel — is constant, and adds each segment's price to
/// `delta`, left to right. A run of one span is one segment; a move's
/// removed/added pair is at most a sliver on either side of an
/// intersection that resolves to nothing.
#[inline]
fn sweep_run(
    spans: &[Span],
    hi: i64,
    delta: &mut f64,
    resolve: &mut impl FnMut((i64, i64), (u32, u32)) -> f64,
) {
    let mut x = spans[0].0;
    while x <= hi {
        // Next segment boundary: the nearest span start or end beyond `x`.
        let mut next = hi + 1;
        let mut minus = 0;
        let mut plus = 0;
        for &(sx0, sx1, is_add) in spans {
            if sx0 > x {
                next = next.min(sx0);
                continue;
            }
            if sx1 >= x {
                if is_add {
                    plus += 1;
                } else {
                    minus += 1;
                }
                next = next.min(sx1 + 1);
            }
        }
        *delta += resolve((x, next - 1), (plus, minus));
        x = next;
    }
}

/// True iff bits `b0..=b1` of `words` are all zero.
#[inline]
fn span_bits_all_zero(words: &[u64], b0: usize, b1: usize) -> bool {
    let (w0, w1) = (b0 / 64, b1 / 64);
    let first = !0u64 << (b0 % 64);
    let last = !0u64 >> (63 - b1 % 64);
    if w0 == w1 {
        return words[w0] & first & last == 0;
    }
    if words[w0] & first != 0 || words[w1] & last != 0 {
        return false;
    }
    words[w0 + 1..w1].iter().all(|&w| w == 0)
}

/// Sets bits `b0..=b1` of `words`.
#[inline]
fn span_bits_set(words: &mut [u64], b0: usize, b1: usize) {
    let (w0, w1) = (b0 / 64, b1 / 64);
    let first = !0u64 << (b0 % 64);
    let last = !0u64 >> (63 - b1 % 64);
    if w0 == w1 {
        words[w0] |= first & last;
        return;
    }
    words[w0] |= first;
    words[w1] |= last;
    for w in &mut words[w0 + 1..w1] {
        *w = !0;
    }
}

/// Clears bits `b0..=b1` of `words`.
#[inline]
fn span_bits_clear(words: &mut [u64], b0: usize, b1: usize) {
    let (w0, w1) = (b0 / 64, b1 / 64);
    let first = !0u64 << (b0 % 64);
    let last = !0u64 >> (63 - b1 % 64);
    if w0 == w1 {
        words[w0] &= !(first & last);
        return;
    }
    words[w0] &= !first;
    words[w1] &= !last;
    for w in &mut words[w0 + 1..w1] {
        *w = 0;
    }
}

/// Mask of `len` bits starting at bit `shift` (`shift + len ≤ 64`).
#[inline]
fn window_mask(shift: usize, len: usize) -> u64 {
    debug_assert!(len >= 1 && shift + len <= 64);
    (!0u64 >> (64 - len)) << shift
}

/// Mixed-span add. The key identity: on a `+1` the crossing masks are
/// already encoded in the bitsets — a pixel crosses 0→1 iff its `occ` bit
/// is clear, and 1→2 iff `occ` is set but `multi` clear — so no coverage
/// count ever needs *comparing*. The counts are bumped with one bulk
/// (auto-vectorised) increment, the masks come from word-level bitset
/// algebra, and only the newly covered pixels' gains are read (ascending,
/// via [`crate::simd::sum_masked`]). Outlined so the overlap-free fast
/// path in `add_circle` stays small enough to inline cleanly.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn mixed_add_row(
    counts: &mut [u16],
    occ: &mut [u64],
    multi: &mut [u64],
    gain_row: &[f64],
    b0: usize,
    b1: usize,
    x0: usize,
    covered: &mut usize,
) -> f64 {
    for c in &mut counts[b0..=b1] {
        *c += 1;
    }
    // Global x of bit 0 of word 0 (`x0 ≥ b0`: rects live in image space).
    let rx0 = x0 - b0;
    let (w0, w1) = (b0 / 64, b1 / 64);
    let first = !0u64 << (b0 % 64);
    let last = !0u64 >> (63 - b1 % 64);
    let mut dlog = 0.0;
    for w in w0..=w1 {
        let mut wmask = !0u64;
        if w == w0 {
            wmask &= first;
        }
        if w == w1 {
            wmask &= last;
        }
        let became1 = !occ[w] & wmask;
        let became2 = occ[w] & !multi[w] & wmask;
        occ[w] |= became1;
        multi[w] |= became2;
        if became1 != 0 {
            *covered += became1.count_ones() as usize;
            dlog += crate::simd::sum_masked(&gain_row[rx0 + w * 64..], became1);
        }
    }
    dlog
}

/// Clears a crossing mask (bit `k` ↔ row bit `b + k`) from a row's bitset
/// words. The mask may straddle one word boundary; a non-zero spill bit
/// implies the corresponding pixel exists, so `words[w + 1]` is in range.
#[inline]
fn merge_bits_clear(words: &mut [u64], b: usize, mask: u64) {
    let (w, shift) = (b / 64, b % 64);
    words[w] &= !(mask << shift);
    if shift != 0 {
        let spill = mask >> (64 - shift);
        if spill != 0 {
            words[w + 1] &= !spill;
        }
    }
}

/// Mixed-span remove. Unlike the add direction, the 2→1 crossings are
/// invisible to the bitsets (counts 2 and 3 both read `occ`+`multi`), so
/// the span goes through the fused [`crate::simd::remove_span`] lane
/// kernel in unaligned ≤ 64-pixel chunks (one chunk for every disk with
/// r ≤ 32 — word alignment is *not* required, so a typical ~20-pixel span
/// is a single full-width kernel call) and the crossing masks are patched
/// across word boundaries. Callers subtract the returned leaving-gain sum.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn mixed_remove_row(
    counts: &mut [u16],
    occ: &mut [u64],
    multi: &mut [u64],
    gain_row: &[f64],
    b0: usize,
    b1: usize,
    x0: usize,
    covered: &mut usize,
) -> f64 {
    let mut dlog = 0.0;
    let mut b = b0;
    while b <= b1 {
        let hi = b1.min(b + 63);
        let gx = x0 + (b - b0);
        let (became0, became1, sum) =
            crate::simd::remove_span(&mut counts[b..=hi], &gain_row[gx..=gx + (hi - b)]);
        merge_bits_clear(occ, b, became0);
        merge_bits_clear(multi, b, became1);
        *covered -= became0.count_ones() as usize;
        dlog += sum;
        b = hi + 1;
    }
    dlog
}

impl CoverageGrid {
    /// Creates an all-zero grid covering `rect`.
    #[must_use]
    pub fn new(rect: Rect) -> Self {
        let words_per_row = (rect.width().max(0) as usize).div_ceil(64);
        let rows = rect.height().max(0) as usize;
        Self {
            rect,
            counts: vec![0; rect.area().max(0) as usize],
            occ: vec![0; rows * words_per_row],
            multi: vec![0; rows * words_per_row],
            words_per_row,
            covered: 0,
        }
    }

    /// The region this grid represents.
    #[must_use]
    pub const fn rect(&self) -> Rect {
        self.rect
    }

    #[inline]
    fn index(&self, x: i64, y: i64) -> usize {
        debug_assert!(self.rect.contains(x, y));
        ((y - self.rect.y0) as usize) * (self.rect.width() as usize) + (x - self.rect.x0) as usize
    }

    /// Cover count of global pixel `(x, y)` (0 when outside the region).
    #[must_use]
    pub fn count(&self, x: i64, y: i64) -> u16 {
        if self.rect.contains(x, y) {
            self.counts[self.index(x, y)]
        } else {
            0
        }
    }

    /// The cover counts of row `y` (global coordinate) as a slice indexed
    /// by `x - rect.x0`.
    ///
    /// # Panics
    /// Panics if `y` lies outside the grid's region.
    #[must_use]
    pub fn row(&self, y: i64) -> &[u16] {
        assert!(y >= self.rect.y0 && y < self.rect.y1, "row outside grid");
        let w = self.rect.width() as usize;
        let start = ((y - self.rect.y0) as usize) * w;
        &self.counts[start..start + w]
    }

    /// Occupancy and multi-coverage bitset words of row `y` (global
    /// coordinate); bit `x - rect.x0` of `occ` is set iff the pixel's
    /// count is ≥ 1, of `multi` iff it is ≥ 2.
    #[inline]
    fn bit_rows(&self, y: i64) -> (&[u64], &[u64]) {
        let wpr = self.words_per_row;
        let start = ((y - self.rect.y0) as usize) * wpr;
        (
            &self.occ[start..start + wpr],
            &self.multi[start..start + wpr],
        )
    }

    /// Log-likelihood change of pixels `x0..=x1` of row `y` (global
    /// coordinates, inside the grid) when every one of them gains `plus`
    /// covering disks and loses `minus` — a constant-net segment of a
    /// read-only evaluation. A pixel's likelihood term flips only when its
    /// count crosses 0↔1, and a removed disk covers its own pixels (count
    /// ≥ `minus` before the edit), so:
    ///
    /// * `plus > 0` and `minus > 0`: covered before (by the removed disk)
    ///   and after (by the added one) — nothing flips, nothing is read;
    /// * one kind of disk only, `minus ≤ 1`: the occupancy bitsets decide
    ///   (`one_disk_delta` — any number of added disks switches on exactly
    ///   the uncovered pixels);
    /// * `minus ≥ 2`: pixels with count ≤ `minus` switch off, which only
    ///   the counts can tell ([`crate::simd::sum_gain_flips`]).
    pub(crate) fn segment_delta(
        &self,
        gain: &Gain,
        y: i64,
        (x0, x1): (i64, i64),
        (plus, minus): (u32, u32),
        tally: &mut SpanTally,
    ) -> f64 {
        if (plus > 0) == (minus > 0) {
            tally.skipped += (x1 - x0 + 1) as u64;
            0.0
        } else if minus >= 2 {
            tally.pixels += (x1 - x0 + 1) as u64;
            crate::simd::sum_gain_flips(
                &self.row(y)[(x0 - self.rect.x0) as usize..=(x1 - self.rect.x0) as usize],
                &gain.row(y as u32)[x0 as usize..=x1 as usize],
                -i64::from(minus),
            )
        } else {
            self.one_disk_delta(gain, y, (x0, x1), plus > 0, tally)
        }
    }

    /// Log-likelihood change of pixels `x0..=x1` of row `y` when one disk
    /// that covers them all is added (`is_add`) or removed, read off the
    /// bitsets: an add switches on the uncovered pixels (clear `occ`
    /// bits), a remove switches off the singly covered ones (`occ &
    /// !multi`). When that is the whole segment — no `occ` bit set, resp.
    /// no `multi` bit set — the sum is one [`Gain::row_prefix`]
    /// subtraction; otherwise [`Self::mixed_segment`] walks the bits.
    #[inline]
    fn one_disk_delta(
        &self,
        gain: &Gain,
        y: i64,
        (x0, x1): (i64, i64),
        is_add: bool,
        tally: &mut SpanTally,
    ) -> f64 {
        debug_assert!(y >= self.rect.y0 && y < self.rect.y1, "row outside grid");
        debug_assert!(
            x0 >= self.rect.x0 && x1 < self.rect.x1 && x0 <= x1,
            "segment outside grid"
        );
        let b0 = (x0 - self.rect.x0) as usize;
        let b1 = (x1 - self.rect.x0) as usize;
        let (occ, multi) = self.bit_rows(y);
        if !span_bits_all_zero(if is_add { occ } else { multi }, b0, b1) {
            tally.pixels += (x1 - x0 + 1) as u64;
            return self.mixed_segment(gain, y, (x0, x1), is_add);
        }
        tally.fast_hits += 1;
        tally.skipped += (x1 - x0 + 1) as u64;
        let pre = gain.row_prefix(y as u32);
        let sum = pre[(x1 + 1) as usize] - pre[x0 as usize];
        negate_if(sum, !is_add)
    }

    /// [`Self::one_disk_delta`] where some pixel of the segment does not
    /// flip: the flipping bits are walked in ascending `x`, one partial sum
    /// per bitset word. Cold next to the prefix subtraction: a twentieth
    /// of the segments on a dense scene, and marked so that the kernels'
    /// row loops keep their accumulators in registers around the call.
    #[cold]
    #[inline(never)]
    fn mixed_segment(&self, gain: &Gain, y: i64, (x0, x1): (i64, i64), is_add: bool) -> f64 {
        let b0 = (x0 - self.rect.x0) as usize;
        let b1 = (x1 - self.rect.x0) as usize;
        let (occ, multi) = self.bit_rows(y);
        let gains = &gain.row(y as u32)[self.rect.x0 as usize..];
        let (w0, w1) = (b0 / 64, b1 / 64);
        let first = !0u64 << (b0 % 64);
        let last = !0u64 >> (63 - b1 % 64);
        let mut sum = 0.0;
        for w in w0..=w1 {
            let mut m = if is_add { !occ[w] } else { occ[w] & !multi[w] };
            if w == w0 {
                m &= first;
            }
            if w == w1 {
                m &= last;
            }
            if m != 0 {
                sum += crate::simd::sum_masked(&gains[w * 64..], m);
            }
        }
        negate_if(sum, !is_add)
    }

    /// Rows `y..y + n` as the read-only kernels see them. `n` rows must
    /// exist, and the grid must not be zero pixels wide.
    #[inline(always)]
    fn eval_rows<'a>(
        &'a self,
        gain: &'a Gain,
        y: i64,
        n: usize,
    ) -> impl Iterator<Item = EvalRow<'a>> {
        let wpr = self.words_per_row;
        let start = (y - self.rect.y0) as usize * wpr;
        let words = start..start + n * wpr;
        self.occ[words.clone()]
            .chunks_exact(wpr)
            .zip(self.multi[words].chunks_exact(wpr))
            .zip(gain.prefix_rows(y as usize, n))
    }

    /// [`Self::one_disk_delta`] for the `len` pixels from `x0` of an
    /// already sliced row `y`, `len < 64` — any part of a table's span. An
    /// empty segment (`len == 0`, with `x0` at most one past the row's last
    /// pixel) counts nothing and is worth `−0.0`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn short_segment(
        &self,
        gain: &Gain,
        ((occ, multi), pre): EvalRow<'_>,
        y: i64,
        x0: i64,
        len: i64,
        is_add: bool,
        tally: &mut SpanTally,
    ) -> f64 {
        debug_assert!((0..64).contains(&len), "segment longer than a table row");
        let b = (x0 - self.rect.x0) as usize;
        let tested = bit_window(if is_add { occ } else { multi }, b);
        if tested & ((1u64 << len) - 1) != 0 {
            tally.pixels += len as u64;
            return self.mixed_segment(gain, y, (x0, x0 + len - 1), is_add);
        }
        tally.fast_hits += u64::from(len > 0);
        tally.skipped += len as u64;
        let sum = pre[(x0 + len) as usize] - pre[x0 as usize];
        negate_if(sum, !is_add || len == 0)
    }

    /// Adds to `delta` what rows `rows` (indices into the table) of a disk
    /// contribute when nothing else of the edit reaches them.
    #[inline(always)]
    fn walk_one(
        &self,
        gain: &Gain,
        table: &SpanTable,
        rows: std::ops::Range<usize>,
        is_add: bool,
        delta: &mut f64,
        tally: &mut SpanTally,
    ) {
        if rows.is_empty() {
            return;
        }
        let y = table.y0() + rows.start as i64;
        let spans = table.x0s()[rows.clone()]
            .iter()
            .zip(&table.x1s()[rows.clone()]);
        for ((row, y), (&x0, &x1)) in self.eval_rows(gain, y, rows.len()).zip(y..).zip(spans) {
            let (x0, x1) = (i64::from(x0), i64::from(x1));
            *delta += self.short_segment(gain, row, y, x0, x1 - x0 + 1, is_add, tally);
        }
    }

    /// What one row contributes where a removed span `r0..=r1` and an added
    /// span `a0..=a1` both lie on it: the part of whichever starts first
    /// that the other does not cover, nothing where both lie, the part of
    /// whichever ends last. Spans apart are two whole segments, spans
    /// nested leave the outer one's two ends, and either part may be empty.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn pair_row(
        &self,
        gain: &Gain,
        row: EvalRow<'_>,
        y: i64,
        (r0, r1): (i64, i64),
        (a0, a1): (i64, i64),
        delta: &mut f64,
        tally: &mut SpanTally,
    ) {
        let removed_first = r0 < a0;
        let first_end = if removed_first { r1 } else { a1 };
        let left_len = first_end.min(r0.max(a0) - 1) - r0.min(a0) + 1;
        *delta += self.short_segment(gain, row, y, r0.min(a0), left_len, !removed_first, tally);
        tally.skipped += (r1.min(a1) - r0.max(a0) + 1).max(0) as u64;
        let removed_last = r1 > a1;
        let last_start = if removed_last { r0 } else { a0 };
        let right = last_start.max(r1.min(a1) + 1);
        let right_len = r1.max(a1) - right + 1;
        *delta += self.short_segment(gain, row, y, right, right_len, !removed_last, tally);
    }

    /// Log-likelihood change of adding (`is_add`) or removing the disk of
    /// `table`, the grid left as it is: the birth/death kernel.
    pub(crate) fn delta_one(
        &self,
        gain: &Gain,
        table: &SpanTable,
        is_add: bool,
        tally: &mut SpanTally,
    ) -> f64 {
        let mut delta = 0.0;
        let mut counted = SpanTally::default();
        self.walk_one(
            gain,
            table,
            0..table.len(),
            is_add,
            &mut delta,
            &mut counted,
        );
        tally.absorb(&counted);
        delta
    }

    /// Log-likelihood change of removing the disk of `removed` and adding
    /// that of `added`: the translate/resize/replace kernel. Rows only the
    /// upper disk reaches, rows both reach, rows only the lower disk
    /// reaches — the gap between two disks far apart is never visited.
    pub(crate) fn delta_pair(
        &self,
        gain: &Gain,
        removed: &SpanTable,
        added: &SpanTable,
        tally: &mut SpanTally,
    ) -> f64 {
        if removed.len() == 0 {
            return self.delta_one(gain, added, true, tally);
        }
        if added.len() == 0 {
            return self.delta_one(gain, removed, false, tally);
        }
        let removed_on_top = removed.y0() <= added.y0();
        let (top, low) = if removed_on_top {
            (removed, added)
        } else {
            (added, removed)
        };
        let mut delta = 0.0;
        let counted = &mut SpanTally::default();
        let head = (low.y0().min(top.y_end()) - top.y0()) as usize;
        self.walk_one(gain, top, 0..head, !removed_on_top, &mut delta, counted);

        let both_end = top.y_end().min(low.y_end());
        if both_end > low.y0() {
            let n = (both_end - low.y0()) as usize;
            let (r, a) = if removed_on_top {
                (head..head + n, 0..n)
            } else {
                (0..n, head..head + n)
            };
            let spans = removed.x0s()[r.clone()]
                .iter()
                .zip(&removed.x1s()[r])
                .zip(added.x0s()[a.clone()].iter().zip(&added.x1s()[a]));
            let rows = self.eval_rows(gain, low.y0(), n).zip(low.y0()..);
            for ((row, y), ((&r0, &r1), (&a0, &a1))) in rows.zip(spans) {
                let (r, a) = ((r0.into(), r1.into()), (a0.into(), a1.into()));
                self.pair_row(gain, row, y, r, a, &mut delta, counted);
            }
        }

        let top_is_last = top.y_end() >= low.y_end();
        let last = if top_is_last { top } else { low };
        let tail = (both_end.max(last.y0()) - last.y0()) as usize;
        let last_is_add = top_is_last != removed_on_top;
        self.walk_one(
            gain,
            last,
            tail..last.len(),
            last_is_add,
            &mut delta,
            counted,
        );
        tally.absorb(counted);
        delta
    }

    /// Log-likelihood change of an edit of up to [`SPAN_DISKS`] disks with
    /// held tables: the split/merge kernel. Per row, the spans of the
    /// tables that reach it are resolved like the row walker's — one span
    /// as a segment, a removed and an added one by [`Self::pair_row`],
    /// anything else by [`sweep_row`].
    pub(crate) fn delta_sweep(
        &self,
        gain: &Gain,
        disks: &[EditDisk<'_>],
        tally: &mut SpanTally,
    ) -> f64 {
        debug_assert!(disks.len() <= SPAN_DISKS, "sweep holds {SPAN_DISKS} disks");
        let reached = disks.iter().map(|d| d.spans).filter(|t| t.len() > 0);
        let y_lo = reached.clone().map(SpanTable::y0).min();
        let y_end = reached.map(SpanTable::y_end).max();
        let (Some(y_lo), Some(y_end)) = (y_lo, y_end) else {
            return 0.0;
        };
        let mut delta = 0.0;
        let rows = self.eval_rows(gain, y_lo, (y_end - y_lo) as usize);
        for (row, y) in rows.zip(y_lo..) {
            let mut spans: [Span; SPAN_DISKS] = [(0, 0, false); SPAN_DISKS];
            let mut ns = 0;
            for disk in disks {
                let table = disk.spans;
                // Negative (the table starts below) wraps past any length.
                let k = (y - table.y0()) as usize;
                if k < table.len() {
                    spans[ns] = (table.x0s()[k].into(), table.x1s()[k].into(), disk.is_add);
                    ns += 1;
                }
            }
            let (a, b) = (spans[0], spans[1]);
            if ns == 1 {
                delta += self.short_segment(gain, row, y, a.0, a.1 - a.0 + 1, a.2, tally);
            } else if ns == 2 && a.2 != b.2 {
                let (r, a) = if a.2 { (b, a) } else { (a, b) };
                self.pair_row(gain, row, y, (r.0, r.1), (a.0, a.1), &mut delta, tally);
            } else if ns >= 2 {
                // Insertion sort by start (at most four spans).
                for i in 1..ns {
                    let mut j = i;
                    while j > 0 && spans[j - 1].0 > spans[j].0 {
                        spans.swap(j - 1, j);
                        j -= 1;
                    }
                }
                sweep_row(&spans[..ns], &mut delta, |(x0, x1), (plus, minus)| {
                    if plus.min(minus) == 0 && minus < 2 {
                        self.short_segment(gain, row, y, x0, x1 - x0 + 1, plus > 0, tally)
                    } else {
                        self.segment_delta(gain, y, (x0, x1), (plus, minus), tally)
                    }
                });
            }
        }
        delta
    }

    /// Adds (`ADD`) or removes `rows` (`(y, x0, x1)`, inside the grid) as one
    /// disk; returns the log-likelihood delta — the summed gains of the
    /// pixels newly covered, resp. minus those of the pixels uncovered.
    fn apply_rows<const ADD: bool>(
        &mut self,
        rows: impl Iterator<Item = (i64, i64, i64)>,
        gain: &Gain,
    ) -> f64 {
        let mut dlog = 0.0;
        let rect = self.rect;
        let w = rect.width() as usize;
        let wpr = self.words_per_row;
        let mut fast_hits = 0u64;
        let mut skipped = 0u64;
        for (y, x0, x1) in rows {
            let row = (y - rect.y0) as usize;
            let b0 = (x0 - rect.x0) as usize;
            let b1 = (x1 - rect.x0) as usize;
            let len = b1 - b0 + 1;
            let counts = &mut self.counts[row * w..(row + 1) * w];
            let occ = &mut self.occ[row * wpr..(row + 1) * wpr];
            let multi = &mut self.multi[row * wpr..(row + 1) * wpr];
            // An add over no covered pixel crosses 0→1 everywhere, a remove
            // over no doubly covered pixel (every count exactly 1) crosses
            // 1→0 everywhere: the gain sum is one prefix-table subtraction.
            if span_bits_all_zero(if ADD { occ } else { multi }, b0, b1) {
                let pre = gain.row_prefix(y as u32);
                let sum = pre[(x1 + 1) as usize] - pre[x0 as usize];
                if ADD {
                    dlog += sum;
                    counts[b0..=b1].fill(1);
                    span_bits_set(occ, b0, b1);
                    self.covered += len;
                } else {
                    debug_assert!(counts[b0..=b1].iter().all(|&c| c == 1));
                    dlog -= sum;
                    counts[b0..=b1].fill(0);
                    span_bits_clear(occ, b0, b1);
                    self.covered -= len;
                }
                fast_hits += 1;
                skipped += len as u64;
            } else {
                let (gains, covered) = (gain.row(y as u32), &mut self.covered);
                if ADD {
                    dlog += mixed_add_row(counts, occ, multi, gains, b0, b1, x0 as usize, covered);
                } else {
                    dlog -=
                        mixed_remove_row(counts, occ, multi, gains, b0, b1, x0 as usize, covered);
                }
            }
        }
        crate::perf::add_span_fastpath_hits(fast_hits);
        crate::perf::add_pixels_skipped(skipped);
        dlog
    }

    /// Adds `circle`'s disk, whose rows `spans` holds unless the disk is too
    /// large for a table; returns the log-likelihood delta.
    pub(crate) fn add_disk(&mut self, circle: &Circle, spans: &SpanTable, gain: &Gain) -> f64 {
        if spans.held() {
            self.apply_rows::<true>(spans.rows(), gain)
        } else {
            self.apply_rows::<true>(disk_rows(circle, &self.rect), gain)
        }
    }

    /// Removes `circle`'s disk, whose rows `spans` holds unless the disk is
    /// too large for a table; returns the log-likelihood delta.
    pub(crate) fn remove_disk(&mut self, circle: &Circle, spans: &SpanTable, gain: &Gain) -> f64 {
        if spans.held() {
            self.apply_rows::<false>(spans.rows(), gain)
        } else {
            self.apply_rows::<false>(disk_rows(circle, &self.rect), gain)
        }
    }

    /// Adds a circle's disk; returns the log-likelihood delta (sum of gains
    /// of pixels newly covered).
    pub fn add_circle(&mut self, circle: &Circle, gain: &Gain) -> f64 {
        self.add_disk(circle, &SpanTable::of(circle, &self.rect), gain)
    }

    /// Removes a circle's disk; returns the log-likelihood delta (negative
    /// sum of gains of pixels no longer covered).
    ///
    /// # Panics
    /// Panics in debug builds if a disk pixel has zero count (grid/circle
    /// mismatch).
    pub fn remove_circle(&mut self, circle: &Circle, gain: &Gain) -> f64 {
        self.remove_disk(circle, &SpanTable::of(circle, &self.rect), gain)
    }

    /// Builds the grid for a set of circles from scratch and returns the
    /// grid together with the total covered-gain sum (the configuration's
    /// log-likelihood relative to empty, restricted to `rect`).
    #[must_use]
    pub fn from_circles(rect: Rect, circles: &[Circle], gain: &Gain) -> (Self, f64) {
        let mut grid = Self::new(rect);
        let mut total = 0.0;
        for c in circles {
            total += grid.add_circle(c, gain);
        }
        (grid, total)
    }

    /// Recomputes the occupancy/multi bits and the covered contribution of
    /// columns `b0..=b1` (local indices) of local row `row` from the
    /// counts, returning the number of covered pixels in that range.
    fn rebuild_row_bits(&mut self, row: usize, b0: usize, b1: usize) -> usize {
        let w = self.rect.width() as usize;
        let wpr = self.words_per_row;
        let counts = &self.counts[row * w..(row + 1) * w];
        let occ = &mut self.occ[row * wpr..(row + 1) * wpr];
        let multi = &mut self.multi[row * wpr..(row + 1) * wpr];
        let mut covered = 0usize;
        let mut lanes = 0u64;
        let mut b = b0;
        while b <= b1 {
            let word = b / 64;
            let hi = b1.min(word * 64 + 63);
            let (occ_m, multi_m) = crate::simd::occupancy_masks(&counts[b..=hi]);
            let shift = b % 64;
            let window = window_mask(shift, hi - b + 1);
            occ[word] = (occ[word] & !window) | (occ_m << shift);
            multi[word] = (multi[word] & !window) | (multi_m << shift);
            covered += occ_m.count_ones() as usize;
            lanes += (hi - b + 1) as u64;
            b = hi + 1;
        }
        crate::simd::record_lanes(lanes);
        covered
    }

    /// Copies out the sub-grid for `sub` (must be contained in this grid's
    /// region).
    ///
    /// # Panics
    /// Panics if `sub` is not contained in the grid's region.
    #[must_use]
    pub fn crop(&self, sub: Rect) -> CoverageGrid {
        assert_eq!(
            sub.intersect(&self.rect),
            sub,
            "crop region must lie inside the grid"
        );
        let mut out = CoverageGrid::new(sub);
        let w = sub.width() as usize;
        if w == 0 {
            return out;
        }
        for y in sub.y0..sub.y1 {
            let src = self.index(sub.x0, y);
            let dst = out.index(sub.x0, y);
            out.counts[dst..dst + w].copy_from_slice(&self.counts[src..src + w]);
            let row = (y - sub.y0) as usize;
            out.covered += out.rebuild_row_bits(row, 0, w - 1);
        }
        out
    }

    /// Number of covered pixels (count ≥ 1); maintained incrementally, so
    /// this is O(1).
    #[must_use]
    pub const fn covered_pixels(&self) -> usize {
        self.covered
    }

    /// Asserts that the derived bitsets and covered counter agree with the
    /// counts array. Test/debug aid — O(area).
    ///
    /// # Panics
    /// Panics on any inconsistency.
    pub fn assert_derived_state(&self) {
        let w = self.rect.width() as usize;
        let mut covered = 0usize;
        for y in self.rect.y0..self.rect.y1 {
            let (occ, multi) = self.bit_rows(y);
            let counts = self.row(y);
            for (k, &c) in counts.iter().enumerate() {
                let occ_bit = occ[k / 64] >> (k % 64) & 1 == 1;
                let multi_bit = multi[k / 64] >> (k % 64) & 1 == 1;
                assert_eq!(occ_bit, c >= 1, "occ bit wrong at ({k},{y})");
                assert_eq!(multi_bit, c >= 2, "multi bit wrong at ({k},{y})");
                covered += usize::from(c >= 1);
            }
            // Tail bits past the row width must stay clear.
            for b in w..occ.len() * 64 {
                assert_eq!(occ[b / 64] >> (b % 64) & 1, 0, "stray occ tail bit row {y}");
                assert_eq!(
                    multi[b / 64] >> (b % 64) & 1,
                    0,
                    "stray multi tail bit row {y}"
                );
            }
        }
        assert_eq!(covered, self.covered, "covered counter drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;
    use pmcmc_imaging::GrayImage;

    fn setup(w: u32, h: u32) -> (ModelParams, Gain) {
        let p = ModelParams::new(w, h, 5.0, 6.0);
        let img = GrayImage::from_fn(w, h, |x, y| ((x * 13 + y * 7) % 10) as f32 / 10.0);
        let g = Gain::from_image(&img, &p);
        (p, g)
    }

    #[test]
    fn disk_pixels_match_covers_pixel() {
        let rect = Rect::new(0, 0, 40, 40);
        for &c in &[
            Circle::new(20.0, 20.0, 7.3),
            Circle::new(0.5, 0.5, 3.0),
            Circle::new(39.0, 20.0, 5.0),
            Circle::new(20.2, 19.7, 0.6),
        ] {
            let mut via_iter = std::collections::HashSet::new();
            for_each_disk_pixel(&c, &rect, |x, y| {
                via_iter.insert((x, y));
            });
            for y in 0..40 {
                for x in 0..40 {
                    assert_eq!(
                        c.covers_pixel(x, y),
                        via_iter.contains(&(x, y)),
                        "pixel ({x},{y}) circle {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn disk_rows_are_contiguous_inclusive_spans() {
        let rect = Rect::new(0, 0, 64, 64);
        let c = Circle::new(30.3, 29.8, 9.7);
        let mut rows = Vec::new();
        for_each_disk_row(&c, &rect, |y, x0, x1| {
            assert!(x0 <= x1, "empty spans must be skipped");
            rows.push((y, x0, x1));
        });
        let mut via_pixels = std::collections::HashMap::<i64, (i64, i64)>::new();
        for_each_disk_pixel(&c, &rect, |x, y| {
            let e = via_pixels.entry(y).or_insert((x, x));
            e.0 = e.0.min(x);
            e.1 = e.1.max(x);
        });
        assert_eq!(rows.len(), via_pixels.len());
        for (y, x0, x1) in rows {
            assert_eq!(via_pixels[&y], (x0, x1), "row {y}");
        }
    }

    #[test]
    fn add_then_remove_is_identity() {
        let (_, gain) = setup(32, 32);
        let mut grid = CoverageGrid::new(Rect::new(0, 0, 32, 32));
        let base = grid.clone();
        let c = Circle::new(16.0, 16.0, 6.0);
        let d1 = grid.add_circle(&c, &gain);
        grid.assert_derived_state();
        let d2 = grid.remove_circle(&c, &gain);
        grid.assert_derived_state();
        assert!((d1 + d2).abs() < 1e-12);
        assert_eq!(grid, base);
        assert_eq!(grid.covered_pixels(), 0);
    }

    #[test]
    fn overlap_counts_gains_once() {
        let (_, gain) = setup(32, 32);
        let mut grid = CoverageGrid::new(Rect::new(0, 0, 32, 32));
        let a = Circle::new(14.0, 16.0, 6.0);
        let b = Circle::new(18.0, 16.0, 6.0);
        let da = grid.add_circle(&a, &gain);
        let db = grid.add_circle(&b, &gain);
        grid.assert_derived_state();
        // Total equals the union sum of gains.
        let mut union = std::collections::HashSet::new();
        for_each_disk_pixel(&a, &grid.rect(), |x, y| {
            union.insert((x, y));
        });
        for_each_disk_pixel(&b, &grid.rect(), |x, y| {
            union.insert((x, y));
        });
        let expect: f64 = union
            .iter()
            .map(|&(x, y)| gain.get(x as u32, y as u32))
            .sum();
        assert!((da + db - expect).abs() < 1e-9);
        assert_eq!(grid.covered_pixels(), union.len());
        // Removing one circle keeps the shared pixels covered.
        let dr = grid.remove_circle(&a, &gain);
        grid.assert_derived_state();
        let only_b: f64 = {
            let mut s = std::collections::HashSet::new();
            for_each_disk_pixel(&b, &grid.rect(), |x, y| {
                s.insert((x, y));
            });
            s.iter().map(|&(x, y)| gain.get(x as u32, y as u32)).sum()
        };
        assert!((da + db + dr - only_b).abs() < 1e-9);
    }

    /// Every `(plus, minus)` shape of [`CoverageGrid::segment_delta`]
    /// against the per-pixel definition — a pixel's gain enters when its
    /// count leaves 0 and leaves when its count reaches 0 — together with
    /// the path taken (prefix subtraction, bitset walk, counts, nothing).
    #[test]
    fn segment_delta_matches_per_pixel_definition() {
        let (_, gain) = setup(200, 32);
        let mut grid = CoverageGrid::new(Rect::new(0, 0, 200, 32));
        let y = 16;
        let oracle = |grid: &CoverageGrid, x0: i64, x1: i64, plus: u32, minus: u32| -> f64 {
            (x0..=x1)
                .map(|x| {
                    let before = i64::from(grid.count(x, y));
                    let after = before + i64::from(plus) - i64::from(minus);
                    assert!(after >= 0, "a removed disk covers its own pixels");
                    let g = gain.get(x as u32, y as u32);
                    match (before > 0, after > 0) {
                        (false, true) => g,
                        (true, false) => -g,
                        _ => 0.0,
                    }
                })
                .sum()
        };
        // Expected (pixels, fast_hits, skipped) for a segment of `len`.
        let looked_at = |len: u64| (len, 0, 0);
        let prefix = |len: u64| (0, 1, len);
        let nothing = |len: u64| (0, 0, len);
        let check = |grid: &CoverageGrid,
                     (x0, x1): (i64, i64),
                     (plus, minus): (u32, u32),
                     path: (u64, u64, u64)| {
            let mut tally = SpanTally::default();
            let got = grid.segment_delta(&gain, y, (x0, x1), (plus, minus), &mut tally);
            let want = oracle(grid, x0, x1, plus, minus);
            assert!(
                (got - want).abs() < 1e-9,
                "[{x0},{x1}] +{plus} -{minus}: {got} vs {want}"
            );
            assert_eq!(
                (tally.pixels, tally.fast_hits, tally.skipped),
                path,
                "[{x0},{x1}] +{plus} -{minus}"
            );
        };

        // Empty grid: adds of any multiplicity are one prefix subtraction,
        // across word boundaries too.
        check(&grid, (3, 150), (1, 0), prefix(148));
        check(&grid, (60, 70), (2, 0), prefix(11));
        check(&grid, (5, 9), (0, 0), nothing(5));

        // a covers 44..=76 of row 16, b covers 60..=100: 60..=76 doubly.
        let a = Circle::new(60.5, 16.5, 16.6);
        let b = Circle::new(80.5, 16.5, 20.6);
        grid.add_circle(&a, &gain);
        grid.add_circle(&b, &gain);
        assert_eq!(
            (grid.count(43, y), grid.count(44, y), grid.count(76, y)),
            (0, 1, 2)
        );
        assert_eq!(
            (grid.count(77, y), grid.count(100, y), grid.count(101, y)),
            (1, 1, 0)
        );

        check(&grid, (30, 110), (1, 0), looked_at(81)); // partly covered add
        check(&grid, (30, 43), (1, 0), prefix(14));
        check(&grid, (44, 76), (0, 1), looked_at(33)); // a: 60..=76 stay covered
        check(&grid, (44, 59), (0, 1), prefix(16)); // a's own pixels
        check(&grid, (60, 76), (0, 2), looked_at(17)); // a and b both go
        check(&grid, (60, 76), (1, 1), nothing(17)); // move pair intersection
        check(&grid, (60, 76), (1, 2), nothing(17)); // merge: net −1 under an add
        check(&grid, (60, 76), (2, 1), nothing(17)); // split: net +1 under a remove
    }

    /// An empty sliver is worth `−0.0` whatever its kind and wherever it
    /// starts — one past a row that is a whole number of words wide
    /// included — and counts as no work, so it leaves every accumulator as
    /// it found it: `−0.0`, which `+0.0` would turn, too.
    #[test]
    fn empty_sliver_leaves_a_negative_zero_accumulator_alone() {
        let (_, gain) = setup(128, 8);
        let mut grid = CoverageGrid::new(Rect::new(0, 0, 128, 8));
        grid.add_circle(&Circle::new(100.0, 4.0, 40.0), &gain);
        assert_eq!((grid.count(59, 3), grid.count(127, 3)), (0, 1));
        let row = grid.eval_rows(&gain, 3, 1).next().unwrap();
        let negative_zero = (-0.0f64).to_bits();
        for x0 in [0, 59, 60, 63, 64, 127, 128] {
            for is_add in [false, true] {
                let mut tally = SpanTally::default();
                let worth = grid.short_segment(&gain, row, 3, x0, 0, is_add, &mut tally);
                assert_eq!(worth.to_bits(), negative_zero, "x0 {x0} add {is_add}");
                assert_eq!(tally, SpanTally::default());
                let mut delta = -0.0f64;
                delta += worth;
                assert_eq!(delta.to_bits(), negative_zero);
                assert_eq!((1.5f64 + worth).to_bits(), 1.5f64.to_bits());
            }
        }
        // A removed and an added span that coincide: two empty slivers
        // around pixels that nothing happens to.
        let mut delta = -0.0f64;
        let mut tally = SpanTally::default();
        grid.pair_row(&gain, row, 3, (70, 127), (70, 127), &mut delta, &mut tally);
        assert_eq!(delta.to_bits(), negative_zero);
        let nothing_looked_at = SpanTally {
            skipped: 58,
            ..SpanTally::default()
        };
        assert_eq!(tally, nothing_looked_at);
    }

    #[test]
    fn from_circles_total_matches_incremental() {
        let (_, gain) = setup(48, 48);
        let circles = vec![
            Circle::new(10.0, 10.0, 5.0),
            Circle::new(13.0, 12.0, 4.0),
            Circle::new(40.0, 40.0, 6.0),
        ];
        let (grid, total) = CoverageGrid::from_circles(Rect::new(0, 0, 48, 48), &circles, &gain);
        grid.assert_derived_state();
        let mut grid2 = CoverageGrid::new(Rect::new(0, 0, 48, 48));
        let mut t2 = 0.0;
        for c in &circles {
            t2 += grid2.add_circle(c, &gain);
        }
        assert!((total - t2).abs() < 1e-12);
        assert_eq!(grid, grid2);
    }

    #[test]
    fn crop_copies_counts_and_rebuilds_derived_state() {
        let (_, gain) = setup(40, 40);
        let circles = vec![Circle::new(12.0, 12.0, 6.0), Circle::new(30.0, 28.0, 5.0)];
        let (grid, _) = CoverageGrid::from_circles(Rect::new(0, 0, 40, 40), &circles, &gain);
        let sub_rect = Rect::new(5, 5, 25, 25);
        let mut sub = grid.crop(sub_rect);
        sub.assert_derived_state();
        for y in sub_rect.y0..sub_rect.y1 {
            for x in sub_rect.x0..sub_rect.x1 {
                assert_eq!(sub.count(x, y), grid.count(x, y), "pixel ({x},{y})");
            }
        }
        // The crop is a private copy: mutating it leaves the source alone.
        let local = Circle::new(15.0, 15.0, 3.0);
        sub.add_circle(&local, &gain);
        sub.assert_derived_state();
        assert_eq!(sub.count(15, 15), grid.count(15, 15) + 1);
    }

    #[test]
    fn clipping_at_image_border() {
        let (_, gain) = setup(20, 20);
        let mut grid = CoverageGrid::new(Rect::new(0, 0, 20, 20));
        let c = Circle::new(0.0, 10.0, 5.0); // half outside
        let d = grid.add_circle(&c, &gain);
        grid.assert_derived_state();
        assert!(d.is_finite());
        assert!(grid.covered_pixels() > 0);
        assert_eq!(grid.count(-1, 10), 0, "outside reads as zero");
        let d2 = grid.remove_circle(&c, &gain);
        grid.assert_derived_state();
        assert!((d + d2).abs() < 1e-12);
        assert_eq!(grid.covered_pixels(), 0);
    }

    #[test]
    fn tile_grid_uses_global_coordinates() {
        let (_, gain) = setup(40, 40);
        let tile = Rect::new(10, 10, 30, 30);
        let mut grid = CoverageGrid::new(tile);
        let c = Circle::new(20.0, 20.0, 4.0);
        grid.add_circle(&c, &gain);
        grid.assert_derived_state();
        assert!(grid.count(20, 20) == 1);
        assert_eq!(grid.count(5, 5), 0);
    }

    #[test]
    fn wide_rows_cross_word_boundaries() {
        // 200-wide rows need 4 bitset words; exercise spans crossing them.
        let (_, gain) = setup(200, 8);
        let mut grid = CoverageGrid::new(Rect::new(0, 0, 200, 8));
        let big = Circle::new(100.0, 4.0, 90.0);
        let d = grid.add_circle(&big, &gain);
        grid.assert_derived_state();
        let small = Circle::new(64.0, 4.0, 3.0); // straddles word 0/1 boundary
        grid.add_circle(&small, &gain);
        grid.assert_derived_state();
        assert_eq!(grid.count(64, 4), 2);
        grid.remove_circle(&small, &gain);
        grid.assert_derived_state();
        let d2 = grid.remove_circle(&big, &gain);
        grid.assert_derived_state();
        assert!((d + d2).abs() < 1e-9);
        assert_eq!(grid.covered_pixels(), 0);
    }

    #[test]
    #[should_panic(expected = "crop region")]
    fn crop_outside_panics() {
        let grid = CoverageGrid::new(Rect::new(0, 0, 10, 10));
        let _ = grid.crop(Rect::new(5, 5, 15, 15));
    }
}
