//! Supernodal (blocked) numeric execution for [`SparseLuT`].
//!
//! The scalar Gilbert–Peierls replay in `sparse.rs` touches one column at a
//! time through index lists — ideal for the very sparse leading region of
//! an MNA factorization, hopeless for the dense trailing blocks that
//! fill-in produces on post-layout parasitic meshes. This module detects
//! *supernodes* — runs of consecutive pivotal columns whose below-diagonal
//! structure is identical or nested — from the recorded symbolic pattern
//! and replays the numeric factorization as a **hybrid**:
//!
//! - columns in narrow supernodes (width < [`Scalar::PANEL_MIN_WIDTH`])
//!   replay with
//!   the exact scalar Gilbert–Peierls column kernel — recorded index lists,
//!   no panel overhead. On extraction-style meshes two thirds of the
//!   columns are such singletons, but they carry under 15% of the flops.
//!   When a narrow supernode feeds a later panel, its just-computed L
//!   values are mirrored into dense mini-blocks through a precomputed
//!   scatter map so the panel can batch it like any other updater;
//! - each wide supernode's columns are gathered into a dense working panel
//!   (rows = the union of the supernode's U rows, its own pivotal block,
//!   and its below-diagonal rows). *Every* earlier supernode with recorded
//!   U entries in the panel then applies as one batch, in ascending
//!   pivotal order: a unit-lower triangular solve (TRSM) against the
//!   updater's diagonal block finalizes the panel's U rows, and a product
//!   with the updater's sub-diagonal block retires the rows below — both
//!   blocked through the [`Scalar::gemm_nn`] hook into the [`crate::gemm`]
//!   micro-kernel (serial inside grid workers per the two-level thread
//!   budget), with a fused multiply-scatter fallback for small batches.
//!   Precomputed per-pair row maps and reached-column lists keep the
//!   gathers direct and skip columns whose contribution is exactly zero;
//! - the panel itself is factored dense blocked right-looking
//!   ([`Scalar::PANEL_NB`]-column blocks retired against the trailing columns via
//!   TRSM + one gemm product), then scattered back into the recorded
//!   `l_vals`/`u_vals`/`inv_diag` arrays through a precomputed store map,
//!   so [`SparseLuT::solve_into`] and later scalar columns are unchanged.
//!
//! The whole plane is generic over [`Scalar`]: the same symbolic plan and
//! the same numeric replay serve the real DC/transient factorizations
//! (`f64`) and the frequency-domain `G + jωC` refactors
//! ([`crate::C64`]), with the flop thresholds scaled by
//! [`Scalar::FLOP_WEIGHT`] so the GEMM crossovers land at the same real
//! arithmetic intensity for both element types.
//!
//! Supernodes may be *relaxed*: a column whose structure is nested (not
//! identical) within its neighbor joins the panel, and the union positions
//! it does not own hold exact zeros. Those relaxed zeros are harmless by
//! construction — every product that could write a nonzero into a position
//! outside the recorded Gilbert–Peierls pattern has at least one exactly-
//! zero operand (otherwise the position would have filled in symbolically),
//! so relaxed positions stay zero bitwise and are never scattered back.
//!
//! # Deterministic etree-parallel replay
//!
//! The recorded dependencies between supernodes form a forest (the
//! supernode elimination tree, built with Liu's ancestor compression):
//! everything a supernode reads — earlier L columns in the scalar kernel,
//! updater blocks in a panel — lives in its *descendants*. The plan
//! therefore partitions the postordered supernodes into independent
//! subtree **tasks** (subtrees whose accumulated flops fall under a chunk
//! target) plus a sequential top-of-tree **spine**, and
//! [`Supernodal::refactor`] dispatches the tasks over the shared
//! [`crate::pool`] with a fixed round-robin task → slot assignment:
//!
//! - no work stealing and no atomics anywhere in the floating-point path —
//!   which task computes which column is a pure function of the pattern
//!   and the thread count;
//! - every task writes disjoint slices of `l_vals`/`u_vals`/`inv_diag` and
//!   its own supernodes' dense blocks, with per-slot numeric scratch, so
//!   each column's arithmetic is *the same instructions in the same order*
//!   as the serial replay — bit-identical at any thread count;
//! - the spine runs serially after the barrier, reading the task results
//!   exactly as the serial walk would;
//! - a singular pivot inside a task stops that task only; the replay
//!   reports the minimum failing pivot across tasks, which equals the
//!   pivot the serial walk would have tripped on first.
//!
//! Parallel dispatch engages only when the plan has ≥ 2 tasks, the
//! weighted flop estimate clears [`PAR_MIN_FLOPS`], and the two-level
//! thread budget grants workers (nested inside a grid dispatch it stays
//! serial, like the threaded GEMM).
//!
//! Determinism: the plan is a pure function of the recorded pattern, the
//! panel walk is sequential within a task, and the only nested-parallel
//! kernel ([`crate::gemm`]) is bit-identical to serial at any thread
//! count — so the blocked replay satisfies the same serial ≡ parallel
//! contract as the scalar one. To keep *fresh factor ≡ refactor*
//! bit-identity on this path, [`SparseLuT::factor`] re-runs the blocked
//! replay on the same values immediately after the scalar pivoting pass
//! pins the pattern: stored factors always come from blocked arithmetic
//! whenever the blocked plan is active.

use crate::pool;
use crate::scalar::Scalar;
use crate::sparse::{CscT, SparseLuT, PIVOT_EPS};
use crate::FactorError;

/// Which numeric path [`SparseLuT`] runs after the symbolic pattern is
/// recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SupernodalMode {
    /// Dispatch by measured symbolic statistics (the flop share carried by
    /// wide-supernode columns) — the default.
    #[default]
    Auto,
    /// Always replay with scalar Gilbert–Peierls column updates.
    ForceScalar,
    /// Always build and run the blocked panel replay (benchmark/test hook;
    /// correct at any size, profitable only with real supernodes).
    ForceBlocked,
}

impl SupernodalMode {
    /// Reads the `DNNOPT_SUPERNODAL` environment override:
    /// `force_blocked` / `force_scalar` select the corresponding mode,
    /// anything else (including unset) is [`SupernodalMode::Auto`]. Used
    /// by the simulator workspaces so CI and experiments can pin the
    /// numeric path without code changes.
    pub fn from_env() -> Self {
        match std::env::var("DNNOPT_SUPERNODAL").ok().as_deref() {
            Some("force_blocked") => SupernodalMode::ForceBlocked,
            Some("force_scalar") => SupernodalMode::ForceScalar,
            _ => SupernodalMode::Auto,
        }
    }
}

/// Systems below this dimension never take the blocked path under
/// [`SupernodalMode::Auto`]: panel gather/scatter overhead beats any GEMM
/// win when the whole factor fits in a few cache lines.
const SUPERNODAL_MIN_N: usize = 64;

/// Auto dispatch requires at least this fraction (×1/256) of the scalar
/// replay's flops to live in columns of wide supernodes — below it the
/// pattern has no dense trailing structure and the scalar replay wins
/// everywhere. 128/256 = 50%.
const MIN_PANEL_FLOP_FRAC_256: u64 = 128;

/// Panel width cap. Wider panels help GEMM but grow the relaxed-zero
/// overhead; with the blocked panel factor 192 lets the dense trailing
/// block of a post-layout mesh factorization form a handful of panels
/// while the active column block stays in cache.
const MAX_WIDTH: usize = 192;

/// Auto dispatch also requires the wide panels' dense L slots to stay
/// within this factor of the recorded L entries they hold — beyond it the
/// plan is relaxation padding, not dense structure.
const MAX_PANEL_PAD_RATIO: u64 = 2;

/// Batch products at or above this weighted flop count
/// ([`Scalar::FLOP_WEIGHT`] × real flops) go through the [`crate::gemm`]
/// micro-kernel (packed, near-peak on the dense trailing blocks); smaller
/// ones run a fused multiply-scatter loop that skips relaxed-zero
/// multipliers and rows outside the panel — for the many small updates of
/// a mesh factorization the packing and the discarded rows cost more than
/// they save.
const GEMM_MIN_FLOPS: usize = 1 << 14;

/// The etree task partition targets this many tasks per replay — enough
/// slack for an 8–16 worker pool to balance statically without shredding
/// the subtrees into cache-hostile fragments.
const TASK_TARGET: u64 = 48;

/// Floor on the per-task flop chunk: subtrees are never split finer than
/// this, whatever [`TASK_TARGET`] asks for.
const TASK_MIN_FLOPS: u64 = 1 << 16;

/// Parallel replay engages only when the weighted dense-block flop
/// estimate ([`Scalar::FLOP_WEIGHT`] × `block_flops`) clears this bar —
/// under it the pool dispatch overhead beats the win.
const PAR_MIN_FLOPS: u64 = 1 << 21;

/// Relaxed-supernode slack: a column may join a panel whose row union
/// differs from the column's own below structure by at most this many rows
/// on either side. Grows with the width already accumulated — a wide panel
/// amortizes a few extra structural zeros over much more dense arithmetic,
/// a pair of columns cannot.
fn relax_rows(width: usize) -> usize {
    4 + width / 3
}

/// Clears and re-fills a scratch vector with exact zeros at the given
/// length (the `Vec<T>` analogue of `Matrix::reshape_zeroed`).
#[inline]
fn zfill<T: Scalar>(v: &mut Vec<T>, len: usize) {
    v.clear();
    v.resize(len, T::ZERO);
}

/// Dense value blocks of one supernode: the unit-lower diagonal block
/// (`w×w` row-major; diagonal 1, strict upper 0) and the sub-diagonal
/// multiplier block (`|B|×w` row-major). Empty for narrow supernodes no
/// panel reads. `planes` caches `lbelow` in the element type's split-plane
/// form (real/imaginary matrices for `C64`, nothing for `f64`), refreshed
/// once when the supernode's values land so the many downstream batch
/// products skip the per-call operand split. `linv` (with its own cached
/// planes) holds the explicit inverse of the unit-lower `ldiag` for
/// updaters whose batch TRSMs are worth converting into GEMM products —
/// allocated only when the plan decides so ([`Supernodal::finish_structures`]),
/// recomputed by forward substitution each time the supernode's values
/// land.
#[derive(Debug, Clone, Default)]
struct Block<T: Scalar> {
    ldiag: Vec<T>,
    lbelow: Vec<T>,
    planes: T::Planes,
    linv: Vec<T>,
    linv_planes: T::Planes,
}

/// Per-worker numeric scratch. Slot 0 serves the serial replay and the
/// spine; parallel dispatch grows one slot per engaged worker so the
/// floating-point path shares nothing mutable across threads.
#[derive(Debug, Clone, Default)]
struct Scratch<T: Scalar> {
    /// Dense working panel, column-major (`nr` rows per column).
    w: Vec<T>,
    /// Original row → panel row for the supernode being processed
    /// (`u32::MAX` = absent).
    pos: Vec<u32>,
    /// Dense accumulator of the scalar column kernel, indexed by original
    /// row (the per-slot replacement for `SparseLuT::work`).
    work: Vec<T>,
    /// Gathered U block of the updater being applied (w_s × w_target).
    ub: Vec<T>,
    /// GEMM result buffer.
    y: Vec<T>,
    /// Packed `L21` block of the blocked panel factor / batch TRSM.
    lpk: Vec<T>,
    /// Packed solved rows of the blocked batch TRSM.
    bpk: Vec<T>,
    /// One dense panel row, accumulated contiguously by the fused
    /// small-product path before the strided subtract into the panel.
    trow: Vec<T>,
    /// Packing workspace of the [`Scalar::gemm_nn`] hook.
    gws: T::GemmScratch,
}

impl<T: Scalar> Scratch<T> {
    fn new(n: usize, max_panel: usize) -> Self {
        Scratch {
            w: vec![T::ZERO; max_panel],
            pos: vec![u32::MAX; n],
            work: vec![T::ZERO; n],
            ub: Vec::new(),
            y: Vec::new(),
            lpk: Vec::new(),
            bpk: Vec::new(),
            trow: vec![T::ZERO; MAX_WIDTH],
            gws: T::GemmScratch::default(),
        }
    }
}

/// Raw pointer wrapper the fixed-slot dispatch shares across workers. Each
/// worker only dereferences indices its task partition owns, so the
/// aliasing is disjoint by construction (same idiom as the threaded GEMM's
/// tile writers).
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper, not the raw pointer field.
    fn get(self) -> *mut T {
        self.0
    }
}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Shared numeric-replay context: the recorded pattern (shared slices) and
/// the output arrays (raw pointers, disjointly written per task). One
/// `Ctx` serves both the serial walk and every pool worker, so the serial
/// and parallel paths run literally the same code.
struct Ctx<'a, T: Scalar> {
    q: &'a [usize],
    p: &'a [usize],
    l_colptr: &'a [usize],
    l_rows: &'a [u32],
    u_colptr: &'a [usize],
    u_rows: &'a [u32],
    u_orig: &'a [u32],
    a_colptr: &'a [usize],
    a_rows: &'a [usize],
    a_vals: &'a [T],
    l_vals: SendPtr<T>,
    u_vals: SendPtr<T>,
    inv_diag: SendPtr<T>,
    blocks: SendPtr<Block<T>>,
}

impl<T: Scalar> Ctx<'_, T> {
    /// # Safety
    /// `t` must be in-bounds for `l_vals`, and no other thread may be
    /// writing slot `t` (guaranteed by the disjoint task partition).
    #[inline(always)]
    unsafe fn lval(&self, t: usize) -> T {
        *self.l_vals.0.add(t)
    }
    #[inline(always)]
    unsafe fn set_lval(&self, t: usize, v: T) {
        *self.l_vals.0.add(t) = v;
    }
    #[inline(always)]
    unsafe fn set_uval(&self, t: usize, v: T) {
        *self.u_vals.0.add(t) = v;
    }
    #[inline(always)]
    unsafe fn set_inv_diag(&self, k: usize, v: T) {
        *self.inv_diag.0.add(k) = v;
    }
    /// # Safety
    /// `s` must be in-bounds and the supernode's blocks must be owned by
    /// the calling task (its own supernode or a descendant), or the call
    /// must happen outside `pool::run` (spine / serial walk).
    #[allow(clippy::mut_from_ref)]
    #[inline(always)]
    unsafe fn block_mut(&self, s: usize) -> &mut Block<T> {
        &mut *self.blocks.0.add(s)
    }
}

/// The supernodal execution plan plus all numeric scratch. Built once per
/// recorded pattern by [`Supernodal::build`]; [`Supernodal::refactor`]
/// replays new values through it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Supernodal<T: Scalar> {
    /// Supernode boundaries over pivotal steps: supernode `s` covers
    /// columns `sn_ptr[s]..sn_ptr[s + 1]`.
    sn_ptr: Vec<u32>,
    /// Pivotal step → owning supernode id.
    col_sn: Vec<u32>,
    /// Below-diagonal rows per supernode (pivotal, sorted, all ≥ the
    /// supernode's end column), concatenated; offsets in `b_ptr`.
    b_ptr: Vec<u32>,
    b_rows: Vec<u32>,
    /// Target-side U rows per *panel* supernode (pivotal, sorted, all < the
    /// supernode's start column), concatenated; offsets in `u_ptr`. Narrow
    /// supernodes have empty segments.
    u_ptr: Vec<u32>,
    u_rows: Vec<u32>,
    /// Updater supernode ids per panel supernode (every width — narrow
    /// updaters batch through their dense mini-blocks), ascending,
    /// concatenated; offsets in `up_ptr`.
    up_ptr: Vec<u32>,
    up_ids: Vec<u32>,
    /// Per (panel, wide-updater) pair, parallel to `up_ids`: the panel row
    /// of each updater pivotal column (`width(us)` entries) followed by the
    /// panel row of each updater below row (`|B(us)|` entries);
    /// `u32::MAX` = outside the panel (the contribution is exactly zero).
    /// Precomputing these at build time removes two dependent indirections
    /// (`pos[p[..]]`) from every gather/scatter element of the hot batch
    /// loop. Offsets in `pair_ptr`.
    pair_ptr: Vec<u32>,
    pair_idx: Vec<u32>,
    /// Per (panel, wide-updater) pair, parallel to `up_ids`: the panel
    /// columns whose recorded U lists intersect the updater's pivotal
    /// range. Columns outside the list receive exactly-zero contributions
    /// from the updater (the position would have filled in symbolically
    /// otherwise), so the batch gathers, solves, multiplies, and scatters
    /// only these. Offsets in `pc_ptr`.
    pc_ptr: Vec<u32>,
    pc_idx: Vec<u32>,
    /// Per panel supernode: the panel row feeding every recorded
    /// `u_vals`/`l_vals` slot of its columns, in scatter order (U range
    /// then L range, column by column). Narrow supernodes have empty
    /// segments. Offsets in `store_ptr`.
    store_ptr: Vec<u32>,
    store_idx: Vec<u32>,
    /// Per *narrow* supernode that updates at least one panel: the
    /// destination of each of its recorded L slots (column-major over the
    /// supernode's columns, recorded order within a column) inside its
    /// dense blocks — `< ws²` indexes `ldiag`, else `ldiag`-offset into
    /// `lbelow`. Filled right after the scalar columns compute, so batches
    /// can consume every updater through the same dense path. Offsets in
    /// `nfill_ptr` (empty for panels and for narrow supernodes no panel
    /// reads).
    nfill_ptr: Vec<u32>,
    nfill_idx: Vec<u32>,
    /// Estimated dense-block flops per numeric replay (telemetry and the
    /// parallel-dispatch gate).
    block_flops: u64,
    /// Supernodes of width ≥ 2 (telemetry / dispatch statistics).
    pub(crate) wide_supernodes: u64,
    /// Largest panel area, for sizing the working buffers once.
    max_panel: usize,

    // ---- etree task partition (deterministic parallel replay) ----
    /// Independent subtree tasks over the supernode elimination forest:
    /// task `t` owns supernodes `task_sn[task_ptr[t]..task_ptr[t + 1]]`,
    /// ascending within the task. Every dependency of a task member is a
    /// task member (subtree closure), so tasks replay concurrently with
    /// no cross-task reads.
    task_ptr: Vec<u32>,
    task_sn: Vec<u32>,
    /// Top-of-tree supernodes (subtree flops above the chunk target),
    /// ascending; replayed serially after the task barrier.
    spine: Vec<u32>,

    // ---- numeric storage ----
    /// Dense L blocks per supernode (see [`Block`]).
    blocks: Vec<Block<T>>,
    /// Per-worker scratch; slot 0 always exists once the plan is built.
    scratch: Vec<Scratch<T>>,
}

impl<T: Scalar> Supernodal<T> {
    /// Detects supernodes on the recorded pattern of `lu`, computes the
    /// dispatch statistics, and returns the blocked plan when selected
    /// (`None` = scalar replay). Records the `SparseSupernodes` and
    /// `SparseBlockedDispatch` telemetry rows either way.
    pub(crate) fn build(lu: &SparseLuT<T>, mode: SupernodalMode) -> Option<Box<Supernodal<T>>> {
        let n = lu.n;
        let skip_detection = matches!(mode, SupernodalMode::ForceScalar)
            || (matches!(mode, SupernodalMode::Auto) && n < SUPERNODAL_MIN_N);
        if skip_detection {
            telemetry::record(telemetry::Metric::SparseBlockedDispatch, 0);
            return None;
        }
        let mut sn = Box::new(Supernodal::detect(lu));
        telemetry::record(telemetry::Metric::SparseSupernodes, sn.wide_supernodes);
        let blocked = match mode {
            SupernodalMode::ForceBlocked => true,
            SupernodalMode::ForceScalar => false,
            SupernodalMode::Auto => {
                // Measured symbolic statistic: the share of the scalar
                // replay's flops carried by wide-supernode columns — the
                // work the panels can turn into dense arithmetic.
                let (mut total, mut panel) = (0u64, 0u64);
                for j in 0..n {
                    let mut col = 0u64;
                    for t in lu.u_colptr[j]..lu.u_colptr[j + 1] {
                        let k = lu.u_rows[t] as usize;
                        col += 1 + 2 * (lu.l_colptr[k + 1] - lu.l_colptr[k]) as u64;
                    }
                    total += col;
                    if sn.width(sn.col_sn[j] as usize) >= T::PANEL_MIN_WIDTH {
                        panel += col;
                    }
                }
                // Relaxation-padding guard: the dense L slots the wide
                // panels would allocate vs the recorded L entries they
                // actually hold. Banded patterns chain into "wide"
                // relaxed supernodes whose panels are mostly structural
                // zeros — flop share alone would engage the blocked path
                // there and lose to padding.
                let (mut slots, mut ents) = (0u64, 0u64);
                for s in 0..sn.num_supernodes() {
                    let w = sn.width(s) as u64;
                    if (w as usize) < T::PANEL_MIN_WIDTH {
                        continue;
                    }
                    let blen = (sn.b_ptr[s + 1] - sn.b_ptr[s]) as u64;
                    slots += w * (w - 1) / 2 + w * blen;
                    let (s0, s1) = (sn.sn_ptr[s] as usize, sn.sn_ptr[s + 1] as usize);
                    ents += (lu.l_colptr[s1] - lu.l_colptr[s0]) as u64;
                }
                panel * 256 >= total * MIN_PANEL_FLOP_FRAC_256
                    && slots <= ents.saturating_mul(MAX_PANEL_PAD_RATIO)
            }
        };
        telemetry::record(telemetry::Metric::SparseBlockedDispatch, u64::from(blocked));
        if !blocked {
            return None;
        }
        sn.finish_structures(lu);
        Some(sn)
    }

    fn num_supernodes(&self) -> usize {
        self.sn_ptr.len().saturating_sub(1)
    }

    /// Independent subtree tasks in the etree partition (0 until the plan
    /// is finished).
    pub(crate) fn num_tasks(&self) -> usize {
        self.task_ptr.len().saturating_sub(1)
    }

    fn width(&self, s: usize) -> usize {
        (self.sn_ptr[s + 1] - self.sn_ptr[s]) as usize
    }

    /// Greedy left-to-right supernode partition: column `k` joins the
    /// current panel when row `k` is in the panel's below structure and the
    /// symmetric difference between the panel union and `k`'s own below
    /// rows is within [`relax_rows`] on each side.
    fn detect(lu: &SparseLuT<T>) -> Supernodal<T> {
        let n = lu.n;
        let mut sn = Supernodal::default();
        // Per-column below rows in pivotal coordinates, segment-sorted
        // (the recorded `l_rows` are original indices in DFS order).
        let mut bl_rows: Vec<u32> = lu
            .l_rows
            .iter()
            .map(|&r| lu.pinv[r as usize] as u32)
            .collect();
        for k in 0..n {
            bl_rows[lu.l_colptr[k]..lu.l_colptr[k + 1]].sort_unstable();
        }
        sn.col_sn = vec![0; n];
        sn.sn_ptr.push(0);
        sn.b_ptr.push(0);
        let mut cur: Vec<u32> = Vec::new(); // union of below rows, > last col
        let mut tmp: Vec<u32> = Vec::new();
        let mut wide = 0u64;
        let close = |sn: &mut Supernodal<T>, cur: &mut Vec<u32>, end: usize, wide: &mut u64| {
            // Close the open supernode (columns sn_ptr.last()..end).
            let start = *sn.sn_ptr.last().unwrap() as usize;
            if end > start {
                if end - start >= 2 {
                    *wide += 1;
                }
                sn.sn_ptr.push(end as u32);
                sn.b_rows.extend_from_slice(cur);
                sn.b_ptr.push(sn.b_rows.len() as u32);
            }
        };
        for k in 0..n {
            let bk = &bl_rows[lu.l_colptr[k]..lu.l_colptr[k + 1]];
            let start = *sn.sn_ptr.last().unwrap() as usize;
            let width = k - start;
            let mut merged = false;
            if width > 0 && width < MAX_WIDTH {
                // cur \ {k} merged with bk, counting the two-sided slack.
                let k_in = cur.binary_search(&(k as u32)).is_ok();
                if k_in {
                    tmp.clear();
                    let mut extra_prev = 0usize; // rows bk adds to the panel
                    let mut extra_new = 0usize; // panel rows k doesn't own
                    let (mut i, mut j) = (0usize, 0usize);
                    while i < cur.len() || j < bk.len() {
                        let a = if i < cur.len() { cur[i] } else { u32::MAX };
                        let b = if j < bk.len() { bk[j] } else { u32::MAX };
                        if a == k as u32 {
                            i += 1; // absorbed as the new diagonal row
                        } else if a == b {
                            tmp.push(a);
                            i += 1;
                            j += 1;
                        } else if a < b {
                            tmp.push(a);
                            extra_new += 1;
                            i += 1;
                        } else {
                            tmp.push(b);
                            extra_prev += 1;
                            j += 1;
                        }
                    }
                    if extra_prev <= relax_rows(width) && extra_new <= relax_rows(width) {
                        std::mem::swap(&mut cur, &mut tmp);
                        merged = true;
                    }
                }
            }
            if !merged && k > start {
                close(&mut sn, &mut cur, k, &mut wide);
                cur.clear();
                cur.extend_from_slice(bk);
            } else if k == start {
                cur.clear();
                cur.extend_from_slice(bk);
            }
            let id = (sn.sn_ptr.len() - 1) as u32;
            sn.col_sn[k] = id;
        }
        close(&mut sn, &mut cur, n, &mut wide);
        sn.wide_supernodes = wide;
        sn
    }

    /// Builds the target-side structures (U rows, wide-updater lists, panel
    /// storage, flop estimate, etree task partition) once the partition is
    /// fixed and the blocked path is selected. Narrow supernodes get empty
    /// segments — they never form panels.
    fn finish_structures(&mut self, lu: &SparseLuT<T>) {
        let nsn = self.num_supernodes();
        let n = lu.n;
        self.u_ptr.push(0);
        self.up_ptr.push(0);
        self.pair_ptr.push(0);
        self.pc_ptr.push(0);
        self.store_ptr.push(0);
        let mut mark = vec![u32::MAX; n];
        // Pivotal step → panel row for the panel under construction
        // (`u32::MAX` = not a panel row). Built and cleared per panel.
        let mut pos_step = vec![u32::MAX; n];
        let mut flops = 0u64;
        // Per-supernode flop estimate, feeding the etree task partition:
        // dense-panel arithmetic for the wide ones, the scalar replay
        // estimate for the narrow ones.
        let mut sn_flops = vec![0u64; nsn];
        // Total panel columns this supernode retires through GEMM-sized
        // batch TRSMs — when that reaches the supernode's own width, the
        // O(w³/6) explicit inverse of its unit-lower block pays for itself
        // and every one of those TRSMs becomes a dense product.
        let mut linv_wc = vec![0u64; nsn];
        for s in 0..nsn {
            let (s0, s1) = (self.sn_ptr[s] as usize, self.sn_ptr[s + 1] as usize);
            let w = s1 - s0;
            if w < T::PANEL_MIN_WIDTH {
                let mut sf = 0u64;
                for k in s0..s1 {
                    for t in lu.u_colptr[k]..lu.u_colptr[k + 1] {
                        let step = lu.u_rows[t] as usize;
                        sf += 1 + 2 * (lu.l_colptr[step + 1] - lu.l_colptr[step]) as u64;
                    }
                }
                sn_flops[s] = sf;
                self.u_ptr.push(self.u_rows.len() as u32);
                self.up_ptr.push(self.up_ids.len() as u32);
                self.store_ptr.push(self.store_idx.len() as u32);
                continue;
            }
            // Union of recorded U rows below s0, stamp-deduplicated.
            let before = self.u_rows.len();
            for k in s0..s1 {
                for t in lu.u_colptr[k]..lu.u_colptr[k + 1] {
                    let step = lu.u_rows[t] as usize;
                    if step < s0 && mark[step] != s as u32 {
                        mark[step] = s as u32;
                        self.u_rows.push(step as u32);
                    }
                }
            }
            self.u_rows[before..].sort_unstable();
            self.u_ptr.push(self.u_rows.len() as u32);
            // Updater supernodes owning the U rows — every width; narrow
            // ones batch through their dense mini-blocks (sorted rows give
            // non-decreasing ids; dedup adjacent).
            let mut last = u32::MAX;
            for t in before..self.u_rows.len() {
                let id = self.col_sn[self.u_rows[t] as usize];
                if id != last {
                    self.up_ids.push(id);
                    last = id;
                }
            }
            let up_before = *self.up_ptr.last().unwrap() as usize;
            self.up_ptr.push(self.up_ids.len() as u32);
            let ulen = self.u_rows.len() - before;
            let blen = (self.b_ptr[s + 1] - self.b_ptr[s]) as usize;
            let nr = ulen + w + blen;
            self.max_panel = self.max_panel.max(nr * w);
            // Panel row map in pivotal-step coordinates, used to freeze the
            // batch and scatter index maps below.
            for (i, &row) in self.u_rows[before..].iter().enumerate() {
                pos_step[row as usize] = i as u32;
            }
            for k in s0..s1 {
                pos_step[k] = (ulen + k - s0) as u32;
            }
            let (bb0, bb1) = (self.b_ptr[s] as usize, self.b_ptr[s + 1] as usize);
            for (i, &row) in self.b_rows[bb0..bb1].iter().enumerate() {
                pos_step[row as usize] = (ulen + w + i) as u32;
            }
            // Per-updater index maps + flop estimate: TRSM + GEMM per wide
            // updater, plus the dense right-looking panel factor.
            let mut sf = 0u64;
            for t in up_before..self.up_ids.len() {
                let us = self.up_ids[t] as usize;
                let (t0, t1) = (self.sn_ptr[us] as usize, self.sn_ptr[us + 1] as usize);
                let ws = t1 - t0;
                for step in t0..t1 {
                    self.pair_idx.push(pos_step[step]);
                }
                for &row in &self.b_rows[self.b_ptr[us] as usize..self.b_ptr[us + 1] as usize] {
                    self.pair_idx.push(pos_step[row as usize]);
                }
                self.pair_ptr.push(self.pair_idx.len() as u32);
                // Panel columns this updater actually reaches (recorded U
                // entries are ascending per column, so one partition_point
                // suffices).
                for jj in 0..w {
                    let useg = &lu.u_rows[lu.u_colptr[s0 + jj]..lu.u_colptr[s0 + jj + 1]];
                    let at = useg.partition_point(|&step| (step as usize) < t0);
                    if at < useg.len() && (useg[at] as usize) < t1 {
                        self.pc_idx.push(jj as u32);
                    }
                }
                let wc = self.pc_idx.len() - *self.pc_ptr.last().unwrap() as usize;
                self.pc_ptr.push(self.pc_idx.len() as u32);
                let bs = (self.b_ptr[us + 1] - self.b_ptr[us]) as usize;
                sf += (ws * ws * wc + 2 * bs * ws * wc) as u64;
                if 2 * ws * ws * wc >= GEMM_MIN_FLOPS {
                    linv_wc[us] += wc as u64;
                }
            }
            sf += (w * w * (blen + w)) as u64;
            sn_flops[s] = sf;
            flops += sf;
            // Scatter-order map from panel rows into the recorded factor
            // arrays.
            for k in s0..s1 {
                for t in lu.u_colptr[k]..lu.u_colptr[k + 1] {
                    self.store_idx.push(pos_step[lu.u_rows[t] as usize]);
                }
                for t in lu.l_colptr[k]..lu.l_colptr[k + 1] {
                    self.store_idx
                        .push(pos_step[lu.pinv[lu.l_rows[t] as usize]]);
                }
            }
            self.store_ptr.push(self.store_idx.len() as u32);
            // Clear the step map for the next panel.
            for &row in &self.u_rows[before..] {
                pos_step[row as usize] = u32::MAX;
            }
            for k in s0..s1 {
                pos_step[k] = u32::MAX;
            }
            for &row in &self.b_rows[bb0..bb1] {
                pos_step[row as usize] = u32::MAX;
            }
        }
        self.block_flops = flops;
        self.build_task_partition(lu, &sn_flops);
        // Dense value storage: every supernode some panel reads (and every
        // panel) gets a unit-lower diagonal block (diagonal fixed once
        // here, strict upper left at exact zero) and a sub-diagonal panel.
        let mut used = vec![false; nsn];
        for &id in &self.up_ids {
            used[id as usize] = true;
        }
        self.blocks = (0..nsn)
            .map(|s| {
                let w = self.width(s);
                if w < T::PANEL_MIN_WIDTH && !used[s] {
                    return Block::default();
                }
                let blen = (self.b_ptr[s + 1] - self.b_ptr[s]) as usize;
                let mut ldiag = vec![T::ZERO; w * w];
                for i in 0..w {
                    ldiag[i * w + i] = T::ONE;
                }
                // The inverse block is worth carrying once the GEMM-sized
                // TRSMs it replaces cover at least `w` panel columns.
                let linv = if linv_wc[s] >= w as u64 {
                    let mut m = vec![T::ZERO; w * w];
                    for i in 0..w {
                        m[i * w + i] = T::ONE;
                    }
                    m
                } else {
                    Vec::new()
                };
                Block {
                    ldiag,
                    lbelow: vec![T::ZERO; blen * w],
                    planes: T::Planes::default(),
                    linv,
                    linv_planes: T::Planes::default(),
                }
            })
            .collect();
        // Narrow-supernode fill maps: recorded L slot → dense block slot.
        self.nfill_ptr.push(0);
        for s in 0..nsn {
            let (s0, s1) = (self.sn_ptr[s] as usize, self.sn_ptr[s + 1] as usize);
            let ws = s1 - s0;
            if ws >= T::PANEL_MIN_WIDTH || !used[s] {
                self.nfill_ptr.push(self.nfill_idx.len() as u32);
                continue;
            }
            let brows = &self.b_rows[self.b_ptr[s] as usize..self.b_ptr[s + 1] as usize];
            for k in s0..s1 {
                let cc = k - s0;
                for t in lu.l_colptr[k]..lu.l_colptr[k + 1] {
                    let step = lu.pinv[lu.l_rows[t] as usize];
                    let dest = if step < s1 {
                        (step - s0) * ws + cc
                    } else {
                        let bi = brows.partition_point(|&r| (r as usize) < step);
                        debug_assert_eq!(brows[bi] as usize, step);
                        ws * ws + bi * ws + cc
                    };
                    self.nfill_idx.push(dest as u32);
                }
            }
            self.nfill_ptr.push(self.nfill_idx.len() as u32);
        }
        self.scratch = vec![Scratch::new(n, self.max_panel)];
    }

    /// Partitions the postordered supernodes into independent subtree
    /// tasks plus the sequential spine.
    ///
    /// The supernode elimination forest comes from Liu's construction with
    /// ancestor path compression: every dependency edge (a recorded U row
    /// of supernode `s` owned by an earlier supernode `d`) makes `s` an
    /// ancestor of `d`, so everything a supernode reads during the replay
    /// lives in its subtree. Subtree flop totals are monotone along parent
    /// paths, which makes the classification a partition: a supernode
    /// whose subtree fits under the chunk target belongs to exactly one
    /// maximal such subtree (a task); everything above the target is
    /// spine.
    fn build_task_partition(&mut self, lu: &SparseLuT<T>, sn_flops: &[u64]) {
        let nsn = self.num_supernodes();
        let mut parent = vec![u32::MAX; nsn];
        let mut anc = vec![u32::MAX; nsn];
        for s in 0..nsn {
            let (s0, s1) = (self.sn_ptr[s] as usize, self.sn_ptr[s + 1] as usize);
            for k in s0..s1 {
                for t in lu.u_colptr[k]..lu.u_colptr[k + 1] {
                    let mut r = self.col_sn[lu.u_rows[t] as usize] as usize;
                    while r != s && anc[r] != u32::MAX {
                        let nx = anc[r] as usize;
                        anc[r] = s as u32;
                        r = nx;
                    }
                    if r != s {
                        anc[r] = s as u32;
                        parent[r] = s as u32;
                    }
                }
            }
        }
        // Subtree flop totals (parents always follow children in the
        // postorder, so one ascending accumulation suffices).
        let mut subfl: Vec<u64> = sn_flops.to_vec();
        for s in 0..nsn {
            if parent[s] != u32::MAX {
                subfl[parent[s] as usize] += subfl[s];
            }
        }
        let total: u64 = sn_flops.iter().sum();
        let chunk = (total / TASK_TARGET).max(TASK_MIN_FLOPS);
        let mut is_root = vec![false; nsn];
        self.spine.clear();
        for s in 0..nsn {
            if subfl[s] > chunk {
                self.spine.push(s as u32);
            } else if parent[s] == u32::MAX || subfl[parent[s] as usize] > chunk {
                is_root[s] = true;
            }
        }
        // Children adjacency, then one DFS per task root collecting its
        // subtree (all of it fits under the chunk by monotonicity). The
        // members are sorted ascending — subtrees are not contiguous step
        // ranges, but ascending order preserves the serial dependency
        // order inside the task.
        let mut ch_ptr = vec![0u32; nsn + 1];
        for s in 0..nsn {
            if parent[s] != u32::MAX {
                ch_ptr[parent[s] as usize + 1] += 1;
            }
        }
        for i in 0..nsn {
            ch_ptr[i + 1] += ch_ptr[i];
        }
        let mut ch_idx = vec![0u32; *ch_ptr.last().unwrap_or(&0) as usize];
        let mut cursor = ch_ptr.clone();
        for s in 0..nsn {
            if parent[s] != u32::MAX {
                let p = parent[s] as usize;
                ch_idx[cursor[p] as usize] = s as u32;
                cursor[p] += 1;
            }
        }
        self.task_ptr.clear();
        self.task_ptr.push(0);
        self.task_sn.clear();
        let mut stack: Vec<u32> = Vec::new();
        for s in 0..nsn {
            if !is_root[s] {
                continue;
            }
            let before = self.task_sn.len();
            stack.push(s as u32);
            while let Some(x) = stack.pop() {
                self.task_sn.push(x);
                let (c0, c1) = (ch_ptr[x as usize] as usize, ch_ptr[x as usize + 1] as usize);
                stack.extend_from_slice(&ch_idx[c0..c1]);
            }
            self.task_sn[before..].sort_unstable();
            self.task_ptr.push(self.task_sn.len() as u32);
        }
    }

    /// Hybrid numeric replay of new values through the blocked plan (see
    /// the module docs for the shape), dispatching the etree task
    /// partition over the shared pool when the thread budget and the flop
    /// gate allow.
    ///
    /// # Errors
    ///
    /// [`FactorError::Singular`] when a recorded pivot position collapses
    /// numerically (same contract as the scalar replay).
    pub(crate) fn refactor(
        &mut self,
        lu: &mut SparseLuT<T>,
        a: &CscT<T>,
    ) -> Result<(), FactorError> {
        let ntasks = self.num_tasks();
        let mut threads = pool::gemm_threads().min(ntasks);
        if ntasks < 2 || self.block_flops.saturating_mul(T::FLOP_WEIGHT as u64) < PAR_MIN_FLOPS {
            threads = 1;
        }
        self.refactor_threads(lu, a, threads)
    }

    /// [`Supernodal::refactor`] with the worker count pinned (the direct
    /// entry point of the determinism tests; `threads <= 1` is the serial
    /// walk).
    pub(crate) fn refactor_threads(
        &mut self,
        lu: &mut SparseLuT<T>,
        a: &CscT<T>,
        threads: usize,
    ) -> Result<(), FactorError> {
        lu.factored = false;
        let threads = threads.clamp(1, self.num_tasks().max(1));
        while self.scratch.len() < threads {
            self.scratch.push(Scratch::new(lu.n, self.max_panel));
        }
        // The replay works through raw output pointers shared by every
        // worker (disjoint writes per task), so the blocks and per-slot
        // scratch move out of `self` for its duration — `self` stays a
        // shared read-only plan.
        let mut blocks = std::mem::take(&mut self.blocks);
        let mut scratch = std::mem::take(&mut self.scratch);
        let res = {
            let ctx = Ctx {
                q: &lu.q,
                p: &lu.p,
                l_colptr: &lu.l_colptr,
                l_rows: &lu.l_rows,
                u_colptr: &lu.u_colptr,
                u_rows: &lu.u_rows,
                u_orig: &lu.u_orig,
                a_colptr: &a.col_ptr,
                a_rows: &a.row_idx,
                a_vals: &a.values,
                l_vals: SendPtr(lu.l_vals.as_mut_ptr()),
                u_vals: SendPtr(lu.u_vals.as_mut_ptr()),
                inv_diag: SendPtr(lu.inv_diag.as_mut_ptr()),
                blocks: SendPtr(blocks.as_mut_ptr()),
            };
            self.replay(&ctx, &mut scratch, threads)
        };
        self.blocks = blocks;
        self.scratch = scratch;
        if res.is_ok() {
            telemetry::record(telemetry::Metric::SparseBlockFlops, self.block_flops);
            lu.factored = true;
        }
        res
    }

    /// Walks the plan: serial ascending when `threads <= 1`, otherwise the
    /// fixed-slot task dispatch followed by the serial spine.
    fn replay(
        &self,
        ctx: &Ctx<'_, T>,
        scratch: &mut [Scratch<T>],
        threads: usize,
    ) -> Result<(), FactorError> {
        if threads <= 1 {
            let scr = &mut scratch[0];
            for s in 0..self.num_supernodes() {
                self.process_supernode(ctx, scr, s)?;
            }
            return Ok(());
        }
        let ntasks = self.num_tasks();
        // Per-slot first-failure records, written through the same
        // disjoint-pointer pattern as the factor arrays.
        let mut errs: Vec<Option<usize>> = vec![None; threads];
        let errp = SendPtr(errs.as_mut_ptr());
        let scrp = SendPtr(scratch.as_mut_ptr());
        pool::run(threads, &move |slot| {
            // Each slot owns tasks slot, slot + threads, … — a pure
            // function of the plan and the thread count, no stealing.
            let scr = unsafe { &mut *scrp.get().add(slot) };
            let mut first: Option<usize> = None;
            let mut ti = slot;
            while ti < ntasks {
                let (t0, t1) = (self.task_ptr[ti] as usize, self.task_ptr[ti + 1] as usize);
                for &sid in &self.task_sn[t0..t1] {
                    if let Err(err) = self.process_supernode(ctx, scr, sid as usize) {
                        let pivot = match err {
                            FactorError::Singular { pivot } => pivot,
                            _ => 0,
                        };
                        first = Some(first.map_or(pivot, |f| f.min(pivot)));
                        // A failed pivot poisons only this subtree; the
                        // slot's remaining (independent) tasks still run
                        // so the minimum failing pivot is exact.
                        break;
                    }
                }
                ti += threads;
            }
            unsafe {
                *errp.get().add(slot) = first;
            }
        });
        telemetry::record(telemetry::Metric::SparseParallelReplays, threads as u64);
        if let Some(&pivot) = errs.iter().flatten().min() {
            // The minimum over per-task first failures is the pivot the
            // serial walk trips on first: every task computes its columns
            // with arithmetic identical to serial, and no task can fail
            // at a column the serial walk passed.
            return Err(FactorError::Singular { pivot });
        }
        let scr = &mut scratch[0];
        for &s in &self.spine {
            self.process_supernode(ctx, scr, s as usize)?;
        }
        Ok(())
    }

    /// Replays one supernode: scalar columns + dense mirror for the narrow
    /// ones, the blocked panel for the wide ones.
    fn process_supernode(
        &self,
        ctx: &Ctx<'_, T>,
        scr: &mut Scratch<T>,
        s: usize,
    ) -> Result<(), FactorError> {
        let (s0, s1) = (self.sn_ptr[s] as usize, self.sn_ptr[s + 1] as usize);
        if s1 - s0 < T::PANEL_MIN_WIDTH {
            for k in s0..s1 {
                Self::scalar_column(ctx, &mut scr.work, k)?;
            }
            self.fill_narrow(ctx, s);
            Ok(())
        } else {
            self.panel(ctx, scr, s)
        }
    }

    /// One column of the scalar Gilbert–Peierls replay — identical
    /// arithmetic, in the identical order, to
    /// [`SparseLuT::refactor_into`]'s loop body (bit-compatibility between
    /// the paths depends on it). `work` is the slot's dense accumulator,
    /// all-zero on entry and on exit (success or pivot collapse): every
    /// entry is zeroed as it is read, exactly like the scalar replay.
    #[inline]
    fn scalar_column(ctx: &Ctx<'_, T>, work: &mut [T], k: usize) -> Result<(), FactorError> {
        // SAFETY (every `ctx` factor accessor below): the slots come from
        // the recorded column pointers, so they are in bounds, and column
        // `k` and the columns its U rows name lie in the calling task's
        // subtree (disjoint task partition), so no other thread writes
        // them.
        let col = ctx.q[k];
        let (a0, a1) = (ctx.a_colptr[col], ctx.a_colptr[col + 1]);
        for (&r, &v) in ctx.a_rows[a0..a1].iter().zip(&ctx.a_vals[a0..a1]) {
            work[r] += v;
        }
        for t in ctx.u_colptr[k]..ctx.u_colptr[k + 1] {
            let ux = std::mem::replace(&mut work[ctx.u_orig[t] as usize], T::ZERO);
            unsafe { ctx.set_uval(t, ux) };
            if ux != T::ZERO {
                let step = ctx.u_rows[t] as usize;
                for s in ctx.l_colptr[step]..ctx.l_colptr[step + 1] {
                    let lv = unsafe { ctx.lval(s) };
                    work[ctx.l_rows[s] as usize] -= ux * lv;
                }
            }
        }
        let diag = std::mem::replace(&mut work[ctx.p[k]], T::ZERO);
        let (l0, l1) = (ctx.l_colptr[k], ctx.l_colptr[k + 1]);
        if !(diag.mag() > PIVOT_EPS) {
            for &r in &ctx.l_rows[l0..l1] {
                work[r as usize] = T::ZERO;
            }
            return Err(FactorError::Singular { pivot: k });
        }
        let inv = diag.recip();
        unsafe { ctx.set_inv_diag(k, inv) };
        for (t, &r) in (l0..l1).zip(&ctx.l_rows[l0..l1]) {
            let v = std::mem::replace(&mut work[r as usize], T::ZERO);
            unsafe { ctx.set_lval(t, v * inv) };
        }
        Ok(())
    }

    /// Processes one wide supernode through its dense panel.
    fn panel(&self, ctx: &Ctx<'_, T>, scr: &mut Scratch<T>, s: usize) -> Result<(), FactorError> {
        let (s0, s1) = (self.sn_ptr[s] as usize, self.sn_ptr[s + 1] as usize);
        let w = s1 - s0;
        let (ub0, ub1) = (self.u_ptr[s] as usize, self.u_ptr[s + 1] as usize);
        let (bb0, bb1) = (self.b_ptr[s] as usize, self.b_ptr[s + 1] as usize);
        let (ulen, blen) = (ub1 - ub0, bb1 - bb0);
        let nr = ulen + w + blen;
        // Panel row map (original row coordinates): U rows, the pivotal
        // block, below rows.
        for (i, &row) in self.u_rows[ub0..ub1].iter().enumerate() {
            scr.pos[ctx.p[row as usize]] = i as u32;
        }
        for k in s0..s1 {
            scr.pos[ctx.p[k]] = (ulen + k - s0) as u32;
        }
        for (i, &row) in self.b_rows[bb0..bb1].iter().enumerate() {
            scr.pos[ctx.p[row as usize]] = (ulen + w + i) as u32;
        }
        {
            let wbuf = &mut scr.w[..nr * w];
            wbuf.fill(T::ZERO);
            // Gather A's columns (every entry is inside the recorded reach,
            // hence inside the panel).
            for jj in 0..w {
                let col = ctx.q[s0 + jj];
                let wcol = &mut wbuf[jj * nr..(jj + 1) * nr];
                for t in ctx.a_colptr[col]..ctx.a_colptr[col + 1] {
                    wcol[scr.pos[ctx.a_rows[t]] as usize] += ctx.a_vals[t];
                }
            }
        }
        // Apply every earlier supernode with recorded U entries in this
        // panel, in ascending pivotal order, as a dense batch.
        for t in self.up_ptr[s] as usize..self.up_ptr[s + 1] as usize {
            let us = self.up_ids[t] as usize;
            self.batch_wide(ctx, scr, s, nr, us, t);
        }
        // Dense blocked right-looking factor of the panel's trapezoid:
        // factor `Scalar::PANEL_NB`-column blocks with rank-1 updates kept
        // inside the block, then retire each block against the trailing
        // columns as a unit-lower TRSM on their U rows plus one gemm
        // product on the rows below — the O(w²·nr) sweep of the plain
        // right-looking loop becomes O(w²·nr/PANEL_NB) panel traffic.
        let mut jb = 0;
        while jb < w {
            let nb = T::PANEL_NB.min(w - jb);
            for jj in jb..jb + nb {
                let wbuf = &mut scr.w[..nr * w];
                let dr = ulen + jj;
                let diag = wbuf[jj * nr + dr];
                if !(diag.mag() > PIVOT_EPS) {
                    self.clear_pos(ctx, &mut scr.pos, s);
                    return Err(FactorError::Singular { pivot: s0 + jj });
                }
                let inv = diag.recip();
                unsafe { ctx.set_inv_diag(s0 + jj, inv) };
                for r in jj * nr + dr + 1..(jj + 1) * nr {
                    wbuf[r] = wbuf[r] * inv;
                }
                for cc in jj + 1..jb + nb {
                    let (left, right) = wbuf.split_at_mut(cc * nr);
                    let colj = &left[jj * nr..(jj + 1) * nr];
                    let colc = &mut right[..nr];
                    let u = colc[dr];
                    if u != T::ZERO {
                        for r in dr + 1..nr {
                            colc[r] -= u * colj[r];
                        }
                    }
                }
            }
            let tc = jb + nb;
            if tc >= w {
                break;
            }
            let m = nr - (ulen + tc);
            let tcols = w - tc;
            if m > 0 && 2 * m * nb * tcols >= GEMM_MIN_FLOPS {
                {
                    let wbuf = &mut scr.w[..nr * w];
                    // TRSM only on the trailing columns' U rows; the rows
                    // below get the packed product.
                    for cc in tc..w {
                        let (left, right) = wbuf.split_at_mut(cc * nr);
                        let colc = &mut right[..nr];
                        for jj in jb..jb + nb {
                            let u = colc[ulen + jj];
                            if u != T::ZERO {
                                let colj = &left[jj * nr..(jj + 1) * nr];
                                for r in ulen + jj + 1..ulen + tc {
                                    colc[r] -= u * colj[r];
                                }
                            }
                        }
                    }
                    zfill(&mut scr.lpk, m * nb);
                    for bj in 0..nb {
                        let colj = &wbuf[(jb + bj) * nr + ulen + tc..(jb + bj + 1) * nr];
                        for (r, &v) in colj.iter().enumerate() {
                            scr.lpk[r * nb + bj] = v;
                        }
                    }
                    zfill(&mut scr.ub, nb * tcols);
                    for (ci, cc) in (tc..w).enumerate() {
                        let colc = &wbuf[cc * nr + ulen + jb..];
                        for bj in 0..nb {
                            scr.ub[bj * tcols + ci] = colc[bj];
                        }
                    }
                }
                T::gemm_nn(
                    m,
                    tcols,
                    nb,
                    &mut scr.lpk,
                    &mut scr.ub,
                    &mut scr.y,
                    &mut scr.gws,
                );
                let wbuf = &mut scr.w[..nr * w];
                for (ci, cc) in (tc..w).enumerate() {
                    let colc = &mut wbuf[cc * nr + ulen + tc..(cc + 1) * nr];
                    for (r, v) in colc.iter_mut().enumerate() {
                        *v -= scr.y[r * tcols + ci];
                    }
                }
            } else {
                // Small trailer: one combined TRSM + update pass per
                // column.
                let wbuf = &mut scr.w[..nr * w];
                for cc in tc..w {
                    let (left, right) = wbuf.split_at_mut(cc * nr);
                    let colc = &mut right[..nr];
                    for jj in jb..jb + nb {
                        let u = colc[ulen + jj];
                        if u != T::ZERO {
                            let colj = &left[jj * nr..(jj + 1) * nr];
                            for r in ulen + jj + 1..nr {
                                colc[r] -= u * colj[r];
                            }
                        }
                    }
                }
            }
            jb = tc;
        }
        let wbuf = &scr.w[..nr * w];
        // Store the supernode's blocks for later batch updates (the blocks
        // of `s` belong to this task — or to the serial walk — so the
        // exclusive access is safe).
        {
            let blk = unsafe { ctx.block_mut(s) };
            for cc in 0..w {
                let wcol = &wbuf[cc * nr..(cc + 1) * nr];
                for rr in cc + 1..w {
                    blk.ldiag[rr * w + cc] = wcol[ulen + rr];
                }
                for bi in 0..blen {
                    blk.lbelow[bi * w + cc] = wcol[ulen + w + bi];
                }
            }
            T::split_planes(blen, w, &blk.lbelow, &mut blk.planes);
            if !blk.linv.is_empty() {
                Self::fill_linv(&blk.ldiag, &mut blk.linv, w);
                T::split_planes(w, w, &blk.linv, &mut blk.linv_planes);
            }
        }
        // Scatter back into the recorded factor arrays (solve_into, later
        // scalar columns, and later panel axpys all read this storage)
        // through the precomputed scatter-order map.
        let mut si = self.store_ptr[s] as usize;
        for jj in 0..w {
            let k = s0 + jj;
            let wcol = &wbuf[jj * nr..(jj + 1) * nr];
            for t in ctx.u_colptr[k]..ctx.u_colptr[k + 1] {
                unsafe { ctx.set_uval(t, wcol[self.store_idx[si] as usize]) };
                si += 1;
            }
            for t in ctx.l_colptr[k]..ctx.l_colptr[k + 1] {
                unsafe { ctx.set_lval(t, wcol[self.store_idx[si] as usize]) };
                si += 1;
            }
        }
        self.clear_pos(ctx, &mut scr.pos, s);
        Ok(())
    }

    /// Recomputes the explicit inverse of a unit-lower diagonal block by
    /// forward substitution, column by column (multiplications only — the
    /// unit diagonal needs no divisions). The strict upper triangle and
    /// the diagonal keep their exact-zero/exact-one values from
    /// allocation, so the result multiplies as a full dense operand.
    fn fill_linv(ldiag: &[T], linv: &mut [T], w: usize) {
        for c in 0..w {
            for r in c + 1..w {
                let mut sum = ldiag[r * w + c];
                for kk in c + 1..r {
                    sum += ldiag[r * w + kk] * linv[kk * w + c];
                }
                linv[r * w + c] = -sum;
            }
        }
    }

    /// Mirrors a just-computed narrow supernode's recorded L values into
    /// its dense `ldiag`/`lbelow` blocks through the precomputed `nfill`
    /// scatter map, so later panels can batch it like any wide updater.
    fn fill_narrow(&self, ctx: &Ctx<'_, T>, s: usize) {
        let (f0, f1) = (self.nfill_ptr[s] as usize, self.nfill_ptr[s + 1] as usize);
        if f0 == f1 {
            return;
        }
        let (s0, s1) = (self.sn_ptr[s] as usize, self.sn_ptr[s + 1] as usize);
        let sq = (s1 - s0) * (s1 - s0);
        let blk = unsafe { ctx.block_mut(s) };
        let mut fi = f0;
        for k in s0..s1 {
            for t in ctx.l_colptr[k]..ctx.l_colptr[k + 1] {
                let dest = self.nfill_idx[fi] as usize;
                fi += 1;
                let v = unsafe { ctx.lval(t) };
                if dest < sq {
                    blk.ldiag[dest] = v;
                } else {
                    blk.lbelow[dest - sq] = v;
                }
            }
        }
        let w = s1 - s0;
        T::split_planes(blk.lbelow.len() / w, w, &blk.lbelow, &mut blk.planes);
    }

    /// Applies updater supernode `us` to panel supernode `s` as a batch:
    /// gather the U block, finalize it with a unit-lower TRSM against the
    /// updater's diagonal block, write it back, then subtract the product
    /// of the updater's sub-diagonal block with it. `pair` indexes the
    /// precomputed gather/scatter maps in `pair_idx`. Large products go
    /// through the [`Scalar::gemm_nn`] hook; small ones run a fused
    /// multiply-scatter that skips relaxed-zero multipliers and rows
    /// outside the panel.
    #[inline]
    fn batch_wide(
        &self,
        ctx: &Ctx<'_, T>,
        scr: &mut Scratch<T>,
        s: usize,
        nr: usize,
        us: usize,
        pair: usize,
    ) {
        let w = (self.sn_ptr[s + 1] - self.sn_ptr[s]) as usize;
        let (t0, t1) = (self.sn_ptr[us] as usize, self.sn_ptr[us + 1] as usize);
        let ws = t1 - t0;
        let blen = (self.b_ptr[us + 1] - self.b_ptr[us]) as usize;
        let pr = self.pair_ptr[pair] as usize;
        let (ub_map, y_map) = self.pair_idx[pr..pr + ws + blen].split_at(ws);
        // Compressed panel columns: only these receive nonzero
        // contributions from this updater.
        let cols = &self.pc_idx[self.pc_ptr[pair] as usize..self.pc_ptr[pair + 1] as usize];
        let wc = cols.len();
        if ws == 1 {
            // Singleton updater: the panel already holds its finalized U
            // row (no intra-supernode dependency), so skip the
            // gather/TRSM round-trip and fuse the rank-1 update directly.
            if blen == 0 {
                return;
            }
            let wbuf = &mut scr.w[..nr * w];
            let pu = ub_map[0] as usize;
            let blk = unsafe { ctx.block_mut(us) };
            let trow = &mut scr.trow[..wc];
            for (ci, v) in trow.iter_mut().enumerate() {
                *v = wbuf[cols[ci] as usize * nr + pu];
            }
            for (bi, &p) in y_map.iter().enumerate() {
                if p == u32::MAX {
                    continue;
                }
                let l = blk.lbelow[bi];
                if l != T::ZERO {
                    for (ci, v) in trow.iter().enumerate() {
                        wbuf[cols[ci] as usize * nr + p as usize] -= l * *v;
                    }
                }
            }
            return;
        }
        // Gather the U block (absent rows carry exact zeros).
        zfill(&mut scr.ub, ws * wc);
        {
            let wbuf = &scr.w[..nr * w];
            for (jj, &p) in ub_map.iter().enumerate() {
                if p != u32::MAX {
                    for (ci, v) in scr.ub[jj * wc..(jj + 1) * wc].iter_mut().enumerate() {
                        *v = wbuf[cols[ci] as usize * nr + p as usize];
                    }
                }
            }
        }
        // TRSM with the updater's unit-lower diagonal block: finalizes
        // U(updater columns, reached panel columns). When the plan carries
        // the updater's explicit inverse, the whole solve is one dense
        // product (the substitution's sequential dependency is what keeps
        // it off the GEMM kernel otherwise); smaller batches run blocked
        // like the panel factor — scalar solves on `Scalar::PANEL_NB`-row
        // blocks, the rows below each block retired through one gemm
        // product.
        let blk = unsafe { ctx.block_mut(us) };
        if !blk.linv.is_empty() && 2 * ws * ws * wc >= GEMM_MIN_FLOPS {
            T::gemm_nn_planes(
                ws,
                wc,
                ws,
                &mut blk.linv,
                &blk.linv_planes,
                &mut scr.ub,
                &mut scr.y,
                &mut scr.gws,
            );
            std::mem::swap(&mut scr.ub, &mut scr.y);
        } else {
            let mut b0 = 0;
            while b0 < ws {
                let bn = T::PANEL_NB.min(ws - b0);
                for jj in b0 + 1..b0 + bn {
                    for kk in b0..jj {
                        let l = blk.ldiag[jj * ws + kk];
                        if l != T::ZERO {
                            for ci in 0..wc {
                                let v = l * scr.ub[kk * wc + ci];
                                scr.ub[jj * wc + ci] -= v;
                            }
                        }
                    }
                }
                let below = ws - (b0 + bn);
                if below == 0 {
                    break;
                }
                if 2 * below * bn * wc >= GEMM_MIN_FLOPS {
                    zfill(&mut scr.lpk, below * bn);
                    for (r, row) in (b0 + bn..ws).enumerate() {
                        scr.lpk[r * bn..(r + 1) * bn]
                            .copy_from_slice(&blk.ldiag[row * ws + b0..row * ws + b0 + bn]);
                    }
                    zfill(&mut scr.bpk, bn * wc);
                    scr.bpk.copy_from_slice(&scr.ub[b0 * wc..(b0 + bn) * wc]);
                    T::gemm_nn(
                        below,
                        wc,
                        bn,
                        &mut scr.lpk,
                        &mut scr.bpk,
                        &mut scr.y,
                        &mut scr.gws,
                    );
                    for (v, &yv) in scr.ub[(b0 + bn) * wc..ws * wc].iter_mut().zip(&scr.y) {
                        *v -= yv;
                    }
                } else {
                    for jj in b0 + bn..ws {
                        for kk in b0..b0 + bn {
                            let l = blk.ldiag[jj * ws + kk];
                            if l != T::ZERO {
                                for ci in 0..wc {
                                    let v = l * scr.ub[kk * wc + ci];
                                    scr.ub[jj * wc + ci] -= v;
                                }
                            }
                        }
                    }
                }
                b0 += bn;
            }
        }
        // Write the finalized U rows back into the panel.
        {
            let wbuf = &mut scr.w[..nr * w];
            for (jj, &p) in ub_map.iter().enumerate() {
                if p != u32::MAX {
                    for (ci, v) in scr.ub[jj * wc..(jj + 1) * wc].iter().enumerate() {
                        wbuf[cols[ci] as usize * nr + p as usize] = *v;
                    }
                }
            }
        }
        if blen == 0 {
            return;
        }
        if 2 * blen * ws * wc >= GEMM_MIN_FLOPS {
            // Dense trailing blocks: the packed micro-kernel wins. The
            // updater's `lbelow` is task-local (a descendant in this
            // task's subtree, or the spine running alone), so the `&mut`
            // the gemm hook needs is exclusive; its contents are
            // unchanged on return. The cached planes were refreshed when
            // the updater's values landed (skipping the complex path's
            // per-call split of the dominant `blen×ws` operand), and the
            // hook merges the product directly into the mapped panel
            // subtraction.
            T::gemm_sub_into_panel(
                blen,
                wc,
                ws,
                &mut blk.lbelow,
                &blk.planes,
                &mut scr.ub,
                &mut scr.y,
                &mut scr.w[..nr * w],
                nr,
                y_map,
                cols,
                &mut scr.gws,
            );
        } else {
            // Fused small product: one accumulated panel row at a time,
            // contiguous in the reached columns, skipping zero multipliers
            // (relaxed padding) and rows outside the panel entirely.
            let wbuf = &mut scr.w[..nr * w];
            let trow = &mut scr.trow[..wc];
            for (bi, &p) in y_map.iter().enumerate() {
                if p == u32::MAX {
                    continue;
                }
                trow.fill(T::ZERO);
                for kk in 0..ws {
                    let l = blk.lbelow[bi * ws + kk];
                    if l != T::ZERO {
                        let urow = &scr.ub[kk * wc..(kk + 1) * wc];
                        for (ci, v) in trow.iter_mut().enumerate() {
                            *v += l * urow[ci];
                        }
                    }
                }
                for (ci, v) in trow.iter().enumerate() {
                    wbuf[cols[ci] as usize * nr + p as usize] -= *v;
                }
            }
        }
    }

    /// Resets the row map entries of supernode `s`'s panel.
    fn clear_pos(&self, ctx: &Ctx<'_, T>, pos: &mut [u32], s: usize) {
        for &row in &self.u_rows[self.u_ptr[s] as usize..self.u_ptr[s + 1] as usize] {
            pos[ctx.p[row as usize]] = u32::MAX;
        }
        for k in self.sn_ptr[s] as usize..self.sn_ptr[s + 1] as usize {
            pos[ctx.p[k]] = u32::MAX;
        }
        for &row in &self.b_rows[self.b_ptr[s] as usize..self.b_ptr[s + 1] as usize] {
            pos[ctx.p[row as usize]] = u32::MAX;
        }
    }
}

#[cfg(test)]
mod probe {
    use super::*;
    use crate::{CscMatrix, Matrix, SparseLu};

    fn grid_matrix(rows: usize, cols: usize) -> CscMatrix {
        let n = rows * cols;
        let mut dense = Matrix::zeros(n, n);
        for r in 0..rows {
            for c in 0..cols {
                let k = r * cols + c;
                dense[(k, k)] = 4.0 + (k as f64) * 1e-3;
                if c + 1 < cols {
                    dense[(k, k + 1)] = -1.0 - (k as f64) * 1e-5;
                    dense[(k + 1, k)] = -1.0 - (k as f64) * 1e-5;
                }
                if r + 1 < rows {
                    dense[(k, k + cols)] = -1.0 - (k as f64) * 2e-5;
                    dense[(k + cols, k)] = -1.0 - (k as f64) * 2e-5;
                }
                if c + 3 < cols {
                    dense[(k, k + 3)] = -0.125 - (k as f64) * 1e-5;
                    dense[(k + 3, k)] = -0.125 - (k as f64) * 1e-5;
                    dense[(k, k)] += 0.125;
                    dense[(k + 3, k + 3)] += 0.125;
                }
                if r + 3 < rows {
                    dense[(k, k + 3 * cols)] = -0.125 - (k as f64) * 2e-5;
                    dense[(k + 3 * cols, k)] = -0.125 - (k as f64) * 2e-5;
                    dense[(k, k)] += 0.125;
                    dense[(k + 3 * cols, k + 3 * cols)] += 0.125;
                }
                if c + 2 < cols {
                    dense[(k, k + 2)] = -0.25 - (k as f64) * 1e-5;
                    dense[(k + 2, k)] = -0.25 - (k as f64) * 1e-5;
                    dense[(k, k)] += 0.25;
                    dense[(k + 2, k + 2)] += 0.25;
                }
                if r + 2 < rows {
                    dense[(k, k + 2 * cols)] = -0.25 - (k as f64) * 2e-5;
                    dense[(k + 2 * cols, k)] = -0.25 - (k as f64) * 2e-5;
                    dense[(k, k)] += 0.25;
                    dense[(k + 2 * cols, k + 2 * cols)] += 0.25;
                }
                if r + 1 < rows && c + 1 < cols {
                    dense[(k, k + cols + 1)] = -0.5 - (k as f64) * 1e-5;
                    dense[(k + cols + 1, k)] = -0.5 - (k as f64) * 1e-5;
                    dense[(k + 1, k + cols)] = -0.5 - (k as f64) * 2e-5;
                    dense[(k + cols, k + 1)] = -0.5 - (k as f64) * 2e-5;
                    dense[(k, k)] += 1.0;
                    dense[(k + 1, k + 1)] += 1.0;
                    dense[(k + cols, k + cols)] += 1.0;
                    dense[(k + cols + 1, k + cols + 1)] += 1.0;
                }
            }
        }
        CscMatrix::from_dense(&dense)
    }

    /// Auto dispatch quality: engages on mesh patterns whose factors have
    /// dense trailing structure, declines on banded patterns (whose
    /// relaxed panels would be padding-dominated) and below
    /// [`SUPERNODAL_MIN_N`].
    #[test]
    fn auto_dispatch_engages_on_meshes_not_bands() {
        let mut lu = SparseLu::new();
        lu.factor(&grid_matrix(23, 23)).unwrap();
        assert!(lu.supernodal_active(), "mesh must dispatch blocked");

        let n = 128;
        let band = Matrix::from_fn(n, n, |i, j| {
            let d = i.abs_diff(j);
            if d == 0 {
                4.0 + i as f64 * 0.01
            } else if d <= 2 {
                -1.0 - ((i * 7 + j) % 5) as f64 * 0.05
            } else {
                0.0
            }
        });
        let mut lu = SparseLu::new();
        lu.factor(&CscMatrix::from_dense(&band)).unwrap();
        assert!(!lu.supernodal_active(), "banded patterns must stay scalar");

        let mut lu = SparseLu::new();
        lu.factor(&grid_matrix(7, 7)).unwrap();
        assert!(
            !lu.supernodal_active(),
            "systems below SUPERNODAL_MIN_N must stay scalar"
        );
    }

    /// The etree partition is a true partition (tasks ∪ spine covers every
    /// supernode exactly once) and tasks are dependency-closed: every
    /// supernode a task member reads belongs to the same task.
    #[test]
    fn etree_partition_covers_supernodes_and_closes_deps() {
        let a = grid_matrix(23, 23);
        let mut lu = SparseLu::new();
        lu.set_supernodal_mode(SupernodalMode::ForceBlocked);
        lu.factor(&a).unwrap();
        let sn = lu.supernodal.as_ref().unwrap();
        let nsn = sn.num_supernodes();
        assert!(sn.num_tasks() >= 2, "mesh plan must split into tasks");
        let mut seen = vec![0usize; nsn];
        let mut task_of = vec![usize::MAX; nsn];
        for ti in 0..sn.num_tasks() {
            for i in sn.task_ptr[ti] as usize..sn.task_ptr[ti + 1] as usize {
                let s = sn.task_sn[i] as usize;
                seen[s] += 1;
                task_of[s] = ti;
            }
        }
        for &s in &sn.spine {
            seen[s as usize] += 1;
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "tasks ∪ spine must cover each supernode exactly once"
        );
        for s in 0..nsn {
            if task_of[s] == usize::MAX {
                continue; // spine reads everything after the barrier
            }
            let (s0, s1) = (sn.sn_ptr[s] as usize, sn.sn_ptr[s + 1] as usize);
            for k in s0..s1 {
                for t in lu.u_colptr[k]..lu.u_colptr[k + 1] {
                    let d = sn.col_sn[lu.u_rows[t] as usize] as usize;
                    if d != s {
                        assert_eq!(
                            task_of[d], task_of[s],
                            "dependency {d} of task supernode {s} crosses tasks"
                        );
                    }
                }
            }
        }
    }

    /// Parallel replay contract: the factors produced with 2 and 4 workers
    /// are bitwise identical to the serial walk on a refactor with new
    /// values.
    #[test]
    fn parallel_replay_is_bit_identical_to_serial() {
        let a = grid_matrix(30, 30);
        let mut lu = SparseLu::new();
        lu.set_supernodal_mode(SupernodalMode::ForceBlocked);
        lu.factor(&a).unwrap();
        assert!(lu.supernodal_active());
        let mut a2 = a.clone();
        for (i, v) in a2.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + (i % 7) as f64 * 1e-3;
        }
        let mut serial = lu.clone();
        let mut sn = serial.supernodal.take().unwrap();
        sn.refactor_threads(&mut serial, &a2, 1).unwrap();
        serial.supernodal = Some(sn);
        for threads in [2usize, 4] {
            let mut par = lu.clone();
            let mut sn = par.supernodal.take().unwrap();
            assert!(sn.num_tasks() >= 2);
            sn.refactor_threads(&mut par, &a2, threads).unwrap();
            par.supernodal = Some(sn);
            assert_eq!(serial.l_vals, par.l_vals, "L ({threads} threads)");
            assert_eq!(serial.u_vals, par.u_vals, "U ({threads} threads)");
            assert_eq!(serial.inv_diag, par.inv_diag, "pivots ({threads} threads)");
        }
    }

    /// Diagnostic (run with `--ignored --nocapture`): supernode width
    /// histogram, the flop share carried by panel columns, and the task
    /// partition on grid Laplacians — the statistics the dispatch
    /// thresholds were tuned against.
    #[test]
    #[ignore]
    fn print_mesh_supernode_stats() {
        for side in [15usize, 23, 32] {
            let a = grid_matrix(side, side);
            let n = side * side;
            let mut lu = SparseLu::new();
            lu.set_supernodal_mode(SupernodalMode::ForceBlocked);
            lu.factor(&a).unwrap();
            let sn = lu.supernodal.as_ref().unwrap();
            let nsn = sn.num_supernodes();
            let mut hist = std::collections::BTreeMap::new();
            for s in 0..nsn {
                *hist.entry(sn.width(s)).or_insert(0usize) += 1;
            }
            let (mut total, mut panel) = (0u64, 0u64);
            for j in 0..n {
                let mut col = 0u64;
                for t in lu.u_colptr[j]..lu.u_colptr[j + 1] {
                    let k = lu.u_rows[t] as usize;
                    col += 1 + 2 * (lu.l_colptr[k + 1] - lu.l_colptr[k]) as u64;
                }
                total += col;
                if sn.width(sn.col_sn[j] as usize) >= <f64 as Scalar>::PANEL_MIN_WIDTH {
                    panel += col;
                }
            }
            eprintln!(
                "n={n}: {nsn} supernodes ({} wide), {} tasks + {} spine, \
                 panel-col flops {panel}/{total}, plan_flops={}, widths {hist:?}",
                sn.wide_supernodes,
                sn.num_tasks(),
                sn.spine.len(),
                sn.block_flops
            );
        }
    }
}
