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
//!   micro-kernel, with a fused multiply-scatter fallback for small
//!   batches.
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
//! # Serial replay
//!
//! [`Supernodal::refactor`] walks the supernodes in ascending pivotal
//! order on the calling thread. Everything a supernode reads — earlier L
//! columns in the scalar kernel, updater blocks in a panel — belongs to
//! an earlier supernode, so one ascending pass sees every input final.
//! The replay stops at the first pivot that collapses and reports it.
//! Parallelism lives one level up, in the evaluation grid: many replays
//! run at once, one per grid worker, each on its own factor.
//!
//! Determinism: the plan is a pure function of the recorded pattern and
//! the walk is sequential, so the blocked replay satisfies the same
//! serial ≡ parallel-grid contract as the scalar one. To keep *fresh
//! factor ≡ refactor* bit-identity on this path, [`SparseLuT::factor`]
//! re-runs the blocked replay on the same values immediately after the
//! scalar pivoting pass pins the pattern: stored factors always come from
//! blocked arithmetic whenever the blocked plan is active.

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

/// Numeric scratch of the replay, sized once per plan.
#[derive(Debug, Clone, Default)]
struct Scratch<T: Scalar> {
    /// Dense working panel, column-major (`nr` rows per column).
    w: Vec<T>,
    /// Original row → panel row for the supernode being processed
    /// (`u32::MAX` = absent).
    pos: Vec<u32>,
    /// Dense accumulator of the scalar column kernel, indexed by original
    /// row.
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

/// Numeric-replay context: the recorded pattern and `A`'s values
/// (shared) plus the factor arrays and dense blocks the replay writes.
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
    l_vals: &'a mut [T],
    u_vals: &'a mut [T],
    inv_diag: &'a mut [T],
    blocks: &'a mut [Block<T>],
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
    /// Estimated dense-block flops per numeric replay (telemetry).
    block_flops: u64,
    /// Supernodes of width ≥ 2 (telemetry / dispatch statistics).
    pub(crate) wide_supernodes: u64,
    /// Largest panel area, for sizing the working buffers once.
    max_panel: usize,

    // ---- numeric storage ----
    /// Dense L blocks per supernode (see [`Block`]).
    blocks: Vec<Block<T>>,
    /// Replay scratch, sized when the plan is finished.
    scratch: Scratch<T>,
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
    /// storage, flop estimate) once the partition is fixed and the blocked
    /// path is selected. Narrow supernodes get empty
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
        // Total panel columns this supernode retires through GEMM-sized
        // batch TRSMs — when that reaches the supernode's own width, the
        // O(w³/6) explicit inverse of its unit-lower block pays for itself
        // and every one of those TRSMs becomes a dense product.
        let mut linv_wc = vec![0u64; nsn];
        for s in 0..nsn {
            let (s0, s1) = (self.sn_ptr[s] as usize, self.sn_ptr[s + 1] as usize);
            let w = s1 - s0;
            if w < T::PANEL_MIN_WIDTH {
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
                flops += (ws * ws * wc + 2 * bs * ws * wc) as u64;
                if 2 * ws * ws * wc >= GEMM_MIN_FLOPS {
                    linv_wc[us] += wc as u64;
                }
            }
            flops += (w * w * (blen + w)) as u64;
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
        self.scratch = Scratch::new(n, self.max_panel);
    }

    /// Hybrid numeric replay of new values through the blocked plan (see
    /// the module docs for the shape): one ascending walk over the
    /// supernodes.
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
        lu.factored = false;
        // The blocks and scratch move out of `self` for the walk, so the
        // plan stays a shared read-only borrow beside them.
        let mut blocks = std::mem::take(&mut self.blocks);
        let mut scr = std::mem::take(&mut self.scratch);
        let mut ctx = Ctx {
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
            l_vals: &mut lu.l_vals,
            u_vals: &mut lu.u_vals,
            inv_diag: &mut lu.inv_diag,
            blocks: &mut blocks,
        };
        let res = (0..self.num_supernodes())
            .try_for_each(|s| self.process_supernode(&mut ctx, &mut scr, s));
        self.blocks = blocks;
        self.scratch = scr;
        if res.is_ok() {
            telemetry::record(telemetry::Metric::SparseBlockFlops, self.block_flops);
            lu.factored = true;
        }
        res
    }

    /// Replays one supernode: scalar columns + dense mirror for the narrow
    /// ones, the blocked panel for the wide ones. Kept out of line: inlined
    /// into its one caller, the whole replay measured 4–7% slower on the
    /// mesh refactor rows.
    #[inline(never)]
    fn process_supernode(
        &self,
        ctx: &mut Ctx<'_, T>,
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
    /// the paths depends on it). `work` is the replay's dense accumulator,
    /// all-zero on entry and on exit (success or pivot collapse): every
    /// entry is zeroed as it is read, exactly like the scalar replay.
    #[inline]
    fn scalar_column(ctx: &mut Ctx<'_, T>, work: &mut [T], k: usize) -> Result<(), FactorError> {
        let col = ctx.q[k];
        let (a0, a1) = (ctx.a_colptr[col], ctx.a_colptr[col + 1]);
        for (&r, &v) in ctx.a_rows[a0..a1].iter().zip(&ctx.a_vals[a0..a1]) {
            work[r] += v;
        }
        let (u0, u1) = (ctx.u_colptr[k], ctx.u_colptr[k + 1]);
        for ((&step, &r), uv) in ctx.u_rows[u0..u1]
            .iter()
            .zip(&ctx.u_orig[u0..u1])
            .zip(&mut ctx.u_vals[u0..u1])
        {
            let ux = std::mem::replace(&mut work[r as usize], T::ZERO);
            *uv = ux;
            if ux != T::ZERO {
                let (s0, s1) = (ctx.l_colptr[step as usize], ctx.l_colptr[step as usize + 1]);
                for (&lr, &lv) in ctx.l_rows[s0..s1].iter().zip(&ctx.l_vals[s0..s1]) {
                    work[lr as usize] -= ux * lv;
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
        ctx.inv_diag[k] = inv;
        for (&r, lv) in ctx.l_rows[l0..l1].iter().zip(&mut ctx.l_vals[l0..l1]) {
            *lv = std::mem::replace(&mut work[r as usize], T::ZERO) * inv;
        }
        Ok(())
    }

    /// Processes one wide supernode through its dense panel.
    fn panel(
        &self,
        ctx: &mut Ctx<'_, T>,
        scr: &mut Scratch<T>,
        s: usize,
    ) -> Result<(), FactorError> {
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
            self.batch_wide(&mut ctx.blocks[us], scr, s, nr, us, t);
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
                ctx.inv_diag[s0 + jj] = inv;
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
        // Store the supernode's blocks for later batch updates.
        {
            let blk = &mut ctx.blocks[s];
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
                ctx.u_vals[t] = wcol[self.store_idx[si] as usize];
                si += 1;
            }
            for t in ctx.l_colptr[k]..ctx.l_colptr[k + 1] {
                ctx.l_vals[t] = wcol[self.store_idx[si] as usize];
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
    fn fill_narrow(&self, ctx: &mut Ctx<'_, T>, s: usize) {
        let (f0, f1) = (self.nfill_ptr[s] as usize, self.nfill_ptr[s + 1] as usize);
        if f0 == f1 {
            return;
        }
        let (s0, s1) = (self.sn_ptr[s] as usize, self.sn_ptr[s + 1] as usize);
        let sq = (s1 - s0) * (s1 - s0);
        let blk = &mut ctx.blocks[s];
        let mut fi = f0;
        for k in s0..s1 {
            for t in ctx.l_colptr[k]..ctx.l_colptr[k + 1] {
                let dest = self.nfill_idx[fi] as usize;
                fi += 1;
                let v = ctx.l_vals[t];
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

    /// Applies updater supernode `us` (dense blocks `blk`) to panel
    /// supernode `s` as a batch:
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
        blk: &mut Block<T>,
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
            // gemm hook borrows the updater's `lbelow` mutably but leaves
            // its contents unchanged on return. The cached planes were refreshed when
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
mod tests {
    use super::*;
    use crate::{CscComplexMatrix, CscMatrix, Matrix, SparseComplexLu, SparseLu, C64};

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

    /// FNV-1a over the bit patterns of a solution, for exact comparisons
    /// (`==` on values would equate `0.0` with `-0.0`).
    fn bits_digest(bits: impl IntoIterator<Item = u64>) -> u64 {
        bits.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// True when the GEMM kernel behind the blocked replay is the fused
    /// multiply-add one the pinned digests were recorded with.
    fn fma_host() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// The blocked replay's bits, pinned: a `ForceBlocked` factor, a
    /// refactor on perturbed values and a solve on a 500-unknown mesh,
    /// real (DC) and complex (one AC point, `G + jωC` with grounded
    /// capacitors). Any change to the replay's arithmetic or its order
    /// moves a digest. The digests hold on x86-64 hosts with AVX2+FMA; the
    /// portable micro-kernel rounds differently.
    #[test]
    fn blocked_replay_bits_are_pinned() {
        let g = grid_matrix(20, 25);
        let n = g.n;
        let mut g2 = g.clone();
        for (i, v) in g2.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + (i % 7) as f64 * 1e-3;
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut lu = SparseLu::new();
        lu.set_supernodal_mode(SupernodalMode::ForceBlocked);
        lu.factor(&g).unwrap();
        assert!(lu.wide_supernodes() > 0, "mesh produced no dense panels");
        lu.refactor_into(&g2).unwrap();
        let mut x = Vec::new();
        lu.solve_into(&b, &mut x).unwrap();
        let dc = bits_digest(x.iter().map(|v| v.to_bits()));

        let ac_rows = |g: &CscMatrix| -> Vec<Vec<C64>> {
            let dense = g.to_dense();
            (0..n)
                .map(|i| {
                    (0..n)
                        .map(|j| {
                            let wc = if i == j {
                                0.2 + 0.01 * (i % 5) as f64
                            } else {
                                0.0
                            };
                            C64::new(dense[(i, j)], wc)
                        })
                        .collect()
                })
                .collect()
        };
        let (a, a2) = (
            CscComplexMatrix::from_dense_rows(&ac_rows(&g)),
            CscComplexMatrix::from_dense_rows(&ac_rows(&g2)),
        );
        let z: Vec<C64> = b.iter().map(|&v| C64::new(v, 0.5 * v)).collect();
        let mut clu = SparseComplexLu::new();
        clu.set_supernodal_mode(SupernodalMode::ForceBlocked);
        clu.factor(&a).unwrap();
        assert!(clu.supernodal_active());
        clu.refactor_into(&a2).unwrap();
        let mut xc = Vec::new();
        clu.solve_into(&z, &mut xc).unwrap();
        let ac = bits_digest(xc.iter().flat_map(|v| [v.re.to_bits(), v.im.to_bits()]));

        if fma_host() {
            assert_eq!(
                dc, 0x91e2_2dfd_e892_1ab8,
                "DC solution bits moved: {dc:#018x}"
            );
            assert_eq!(
                ac, 0x1250_cdbc_1c8a_d493,
                "AC solution bits moved: {ac:#018x}"
            );
        }
    }

    /// Diagnostic (run with `--ignored --nocapture`): supernode width
    /// histogram and the flop share carried by panel columns on grid
    /// Laplacians — the statistics the dispatch
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
                "n={n}: {nsn} supernodes ({} wide), \
                 panel-col flops {panel}/{total}, plan_flops={}, widths {hist:?}",
                sn.wide_supernodes, sn.block_flops
            );
        }
    }
}
