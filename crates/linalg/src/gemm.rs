//! Cache-blocked dense GEMM engine with register-tiled micro-kernels.
//!
//! One entry point, [`gemm`] (and its epilogue-fusing sibling
//! [`gemm_with`]), covers every matrix-product shape the workspace needs:
//! `C := α·op(A)·op(B) + β·C` with independent transposition selectors for
//! both operands, so the NN/NT/TN products of an MLP's forward and backward
//! passes all run through the same kernel.
//!
//! # Blocking scheme
//!
//! The implementation follows the classic Goto/BLIS decomposition:
//!
//! - the output is processed in `NC`-wide column blocks;
//! - each column block accumulates over `KC`-deep panels of the inner
//!   dimension; the `KC × NC` slice of `op(B)` is packed once per panel
//!   into [`GemmWorkspace::pack_b`], laid out in `NR`-column micro-panels;
//! - inside a panel, `MC`-tall row blocks of `op(A)` are packed into
//!   [`GemmWorkspace::pack_a`] as `MR`-row micro-panels;
//! - a register-tiled micro-kernel then computes `MR × NR` output tiles
//!   (`4 × 8` f64 accumulators) from the two packed panels, walking both
//!   with stride-1 loads and no transposition logic in the inner loop.
//!
//! Packing handles both transposition and edge padding (partial tiles are
//! zero-padded to full `MR`/`NR` width), so the micro-kernel is a single
//! branch-free loop. On x86-64 hosts with AVX2+FMA a fused-multiply-add
//! variant of the micro-kernel is selected once per process; everywhere
//! else a portable scalar-tiled kernel runs. Small products (`m·n·k ≤`
//! [`GEMM_NAIVE_CUTOFF`]) skip the packing machinery entirely and use the
//! naive reference kernel, which is also exposed as [`gemm_naive`] for
//! differential testing.
//!
//! # Small path
//!
//! MLP training products (batch 128, widths of a few dozen) are too small
//! for the Goto loop nest to pay for its packing. On hosts with AVX-512F
//! they take a register-tiled small path instead: every non-empty product
//! with `k ≤` [`GEMM_SMALL_MAX_K`] and `n ≤` [`GEMM_SMALL_MAX_N`],
//! including those at or below [`GEMM_NAIVE_CUTOFF`]. It reads `op(A)` in
//! place — `NoTrans`
//! broadcasts from row-major rows, `Trans` from the contiguous source rows
//! of `A` — and copies `op(B)` once per call into a zero-padded `k × n̄`
//! row-major panel (`n̄` rounds `n` up to the 8-lane vector width). The
//! kernel then computes `SMR × 24` output tiles (three `zmm` accumulators
//! per row), with masked stores for column tails and `SMR / 2`-row and
//! 1-row tiles for row tails. The rule is decided before any thread split, so these products
//! always run serially. Every other host runs the blocked and naive paths
//! only.
//!
//! # Threading
//!
//! Products with `m·n·k ≥` [`GEMM_PARALLEL_MIN_WORK`] that miss the small
//! path run on the shared
//! [`crate::pool`] when its two-level budget allows (the evaluation grid
//! is idle and the caller is not itself a pool worker — see
//! [`crate::pool::gemm_threads`]). The split is **static**: the output's
//! `MR`-row (or `NR`-column, whichever dimension has more tiles) tile
//! index space is divided into one contiguous, tile-aligned range per
//! thread by a pure function of (shape, thread count); each thread packs
//! its own operand panels and computes its own disjoint output tiles.
//! There is no work queue, no stealing, and no atomics or reductions
//! anywhere in the floating-point path.
//!
//! # Determinism
//!
//! The tiling is fixed (compile-time `MC`/`KC`/`NC`/`MR`/`NR`) and the
//! per-element accumulation order depends only on the operand shapes —
//! never on thread count or scheduling — so repeated calls are
//! bit-identical on a given host. Because the thread split above is
//! tile-aligned, every thread sees exactly the tiles (and the `KC`-panel
//! accumulation sequence per element) that the serial kernel would
//! produce, so the threaded path is bit-identical to the serial one at
//! any thread count. The FMA and portable micro-kernels may differ in
//! final-bit rounding (fused vs separate multiply-add), but the selection
//! is constant for the lifetime of the process.
//!
//! The small path is bit-identical to the blocked FMA kernel: with
//! `k ≤ KC` both accumulate every element as a chain of fused
//! multiply-adds over `p = 0..k` from zero, then take `α·acc`, store it
//! (`β = 0`) or add it to `C` (`β = 1`) or to `β·C` (otherwise), and run
//! the epilogue last.
//!
//! # Epilogues
//!
//! [`gemm_with`] applies an [`Epilogue`] to every finished output element
//! exactly once, after all `KC`-panel contributions have accumulated. This
//! is how the NN crate fuses bias-add + activation into the forward GEMM
//! and the activation-derivative product into the backward GEMM without an
//! extra pass over the output.

use crate::Matrix;

/// Transposition selector for a [`gemm`] operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmOp {
    /// Use the operand as stored.
    NoTrans,
    /// Use the operand's transpose (without materializing it).
    Trans,
}

impl GemmOp {
    /// Effective `(rows, cols)` of `m` under this op.
    fn dims(self, m: &Matrix) -> (usize, usize) {
        match self {
            GemmOp::NoTrans => (m.rows(), m.cols()),
            GemmOp::Trans => (m.cols(), m.rows()),
        }
    }
}

/// A fused output transformation applied by [`gemm_with`].
///
/// `apply` is called exactly once per output element, after the element's
/// value is final, as `apply(row, col0, seg)` where `seg` is the contiguous
/// slice `c[row][col0 .. col0 + seg.len()]`. Implementations must treat the
/// call element-wise (the segmentation — full rows for the naive kernel,
/// `NC`-wide column blocks for the blocked kernel — is not part of the
/// contract).
pub trait Epilogue {
    /// Transforms one finished output-row segment in place.
    fn apply(&mut self, row: usize, col0: usize, seg: &mut [f64]);
}

/// The identity epilogue of plain [`gemm`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NoEpilogue;

impl Epilogue for NoEpilogue {
    #[inline]
    fn apply(&mut self, _row: usize, _col0: usize, _seg: &mut [f64]) {}
}

/// Reusable packing buffers for the blocked kernel and the small path.
/// One workspace serves any sequence of [`gemm`] calls; the buffers grow
/// to the largest panel seen and are reused allocation-free afterwards.
#[derive(Debug, Clone, Default)]
pub struct GemmWorkspace {
    /// `MC × KC` panel of `op(A)`, packed in `MR`-row micro-panels.
    pack_a: Vec<f64>,
    /// `KC × NC` panel of `op(B)`, packed in `NR`-column micro-panels —
    /// or, on the small path, the zero-padded `k × n̄` row-major panel.
    pack_b: Vec<f64>,
}

impl GemmWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Micro-kernel tile height (rows of `C` per register tile).
const MR: usize = 4;
/// Micro-kernel tile width (columns of `C` per register tile).
const NR: usize = 8;
/// Row-panel height: rows of `op(A)` packed per inner block.
const MC: usize = 128;
/// Depth of one packed panel of the inner dimension.
const KC: usize = 256;
/// Column-block width of the outermost loop.
const NC: usize = 4096;

/// `m·n·k` at or below which [`gemm`] runs the naive reference kernel
/// instead of the blocked one (packing overhead dominates tiny products),
/// unless the AVX-512 small path takes the product.
pub const GEMM_NAIVE_CUTOFF: usize = 4096;

/// `m·n·k` below which the blocked kernel stays serial even when the
/// thread budget would allow more: dispatch + duplicated packing overhead
/// beats the speedup on small products. At or above it, [`gemm`] splits
/// the output's larger tile dimension across the shared [`crate::pool`]
/// (results stay bit-identical — see the module docs).
pub const GEMM_PARALLEL_MIN_WORK: usize = 65_536;

/// Deepest inner dimension the AVX-512 small path serves: one `KC` panel,
/// so its single fused-multiply-add chain per element matches the blocked
/// kernel's accumulation bit for bit. Deeper products stay blocked (and
/// threaded above [`GEMM_PARALLEL_MIN_WORK`]).
pub const GEMM_SMALL_MAX_K: usize = KC;

/// Widest output the AVX-512 small path serves. Beyond it the unpacked
/// `k × n̄` panel of `op(B)` outgrows the caches that the blocked kernel's
/// `NR`-column micro-panels stay in: against the serial blocked kernel
/// the small path wins 1.3–2.7× up to `n = 256`, and its lead shrinks to
/// 0.98–1.3× at `n = 512`, `k = 256` (`probe_small_path_crossover`).
pub const GEMM_SMALL_MAX_N: usize = 256;

/// Row height of the small path's full register tiles.
const SMR: usize = 8;
/// Lanes of one `zmm` register of f64.
const LANES: usize = 8;

/// General matrix multiply `C := α·op(A)·op(B) + β·C`.
///
/// With `beta == 0.0` the output matrix is reshaped to fit (reusing its
/// allocation) and the old contents are ignored entirely — `C` may be a
/// default-constructed buffer. With `beta != 0.0` the output must already
/// have the product's shape.
///
/// # Panics
///
/// Panics if the effective inner dimensions disagree, or if `beta != 0.0`
/// and `C` has the wrong shape.
#[allow(clippy::too_many_arguments)] // the canonical BLAS dgemm signature
pub fn gemm(
    op_a: GemmOp,
    op_b: GemmOp,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
    ws: &mut GemmWorkspace,
) {
    gemm_with(op_a, op_b, alpha, a, b, beta, c, ws, &mut NoEpilogue);
}

/// [`gemm`] with a fused [`Epilogue`] applied to every finished output
/// element (bias-add, activation, elementwise products — anything that
/// would otherwise need a second pass over `C`).
///
/// # Panics
///
/// Same conditions as [`gemm`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_with<E: Epilogue>(
    op_a: GemmOp,
    op_b: GemmOp,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
    ws: &mut GemmWorkspace,
    epilogue: &mut E,
) {
    debug_assert_finite_operand(a, "A");
    debug_assert_finite_operand(b, "B");
    let (m, n, k) = checked_dims(op_a, op_b, a, b);
    prepare_output(beta, m, n, c);
    let work = m * n * k;
    if work != 0 && takes_small_path(n, k) {
        small_body(op_a, op_b, alpha, a, b, beta, c, ws, epilogue, (m, n, k));
    } else if work <= GEMM_NAIVE_CUTOFF {
        naive_body(op_a, op_b, alpha, a, b, beta, c, epilogue, (m, n, k));
    } else {
        blocked_body(op_a, op_b, alpha, a, b, beta, c, ws, epilogue, (m, n, k));
    }
}

/// The small-path dispatch rule for a non-empty product of any size: an
/// AVX-512F host, `k ≤` [`GEMM_SMALL_MAX_K`] and `n ≤`
/// [`GEMM_SMALL_MAX_N`]. Decided before [`plan_threads`], so such products
/// never split across the pool. Tiny products take it too: it beats the
/// naive loops there, and it keeps inference through a trained network on
/// the same fused-multiply-add arithmetic at every batch size.
fn takes_small_path(n: usize, k: usize) -> bool {
    k <= GEMM_SMALL_MAX_K && n <= GEMM_SMALL_MAX_N && small_path_available()
}

/// The naive reference kernel: straight i-j-k triple loops with the same
/// `C := α·op(A)·op(B) + β·C` semantics as [`gemm`]. Used as the
/// ground truth of the differential property tests and by [`gemm`] itself
/// at or below [`GEMM_NAIVE_CUTOFF`] when the small path does not apply.
///
/// # Panics
///
/// Same conditions as [`gemm`].
pub fn gemm_naive(
    op_a: GemmOp,
    op_b: GemmOp,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
) {
    gemm_naive_with(op_a, op_b, alpha, a, b, beta, c, &mut NoEpilogue);
}

/// [`gemm_naive`] with a fused [`Epilogue`] — the reference implementation
/// of the epilogue contract.
///
/// # Panics
///
/// Same conditions as [`gemm`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_naive_with<E: Epilogue>(
    op_a: GemmOp,
    op_b: GemmOp,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
    epilogue: &mut E,
) {
    let (m, n, k) = checked_dims(op_a, op_b, a, b);
    prepare_output(beta, m, n, c);
    naive_body(op_a, op_b, alpha, a, b, beta, c, epilogue, (m, n, k));
}

/// Effective `(m, n, k)` of the product, with the inner-dimension check.
fn checked_dims(op_a: GemmOp, op_b: GemmOp, a: &Matrix, b: &Matrix) -> (usize, usize, usize) {
    let (m, ka) = op_a.dims(a);
    let (kb, n) = op_b.dims(b);
    assert_eq!(ka, kb, "inner dimensions must agree");
    (m, n, ka)
}

/// Shapes (or shape-checks) the output for the accumulation. With
/// `beta == 0` the old contents are never read — the naive kernel assigns
/// every element and the blocked kernel's first `KC` panel *stores* instead
/// of accumulating — so the reshape skips the memset.
fn prepare_output(beta: f64, m: usize, n: usize, c: &mut Matrix) {
    if beta == 0.0 {
        c.reshape_for_overwrite(m, n);
    } else {
        assert_eq!(
            (c.rows(), c.cols()),
            (m, n),
            "output shape mismatch for beta != 0"
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn naive_body<E: Epilogue>(
    op_a: GemmOp,
    op_b: GemmOp,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
    epilogue: &mut E,
    (m, n, k): (usize, usize, usize),
) {
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0;
            for p in 0..k {
                let av = match op_a {
                    GemmOp::NoTrans => a[(i, p)],
                    GemmOp::Trans => a[(p, i)],
                };
                let bv = match op_b {
                    GemmOp::NoTrans => b[(p, j)],
                    GemmOp::Trans => b[(j, p)],
                };
                s += av * bv;
            }
            // beta == 0 must ignore the old contents entirely (they may be
            // stale or non-finite), not multiply them by zero.
            let prev = if beta == 0.0 { 0.0 } else { beta * c[(i, j)] };
            c[(i, j)] = alpha * s + prev;
        }
        epilogue.apply(i, 0, c.row_mut(i));
    }
}

/// Raw mutable base pointer into `C`'s storage, shared across the threads
/// of one parallel product. Each thread writes a disjoint, statically
/// assigned set of output elements (see [`plan_threads`]), so the shared
/// mutable access is race-free.
#[derive(Clone, Copy)]
struct SendPtr(*mut f64);

impl SendPtr {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper, not the raw pointer field.
    fn get(self) -> *mut f64 {
        self.0
    }
}

// SAFETY: the pointer is only ever dereferenced on disjoint element sets
// per thread (the tile split is a partition), and the owning `Matrix`
// outlives the dispatch.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

thread_local! {
    /// Packing buffers for parallel products: each participating thread
    /// (including the caller running slot 0) packs into its own
    /// thread-local workspace, reused allocation-free across dispatches.
    static PARALLEL_WS: std::cell::RefCell<GemmWorkspace> =
        std::cell::RefCell::new(GemmWorkspace::new());
}

/// The static thread split for an `m × n` (inner `k`) product: how many
/// threads to use and whether to split the `MR`-row or `NR`-column tile
/// dimension. A pure function of (shape, thread budget) — never of load
/// or timing — so the partition is reproducible.
fn plan_threads(m: usize, n: usize, k: usize) -> (usize, bool) {
    if m.saturating_mul(n).saturating_mul(k) < GEMM_PARALLEL_MIN_WORK {
        return (1, true);
    }
    let budget = crate::pool::gemm_threads();
    if budget <= 1 {
        return (1, true);
    }
    let row_tiles = m.div_ceil(MR);
    let col_tiles = n.div_ceil(NR);
    let split_rows = row_tiles >= col_tiles;
    let tiles = if split_rows { row_tiles } else { col_tiles };
    (budget.min(tiles), split_rows)
}

/// Contiguous tile range owned by `slot` out of `threads`: the first
/// `tiles % threads` slots get one extra tile. Returned as an element
/// range clamped to `limit`, with every interior boundary tile-aligned.
fn slot_range(
    slot: usize,
    threads: usize,
    tiles: usize,
    tile: usize,
    limit: usize,
) -> (usize, usize) {
    let base = tiles / threads;
    let rem = tiles % threads;
    let t0 = slot * base + slot.min(rem);
    let t1 = t0 + base + usize::from(slot < rem);
    ((t0 * tile).min(limit), (t1 * tile).min(limit))
}

/// Telemetry of one blocked or small-path product (one gate check when
/// off): its flops, the split width when it runs threaded, and a `gemm`
/// span only at or above the parallel work cutoff, so traced training
/// loops don't drown in micro-product events.
fn trace_product(work: usize, threads: usize) -> Option<telemetry::Span> {
    if !telemetry::enabled() {
        return None;
    }
    telemetry::record(telemetry::Metric::GemmFlops, 2 * work as u64);
    if threads > 1 {
        telemetry::record(telemetry::Metric::GemmSplitWidth, threads as u64);
    }
    (work >= GEMM_PARALLEL_MIN_WORK)
        .then(|| telemetry::span_with(telemetry::SpanId::Gemm, threads as u64))
}

#[allow(clippy::too_many_arguments)]
fn blocked_body<E: Epilogue>(
    op_a: GemmOp,
    op_b: GemmOp,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
    ws: &mut GemmWorkspace,
    epilogue: &mut E,
    (m, n, k): (usize, usize, usize),
) {
    let kernel = select_micro_kernel();
    let ccols = c.cols();
    let (threads, split_rows) = plan_threads(m, n, k);
    let _span = trace_product(m * n * k, threads);
    if threads <= 1 {
        // SAFETY: exclusive access to all of `C` through its own base
        // pointer; the region covers exactly the output.
        unsafe {
            compute_region(
                op_a,
                op_b,
                alpha,
                a,
                b,
                beta,
                c.as_mut_slice().as_mut_ptr(),
                ccols,
                ws,
                0..m,
                0..n,
                k,
                kernel,
            );
        }
    } else {
        let cbase = SendPtr(c.as_mut_slice().as_mut_ptr());
        let (tiles, tile, limit) = if split_rows {
            (m.div_ceil(MR), MR, m)
        } else {
            (n.div_ceil(NR), NR, n)
        };
        crate::pool::run(threads, &|slot| {
            let (e0, e1) = slot_range(slot, threads, tiles, tile, limit);
            let (rows, cols) = if split_rows {
                (e0..e1, 0..n)
            } else {
                (0..m, e0..e1)
            };
            PARALLEL_WS.with(|cell| {
                let mut ws = cell.borrow_mut();
                // SAFETY: slot ranges partition the tile index space, so
                // every output element is written by exactly one thread;
                // boundaries are tile-aligned, keeping per-element
                // arithmetic identical to the serial kernel.
                unsafe {
                    compute_region(
                        op_a,
                        op_b,
                        alpha,
                        a,
                        b,
                        beta,
                        cbase.get(),
                        ccols,
                        &mut ws,
                        rows,
                        cols,
                        k,
                        kernel,
                    );
                }
            });
        });
    }
    // All panels of every region have accumulated: the elements are
    // final, so the fused epilogue runs now (serially, in row order).
    for i in 0..m {
        epilogue.apply(i, 0, c.row_mut(i));
    }
}

/// The serial Goto loop nest over one rectangular region of the output:
/// `NC`-column blocks × `KC`-depth panels × `MC`-row blocks, packing from
/// `ws` and merging through the micro-kernel. The epilogue is *not*
/// applied here — callers run it once the whole output is final.
///
/// # Safety
///
/// `cbase` must point to the start of a `rows.end × ccols` (at least)
/// row-major buffer, and no other thread may concurrently access the
/// `rows × cols` region. For bit-identity with the serial kernel,
/// `rows.start` must be `MR`-aligned and `cols.start` `NR`-aligned.
#[allow(clippy::too_many_arguments)]
unsafe fn compute_region(
    op_a: GemmOp,
    op_b: GemmOp,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    cbase: *mut f64,
    ccols: usize,
    ws: &mut GemmWorkspace,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
    k: usize,
    kernel: MicroKernel,
) {
    let mut jc = cols.start;
    while jc < cols.end {
        let nc = NC.min(cols.end - jc);
        // One beta pass per column block. beta == 0 needs none: the output
        // holds stale values (`prepare_output` skips the memset), and the
        // first KC panel below *stores* its tiles instead of accumulating,
        // overwriting every element. beta == 1 accumulates as-is.
        if beta != 0.0 && beta != 1.0 {
            for i in rows.clone() {
                // SAFETY: row `i` and columns `jc..jc + nc` are inside the
                // caller-guaranteed exclusive region.
                let row = unsafe { std::slice::from_raw_parts_mut(cbase.add(i * ccols + jc), nc) };
                for v in row {
                    *v *= beta;
                }
            }
        }
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            // The first panel of a beta == 0 product *stores* its tiles
            // (the stale output is never read); later panels accumulate.
            let store = beta == 0.0 && pc == 0;

            pack_b(op_b, b, pc, kc, jc, nc, &mut ws.pack_b);
            let mut ic = rows.start;
            while ic < rows.end {
                let mc = MC.min(rows.end - ic);
                pack_a(op_a, a, ic, mc, pc, kc, &mut ws.pack_a);
                // SAFETY: the `mc × nc` block at `(ic, jc)` lies inside
                // the caller-guaranteed exclusive region.
                unsafe {
                    macro_kernel(
                        alpha,
                        (mc, nc, kc),
                        &ws.pack_a,
                        &ws.pack_b,
                        cbase,
                        ccols,
                        ic,
                        jc,
                        kernel,
                        store,
                    );
                }
                ic += MC;
            }
            pc += KC;
        }
        jc += NC;
    }
}

/// The small path (see the module docs): copies `op(B)` into the padded
/// row-major panel, runs the AVX-512 tiles over `op(A)` in place, then
/// applies the epilogue in row order. Always serial.
#[allow(clippy::too_many_arguments)]
fn small_body<E: Epilogue>(
    op_a: GemmOp,
    op_b: GemmOp,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
    ws: &mut GemmWorkspace,
    epilogue: &mut E,
    (m, n, k): (usize, usize, usize),
) {
    let _span = trace_product(m * n * k, 1);
    let nb = pack_small_b(op_b, b, k, n, &mut ws.pack_b);
    small_product(op_a, a, &ws.pack_b, nb, (alpha, beta), c, (m, n, k));
    for i in 0..m {
        epilogue.apply(i, 0, c.row_mut(i));
    }
}

/// The tile loops of [`small_body`] over a panel from [`pack_small_b`],
/// writing the `m × n` output `c` (already shaped by `prepare_output`).
#[cfg(target_arch = "x86_64")]
fn small_product(
    op_a: GemmOp,
    a: &Matrix,
    panel: &[f64],
    nb: usize,
    (alpha, beta): (f64, f64),
    c: &mut Matrix,
    (m, n, k): (usize, usize, usize),
) {
    assert!(small_path_available() && panel.len() >= k * nb && c.as_slice().len() == m * n);
    let operands = SmallOperands {
        a: a.as_slice().as_ptr(),
        lda: a.cols(),
        b: panel.as_ptr(),
        nb,
        k,
        c: c.as_mut_slice().as_mut_ptr(),
        ldc: n,
        alpha,
        beta,
    };
    // SAFETY: the assert above covers the AVX-512F requirement, the panel
    // and the output; `op(A)` is `m × k` (`checked_dims`).
    unsafe {
        match op_a {
            GemmOp::NoTrans => small_rows::<false>(&operands, m, n),
            GemmOp::Trans => small_rows::<true>(&operands, m, n),
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn small_product(
    _: GemmOp,
    _: &Matrix,
    _: &[f64],
    _: usize,
    _: (f64, f64),
    _: &mut Matrix,
    _: (usize, usize, usize),
) {
    unreachable!("the small path is only dispatched on AVX-512F hosts");
}

/// Whether this host runs the small path: AVX-512F, with the blocked
/// kernel on its FMA micro-kernel (the small path's bit-identity partner).
#[cfg(target_arch = "x86_64")]
fn small_path_available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f") && select_micro_kernel() == MicroKernel::Fma
}

#[cfg(not(target_arch = "x86_64"))]
fn small_path_available() -> bool {
    false
}

/// Copies `op(B)` (`k × n`) into `buf` as a row-major `k × n̄` panel,
/// `n̄ = n` rounded up to [`LANES`], with zeroed padding columns: a plain
/// row copy for `NoTrans`, a small transpose for `Trans`. Returns `n̄`.
fn pack_small_b(op: GemmOp, b: &Matrix, k: usize, n: usize, buf: &mut Vec<f64>) -> usize {
    let nb = n.next_multiple_of(LANES);
    if buf.len() < k * nb {
        buf.resize(k * nb, 0.0);
    }
    for (p, dst) in buf[..k * nb].chunks_exact_mut(nb).enumerate() {
        match op {
            GemmOp::NoTrans => dst[..n].copy_from_slice(b.row(p)),
            // Effective B[p][j] = b[j][p].
            GemmOp::Trans => {
                for (j, v) in dst[..n].iter_mut().enumerate() {
                    *v = b[(j, p)];
                }
            }
        }
        dst[n..].fill(0.0);
    }
    nb
}

/// Raw operands of one small-path product: `op(A)` in place (row stride
/// `lda`), the padded `k × nb` panel of `op(B)`, and the `C` output (row
/// stride `ldc`).
#[cfg(target_arch = "x86_64")]
struct SmallOperands {
    a: *const f64,
    lda: usize,
    b: *const f64,
    nb: usize,
    k: usize,
    c: *mut f64,
    ldc: usize,
    alpha: f64,
    beta: f64,
}

/// Runs every small-path tile of an `m × n` output: `SMR`-row tiles, one
/// `SMR / 2`-row tile, then 1-row tiles for the rest of the row tail.
///
/// # Safety
///
/// Requires AVX-512F, and `s` must describe an `m × k` `op(A)` (laid out
/// as `TRANS_A` says), a `k × nb` panel and an `m × n` output with no
/// other live access.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn small_rows<const TRANS_A: bool>(s: &SmallOperands, m: usize, n: usize) {
    let mut i = 0;
    // SAFETY: forwarded caller contract; every row block lies in `0..m`.
    unsafe {
        while m - i >= SMR {
            small_row_block::<SMR, TRANS_A>(s, i, n);
            i += SMR;
        }
        if m - i >= SMR / 2 {
            small_row_block::<{ SMR / 2 }, TRANS_A>(s, i, n);
            i += SMR / 2;
        }
        while i < m {
            small_row_block::<1, TRANS_A>(s, i, n);
            i += 1;
        }
    }
}

/// One `R`-row block of the output: full 24-column tiles (three `zmm` per
/// row), then one tile of one to three vectors for the column tail, whose
/// last vector stores through a lane mask.
///
/// # Safety
///
/// Same contract as [`small_rows`], with rows `i0 .. i0 + R` in range.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn small_row_block<const R: usize, const TRANS_A: bool>(
    s: &SmallOperands,
    i0: usize,
    n: usize,
) {
    const W: usize = 3 * LANES;
    let full = n - n % W;
    // SAFETY: forwarded caller contract; every tile lies in `0..n`, and
    // its vectors read padded panel columns below `nb`.
    unsafe {
        for j0 in (0..full).step_by(W) {
            small_tile::<R, 3, TRANS_A>(s, i0, j0, u8::MAX);
        }
        let rem = n - full;
        if rem > 0 {
            let vectors = rem.div_ceil(LANES);
            let mask = u8::MAX >> (vectors * LANES - rem);
            match vectors {
                1 => small_tile::<R, 1, TRANS_A>(s, i0, full, mask),
                2 => small_tile::<R, 2, TRANS_A>(s, i0, full, mask),
                _ => small_tile::<R, 3, TRANS_A>(s, i0, full, mask),
            }
        }
    }
}

/// One `R × (V·8)` register tile at `(i0, j0)`: `R·V` accumulators, each
/// a fused-multiply-add chain over `p = 0..k` from zero; then `α·acc` is
/// stored (`β = 0`) or added to `C` (`β = 1`) or to `β·C`. `mask` selects
/// the stored lanes of the last vector of each row.
///
/// # Safety
///
/// Same contract as [`small_row_block`], with columns `j0 .. j0 + V·8`
/// inside the panel width `nb`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn small_tile<const R: usize, const V: usize, const TRANS_A: bool>(
    s: &SmallOperands,
    i0: usize,
    j0: usize,
    mask: u8,
) {
    use core::arch::x86_64::*;
    // op(A)[i0 + r][p] sits at a[(i0 + r)·lda + p] (NoTrans) or at
    // a[p·lda + i0 + r] (Trans, a contiguous run of one source row).
    let (row_step, p_step) = if TRANS_A { (1, s.lda) } else { (s.lda, 1) };
    // SAFETY: the caller guarantees AVX-512F and that every address below
    // lies inside `op(A)`, the panel, or the tile's own rows of `C`;
    // masked-out lanes are never read or written.
    unsafe {
        let a0 = if TRANS_A {
            s.a.add(i0)
        } else {
            s.a.add(i0 * s.lda)
        };
        let mut acc = [[_mm512_setzero_pd(); V]; R];
        for p in 0..s.k {
            let brow = s.b.add(p * s.nb + j0);
            let mut bv = [_mm512_setzero_pd(); V];
            for (v, b) in bv.iter_mut().enumerate() {
                *b = _mm512_loadu_pd(brow.add(v * LANES));
            }
            let ap = a0.add(p * p_step);
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_pd(*ap.add(r * row_step));
                for (cv, &b) in accr.iter_mut().zip(&bv) {
                    *cv = _mm512_fmadd_pd(av, b, *cv);
                }
            }
        }
        let va = _mm512_set1_pd(s.alpha);
        let vb = _mm512_set1_pd(s.beta);
        for (r, accr) in acc.iter().enumerate() {
            let row = s.c.add((i0 + r) * s.ldc + j0);
            for (v, &x) in accr.iter().enumerate() {
                let lanes = if v + 1 == V { mask } else { u8::MAX };
                let dst = row.add(v * LANES);
                let prod = _mm512_mul_pd(va, x);
                let out = if s.beta == 0.0 {
                    prod
                } else {
                    let old = _mm512_maskz_loadu_pd(lanes, dst);
                    let old = if s.beta == 1.0 {
                        old
                    } else {
                        _mm512_mul_pd(vb, old)
                    };
                    _mm512_add_pd(old, prod)
                };
                _mm512_mask_storeu_pd(dst, lanes, out);
            }
        }
    }
}

/// Debug-build quarantine tripwire: a NaN or ∞ entering a GEMM operand
/// silently poisons every downstream weight, so in debug builds every
/// entry point rejects non-finite operands outright. The failure-penalty
/// mapping upstream (see `opt::FAILURE_PENALTY`) is supposed to make this
/// unreachable; release builds pay nothing.
#[inline]
fn debug_assert_finite_operand(m: &Matrix, name: &str) {
    if cfg!(debug_assertions) {
        for i in 0..m.rows() {
            for (j, v) in m.row(i).iter().enumerate() {
                debug_assert!(
                    v.is_finite(),
                    "non-finite value {v} in GEMM operand {name} at ({i}, {j})"
                );
            }
        }
    }
}

/// Packs the `mc × kc` block of `op(A)` at `(ic, pc)` into `MR`-row
/// micro-panels: panel `t` holds rows `ic + t·MR ..`, laid out so the
/// micro-kernel reads `buf[t·kc·MR + p·MR + r]` with stride-1 `p` walks.
/// Partial edge panels are zero-padded to full `MR` height.
fn pack_a(op: GemmOp, a: &Matrix, ic: usize, mc: usize, pc: usize, kc: usize, buf: &mut Vec<f64>) {
    let tiles = mc.div_ceil(MR);
    let need = tiles * kc * MR;
    if buf.len() < need {
        buf.resize(need, 0.0);
    }
    for t in 0..tiles {
        let base = t * kc * MR;
        let mr = MR.min(mc - t * MR);
        match op {
            GemmOp::NoTrans => {
                for r in 0..mr {
                    let row = &a.row(ic + t * MR + r)[pc..pc + kc];
                    for (p, &v) in row.iter().enumerate() {
                        buf[base + p * MR + r] = v;
                    }
                }
            }
            GemmOp::Trans => {
                // Effective A[i][p] = a[p][i]: each source row is one `p`.
                for p in 0..kc {
                    let src = &a.row(pc + p)[ic + t * MR..ic + t * MR + mr];
                    buf[base + p * MR..base + p * MR + mr].copy_from_slice(src);
                }
            }
        }
        // Zero only the padding lanes of a partial edge tile (the buffer is
        // reused across calls and may hold stale values there).
        for p in 0..kc {
            for r in mr..MR {
                buf[base + p * MR + r] = 0.0;
            }
        }
    }
}

/// Packs the `kc × nc` block of `op(B)` at `(pc, jc)` into `NR`-column
/// micro-panels (`buf[u·kc·NR + p·NR + j]`), zero-padding partial edge
/// panels to full `NR` width.
fn pack_b(op: GemmOp, b: &Matrix, pc: usize, kc: usize, jc: usize, nc: usize, buf: &mut Vec<f64>) {
    let tiles = nc.div_ceil(NR);
    let need = tiles * kc * NR;
    if buf.len() < need {
        buf.resize(need, 0.0);
    }
    for u in 0..tiles {
        let base = u * kc * NR;
        let nr = NR.min(nc - u * NR);
        match op {
            GemmOp::NoTrans => {
                for p in 0..kc {
                    let src = &b.row(pc + p)[jc + u * NR..jc + u * NR + nr];
                    buf[base + p * NR..base + p * NR + nr].copy_from_slice(src);
                }
            }
            GemmOp::Trans => {
                // Effective B[p][j] = b[j][p]: each source row is one `j`.
                for j in 0..nr {
                    let src = &b.row(jc + u * NR + j)[pc..pc + kc];
                    for (p, &v) in src.iter().enumerate() {
                        buf[base + p * NR + j] = v;
                    }
                }
            }
        }
        // Zero only the padding lanes of a partial edge tile.
        for p in 0..kc {
            for j in nr..NR {
                buf[base + p * NR + j] = 0.0;
            }
        }
    }
}

/// Runs the register-tiled micro-kernel over every `MR × NR` tile of the
/// packed `mc × nc` block and merges `α`-scaled results into the output
/// (`store` replaces instead of accumulating — the first-panel fast path).
///
/// # Safety
///
/// `cbase` must point to the start of a row-major buffer of row length
/// `ccols` covering at least rows `ic..ic + mc` and columns
/// `jc..jc + nc`, with no concurrent access to that block from any other
/// thread.
#[allow(clippy::too_many_arguments)]
unsafe fn macro_kernel(
    alpha: f64,
    (mc, nc, kc): (usize, usize, usize),
    pack_a: &[f64],
    pack_b: &[f64],
    cbase: *mut f64,
    ccols: usize,
    ic: usize,
    jc: usize,
    kernel: MicroKernel,
    store: bool,
) {
    let row_tiles = mc.div_ceil(MR);
    let col_tiles = nc.div_ceil(NR);
    for u in 0..col_tiles {
        let jr = u * NR;
        let nr = NR.min(nc - jr);
        let bp = &pack_b[u * kc * NR..(u + 1) * kc * NR];
        for t in 0..row_tiles {
            let ir = t * MR;
            let mr = MR.min(mc - ir);
            let ap = &pack_a[t * kc * MR..(t + 1) * kc * MR];
            #[cfg(target_arch = "x86_64")]
            if kernel == MicroKernel::Fma && mr == MR && nr == NR {
                // Full tile on the FMA kernel: accumulate in registers and
                // write α-scaled results straight into C — no stack
                // spill + separate writeback pass. Identical arithmetic to
                // the buffered path below.
                // SAFETY: rows ic+ir .. ic+ir+MR and columns jc+jr .. +NR
                // are in bounds (full tile), and the FMA features were
                // detected at selection time.
                unsafe {
                    let dst = cbase.add((ic + ir) * ccols + jc + jr);
                    micro_kernel_fma_direct(ap, bp, dst, ccols, alpha, store);
                }
                continue;
            }
            let mut acc = [[0.0f64; NR]; MR];
            run_micro_kernel(ap, bp, &mut acc, kernel);
            for r in 0..mr {
                // SAFETY: row ic+ir+r, columns jc+jr .. +nr are inside the
                // caller-guaranteed exclusive block.
                let crow = unsafe {
                    std::slice::from_raw_parts_mut(cbase.add((ic + ir + r) * ccols + jc + jr), nr)
                };
                if store {
                    for (cv, &av) in crow.iter_mut().zip(&acc[r][..nr]) {
                        *cv = alpha * av;
                    }
                } else {
                    for (cv, &av) in crow.iter_mut().zip(&acc[r][..nr]) {
                        *cv += alpha * av;
                    }
                }
            }
        }
    }
}

/// Which micro-kernel implementation the host runs. Selected once per
/// process, so the accumulation arithmetic is fixed for every call; the
/// two fused variants produce bit-identical results (both use exactly
/// rounded fused multiply-adds in the same order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MicroKernel {
    /// 256-bit fused multiply-add tiles.
    #[cfg(target_arch = "x86_64")]
    Fma,
    /// Portable scalar-tiled kernel (separate multiply and add).
    Reference,
}

/// Dispatches one `MR × NR` tile to the selected kernel.
#[inline]
fn run_micro_kernel(ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR], kernel: MicroKernel) {
    match kernel {
        // SAFETY: the variant is only constructed when AVX2+FMA were
        // detected at runtime (see `select_micro_kernel`).
        #[cfg(target_arch = "x86_64")]
        MicroKernel::Fma => unsafe { micro_kernel_fma(ap, bp, acc) },
        MicroKernel::Reference => micro_kernel_ref(ap, bp, acc),
    }
}

/// Portable micro-kernel: `MR × NR` independent accumulator chains, one
/// multiply-add per packed element pair. The `NR`-wide inner loop has no
/// cross-lane dependencies, so it auto-vectorizes on any SIMD width.
#[inline]
fn micro_kernel_ref(ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for (accr, &a) in acc.iter_mut().zip(av) {
            for (cv, &b) in accr.iter_mut().zip(bv) {
                *cv += a * b;
            }
        }
    }
}

/// AVX2+FMA micro-kernel: the same arithmetic as [`micro_kernel_ref`] with
/// exactly rounded fused multiply-adds, written with explicit 256-bit
/// intrinsics — each tile row is two `ymm` accumulators, so every packed
/// `A` element costs one broadcast and two FMAs. (The autovectorizer
/// leaves the equivalent safe loop as 32 scalar FMAs, which measured ~2×
/// slower.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn micro_kernel_fma(ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    use core::arch::x86_64::*;
    const { assert!(NR == 8, "kernel is written for 8-wide (two ymm) tiles") };
    // SAFETY: the packed panels hold `kc` complete `MR`/`NR` chunks and
    // each acc row is exactly NR = 8 doubles (two ymm registers).
    unsafe {
        let mut c: [[__m256d; 2]; MR] = [[_mm256_setzero_pd(); 2]; MR];
        for (cr, accr) in c.iter_mut().zip(acc.iter()) {
            cr[0] = _mm256_loadu_pd(accr.as_ptr());
            cr[1] = _mm256_loadu_pd(accr.as_ptr().add(4));
        }
        let kc = bp.len() / NR;
        for p in 0..kc {
            let b0 = _mm256_loadu_pd(bp.as_ptr().add(p * NR));
            let b1 = _mm256_loadu_pd(bp.as_ptr().add(p * NR + 4));
            let a = ap.as_ptr().add(p * MR);
            for (r, cr) in c.iter_mut().enumerate() {
                let av = _mm256_set1_pd(*a.add(r));
                cr[0] = _mm256_fmadd_pd(av, b0, cr[0]);
                cr[1] = _mm256_fmadd_pd(av, b1, cr[1]);
            }
        }
        for (cr, accr) in c.iter().zip(acc.iter_mut()) {
            _mm256_storeu_pd(accr.as_mut_ptr(), cr[0]);
            _mm256_storeu_pd(accr.as_mut_ptr().add(4), cr[1]);
        }
    }
}

/// Full-tile FMA micro-kernel writing `α`-scaled results directly into
/// `C` (`dst` = `&mut c[i0][j0]`, rows `row_stride` apart): accumulates in
/// registers from zero and skips the stack-buffer round trip of the
/// buffered path. Same multiplies/adds in the same order, so the output
/// bits match the buffered FMA path exactly.
///
/// # Safety
///
/// Requires AVX2+FMA, `MR` full rows of `NR` elements at `dst`, and packed
/// panels holding complete `MR`/`NR` chunks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn micro_kernel_fma_direct(
    ap: &[f64],
    bp: &[f64],
    dst: *mut f64,
    row_stride: usize,
    alpha: f64,
    store: bool,
) {
    use core::arch::x86_64::*;
    const { assert!(NR == 8, "kernel is written for 8-wide (two ymm) tiles") };
    unsafe {
        let mut c: [[__m256d; 2]; MR] = [[_mm256_setzero_pd(); 2]; MR];
        let kc = bp.len() / NR;
        for p in 0..kc {
            let b0 = _mm256_loadu_pd(bp.as_ptr().add(p * NR));
            let b1 = _mm256_loadu_pd(bp.as_ptr().add(p * NR + 4));
            let a = ap.as_ptr().add(p * MR);
            for (r, cr) in c.iter_mut().enumerate() {
                let av = _mm256_set1_pd(*a.add(r));
                cr[0] = _mm256_fmadd_pd(av, b0, cr[0]);
                cr[1] = _mm256_fmadd_pd(av, b1, cr[1]);
            }
        }
        let va = _mm256_set1_pd(alpha);
        for (r, cr) in c.iter().enumerate() {
            let row = dst.add(r * row_stride);
            let lo = _mm256_mul_pd(va, cr[0]);
            let hi = _mm256_mul_pd(va, cr[1]);
            if store {
                _mm256_storeu_pd(row, lo);
                _mm256_storeu_pd(row.add(4), hi);
            } else {
                _mm256_storeu_pd(row, _mm256_add_pd(_mm256_loadu_pd(row), lo));
                _mm256_storeu_pd(row.add(4), _mm256_add_pd(_mm256_loadu_pd(row.add(4)), hi));
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn select_micro_kernel() -> MicroKernel {
    use std::sync::OnceLock;
    static SELECTED: OnceLock<MicroKernel> = OnceLock::new();
    *SELECTED.get_or_init(|| {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            MicroKernel::Fma
        } else {
            MicroKernel::Reference
        }
    })
}

#[cfg(not(target_arch = "x86_64"))]
fn select_micro_kernel() -> MicroKernel {
    MicroKernel::Reference
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Matrix {
        Matrix::from_fn(rows, cols, f)
    }

    fn assert_close(c1: &Matrix, c2: &Matrix, tol: f64) {
        assert_eq!((c1.rows(), c1.cols()), (c2.rows(), c2.cols()));
        for (x, y) in c1.as_slice().iter().zip(c2.as_slice()) {
            let scale = 1.0f64.max(y.abs());
            assert!((x - y).abs() <= tol * scale, "{x} vs {y}");
        }
    }

    #[test]
    fn blocked_matches_naive_across_panel_boundaries() {
        // m spans two MC panels, k spans two KC panels, edges not multiples
        // of MR/NR — every padding path is exercised.
        let (m, n, k) = (MC + 3, NR * 2 + 5, KC + 7);
        let a = filled(m, k, |i, j| ((i * 31 + j * 17) % 23) as f64 * 0.37 - 3.0);
        let b = filled(k, n, |i, j| ((i * 13 + j * 29) % 19) as f64 * 0.23 - 1.5);
        let mut ws = GemmWorkspace::new();
        let mut c_blocked = Matrix::default();
        gemm(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            1.0,
            &a,
            &b,
            0.0,
            &mut c_blocked,
            &mut ws,
        );
        let mut c_naive = Matrix::default();
        gemm_naive(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            1.0,
            &a,
            &b,
            0.0,
            &mut c_naive,
        );
        assert_close(&c_blocked, &c_naive, 1e-12);
    }

    #[test]
    fn all_op_combinations_agree_with_naive() {
        let (m, n, k) = (37, 26, 41); // above the cutoff: 37·26·41 ≈ 39k
        let mut ws = GemmWorkspace::new();
        for op_a in [GemmOp::NoTrans, GemmOp::Trans] {
            for op_b in [GemmOp::NoTrans, GemmOp::Trans] {
                let a = match op_a {
                    GemmOp::NoTrans => filled(m, k, |i, j| (i as f64 - 2.0 * j as f64).sin()),
                    GemmOp::Trans => filled(k, m, |i, j| (i as f64 - 2.0 * j as f64).sin()),
                };
                let b = match op_b {
                    GemmOp::NoTrans => filled(k, n, |i, j| (0.3 * i as f64 + j as f64).cos()),
                    GemmOp::Trans => filled(n, k, |i, j| (0.3 * i as f64 + j as f64).cos()),
                };
                let mut c1 = Matrix::default();
                gemm(op_a, op_b, 1.3, &a, &b, 0.0, &mut c1, &mut ws);
                let mut c2 = Matrix::default();
                gemm_naive(op_a, op_b, 1.3, &a, &b, 0.0, &mut c2);
                assert_close(&c1, &c2, 1e-12);
            }
        }
    }

    #[test]
    fn beta_accumulates_into_existing_output() {
        let (m, n, k) = (20, 24, 32); // 15k > cutoff
        let a = filled(m, k, |i, j| (i + j) as f64 * 0.1);
        let b = filled(k, n, |i, j| (i as f64 - j as f64) * 0.2);
        let c0 = filled(m, n, |i, j| (i * n + j) as f64 * 0.01);
        let mut ws = GemmWorkspace::new();
        let mut c1 = c0.clone();
        gemm(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            2.0,
            &a,
            &b,
            0.5,
            &mut c1,
            &mut ws,
        );
        let mut c2 = c0.clone();
        gemm_naive(GemmOp::NoTrans, GemmOp::NoTrans, 2.0, &a, &b, 0.5, &mut c2);
        assert_close(&c1, &c2, 1e-12);
    }

    #[test]
    fn matches_matrix_matmul_reference() {
        let a = filled(30, 22, |i, j| ((i * 7 + j) % 13) as f64 - 6.0);
        let b = filled(22, 31, |i, j| ((i + 5 * j) % 11) as f64 - 5.0);
        let mut ws = GemmWorkspace::new();
        let mut c = Matrix::default();
        gemm(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
            &mut ws,
        );
        assert_close(&c, &a.matmul(&b), 1e-12);
    }

    #[test]
    fn epilogue_sees_every_element_once() {
        struct Count {
            hits: Matrix,
        }
        impl Epilogue for Count {
            fn apply(&mut self, row: usize, col0: usize, seg: &mut [f64]) {
                for (j, _) in seg.iter().enumerate() {
                    self.hits[(row, col0 + j)] += 1.0;
                }
            }
        }
        for (m, n, k) in [(3, 4, 5), (33, 29, 17)] {
            let a = filled(m, k, |i, j| (i + j) as f64);
            let b = filled(k, n, |i, j| (i as f64 + 1.0) * (j as f64 - 1.0));
            let mut ws = GemmWorkspace::new();
            let mut c = Matrix::default();
            let mut epi = Count {
                hits: Matrix::zeros(m, n),
            };
            gemm_with(
                GemmOp::NoTrans,
                GemmOp::NoTrans,
                1.0,
                &a,
                &b,
                0.0,
                &mut c,
                &mut ws,
                &mut epi,
            );
            assert!(epi.hits.as_slice().iter().all(|&h| h == 1.0));
        }
    }

    #[test]
    fn workspace_reuse_across_shapes_is_sound() {
        let mut ws = GemmWorkspace::new();
        let mut c = Matrix::default();
        for (m, n, k) in [(40, 40, 40), (7, 9, 11), (130, 12, 260)] {
            let a = filled(m, k, |i, j| (i as f64 * 0.7 - j as f64 * 0.3).tanh());
            let b = filled(k, n, |i, j| ((i * j) as f64 * 0.05).sin());
            gemm(
                GemmOp::NoTrans,
                GemmOp::NoTrans,
                1.0,
                &a,
                &b,
                0.0,
                &mut c,
                &mut ws,
            );
            let mut expect = Matrix::default();
            gemm_naive(
                GemmOp::NoTrans,
                GemmOp::NoTrans,
                1.0,
                &a,
                &b,
                0.0,
                &mut expect,
            );
            assert_close(&c, &expect, 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions must agree")]
    fn rejects_mismatched_inner_dims() {
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(5, 2);
        let mut ws = GemmWorkspace::new();
        let mut c = Matrix::default();
        gemm(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
            &mut ws,
        );
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn rejects_wrong_output_shape_for_nonzero_beta() {
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(4, 2);
        let mut ws = GemmWorkspace::new();
        let mut c = Matrix::zeros(1, 1);
        gemm(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            1.0,
            &a,
            &b,
            1.0,
            &mut c,
            &mut ws,
        );
    }

    /// The MLP's fused epilogues as the `nn` crate applies them: bias-add,
    /// bias + ReLU, bias + tanh, and the ReLU/tanh derivative products of
    /// the backward propagation.
    enum MlpEpilogue<'a> {
        Plain,
        Bias(&'a [f64]),
        BiasRelu(&'a [f64]),
        BiasTanh(&'a [f64]),
        ReluPrime(&'a Matrix),
        TanhPrime(&'a Matrix),
    }

    impl Epilogue for MlpEpilogue<'_> {
        fn apply(&mut self, row: usize, col0: usize, seg: &mut [f64]) {
            for (j, v) in seg.iter_mut().enumerate() {
                let col = col0 + j;
                *v = match self {
                    MlpEpilogue::Plain => *v,
                    MlpEpilogue::Bias(b) => *v + b[col],
                    MlpEpilogue::BiasRelu(b) => (*v + b[col]).max(0.0),
                    MlpEpilogue::BiasTanh(b) => (*v + b[col]).tanh(),
                    MlpEpilogue::ReluPrime(a) => *v * if a[(row, col)] > 0.0 { 1.0 } else { 0.0 },
                    MlpEpilogue::TanhPrime(a) => *v * (1.0 - a[(row, col)] * a[(row, col)]),
                };
            }
        }
    }

    /// Runs one product on the small path (`small = true`) or the blocked
    /// path, bypassing the dispatch rule — the crate-internal hook of the
    /// bit-identity tests.
    #[allow(clippy::too_many_arguments)]
    fn product_on_path(
        small: bool,
        (op_a, op_b): (GemmOp, GemmOp),
        alpha: f64,
        a: &Matrix,
        b: &Matrix,
        beta: f64,
        c: &mut Matrix,
        ws: &mut GemmWorkspace,
        epilogue: &mut MlpEpilogue<'_>,
    ) {
        let dims = checked_dims(op_a, op_b, a, b);
        prepare_output(beta, dims.0, dims.1, c);
        if small {
            small_body(op_a, op_b, alpha, a, b, beta, c, ws, epilogue, dims);
        } else {
            blocked_body(op_a, op_b, alpha, a, b, beta, c, ws, epilogue, dims);
        }
    }

    fn operand(op: GemmOp, rows: usize, cols: usize, seed: &[f64], salt: usize) -> Matrix {
        let (r, c) = match op {
            GemmOp::NoTrans => (rows, cols),
            GemmOp::Trans => (cols, rows),
        };
        Matrix::from_fn(r, c, |i, j| seed[(i * 7 + j * 3 + salt) % seed.len()])
    }

    const OPS: [(GemmOp, GemmOp); 4] = [
        (GemmOp::NoTrans, GemmOp::NoTrans),
        (GemmOp::NoTrans, GemmOp::Trans),
        (GemmOp::Trans, GemmOp::NoTrans),
        (GemmOp::Trans, GemmOp::Trans),
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The small path is bit-identical to the blocked path for every
        /// op combination, α ∈ {1, −0.5}, β ∈ {0, 0.5, 1} and every MLP
        /// epilogue, on shapes covering full tiles, row tails (m = 1..9)
        /// and column tails around the 8/24-column tile widths, at depths
        /// up to one `KC` panel.
        #[test]
        fn small_path_is_bit_identical_to_blocked(
            m_sel in 0usize..10,
            n_sel in 0usize..10,
            k_sel in 0usize..4,
            epi_sel in 0usize..6,
            seed in proptest::collection::vec(-1.0..1.0f64, 32..200),
        ) {
            if !small_path_available() {
                return Ok(());
            }
            let m = [1, 2, 3, 4, 5, 6, 7, 8, 9, 128][m_sel];
            let n = [1, 7, 8, 9, 23, 24, 25, 30, 40, 48][n_sel];
            let k = [1, 40, 128, KC][k_sel];
            let bias: Vec<f64> = (0..n).map(|j| seed[(5 * j + 1) % seed.len()]).collect();
            let act = Matrix::from_fn(m, n, |i, j| seed[(i + 11 * j) % seed.len()]);
            let c0 = Matrix::from_fn(m, n, |i, j| seed[(3 * i + 5 * j + 2) % seed.len()]);
            for (op_a, op_b) in OPS {
                let a = operand(op_a, m, k, &seed, 0);
                let b = operand(op_b, k, n, &seed, 13);
                for alpha in [1.0, -0.5] {
                    for beta in [0.0, 0.5, 1.0] {
                        let mut out = [c0.clone(), c0.clone()];
                        for (small, c) in [true, false].into_iter().zip(&mut out) {
                            let mut epi = match epi_sel {
                                0 => MlpEpilogue::Plain,
                                1 => MlpEpilogue::Bias(&bias),
                                2 => MlpEpilogue::BiasRelu(&bias),
                                3 => MlpEpilogue::BiasTanh(&bias),
                                4 => MlpEpilogue::ReluPrime(&act),
                                _ => MlpEpilogue::TanhPrime(&act),
                            };
                            let ws = &mut GemmWorkspace::new();
                            product_on_path(small, (op_a, op_b), alpha, &a, &b, beta, c, ws, &mut epi);
                        }
                        for (x, y) in out[0].as_slice().iter().zip(out[1].as_slice()) {
                            proptest::prop_assert_eq!(x.to_bits(), y.to_bits());
                        }
                    }
                }
            }
        }
    }

    /// The dispatch rule: the eight products of a critic training step
    /// (batch 128, widths 40→48→48→30) take the small path on AVX-512F
    /// hosts; products deeper than one panel or wider than the cap do not.
    #[test]
    fn critic_products_take_the_small_path() {
        let critic = [
            (128, 48, 40),
            (128, 48, 48),
            (128, 30, 48),
            (30, 48, 128),
            (128, 48, 30),
            (48, 48, 128),
            (128, 48, 48),
            (48, 40, 128),
        ];
        for (m, n, k) in critic {
            assert!(m * n * k > GEMM_NAIVE_CUTOFF);
            assert_eq!(
                takes_small_path(n, k),
                small_path_available(),
                "{m}x{n}x{k}"
            );
        }
        assert!(!takes_small_path(48, GEMM_SMALL_MAX_K + 1));
        assert!(!takes_small_path(GEMM_SMALL_MAX_N + 1, 48));
    }

    /// Diagnostic (run with `--release -- --ignored --nocapture`): serial
    /// small path vs blocked path (and the naive kernel on tiny products)
    /// on the eight critic products and across larger shapes — the
    /// measurements behind [`GEMM_SMALL_MAX_N`].
    #[test]
    #[ignore]
    fn probe_small_path_crossover() {
        type Shape = (usize, usize, usize, (GemmOp, GemmOp));
        if !small_path_available() {
            eprintln!("no AVX-512F on this host: nothing to probe");
            return;
        }
        let seed: Vec<f64> = (0..97).map(|i| (i as f64 * 0.37).sin()).collect();
        let nn = (GemmOp::NoTrans, GemmOp::NoTrans);
        let nt = (GemmOp::NoTrans, GemmOp::Trans);
        let tn = (GemmOp::Trans, GemmOp::NoTrans);
        let critic: [Shape; 8] = [
            (128, 48, 40, nt),
            (128, 48, 48, nt),
            (128, 30, 48, nt),
            (30, 48, 128, tn),
            (128, 48, 30, nn),
            (48, 48, 128, tn),
            (128, 48, 48, nn),
            (48, 40, 128, tn),
        ];
        let sweep = [1, 8, 128, 512, 2048].into_iter().flat_map(|m| {
            [8, 48, 128, 256, 512]
                .into_iter()
                .flat_map(move |n| [8, 48, 128, KC].map(|k| (m, n, k, nn)))
        });
        // Serial blocked products: the small path never threads.
        crate::pool::set_max_threads(1);
        let mut ws = GemmWorkspace::new();
        let mut c = Matrix::default();
        // Best-of-25 µs per product: small path, blocked path, or naive.
        let mut time = |path: Option<bool>, (m, n, k, ops): Shape| {
            let a = operand(ops.0, m, k, &seed, 0);
            let b = operand(ops.1, k, n, &seed, 13);
            let reps = (2_000_000 / (m * n * k)).clamp(3, 2000);
            let mut best = f64::INFINITY;
            for _ in 0..25 {
                let t = std::time::Instant::now();
                for _ in 0..reps {
                    let epi = &mut MlpEpilogue::Plain;
                    match path {
                        Some(small) => {
                            product_on_path(small, ops, 1.0, &a, &b, 0.0, &mut c, &mut ws, epi)
                        }
                        None => gemm_naive(ops.0, ops.1, 1.0, &a, &b, 0.0, &mut c),
                    }
                }
                best = best.min(t.elapsed().as_secs_f64() / reps as f64);
            }
            best * 1e6
        };
        let mut step = (0.0, 0.0);
        for (i, shape) in critic.into_iter().chain(sweep).enumerate() {
            let (m, n, k, _) = shape;
            let ts = time(Some(true), shape);
            let tb = time(Some(false), shape);
            let naive = if m * n * k <= GEMM_NAIVE_CUTOFF {
                format!(" naive {:8.2}us", time(None, shape))
            } else {
                String::new()
            };
            eprintln!(
                "m={m:4} n={n:4} k={k:3} small {ts:8.2}us blocked {tb:8.2}us \
                 blocked/small {:.2}{naive}",
                tb / ts
            );
            if i < critic.len() {
                step = (step.0 + ts, step.1 + tb);
            }
            if i + 1 == critic.len() {
                eprintln!("critic step: small {:.1}us blocked {:.1}us", step.0, step.1);
            }
        }
        crate::pool::set_max_threads(0);
    }
}
