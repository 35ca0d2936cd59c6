//! Dense GEMM engine: one register-tiled kernel over per-ISA lane backends.
//!
//! One entry point, [`gemm`] (and its epilogue-fusing sibling
//! [`gemm_with`]), covers every matrix-product shape the workspace needs:
//! `C := α·op(A)·op(B) + β·C` with independent transposition selectors for
//! both operands, so the NN/NT/TN products of an MLP's forward and backward
//! passes all run through the same kernel.
//!
//! # Engine
//!
//! Every product, of any shape, runs the same loops:
//!
//! - `op(B)` is copied once per call into a zero-padded `k × n̄` row-major
//!   panel held in the [`GemmWorkspace`] (`n̄` rounds `n` up to 8
//!   columns): a row copy for `NoTrans`, a small transpose for `Trans`;
//! - `op(A)` is read in place — `NoTrans` broadcasts from row-major rows,
//!   `Trans` from the contiguous source rows of `A`;
//! - register tiles of `R` rows × `V` vectors of columns cover the
//!   output, with shorter tiles (`R/2` or `R/3` rows, then 1 row) for the
//!   row tail, and one tile of one to `V` vectors for the column tail,
//!   whose last vector loads and stores only the live columns;
//! - each output element is one multiply-add chain from zero per `KC`-deep
//!   panel of the inner dimension (`KC` = 256). The first panel stores
//!   `α·acc` (`β = 0`) or adds it to `C` (`β = 1`) or to `β·C`; every
//!   later panel adds `α·acc`.
//!
//! # Lane backends
//!
//! Only the lane operations — load, broadcast, multiply-add, multiply,
//! add, and the partial load/store of a column tail — are written per
//! instruction set. One backend serves every product of a process, chosen
//! from CPU detection:
//!
//! - AVX-512F: 8-lane `zmm` vectors in `8 × 24` tiles (24 of the 32
//!   registers accumulate);
//! - AVX2+FMA: 4-lane `ymm` vectors in `6 × 8` tiles (12 of the 16
//!   registers accumulate, leaving two for `op(B)` and one broadcast);
//! - portable: plain Rust on 2-lane arrays in `6 × 4` tiles, with a
//!   separate multiply and add, for hosts without FMA and for non-x86.
//!
//! # Threading
//!
//! Every product runs serially on the calling thread. The workspace's one
//! parallel layer is the evaluation grid one level up ([`crate::pool`]),
//! which already keeps every core busy with independent simulations.
//!
//! # Determinism
//!
//! The operations applied to one output element depend only on the
//! operand shapes, never on the backend's vector width or tile shape, so
//! repeated calls are bit-identical, and the two FMA backends give the
//! same bits: results are bit-identical across x86-64 hosts with FMA. The
//! portable backend rounds each product before adding it, so it rounds
//! differently; for `k ≤ 256` its values equal [`gemm_naive`]'s.
//!
//! # Epilogues
//!
//! [`gemm_with`] applies an [`Epilogue`] to every finished output element
//! exactly once, after all `KC`-panel contributions have accumulated. It
//! runs row block by row block: once the last tile of an `R`-row block is
//! stored, the block's rows go to the epilogue while they are still in L1
//! (8 rows × 48 columns, 3 KB, on the critic), so no second pass over `C`
//! follows the product. Only `k = 0`, which has no panel, runs it row by
//! row. One dynamic call per row block reaches the epilogue, so the tiles
//! are compiled once for every epilogue. This is how the NN crate fuses
//! bias-add + activation into the forward GEMM and the
//! activation-derivative product into the backward GEMM.

use std::ops::Range;

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
/// call element-wise (the segmentation — full rows today, one register row
/// block at a time — is not part of the contract).
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

/// The reusable `op(B)` panel buffer of [`gemm`]. One workspace serves
/// any sequence of calls; the buffer grows to the largest panel seen and
/// is reused allocation-free afterwards.
#[derive(Debug, Clone, Default)]
pub struct GemmWorkspace {
    /// The zero-padded `k × n̄` row-major panel of `op(B)`.
    panel: Vec<f64>,
}

impl GemmWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Depth of one accumulation panel. Each element is one multiply-add chain
/// per `KC` steps of the inner dimension, so this fixes the rounding of
/// deeper products: changing it moves their bits.
const KC: usize = 256;

/// Column padding of the `op(B)` panel: the widest backend's lane count.
const PANEL_PAD: usize = 8;

/// `m·n·k` at or above which a traced product opens a `gemm` span, so
/// traced training loops don't drown in micro-product events.
const TRACE_SPAN_MIN_WORK: usize = 65_536;

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
    product(
        Backend::host(),
        (op_a, op_b),
        alpha,
        a,
        b,
        beta,
        c,
        ws,
        epilogue,
    );
}

/// [`gemm_with`] on a given backend: the body of every product, and the
/// hook through which the tests pin a backend.
#[allow(clippy::too_many_arguments)]
fn product<E: Epilogue>(
    backend: Backend,
    (op_a, op_b): (GemmOp, GemmOp),
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
    ws: &mut GemmWorkspace,
    epilogue: &mut E,
) {
    let (m, n, k) = checked_dims(op_a, op_b, a, b);
    prepare_output(beta, m, n, c);
    let _span = trace_product(m * n * k);
    if k == 0 {
        // No panel to merge: C := β·C, and 0 for β = 0 (C may be stale);
        // the elements are final, so the epilogue runs row by row.
        if beta == 0.0 {
            c.as_mut_slice().fill(0.0);
        } else if beta != 1.0 {
            c.scale_inplace(beta);
        }
        for i in 0..m {
            epilogue.apply(i, 0, c.row_mut(i));
        }
    } else if m > 0 && n > 0 {
        let nb = pack_b(op_b, b, k, n, &mut ws.panel);
        assert!(ws.panel.len() >= k * nb && c.as_slice().len() == m * n);
        let operands = Operands {
            a: a.as_slice().as_ptr(),
            lda: a.cols(),
            b: ws.panel.as_ptr(),
            nb,
            k,
            c: c.as_mut_slice().as_mut_ptr(),
            ldc: n,
            alpha,
            beta,
        };
        // SAFETY: every `Backend` the engine is handed runs on this host
        // (`Backend::host`, or a test's detected list); `op(A)` is `m × k`
        // (`checked_dims`), and the assert covers the panel and the output.
        unsafe { backend.run(op_a, &operands, m, n, epilogue) };
    }
}

/// The naive reference kernel: straight i-j-k triple loops with the same
/// `C := α·op(A)·op(B) + β·C` semantics as [`gemm`], a separate multiply
/// and add per step and no panels. The ground truth of the differential
/// tests.
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

/// Effective `(m, n, k)` of the product, with the inner-dimension check.
fn checked_dims(op_a: GemmOp, op_b: GemmOp, a: &Matrix, b: &Matrix) -> (usize, usize, usize) {
    let (m, ka) = op_a.dims(a);
    let (kb, n) = op_b.dims(b);
    assert_eq!(ka, kb, "inner dimensions must agree");
    (m, n, ka)
}

/// Shapes (or shape-checks) the output for the accumulation. With
/// `beta == 0` the old contents are never read — the first `KC` panel
/// *stores* every element, and `k == 0` fills zeros — so the reshape
/// skips the memset.
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

/// Telemetry of one product (one gate check when off): its flops, and a
/// `gemm` span only at or above [`TRACE_SPAN_MIN_WORK`].
fn trace_product(work: usize) -> Option<telemetry::Span> {
    if !telemetry::enabled() {
        return None;
    }
    telemetry::record(telemetry::Metric::GemmFlops, 2 * work as u64);
    (work >= TRACE_SPAN_MIN_WORK).then(|| telemetry::span(telemetry::SpanId::Gemm))
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

/// Copies `op(B)` (`k × n`) into `buf` as a row-major `k × n̄` panel,
/// `n̄ = n` rounded up to [`PANEL_PAD`], with zeroed padding columns: a
/// plain row copy for `NoTrans`, a small transpose for `Trans`. Returns
/// `n̄`.
fn pack_b(op: GemmOp, b: &Matrix, k: usize, n: usize, buf: &mut Vec<f64>) -> usize {
    let nb = n.next_multiple_of(PANEL_PAD);
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

/// The lane backend a product runs on (see the module docs). A variant is
/// only ever run on a host that [`Backend::host`] or the tests' detection
/// found to support it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    /// AVX-512F `zmm` lanes.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// AVX2+FMA `ymm` lanes.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    /// Plain Rust, separate multiply and add.
    Portable,
}

impl Backend {
    /// The widest backend this host runs. The standard library caches the
    /// CPU detection, so every call of a process returns the same backend.
    fn host() -> Backend {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Backend::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Backend::Avx2Fma;
            }
        }
        Backend::Portable
    }

    /// Runs every register tile of an `m × n` product.
    ///
    /// # Safety
    ///
    /// The host must run this backend's instruction set, and `s` must
    /// describe an `m × k` `op(A)` laid out as `op_a` says, a `k × nb`
    /// panel with `nb ≥ n` rounded up to [`PANEL_PAD`], and an `m × n`
    /// output with no other live access.
    unsafe fn run(self, op_a: GemmOp, s: &Operands, m: usize, n: usize, e: &mut dyn BlockEpilogue) {
        match (self, op_a) {
            // `8 × 24` tiles: 24 of the 32 `zmm` registers accumulate.
            #[cfg(target_arch = "x86_64")]
            (Backend::Avx512, GemmOp::NoTrans) => rows::<Avx512, 8, 4, 3, false>(s, m, n, e),
            #[cfg(target_arch = "x86_64")]
            (Backend::Avx512, GemmOp::Trans) => rows::<Avx512, 8, 4, 3, true>(s, m, n, e),
            // `6 × 8` tiles: 12 of the 16 `ymm` registers accumulate,
            // leaving two for `op(B)` and one for the broadcast.
            #[cfg(target_arch = "x86_64")]
            (Backend::Avx2Fma, GemmOp::NoTrans) => rows::<Avx2Fma, 6, 2, 2, false>(s, m, n, e),
            #[cfg(target_arch = "x86_64")]
            (Backend::Avx2Fma, GemmOp::Trans) => rows::<Avx2Fma, 6, 2, 2, true>(s, m, n, e),
            (Backend::Portable, GemmOp::NoTrans) => rows::<Portable, 6, 2, 2, false>(s, m, n, e),
            (Backend::Portable, GemmOp::Trans) => rows::<Portable, 6, 2, 2, true>(s, m, n, e),
        }
    }
}

/// Raw operands of one product: `op(A)` in place (row stride `lda`), the
/// padded `k × nb` panel of `op(B)`, and the `C` output (row stride `ldc`).
struct Operands {
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

/// Every tile of an `m × n` output, `V` vectors wide: `R`-row blocks, then
/// `H`-row blocks, then 1-row blocks for the rest of the row tail.
///
/// # Safety
///
/// Same contract as [`Backend::run`], on the backend `L` implements.
unsafe fn rows<L: Lanes, const R: usize, const H: usize, const V: usize, const TRANS_A: bool>(
    s: &Operands,
    m: usize,
    n: usize,
    e: &mut dyn BlockEpilogue,
) {
    let mut i = 0;
    while m - i >= R {
        row_block::<L, R, V, TRANS_A>(s, i, n, e);
        i += R;
    }
    while m - i >= H {
        row_block::<L, H, V, TRANS_A>(s, i, n, e);
        i += H;
    }
    while i < m {
        row_block::<L, 1, V, TRANS_A>(s, i, n, e);
        i += 1;
    }
}

/// One `R`-row block of the output: full tiles of `V` vectors, then one
/// tile of one to `V` vectors for the column tail. Each tile returns with
/// every panel merged, so once the last one is stored the block's elements
/// are final, and the epilogue runs on its rows while they are still in
/// L1.
///
/// # Safety
///
/// Same contract as [`rows`], with rows `i0 .. i0 + R` in range.
unsafe fn row_block<L: Lanes, const R: usize, const V: usize, const TRANS_A: bool>(
    s: &Operands,
    i0: usize,
    n: usize,
    e: &mut dyn BlockEpilogue,
) {
    let w = V * L::N;
    let full = n - n % w;
    for j0 in (0..full).step_by(w) {
        L::tile::<R, V, TRANS_A>(s, i0, j0, L::N);
    }
    let rem = n - full;
    if rem > 0 {
        // Live lanes of the tail's last vector; its padding columns are
        // zeros in the panel and never reach `C`.
        let live = (rem - 1) % L::N + 1;
        const { assert!(V <= 3, "tail tiles are one to three vectors wide") };
        match rem.div_ceil(L::N) {
            1 => L::tile::<R, 1, TRANS_A>(s, i0, full, live),
            2 if V == 3 => L::tile::<R, 2, TRANS_A>(s, i0, full, live),
            _ => L::tile::<R, V, TRANS_A>(s, i0, full, live),
        }
    }
    e.finish(s, i0..i0 + R, n);
}

/// An [`Epilogue`] as the row loops call it: once per finished row block,
/// through one dynamic call, so that the loops and the tiles are compiled
/// once for every epilogue.
trait BlockEpilogue {
    /// Runs the epilogue on the first `n` columns of the rows `rows` of
    /// the output of `s`.
    ///
    /// # Safety
    ///
    /// The rows must lie inside the output of `s`, with no other live
    /// access to them.
    unsafe fn finish(&mut self, s: &Operands, rows: Range<usize>, n: usize);
}

impl<E: Epilogue> BlockEpilogue for E {
    unsafe fn finish(&mut self, s: &Operands, rows: Range<usize>, n: usize) {
        for i in rows {
            self.apply(i, 0, std::slice::from_raw_parts_mut(s.c.add(i * s.ldc), n));
        }
    }
}

/// One `R × V·N` register tile at `(i0, j0)`. Per `KC` panel, `R·V`
/// accumulators each run a multiply-add chain from zero; then `α·acc` is
/// stored (`β = 0`) or added to `C` (`β = 1`) or to `β·C` on the first
/// panel, and added to `C` on every later one. `live` lanes of the last
/// vector of each row are loaded and stored.
///
/// # Safety
///
/// Same contract as [`row_block`], with columns `j0 .. j0 + V·N` inside
/// the panel width `nb`.
#[inline(always)]
unsafe fn tile_loops<L: Lanes, const R: usize, const V: usize, const TRANS_A: bool>(
    s: &Operands,
    i0: usize,
    j0: usize,
    live: usize,
) {
    // op(A)[i0 + r][p] sits at a[(i0 + r)·lda + p] (NoTrans) or at
    // a[p·lda + i0 + r] (Trans, a contiguous run of one source row).
    let (row_step, p_step) = if TRANS_A { (1, s.lda) } else { (s.lda, 1) };
    let a0 = s.a.add(i0 * row_step);
    let mut beta = s.beta;
    for p0 in (0..s.k).step_by(KC) {
        let mut acc = [[L::splat(0.0); V]; R];
        for p in p0..s.k.min(p0 + KC) {
            let brow = s.b.add(p * s.nb + j0);
            let mut bv = [L::splat(0.0); V];
            for (v, b) in bv.iter_mut().enumerate() {
                *b = L::load(brow.add(v * L::N), L::N);
            }
            let ap = a0.add(p * p_step);
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = L::splat(*ap.add(r * row_step));
                for (cv, &b) in accr.iter_mut().zip(&bv) {
                    *cv = L::mul_add(av, b, *cv);
                }
            }
        }
        let va = L::splat(s.alpha);
        let vb = L::splat(beta);
        for (r, accr) in acc.iter().enumerate() {
            let row = s.c.add((i0 + r) * s.ldc + j0);
            for (v, &x) in accr.iter().enumerate() {
                let len = if v + 1 == V { live } else { L::N };
                let dst = row.add(v * L::N);
                let prod = L::mul(va, x);
                let out = if beta == 0.0 {
                    prod
                } else {
                    let old = L::load(dst, len);
                    let old = if beta == 1.0 { old } else { L::mul(vb, old) };
                    L::add(old, prod)
                };
                L::store(dst, len, out);
            }
        }
        beta = 1.0;
    }
}

/// The lane operations of one instruction set: everything the tile loops
/// do to a vector of `N` f64.
///
/// # Safety
///
/// Every method needs a host that runs the implementor's instruction set.
/// `load` and `store` touch the first `len` lanes at `p` (`1 ≤ len ≤ N`;
/// the other lanes load as zero), which must be valid for that access.
trait Lanes {
    /// One vector of `N` lanes.
    type Vector: Copy;
    /// Lanes per vector.
    const N: usize;
    /// [`tile_loops`] for this backend, with its contract, compiled with
    /// the backend's instruction set enabled so that the lane operations
    /// inline into it. The row loops call one such function per tile.
    unsafe fn tile<const R: usize, const V: usize, const TRANS_A: bool>(
        s: &Operands,
        i0: usize,
        j0: usize,
        live: usize,
    );
    /// Every lane `x`.
    unsafe fn splat(x: f64) -> Self::Vector;
    /// `acc + a·b` per lane: fused on the FMA backends, a separate
    /// multiply and add on the portable one.
    unsafe fn mul_add(a: Self::Vector, b: Self::Vector, acc: Self::Vector) -> Self::Vector;
    /// `a·b` per lane.
    unsafe fn mul(a: Self::Vector, b: Self::Vector) -> Self::Vector;
    /// `a + b` per lane.
    unsafe fn add(a: Self::Vector, b: Self::Vector) -> Self::Vector;
    /// The first `len` lanes at `p`, zeros above.
    unsafe fn load(p: *const f64, len: usize) -> Self::Vector;
    /// Writes the first `len` lanes of `v` to `p`.
    unsafe fn store(p: *mut f64, len: usize, v: Self::Vector);
}

/// AVX-512F lanes (see [`Lanes`]).
#[cfg(target_arch = "x86_64")]
struct Avx512;

#[cfg(target_arch = "x86_64")]
impl Lanes for Avx512 {
    type Vector = std::arch::x86_64::__m512d;
    const N: usize = 8;

    #[target_feature(enable = "avx512f")]
    unsafe fn tile<const R: usize, const V: usize, const TRANS_A: bool>(
        s: &Operands,
        i0: usize,
        j0: usize,
        live: usize,
    ) {
        tile_loops::<Self, R, V, TRANS_A>(s, i0, j0, live)
    }

    #[inline(always)]
    unsafe fn splat(x: f64) -> Self::Vector {
        std::arch::x86_64::_mm512_set1_pd(x)
    }

    #[inline(always)]
    unsafe fn mul_add(a: Self::Vector, b: Self::Vector, acc: Self::Vector) -> Self::Vector {
        std::arch::x86_64::_mm512_fmadd_pd(a, b, acc)
    }

    #[inline(always)]
    unsafe fn mul(a: Self::Vector, b: Self::Vector) -> Self::Vector {
        std::arch::x86_64::_mm512_mul_pd(a, b)
    }

    #[inline(always)]
    unsafe fn add(a: Self::Vector, b: Self::Vector) -> Self::Vector {
        std::arch::x86_64::_mm512_add_pd(a, b)
    }

    #[inline(always)]
    unsafe fn load(p: *const f64, len: usize) -> Self::Vector {
        use std::arch::x86_64::*;
        if len == Self::N {
            _mm512_loadu_pd(p)
        } else {
            _mm512_maskz_loadu_pd(u8::MAX >> (Self::N - len), p)
        }
    }

    #[inline(always)]
    unsafe fn store(p: *mut f64, len: usize, v: Self::Vector) {
        use std::arch::x86_64::*;
        if len == Self::N {
            _mm512_storeu_pd(p, v)
        } else {
            _mm512_mask_storeu_pd(p, u8::MAX >> (Self::N - len), v)
        }
    }
}

/// AVX2+FMA lanes (see [`Lanes`]).
#[cfg(target_arch = "x86_64")]
struct Avx2Fma;

#[cfg(target_arch = "x86_64")]
impl Avx2Fma {
    /// The `maskload`/`maskstore` mask selecting the first `len` lanes.
    #[inline(always)]
    unsafe fn mask(len: usize) -> std::arch::x86_64::__m256i {
        use std::arch::x86_64::*;
        _mm256_cmpgt_epi64(
            _mm256_set1_epi64x(len as i64),
            _mm256_setr_epi64x(0, 1, 2, 3),
        )
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes for Avx2Fma {
    type Vector = std::arch::x86_64::__m256d;
    const N: usize = 4;

    #[target_feature(enable = "avx2,fma")]
    unsafe fn tile<const R: usize, const V: usize, const TRANS_A: bool>(
        s: &Operands,
        i0: usize,
        j0: usize,
        live: usize,
    ) {
        tile_loops::<Self, R, V, TRANS_A>(s, i0, j0, live)
    }

    #[inline(always)]
    unsafe fn splat(x: f64) -> Self::Vector {
        std::arch::x86_64::_mm256_set1_pd(x)
    }

    #[inline(always)]
    unsafe fn mul_add(a: Self::Vector, b: Self::Vector, acc: Self::Vector) -> Self::Vector {
        std::arch::x86_64::_mm256_fmadd_pd(a, b, acc)
    }

    #[inline(always)]
    unsafe fn mul(a: Self::Vector, b: Self::Vector) -> Self::Vector {
        std::arch::x86_64::_mm256_mul_pd(a, b)
    }

    #[inline(always)]
    unsafe fn add(a: Self::Vector, b: Self::Vector) -> Self::Vector {
        std::arch::x86_64::_mm256_add_pd(a, b)
    }

    #[inline(always)]
    unsafe fn load(p: *const f64, len: usize) -> Self::Vector {
        use std::arch::x86_64::*;
        if len == Self::N {
            _mm256_loadu_pd(p)
        } else {
            _mm256_maskload_pd(p, Self::mask(len))
        }
    }

    #[inline(always)]
    unsafe fn store(p: *mut f64, len: usize, v: Self::Vector) {
        use std::arch::x86_64::*;
        if len == Self::N {
            _mm256_storeu_pd(p, v)
        } else {
            _mm256_maskstore_pd(p, Self::mask(len), v)
        }
    }
}

/// Portable lanes (see [`Lanes`]): plain arrays, one rounding per
/// multiply and per add.
struct Portable;

impl Lanes for Portable {
    type Vector = [f64; 2];
    const N: usize = 2;

    unsafe fn tile<const R: usize, const V: usize, const TRANS_A: bool>(
        s: &Operands,
        i0: usize,
        j0: usize,
        live: usize,
    ) {
        tile_loops::<Self, R, V, TRANS_A>(s, i0, j0, live)
    }

    #[inline(always)]
    unsafe fn splat(x: f64) -> Self::Vector {
        [x; 2]
    }

    #[inline(always)]
    unsafe fn mul_add(a: Self::Vector, b: Self::Vector, acc: Self::Vector) -> Self::Vector {
        [acc[0] + a[0] * b[0], acc[1] + a[1] * b[1]]
    }

    #[inline(always)]
    unsafe fn mul(a: Self::Vector, b: Self::Vector) -> Self::Vector {
        [a[0] * b[0], a[1] * b[1]]
    }

    #[inline(always)]
    unsafe fn add(a: Self::Vector, b: Self::Vector) -> Self::Vector {
        [a[0] + b[0], a[1] + b[1]]
    }

    #[inline(always)]
    unsafe fn load(p: *const f64, len: usize) -> Self::Vector {
        let mut v = [0.0; 2];
        std::ptr::copy_nonoverlapping(p, v.as_mut_ptr(), len);
        v
    }

    #[inline(always)]
    unsafe fn store(p: *mut f64, len: usize, v: Self::Vector) {
        std::ptr::copy_nonoverlapping(v.as_ptr(), p, len);
    }
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

    /// Every backend this host runs, widest first.
    fn host_backends() -> Vec<Backend> {
        let mut backends = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                backends.push(Backend::Avx512);
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                backends.push(Backend::Avx2Fma);
            }
        }
        backends.push(Backend::Portable);
        backends
    }

    #[test]
    fn matches_naive_across_panel_boundaries() {
        // k spans two KC panels; m and n are not multiples of any tile
        // height or width, so every row and column tail runs.
        let (m, n, k) = (131, 21, 263);
        let a = filled(m, k, |i, j| ((i * 31 + j * 17) % 23) as f64 * 0.37 - 3.0);
        let b = filled(k, n, |i, j| ((i * 13 + j * 29) % 19) as f64 * 0.23 - 1.5);
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
        assert_close(&c, &c_naive, 1e-12);
    }

    #[test]
    fn all_op_combinations_agree_with_naive() {
        let (m, n, k) = (37, 26, 41);
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
        let (m, n, k) = (20, 24, 32);
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
        for (m, n, k) in [(3, 4, 5), (33, 29, 17), (5, 6, 0), (9, 11, 300)] {
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

    /// The engine's arithmetic written out one element at a time: per
    /// 256-deep panel a scalar chain from zero — `f64::mul_add` when
    /// `fused`, a separate multiply and add otherwise — merged into `C`
    /// as the module docs say, then the epilogue.
    #[allow(clippy::too_many_arguments)]
    fn scalar_reference(
        fused: bool,
        (op_a, op_b): (GemmOp, GemmOp),
        alpha: f64,
        a: &Matrix,
        b: &Matrix,
        beta: f64,
        c: &mut Matrix,
        epilogue: &mut MlpEpilogue<'_>,
    ) {
        let (m, n, k) = checked_dims(op_a, op_b, a, b);
        let op_a_at = |i: usize, p: usize| match op_a {
            GemmOp::NoTrans => a[(i, p)],
            GemmOp::Trans => a[(p, i)],
        };
        let op_b_at = |p: usize, j: usize| match op_b {
            GemmOp::NoTrans => b[(p, j)],
            GemmOp::Trans => b[(j, p)],
        };
        for i in 0..m {
            for j in 0..n {
                let mut v = match beta {
                    0.0 => 0.0,
                    1.0 => c[(i, j)],
                    _ => beta * c[(i, j)],
                };
                for p0 in (0..k).step_by(256) {
                    let mut acc = 0.0f64;
                    for p in p0..k.min(p0 + 256) {
                        let (x, y) = (op_a_at(i, p), op_b_at(p, j));
                        acc = if fused {
                            x.mul_add(y, acc)
                        } else {
                            acc + x * y
                        };
                    }
                    v = if p0 == 0 && beta == 0.0 {
                        alpha * acc
                    } else {
                        v + alpha * acc
                    };
                }
                c[(i, j)] = v;
            }
            epilogue.apply(i, 0, c.row_mut(i));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Every backend this host runs agrees with the scalar reference
        /// bit for bit — the FMA backends with the `f64::mul_add` chain,
        /// the portable one with the separate multiply and add — and the
        /// portable backend equals `gemm_naive` in value up to one panel
        /// deep. Covers every op combination, α ∈ {1, −0.5},
        /// β ∈ {0, 0.5, 1} and every MLP epilogue, on shapes with full
        /// tiles, row tails (m = 1..9), column tails around every
        /// backend's vector and tile widths, and depths from 0 to three
        /// panels.
        #[test]
        fn lane_backends_agree(
            m_sel in 0usize..10,
            n_sel in 0usize..9,
            k_sel in 0usize..6,
            epi_sel in 0usize..6,
            seed in proptest::collection::vec(-1.0..1.0f64, 32..200),
        ) {
            let m = [1, 2, 3, 4, 5, 6, 7, 8, 9, 128][m_sel];
            let n = [1, 7, 8, 9, 23, 24, 25, 48, 300][n_sel];
            let k = [0, 1, 40, 128, 256, 549][k_sel];
            let bias: Vec<f64> = (0..n).map(|j| seed[(5 * j + 1) % seed.len()]).collect();
            let act = Matrix::from_fn(m, n, |i, j| seed[(i + 11 * j) % seed.len()]);
            let c0 = Matrix::from_fn(m, n, |i, j| seed[(3 * i + 5 * j + 2) % seed.len()]);
            let epi = || match epi_sel {
                0 => MlpEpilogue::Plain,
                1 => MlpEpilogue::Bias(&bias),
                2 => MlpEpilogue::BiasRelu(&bias),
                3 => MlpEpilogue::BiasTanh(&bias),
                4 => MlpEpilogue::ReluPrime(&act),
                _ => MlpEpilogue::TanhPrime(&act),
            };
            let backends = host_backends();
            let ws = &mut GemmWorkspace::new();
            for ops in OPS {
                let a = operand(ops.0, m, k, &seed, 0);
                let b = operand(ops.1, k, n, &seed, 13);
                for alpha in [1.0, -0.5] {
                    for beta in [0.0, 0.5, 1.0] {
                        let reference = |fused| {
                            let mut c = c0.clone();
                            scalar_reference(fused, ops, alpha, &a, &b, beta, &mut c, &mut epi());
                            c
                        };
                        let (fused, plain) = (reference(true), reference(false));
                        for &backend in &backends {
                            let mut c = c0.clone();
                            product(backend, ops, alpha, &a, &b, beta, &mut c, ws, &mut epi());
                            let expect = if backend == Backend::Portable { &plain } else { &fused };
                            for (x, y) in c.as_slice().iter().zip(expect.as_slice()) {
                                proptest::prop_assert!(x.to_bits() == y.to_bits(), "{backend:?}: {x} vs {y}");
                            }
                            if backend == Backend::Portable && k <= 256 {
                                let mut naive = c0.clone();
                                gemm_naive_with(ops.0, ops.1, alpha, &a, &b, beta, &mut naive, &mut epi());
                                proptest::prop_assert_eq!(c.as_slice(), naive.as_slice());
                            }
                        }
                    }
                }
            }
        }
    }

    /// The epilogue runs on each register row block right after the
    /// block's last `KC` panel. On every backend the host runs, for NN and
    /// TN products one panel deep, exactly one, just over one and just over
    /// two, with row and column tails, the fused result equals a plain
    /// product followed by a separate row pass of the same epilogue, bit
    /// for bit. An epilogue that ran before the last panel had merged would
    /// see a partial sum and fail here.
    #[test]
    fn fused_epilogue_equals_a_separate_pass() {
        let seed: Vec<f64> = (0..89).map(|i| (i as f64 * 0.61).cos()).collect();
        let ws = &mut GemmWorkspace::new();
        for backend in host_backends() {
            for ops in [
                (GemmOp::NoTrans, GemmOp::NoTrans),
                (GemmOp::Trans, GemmOp::NoTrans),
            ] {
                for k in [KC - 1, KC, KC + 1, 2 * KC + 3] {
                    // 8·3 + 5 rows and 24 + 7 columns: full tiles, then
                    // every row tail height and a partial column vector.
                    let (m, n) = (29, 31);
                    let a = operand(ops.0, m, k, &seed, 0);
                    let b = operand(ops.1, k, n, &seed, 13);
                    let bias: Vec<f64> = (0..n).map(|j| seed[(5 * j + 1) % seed.len()]).collect();
                    let act = Matrix::from_fn(m, n, |i, j| seed[(i + 11 * j) % seed.len()]);
                    let c0 = Matrix::from_fn(m, n, |i, j| seed[(3 * i + 5 * j + 2) % seed.len()]);
                    for beta in [0.0, 0.5] {
                        for mut epi in [
                            MlpEpilogue::BiasRelu(&bias),
                            MlpEpilogue::BiasTanh(&bias),
                            MlpEpilogue::TanhPrime(&act),
                        ] {
                            let mut fused = c0.clone();
                            product(backend, ops, 1.0, &a, &b, beta, &mut fused, ws, &mut epi);
                            let mut separate = c0.clone();
                            product(
                                backend,
                                ops,
                                1.0,
                                &a,
                                &b,
                                beta,
                                &mut separate,
                                ws,
                                &mut NoEpilogue,
                            );
                            for i in 0..m {
                                epi.apply(i, 0, separate.row_mut(i));
                            }
                            for (x, y) in fused.as_slice().iter().zip(separate.as_slice()) {
                                assert!(
                                    x.to_bits() == y.to_bits(),
                                    "{backend:?} {ops:?} k = {k}, beta = {beta}: {x} vs {y}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The engine's bits, pinned: one product three `KC` panels deep, with
    /// α, β = 0.5, and row and column tail tiles, under two epilogues. The
    /// bias + tanh digest pins the fused epilogue path, but tanh saturates
    /// most outputs to ±1, which hides last-bit moves in the accumulation;
    /// the plain ([`NoEpilogue`]) digest keeps every output bit, so any
    /// change to the per-element operation sequence moves it. Both hold on
    /// every FMA backend; the portable one rounds differently.
    #[test]
    fn multi_panel_bits_are_pinned() {
        fn digest<E: Epilogue>(
            backend: Backend,
            c0: &Matrix,
            a: &Matrix,
            b: &Matrix,
            epilogue: &mut E,
        ) -> u64 {
            let mut c = c0.clone();
            product(
                backend,
                (GemmOp::NoTrans, GemmOp::Trans),
                -0.75,
                a,
                b,
                0.5,
                &mut c,
                &mut GemmWorkspace::new(),
                epilogue,
            );
            c.as_slice().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
                (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        let (m, n, k) = (141, 29, 549);
        let seed: Vec<f64> = (0..97).map(|i| (i as f64 * 0.37).sin()).collect();
        let a = operand(GemmOp::NoTrans, m, k, &seed, 0);
        let b = operand(GemmOp::Trans, k, n, &seed, 13);
        let bias: Vec<f64> = (0..n).map(|j| seed[(5 * j + 1) % seed.len()]).collect();
        let c0 = Matrix::from_fn(m, n, |i, j| seed[(3 * i + 5 * j + 2) % seed.len()]);
        for backend in host_backends() {
            if backend == Backend::Portable {
                continue;
            }
            let tanh = digest(backend, &c0, &a, &b, &mut MlpEpilogue::BiasTanh(&bias));
            assert_eq!(
                tanh, 0x131b_ff97_45fb_0cf1,
                "{backend:?} bias + tanh product bits moved: {tanh:#018x}"
            );
            let plain = digest(backend, &c0, &a, &b, &mut NoEpilogue);
            assert_eq!(
                plain, 0x2270_53b6_26be_4f93,
                "{backend:?} plain product bits moved: {plain:#018x}"
            );
        }
    }

    /// Diagnostic (run with `--release -- --ignored --nocapture`): every
    /// backend the host runs, and `gemm_naive`, on the eight critic
    /// products (batch 128, widths 40→48→48→30) and across larger shapes.
    #[test]
    #[ignore]
    fn probe_gemm_backends() {
        type Shape = (usize, usize, usize, (GemmOp, GemmOp));
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
        let backends = host_backends();
        let mut ws = GemmWorkspace::new();
        let mut c = Matrix::default();
        // Best-of-25 µs per product on a backend (`None`: the naive loops,
        // best-of-3 single calls on the largest products).
        let mut time = |path: Option<Backend>, (m, n, k, ops): Shape| {
            let a = operand(ops.0, m, k, &seed, 0);
            let b = operand(ops.1, k, n, &seed, 13);
            let (reps, tries) = if path.is_none() && m * n * k > 1 << 22 {
                (1, 3)
            } else {
                ((2_000_000 / (m * n * k)).clamp(3, 2000), 25)
            };
            let mut best = f64::INFINITY;
            for _ in 0..tries {
                let t = std::time::Instant::now();
                for _ in 0..reps {
                    match path {
                        Some(backend) => product(
                            backend,
                            ops,
                            1.0,
                            &a,
                            &b,
                            0.0,
                            &mut c,
                            &mut ws,
                            &mut NoEpilogue,
                        ),
                        None => gemm_naive(ops.0, ops.1, 1.0, &a, &b, 0.0, &mut c),
                    }
                }
                best = best.min(t.elapsed().as_secs_f64() / reps as f64);
            }
            best * 1e6
        };
        let mut step = vec![0.0; backends.len() + 1];
        for (i, shape) in critic.into_iter().chain(sweep).enumerate() {
            let (m, n, k, _) = shape;
            let paths = backends.iter().map(|&b| Some(b)).chain([None]);
            let times: Vec<f64> = paths.map(|path| time(path, shape)).collect();
            let mut line = format!("m={m:4} n={n:4} k={k:3}");
            for (path, t) in backends
                .iter()
                .map(|b| format!("{b:?}"))
                .chain(["naive".into()])
                .zip(&times)
            {
                line += &format!(" {path} {t:9.2}us");
            }
            eprintln!("{line}");
            if i < critic.len() {
                for (s, t) in step.iter_mut().zip(&times) {
                    *s += t;
                }
            }
            if i + 1 == critic.len() {
                eprintln!("critic step (backends as above, then naive): {step:.1?} us");
            }
        }
    }
}
