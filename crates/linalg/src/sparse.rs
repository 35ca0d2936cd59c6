//! KLU-style sparse LU for the circuit simulator's MNA systems.
//!
//! Modified-nodal-analysis matrices are ~95% structural zeros and, across a
//! Newton solve, only their *values* change — the sparsity pattern is fixed
//! by the circuit topology. This module exploits that split:
//!
//! - [`CscT`] stores the system in compressed-sparse-column form over any
//!   [`Scalar`] element type ([`CscMatrix`] = real, [`crate::
//!   CscComplexMatrix`] = complex). [`CscT::from_coordinates`] additionally
//!   returns a *slot map* so a stamper that replays the same write sequence
//!   every assembly can write each contribution straight into the value
//!   array (`values[slot] += g`) with no index search at all.
//! - [`SparseLuT::factor`] runs a left-looking Gilbert–Peierls LU with
//!   partial pivoting on top of a minimum-degree column preordering,
//!   recording the full elimination pattern (reach sets, fill positions,
//!   pivot sequence).
//! - [`SparseLuT::refactor_into`] replays that recording on new values:
//!   no pivot search, no reachability DFS, no per-pivot column scans —
//!   just gather/scatter over precomputed index lists. This is the
//!   per-frequency-point kernel of the complex instantiation.
//! - [`SparseLuT::refactor_dependent_into`] replays only the *dependent*
//!   steps: those whose column is in the caller's "may change" mask
//!   ([`SparseLuT::set_column_mask`]) or whose U column reads a dependent
//!   step. Every other step reads an unchanged column and unchanged
//!   steps, so its stored factors are already what a full replay would
//!   compute. This is the per-Newton-iteration kernel, where only the
//!   MOSFET columns move.
//! - [`SparseLuT::solve_transpose_into`] solves `Aᵀ·y = b` on the same
//!   factors — the noise analysis' adjoint system shares one
//!   factorization per frequency point with the forward AC solve.
//!
//! The whole numeric plane is generic over [`Scalar`], so the real and
//! complex paths are one implementation and cannot drift. There is one
//! numeric path: the flat replay above, column by column over recorded
//! index arrays.
//!
//! The intended rhythm (mirrored by `spice::NewtonWorkspace`): analyze the
//! pattern once per topology, `factor` once per solve to pin the pivot
//! sequence to the current value range, then `refactor_dependent_into`
//! every subsequent iteration — or `refactor_into` after the columns
//! outside the mask changed.

use crate::scalar::Scalar;
use crate::{FactorError, Matrix};

/// Pivots whose magnitude is not above this absolute threshold are treated
/// as singular, by the sparse [`SparseLuT`] and the dense
/// [`crate::reference`] alike, so the two agree on what "singular" means.
pub(crate) const PIVOT_EPS: f64 = 1e-300;

/// A square sparse matrix in compressed-sparse-column (CSC) form, generic
/// over the element type ([`CscMatrix`] for `f64`,
/// [`crate::CscComplexMatrix`] for [`crate::C64`]).
///
/// The pattern (`col_ptr`/`row_idx`) is fixed at construction; only the
/// value array changes between factorizations.
#[derive(Debug, Clone)]
pub struct CscT<T: Scalar> {
    pub(crate) n: usize,
    /// Column start offsets, length `n + 1`.
    pub(crate) col_ptr: Vec<usize>,
    /// Row index of each stored entry, column-major, rows ascending.
    pub(crate) row_idx: Vec<usize>,
    /// Entry values, aligned with `row_idx`.
    pub(crate) values: Vec<T>,
}

/// Real CSC matrix (the DC/transient MNA system).
pub type CscMatrix = CscT<f64>;

/// Builds the CSC pattern arrays holding every coordinate in `coords`
/// (duplicates allowed — they share a slot). Returns `(col_ptr, row_idx,
/// slots)` where `slots[k]` is the value-array index backing `coords[k]`.
/// Shared by every [`CscT`] instantiation, so the real and complex
/// patterns built from the same coordinates get identical slot maps.
///
/// # Panics
///
/// Panics if any coordinate is out of range.
fn pattern_from_coordinates(
    n: usize,
    coords: &[(usize, usize)],
) -> (Vec<usize>, Vec<usize>, Vec<u32>) {
    for &(r, c) in coords {
        assert!(r < n && c < n, "coordinate ({r}, {c}) outside {n}x{n}");
    }
    // Unique (col, row) pairs in column-major order.
    let mut entries: Vec<(usize, usize)> = coords.iter().map(|&(r, c)| (c, r)).collect();
    entries.sort_unstable();
    entries.dedup();
    let mut col_ptr = vec![0usize; n + 1];
    for &(c, _) in &entries {
        col_ptr[c + 1] += 1;
    }
    for c in 0..n {
        col_ptr[c + 1] += col_ptr[c];
    }
    let row_idx: Vec<usize> = entries.iter().map(|&(_, r)| r).collect();
    let slots = coords
        .iter()
        .map(|&(r, c)| {
            let found = entries
                .binary_search(&(c, r))
                .expect("coordinate present by construction");
            u32::try_from(found).expect("slot index fits in u32")
        })
        .collect();
    (col_ptr, row_idx, slots)
}

impl<T: Scalar> CscT<T> {
    /// Builds the pattern holding every coordinate in `coords` (duplicates
    /// allowed — they share a slot) with all values zero. Returns the
    /// matrix and a *slot map*: `slots[k]` is the index into
    /// [`CscT::values`] backing `coords[k]`, so a caller replaying the
    /// same write sequence can assemble with `values[slots[k]] += v`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn from_coordinates(n: usize, coords: &[(usize, usize)]) -> (Self, Vec<u32>) {
        let (col_ptr, row_idx, slots) = pattern_from_coordinates(n, coords);
        let nnz = row_idx.len();
        let mat = CscT {
            n,
            col_ptr,
            row_idx,
            values: vec![T::ZERO; nnz],
        };
        (mat, slots)
    }

    /// Dimension of the (square) matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Stored values (column-major, aligned with the pattern).
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable access to the stored values, for slot-map assembly.
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Swaps the value storage out (and back in), letting a stamper own the
    /// array during assembly without copying. The replacement must have the
    /// same length.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.nnz()`.
    pub fn swap_values(&mut self, values: &mut Vec<T>) {
        assert_eq!(values.len(), self.nnz(), "value array length mismatch");
        std::mem::swap(&mut self.values, values);
    }

    /// Zeroes every stored value, keeping the pattern.
    pub fn set_zero(&mut self) {
        self.values.fill(T::ZERO);
    }

    /// Entries of one column as `(row, value)` pairs.
    fn col(&self, c: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        let range = self.col_ptr[c]..self.col_ptr[c + 1];
        self.row_idx[range.clone()]
            .iter()
            .zip(&self.values[range])
            .map(|(&r, &v)| (r, v))
    }
}

impl CscMatrix {
    /// Builds a CSC matrix from the exact nonzero pattern (and values) of a
    /// dense matrix. Test/bench helper.
    ///
    /// # Panics
    ///
    /// Panics on non-square input.
    pub fn from_dense(a: &Matrix) -> Self {
        assert_eq!(a.rows(), a.cols(), "CscMatrix requires a square matrix");
        let n = a.rows();
        let coords: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| a[(i, j)] != 0.0)
            .collect();
        let (mut m, slots) = CscMatrix::from_coordinates(n, &coords);
        for (&(i, j), &s) in coords.iter().zip(&slots) {
            m.values[s as usize] = a[(i, j)];
        }
        m
    }

    /// Densifies the matrix (test helper).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for c in 0..self.n {
            for (r, v) in self.col(c) {
                m[(r, c)] += v;
            }
        }
        m
    }
}

/// Fill-explosion guard for [`min_degree_order_pattern`]: the clique
/// simulation may insert at most `FILL_GUARD_EDGE_FACTOR · |E₀| +
/// FILL_GUARD_NODE_FACTOR · n` new undirected edges before the ordering
/// bails out to the natural order. Measured headroom: RC grids/ladders up
/// to n = 2000 insert ≈ 2–4·|E₀| fill edges under min-degree (well-ordered
/// meshes fill ~O(n log n)), so 16× edges + 64·n leaves ≥ 4× margin for
/// every mesh workload while still catching the quadratic blowup a bad
/// tie-break cascade produces (where the quotient-graph walk itself turns
/// O(n³) and ordering costs more than the factorization it serves).
const FILL_GUARD_EDGE_FACTOR: usize = 16;
const FILL_GUARD_NODE_FACTOR: usize = 64;

/// Deterministic minimum-degree ordering on the symmetrized pattern
/// `(col_ptr, row_idx)` (ties broken toward the smallest index). This is
/// the AMD-style fill-reducing preordering applied to columns before
/// factorization; MNA patterns are near-symmetric, so ordering `A + Aᵀ`
/// works well. Shared by the real and complex sparse LU (the ordering
/// depends only on the pattern, never on values).
///
/// Guarded against fill explosion: when the elimination-clique simulation
/// inserts more edges than the [`FILL_GUARD_EDGE_FACTOR`] budget allows,
/// the pattern is densifying under min-degree anyway and the function
/// returns the natural order `0..n` instead of silently spending quadratic
/// time and memory on the quotient graph. The bailout is observable: it
/// records one [`telemetry::Metric::SparseFillGuardFallbacks`] count (the
/// fallback trades factorization fill for ordering time, which is worth
/// knowing about when a workload triggers it systematically).
fn min_degree_order_pattern(n: usize, col_ptr: &[usize], row_idx: &[usize]) -> Vec<usize> {
    // Symmetric adjacency, excluding the diagonal.
    let mut adj: Vec<std::collections::BTreeSet<usize>> = vec![Default::default(); n];
    let mut edges = 0usize;
    for c in 0..n {
        for &r in &row_idx[col_ptr[c]..col_ptr[c + 1]] {
            if r != c && adj[r].insert(c) {
                adj[c].insert(r);
                edges += 1;
            }
        }
    }
    let fill_budget = FILL_GUARD_EDGE_FACTOR * edges + FILL_GUARD_NODE_FACTOR * n;
    let mut fill = 0usize;
    let mut alive = vec![true; n];
    let mut order = Vec::with_capacity(n);
    let mut scratch: Vec<usize> = Vec::new();
    for _ in 0..n {
        let v = (0..n)
            .filter(|&i| alive[i])
            .min_by_key(|&i| (adj[i].len(), i))
            .expect("an alive vertex remains");
        order.push(v);
        alive[v] = false;
        scratch.clear();
        scratch.extend(adj[v].iter().copied().filter(|&u| alive[u]));
        // Eliminating v turns its neighborhood into a clique.
        for (k, &u) in scratch.iter().enumerate() {
            adj[u].remove(&v);
            for &w in &scratch[k + 1..] {
                if adj[u].insert(w) {
                    adj[w].insert(u);
                    fill += 1;
                }
            }
        }
        if fill > fill_budget {
            telemetry::record(telemetry::Metric::SparseFillGuardFallbacks, 1);
            let mut natural: Vec<usize> = (0..n).collect();
            etree_postorder(n, col_ptr, row_idx, &mut natural);
            return natural;
        }
    }
    etree_postorder(n, col_ptr, row_idx, &mut order);
    order
}

/// Replaces `order` by its elimination-tree postorder: computes the etree
/// of the symmetrized pattern under `order` (Liu's algorithm with path
/// compression), then renumbers each subtree contiguously, children in
/// ascending order — fully deterministic. A postorder is fill-equivalent
/// to the input order (same elimination tree, same fill) and numbers the
/// columns of each subtree consecutively. The resulting column order
/// fixes the pivot sequence, and so the bits, of every sparse factor.
fn etree_postorder(n: usize, col_ptr: &[usize], row_idx: &[usize], order: &mut [usize]) {
    if n == 0 {
        return;
    }
    let mut iperm = vec![0usize; n];
    for (k, &v) in order.iter().enumerate() {
        iperm[v] = k;
    }
    // Symmetrized adjacency in permuted coordinates (duplicate entries are
    // harmless to the etree walk).
    let mut aptr = vec![0usize; n + 1];
    for c in 0..n {
        for &r in &row_idx[col_ptr[c]..col_ptr[c + 1]] {
            if r != c {
                aptr[iperm[r] + 1] += 1;
                aptr[iperm[c] + 1] += 1;
            }
        }
    }
    for i in 0..n {
        aptr[i + 1] += aptr[i];
    }
    let mut anb = vec![0usize; aptr[n]];
    let mut pos = aptr.clone();
    for c in 0..n {
        for &r in &row_idx[col_ptr[c]..col_ptr[c + 1]] {
            if r != c {
                let (pc, pr) = (iperm[c], iperm[r]);
                anb[pos[pc]] = pr;
                pos[pc] += 1;
                anb[pos[pr]] = pc;
                pos[pr] += 1;
            }
        }
    }
    // Liu's elimination-tree algorithm with path compression.
    let mut parent = vec![usize::MAX; n];
    let mut ancestor = vec![usize::MAX; n];
    for k in 0..n {
        for t in aptr[k]..aptr[k + 1] {
            let mut i = anb[t];
            if i >= k {
                continue;
            }
            while ancestor[i] != usize::MAX && ancestor[i] != k {
                let next = ancestor[i];
                ancestor[i] = k;
                i = next;
            }
            if ancestor[i] == usize::MAX {
                ancestor[i] = k;
                parent[i] = k;
            }
        }
    }
    // Children lists (ascending because `i` ascends) + iterative DFS.
    let mut cdeg = vec![0usize; n];
    for i in 0..n {
        if parent[i] != usize::MAX {
            cdeg[parent[i]] += 1;
        }
    }
    let mut cptr = vec![0usize; n + 1];
    for i in 0..n {
        cptr[i + 1] = cptr[i] + cdeg[i];
    }
    let mut child = vec![0usize; cptr[n]];
    let mut cpos = cptr.clone();
    for i in 0..n {
        if parent[i] != usize::MAX {
            child[cpos[parent[i]]] = i;
            cpos[parent[i]] += 1;
        }
    }
    let mut post = Vec::with_capacity(n);
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if parent[root] != usize::MAX {
            continue;
        }
        stack.push((root, 0));
        while let Some(&mut (node, ref mut ci)) = stack.last_mut() {
            if *ci < cdeg[node] {
                let c = child[cptr[node] + *ci];
                *ci += 1;
                stack.push((c, 0));
            } else {
                post.push(node);
                stack.pop();
            }
        }
    }
    debug_assert_eq!(post.len(), n);
    let old: Vec<usize> = order.to_vec();
    for (k, &pk) in post.iter().enumerate() {
        order[k] = old[pk];
    }
}

/// [`min_degree_order_pattern`] applied to a CSC matrix of any element
/// type (the ordering reads only the pattern).
fn min_degree_order<T: Scalar>(a: &CscT<T>) -> Vec<usize> {
    min_degree_order_pattern(a.n, &a.col_ptr, &a.row_idx)
}

/// Sparse LU factorization with a recorded elimination pattern, generic
/// over the element type ([`SparseLu`] for `f64`,
/// [`crate::SparseComplexLu`] for [`crate::C64`]).
///
/// `L` is unit lower triangular (unit diagonal implicit) and stored with
/// *original* row indices; `U` is upper triangular and stored with
/// *pivotal positions* (its rows were already pivotal when recorded). The
/// reciprocal pivots live in `inv_diag`.
///
/// # Example
///
/// ```
/// use linalg::{CscMatrix, SparseLu};
///
/// // [2 1; 1 3] with an off-diagonal pattern.
/// let (mut a, slots) =
///     CscMatrix::from_coordinates(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
/// for (s, v) in slots.iter().zip([2.0, 1.0, 1.0, 3.0]) {
///     a.values_mut()[*s as usize] += v;
/// }
/// let mut lu = SparseLu::new();
/// lu.factor(&a).expect("non-singular");
/// let mut x = Vec::new();
/// lu.solve_into(&[3.0, 5.0], &mut x).unwrap();
/// assert!((x[0] - 0.8).abs() < 1e-12 && (x[1] - 1.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseLuT<T: Scalar> {
    n: usize,
    /// Fill-reducing column preorder: step `k` factors column `q[k]` of `A`.
    q: Vec<usize>,
    /// `p[k]` = original row pivotal at step `k`.
    p: Vec<usize>,
    /// Inverse row permutation: `pinv[orig_row]` = pivotal step, or
    /// `usize::MAX` while unassigned during factorization.
    pinv: Vec<usize>,
    /// L pattern/values, column-major; rows are *original* indices,
    /// strictly-below-diagonal entries only.
    l_colptr: Vec<usize>,
    l_rows: Vec<u32>,
    l_vals: Vec<T>,
    /// U pattern/values, column-major; rows are *pivotal positions* `< k`,
    /// stored ascending so a refactor replay is a valid elimination order.
    u_colptr: Vec<usize>,
    u_rows: Vec<u32>,
    /// `p[u_rows[t]]` precomposed: the *original* row of each U entry, so
    /// the replay and the solves index the dense accumulator directly.
    u_orig: Vec<u32>,
    u_vals: Vec<T>,
    /// Reciprocal pivots.
    inv_diag: Vec<T>,
    /// The caller's "may change" mask over the columns of `A`
    /// ([`SparseLuT::set_column_mask`]); a mask of another length than
    /// the factored dimension (empty when never set) marks every column.
    may_change: Vec<bool>,
    /// Dependent steps, ascending: step `k` is listed when its column
    /// `q[k]` may change or one of its U entries reads a listed step.
    /// Rebuilt after every successful factorization.
    dependent: Vec<u32>,
    /// Dense accumulator indexed by original row; all-zero between calls
    /// (every method that writes it zeroes what it touched).
    work: Vec<T>,
    /// DFS visitation stamps (stamp = current step).
    flag: Vec<usize>,
    /// DFS stack of `(node, next-child offset)` frames.
    dfs: Vec<(usize, usize)>,
    /// Reach set of the current column, in DFS post-order.
    pattern: Vec<usize>,
    /// Scratch for sorting the pivotal part of a reach set.
    upper: Vec<(usize, usize)>,
    /// Column ordering computed for the current pattern.
    analyzed: bool,
    /// A successful numeric factorization is stored.
    factored: bool,
}

/// Real sparse LU (the per-Newton-iteration DC/transient kernel).
pub type SparseLu = SparseLuT<f64>;

impl<T: Scalar> SparseLuT<T> {
    /// Creates an empty factorization object; all storage is grown on first
    /// use and reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dimension of the (last) factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// True once a successful numeric factorization is stored.
    pub fn is_factored(&self) -> bool {
        self.factored
    }

    /// Number of stored `L` plus `U` entries (diagonal included), i.e. the
    /// fill the elimination produced.
    pub fn factor_nnz(&self) -> usize {
        self.l_rows.len() + self.u_rows.len() + self.n
    }

    /// Computes the fill-reducing column ordering for `a`'s pattern. Called
    /// automatically by [`SparseLuT::factor`] when needed; calling it again
    /// re-analyzes (use after the pattern itself changed). Drops the
    /// recorded elimination, which belongs to the old order: until the next
    /// [`SparseLuT::factor`], both refactorizations return
    /// [`FactorError::Shape`].
    pub fn analyze(&mut self, a: &CscT<T>) {
        self.q = min_degree_order(a);
        self.n = a.n;
        self.analyzed = true;
        self.factored = false;
        self.l_colptr.clear();
        self.u_colptr.clear();
        self.dependent.clear();
    }

    /// Full numeric factorization with partial pivoting, recording the
    /// elimination pattern for subsequent [`SparseLuT::refactor_into`]
    /// calls. Deterministic: the pivot choice depends only on `a`'s values
    /// (largest magnitude, ties broken toward the smallest original row
    /// index).
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::Singular`] when no acceptable pivot exists at
    /// some step (structural or numerical singularity).
    pub fn factor(&mut self, a: &CscT<T>) -> Result<(), FactorError> {
        if !self.analyzed || self.n != a.n || self.q.len() != a.n {
            self.analyze(a);
        }
        let n = a.n;
        assert!(
            u32::try_from(n).is_ok(),
            "sparse LU dimension {n} exceeds u32"
        );
        self.factored = false;
        self.p.clear();
        self.p.resize(n, 0);
        self.pinv.clear();
        self.pinv.resize(n, usize::MAX);
        self.l_colptr.clear();
        self.l_colptr.push(0);
        self.l_rows.clear();
        self.l_vals.clear();
        self.u_colptr.clear();
        self.u_colptr.push(0);
        self.u_rows.clear();
        self.u_orig.clear();
        self.u_vals.clear();
        self.inv_diag.clear();
        self.inv_diag.resize(n, T::ZERO);
        self.work.clear();
        self.work.resize(n, T::ZERO);
        self.flag.clear();
        self.flag.resize(n, usize::MAX);

        for k in 0..n {
            let col = self.q[k];
            // --- Symbolic: reach of A(:, col) through the graph of L.
            self.pattern.clear();
            for t in a.col_ptr[col]..a.col_ptr[col + 1] {
                let root = a.row_idx[t];
                if self.flag[root] == k {
                    continue;
                }
                // Iterative DFS; nodes are pushed to `pattern` post-order.
                self.dfs.push((root, 0));
                self.flag[root] = k;
                while let Some(&mut (node, ref mut child)) = self.dfs.last_mut() {
                    let step = self.pinv[node];
                    let descend = if step != usize::MAX {
                        let lo = self.l_colptr[step];
                        let hi = self.l_colptr[step + 1];
                        let mut next = None;
                        while lo + *child < hi {
                            let cand = self.l_rows[lo + *child] as usize;
                            *child += 1;
                            if self.flag[cand] != k {
                                self.flag[cand] = k;
                                next = Some(cand);
                                break;
                            }
                        }
                        next
                    } else {
                        None
                    };
                    match descend {
                        Some(c) => self.dfs.push((c, 0)),
                        None => {
                            self.pattern.push(node);
                            self.dfs.pop();
                        }
                    }
                }
            }
            // --- Numeric: scatter A(:, col), then eliminate with every
            // pivotal column in the reach, in ascending pivotal order (a
            // valid topological order of the elimination DAG).
            for t in a.col_ptr[col]..a.col_ptr[col + 1] {
                self.work[a.row_idx[t]] += a.values[t];
            }
            self.upper.clear();
            self.upper.extend(
                self.pattern
                    .iter()
                    .filter(|&&i| self.pinv[i] != usize::MAX)
                    .map(|&i| (self.pinv[i], i)),
            );
            self.upper.sort_unstable();
            for &(step, orig) in &self.upper {
                let ux = self.work[orig];
                self.u_rows.push(step as u32);
                self.u_orig.push(orig as u32);
                self.u_vals.push(ux);
                if ux != T::ZERO {
                    for t in self.l_colptr[step]..self.l_colptr[step + 1] {
                        self.work[self.l_rows[t] as usize] -= ux * self.l_vals[t];
                    }
                }
            }
            self.u_colptr.push(self.u_rows.len());
            // --- Pivot: largest magnitude among non-pivotal reach entries,
            // smallest original index on ties.
            let mut piv = usize::MAX;
            let mut piv_abs = -1.0;
            for &i in &self.pattern {
                if self.pinv[i] != usize::MAX {
                    continue;
                }
                let v = self.work[i].mag();
                if v > piv_abs || (v == piv_abs && i < piv) {
                    piv_abs = v;
                    piv = i;
                }
            }
            if piv == usize::MAX || !(piv_abs > PIVOT_EPS) {
                // Leave the accumulator clean for the next attempt.
                for &i in &self.pattern {
                    self.work[i] = T::ZERO;
                }
                return Err(FactorError::Singular { pivot: k });
            }
            let inv = self.work[piv].recip();
            self.inv_diag[k] = inv;
            self.p[k] = piv;
            self.pinv[piv] = k;
            for &i in &self.pattern {
                if i != piv && self.pinv[i] == usize::MAX {
                    self.l_rows.push(i as u32);
                    self.l_vals.push(self.work[i] * inv);
                }
            }
            self.l_colptr.push(self.l_rows.len());
            for &i in &self.pattern {
                self.work[i] = T::ZERO;
            }
        }
        self.mark_dependent();
        self.factored = true;
        Ok(())
    }

    /// Sets which columns of `A` may change between refactorizations
    /// (`may_change[c]`, indexed by column), for
    /// [`SparseLuT::refactor_dependent_into`]. A mask whose length is not
    /// the factored dimension marks every column. Rebuilds the dependent
    /// steps of a stored recording at once; later factorizations rebuild
    /// them from the same mask.
    pub fn set_column_mask(&mut self, may_change: &[bool]) {
        self.may_change.clear();
        self.may_change.extend_from_slice(may_change);
        if self.u_colptr.len() == self.n + 1 {
            self.mark_dependent();
        }
    }

    /// The dependent steps of the stored recording, ascending: those whose
    /// column may change under [`SparseLuT::set_column_mask`], and, by
    /// closure, those whose U column reads a dependent step.
    pub fn dependent_steps(&self) -> &[u32] {
        &self.dependent
    }

    /// The recorded pattern of step `k`: the column of `A` it factors and
    /// the pivotal steps of its U entries, ascending.
    ///
    /// # Panics
    ///
    /// Panics if no complete recording holds step `k`.
    pub fn step_pattern(&self, k: usize) -> (usize, &[u32]) {
        (
            self.q[k],
            &self.u_rows[self.u_colptr[k]..self.u_colptr[k + 1]],
        )
    }

    /// The stored numeric factors: the `L` values, the `U` values (both in
    /// recording order) and the reciprocal pivots.
    pub fn factor_values(&self) -> (&[T], &[T], &[T]) {
        (&self.l_vals, &self.u_vals, &self.inv_diag)
    }

    /// Rebuilds the dependent-step list of a complete recording: one walk
    /// in ascending step order, since a U entry of step `k` reads a step
    /// before `k`.
    fn mark_dependent(&mut self) {
        let n = self.n;
        let all = self.may_change.len() != n;
        self.dependent.clear();
        for k in 0..n {
            let u = &self.u_rows[self.u_colptr[k]..self.u_colptr[k + 1]];
            if all
                || self.may_change[self.q[k]]
                || u.iter().any(|j| self.dependent.binary_search(j).is_ok())
            {
                self.dependent.push(k as u32);
            }
        }
    }

    /// Numeric refactorization on new values with the *same pattern*:
    /// replays the recorded elimination — fixed pivot sequence, fixed fill
    /// positions — with no pivot search and no reachability analysis, for
    /// every step. This is the refactorization whenever any column may
    /// have changed: the per-frequency-point kernel of the complex
    /// instantiation, and the first refactor after the caller restamped
    /// columns outside its [`SparseLuT::set_column_mask`].
    /// [`SparseLuT::refactor_dependent_into`] replays only the steps those
    /// columns reach. `a` must carry the factored pattern (only its values
    /// may differ).
    ///
    /// Both run the arithmetic of [`SparseLuT::factor`] per column:
    /// scatter `A(:, q[k])`, eliminate in ascending step order skipping
    /// zero multipliers, take the reciprocal pivot, scale `L`. So a replay
    /// on the values the factors came from reproduces them bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::Shape`] if no *completed* recorded
    /// factorization exists (never factored, or the last [`SparseLuT::
    /// factor`] failed partway) or `a` has a different dimension, and
    /// [`FactorError::Singular`] if a recorded pivot position collapses
    /// numerically (callers typically recover with a fresh
    /// [`SparseLuT::factor`]). After an error the previous numeric factors
    /// are invalid.
    pub fn refactor_into(&mut self, a: &CscT<T>) -> Result<(), FactorError> {
        self.replay(a, false)
    }

    /// [`SparseLuT::refactor_into`] restricted to the dependent steps
    /// ([`SparseLuT::dependent_steps`]): the per-Newton-iteration hot path,
    /// where only the columns in the mask change. Valid when every column
    /// outside the mask holds the values the stored factors were last
    /// computed from; a skipped step reads only skipped steps and an
    /// unchanged column, so it already holds the `L`, `U` and pivot a full
    /// replay would recompute, and the result is bit-identical to
    /// [`SparseLuT::refactor_into`] (errors included).
    ///
    /// # Errors
    ///
    /// As [`SparseLuT::refactor_into`].
    pub fn refactor_dependent_into(&mut self, a: &CscT<T>) -> Result<(), FactorError> {
        self.replay(a, true)
    }

    /// The replay behind both refactorizations: every step, or only the
    /// dependent ones.
    fn replay(&mut self, a: &CscT<T>, dependent_only: bool) -> Result<(), FactorError> {
        // A *complete* recording is required: after a failed `factor` the
        // column pointers stop at the singular step, so replaying them
        // would walk off the recorded pattern.
        if self.n != a.n || self.l_colptr.len() != a.n + 1 || self.u_colptr.len() != a.n + 1 {
            return Err(FactorError::Shape {
                rows: a.n,
                cols: self.n,
            });
        }
        self.factored = false;
        let SparseLuT {
            n,
            q,
            p,
            l_colptr,
            l_rows,
            l_vals,
            u_colptr,
            u_rows,
            u_orig,
            u_vals,
            inv_diag,
            dependent,
            work,
            ..
        } = self;
        let work = &mut work[..*n];
        let steps = if dependent_only { dependent.len() } else { *n };
        // `work` is all-zero on entry and every position a column touches
        // lies in its recorded pattern {U rows, pivot, L rows}, so zeroing
        // each entry as it is read leaves it all-zero again — no separate
        // clearing pass.
        for i in 0..steps {
            let k = if dependent_only {
                dependent[i] as usize
            } else {
                i
            };
            let col = q[k];
            let (a0, a1) = (a.col_ptr[col], a.col_ptr[col + 1]);
            for (&r, &v) in a.row_idx[a0..a1].iter().zip(&a.values[a0..a1]) {
                work[r] += v;
            }
            let (u0, u1) = (u_colptr[k], u_colptr[k + 1]);
            for ((&step, &r), uv) in u_rows[u0..u1]
                .iter()
                .zip(&u_orig[u0..u1])
                .zip(&mut u_vals[u0..u1])
            {
                let ux = std::mem::replace(&mut work[r as usize], T::ZERO);
                *uv = ux;
                if ux != T::ZERO {
                    let (s0, s1) = (l_colptr[step as usize], l_colptr[step as usize + 1]);
                    for (&lr, &lv) in l_rows[s0..s1].iter().zip(&l_vals[s0..s1]) {
                        work[lr as usize] -= ux * lv;
                    }
                }
            }
            let diag = std::mem::replace(&mut work[p[k]], T::ZERO);
            let (l0, l1) = (l_colptr[k], l_colptr[k + 1]);
            if !(diag.mag() > PIVOT_EPS) {
                // Leave the accumulator clean for the recovery factor.
                for &r in &l_rows[l0..l1] {
                    work[r as usize] = T::ZERO;
                }
                return Err(FactorError::Singular { pivot: k });
            }
            let inv = diag.recip();
            inv_diag[k] = inv;
            for (&r, lv) in l_rows[l0..l1].iter().zip(&mut l_vals[l0..l1]) {
                *lv = std::mem::replace(&mut work[r as usize], T::ZERO) * inv;
            }
        }
        self.factored = true;
        Ok(())
    }

    /// Solves `A·x = b` with the stored factors, writing into `x` (resized,
    /// reusing capacity). Allocation-free once buffers have capacity.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::Shape`] if no successful factorization is
    /// stored or `b.len()` differs from the factored dimension.
    pub fn solve_into(&mut self, b: &[T], x: &mut Vec<T>) -> Result<(), FactorError> {
        let n = self.n;
        if !self.factored || b.len() != n {
            return Err(FactorError::Shape {
                rows: b.len(),
                cols: n,
            });
        }
        let w = &mut self.work[..n];
        w.copy_from_slice(b);
        // Forward substitution with unit L: y[k] lives at w[p[k]].
        for (k, &pk) in self.p.iter().enumerate() {
            let (l0, l1) = (self.l_colptr[k], self.l_colptr[k + 1]);
            if l0 == l1 {
                continue;
            }
            let yk = w[pk];
            if yk != T::ZERO {
                for (&r, &lv) in self.l_rows[l0..l1].iter().zip(&self.l_vals[l0..l1]) {
                    w[r as usize] -= lv * yk;
                }
            }
        }
        // Back substitution with U (rows addressed by original index).
        // Step k finalizes w[p[k]] (later steps only touch rows pivotal
        // before k), so it goes straight to x[q[k]] — undoing the column
        // permutation — and its accumulator entry is cleared for the next
        // factor/refactor.
        x.resize(n, T::ZERO);
        for k in (0..n).rev() {
            let v = std::mem::replace(&mut w[self.p[k]], T::ZERO) * self.inv_diag[k];
            x[self.q[k]] = v;
            if v != T::ZERO {
                let (u0, u1) = (self.u_colptr[k], self.u_colptr[k + 1]);
                for (&r, &uv) in self.u_orig[u0..u1].iter().zip(&self.u_vals[u0..u1]) {
                    w[r as usize] -= uv * v;
                }
            }
        }
        Ok(())
    }

    /// Solves the *transposed* system `Aᵀ·y = b` with the stored factors —
    /// the adjoint solve of the noise analysis. With `A⁻¹ = Q U⁻¹ L⁻¹ P`
    /// (the permuted factorization recorded by [`SparseLuT::factor`]), the
    /// transpose inverse is `Pᵀ L⁻ᵀ U⁻ᵀ Qᵀ`: a forward substitution with
    /// `Uᵀ`, a back substitution with `Lᵀ`, both on the same factor
    /// storage. No transposed matrix is ever built.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::Shape`] if no successful factorization is
    /// stored or `b.len()` differs from the factored dimension.
    pub fn solve_transpose_into(&mut self, b: &[T], y: &mut Vec<T>) -> Result<(), FactorError> {
        let n = self.n;
        if !self.factored || b.len() != n {
            return Err(FactorError::Shape {
                rows: b.len(),
                cols: n,
            });
        }
        let w = &mut self.work[..n];
        // The accumulator is indexed by original row: c[k] lives at
        // w[p[k]], so U's `u_orig` and L's original rows address it
        // directly.
        // Forward substitution with Uᵀ (lower triangular in pivotal
        // coordinates): c[k] = (b[q[k]] − Σ U[j,k]·c[j]) / U[k,k].
        for k in 0..n {
            let mut s = b[self.q[k]];
            let (u0, u1) = (self.u_colptr[k], self.u_colptr[k + 1]);
            for (&r, &uv) in self.u_orig[u0..u1].iter().zip(&self.u_vals[u0..u1]) {
                s -= uv * w[r as usize];
            }
            w[self.p[k]] = s * self.inv_diag[k];
        }
        // Back substitution with Lᵀ (unit upper in pivotal coordinates):
        // L's column k holds original rows i with pivotal step pinv[i] > k.
        for k in (0..n).rev() {
            let pk = self.p[k];
            let mut s = w[pk];
            let (l0, l1) = (self.l_colptr[k], self.l_colptr[k + 1]);
            for (&r, &lv) in self.l_rows[l0..l1].iter().zip(&self.l_vals[l0..l1]) {
                s -= lv * w[r as usize];
            }
            w[pk] = s;
        }
        // y[p[k]] = c'[k] is already in place; hand it over and leave the
        // accumulator clean.
        y.clear();
        y.extend(w.iter_mut().map(|v| std::mem::replace(v, T::ZERO)));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        a.matvec(x)
            .iter()
            .zip(b)
            .map(|(ax, bb)| (ax - bb).abs())
            .fold(0.0, f64::max)
    }

    /// Deterministic pseudo-random tridiagonal-plus-arrow test matrix with
    /// the flavor of an MNA system (strong diagonal, sparse off-diagonals).
    fn mna_like(n: usize, salt: u64) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        let mut s = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f64 / 500.0 - 1.0
        };
        for i in 0..n {
            m[(i, i)] = 3.0 + next().abs();
            if i + 1 < n {
                m[(i, i + 1)] = next();
                m[(i + 1, i)] = next();
            }
            if i > 0 && i % 5 == 0 {
                m[(0, i)] = next();
                m[(i, 0)] = next();
            }
        }
        m
    }

    #[test]
    fn from_coordinates_builds_slot_map() {
        let coords = [(0, 0), (1, 1), (0, 0), (2, 1), (1, 1)];
        let (mut m, slots) = CscMatrix::from_coordinates(3, &coords);
        assert_eq!(m.nnz(), 3);
        assert_eq!(slots.len(), coords.len());
        // Duplicate coordinates share a slot.
        assert_eq!(slots[0], slots[2]);
        assert_eq!(slots[1], slots[4]);
        for &s in &slots {
            m.values_mut()[s as usize] += 1.0;
        }
        let d = m.to_dense();
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(2, 1)], 1.0);
    }

    #[test]
    fn factor_and_solve_matches_dense() {
        for n in [1usize, 2, 5, 17, 40] {
            let dense = mna_like(n, n as u64);
            let a = CscMatrix::from_dense(&dense);
            let mut lu = SparseLu::new();
            lu.factor(&a).unwrap();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin() + 1.0).collect();
            let mut x = Vec::new();
            lu.solve_into(&b, &mut x).unwrap();
            assert!(residual(&dense, &x, &b) < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn refactor_reuses_pattern_for_new_values() {
        let n = 23;
        let dense0 = mna_like(n, 7);
        let a0 = CscMatrix::from_dense(&dense0);
        let mut lu = SparseLu::new();
        lu.factor(&a0).unwrap();
        // Same pattern, shifted values.
        let mut a1 = a0.clone();
        for v in a1.values_mut() {
            *v = *v * 1.5 + if *v != 0.0 { 0.25 } else { 0.0 };
        }
        let dense1 = a1.to_dense();
        lu.refactor_into(&a1).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut x = Vec::new();
        lu.solve_into(&b, &mut x).unwrap();
        assert!(residual(&dense1, &x, &b) < 1e-9);
        // And the refactor agrees with a fresh dense solve to tight tol.
        let x_dense = crate::reference::solve(dense1.as_slice(), n, &b).unwrap();
        for (s, d) in x.iter().zip(&x_dense) {
            assert!((s - d).abs() <= 1e-10 * d.abs().max(1.0), "{s} vs {d}");
        }
    }

    #[test]
    fn solve_transpose_matches_dense_transpose_solve() {
        let n = 29;
        let dense = mna_like(n, 13);
        let a = CscMatrix::from_dense(&dense);
        let mut lu = SparseLu::new();
        lu.factor(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).sin() + 0.25).collect();
        let mut y = Vec::new();
        lu.solve_transpose_into(&b, &mut y).unwrap();
        // Residual of the transposed system: (Aᵀ y)_i = Σ_j a[j][i]·y[j].
        let r = (0..n)
            .map(|i| {
                let s: f64 = (0..n).map(|j| dense[(j, i)] * y[j]).sum();
                (s - b[i]).abs()
            })
            .fold(0.0, f64::max);
        assert!(r < 1e-9, "transpose residual {r}");
        // A forward solve still works afterwards (shared accumulator).
        let mut x = Vec::new();
        lu.solve_into(&b, &mut x).unwrap();
        assert!(residual(&dense, &x, &b) < 1e-9);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // MNA-style voltage-source block: zero on the branch diagonal.
        let dense = Matrix::from_rows(&[&[1e-3, 1.0], &[1.0, 0.0]]);
        let a = CscMatrix::from_dense(&dense);
        let mut lu = SparseLu::new();
        lu.factor(&a).unwrap();
        let mut x = Vec::new();
        lu.solve_into(&[0.0, 2.0], &mut x).unwrap();
        assert!(residual(&dense, &x, &[0.0, 2.0]) < 1e-12);
    }

    #[test]
    fn detects_structural_and_numerical_singularity() {
        // Empty column.
        let (a, _) = CscMatrix::from_coordinates(2, &[(0, 0), (1, 0)]);
        let mut lu = SparseLu::new();
        assert!(matches!(lu.factor(&a), Err(FactorError::Singular { .. })));
        // Numerically dependent rows.
        let dense = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let a = CscMatrix::from_dense(&dense);
        assert!(matches!(lu.factor(&a), Err(FactorError::Singular { .. })));
        // Refactor reports singularity when a pivot collapses to zero.
        let good = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        let mut a = CscMatrix::from_dense(&good);
        lu.factor(&a).unwrap();
        a.set_zero();
        assert!(matches!(
            lu.refactor_into(&a),
            Err(FactorError::Singular { .. })
        ));
        assert!(!lu.is_factored());
        assert!(lu.solve_into(&[1.0, 1.0], &mut Vec::new()).is_err());
    }

    #[test]
    fn refactor_after_failed_factor_errors_instead_of_panicking() {
        // factor() fails partway through a singular matrix; a subsequent
        // refactor on the incomplete recording must report Shape, not
        // panic, and a later successful factor restores the object.
        let singular = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[2.0, 4.0, 0.0], &[0.0, 0.0, 1.0]]);
        let a_bad = CscMatrix::from_dense(&singular);
        let mut lu = SparseLu::new();
        assert!(matches!(
            lu.factor(&a_bad),
            Err(FactorError::Singular { .. })
        ));
        assert!(matches!(
            lu.refactor_into(&a_bad),
            Err(FactorError::Shape { .. })
        ));
        let good = mna_like(3, 5);
        let a_good = CscMatrix::from_dense(&good);
        lu.factor(&a_good).unwrap();
        lu.refactor_into(&a_good).unwrap();
        let mut x = Vec::new();
        lu.solve_into(&[1.0, 2.0, 3.0], &mut x).unwrap();
        assert!(residual(&good, &x, &[1.0, 2.0, 3.0]) < 1e-9);
    }

    #[test]
    fn analyze_drops_the_recorded_elimination() {
        // Factor a 6×6 arrow matrix, then re-analyze for a tridiagonal
        // pattern: the arrow's recording must not be replayed under the
        // new order.
        let n = 6;
        let mut arrow = Matrix::zeros(n, n);
        let mut tridiag = Matrix::zeros(n, n);
        for i in 0..n {
            arrow[(i, i)] = 4.0;
            tridiag[(i, i)] = 3.0 + i as f64 * 0.25;
            if i > 0 {
                arrow[(0, i)] = 1.0;
                arrow[(i, 0)] = 1.0;
                tridiag[(i - 1, i)] = -1.0;
                tridiag[(i, i - 1)] = -0.5;
            }
        }
        let a = CscMatrix::from_dense(&tridiag);
        let mut lu = SparseLu::new();
        lu.factor(&CscMatrix::from_dense(&arrow)).unwrap();
        lu.analyze(&a);
        assert!(lu.dependent_steps().is_empty());
        assert!(matches!(
            lu.refactor_into(&a),
            Err(FactorError::Shape { .. })
        ));
        assert!(matches!(
            lu.refactor_dependent_into(&a),
            Err(FactorError::Shape { .. })
        ));
        lu.factor(&a).unwrap();
        let b = vec![1.0; n];
        let mut x = Vec::new();
        lu.solve_into(&b, &mut x).unwrap();
        assert!(residual(&tridiag, &x, &b) < 1e-12);
    }

    #[test]
    fn solve_rejects_bad_shapes() {
        let mut lu = SparseLu::new();
        assert!(lu.solve_into(&[1.0], &mut Vec::new()).is_err());
        assert!(lu.solve_transpose_into(&[1.0], &mut Vec::new()).is_err());
        let a = CscMatrix::from_dense(&Matrix::identity(3));
        lu.factor(&a).unwrap();
        assert!(lu.solve_into(&[1.0, 2.0], &mut Vec::new()).is_err());
        assert!(lu.solve_into(&[1.0, 2.0, 3.0], &mut Vec::new()).is_ok());
        // Refactor with a different dimension is a shape error.
        let b = CscMatrix::from_dense(&Matrix::identity(2));
        assert!(matches!(
            lu.refactor_into(&b),
            Err(FactorError::Shape { .. })
        ));
    }

    #[test]
    fn min_degree_order_is_a_permutation() {
        let dense = mna_like(31, 3);
        let a = CscMatrix::from_dense(&dense);
        let q = min_degree_order(&a);
        let mut seen = [false; 31];
        for &c in &q {
            assert!(!seen[c]);
            seen[c] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn ordering_reduces_fill_on_arrow_matrix() {
        // Arrow pointing the wrong way: natural order fills completely,
        // min-degree keeps it O(n).
        let n = 30;
        let mut dense = Matrix::zeros(n, n);
        for i in 0..n {
            dense[(i, i)] = 4.0;
            if i > 0 {
                dense[(0, i)] = 1.0;
                dense[(i, 0)] = 1.0;
            }
        }
        let a = CscMatrix::from_dense(&dense);
        let mut lu = SparseLu::new();
        lu.factor(&a).unwrap();
        assert!(
            lu.factor_nnz() <= a.nnz() + n,
            "fill {} for nnz {}",
            lu.factor_nnz(),
            a.nnz()
        );
        let b = vec![1.0; n];
        let mut x = Vec::new();
        lu.solve_into(&b, &mut x).unwrap();
        assert!(residual(&dense, &x, &b) < 1e-9);
    }

    #[test]
    fn factor_is_repeatable_and_reusable_across_sizes() {
        let mut lu = SparseLu::new();
        let mut x = Vec::new();
        for n in [4usize, 12, 6] {
            let dense = mna_like(n, 11);
            let a = CscMatrix::from_dense(&dense);
            lu.factor(&a).unwrap();
            let b = vec![1.0; n];
            lu.solve_into(&b, &mut x).unwrap();
            assert!(residual(&dense, &x, &b) < 1e-9, "n = {n}");
        }
    }

    /// Bit patterns of a scalar, for exact comparisons (`==` would equate
    /// `0.0` with `-0.0`).
    trait Bits: Scalar {
        fn bits(self) -> [u64; 2];
    }
    impl Bits for f64 {
        fn bits(self) -> [u64; 2] {
            [self.to_bits(), 0]
        }
    }
    impl Bits for crate::C64 {
        fn bits(self) -> [u64; 2] {
            [self.re.to_bits(), self.im.to_bits()]
        }
    }
    fn bits<T: Bits>(v: &[T]) -> Vec<[u64; 2]> {
        v.iter().map(|&x| x.bits()).collect()
    }

    /// The scalar replay as it was before the flat-array compilation:
    /// clear the column's recorded pattern, scatter, eliminate through
    /// `p[u_rows[t]]`, read L through the original rows. Kept verbatim
    /// as the bit-level reference for the compiled loops.
    fn reference_refactor<T: Scalar>(lu: &mut SparseLuT<T>, a: &CscT<T>) -> Result<(), usize> {
        let mut work = vec![T::ZERO; lu.n];
        for k in 0..lu.n {
            let col = lu.q[k];
            for t in lu.u_colptr[k]..lu.u_colptr[k + 1] {
                work[lu.p[lu.u_rows[t] as usize]] = T::ZERO;
            }
            work[lu.p[k]] = T::ZERO;
            for t in lu.l_colptr[k]..lu.l_colptr[k + 1] {
                work[lu.l_rows[t] as usize] = T::ZERO;
            }
            for t in a.col_ptr[col]..a.col_ptr[col + 1] {
                work[a.row_idx[t]] += a.values[t];
            }
            for t in lu.u_colptr[k]..lu.u_colptr[k + 1] {
                let step = lu.u_rows[t] as usize;
                let ux = work[lu.p[step]];
                lu.u_vals[t] = ux;
                if ux != T::ZERO {
                    for s in lu.l_colptr[step]..lu.l_colptr[step + 1] {
                        work[lu.l_rows[s] as usize] -= ux * lu.l_vals[s];
                    }
                }
            }
            let diag = work[lu.p[k]];
            if !(diag.mag() > PIVOT_EPS) {
                return Err(k);
            }
            let inv = diag.recip();
            lu.inv_diag[k] = inv;
            for t in lu.l_colptr[k]..lu.l_colptr[k + 1] {
                lu.l_vals[t] = work[lu.l_rows[t] as usize] * inv;
            }
        }
        Ok(())
    }

    /// Pre-compilation `solve_into`, verbatim (pivotal-position U rows).
    fn reference_solve<T: Scalar>(lu: &SparseLuT<T>, b: &[T]) -> Vec<T> {
        let n = lu.n;
        let mut w = b.to_vec();
        for k in 0..n {
            let yk = w[lu.p[k]];
            if yk != T::ZERO {
                for t in lu.l_colptr[k]..lu.l_colptr[k + 1] {
                    w[lu.l_rows[t] as usize] -= lu.l_vals[t] * yk;
                }
            }
        }
        for k in (0..n).rev() {
            let v = w[lu.p[k]] * lu.inv_diag[k];
            w[lu.p[k]] = v;
            if v != T::ZERO {
                for t in lu.u_colptr[k]..lu.u_colptr[k + 1] {
                    w[lu.p[lu.u_rows[t] as usize]] -= lu.u_vals[t] * v;
                }
            }
        }
        let mut x = vec![T::ZERO; n];
        for k in 0..n {
            x[lu.q[k]] = w[lu.p[k]];
        }
        x
    }

    /// Pre-compilation `solve_transpose_into`, verbatim (accumulator in
    /// pivotal coordinates, L rows mapped through `pinv`).
    fn reference_solve_transpose<T: Scalar>(lu: &SparseLuT<T>, b: &[T]) -> Vec<T> {
        let n = lu.n;
        let mut w = vec![T::ZERO; n];
        for k in 0..n {
            let mut s = b[lu.q[k]];
            for t in lu.u_colptr[k]..lu.u_colptr[k + 1] {
                s -= lu.u_vals[t] * w[lu.u_rows[t] as usize];
            }
            w[k] = s * lu.inv_diag[k];
        }
        for k in (0..n).rev() {
            let mut s = w[k];
            for t in lu.l_colptr[k]..lu.l_colptr[k + 1] {
                s -= lu.l_vals[t] * w[lu.pinv[lu.l_rows[t] as usize]];
            }
            w[k] = s;
        }
        let mut y = vec![T::ZERO; n];
        for k in 0..n {
            y[lu.p[k]] = w[k];
        }
        y
    }

    /// An MNA-shaped system from a seed stream: `nodes` node rows with a
    /// grounded conductance each, random two-terminal conductances and
    /// small VCCS couplings between node pairs, and `branches` voltage
    /// sources (zero branch diagonal, so the factorization must pivot off
    /// the diagonal). `val(g, k)` turns a real stamp value into the
    /// element type (`k` = seed index for an imaginary part).
    fn mna_system<T: Scalar>(
        nodes: usize,
        branches: usize,
        seed: &[f64],
        val: impl Fn(f64, usize) -> T,
    ) -> CscT<T> {
        let n = nodes + branches;
        let mut writes: Vec<((usize, usize), T)> = Vec::new();
        let mut k = 0usize;
        let mut next = || {
            k += 1;
            (seed[k % seed.len()], k)
        };
        for i in 0..nodes {
            let (s, j) = next();
            writes.push(((i, i), val(1.0 + s.abs(), j)));
        }
        for _ in 0..2 * nodes {
            let (sa, _) = next();
            let (sb, _) = next();
            let (sg, j) = next();
            let a = (sa.abs() * 1e6) as usize % nodes;
            let b = (sb.abs() * 1e6) as usize % nodes;
            if a == b {
                continue;
            }
            let g = 0.1 + sg.abs();
            writes.push(((a, a), val(g, j)));
            writes.push(((b, b), val(g, j)));
            writes.push(((a, b), val(-g, j)));
            writes.push(((b, a), val(-g, j)));
            if sg < -0.5 {
                // A VCCS: one unsymmetric entry.
                writes.push(((b, a), val(0.05 * sg, j + 1)));
            }
        }
        for br in 0..branches {
            let node = br % nodes;
            writes.push(((node, nodes + br), T::ONE));
            writes.push(((nodes + br, node), T::ONE));
        }
        let coords: Vec<(usize, usize)> = writes.iter().map(|&(c, _)| c).collect();
        let (mut a, slots) = CscT::<T>::from_coordinates(n, &coords);
        for (&(_, v), &slot) in writes.iter().zip(&slots) {
            a.values_mut()[slot as usize] += v;
        }
        a
    }

    /// The flat-replay contract on one system: refactoring
    /// the factored values reproduces the fresh factor bit for bit; a
    /// refactor on perturbed values and both solves match the
    /// pre-compilation loops bit for bit; a pivot collapse mid-replay
    /// leaves the accumulator clean.
    fn check_flat_replay<T: Bits>(a: &CscT<T>, a1: &CscT<T>, b: &[T]) {
        let mut lu = SparseLuT::<T>::new();
        lu.factor(a).expect("MNA test systems are non-singular");
        assert!(lu.work.iter().all(|&v| v == T::ZERO));
        let fresh = (bits(&lu.l_vals), bits(&lu.u_vals), bits(&lu.inv_diag));
        lu.refactor_into(a).unwrap();
        assert_eq!(
            (bits(&lu.l_vals), bits(&lu.u_vals), bits(&lu.inv_diag)),
            fresh
        );

        let mut reference = lu.clone();
        let ref_ok = reference_refactor(&mut reference, a1);
        let ok = lu.refactor_into(a1);
        assert_eq!(ok.is_ok(), ref_ok.is_ok());
        if ok.is_err() {
            return;
        }
        assert_eq!(bits(&lu.l_vals), bits(&reference.l_vals));
        assert_eq!(bits(&lu.u_vals), bits(&reference.u_vals));
        assert_eq!(bits(&lu.inv_diag), bits(&reference.inv_diag));
        assert!(lu.work.iter().all(|&v| v == T::ZERO));

        let (mut x, mut y) = (Vec::new(), Vec::new());
        lu.solve_into(b, &mut x).unwrap();
        assert_eq!(bits(&x), bits(&reference_solve(&reference, b)));
        lu.solve_transpose_into(b, &mut y).unwrap();
        assert_eq!(bits(&y), bits(&reference_solve_transpose(&reference, b)));
        assert!(lu.work.iter().all(|&v| v == T::ZERO));

        // Pivot collapse with live L entries: keep column q[k]'s values
        // only on rows pivotal after step k. Every U multiplier of that
        // column is then exactly zero, so the pivot is exactly zero while
        // the L positions hold nonzero values when the replay bails out.
        let pick = (0..lu.n).find(|&k| {
            let col = lu.q[k];
            (a1.col_ptr[col]..a1.col_ptr[col + 1])
                .any(|t| lu.pinv[a1.row_idx[t]] > k && a1.values[t] != T::ZERO)
        });
        if let Some(k) = pick {
            let col = lu.q[k];
            let mut bad = a1.clone();
            for t in bad.col_ptr[col]..bad.col_ptr[col + 1] {
                if lu.pinv[bad.row_idx[t]] <= k {
                    bad.values[t] = T::ZERO;
                }
            }
            assert!(matches!(
                lu.refactor_into(&bad),
                Err(FactorError::Singular { pivot }) if pivot == k
            ));
            assert!(lu.work.iter().all(|&v| v == T::ZERO));
            // A clean accumulator makes the next replay exact again.
            lu.refactor_into(a1).unwrap();
            lu.solve_into(b, &mut x).unwrap();
            assert_eq!(bits(&x), bits(&reference_solve(&reference, b)));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        #[test]
        fn flat_replay_is_bit_identical_to_reference_loops(
            nodes in 2usize..40,
            branches in 0usize..4,
            seed in proptest::collection::vec(-1.0..1.0f64, 16..200),
            shift in proptest::collection::vec(-0.3..0.3f64, 8..64),
        ) {
            let branches = branches.min(nodes);
            let n = nodes + branches;
            let rhs: Vec<f64> = (0..n).map(|i| seed[(3 * i + 1) % seed.len()] * 4.0).collect();

            let real = |g: f64, _k: usize| g;
            let a = mna_system(nodes, branches, &seed, real);
            let mut a1 = a.clone();
            for (k, v) in a1.values_mut().iter_mut().enumerate() {
                *v *= 1.0 + shift[k % shift.len()];
            }
            check_flat_replay(&a, &a1, &rhs);

            let cplx = |g: f64, k: usize| crate::C64::new(g, 0.3 * seed[(k * 7) % seed.len()]);
            let ac = mna_system(nodes, branches, &seed, cplx);
            let mut ac1 = ac.clone();
            for (k, v) in ac1.values_mut().iter_mut().enumerate() {
                v.im *= 1.0 + 3.0 * shift[k % shift.len()];
            }
            let crhs: Vec<crate::C64> =
                rhs.iter().map(|&r| crate::C64::new(r, 0.5 * r)).collect();
            check_flat_replay(&ac, &ac1, &crhs);
        }
    }

    #[test]
    fn swap_values_roundtrip() {
        let dense = mna_like(9, 2);
        let mut a = CscMatrix::from_dense(&dense);
        let mut stash = vec![0.0; a.nnz()];
        a.swap_values(&mut stash);
        assert!(a.values().iter().all(|&v| v == 0.0));
        a.swap_values(&mut stash);
        assert_eq!(a.to_dense(), dense);
    }
}
