//! Dense linear-algebra kernels for the DNN-Opt reproduction.
//!
//! Everything here is written from scratch on top of `Vec<f64>` so that the
//! workspace carries no external numeric dependencies. The crate provides
//! exactly the operations the rest of the system needs:
//!
//! - [`Matrix`]: a row-major dense matrix with the usual arithmetic,
//!   used by the neural-network and Gaussian-process crates.
//! - [`gemm`] / [`gemm_with`]: a cache-blocked, register-tiled GEMM engine
//!   covering all `op(A)·op(B)` shapes with packed panels held in a
//!   reusable [`GemmWorkspace`] and fused output epilogues — the training
//!   kernel behind the DNN-Opt critic/actor networks. On AVX-512 hosts
//!   the MLP-sized products take an unpacked register-tiled small path,
//!   bit-identical to the blocked kernel. Every product runs serially on
//!   the calling thread.
//! - [`pool`]: the process-wide worker pool behind the optimizer's
//!   population grid, sized by `DNNOPT_THREADS` /
//!   [`pool::set_max_threads`]. It is the only parallel layer: every
//!   kernel in this crate runs serially inside a grid worker.
//! - [`LuT`]: dense LU with partial pivoting, written once over [`Scalar`]
//!   in reusable storage — [`Lu`] for the real MNA systems of the circuit
//!   simulator's Newton loop, [`ComplexLu`] for the AC/noise dense
//!   fallback (with the transpose solve of the noise adjoint).
//! - [`CscMatrix`] and [`SparseLu`]: KLU-style sparse LU with a recorded
//!   elimination pattern — one symbolic analysis per topology, a scan-free
//!   [`SparseLu::refactor_into`] per Newton iteration. The simulator
//!   auto-selects this path for sparse MNA systems. The whole sparse
//!   pipeline is one generic implementation over [`Scalar`]
//!   ([`CscT`]/[`SparseLuT`]), monomorphized for `f64` and [`C64`], with
//!   one numeric path: the scalar Gilbert–Peierls replay over flat
//!   recorded index arrays.
//! - [`Cholesky`]: factorization of symmetric positive-definite matrices in
//!   reusable storage, used by Gaussian-process regression (with jitter
//!   escalation and log-determinants for the marginal likelihood).
//! - [`C64`]: minimal complex arithmetic for AC small-signal analysis.
//! - [`CscComplexMatrix`] and [`SparseComplexLu`]: the complex mirror of
//!   the sparse pipeline for the frequency-domain MNA systems `G + jωC`,
//!   with a transpose solve for the noise analysis' adjoint system. The
//!   simulator auto-selects this path for sparse AC systems.
//!
//! # Example
//!
//! ```
//! use linalg::{Lu, Matrix};
//!
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let mut lu = Lu::new(2);
//! lu.factor(a.as_slice(), 2).expect("non-singular");
//! let mut x = Vec::new();
//! lu.solve_into(&[1.0, 2.0], &mut x).unwrap();
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! assert!((x[0] + 3.0 * x[1] - 2.0).abs() < 1e-12);
//! ```

mod cholesky;
mod complex;
mod gemm;
mod lu;
mod matrix;
pub mod pool;
mod scalar;
mod sparse;
mod sparse_complex;
pub mod vecops;

pub use cholesky::Cholesky;
pub use complex::C64;
pub use gemm::{
    gemm, gemm_naive, gemm_naive_with, gemm_with, Epilogue, GemmOp, GemmWorkspace, NoEpilogue,
    GEMM_NAIVE_CUTOFF, GEMM_SMALL_MAX_K, GEMM_SMALL_MAX_N,
};
pub use lu::{ComplexLu, Lu, LuT};
pub use matrix::Matrix;
pub use scalar::Scalar;
pub use sparse::{CscMatrix, CscT, SparseLu, SparseLuT};
pub use sparse_complex::{CscComplexMatrix, SparseComplexLu};

/// Error produced by factorizations when the input matrix is unusable.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorError {
    /// The matrix is singular (or numerically so) at the given pivot index.
    Singular { pivot: usize },
    /// The matrix is not positive definite (Cholesky only); the leading
    /// minor of the given order failed.
    NotPositiveDefinite { order: usize },
    /// The matrix is not square or dimensions disagree.
    Shape { rows: usize, cols: usize },
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot {pivot}")
            }
            FactorError::NotPositiveDefinite { order } => {
                write!(f, "matrix is not positive definite (leading minor {order})")
            }
            FactorError::Shape { rows, cols } => {
                write!(
                    f,
                    "matrix shape {rows}x{cols} is invalid for this operation"
                )
            }
        }
    }
}

impl std::error::Error for FactorError {}
