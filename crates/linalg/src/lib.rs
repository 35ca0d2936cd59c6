//! Dense linear-algebra kernels for the DNN-Opt reproduction.
//!
//! Everything here is written from scratch on top of `Vec<f64>` so that the
//! workspace carries no external numeric dependencies. The crate provides
//! exactly the operations the rest of the system needs:
//!
//! - [`Matrix`]: a row-major dense matrix with the usual arithmetic,
//!   used by the neural-network and Gaussian-process crates.
//! - [`gemm`] / [`gemm_with`]: a register-tiled GEMM engine covering all
//!   `op(A)·op(B)` shapes, with the `op(B)` panel held in a reusable
//!   [`GemmWorkspace`] and fused output epilogues — the training kernel
//!   behind the DNN-Opt critic/actor networks. One set of tile loops runs
//!   every product on an AVX-512F, AVX2+FMA or portable lane backend
//!   chosen from CPU detection; results are bit-identical across x86-64
//!   hosts with FMA. Every product runs serially on the calling thread.
//! - [`pool`]: the process-wide worker pool behind the optimizer's
//!   population grid, sized by `DNNOPT_THREADS` /
//!   [`pool::set_max_threads`]. It is the only parallel layer: every
//!   kernel in this crate runs serially inside a grid worker.
//! - [`CscMatrix`] and [`SparseLu`]: KLU-style sparse LU with a recorded
//!   elimination pattern — one symbolic analysis per topology, then per
//!   Newton iteration a scan-free [`SparseLu::refactor_dependent_into`]
//!   that replays only the steps the caller's "may change" columns reach
//!   (the MOSFET columns), or [`SparseLu::refactor_into`] over every step
//!   after other columns changed. The simulator solves every MNA system
//!   on this path. The whole sparse
//!   pipeline is one generic implementation over [`Scalar`]
//!   ([`CscT`]/[`SparseLuT`]), monomorphized for `f64` and [`C64`], with
//!   one numeric path: the scalar Gilbert–Peierls replay over flat
//!   recorded index arrays.
//! - [`Cholesky`]: factorization of symmetric positive-definite matrices in
//!   reusable storage, used by Gaussian-process regression (with jitter
//!   escalation and log-determinants for the marginal likelihood).
//! - [`reference`](mod@reference): a textbook dense Gaussian elimination over
//!   [`Scalar`] (`solve` and `det`), the independent oracle the sparse
//!   path is tested against. No solver path calls it.
//! - [`C64`]: minimal complex arithmetic for AC small-signal analysis.
//! - [`CscComplexMatrix`] and [`SparseComplexLu`]: the [`C64`] instances
//!   of the same generic sparse pipeline, for the frequency-domain MNA
//!   systems `G + jωC`, with a transpose solve for the noise analysis'
//!   adjoint system. The simulator solves every AC/noise point on this
//!   path.

mod cholesky;
mod complex;
mod gemm;
mod matrix;
pub mod pool;
pub mod reference;
mod scalar;
mod sparse;
mod sparse_complex;
pub mod vecops;

pub use cholesky::Cholesky;
pub use complex::C64;
pub use gemm::{
    gemm, gemm_naive, gemm_naive_with, gemm_with, Epilogue, GemmOp, GemmWorkspace, NoEpilogue,
};
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
