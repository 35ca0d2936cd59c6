//! Process-wide thread budget for the evaluation grid.
//!
//! The budget sizes one parallel layer: the candidate×corner×analysis
//! evaluation grid in `opt::parallel`, which opens its own scoped threads
//! per batch. Every kernel below a grid unit — the sparse LU replays of
//! the simulator, the GEMM behind critic and actor training — runs serial
//! on whichever thread calls it, so the process never oversubscribes the
//! host and the grid owns every core.
//!
//! The budget comes from [`max_threads`]: a programmatic
//! [`set_max_threads`] override if set, else the `DNNOPT_THREADS`
//! environment variable, else the machine's available parallelism. `1`
//! forces fully serial execution.

use std::sync::atomic::{AtomicUsize, Ordering};

/// 0 = "not set, use the environment/hardware default".
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the process-wide thread budget of the evaluation grid. `1`
/// forces fully serial execution; `0` restores the default
/// (`DNNOPT_THREADS`, else available parallelism).
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// The thread budget currently in effect: [`set_max_threads`] if set, else
/// the `DNNOPT_THREADS` environment variable, else the machine's available
/// parallelism.
pub fn max_threads() -> usize {
    let forced = MAX_THREADS.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Some(n) = std::env::var("DNNOPT_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if n > 0 {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
