//! Process-wide worker pool for the evaluation grid.
//!
//! The pool serves one parallel layer: the candidate×corner×analysis
//! evaluation grid in `opt::parallel`. Every kernel below a grid unit —
//! the sparse replays, the dense LU, the GEMM behind critic and actor
//! training — runs serial on whichever thread calls it, so the process
//! never oversubscribes the host and the grid owns every core.
//!
//! The thread budget comes from [`max_threads`]: a programmatic
//! [`set_max_threads`] override if set, else the `DNNOPT_THREADS`
//! environment variable, else the machine's available parallelism. `1`
//! forces fully serial execution.
//!
//! # Determinism
//!
//! The pool provides *workers*, not scheduling decisions: [`run`] invokes
//! `task(slot)` for every slot in `0..threads` exactly once, with slot 0
//! on the calling thread. How work maps to slots is decided entirely by
//! the caller as a pure function of (work size, thread count) — there is
//! no queue and no stealing — so callers that partition work
//! deterministically stay bit-identical at any thread count.
//!
//! Workers are spawned lazily up to the largest slot count ever requested
//! and then persist for the life of the process, parked on a condvar
//! between jobs, so repeated dispatches (one per evaluated batch) pay no
//! thread spawn/join.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// 0 = "not set, use the environment/hardware default".
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True on pool worker threads and on a caller while it runs slot 0 of
    /// a dispatched job: any nested [`run`] must degrade to inline serial
    /// execution instead of deadlocking on (or oversubscribing) the pool.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

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

/// One pending dispatch: a lifetime-erased borrow of the caller's task
/// plus the slot count. The borrow stays valid because [`run`] does not
/// return until every participating worker has finished with it.
#[derive(Clone, Copy)]
struct Job {
    task: &'static (dyn Fn(usize) + Sync),
    threads: usize,
    /// Telemetry timestamp of the dispatch (0 when tracing is off):
    /// workers subtract it from their pick-up time to histogram the
    /// pool's dispatch latency.
    posted_ns: u64,
}

struct PoolState {
    job: Option<Job>,
    /// Bumped once per job so parked workers can tell a fresh job from the
    /// one they just finished.
    epoch: u64,
    /// Participating workers (slots `1..threads`) still running.
    remaining: usize,
    /// Worker threads spawned so far; worker `i` serves slot `i` (slot 0
    /// is always the caller).
    spawned: usize,
    /// First panic message captured from a worker, if any.
    panic: Option<String>,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Signals workers that a new job was posted.
    work: Condvar,
    /// Signals callers that a job drained (all participants finished).
    done: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            job: None,
            epoch: 0,
            remaining: 0,
            spawned: 0,
            panic: None,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
    })
}

fn worker_loop(id: usize) {
    IN_POOL.with(|c| c.set(true));
    // Stable telemetry identity: this worker's counters land in shard
    // `id` and its span events carry `tid = id` (the caller is slot 0).
    telemetry::set_thread_slot(id);
    let pool = pool();
    let mut seen_epoch = 0u64;
    loop {
        let mut st = pool.state.lock().unwrap();
        while st.job.is_none() || st.epoch == seen_epoch {
            st = pool.work.wait(st).unwrap();
        }
        seen_epoch = st.epoch;
        let job = *st.job.as_ref().unwrap();
        drop(st);
        if id >= job.threads {
            // Not a participant this job: park again until the next epoch.
            continue;
        }
        // The task's `'static` is a lie told by `run`, which keeps the
        // real borrow alive until `remaining` hits zero — and that cannot
        // happen before this participant decrements it below.
        let task = job.task;
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _busy = time_slot(job.posted_ns);
            task(id)
        }));
        let mut st = pool.state.lock().unwrap();
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(panic_text(payload.as_ref()));
            }
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            pool.done.notify_all();
        }
    }
}

/// Telemetry guard around one slot's share of a dispatched job: records
/// the dispatch latency on pick-up (workers only — the caller never
/// waited) and the slot's busy time plus a `pool_job` span on drop. Costs
/// one gate check when tracing is off.
fn time_slot(posted_ns: u64) -> SlotTimer {
    if !telemetry::enabled() {
        return SlotTimer {
            _span: None,
            start_ns: 0,
        };
    }
    let now = telemetry::clock_ns();
    if posted_ns > 0 {
        telemetry::record(
            telemetry::Metric::PoolDispatchNs,
            now.saturating_sub(posted_ns),
        );
    }
    SlotTimer {
        _span: Some(telemetry::span(telemetry::SpanId::PoolJob)),
        start_ns: now,
    }
}

struct SlotTimer {
    _span: Option<telemetry::Span>,
    start_ns: u64,
}

impl Drop for SlotTimer {
    fn drop(&mut self) {
        if self._span.is_some() {
            telemetry::record(
                telemetry::Metric::PoolBusyNs,
                telemetry::clock_ns().saturating_sub(self.start_ns),
            );
        }
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `task(slot)` exactly once for every `slot in 0..threads`: slot 0
/// on the calling thread, slots `1..threads` on pool workers. Returns
/// after every slot has finished.
///
/// With `threads <= 1`, from inside a pool worker, or from a caller
/// already running a dispatched slot 0, the slots run inline on the
/// current thread — nested parallelism degrades to serial instead of
/// deadlocking.
///
/// # Panics
///
/// A panic in any slot is re-raised here after all slots finish (the
/// caller's own slot-0 panic takes precedence over worker panics), so a
/// panicking task never leaves the pool wedged.
pub fn run(threads: usize, task: &(dyn Fn(usize) + Sync)) {
    if threads <= 1 || IN_POOL.with(|c| c.get()) {
        for slot in 0..threads.max(1) {
            task(slot);
        }
        return;
    }
    let pool = pool();
    let mut st = pool.state.lock().unwrap();
    // Serialize dispatches: wait until any previous job fully drains.
    while st.job.is_some() {
        st = pool.done.wait(st).unwrap();
    }
    while st.spawned < threads - 1 {
        let id = st.spawned + 1;
        std::thread::Builder::new()
            .name(format!("dnnopt-pool-{id}"))
            .spawn(move || worker_loop(id))
            .expect("failed to spawn pool worker");
        st.spawned += 1;
    }
    // SAFETY: only erases the task's lifetime; `run` blocks below until
    // every participating worker is done using the borrow.
    let task_static: &'static (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
    };
    st.job = Some(Job {
        task: task_static,
        threads,
        posted_ns: if telemetry::enabled() {
            telemetry::clock_ns()
        } else {
            0
        },
    });
    st.epoch += 1;
    st.remaining = threads - 1;
    st.panic = None;
    drop(st);
    pool.work.notify_all();

    // The caller is slot 0. Mark it in-pool so a nested dispatch from
    // inside a task runs inline.
    IN_POOL.with(|c| c.set(true));
    let own = catch_unwind(AssertUnwindSafe(|| {
        let _busy = time_slot(0);
        task(0)
    }));
    IN_POOL.with(|c| c.set(false));

    let mut st = pool.state.lock().unwrap();
    while st.remaining > 0 {
        st = pool.done.wait(st).unwrap();
    }
    st.job = None;
    let worker_panic = st.panic.take();
    drop(st);
    // Wake any other caller parked in the drain loop above.
    pool.done.notify_all();

    if let Err(payload) = own {
        resume_unwind(payload);
    }
    if let Some(msg) = worker_panic {
        panic!("pool worker panicked: {msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_slot_exactly_once() {
        for threads in [1usize, 2, 3, 7] {
            let hits: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
            run(threads, &|slot| {
                hits[slot].fetch_add(1, Ordering::Relaxed);
            });
            for (slot, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "slot {slot} of {threads}");
            }
        }
    }

    #[test]
    fn repeated_dispatches_reuse_workers() {
        let total = AtomicU64::new(0);
        for _ in 0..50 {
            run(4, &|slot| {
                total.fetch_add(slot as u64 + 1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 50 * (1 + 2 + 3 + 4));
    }

    #[test]
    fn nested_run_degrades_to_inline_serial() {
        let inner_hits = AtomicUsize::new(0);
        run(3, &|_slot| {
            // From inside a job every thread is in-pool, so this must run
            // inline rather than re-entering the pool.
            run(4, &|_| {
                inner_hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(inner_hits.load(Ordering::Relaxed), 3 * 4);
    }

    #[test]
    fn worker_panic_is_reraised_and_pool_survives() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run(3, &|slot| {
                if slot == 2 {
                    panic!("slot 2 exploded");
                }
            });
        }));
        let msg = panic_text(caught.unwrap_err().as_ref());
        assert!(msg.contains("slot 2 exploded"), "got {msg:?}");
        // The pool must still be usable after a panicking job.
        let hits = AtomicUsize::new(0);
        run(3, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }
}
