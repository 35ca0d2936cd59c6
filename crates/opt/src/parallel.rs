//! Deterministic data parallelism for population evaluation.
//!
//! Optimizers evaluate candidate populations through
//! [`crate::Evaluator::evaluate_batch`], which fans the expensive
//! simulations out over the process-wide worker pool ([`linalg::pool`])
//! via [`par_map`]. Parallelism changes **wall-clock time only**, never
//! results:
//!
//! - candidates are generated *before* evaluation (with per-candidate
//!   seeded RNGs where generation is stochastic, see [`candidate_seed`]),
//! - work units are assigned to workers by a fixed round-robin rule
//!   (worker `t` of `T` owns units `t, t + T, t + 2T, …` — a pure
//!   function of unit index and thread count, with no queue and no
//!   stealing) and results are reassembled in input order, so the output
//!   vector is independent of thread count and scheduling,
//! - evaluations are recorded into the history in the original candidate
//!   order.
//!
//! Round-robin (rather than contiguous-chunk) assignment keeps workers
//! balanced on hierarchical unit grids: a candidate's corner × analysis
//! units land on different workers instead of one worker owning all the
//! expensive units of one candidate.
//!
//! The worker count defaults to the machine's available parallelism,
//! clamped by the `DNNOPT_THREADS` environment variable and overridable
//! programmatically with [`set_max_threads`] (used by the determinism
//! tests to compare serial and parallel runs). This grid is the
//! workspace's only parallel layer: the kernels a unit runs — sparse and
//! dense solves, GEMM — are serial, so a fan-out never oversubscribes the
//! host.
//!
//! [`par_map_with`] additionally gives every worker thread a private
//! context that lives for its whole share of the batch.
//! [`crate::Evaluator::evaluate_batch`] uses it for per-worker timing
//! accumulators, and the circuit testbenches compose with it
//! transparently: each `evaluate` leases simulator workspaces from
//! `spice`'s topology-keyed pool, so a worker evaluating its share of
//! candidates reuses the same recorded solver state (stamp→slot maps,
//! sparse patterns, factor storage) across all of them — per-thread while
//! a batch is in flight, shared across batches afterwards — without ever
//! affecting results (enforced by `tests/parallel_determinism.rs`).

// The budget lives in `linalg::pool` beside the workers it sizes;
// re-exported here because the optimizer-facing API has always been
// `opt::parallel::{set_max_threads, max_threads}`.
pub use linalg::pool::{max_threads, set_max_threads};

/// Mixes a run seed, a round index, and a candidate index into an
/// independent per-candidate RNG seed (SplitMix64 finalizer). Candidate
/// generation seeded this way is identical no matter how work is split
/// across threads — the keystone of bit-identical parallel evaluation.
pub fn candidate_seed(seed: u64, round: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(round.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Applies `f` to every item, in parallel when it pays off, returning the
/// results **in input order**. Items are dealt round-robin: worker `t` of
/// `T` maps items `t, t + T, t + 2T, …`, so `f` must be pure with respect
/// to ordering (it sees only its item).
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_with(items, || (), |(), item| f(item)).0
}

/// Like [`par_map`], but with **worker-local state**: every worker thread
/// builds one context via `init` and threads it through all its items —
/// the hook for expensive per-thread resources (scratch buffers, counters,
/// leased simulator workspaces) that should be reused *across candidates*
/// instead of being rebuilt per evaluation. Returns the in-order results
/// plus every worker's final context (serial path: exactly one context).
///
/// Determinism contract: `f`'s *result* must not depend on the context's
/// contents — contexts may only carry caches and accumulators — because
/// which items share a context depends on the thread count.
pub fn par_map_with<T, U, C, Init, F>(items: &[T], init: Init, f: F) -> (Vec<U>, Vec<C>)
where
    T: Sync,
    U: Send,
    C: Send,
    Init: Fn() -> C + Sync,
    F: Fn(&mut C, &T) -> U + Sync,
{
    let (out, ctxs) = try_par_map_with(items, init, |ctx, item| f(ctx, item));
    let unwrapped = out
        .into_iter()
        .map(|r| match r {
            Ok(u) => u,
            Err(msg) => panic!("population evaluation worker panicked: {msg}"),
        })
        .collect();
    (unwrapped, ctxs)
}

/// Extracts a readable message from a caught panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Panic-isolating [`par_map_with`]: each item is mapped inside
/// `catch_unwind`, so one panicking candidate yields one `Err(message)`
/// slot while the rest of the batch completes normally — in input order,
/// bit-identical between the serial and parallel paths (both catch per
/// item). The batch evaluator converts the `Err` slots into failed
/// outcomes so a panicking testbench degrades to a diagnosed failure
/// instead of killing the whole optimization.
///
/// A worker whose context is poisoned by the panic simply keeps going:
/// contexts hold only caches/accumulators (see the determinism contract
/// on [`par_map_with`]), and `f` is required to be unwind-safe in the
/// sense that a panicking item leaves the context usable.
pub fn try_par_map_with<T, U, C, Init, F>(
    items: &[T],
    init: Init,
    f: F,
) -> (Vec<Result<U, String>>, Vec<C>)
where
    T: Sync,
    U: Send,
    C: Send,
    Init: Fn() -> C + Sync,
    F: Fn(&mut C, &T) -> U + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let catch = |ctx: &mut C, item: &T| {
        catch_unwind(AssertUnwindSafe(|| f(ctx, item))).map_err(panic_message)
    };
    let threads = max_threads().min(items.len());
    if threads <= 1 {
        let mut ctx = init();
        let out = items.iter().map(|item| catch(&mut ctx, item)).collect();
        return (out, vec![ctx]);
    }
    // Worker `t` owns items `t, t + T, t + 2T, …` — the fixed round-robin
    // assignment. Each slot deposits its in-order partial results plus its
    // context; the mutexes are per-slot and uncontended (one writer each).
    type SlotOut<U, C> = Option<(Vec<Result<U, String>>, C)>;
    let slots: Vec<std::sync::Mutex<SlotOut<U, C>>> =
        (0..threads).map(|_| std::sync::Mutex::new(None)).collect();
    linalg::pool::run(threads, &|slot| {
        let _gs = telemetry::span_with(telemetry::SpanId::GridSlot, slot as u64);
        let mut ctx = init();
        let mut out = Vec::with_capacity(items.len().div_ceil(threads));
        let mut i = slot;
        while i < items.len() {
            out.push(catch(&mut ctx, &items[i]));
            i += threads;
        }
        *slots[slot].lock().unwrap() = Some((out, ctx));
    });
    let mut contexts = Vec::with_capacity(threads);
    let mut per_slot = Vec::with_capacity(threads);
    for cell in slots {
        // Every slot ran exactly once (the pool's contract), and workers
        // cannot panic out of the deposit (every item is caught).
        let (out, ctx) = cell
            .into_inner()
            .unwrap()
            .expect("pool slot never deposited its results");
        per_slot.push(out.into_iter());
        contexts.push(ctx);
    }
    // Inverse of the round-robin split: item `i` is the next undrained
    // result of slot `i mod T`.
    let results = (0..items.len())
        .map(|i| {
            per_slot[i % threads]
                .next()
                .expect("slot result count mismatch")
        })
        .collect();
    (results, contexts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..103).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<f64> = (0..57).map(|i| i as f64 * 0.37).collect();
        set_max_threads(1);
        let serial = par_map(&items, |&x| (x.sin() * 1e6).to_bits());
        set_max_threads(8);
        let parallel = par_map(&items, |&x| (x.sin() * 1e6).to_bits());
        set_max_threads(0);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_with_reuses_one_context_per_worker() {
        let items: Vec<u32> = (0..37).collect();
        set_max_threads(4);
        let (out, ctxs) = par_map_with(
            &items,
            || 0usize,
            |count, &x| {
                *count += 1;
                x * 3
            },
        );
        set_max_threads(0);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        // Every item was seen exactly once, spread over the workers.
        assert_eq!(ctxs.iter().sum::<usize>(), items.len());
        assert!(ctxs.len() <= 4 && !ctxs.is_empty());
        // Serial path: a single context sees everything.
        set_max_threads(1);
        let (_, ctxs) = par_map_with(&items, || 0usize, |c, _| *c += 1);
        set_max_threads(0);
        assert_eq!(ctxs, vec![items.len()]);
    }

    #[test]
    fn panicking_item_yields_err_and_intact_ordered_batch() {
        let items: Vec<u32> = (0..23).collect();
        for threads in [1usize, 4] {
            set_max_threads(threads);
            let (out, _) = try_par_map_with(
                &items,
                || (),
                |(), &x| {
                    if x == 7 {
                        panic!("boom on {x}");
                    }
                    x * 2
                },
            );
            set_max_threads(0);
            assert_eq!(out.len(), items.len(), "threads={threads}");
            for (i, r) in out.iter().enumerate() {
                if i == 7 {
                    let msg = r.as_ref().unwrap_err();
                    assert!(msg.contains("boom on 7"), "got panic message {msg:?}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), items[i] * 2);
                }
            }
        }
    }

    #[test]
    fn candidate_seeds_are_decorrelated() {
        let a = candidate_seed(1, 0, 0);
        let b = candidate_seed(1, 0, 1);
        let c = candidate_seed(1, 1, 0);
        let d = candidate_seed(2, 0, 0);
        let all = [a, b, c, d];
        for (i, x) in all.iter().enumerate() {
            for y in &all[i + 1..] {
                assert_ne!(x, y);
            }
        }
    }
}
