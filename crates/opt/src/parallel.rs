//! Deterministic data parallelism for population evaluation.
//!
//! Optimizers evaluate candidate populations through
//! [`crate::Evaluator::evaluate_batch`], which maps the candidate ×
//! corner × analysis unit grid over scoped threads via [`try_par_map`].
//! Parallelism changes **wall-clock time only**, never results:
//!
//! - candidates are generated *before* evaluation (with per-candidate
//!   seeded RNGs where generation is stochastic, see [`candidate_seed`]),
//! - every unit's result depends on the unit alone, and results are
//!   reassembled in input order, so the output vector is independent of
//!   thread count and of which worker ran which unit,
//! - evaluations are recorded into the history in the original candidate
//!   order.
//!
//! Workers are self-scheduled: each claims the next unit index from one
//! shared counter. Unit costs on a hierarchical grid are far from uniform
//! (a closed-loop transient costs several open-loop analyses), and any
//! fixed deal can stack the expensive units on one worker; claiming keeps
//! every worker busy until the grid runs dry. The assignment then depends
//! on timing, which is safe because nothing a unit computes depends on
//! its thread: solver workspaces come from `spice`'s topology-keyed pool,
//! whose reuse is bit-neutral (stamp→slot maps, sparse patterns, factor
//! storage; enforced by `tests/parallel_determinism.rs`), and fault-plane
//! scopes are keyed per unit.
//!
//! The worker count defaults to the machine's available parallelism,
//! clamped by the `DNNOPT_THREADS` environment variable and overridable
//! programmatically with [`set_max_threads`] (used by the determinism
//! tests to compare serial and parallel runs). This grid is the
//! workspace's only parallel layer: the kernels a unit runs — sparse
//! solves, GEMM — are serial, so a fan-out never oversubscribes the host.

// The budget lives in `linalg::pool`, the bottom of the crate graph;
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

/// Applies `f` to every item and returns the results **in input order**,
/// each mapped inside `catch_unwind`: one panicking item yields one
/// `Err(message)` slot while the rest of the batch completes normally,
/// bit-identically on the serial and parallel paths (both catch per item).
///
/// With a budget of `T = max_threads().min(items.len()) > 1` threads, the
/// map opens one [`std::thread::scope`]: the caller runs slot 0 and spawns
/// slots `1..T` (named `dnnopt-pool-<slot>`). Every slot claims the next
/// unclaimed index from one shared counter until none is left, so a slot
/// stuck on an expensive item never holds cheap ones back. Each slot keeps
/// its `(index, result)` pairs, and the caller puts them back into input
/// order after the join. Which slot maps an item depends on timing, so
/// `f`'s result must depend only on the item.
pub fn try_par_map<T, U, F>(items: &[T], f: F) -> Vec<Result<U, String>>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    let catch = |item: &T| catch_unwind(AssertUnwindSafe(|| f(item))).map_err(panic_message);
    let threads = max_threads().min(items.len());
    if threads <= 1 {
        return items.iter().map(catch).collect();
    }
    let next = AtomicUsize::new(0);
    // One slot's share: claim indices until the counter runs past the end.
    // `spawned_ns` is the telemetry clock at the slot's spawn call (`None`
    // for the caller, which starts at once, and when tracing is off).
    let share = |slot: usize, spawned_ns: Option<u64>| {
        telemetry::set_thread_slot(slot);
        let _gs = telemetry::span_with(telemetry::SpanId::GridSlot, slot as u64);
        let start_ns = telemetry::enabled().then(telemetry::clock_ns);
        if let (Some(start), Some(spawned)) = (start_ns, spawned_ns) {
            telemetry::record(
                telemetry::Metric::PoolDispatchNs,
                start.saturating_sub(spawned),
            );
        }
        let mut out = Vec::new();
        loop {
            // The read-modify-write hands out each index once; the counter
            // publishes nothing else (results travel back through `join`).
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            out.push((i, catch(&items[i])));
        }
        if let Some(start) = start_ns {
            let busy = telemetry::clock_ns().saturating_sub(start);
            telemetry::record(telemetry::Metric::PoolBusyNs, busy);
        }
        out
    };
    let mut pairs = std::thread::scope(|s| {
        let share = &share;
        let workers: Vec<_> = (1..threads)
            .map(|slot| {
                let spawned_ns = telemetry::enabled().then(telemetry::clock_ns);
                std::thread::Builder::new()
                    .name(format!("dnnopt-pool-{slot}"))
                    .spawn_scoped(s, move || share(slot, spawned_ns))
                    .expect("failed to spawn a grid worker")
            })
            .collect();
        let mut pairs = share(0, None);
        for w in workers {
            pairs.extend(w.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
        pairs
    });
    // Every index was claimed exactly once; sorting scatters the pairs
    // back into input order.
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `try_par_map`, unwrapping every slot.
    fn map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
        try_par_map(items, f)
            .into_iter()
            .map(|r| r.expect("no item panics"))
            .collect()
    }

    #[test]
    fn preserves_input_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<usize> = (0..103).collect();
        let hits: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
        set_max_threads(4);
        let out = map(&items, |&x| {
            hits[x].fetch_add(1, Ordering::Relaxed);
            x * 2
        });
        set_max_threads(0);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        // Every index was claimed exactly once.
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<f64> = (0..57).map(|i| i as f64 * 0.37).collect();
        set_max_threads(1);
        let serial = map(&items, |&x| (x.sin() * 1e6).to_bits());
        set_max_threads(8);
        let parallel = map(&items, |&x| (x.sin() * 1e6).to_bits());
        set_max_threads(0);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(map(&empty, |&x| x).is_empty());
        assert_eq!(map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn panicking_item_yields_err_and_intact_ordered_batch() {
        let items: Vec<u32> = (0..23).collect();
        for threads in [1usize, 4] {
            set_max_threads(threads);
            let out = try_par_map(&items, |&x| {
                if x == 7 {
                    panic!("boom on {x}");
                }
                x * 2
            });
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
