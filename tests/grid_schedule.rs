//! The evaluation grid is self-scheduled: a worker stuck on one slow unit
//! must not hold any other unit back. Each worker claims the next
//! unclaimed index, so while one worker sits on item 0 the other maps all
//! the rest. A fixed deal of items to workers (round-robin, contiguous
//! chunks) would leave some items queued behind the slow one, and item 0
//! would wait for them in vain.
//!
//! This file is its own test binary with one test, so no other test's
//! `set_max_threads` can change the thread count under it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use opt::parallel;

#[test]
fn a_blocked_unit_does_not_hold_back_the_others() {
    const ITEMS: usize = 9;
    const BOUND: Duration = Duration::from_secs(10);
    let items: Vec<usize> = (0..ITEMS).collect();
    let done = AtomicUsize::new(0);
    parallel::set_max_threads(2);
    let out = parallel::try_par_map(&items, |&i| {
        if i == 0 {
            // Wait until every other item has completed, or give up.
            let start = Instant::now();
            while done.load(Ordering::Acquire) < ITEMS - 1 {
                if start.elapsed() > BOUND {
                    return None;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        } else {
            done.fetch_add(1, Ordering::Release);
        }
        Some(i * 10)
    });
    parallel::set_max_threads(0);
    let out: Vec<Option<usize>> = out
        .into_iter()
        .map(|r| r.expect("no item panics"))
        .collect();
    assert!(
        out[0].is_some(),
        "item 0 waited {BOUND:?} for the other items: they were queued behind it"
    );
    let expected: Vec<Option<usize>> = items.iter().map(|&i| Some(i * 10)).collect();
    assert_eq!(out, expected, "results must come back in input order");
}
