//! One ordered work queue for every corpus-scale parallel stage.
//!
//! [`map_ordered`] maps a closure over a slice on up to `jobs` threads and
//! returns the results in input order; [`map_blocks`] is the block-level
//! form it is built on, for callers that recover from a failed block
//! themselves (the workflow engine's shard-crash recovery).
//!
//! Items are cut into contiguous blocks by [`blocks`], a pure function of
//! the item count and the configured `jobs` — never of the host — so any
//! per-block coordinate (a fault-plan key, a shard histogram count) is the
//! same on every machine. Threads pull block indices from one atomic
//! counter, the calling thread among them, and at most
//! `min(jobs, available cores, blocks)` threads run. Every block's result
//! is caught separately and scattered back into block order, so the output
//! never depends on which thread ran what, and a panicking block comes
//! back as its own error.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Blocks cut per configured job. More than one lets threads that drew
/// cheap blocks take over the rest of the queue; a small constant keeps the
/// per-block cost (one catch, one result vector) negligible.
const BLOCKS_PER_JOB: usize = 4;

/// The contiguous block partition of `n` items at `jobs`: at most
/// `jobs * 4` blocks, never more than `n`, sizes differing by at most one.
pub fn blocks(n: usize, jobs: usize) -> Vec<Range<usize>> {
    let count = n.min(jobs.max(1) * BLOCKS_PER_JOB);
    (0..count).map(|b| b * n / count..(b + 1) * n / count).collect()
}

/// Cores this process may run on, read once per process.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Threads a run of `n_blocks` blocks uses at `jobs`, the caller included.
fn threads(jobs: usize, n_blocks: usize) -> usize {
    jobs.max(1).min(cores()).min(n_blocks)
}

/// Runs `f(block_index, range)` once for every block of [`blocks`]`(n, jobs)`
/// and returns each block's outcome in block order. A block whose closure
/// panics yields `Err` with the panic payload; every other block still
/// completes.
#[allow(clippy::disallowed_methods)] // the one scoped-thread fan-out every parallel stage shares
pub fn map_blocks<R, F>(n: usize, jobs: usize, f: F) -> Vec<std::thread::Result<R>>
where
    R: Send,
    F: Fn(usize, Range<usize>) -> R + Sync,
{
    let cut = blocks(n, jobs);
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let b = next.fetch_add(1, Ordering::Relaxed);
            let Some(range) = cut.get(b) else { break done };
            done.push((b, catch_unwind(AssertUnwindSafe(|| f(b, range.clone())))));
        }
    };
    let mut done = match threads(jobs, cut.len()) {
        0 | 1 => work(),
        t => std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..t).map(|_| scope.spawn(work)).collect();
            let mut done = work();
            for helper in helpers {
                done.extend(helper.join().unwrap_or_else(|p| resume_unwind(p)));
            }
            done
        }),
    };
    done.sort_unstable_by_key(|&(b, _)| b);
    done.into_iter().map(|(_, r)| r).collect()
}

/// `items.iter().map(f).collect()`, on up to `jobs` threads. The output is
/// in input order for every `jobs`; a panic in `f` is re-raised on the
/// calling thread (on one thread, at once; otherwise once every other block
/// has finished).
pub fn map_ordered<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads(jobs, items.len()) <= 1 {
        return items.iter().map(f).collect();
    }
    let mut out = Vec::with_capacity(items.len());
    for block in map_blocks(items.len(), jobs, |_, range| items[range].iter().map(&f).collect()) {
        out.extend::<Vec<R>>(block.unwrap_or_else(|p| resume_unwind(p)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn output_is_in_input_order_at_every_jobs() {
        for jobs in [1, 2, 3, 4, 8] {
            for n in [0, 1, 2, jobs - 1, 1000] {
                let items: Vec<usize> = (0..n).collect();
                let got = map_ordered(&items, jobs, |&i| i * 3 + 1);
                let want: Vec<usize> = items.iter().map(|&i| i * 3 + 1).collect();
                assert_eq!(got, want, "jobs {jobs}, n {n}");
            }
        }
    }

    #[test]
    fn partition_is_a_pure_function_of_count_and_jobs() {
        assert!(blocks(0, 4).is_empty());
        assert_eq!(blocks(3, 4), vec![0..1, 1..2, 2..3]);
        assert_eq!(blocks(10, 1), vec![0..2, 2..5, 5..7, 7..10]);
        assert_eq!(blocks(10, 0), blocks(10, 1), "jobs 0 means one job");
        for jobs in [1, 2, 3, 4, 8] {
            for n in [0, 1, 2, 7, 31, 1000] {
                let cut = blocks(n, jobs);
                assert_eq!(cut, blocks(n, jobs));
                assert_eq!(cut.len(), n.min(jobs * BLOCKS_PER_JOB));
                // Contiguous, covering, non-empty, sizes within one.
                assert_eq!(cut.first().map_or(0, |r| r.start), 0);
                assert_eq!(cut.last().map_or(0, |r| r.end), n);
                assert!(cut.windows(2).all(|w| w[0].end == w[1].start));
                let sizes: Vec<usize> = cut.iter().map(|r| r.len()).collect();
                let (lo, hi) = (sizes.iter().min(), sizes.iter().max());
                if let (Some(&lo), Some(&hi)) = (lo, hi) {
                    assert!(lo >= 1 && hi - lo <= 1, "n {n}, jobs {jobs}: {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn a_panicking_block_is_its_own_error() {
        let n = 40;
        let jobs = 4;
        let poisoned = blocks(n, jobs).iter().position(|r| r.contains(&17)).unwrap();
        let out = map_blocks(n, jobs, |_, range| {
            assert!(!range.contains(&17), "block with item 17 fails");
            range.len()
        });
        assert_eq!(out.len(), blocks(n, jobs).len());
        for (b, (r, range)) in out.iter().zip(blocks(n, jobs)).enumerate() {
            match r {
                Ok(len) => assert_eq!(*len, range.len()),
                Err(_) => assert_eq!(b, poisoned),
            }
        }
        assert!(out[poisoned].is_err());
    }

    #[test]
    #[should_panic(expected = "item 5")]
    fn map_ordered_re_raises_a_panic() {
        let items: Vec<usize> = (0..20).collect();
        map_ordered(&items, 3, |&i| assert!(i != 5, "item 5"));
    }

    #[test]
    fn thread_count_is_capped_by_jobs_cores_and_blocks() {
        for (n, jobs) in [(1000, 1), (1000, 2), (1000, 64), (3, 8), (1, 4)] {
            let seen = Mutex::new(HashSet::new());
            map_blocks(n, jobs, |_, _| {
                seen.lock().unwrap().insert(std::thread::current().id());
                // Hold the block long enough for every spawned helper to
                // reach the queue.
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
            let cap = jobs.min(cores()).min(blocks(n, jobs).len());
            let used = seen.into_inner().unwrap().len();
            assert!(used <= cap, "n {n}, jobs {jobs}: {used} threads > cap {cap}");
        }
    }
}
