//! One scoped worker pool for the workspace's CPU-bound fan-outs.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `work(i)` for every `i` in `0..n` and return the results in index
/// order. `min(n, available_parallelism)` workers, the caller's thread
/// among them, each take the next unclaimed index until none is left, so
/// the results never depend on the worker count.
///
/// # Panics
///
/// Re-raises a panic from `work`.
pub fn map_indexed<T: Send>(n: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    let next = AtomicUsize::new(0);
    let run = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, work(i)));
        }
    };
    let mut indexed = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.min(n)).map(|_| scope.spawn(run)).collect();
        let mut done = run();
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        done
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_returns_results_in_index_order() {
        assert!(map_indexed(0, |i| i).is_empty());
        let squares = map_indexed(100, |i| i * i);
        assert_eq!(squares, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }
}
