//! Order-preserving parallel map over standard-library scoped threads.
//!
//! The container image ships no external crates, so this module provides the
//! small slice of rayon the workspace needs: fan a slice of independent work
//! items out over the available cores and collect the results *in input
//! order*, which keeps every downstream report deterministic.
//!
//! This is the workspace's one executor, and its one user is the fuzzer's
//! campaign, which runs each shard on a worker here. Checks run on the
//! thread that asks for them; the root `clippy.toml` rejects thread spawns
//! anywhere else.
//!
//! Panic isolation: [`try_par_map`] runs every item under
//! [`std::panic::catch_unwind`], so one poisoned item cannot kill the worker
//! that happened to pick it up — the worker records the panic as a
//! [`WorkerPanic`] in that item's slot and moves on, and every other item's
//! result survives. [`par_map`] keeps its original panic-propagating
//! contract (for callers with no failure story) but is built on the same
//! isolation: all items complete and all workers are joined before the first
//! captured panic is re-raised.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::fault::{BudgetExhausted, InjectedPanic};

/// A panic captured from one work item of [`try_par_map`].
#[derive(Clone, Debug)]
pub struct WorkerPanic {
    /// The panic message (downcast from the payload when possible).
    pub message: String,
}

impl WorkerPanic {
    /// Extracts a readable message from a panic payload, recognizing the
    /// workspace's sentinel payload types as well as plain strings.
    pub fn from_payload(payload: &(dyn std::any::Any + Send)) -> WorkerPanic {
        let message = if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(b) = payload.downcast_ref::<BudgetExhausted>() {
            format!("budget exhausted: {}", b.detail)
        } else if let Some(p) = payload.downcast_ref::<InjectedPanic>() {
            format!("injected panic (site {})", p.site)
        } else {
            "worker panicked with a non-string payload".to_string()
        };
        WorkerPanic { message }
    }
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Number of worker threads to use for `items` work items: the machine's
/// available parallelism, capped by the number of items.
pub fn worker_count(items: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    hw.min(items).max(1)
}

/// Applies `f` to every element of `items` and returns the per-item results
/// in input order, capturing panics instead of propagating them: a panicking
/// item yields `Err(WorkerPanic)` in its own slot and costs nothing else —
/// the worker that caught it continues with the remaining items.
pub fn try_par_map<T, R, F>(items: &[T], f: F) -> Vec<Result<R, WorkerPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let run = |item: &T| -> Result<R, WorkerPanic> {
        catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|p| WorkerPanic::from_payload(&*p))
    };
    let workers = worker_count(items.len());
    if workers <= 1 {
        return items.iter().map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, WorkerPanic>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    // The one place that starts threads: see the module docs.
    #[allow(clippy::disallowed_methods)]
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(idx) else { break };
                let result = run(item);
                *slots[idx].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index visited exactly once")
        })
        .collect()
}

/// Applies `f` to every element of `items` and returns the results in input
/// order. Work is distributed dynamically over [`worker_count`] scoped
/// threads; with one worker (or one item) it degrades to a plain serial map
/// with no thread spawns.
///
/// # Panics
///
/// Re-raises the first captured panic from `f` — but only after every item
/// has been attempted and every worker joined, so a panic cannot strand
/// other in-flight work. Callers that want the surviving results should use
/// [`try_par_map`].
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for result in try_par_map(items, f) {
        match result {
            Ok(r) => out.push(r),
            Err(p) => panic!("par_map worker panicked: {}", p.message),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn results_are_deterministic_across_runs() {
        let items: Vec<u64> = (0..64).collect();
        let a = par_map(&items, |&x| x.wrapping_mul(0x9e3779b97f4a7c15));
        let b = par_map(&items, |&x| x.wrapping_mul(0x9e3779b97f4a7c15));
        assert_eq!(a, b);
    }

    #[test]
    fn worker_count_respects_items() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1000) >= 1);
    }

    /// The satellite regression: one poisoned item must not lose the other
    /// results (and must not kill the process).
    #[test]
    fn one_poisoned_item_keeps_the_rest() {
        let items: Vec<usize> = (0..50).collect();
        let results = try_par_map(&items, |&x| {
            if x == 17 {
                panic!("poisoned item {x}");
            }
            x * 3
        });
        assert_eq!(results.len(), 50);
        for (i, r) in results.iter().enumerate() {
            if i == 17 {
                let p = r.as_ref().expect_err("item 17 must be captured as a panic");
                assert!(p.message.contains("poisoned item 17"), "{}", p.message);
            } else {
                assert_eq!(*r.as_ref().expect("healthy items must survive"), i * 3);
            }
        }
    }

    #[test]
    fn serial_path_also_isolates() {
        // One item forces the no-spawn serial path through the same
        // catch_unwind wrapper.
        let results = try_par_map(&[1usize], |_| -> usize { panic!("boom") });
        assert_eq!(results.len(), 1);
        assert!(results[0].as_ref().unwrap_err().message.contains("boom"));
    }

    #[test]
    fn sentinel_payloads_have_readable_messages() {
        let results = try_par_map(&[0u64], |&site| -> u64 {
            std::panic::panic_any(crate::fault::InjectedPanic { site })
        });
        assert!(results[0].as_ref().unwrap_err().message.contains("injected panic"));
    }

    #[test]
    #[should_panic(expected = "par_map worker panicked")]
    fn par_map_still_propagates() {
        let items: Vec<usize> = (0..8).collect();
        let _ = par_map(&items, |&x| if x == 3 { panic!("bad") } else { x });
    }
}
