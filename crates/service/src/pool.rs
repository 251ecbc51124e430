//! A small persistent work-stealing worker pool.
//!
//! The one-shot checker ([`lilac_core::check_program_with`] and
//! [`lilac_core::check_program_incremental`], one path in `lilac-core`)
//! checks a few components on the caller's thread and fans many out over
//! scoped threads spawned and joined inside the call — the right shape for
//! a one-shot CLI, but a long-lived service checking a stream of programs
//! wants to overlap component work within and across requests without
//! paying thread startup per request. This pool keeps its workers alive for
//! the service's lifetime: each worker owns a deque, submissions
//! are spread round-robin, and an idle worker steals from the *back* of a
//! sibling's deque (the classic Chase–Lev discipline, here with plain
//! mutexed deques since the container image has no atomics-heavy deque
//! crate and checker jobs are milliseconds, not nanoseconds).
//!
//! Every job runs under [`std::panic::catch_unwind`], so a panicking job can
//! never kill its worker — panic *handling* (degradation, retries) is the
//! service's business; the pool only guarantees the thread survives.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of work: a boxed closure run once on some worker thread.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    /// One deque per worker. Owners pop from the front, thieves steal from
    /// the back.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Guards the shutdown flag and pairs with `signal` for sleep/wake.
    gate: Mutex<bool>,
    signal: Condvar,
    /// Round-robin submission cursor.
    next: AtomicUsize,
}

impl PoolShared {
    /// Pops work for worker `me`: its own queue first (front), then a sweep
    /// over the siblings' queues (back).
    fn find_job(&self, me: usize) -> Option<Job> {
        if let Some(job) = self.queues[me].lock().expect("queue poisoned").pop_front() {
            return Some(job);
        }
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (me + offset) % n;
            if let Some(job) = self.queues[victim].lock().expect("queue poisoned").pop_back() {
                return Some(job);
            }
        }
        None
    }
}

/// A fixed-size pool of persistent worker threads.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` persistent threads (at least one).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            gate: Mutex::new(false),
            signal: Condvar::new(),
            next: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lilac-check-{me}"))
                    .spawn(move || worker_loop(&shared, me))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Enqueues a job on the next worker's deque (round-robin) and wakes a
    /// sleeper. Jobs report results through whatever channel the caller
    /// closed over.
    pub fn submit(&self, job: Job) {
        let n = self.shared.queues.len();
        let target = self.shared.next.fetch_add(1, Ordering::Relaxed) % n;
        self.shared.queues[target].lock().expect("queue poisoned").push_back(job);
        // Notify under the gate lock so a worker that just re-checked the
        // queues empty cannot miss this wakeup.
        let _guard = self.shared.gate.lock().expect("gate poisoned");
        self.shared.signal.notify_all();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        *self.shared.gate.lock().expect("gate poisoned") = true;
        self.shared.signal.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, me: usize) {
    loop {
        if let Some(job) = shared.find_job(me) {
            // The job's panic is its submitter's problem; the worker thread
            // must survive it.
            let _ = catch_unwind(AssertUnwindSafe(job));
            continue;
        }
        let down = shared.gate.lock().expect("gate poisoned");
        // Re-check under the gate lock: submissions notify while holding it,
        // so either the job is visible now or the wait below sees the signal.
        if shared.queues.iter().any(|q| !q.lock().expect("queue poisoned").is_empty()) {
            continue;
        }
        if *down {
            // Shutdown with every queue drained.
            return;
        }
        let _unused = shared.signal.wait(down).expect("gate poisoned");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

    #[test]
    fn runs_all_jobs_across_workers() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        for i in 0..100u64 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                counter.fetch_add(i, Ordering::Relaxed);
                tx.send(i).expect("receiver alive");
            }));
        }
        drop(tx);
        let mut seen: Vec<u64> = rx.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
        assert_eq!(counter.load(Ordering::Relaxed), (0..100).sum::<u64>());
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        pool.submit(Box::new(|| panic!("job panic")));
        // The single worker must survive to run the second job.
        let tx2 = tx.clone();
        pool.submit(Box::new(move || tx2.send(42u32).expect("receiver alive")));
        drop(tx);
        assert_eq!(rx.recv().expect("worker survived the panic"), 42);
    }

    #[test]
    fn drop_joins_cleanly_with_queued_work() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..50 {
                let counter = Arc::clone(&counter);
                pool.submit(Box::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                }));
            }
            // Drop: workers drain the queues before exiting.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }
}
