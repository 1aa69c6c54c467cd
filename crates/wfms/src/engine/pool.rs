//! Persistent worker pool with self-scheduled work-stealing.
//!
//! The sharded settle used to fork a fresh `std::thread::scope` every
//! round and join at a barrier — BENCH_sharding showed the spawn/join
//! cost eating the parallel win. The [`WorkerPool`] here is spawned once
//! and parked on a condvar between rounds; a round publishes one
//! type-erased job (`Fn(index)`) plus a shared atomic cursor, and every
//! thread — the dispatcher included — claims one index per `fetch_add`
//! until the cursor passes the end. That self-scheduling claim IS the
//! work-stealing: a fast thread simply claims more indices, no
//! per-thread deques or balance pass needed.
//!
//! Determinism contract: the pool only decides *which thread* runs index
//! `i`; each index is claimed exactly once, the job must write results
//! into per-index slots, and the caller merges those slots in index
//! order. Nothing observable depends on thread identity or claim
//! interleaving — the sharding fingerprint tests pin this across pool
//! sizes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Pool utilization counters, read via `Engine::pool_stats`.
///
/// Deliberately `PartialEq` only and NEVER part of a determinism
/// fingerprint: `steals` and `idle_wakeups` depend on scheduling. The
/// deterministic members (`threads_spawned`, `rounds`, `tasks`) are what
/// the regression tests assert — in particular `threads_spawned` must
/// not move between pumps after warm-up.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolStats {
    /// Worker threads currently alive (excludes the dispatching thread).
    pub workers: usize,
    /// Cumulative threads ever spawned — stable after warm-up.
    pub threads_spawned: u64,
    /// Parallel dispatch rounds (job published to the pool).
    pub rounds: u64,
    /// Rounds run inline on the dispatcher (no workers, or ≤ 1 task).
    pub inline_rounds: u64,
    /// Total index claims across all threads (one index per claim).
    pub chunks: u64,
    /// Claims by pool workers (the dispatcher's own claims are
    /// `chunks - steals`). Scheduling-dependent — measurement only.
    pub steals: u64,
    /// Individual task executions (Σ round lengths).
    pub tasks: u64,
    /// Times a worker woke for a round and found nothing left to claim.
    pub idle_wakeups: u64,
}

/// A round's job: a lifetime-erased `&(dyn Fn(usize) + Sync)` pointing
/// into the dispatcher's stack. Valid only while the round is open — the
/// dispatcher blocks in [`WorkerPool::run`] until every worker has left
/// the round, so workers never dereference it after `run` returns.
#[derive(Clone, Copy)]
struct RawJob(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared `&` calls from many threads are
// its contract), and the dispatcher keeps it alive for the whole round.
unsafe impl Send for RawJob {}
unsafe impl Sync for RawJob {}

#[derive(Clone, Copy)]
struct Round {
    job: RawJob,
    len: usize,
}

#[derive(Default)]
struct State {
    /// Bumped once per published round; workers run each epoch once.
    epoch: u64,
    round: Option<Round>,
    /// Workers still inside the current round.
    active: usize,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Signals workers: new round published, or shutdown.
    work: Condvar,
    /// Signals the dispatcher: `active` reached zero.
    done: Condvar,
    /// Next unclaimed index of the current round.
    cursor: AtomicUsize,
    /// A task panicked somewhere in the current round.
    panicked: AtomicBool,
    /// Index claims by pool workers.
    steals: AtomicU64,
    idle_wakeups: AtomicU64,
}

/// Claims indices off the shared cursor and runs the job on each.
/// Returns the number of indices this thread claimed. Panics are caught
/// per task and latched into `shared.panicked` so a poisoned task never
/// tears down a pool thread or skips the round's barrier.
fn claim_and_run(shared: &Shared, round: &Round) -> u64 {
    let job = unsafe { &*round.job.0 };
    let mut claimed = 0u64;
    loop {
        let index = shared.cursor.fetch_add(1, Ordering::Relaxed);
        if index >= round.len {
            break;
        }
        claimed += 1;
        if catch_unwind(AssertUnwindSafe(|| job(index))).is_err() {
            shared.panicked.store(true, Ordering::SeqCst);
        }
    }
    claimed
}

fn worker_loop(shared: Arc<Shared>) {
    let mut seen_epoch = 0u64;
    loop {
        let round = {
            let mut state = shared.state.lock().expect("pool lock");
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen_epoch {
                    if let Some(round) = state.round {
                        seen_epoch = state.epoch;
                        break round;
                    }
                }
                state = shared.work.wait(state).expect("pool lock");
            }
        };
        let claimed = claim_and_run(&shared, &round);
        if claimed == 0 {
            shared.idle_wakeups.fetch_add(1, Ordering::Relaxed);
        }
        shared.steals.fetch_add(claimed, Ordering::Relaxed);
        let mut state = shared.state.lock().expect("pool lock");
        state.active -= 1;
        if state.active == 0 {
            shared.done.notify_all();
        }
    }
}

/// A persistent, grow-only pool of parked worker threads.
///
/// `Default` is an empty pool: [`WorkerPool::run`] falls back to running
/// inline, so an unconfigured engine behaves exactly like the sequential
/// one. [`WorkerPool::ensure_workers`] spawns threads eagerly and never
/// shrinks; after the first settle at a given shard count, no dispatch
/// ever touches `std::thread::spawn` again.
#[derive(Default)]
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads_spawned: u64,
    rounds: AtomicU64,
    inline_rounds: AtomicU64,
    dispatcher_claims: AtomicU64,
    tasks: AtomicU64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.handles.len()).finish()
    }
}

impl WorkerPool {
    /// Grows the pool to at least `workers` threads (never shrinks —
    /// a shard-count change mid-run must not churn threads).
    pub fn ensure_workers(&mut self, workers: usize) {
        while self.handles.len() < workers {
            let shared = Arc::clone(&self.shared);
            self.handles.push(
                std::thread::Builder::new()
                    .name(format!("b2b-settle-{}", self.handles.len()))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker"),
            );
            self.threads_spawned += 1;
        }
    }

    /// Worker threads currently alive.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs `job` once for every index in `0..len`, fanning indices out
    /// across the pool one claim at a time; the dispatching thread
    /// participates. Blocks until every index has run. With no workers
    /// (or `len <= 1`) the job runs inline in index order — the
    /// sequential baseline the fingerprint tests compare against.
    ///
    /// Each index is claimed by exactly one thread, so a job writing to
    /// disjoint per-index slots needs no further synchronization.
    pub fn run(&self, len: usize, job: &(dyn Fn(usize) + Sync)) {
        self.tasks.fetch_add(len as u64, Ordering::Relaxed);
        if self.handles.is_empty() || len <= 1 {
            self.inline_rounds.fetch_add(1, Ordering::Relaxed);
            for index in 0..len {
                job(index);
            }
            return;
        }
        self.rounds.fetch_add(1, Ordering::Relaxed);
        self.shared.cursor.store(0, Ordering::SeqCst);
        // SAFETY: `run` does not return until the round is fully drained
        // (the `active == 0` wait below), so erasing the job's lifetime
        // to publish it through the shared state never outlives `job`.
        let raw = RawJob(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        });
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            state.round = Some(Round { job: raw, len });
            state.epoch += 1;
            state.active = self.handles.len();
        }
        self.shared.work.notify_all();
        let round = Round { job: raw, len };
        let claimed = claim_and_run(&self.shared, &round);
        self.dispatcher_claims.fetch_add(claimed, Ordering::Relaxed);
        let mut state = self.shared.state.lock().expect("pool lock");
        while state.active > 0 {
            state = self.shared.done.wait(state).expect("pool lock");
        }
        state.round = None;
        drop(state);
        if self.shared.panicked.swap(false, Ordering::SeqCst) {
            panic!("shard worker panicked");
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        let steals = self.shared.steals.load(Ordering::Relaxed);
        PoolStats {
            workers: self.handles.len(),
            threads_spawned: self.threads_spawned,
            rounds: self.rounds.load(Ordering::Relaxed),
            inline_rounds: self.inline_rounds.load(Ordering::Relaxed),
            chunks: self.dispatcher_claims.load(Ordering::Relaxed) + steals,
            steals,
            tasks: self.tasks.load(Ordering::Relaxed),
            idle_wakeups: self.shared.idle_wakeups.load(Ordering::Relaxed),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn empty_pool_runs_inline_in_order() {
        let pool = WorkerPool::default();
        let order = Mutex::new(Vec::new());
        pool.run(5, &|i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
        let stats = pool.stats();
        assert_eq!(stats.threads_spawned, 0);
        assert_eq!(stats.inline_rounds, 1);
        assert_eq!(stats.tasks, 5);
    }

    #[test]
    fn every_index_runs_exactly_once_across_threads() {
        let mut pool = WorkerPool::default();
        pool.ensure_workers(3);
        let counts: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..2 {
            pool.run(counts.len(), &|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 2, "index {i} ran a wrong number of times");
        }
        let stats = pool.stats();
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.threads_spawned, 3);
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.tasks, 2 * 97);
    }

    #[test]
    fn ensure_workers_is_grow_only_and_idempotent() {
        let mut pool = WorkerPool::default();
        pool.ensure_workers(2);
        pool.ensure_workers(1);
        pool.ensure_workers(2);
        assert_eq!(pool.stats().threads_spawned, 2);
        pool.ensure_workers(4);
        assert_eq!(pool.stats().threads_spawned, 4);
    }

    #[test]
    fn task_panic_surfaces_after_the_round_drains() {
        let mut pool = WorkerPool::default();
        pool.ensure_workers(2);
        let ran = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate to the dispatcher");
        assert_eq!(ran.load(Ordering::Relaxed), 8, "other tasks still ran");
        // The pool survives: the next round is clean.
        pool.run(4, &|_| {});
    }
}
