//! Thread-parallel execution substrate: a persistent worker pool plus
//! scoped fork-join helpers.
//!
//! The workspace is hermetic (no registry access, `unsafe` forbidden), so
//! instead of Rayon the compute kernels use two complementary mechanisms:
//!
//! * [`WorkerPool`] — a **persistent** pool of parked worker threads,
//!   lazily spawned once per process ([`pool()`]). Jobs are owned
//!   (`'static`) closures; dispatch to a parked worker costs a condvar
//!   wake (~µs), not a thread start. The conv fan-out runs here, handing
//!   workers `Arc`-shared operand copies and receiving owned output
//!   bands back.
//! * `std::thread::scope` fan-outs over *borrowed* memory: the
//!   memory-bound GEMMs' band split (`gemm::gemm_blocked_parallel`) and
//!   [`par_chunks_mut`] / [`par_zip_mut`] / [`par_zip2_mut`] for the
//!   BLAS-1 elastic updates. These start their helper threads per call
//!   and are gated behind thresholds where that cost is noise.
//! * [`par_rows`] — the original row-band fork-join, kept as a
//!   compatibility shim for the retained `gemm_naive` baseline.
//!
//! ## Why GEMM borrows instead of using the pool
//!
//! A pool that runs borrowed closures on persistent threads requires
//! erasing the closure lifetime — that is `unsafe` (it is how Rayon and
//! crossbeam implement scopes), and this workspace forbids `unsafe`. So
//! a persistent worker can only see copies: O(m·k + k·n + m·n) floats
//! moved per GEMM. Against an O(m·n·k) kernel that is cheap only when
//! every dimension is large, and on the measured calls it never paid:
//! the wide MLP's batch-4 weight gradient 2048×2048×4 (β = 1) took
//! 5.2–5.3 ms on the owned pool against 2.0–2.5 ms serially (its C bands
//! are the size of the weight, copied in and out), LeNet's 500×800×32
//! weight gradient 0.6–0.7 ms against 0.3–0.4 ms, and the batch-32
//! 32×4096×25088 `vgg_fc6` layer 487 ms against 261 ms (2-core AVX-512
//! host). So the GEMM fans out only over borrowed bands: a scoped helper
//! per extra band reads the caller's operands in place (1.4 ms for the
//! 2048×2048×4 gradient).
//!
//! A scoped helper is not free either: ~37–40 µs to start and join on
//! that host, and each one attaches a glibc malloc arena (std's thread
//! start-up allocates in the new thread). With a helper on every
//! parallel GEMM, the LeNet training benchmark's peak RSS rose 17% as
//! freed memory fragmented across the extra arenas. So only memory-bound
//! calls fan out (`gemm::memory_bound`, DESIGN.md §8.2) and the
//! compute-bound ones run serially.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Number of threads a data-parallel kernel should use (workers + the
/// submitting thread itself).
///
/// Read once per process: `available_parallelism` consults the affinity
/// mask and cgroup quota files, far too slow for a per-GEMM question.
pub fn max_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// A unit of work: an owned, type-erased closure.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared state between the submitting side and the workers.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
}

/// Recovers the guard from a poisoned lock: a panic in a sibling job
/// must propagate as that job's missing result, not deadlock the queue.
fn lock_queue(shared: &Shared) -> MutexGuard<'_, VecDeque<Job>> {
    match shared.queue.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

thread_local! {
    /// True on pool worker threads; nested submissions run inline so a
    /// job can never block waiting on work queued behind itself.
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A persistent pool of parked worker threads executing owned jobs.
///
/// Workers are spawned once (at construction) and then live for the
/// lifetime of the pool — for the global [`pool()`], the lifetime of the
/// process. Between jobs they park inside a condvar wait; submission is
/// a queue push plus a wake.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: usize,
    spawned: AtomicUsize,
}

impl WorkerPool {
    /// A pool with `workers` background threads (0 is valid: all jobs
    /// then run inline on the submitting thread).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        });
        let pool = Self {
            shared: shared.clone(),
            workers,
            spawned: AtomicUsize::new(0),
        };
        for idx in 0..workers {
            let shared = shared.clone();
            // ordering: plain statistics counter read by tests; no memory
            // is published through it.
            pool.spawned.fetch_add(1, Ordering::Relaxed);
            std::thread::Builder::new()
                .name(format!("easgd-pool-{idx}"))
                .spawn(move || {
                    IS_POOL_WORKER.with(|f| f.set(true));
                    loop {
                        let job = {
                            let mut q = lock_queue(&shared);
                            loop {
                                if let Some(job) = q.pop_front() {
                                    break job;
                                }
                                q = match shared.available.wait(q) {
                                    Ok(g) => g,
                                    Err(poisoned) => poisoned.into_inner(),
                                };
                            }
                        };
                        // A panicking job must not kill the worker: the
                        // pool is process-lifetime, so a dead worker would
                        // silently degrade every later parallel region.
                        // The panic still reaches the submitter — the
                        // job's result-channel sender is dropped without
                        // sending, which `run` reports as a panic. Jobs
                        // own their captures (`'static` + `Send`), so no
                        // caller-visible state is left half-mutated.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                    }
                })
                .unwrap_or_else(|e| panic!("failed to spawn pool worker: {e}"));
        }
        pool
    }

    /// Number of threads this pool brings to a parallel region: its
    /// workers plus the submitting thread.
    pub fn threads(&self) -> usize {
        self.workers + 1
    }

    /// Total worker threads ever spawned by this pool. Constant after
    /// construction — the property the pool-lifecycle test asserts.
    pub fn threads_spawned(&self) -> usize {
        // ordering: plain statistics counter; see `new`.
        self.spawned.load(Ordering::Relaxed)
    }

    /// Runs every task, returning their results in task order.
    ///
    /// Tasks are distributed over the parked workers; the calling thread
    /// participates by draining the same queue instead of idling. Called
    /// from inside a pool worker (nested parallelism) or on a pool with
    /// zero workers, all tasks run inline on the current thread.
    ///
    /// # Panics
    /// Propagates a panic if any task panicked (the worker side poisons
    /// the result channel, surfacing here).
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let nested = IS_POOL_WORKER.with(|f| f.get());
        if self.workers == 0 || nested || n == 1 {
            return tasks.into_iter().map(|t| t()).collect();
        }

        let (tx, rx) = mpsc::channel::<(usize, T)>();
        {
            let mut q = lock_queue(&self.shared);
            for (idx, task) in tasks.into_iter().enumerate() {
                let tx = tx.clone();
                q.push_back(Box::new(move || {
                    // A send error means the submitter already gave up
                    // (its receiver is gone), which only happens if it
                    // panicked; dropping the result is then correct.
                    let _ = tx.send((idx, task()));
                }));
            }
        }
        self.shared.available.notify_all();
        drop(tx);

        // Help drain the queue rather than blocking immediately: the
        // submitting thread is one of the `threads()` compute threads,
        // and counts as a pool thread while it runs a job (so a kernel
        // inside that job sees the same `in_pool_job` as on a worker).
        struct Restore(bool);
        impl Drop for Restore {
            fn drop(&mut self) {
                IS_POOL_WORKER.with(|f| f.set(self.0));
            }
        }
        let restore = Restore(IS_POOL_WORKER.with(|f| f.replace(true)));
        loop {
            let job = lock_queue(&self.shared).pop_front();
            match job {
                Some(job) => job(),
                None => break,
            }
        }
        drop(restore);

        let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
        for _ in 0..n {
            match rx.recv() {
                Ok((idx, value)) => slots[idx] = Some(value),
                Err(_) => panic!("pool worker panicked while running a job"),
            }
        }
        slots
            .into_iter()
            .map(|s| match s {
                Some(v) => v,
                None => panic!("pool job produced no result"),
            })
            .collect()
    }
}

/// True on a pool worker thread — inside a job of any [`WorkerPool`].
/// Kernels that would fan out on their own (GEMM's scoped bands) run
/// serially there: the enclosing fan-out already owns the cores.
pub(crate) fn in_pool_job() -> bool {
    IS_POOL_WORKER.with(|f| f.get())
}

/// The process-wide pool, spawned on first use with one worker per
/// available core beyond the submitting thread.
pub fn pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(max_threads().saturating_sub(1)))
}

// ---------------------------------------------------------------------------
// Per-thread pool override: the chip-partitioning seam (§6.2).
// ---------------------------------------------------------------------------

thread_local! {
    /// The pool installed by [`with_pool`] on this thread, if any.
    static CURRENT_POOL: std::cell::RefCell<Option<Arc<WorkerPool>>> =
        const { std::cell::RefCell::new(None) };
}

/// Installs `pool` as the calling thread's compute pool for the duration
/// of `f` (restored on return or unwind).
///
/// While installed, the pool-aware kernels resolve their parallelism
/// against it instead of the process-global [`pool()`]: GEMM's parallel
/// dispatch submits to this pool, and the band-split helpers size their
/// splits by [`current_threads`]. This is how a KNL-style chip partition
/// ([`PartitionedPool`]) confines each group's compute to the group's
/// own threads — a group driver never touches the global pool, even for
/// work past the parallel thresholds.
pub fn with_pool<R>(pool: &Arc<WorkerPool>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<WorkerPool>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_POOL.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let prev = CURRENT_POOL.with(|c| c.borrow_mut().replace(pool.clone()));
    let _restore = Restore(prev);
    f()
}

/// The pool override installed by [`with_pool`] on this thread, if any;
/// `None` means "use the process-global [`pool()`]".
pub fn pool_override() -> Option<Arc<WorkerPool>> {
    CURRENT_POOL.with(|c| c.borrow().clone())
}

/// Threads the calling thread's compute region should fan out over: the
/// installed override's [`WorkerPool::threads`] when inside
/// [`with_pool`], otherwise [`max_threads`]. The band-split helpers and
/// the BLAS-1 parallel gates size against this, so a partition group
/// never oversubscribes beyond its own share of the chip.
pub fn current_threads() -> usize {
    match pool_override() {
        Some(p) => p.threads(),
        None => max_threads(),
    }
}

/// A KNL-style chip partition (§6.2): `G` NUMA-like groups, each owning
/// a private [`WorkerPool`] — the thread-level analogue of splitting a
/// 68-core chip into groups that each hold a replica of the data and
/// weights in their own MCDRAM slice and only meet at a gradient
/// reduction.
///
/// [`PartitionedPool::run`] drives one closure per group on its own
/// scoped driver thread with the group's pool installed via
/// [`with_pool`], so every tensor kernel the closure calls (GEMM, the
/// banded elastic updates) parallelizes over that group's threads only.
/// Groups therefore scale like independent small chips: no shared queue,
/// no cross-group work stealing, communication only through whatever
/// shared state the caller hands the closures.
pub struct PartitionedPool {
    groups: Vec<Arc<WorkerPool>>,
}

impl PartitionedPool {
    /// A partition of the whole chip into `groups` groups, each with an
    /// equal share of [`max_threads`] (at least one thread per group —
    /// on small machines groups oversubscribe rather than disappear).
    ///
    /// # Panics
    /// Panics if `groups == 0`.
    pub fn new(groups: usize) -> Self {
        assert!(groups > 0, "need at least one partition group");
        Self::with_group_threads(groups, (max_threads() / groups).max(1))
    }

    /// A partition with an explicit per-group thread count.
    ///
    /// # Panics
    /// Panics if `groups == 0` or `threads_per_group == 0`.
    pub fn with_group_threads(groups: usize, threads_per_group: usize) -> Self {
        assert!(groups > 0, "need at least one partition group");
        assert!(threads_per_group > 0, "a group needs at least one thread");
        Self {
            groups: (0..groups)
                .map(|_| Arc::new(WorkerPool::new(threads_per_group - 1)))
                .collect(),
        }
    }

    /// Number of groups in the partition.
    pub fn groups(&self) -> usize {
        self.groups.len()
    }

    /// Threads per group (workers + the group's driver thread).
    pub fn group_threads(&self) -> usize {
        self.groups.iter().map(|p| p.threads()).max().unwrap_or(1)
    }

    /// The pool of group `g`.
    ///
    /// # Panics
    /// Panics if `g` is out of range.
    pub fn group(&self, g: usize) -> &Arc<WorkerPool> {
        &self.groups[g]
    }

    /// Runs `f(group_index)` once per group, each on its own driver
    /// thread with the group's pool installed ([`with_pool`]). Returns
    /// the results in group order.
    ///
    /// # Panics
    /// Propagates the panic if any group closure panicked.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .groups
                .iter()
                .enumerate()
                .map(|(g, pool)| {
                    let f = &f;
                    let pool = pool.clone();
                    s.spawn(move || with_pool(&pool, || f(g)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    }
}

// ---------------------------------------------------------------------------
// Scoped helpers for borrowed, memory-bound kernels.
// ---------------------------------------------------------------------------

/// Splits `x` into one contiguous chunk per thread and applies
/// `f(offset, chunk)` to each in parallel. Serial when a single chunk
/// would remain.
pub fn par_chunks_mut<F>(x: &mut [f32], f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    par_chunks_mut_bands(current_threads(), x, f);
}

/// [`par_chunks_mut`] with an explicit band count instead of
/// [`max_threads`] — the banded/serial bit-equivalence tests force a
/// band split even on single-core machines through this entry point.
pub fn par_chunks_mut_bands<F>(bands: usize, x: &mut [f32], f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let threads = bands.min(x.len());
    if threads <= 1 {
        f(0, x);
        return;
    }
    let chunk = x.len().div_ceil(threads);
    std::thread::scope(|s| {
        for (i, band) in x.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || f(i * chunk, band));
        }
    });
}

/// Parallel zip over one mutable and one shared slice of equal length:
/// `f(y_chunk, x_chunk)` on corresponding contiguous chunks.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn par_zip_mut<F>(y: &mut [f32], x: &[f32], f: F)
where
    F: Fn(&mut [f32], &[f32]) + Sync,
{
    par_zip_mut_bands(current_threads(), y, x, f);
}

/// [`par_zip_mut`] with an explicit band count (see
/// [`par_chunks_mut_bands`]).
pub fn par_zip_mut_bands<F>(bands: usize, y: &mut [f32], x: &[f32], f: F)
where
    F: Fn(&mut [f32], &[f32]) + Sync,
{
    assert_eq!(y.len(), x.len(), "par_zip_mut length mismatch");
    let threads = bands.min(y.len());
    if threads <= 1 {
        f(y, x);
        return;
    }
    let chunk = y.len().div_ceil(threads);
    std::thread::scope(|s| {
        for (yc, xc) in y.chunks_mut(chunk).zip(x.chunks(chunk)) {
            let f = &f;
            s.spawn(move || f(yc, xc));
        }
    });
}

/// Parallel zip over one mutable and two shared slices of equal length.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn par_zip2_mut<F>(out: &mut [f32], a: &[f32], b: &[f32], f: F)
where
    F: Fn(&mut [f32], &[f32], &[f32]) + Sync,
{
    par_zip2_mut_bands(current_threads(), out, a, b, f);
}

/// [`par_zip2_mut`] with an explicit band count (see
/// [`par_chunks_mut_bands`]).
pub fn par_zip2_mut_bands<F>(bands: usize, out: &mut [f32], a: &[f32], b: &[f32], f: F)
where
    F: Fn(&mut [f32], &[f32], &[f32]) + Sync,
{
    assert_eq!(out.len(), a.len(), "par_zip2_mut length mismatch");
    assert_eq!(out.len(), b.len(), "par_zip2_mut length mismatch");
    let threads = bands.min(out.len());
    if threads <= 1 {
        f(out, a, b);
        return;
    }
    let chunk = out.len().div_ceil(threads);
    std::thread::scope(|s| {
        for ((oc, ac), bc) in out
            .chunks_mut(chunk)
            .zip(a.chunks(chunk))
            .zip(b.chunks(chunk))
        {
            let f = &f;
            s.spawn(move || f(oc, ac, bc));
        }
    });
}

/// Parallel zip over two mutable and one shared slice of equal length
/// (the Eq. 3–4 momentum shape: weights and velocity updated in place
/// against the gradient).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn par_zip21_mut<F>(y1: &mut [f32], y2: &mut [f32], a: &[f32], f: F)
where
    F: Fn(&mut [f32], &mut [f32], &[f32]) + Sync,
{
    par_zip21_mut_bands(current_threads(), y1, y2, a, f);
}

/// [`par_zip21_mut`] with an explicit band count (see
/// [`par_chunks_mut_bands`]).
pub fn par_zip21_mut_bands<F>(bands: usize, y1: &mut [f32], y2: &mut [f32], a: &[f32], f: F)
where
    F: Fn(&mut [f32], &mut [f32], &[f32]) + Sync,
{
    assert_eq!(y1.len(), y2.len(), "par_zip21_mut length mismatch");
    assert_eq!(y1.len(), a.len(), "par_zip21_mut length mismatch");
    let threads = bands.min(y1.len());
    if threads <= 1 {
        f(y1, y2, a);
        return;
    }
    let chunk = y1.len().div_ceil(threads);
    std::thread::scope(|s| {
        for ((y1c, y2c), ac) in y1
            .chunks_mut(chunk)
            .zip(y2.chunks_mut(chunk))
            .zip(a.chunks(chunk))
        {
            let f = &f;
            s.spawn(move || f(y1c, y2c, ac));
        }
    });
}

/// Parallel zip over two mutable and two shared slices of equal length
/// (the Eq. 5–6 momentum-elastic update shape: weights and velocity
/// updated in place against gradient and center).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn par_zip22_mut<F>(y1: &mut [f32], y2: &mut [f32], a: &[f32], b: &[f32], f: F)
where
    F: Fn(&mut [f32], &mut [f32], &[f32], &[f32]) + Sync,
{
    par_zip22_mut_bands(current_threads(), y1, y2, a, b, f);
}

/// [`par_zip22_mut`] with an explicit band count (see
/// [`par_chunks_mut_bands`]).
pub fn par_zip22_mut_bands<F>(
    bands: usize,
    y1: &mut [f32],
    y2: &mut [f32],
    a: &[f32],
    b: &[f32],
    f: F,
) where
    F: Fn(&mut [f32], &mut [f32], &[f32], &[f32]) + Sync,
{
    assert_eq!(y1.len(), y2.len(), "par_zip22_mut length mismatch");
    assert_eq!(y1.len(), a.len(), "par_zip22_mut length mismatch");
    assert_eq!(y1.len(), b.len(), "par_zip22_mut length mismatch");
    let threads = bands.min(y1.len());
    if threads <= 1 {
        f(y1, y2, a, b);
        return;
    }
    let chunk = y1.len().div_ceil(threads);
    std::thread::scope(|s| {
        for (((y1c, y2c), ac), bc) in y1
            .chunks_mut(chunk)
            .zip(y2.chunks_mut(chunk))
            .zip(a.chunks(chunk))
            .zip(b.chunks(chunk))
        {
            let f = &f;
            s.spawn(move || f(y1c, y2c, ac, bc));
        }
    });
}

/// Applies `f(row_index, row)` to every `n`-element row of `c`,
/// fork-joining across available cores. `c.len()` must be a multiple of
/// `n`. Falls back to a serial loop when a single band would remain.
///
/// Compatibility shim: this is the seed's spawn-per-call fork-join,
/// retained so the frozen `gemm_naive` baseline exercises exactly the
/// threading it was benchmarked with. New code should use [`pool()`].
///
/// # Panics
/// Panics if `n == 0` or `c.len()` is not a multiple of `n`.
pub fn par_rows<F>(c: &mut [f32], n: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(n > 0, "row length must be positive");
    assert_eq!(c.len() % n, 0, "buffer is not a whole number of rows");
    let rows = c.len() / n;
    let threads = max_threads().min(rows);
    if threads <= 1 {
        for (i, row) in c.chunks_mut(n).enumerate() {
            f(i, row);
        }
        return;
    }
    // Ceil split so every band is non-empty and bands cover all rows.
    let rows_per_band = rows.div_ceil(threads);
    std::thread::scope(|s| {
        for (band_idx, band) in c.chunks_mut(rows_per_band * n).enumerate() {
            let f = &f;
            s.spawn(move || {
                let base = band_idx * rows_per_band;
                for (j, row) in band.chunks_mut(n).enumerate() {
                    f(base + j, row);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visits_every_row_exactly_once() {
        let n = 7;
        let rows = 129; // deliberately not a multiple of any thread count
        let mut c = vec![0.0f32; rows * n];
        par_rows(&mut c, n, |i, row| {
            for v in row.iter_mut() {
                *v += i as f32 + 1.0;
            }
        });
        for (i, chunk) in c.chunks(n).enumerate() {
            assert!(chunk.iter().all(|&v| v == i as f32 + 1.0), "row {i}");
        }
    }

    #[test]
    fn serial_fallback_single_row() {
        let mut c = vec![0.0f32; 5];
        par_rows(&mut c, 5, |i, row| row[0] = i as f32 + 3.0);
        assert_eq!(c[0], 3.0);
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn rejects_ragged_buffer() {
        let mut c = vec![0.0f32; 7];
        par_rows(&mut c, 3, |_, _| {});
    }

    #[test]
    fn pool_runs_tasks_in_order() {
        let pool = WorkerPool::new(2);
        let tasks: Vec<_> = (0..17).map(|i| move || i * i).collect();
        let out = pool.run(tasks);
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn pool_with_zero_workers_runs_inline() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.threads_spawned(), 0);
        let out = pool.run(vec![|| 41, || 42]);
        assert_eq!(out, vec![41, 42]);
    }

    #[test]
    fn pool_spawns_threads_exactly_once_across_repeated_use() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads_spawned(), 3);
        for round in 0..50 {
            let tasks: Vec<_> = (0..8).map(|i| move || round + i).collect();
            let out = pool.run(tasks);
            assert_eq!(out.len(), 8);
            // Every submission reuses the same parked workers.
            assert_eq!(pool.threads_spawned(), 3, "round {round}");
        }
    }

    #[test]
    fn worker_survives_job_panic() {
        let pool = WorkerPool::new(1);
        // Two tasks so `run` takes the queued path rather than inlining;
        // whichever thread executes the panicking job, `run` must
        // surface the panic to the submitter.
        type Task = Box<dyn FnOnce() -> i32 + Send>;
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(vec![
                Box::new(|| -> i32 { panic!("deliberate job panic") }) as Task,
                Box::new(|| 1) as Task,
            ])
        }));
        assert!(panicked.is_err());
        // The worker must still be alive afterwards: across repeated
        // submissions of briefly-sleeping jobs, at least one must land
        // on the pool thread. If the panic had killed the worker, every
        // job would run inline on this (test) thread.
        let mut saw_worker = false;
        for _ in 0..50 {
            let names = pool.run(
                (0..2)
                    .map(|_| {
                        || {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                            std::thread::current()
                                .name()
                                .map(str::to_string)
                                .unwrap_or_default()
                        }
                    })
                    .collect::<Vec<_>>(),
            );
            if names.iter().any(|n| n.starts_with("easgd-pool")) {
                saw_worker = true;
                break;
            }
        }
        assert!(saw_worker, "pool worker did not survive a panicking job");
    }

    #[test]
    fn nested_submission_runs_inline_without_deadlock() {
        let pool = Arc::new(WorkerPool::new(1));
        let inner = pool.clone();
        // The outer job occupies the single worker; its nested `run`
        // must execute inline instead of waiting on itself.
        let out = pool.run(vec![move || {
            inner.run(vec![|| 7, || 8]).iter().sum::<i32>()
        }]);
        assert_eq!(out, vec![15]);
    }

    #[test]
    fn global_pool_is_one_instance() {
        let a = pool() as *const WorkerPool;
        let b = pool() as *const WorkerPool;
        assert_eq!(a, b);
        assert_eq!(pool().threads_spawned(), pool().threads() - 1);
    }

    #[test]
    fn par_zip_mut_covers_all_elements() {
        let n = 100_003;
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let mut y = vec![1.0f32; n];
        par_zip_mut(&mut y, &x, |yc, xc| {
            for (yi, xi) in yc.iter_mut().zip(xc) {
                *yi += xi;
            }
        });
        for (i, v) in y.iter().enumerate() {
            assert_eq!(*v, 1.0 + i as f32);
        }
    }

    #[test]
    fn par_chunks_mut_offsets_are_consistent() {
        let n = 4099;
        let mut x = vec![0.0f32; n];
        par_chunks_mut(&mut x, |off, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (off + i) as f32;
            }
        });
        for (i, v) in x.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }

    #[test]
    fn par_zip21_mut_covers_all_elements() {
        let n = 10_007;
        let g: Vec<f32> = (0..n).map(|i| (i % 13) as f32).collect();
        let mut w = vec![1.0f32; n];
        let mut v = vec![0.5f32; n];
        par_zip21_mut(&mut w, &mut v, &g, |wc, vc, gc| {
            for ((wi, vi), gi) in wc.iter_mut().zip(vc.iter_mut()).zip(gc) {
                *vi = 0.9 * *vi - 0.1 * gi;
                *wi += *vi;
            }
        });
        for i in 0..n {
            let vi = 0.9f32 * 0.5 - 0.1 * g[i];
            assert_eq!(v[i], vi);
            assert_eq!(w[i], 1.0 + vi);
        }
    }

    #[test]
    fn forced_band_split_is_bit_identical_to_serial() {
        // Boundary-heavy length: not a multiple of the band counts below.
        let n = 4099;
        let a: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..n).map(|i| (i as f32).cos()).collect();
        let mut serial = vec![0.1f32; n];
        let kernel = |oc: &mut [f32], ac: &[f32], bc: &[f32]| {
            for ((o, x), y) in oc.iter_mut().zip(ac).zip(bc) {
                *o += 0.3 * (x - 0.7 * y);
            }
        };
        kernel(&mut serial, &a, &b);
        for bands in [2usize, 3, 5, 8] {
            let mut banded = vec![0.1f32; n];
            par_zip2_mut_bands(bands, &mut banded, &a, &b, kernel);
            for i in 0..n {
                assert_eq!(
                    serial[i].to_bits(),
                    banded[i].to_bits(),
                    "bands={bands} i={i}"
                );
            }
        }
    }

    #[test]
    fn par_zip2_mut_matches_serial() {
        let n = 50_001;
        let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
        let mut out = vec![0.0f32; n];
        par_zip2_mut(&mut out, &a, &b, |oc, ac, bc| {
            for ((o, x), y) in oc.iter_mut().zip(ac).zip(bc) {
                *o = x - y;
            }
        });
        for i in 0..n {
            assert_eq!(out[i], a[i] - b[i]);
        }
    }

    #[test]
    fn with_pool_overrides_current_threads_and_restores() {
        assert!(pool_override().is_none());
        assert_eq!(current_threads(), max_threads());
        let p = Arc::new(WorkerPool::new(3));
        let inner = with_pool(&p, || {
            assert!(pool_override().is_some());
            current_threads()
        });
        assert_eq!(inner, 4);
        assert!(pool_override().is_none());
        assert_eq!(current_threads(), max_threads());
    }

    #[test]
    fn with_pool_nests_and_restores_outer_override() {
        let outer = Arc::new(WorkerPool::new(1));
        let nested = Arc::new(WorkerPool::new(5));
        with_pool(&outer, || {
            assert_eq!(current_threads(), 2);
            let seen = with_pool(&nested, current_threads);
            assert_eq!(seen, 6);
            // The outer override must come back, not the global default.
            assert_eq!(current_threads(), 2);
        });
        assert!(pool_override().is_none());
    }

    #[test]
    fn with_pool_restores_on_unwind() {
        let p = Arc::new(WorkerPool::new(2));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_pool(&p, || panic!("deliberate"));
        }));
        assert!(caught.is_err());
        assert!(pool_override().is_none(), "override leaked past a panic");
    }

    #[test]
    fn partitioned_pool_runs_groups_in_order_with_own_pools() {
        let part = PartitionedPool::with_group_threads(4, 2);
        assert_eq!(part.groups(), 4);
        assert_eq!(part.group_threads(), 2);
        let expected: Vec<usize> = (0..4)
            .map(|g| Arc::as_ptr(part.group(g)) as usize)
            .collect();
        let out = part.run(|g| {
            let installed = pool_override().map(|p| Arc::as_ptr(&p) as usize);
            (g, installed, current_threads())
        });
        assert_eq!(out.len(), 4);
        for (g, row) in out.iter().enumerate() {
            assert_eq!(row.0, g, "results must come back in group order");
            assert_eq!(
                row.1,
                Some(expected[g]),
                "group {g} must see its own pool installed"
            );
            assert_eq!(row.2, 2, "group {g} threads");
        }
        // Distinct groups own distinct pools.
        assert!(expected.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn single_thread_groups_run_inline() {
        // A 1-thread group must never fan out: its pool has zero
        // workers, so any submitted work runs on the driver thread.
        let part = PartitionedPool::with_group_threads(3, 1);
        let out = part.run(|_| {
            assert_eq!(current_threads(), 1);
            let p = pool_override().expect("override installed");
            assert_eq!(p.threads_spawned(), 0);
            p.run(vec![|| std::thread::current().name().map(str::to_string)])
        });
        for row in out {
            // Driver threads are plain scoped threads (unnamed), never
            // the global pool's named workers.
            let name = row[0].clone().unwrap_or_default();
            assert!(!name.starts_with("easgd-pool"), "leaked onto {name}");
        }
    }

    #[test]
    fn partitioned_pool_propagates_group_panic() {
        let part = PartitionedPool::with_group_threads(2, 1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            part.run(|g| {
                if g == 1 {
                    panic!("group failure");
                }
                g
            })
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn equal_share_partition_never_drops_a_group() {
        // More groups than cores: every group still gets one thread.
        let part = PartitionedPool::new(max_threads() * 2);
        assert_eq!(part.groups(), max_threads() * 2);
        assert!(part.group_threads() >= 1);
    }
}
