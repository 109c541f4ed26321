//! The cluster-wide payload buffer pool: recycled `Vec<f32>` storage for
//! every message and collective result, plus the counting instrumentation
//! behind `BENCH_comm.json`'s allocs-per-step and bytes-moved columns.
//!
//! Ownership rules (DESIGN.md §10): a buffer is owned by exactly one of
//! (a) the rank that took it from the pool, (b) a `Message` in flight,
//! or (c) the gate's result store. Point-to-point payloads migrate with
//! the message — the *receiver* recycles them — so the pool is shared
//! across the whole cluster: asymmetric traffic (the CPU rank streaming
//! batches to the GPUs) drains nobody. Buffers are handed out
//! size-matched ([`best_fit`]), so kilobyte batch messages and
//! parameter-sized exchange messages share one list without either
//! spending or regrowing the other's buffers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counter snapshot of pool activity (see [`BufferPool::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out that required a fresh heap allocation.
    pub fresh: u64,
    /// Reused buffers whose capacity had to grow (a realloc).
    pub grown: u64,
    /// Buffers handed out without touching the allocator.
    pub reused: u64,
    /// Payload bytes copied through the exchange path (sends into
    /// messages, gate combine traffic, results copied out).
    pub bytes_copied: u64,
}

impl PoolStats {
    /// Total allocator events: fresh buffers plus capacity growths.
    pub fn allocations(&self) -> u64 {
        self.fresh + self.grown
    }

    /// Counter-wise difference `self − earlier` (for per-window deltas).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            fresh: self.fresh - earlier.fresh,
            grown: self.grown - earlier.grown,
            reused: self.reused - earlier.reused,
            bytes_copied: self.bytes_copied - earlier.bytes_copied,
        }
    }
}

/// Index of the smallest buffer in `free` whose capacity is at least
/// `len`, if any.
///
/// Size-matched reuse is what keeps a mixed exchange allocation-free: a
/// training round recycles kilobyte batch messages and parameter-sized
/// (tens of MB) tree messages through the same lists, and handing out
/// whatever was recycled last would spend a parameter buffer on a batch
/// message and then grow a batch buffer to parameter size — a fresh
/// multi-megabyte allocation, and its page faults, every round.
fn best_fit(free: &[Vec<f32>], len: usize) -> Option<usize> {
    free.iter()
        .enumerate()
        .filter(|(_, buf)| buf.capacity() >= len)
        .min_by_key(|(_, buf)| buf.capacity())
        .map(|(i, _)| i)
}

/// A mutex-guarded free list of `Vec<f32>` buffers with allocation and
/// copy counters. All counters are `Relaxed`: they are statistics — no
/// memory is published through them, and the bench reads them only after
/// the cluster's threads have joined.
#[derive(Default)]
pub struct BufferPool {
    free: Mutex<Vec<Vec<f32>>>,
    fresh: AtomicU64,
    grown: AtomicU64,
    reused: AtomicU64,
    bytes_copied: AtomicU64,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared buffer with capacity ≥ `len`: the smallest free
    /// buffer that fits ([`best_fit`]), or a fresh allocation when none
    /// does. Zero-length requests return a fresh `Vec::new()` without
    /// touching the pool or the counters (an empty `Vec` never
    /// allocates).
    pub fn take(&self, len: usize) -> Vec<f32> {
        if len == 0 {
            return Vec::new();
        }
        let fitted = {
            let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
            best_fit(&free, len).map(|i| free.swap_remove(i))
        };
        match fitted {
            Some(mut buf) => {
                buf.clear();
                // ordering: statistics counter, see type docs.
                self.reused.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                // ordering: statistics counter, see type docs.
                self.fresh.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(len)
            }
        }
    }

    /// Returns a buffer to the free list. Capacity-less buffers are
    /// dropped — recycling them would only inflate the list.
    pub fn put(&self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        free.push(buf);
    }

    /// Records `bytes` of payload copied through the exchange path.
    pub fn note_copy(&self, bytes: usize) {
        // ordering: statistics counter, see type docs.
        self.bytes_copied.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records one allocator event on a buffer managed *outside* the free
    /// list (a caller-provided `_into` output or gate input slot growing
    /// its capacity) so allocs-per-step counts every allocation on the
    /// exchange path, pooled or not.
    pub fn note_external_alloc(&self) {
        // ordering: statistics counter, see type docs.
        self.grown.fetch_add(1, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            // ordering: statistics counters, see type docs.
            fresh: self.fresh.load(Ordering::Relaxed),
            grown: self.grown.load(Ordering::Relaxed), // ordering: statistics counter
            reused: self.reused.load(Ordering::Relaxed), // ordering: statistics counter
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed), // ordering: statistics counter
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_then_put_then_take_reuses() {
        let pool = BufferPool::new();
        let mut a = pool.take(16);
        a.extend_from_slice(&[1.0; 16]);
        pool.put(a);
        let b = pool.take(8);
        assert!(b.is_empty(), "recycled buffer must come back cleared");
        assert!(b.capacity() >= 16);
        let s = pool.stats();
        assert_eq!((s.fresh, s.reused, s.grown), (1, 1, 0));
        assert_eq!(s.allocations(), 1);
    }

    #[test]
    fn a_request_no_free_buffer_fits_allocates_and_keeps_the_small_one() {
        let pool = BufferPool::new();
        let a = pool.take(4);
        pool.put(a);
        let b = pool.take(1024);
        assert!(b.capacity() >= 1024);
        assert_eq!(pool.stats().allocations(), 2);
        // The small buffer stayed small and serves the next small take.
        let c = pool.take(4);
        assert!(c.capacity() < 1024);
        assert_eq!(pool.stats().allocations(), 2);
    }

    #[test]
    fn take_hands_out_the_smallest_buffer_that_fits() {
        let pool = BufferPool::new();
        let bufs: Vec<_> = [64, 8, 4096, 16].iter().map(|&n| pool.take(n)).collect();
        for b in bufs {
            pool.put(b);
        }
        assert_eq!(pool.take(10).capacity(), 16);
        assert_eq!(pool.take(1000).capacity(), 4096);
        assert_eq!(pool.take(8).capacity(), 8);
        assert_eq!(pool.take(8).capacity(), 64);
        assert_eq!(pool.stats().allocations(), 4);
    }

    #[test]
    fn mixed_batch_and_parameter_rounds_stop_allocating_after_round_one() {
        // Replays the event backend's order of one Sync EASGD round per
        // iteration: the data rank takes one batch buffer per worker,
        // every batch buffer is recycled before the parameter messages
        // (tree broadcast and reduce hops) take theirs, and those are
        // recycled in turn. Whatever was recycled last is parameter-
        // sized when the next round's batch takes start, so a LIFO list
        // spent it on a batch message and grew a batch buffer to
        // parameter size instead.
        const BATCH: usize = 3 + 4 + 4 * 784;
        const PARAMS: usize = 1 << 16;
        const WORKERS: usize = 4;
        let pool = BufferPool::new();
        let mut warm = PoolStats::default();
        for round in 0..6 {
            let batches: Vec<_> = (0..WORKERS).map(|_| pool.take(BATCH)).collect();
            for b in batches {
                pool.put(b);
            }
            // Three broadcast and three reduce hops in a 4-rank tree,
            // two of them in flight at once.
            for _ in 0..3 {
                let x = pool.take(PARAMS);
                let y = pool.take(PARAMS);
                pool.put(x);
                pool.put(y);
            }
            if round == 0 {
                warm = pool.stats();
            }
        }
        let steady = pool.stats().since(&warm);
        assert_eq!((steady.fresh, steady.grown), (0, 0), "{steady:?}");
    }

    #[test]
    fn zero_length_takes_are_free() {
        let pool = BufferPool::new();
        let v = pool.take(0);
        assert_eq!(v.capacity(), 0);
        pool.put(v);
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    fn stats_since_subtracts() {
        let pool = BufferPool::new();
        let _ = pool.take(8);
        let before = pool.stats();
        let _ = pool.take(8);
        pool.note_copy(32);
        let d = pool.stats().since(&before);
        assert_eq!(d.fresh, 1);
        assert_eq!(d.bytes_copied, 32);
    }
}
