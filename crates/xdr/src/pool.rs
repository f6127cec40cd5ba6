//! A shared pool of reusable byte buffers for the wire path.
//!
//! The zero-copy encode→frame→send pipeline moves each frame's backing
//! `Vec<u8>` end to end: the batcher encodes into a pooled buffer, the
//! transport writes it, and the frame, which holds its pool, gives the
//! buffer back here when it drops (`clam_net::Frame`); the next call
//! acquires it back with its capacity intact. At steady state no
//! wire-path allocation happens at all — every buffer in flight came
//! from (and returns to) a [`BufferPool`].
//!
//! The pool lives in `clam-xdr` (the lowest crate on the wire path) so the
//! encoder, the framing layer, and the transports can all share one type
//! without a dependency cycle. It uses `std::sync::Mutex` directly so this
//! crate depends on nothing but `std` and `clam-obs`.
//!
//! Each pool counts in `xdr.pool.*` counters of its own
//! ([`BufferPool::metrics`]), which the global snapshot sums.

use std::sync::{Arc, Mutex};

/// The most idle buffers a pool retains.
pub const DEFAULT_MAX_BUFFERS: usize = 32;

/// High-water capacity: a recycled buffer holding more than this is
/// trimmed back so one huge frame cannot pin its capacity forever.
pub const DEFAULT_TRIM_CAPACITY: usize = 256 * 1024;

/// Capacity of a buffer the pool makes when it is dry: any small frame
/// (a sync call, an upcall, a reply of a few words) fits without growing,
/// so a buffer that carried a short reply never has to grow later to
/// take a slightly longer frame.
const FRESH_CAPACITY: usize = 256;

clam_obs::counters! {
    struct PoolCounters {
        /// Acquisitions served from the free list (no allocation).
        hits: "xdr.pool.hits",
        /// Acquisitions that found the pool dry and made a buffer.
        misses: "xdr.pool.misses",
        /// Buffers returned via [`BufferPool::recycle`].
        recycled: "xdr.pool.recycled",
        /// Recycled buffers dropped because the free list was full.
        dropped: "xdr.pool.dropped",
    }
}

struct PoolInner {
    free: Mutex<Vec<Vec<u8>>>,
    counters: PoolCounters,
}

/// A thread-safe pool of reusable `Vec<u8>` buffers, retaining at most
/// [`DEFAULT_MAX_BUFFERS`] idle ones, each trimmed to at most
/// [`DEFAULT_TRIM_CAPACITY`] bytes of capacity on recycle.
///
/// Cloning a `BufferPool` produces another handle to the *same* pool, so
/// a reader, the encoders of a connection's tasks and every frame they
/// make can hold it, all feeding one free list.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl BufferPool {
    /// Take a cleared buffer from the pool, or a fresh empty one if the
    /// pool is dry. The returned buffer has `len() == 0`; a pooled buffer
    /// keeps its previous capacity, which is the whole point.
    #[must_use]
    pub fn acquire(&self) -> Vec<u8> {
        let counters = &self.inner.counters;
        let mut free = self.inner.free.lock().unwrap_or_else(|e| e.into_inner());
        // The pool's counters are written only under its lock.
        match free.pop() {
            Some(buf) => {
                counters.hits.add_exclusive(1);
                drop(free);
                debug_assert!(buf.is_empty(), "pooled buffers are stored cleared");
                buf
            }
            None => {
                counters.misses.add_exclusive(1);
                drop(free);
                Vec::with_capacity(FRESH_CAPACITY)
            }
        }
    }

    /// Return a spent buffer to the pool. The buffer is cleared; capacity
    /// above the high-water mark is trimmed; if the pool is already full
    /// the buffer is dropped.
    pub fn recycle(&self, mut buf: Vec<u8>) {
        buf.clear();
        if buf.capacity() > DEFAULT_TRIM_CAPACITY {
            buf.shrink_to(DEFAULT_TRIM_CAPACITY);
        }
        let counters = &self.inner.counters;
        let mut free = self.inner.free.lock().unwrap_or_else(|e| e.into_inner());
        counters.recycled.add_exclusive(1);
        if free.len() < DEFAULT_MAX_BUFFERS {
            free.push(buf);
        } else {
            counters.dropped.add_exclusive(1);
            drop(free);
        }
    }

    /// Number of idle buffers currently pooled.
    #[must_use]
    pub fn idle(&self) -> usize {
        self.inner
            .free
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// This pool's own `xdr.pool.*` counts, keyed by catalogue name.
    #[must_use]
    pub fn metrics(&self) -> clam_obs::MetricsSnapshot {
        self.inner.counters.metrics()
    }
}

impl Default for BufferPool {
    fn default() -> BufferPool {
        BufferPool {
            inner: Arc::new(PoolInner {
                free: Mutex::new(Vec::with_capacity(DEFAULT_MAX_BUFFERS)),
                counters: PoolCounters::register(),
            }),
        }
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("idle", &self.idle())
            .field("metrics", &self.metrics())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_recycle_retains_capacity() {
        let pool = BufferPool::default();
        let mut buf = pool.acquire();
        buf.extend_from_slice(&[0u8; 1024]);
        let cap = buf.capacity();
        pool.recycle(buf);

        let buf = pool.acquire();
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), cap, "capacity survives the round trip");
        let m = pool.metrics();
        assert_eq!(
            (m.counter("xdr.pool.hits"), m.counter("xdr.pool.misses")),
            (1, 1)
        );
    }

    #[test]
    fn clones_share_one_free_list() {
        let pool = BufferPool::default();
        let other = pool.clone();
        other.recycle(Vec::with_capacity(64));
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.acquire().capacity(), 64);
    }

    #[test]
    fn full_pool_drops_excess_buffers() {
        let pool = BufferPool::default();
        for _ in 0..=DEFAULT_MAX_BUFFERS {
            pool.recycle(Vec::with_capacity(8));
        }
        assert_eq!(pool.idle(), DEFAULT_MAX_BUFFERS);
        assert_eq!(pool.metrics().counter("xdr.pool.dropped"), 1);
    }

    #[test]
    fn oversized_buffers_are_trimmed_on_recycle() {
        let pool = BufferPool::default();
        let spike = 4 * DEFAULT_TRIM_CAPACITY;
        pool.recycle(Vec::with_capacity(spike));
        let buf = pool.acquire();
        assert!(
            buf.capacity() >= DEFAULT_TRIM_CAPACITY,
            "capacity {} should be trimmed toward the high-water mark",
            buf.capacity()
        );
        assert!(buf.capacity() < spike, "trim must shed the spike");
    }

    #[test]
    fn steady_state_acquire_is_allocation_free_in_capacity_terms() {
        let pool = BufferPool::default();
        // Prime the pool.
        let mut buf = pool.acquire();
        buf.extend_from_slice(&[7u8; 512]);
        pool.recycle(buf);
        // Ten round trips must all be hits.
        for _ in 0..10 {
            let mut buf = pool.acquire();
            buf.extend_from_slice(&[7u8; 512]);
            pool.recycle(buf);
        }
        assert_eq!(pool.metrics().counter("xdr.pool.misses"), 1);
        assert_eq!(pool.metrics().counter("xdr.pool.hits"), 10);
    }
}
