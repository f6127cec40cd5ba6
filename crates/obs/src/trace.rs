//! Causal trace identity and the per-thread current span.
//!
//! A [`TraceContext`] is the pair carried in every RPC message header: a
//! 16-byte [`TraceId`] naming the whole causal tree and an 8-byte
//! [`SpanId`] naming the node under which the receiver's work hangs. The
//! context travels *with* the control flow: a caller opens a child span
//! for each traced call and sends it on the wire; the server installs it
//! as the thread's current context while dispatching; an upcall issued
//! from inside that dispatch opens a further child and carries it back to
//! the client. Stitching the journals of both processes on shared span
//! ids yields one tree.
//!
//! The "current" context is a thread-local. That is sound here because
//! the `clam-task` scheduler is non-preemptive and pins a task to its
//! worker thread across block/resume: while a task holds a thread, no
//! other task's spans can interleave on it.

use std::cell::Cell;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// 16-byte identity of one causal tree. Zero means "no trace".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct TraceId(pub u128);

/// 8-byte identity of one node in a trace. Zero means "no span".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl TraceId {
    /// The absent trace id.
    pub const NONE: TraceId = TraceId(0);

    /// 32 lowercase hex digits, the wire-adjacent textual form.
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse the form produced by [`TraceId::to_hex`].
    #[must_use]
    pub fn from_hex(s: &str) -> Option<TraceId> {
        u128::from_str_radix(s, 16).ok().map(TraceId)
    }
}

impl SpanId {
    /// The absent span id.
    pub const NONE: SpanId = SpanId(0);

    /// 16 lowercase hex digits.
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parse the form produced by [`SpanId::to_hex`].
    #[must_use]
    pub fn from_hex(s: &str) -> Option<SpanId> {
        u64::from_str_radix(s, 16).ok().map(SpanId)
    }
}

/// The (trace, span) pair carried in RPC message headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceContext {
    /// The causal tree this work belongs to.
    pub trace: TraceId,
    /// The node naming this unit of work within the tree.
    pub span: SpanId,
}

impl TraceContext {
    /// The absent context (all zeros on the wire).
    pub const NONE: TraceContext = TraceContext {
        trace: TraceId(0),
        span: SpanId(0),
    };

    /// True if this context names no trace.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.trace.0 == 0
    }

    /// A fresh root: new trace id, new span id.
    #[must_use]
    pub fn new_root() -> TraceContext {
        TraceContext {
            trace: TraceId(u128::from(unique_id()) << 64 | u128::from(unique_id())),
            span: SpanId(unique_id()),
        }
    }

    /// A child of this context: same trace, fresh span. A child of
    /// [`TraceContext::NONE`] is a fresh root.
    #[must_use]
    pub fn child(&self) -> TraceContext {
        if self.is_none() {
            return TraceContext::new_root();
        }
        TraceContext {
            trace: self.trace,
            span: SpanId(unique_id()),
        }
    }
}

/// Ids a thread takes from the process-wide counter at a time.
const ID_BLOCK: u64 = 1024;

thread_local! {
    /// The rest of this thread's block of counter values: `next..end`.
    static IDS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Output `n` of the SplitMix64 stream that starts at `seed`: the
/// finalizer over `seed + n·φ` (φ the golden-ratio increment). A
/// generator seeded with `seed` draws `splitmix64(seed, 1)`,
/// `splitmix64(seed, 2)`, and so on; [`unique_id`] is the same function
/// of a per-process seed and a counter value.
#[must_use]
pub fn splitmix64(seed: u64, n: u64) -> u64 {
    let mut z = seed.wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An id no other call in this process returns, and never 0: span and
/// trace ids, handle tags, connection nonces. It is [`splitmix64`] over a
/// per-process random seed (from the hasher entropy `std` already owns,
/// plus the pid so forked address spaces diverge) and a counter value no
/// other id took. Each thread takes its values a block at a time from one
/// atomic counter, so drawing an id touches no line another thread
/// writes. Across processes collision odds are the birthday bound on 64
/// bits.
#[must_use]
pub fn unique_id() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let seed = *SEED.get_or_init(|| {
        let mut h = RandomState::new().build_hasher();
        h.write_u32(std::process::id());
        h.finish() | 1
    });
    let n = IDS.with(|ids| {
        let (mut next, mut end) = ids.get();
        if next == end {
            next = COUNTER.fetch_add(ID_BLOCK, Ordering::Relaxed);
            end = next + ID_BLOCK;
        }
        ids.set((next + 1, end));
        next
    });
    // Zero would read as "none" (no span, the nil handle); guard it.
    match splitmix64(seed, n) {
        0 => 1,
        z => z,
    }
}

thread_local! {
    static CURRENT: Cell<TraceContext> = const { Cell::new(TraceContext::NONE) };
}

/// The calling thread's current trace context ([`TraceContext::NONE`]
/// outside any traced scope).
#[must_use]
#[inline]
pub fn current() -> TraceContext {
    CURRENT.with(Cell::get)
}

/// Install `ctx` as the thread's current context until the returned
/// guard drops, then restore the previous one. Scopes nest.
#[must_use]
pub fn enter(ctx: TraceContext) -> TraceScope {
    let prev = CURRENT.with(|c| c.replace(ctx));
    TraceScope { prev }
}

/// RAII guard from [`enter`]; restores the previous context on drop.
#[derive(Debug)]
pub struct TraceScope {
    prev: TraceContext,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roots_are_distinct_and_nonzero() {
        let a = TraceContext::new_root();
        let b = TraceContext::new_root();
        assert!(!a.is_none() && !b.is_none());
        assert_ne!(a.trace, b.trace);
        assert_ne!(a.span, b.span);
    }

    #[test]
    fn children_share_the_trace_with_fresh_spans() {
        let root = TraceContext::new_root();
        let kid = root.child();
        assert_eq!(kid.trace, root.trace);
        assert_ne!(kid.span, root.span);
        // A child of NONE starts a new tree.
        let orphan = TraceContext::NONE.child();
        assert!(!orphan.is_none());
    }

    #[test]
    fn enter_scopes_nest_and_restore() {
        assert!(current().is_none());
        let a = TraceContext::new_root();
        let b = a.child();
        {
            let _ga = enter(a);
            assert_eq!(current(), a);
            {
                let _gb = enter(b);
                assert_eq!(current(), b);
            }
            assert_eq!(current(), a);
        }
        assert!(current().is_none());
    }

    #[test]
    fn ids_drawn_on_many_threads_are_distinct() {
        let drawn: Vec<Vec<u64>> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..10_000).map(|_| unique_id()).collect()))
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        let distinct: std::collections::HashSet<u64> = drawn.iter().flatten().copied().collect();
        assert_eq!(distinct.len(), 40_000);
    }

    #[test]
    fn hex_round_trips() {
        let ctx = TraceContext::new_root();
        assert_eq!(TraceId::from_hex(&ctx.trace.to_hex()), Some(ctx.trace));
        assert_eq!(SpanId::from_hex(&ctx.span.to_hex()), Some(ctx.span));
        assert_eq!(ctx.trace.to_hex().len(), 32);
        assert_eq!(ctx.span.to_hex().len(), 16);
    }
}
