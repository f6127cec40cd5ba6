//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the *subset* of `parking_lot`'s API that `clam-rs` uses, backed
//! by `std::sync` primitives. The semantic difference that matters — and
//! that this shim preserves — is that locks do not poison: a panic while
//! holding a guard leaves the lock usable, exactly as in `parking_lot`.
//! The other is that a [`Condvar`] notify with no thread waiting costs no
//! system call, as in `parking_lot` (std's futex condvar makes a
//! `FUTEX_WAKE` on every notify).

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A mutual-exclusion primitive with `parking_lot`'s non-poisoning API.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create a new mutex. `const` so it can back `static` items.
    #[must_use]
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the data.
    #[must_use]
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available. Never poisons.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(
                self.inner
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            ),
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (the caller holds `&mut`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// RAII guard for [`Mutex`].
///
/// Holds an `Option` internally so [`Condvar::wait`] can temporarily take
/// the underlying std guard (std's wait consumes it) and put it back —
/// giving `parking_lot`'s `wait(&mut guard)` signature on std foundations.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken during wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken during wait")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A reader-writer lock with `parking_lot`'s non-poisoning API.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Create a new reader-writer lock.
    #[must_use]
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the data.
    #[must_use]
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self
                .inner
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        }
    }

    /// Acquire exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self
                .inner
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_read() {
            Ok(g) => f.debug_tuple("RwLock").field(&&*g).finish(),
            Err(_) => f.write_str("RwLock(<locked>)"),
        }
    }
}

/// RAII shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// RAII exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A condition variable usable with [`MutexGuard`], `parking_lot` style:
/// `wait` borrows the guard mutably instead of consuming it.
///
/// A notify reaches the std condvar only while a thread is inside
/// `wait`/`wait_until`, so one that would wake nobody makes no system
/// call. A waiter is counted before `wait` releases the mutex, so this
/// loses no wake-up as long as each notifier changes the waiter's
/// predicate under that mutex (as std's futex condvar also needs). Every
/// notifier in this workspace does: a scheduler slot's grant and close,
/// the idle transition, a task's completion, an event's banked signal,
/// and a pending reply's outcome and reader offer (under the table lock).
pub struct Condvar {
    inner: std::sync::Condvar,
    /// Threads inside `wait`/`wait_until`. `Relaxed` is enough: it is
    /// changed under the waiter's mutex, which orders it against each
    /// notifier's predicate change, and it publishes no other data.
    waiters: AtomicUsize,
}

impl Condvar {
    /// Create a new condition variable.
    #[must_use]
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Atomically release the guard's lock and block until notified; the
    /// lock is re-acquired before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard taken during wait");
        self.waiters.fetch_add(1, Ordering::Relaxed);
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        guard.inner = Some(inner);
    }

    /// Like [`wait`](Condvar::wait), but return once `deadline` passes
    /// even without a notification.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: std::time::Instant,
    ) -> WaitTimeoutResult {
        let timeout = deadline.saturating_duration_since(std::time::Instant::now());
        let inner = guard.inner.take().expect("guard taken during wait");
        self.waiters.fetch_add(1, Ordering::Relaxed);
        let (inner, result) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        guard.inner = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }

    /// Wake one waiter. Returns whether a thread was waiting; with none,
    /// nothing is done.
    pub fn notify_one(&self) -> bool {
        if self.waiters.load(Ordering::Relaxed) == 0 {
            return false;
        }
        self.inner.notify_one();
        true
    }

    /// Wake all waiters. Returns how many threads were waiting (one woken
    /// but not yet holding its mutex again counts too); with none,
    /// nothing is done.
    pub fn notify_all(&self) -> usize {
        let waiters = self.waiters.load(Ordering::Relaxed);
        if waiters > 0 {
            self.inner.notify_all();
        }
        waiters
    }
}

/// Whether a [`Condvar::wait_until`] returned because its deadline passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True if the wait ended at the deadline rather than a notification.
    #[must_use]
    pub fn timed_out(self) -> bool {
        self.0
    }
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn mutex_locks_and_releases() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn mutex_survives_panic_without_poisoning() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 0, "lock usable after a panic");
    }

    #[test]
    fn rwlock_allows_many_readers() {
        let l = RwLock::new(5);
        let r1 = l.read();
        let r2 = l.read();
        assert_eq!(*r1 + *r2, 10);
        drop((r1, r2));
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
    }

    #[test]
    fn condvar_wait_round_trips_the_guard() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut g = m.lock();
            *g = true;
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock();
        while !*g {
            cv.wait(&mut g);
        }
        drop(g);
        t.join().unwrap();
    }

    /// Park one thread in `wait` on `pair`, then run `notify` while it is
    /// certainly parked; returns what `notify` returned once the thread
    /// has woken.
    fn notify_a_parked_waiter<R: Send + 'static>(
        notify: impl FnOnce(&Condvar) -> R + Send + 'static,
    ) -> R {
        let pair = Arc::new((Mutex::new(0u8), Condvar::new()));
        let (done, woke) = std::sync::mpsc::channel();
        let waiter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (m, cv) = &*pair;
                let mut g = m.lock();
                *g = 1; // parked from here until it reads 2
                while *g != 2 {
                    cv.wait(&mut g);
                }
                done.send(()).unwrap();
            })
        };
        let (m, cv) = &*pair;
        loop {
            let mut g = m.lock();
            // The waiter holds the lock from setting 1 until `wait`
            // releases it, so reading 1 here means it is inside `wait`.
            if *g == 1 {
                *g = 2;
                let woken = notify(cv);
                drop(g);
                woke.recv_timeout(Duration::from_secs(10))
                    .expect("the notify woke the parked waiter");
                waiter.join().unwrap();
                return woken;
            }
            drop(g);
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_notify_with_no_waiter_wakes_nobody() {
        let cv = Condvar::new();
        assert!(!cv.notify_one());
        assert_eq!(cv.notify_all(), 0);
        // A waiter that has come and gone leaves no count behind.
        let m = Mutex::new(());
        let mut g = m.lock();
        let _ = cv.wait_until(&mut g, Instant::now());
        assert!(!cv.notify_one());
        assert_eq!(cv.notify_all(), 0);
    }

    #[test]
    fn a_notify_wakes_a_parked_waiter() {
        assert!(notify_a_parked_waiter(Condvar::notify_one));
        assert_eq!(notify_a_parked_waiter(Condvar::notify_all), 1);
    }

    /// Two threads hand a turn back and forth 100,000 times each, every
    /// handoff a flag change under the mutex and one notify. One thread
    /// waits with `wait`, the other with `wait_until`: a long deadline
    /// that only a lost wake-up runs out, and every 64th handoff a short
    /// one that may.
    #[test]
    fn handoffs_lose_no_wake_up() {
        const HANDOFFS: u64 = 100_000;
        let shared = Arc::new((Mutex::new(0u64), Condvar::new()));
        let (done, finished) = std::sync::mpsc::channel();
        let threads: Vec<_> = (0..2)
            .map(|parity| {
                let (shared, done) = (Arc::clone(&shared), done.clone());
                std::thread::spawn(move || {
                    let (turn, cv) = &*shared;
                    for i in 0..HANDOFFS {
                        let mut t = turn.lock();
                        while *t % 2 != parity {
                            if parity == 0 {
                                cv.wait(&mut t);
                                continue;
                            }
                            let short = i % 64 == 0;
                            let wait = if short { 20 } else { 10_000_000 };
                            let deadline = Instant::now() + Duration::from_micros(wait);
                            let timed_out = cv.wait_until(&mut t, deadline).timed_out();
                            assert!(short || !timed_out, "a wake-up was lost at handoff {i}");
                        }
                        *t += 1;
                        cv.notify_one();
                    }
                    done.send(()).unwrap();
                })
            })
            .collect();
        for _ in 0..2 {
            finished
                .recv_timeout(Duration::from_secs(60))
                .expect("a wake-up was lost");
        }
        threads.into_iter().for_each(|t| t.join().unwrap());
        assert_eq!(*shared.0.lock(), 2 * HANDOFFS);
    }

    #[test]
    fn condvar_wait_until_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let start = std::time::Instant::now();
        let deadline = start + std::time::Duration::from_millis(20);
        while !cv.wait_until(&mut g, deadline).timed_out() {}
        assert!(start.elapsed() >= std::time::Duration::from_millis(20));
    }
}
