//! Events: the blocking/wakeup primitive of the paper's thread class.
//!
//! "A task can voluntarily block itself by waiting on a specific event.
//! The task is reactivated when that event occurs." Events carry memory —
//! a signal with no waiter is banked and satisfies the next wait — so the
//! signal/wait race is benign in either order.
//!
//! Signals may come from tasks of the same scheduler (the woken task
//! becomes ready; the signaler keeps the processor, preserving
//! non-preemption) or from foreign OS threads such as a reader (the
//! woken task is dispatched immediately if the scheduler is idle).
//! Foreign threads may also *wait* on an event; they block on a condition
//! variable rather than participating in task scheduling.

use crate::scheduler::{
    before_block, block_current_task, current_task_of, wake_picked_task, SchedInner, Scheduler,
    Slot,
};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

#[derive(Debug)]
struct EventState {
    /// Banked signals not yet consumed by a waiter.
    pending: u64,
    /// Slots of the tasks blocked on this event, woken FIFO.
    task_waiters: VecDeque<Arc<Slot>>,
}

/// A blocking/wakeup event (counting semantics).
///
/// See the [module documentation](self::Event#) above for the scheduling rules.
#[derive(Debug)]
pub struct Event {
    sched: Arc<SchedInner>,
    state: Mutex<EventState>,
    external_cv: Condvar,
}

impl Event {
    /// Create an event bound to `sched`'s task universe.
    #[must_use]
    pub fn new(sched: &Scheduler) -> Event {
        Event {
            sched: Arc::clone(sched.inner()),
            state: Mutex::new(EventState {
                pending: 0,
                task_waiters: VecDeque::new(),
            }),
            external_cv: Condvar::new(),
        }
    }

    /// Block until the event is signaled. Consumes one banked signal if
    /// available, otherwise waits.
    ///
    /// From a task of the owning scheduler this blocks *the task* (other
    /// tasks run meanwhile); from any other thread it blocks the thread.
    pub fn wait(&self) {
        if current_task_of(&self.sched).is_some() {
            self.wait_as_task();
        } else {
            self.wait_external();
        }
    }

    fn wait_as_task(&self) {
        // Fast path: consume a banked signal without blocking.
        {
            let mut ev = self.state.lock();
            if ev.pending > 0 {
                ev.pending -= 1;
                return;
            }
        }
        before_block();
        // Slow path: re-check under the scheduler state lock. The wake
        // path takes that lock before touching the event, so a signal
        // that slipped in since the fast-path check is visible here and
        // aborts the block.
        block_current_task(&self.sched, |me| {
            let mut ev = self.state.lock();
            if ev.pending > 0 {
                ev.pending -= 1;
                false // signal already arrived; do not block
            } else {
                ev.task_waiters.push_back(Arc::clone(me));
                true
            }
        });
    }

    fn wait_external(&self) {
        let mut ev = self.state.lock();
        while ev.pending == 0 {
            self.external_cv.wait(&mut ev);
        }
        ev.pending -= 1;
    }

    /// Signal the event: wake the oldest waiter, or bank the signal if no
    /// one is waiting.
    pub fn signal(&self) {
        wake_picked_task(&self.sched, || {
            let mut ev = self.state.lock();
            let waiter = ev.task_waiters.pop_front();
            if waiter.is_none() {
                ev.pending += 1;
                self.external_cv.notify_one();
            }
            waiter
        });
    }

    /// Number of banked (unconsumed) signals.
    #[must_use]
    pub fn pending(&self) -> u64 {
        self.state.lock().pending
    }
}
