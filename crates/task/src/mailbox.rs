//! Mailboxes: where a serving task waits for requests.
//!
//! Section 4.4's server main task is "initially blocked, and is unblocked
//! on receipt" of a request. The server's read thread pushes what it
//! reads into a [`Mailbox`]; the serving task receives in order, and
//! drains the queue once the reader closes it.

use crate::event::Event;
use crate::scheduler::Scheduler;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

/// A FIFO queue whose consumer blocks as a task (see [`Event::wait`]).
#[derive(Debug)]
pub struct Mailbox<T> {
    queue: Mutex<VecDeque<T>>,
    event: Event,
    closed: AtomicBool,
}

impl<T> Mailbox<T> {
    /// An empty, open mailbox whose consumer blocks on `sched`.
    #[must_use]
    pub fn new(sched: &Scheduler) -> Mailbox<T> {
        Mailbox {
            queue: Mutex::new(VecDeque::new()),
            event: Event::new(sched),
            closed: AtomicBool::new(false),
        }
    }

    /// Queue `item` and wake the consumer.
    pub fn push(&self, item: T) {
        self.queue.lock().push_back(item);
        self.event.signal();
    }

    /// Close the mailbox: once the queue is drained, [`recv`](Self::recv)
    /// returns `None`.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.event.signal();
    }

    /// True once [`close`](Self::close) has been called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// The next queued item, blocking the calling task (or thread) until
    /// one arrives; `None` once the mailbox is closed and drained.
    pub fn recv(&self) -> Option<T> {
        loop {
            // Read the flag before popping: whatever was pushed before
            // `close` is then visible to the pop, so nothing is lost.
            let closed = self.is_closed();
            if let Some(item) = self.queue.lock().pop_front() {
                return Some(item);
            }
            if closed {
                return None;
            }
            self.event.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn delivers_in_order_and_drains_after_close() {
        let sched = Scheduler::new("mailbox-test");
        let m = Mailbox::new(&sched);
        m.push(1);
        m.push(2);
        assert_eq!(m.recv(), Some(1));
        assert_eq!(m.recv(), Some(2));
        m.push(3);
        m.close();
        assert_eq!(m.recv(), Some(3), "drain after close");
        assert_eq!(m.recv(), None);
        assert!(m.is_closed());
    }

    #[test]
    fn a_blocked_task_is_woken_by_push_and_by_close() {
        let sched = Scheduler::new("mailbox-wake");
        let m = Arc::new(Mailbox::new(&sched));
        let got = Arc::new(Mutex::new(Vec::new()));
        let consumer = {
            let (m, got) = (Arc::clone(&m), Arc::clone(&got));
            sched.spawn("consumer", move || {
                while let Some(v) = m.recv() {
                    got.lock().push(v);
                }
            })
        };
        let m2 = Arc::clone(&m);
        std::thread::spawn(move || {
            for v in 0..5 {
                m2.push(v);
                std::thread::yield_now();
            }
            m2.close();
        })
        .join()
        .unwrap();
        consumer.join().unwrap();
        assert_eq!(*got.lock(), vec![0, 1, 2, 3, 4]);
    }
}
