//! Non-preemptive user-level tasks for `clam-rs`.
//!
//! The CLAM paper (section 4.3) structures asynchrony with *tasks*:
//! lightweight threads supported at user level, scheduled
//! **non-preemptively** — a task runs until it voluntarily blocks on an
//! event, yields, or exits. The thread class provides creation, deletion,
//! blocking, and resumption, and finished tasks are *reused* rather than
//! recreated, "to reduce overhead".
//!
//! This crate reproduces that model. Each [`Scheduler`] admits **at most
//! one running task at a time**; a task switch happens only at
//! [`Scheduler::yield_now`], [`Event::wait`], [`JoinHandle::join`], or task
//! exit. Under the hood every task is an OS thread gated by a baton, but
//! application code observes exactly the paper's discipline: no preemption,
//! no interleaving between tasks of one scheduler, real blocking semantics.
//! Each worker thread parks on one slot of its own, whether it waits in
//! the pool for a task or its task waits for the processor; the ready
//! queue and the event waiter lists hold those slots, woken in FIFO order.
//! Worker threads are pooled and reused across tasks (the paper's reuse
//! rule); [`Scheduler::metrics`] reads how often the pool was hit so the
//! bench suite can measure the saving. Pooled workers exit on
//! [`Scheduler::shutdown`] or when the scheduler's last handle drops.
//!
//! Events may be signaled from *outside* the scheduler, and a task may
//! step outside it for a blocking read ([`Scheduler::outside`]): the
//! RPC and upcall layers read each reply and upcall on the thread of the
//! task that waits for it, and wake the other waiters through events.
//! A task that holds something other tasks need — the server's session
//! task holds its RPC channel's reader while it serves — can have a hook
//! run just before it blocks ([`on_block`]) and hand that on first.
//!
//! # Example
//!
//! ```rust
//! use clam_task::{Event, Scheduler};
//! use std::sync::Arc;
//!
//! let sched = Scheduler::new("demo");
//! let event = Arc::new(Event::new(&sched));
//!
//! let ev = Arc::clone(&event);
//! let waiter = sched.spawn("waiter", move || {
//!     ev.wait(); // voluntarily blocks; another task (or thread) signals
//! });
//!
//! let ev = Arc::clone(&event);
//! sched.spawn("signaler", move || {
//!     ev.signal();
//! });
//!
//! waiter.join().unwrap();
//! ```

mod error;
mod event;
mod scheduler;
mod task;

pub use error::{catch_panic, TaskError, TaskPanic, TaskResult};
pub use event::Event;
pub use scheduler::{on_block, Scheduler};
pub use task::{JoinHandle, TaskId};

#[cfg(test)]
#[path = "../tests/support/explore.rs"]
mod explore;
