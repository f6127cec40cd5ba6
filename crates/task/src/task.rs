//! Task identity and join handles.

use crate::error::{TaskError, TaskResult};
use crate::scheduler::{current_task_of, outside, SchedInner};
use parking_lot::{Condvar, Mutex};
use std::fmt;
use std::sync::Arc;

/// Identifier of a task within its scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// Completion record shared between the scheduler and [`JoinHandle`]s.
#[derive(Debug)]
pub(crate) struct Completion {
    outcome: Mutex<Option<TaskResult<()>>>,
    cv: Condvar,
}

impl Completion {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Completion {
            outcome: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    /// Record completion and wake the joiners.
    pub(crate) fn complete(&self, outcome: TaskResult<()>) {
        *self.outcome.lock() = Some(outcome);
        self.cv.notify_all();
    }

    pub(crate) fn is_done(&self) -> bool {
        self.outcome.lock().is_some()
    }

    /// Block the calling OS thread until completion.
    fn wait(&self) -> TaskResult<()> {
        let mut outcome = self.outcome.lock();
        loop {
            if let Some(o) = &*outcome {
                return o.clone();
            }
            self.cv.wait(&mut outcome);
        }
    }
}

/// Handle to a spawned task.
///
/// Joining from another task of the same scheduler blocks *that task*
/// (another task may run meanwhile, per the non-preemptive model); joining
/// from a plain OS thread blocks the thread.
#[derive(Debug)]
pub struct JoinHandle {
    pub(crate) id: TaskId,
    pub(crate) sched: Arc<SchedInner>,
    pub(crate) completion: Arc<Completion>,
}

impl JoinHandle {
    /// The id of the task this handle refers to.
    #[must_use]
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// True once the task has finished (normally or by panic).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.completion.is_done()
    }

    /// Wait for the task to finish and report its outcome.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::Panicked`](crate::TaskError::Panicked) if
    /// the task panicked, or
    /// [`TaskError::JoinSelf`](crate::TaskError::JoinSelf) when a task
    /// joins itself.
    pub fn join(self) -> TaskResult<()> {
        let me = current_task_of(&self.sched);
        if me == Some(self.id) {
            return Err(TaskError::JoinSelf);
        }
        if me.is_some() && !self.completion.is_done() {
            // Wait outside, so the scheduler's other tasks run meanwhile.
            return outside(&self.sched, || self.completion.wait());
        }
        self.completion.wait()
    }
}
