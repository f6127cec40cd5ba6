//! Error types for the task layer.

use std::fmt;

/// Result alias for task operations.
pub type TaskResult<T> = Result<T, TaskError>;

/// A task terminated by panic instead of returning.
///
/// The scheduler catches panics at the task boundary (the CLAM server must
/// survive faults in loaded code — paper section 4.3's error-reporting
/// tasks depend on this) and reports them through
/// [`JoinHandle::join`](crate::JoinHandle::join).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    message: String,
}

impl TaskPanic {
    pub(crate) fn new(message: String) -> Self {
        TaskPanic { message }
    }

    /// The panic payload rendered as text.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Run `f`, turning a panic into a [`TaskPanic`] with the payload's
/// text: the one fault guard around task bodies, served calls and
/// upcall handlers.
///
/// # Errors
///
/// The [`TaskPanic`] if `f` panicked.
pub fn catch_panic<R>(f: impl FnOnce() -> R) -> Result<R, TaskPanic> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        TaskPanic::new(message)
    })
}

/// Errors surfaced by scheduler operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TaskError {
    /// The task panicked; the payload is attached.
    Panicked(TaskPanic),
    /// The scheduler has been shut down and accepts no new tasks.
    ShutDown,
    /// A task attempted to join itself, which would deadlock.
    JoinSelf,
    /// No worker thread could be started for the task; the OS error is
    /// attached as text.
    Spawn(String),
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::Panicked(p) => write!(f, "{p}"),
            TaskError::ShutDown => write!(f, "scheduler is shut down"),
            TaskError::JoinSelf => write!(f, "task attempted to join itself"),
            TaskError::Spawn(e) => write!(f, "cannot start a task worker thread: {e}"),
        }
    }
}

impl std::error::Error for TaskError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TaskError::Panicked(p) => Some(p),
            _ => None,
        }
    }
}

impl From<TaskPanic> for TaskError {
    fn from(p: TaskPanic) -> Self {
        TaskError::Panicked(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_message_is_preserved() {
        let p = TaskPanic::new("boom".to_string());
        assert_eq!(p.message(), "boom");
        assert_eq!(p.to_string(), "task panicked: boom");
    }

    #[test]
    fn error_source_chains_to_panic() {
        use std::error::Error;
        let e = TaskError::from(TaskPanic::new("x".to_string()));
        assert!(e.source().is_some());
        assert!(TaskError::ShutDown.source().is_none());
    }

    #[test]
    fn catch_panic_renders_str_string_and_other_payloads() {
        assert_eq!(catch_panic(|| 7), Ok(7));
        let s = catch_panic(|| -> () { panic!("static text") }).unwrap_err();
        assert_eq!(s.message(), "static text");
        let n = 3;
        let f = catch_panic(|| -> () { panic!("formatted {n}") }).unwrap_err();
        assert_eq!(f.message(), "formatted 3");
        let o = catch_panic(|| std::panic::panic_any(42u8)).unwrap_err();
        assert_eq!(o.message(), "non-string panic payload");
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_bounds<T: Send + Sync + std::error::Error>() {}
        assert_bounds::<TaskError>();
        assert_bounds::<TaskPanic>();
    }
}
