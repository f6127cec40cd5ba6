//! Errors raised by the server/client runtimes themselves.
//!
//! Most failures in `clam-core` are RPC failures and travel as
//! [`RpcError`]; this module adds the runtime's own failure modes —
//! today, failing to spawn an OS thread or a task the runtime needs
//! (accept loops, session tasks). Those used to abort the process via
//! `expect`; a loaded server hitting its thread limit now gets an error
//! it can handle instead of a crash.

use clam_rpc::{RpcError, StatusCode};
use std::fmt;

/// Result alias for runtime operations.
pub type CoreResult<T> = Result<T, CoreError>;

/// An error starting or running the CLAM runtime.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// An RPC-layer failure (transport, bundling, remote status).
    Rpc(RpcError),
    /// The runtime could not start an OS thread or a task it needs.
    Spawn {
        /// Name of the thread or task that failed to start.
        thread: String,
        /// The OS error.
        source: std::io::Error,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Rpc(e) => write!(f, "{e}"),
            CoreError::Spawn { thread, source } => {
                write!(f, "failed to spawn thread {thread:?}: {source}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Rpc(e) => Some(e),
            CoreError::Spawn { source, .. } => Some(source),
        }
    }
}

impl CoreError {
    /// Map a thread-spawn failure of `thread` (for `map_err`).
    pub(crate) fn spawn(thread: impl Into<String>) -> impl FnOnce(std::io::Error) -> CoreError {
        let thread = thread.into();
        move |source| CoreError::Spawn { thread, source }
    }
}

impl From<RpcError> for CoreError {
    fn from(e: RpcError) -> Self {
        CoreError::Rpc(e)
    }
}

impl From<clam_net::NetError> for CoreError {
    fn from(e: clam_net::NetError) -> Self {
        CoreError::Rpc(RpcError::Net(e))
    }
}

/// Lets existing `RpcResult` call sites absorb runtime errors: a spawn
/// failure degrades to an `AppError` status with the full message.
impl From<CoreError> for RpcError {
    fn from(e: CoreError) -> Self {
        match e {
            CoreError::Rpc(e) => e,
            spawn @ CoreError::Spawn { .. } => {
                RpcError::status(StatusCode::AppError, spawn.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        use std::error::Error;
        let e = CoreError::Spawn {
            thread: "clam-accept".into(),
            source: std::io::Error::other("EAGAIN"),
        };
        assert!(e.to_string().contains("clam-accept"));
        assert!(e.source().is_some());

        let rpc = CoreError::from(RpcError::Disconnected);
        assert!(matches!(rpc, CoreError::Rpc(RpcError::Disconnected)));
    }

    #[test]
    fn spawn_failures_degrade_to_app_errors() {
        let e = CoreError::Spawn {
            thread: "clam-rpc-pump-1".into(),
            source: std::io::Error::other("no threads"),
        };
        let rpc: RpcError = e.into();
        assert_eq!(rpc.status_code(), Some(StatusCode::AppError));
        assert!(rpc.to_string().contains("clam-rpc-pump-1"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + std::error::Error>() {}
        assert_bounds::<CoreError>();
    }
}
