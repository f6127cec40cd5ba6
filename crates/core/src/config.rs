//! Server configuration.

use clam_rpc::CallerConfig;
use std::time::Duration;

/// Tuning for a [`ClamServer`](crate::ClamServer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// How many upcalls may be in flight to one client at a time.
    ///
    /// The paper's first implementation allows exactly one ("this
    /// limitation … may be relaxed in future designs", section 4.4);
    /// values above 1 implement the relaxation, measured by Ablation C
    /// of the `ablations` bin.
    pub max_concurrent_upcalls: usize,
    /// Batching configuration for server-originated callers: a cluster
    /// node's server-to-server links use it (the upcall path does not).
    pub caller: CallerConfig,
    /// Deadline for synchronous upcalls into clients: a client that
    /// accepts an upcall but never replies fails the server task's wait
    /// with `DeadlineExceeded` after this long. `None` (the default, and
    /// the paper's behavior) waits forever — channel teardown is then the
    /// only way a blocked upcaller is released.
    pub upcall_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_concurrent_upcalls: 1,
            caller: CallerConfig::default(),
            upcall_timeout: None,
        }
    }
}

impl ServerConfig {
    /// The paper's configuration: one active upcall per client.
    #[must_use]
    pub fn paper_faithful() -> ServerConfig {
        ServerConfig::default()
    }

    /// Relax the upcall limit (the paper's future-design note).
    #[must_use]
    pub fn with_max_concurrent_upcalls(mut self, n: usize) -> ServerConfig {
        assert!(n >= 1, "at least one upcall must be allowed");
        self.max_concurrent_upcalls = n;
        self
    }

    /// Bound synchronous upcalls into clients by `timeout`.
    #[must_use]
    pub fn with_upcall_timeout(mut self, timeout: Duration) -> ServerConfig {
        self.upcall_timeout = Some(timeout);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_limit() {
        assert_eq!(ServerConfig::default().max_concurrent_upcalls, 1);
        assert_eq!(ServerConfig::paper_faithful().max_concurrent_upcalls, 1);
    }

    #[test]
    fn relaxation_is_expressible() {
        let c = ServerConfig::default().with_max_concurrent_upcalls(8);
        assert_eq!(c.max_concurrent_upcalls, 8);
    }

    #[test]
    fn upcall_timeout_defaults_off_and_is_settable() {
        assert_eq!(ServerConfig::default().upcall_timeout, None);
        let c = ServerConfig::default().with_upcall_timeout(Duration::from_secs(5));
        assert_eq!(c.upcall_timeout, Some(Duration::from_secs(5)));
    }

    #[test]
    #[should_panic(expected = "at least one upcall")]
    fn zero_upcalls_is_rejected() {
        let _ = ServerConfig::default().with_max_concurrent_upcalls(0);
    }
}
