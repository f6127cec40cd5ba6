//! Pluggable connection establishment.
//!
//! A [`Connector`] is the outbound counterpart of [`Listener`]: given an
//! [`Endpoint`], produce a connected [`Channel`]. Higher layers that
//! open links on their own schedule — the cluster fabric's
//! server-to-server links, reconnecting clients — take a connector
//! instead of calling [`connect`] directly, so tests can interpose
//! fault injection on every link the layer ever opens.
//!
//! [`connect`]: crate::connect

use crate::channel::Channel;
use crate::endpoint::Endpoint;
use crate::error::NetResult;
use crate::fault::{FaultHandle, FaultPlan, FaultyChannel};
use parking_lot::Mutex;
use std::sync::Arc;

/// Produces connected channels on demand.
pub trait Connector: Send + Sync {
    /// Open a channel to `endpoint`.
    ///
    /// # Errors
    ///
    /// Transport-level errors, as [`connect`](crate::connect).
    fn connect(&self, endpoint: &Endpoint) -> NetResult<Channel>;
}

/// The plain connector: [`connect`](crate::connect) with nothing added.
#[derive(Debug, Default, Clone, Copy)]
pub struct DirectConnector;

impl Connector for DirectConnector {
    fn connect(&self, endpoint: &Endpoint) -> NetResult<Channel> {
        crate::connect(endpoint)
    }
}

/// A connector that wraps every channel it opens in a
/// [`FaultyChannel`], injecting the same seeded [`FaultPlan`] on each
/// link's send side. The [`FaultHandle`] of every opened link is kept
/// for inspection and scripted partitions.
///
/// Determinism note: each link replays the plan from frame index 0, so
/// a soak that reconnects after a fault-induced link death still follows
/// a pure function of (seed, per-link frame index).
pub struct FaultyConnector {
    inner: Arc<dyn Connector>,
    plan: FaultPlan,
    handles: Mutex<Vec<FaultHandle>>,
}

impl std::fmt::Debug for FaultyConnector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyConnector")
            .field("links", &self.handles.lock().len())
            .finish_non_exhaustive()
    }
}

impl FaultyConnector {
    /// Inject `plan` into every channel opened through `inner`.
    #[must_use]
    pub fn new(inner: Arc<dyn Connector>, plan: FaultPlan) -> Arc<FaultyConnector> {
        Arc::new(FaultyConnector {
            inner,
            plan,
            handles: Mutex::new(Vec::new()),
        })
    }

    /// Shorthand: inject `plan` over direct connections.
    #[must_use]
    pub fn direct(plan: FaultPlan) -> Arc<FaultyConnector> {
        FaultyConnector::new(Arc::new(DirectConnector), plan)
    }

    /// Fault handles of every link opened so far, in open order.
    #[must_use]
    pub fn handles(&self) -> Vec<FaultHandle> {
        self.handles.lock().clone()
    }

    /// How many links were opened through this connector.
    #[must_use]
    pub fn links_opened(&self) -> usize {
        self.handles.lock().len()
    }
}

impl Connector for FaultyConnector {
    fn connect(&self, endpoint: &Endpoint) -> NetResult<Channel> {
        let channel = self.inner.connect(endpoint)?;
        let (wrapped, handle) = FaultyChannel::wrap(channel, self.plan);
        self.handles.lock().push(handle);
        Ok(wrapped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{listen, Frame};

    #[test]
    fn direct_connector_connects() {
        let listener = listen(&Endpoint::in_proc("connector-direct")).unwrap();
        let client = DirectConnector.connect(&listener.endpoint()).unwrap();
        let mut server = listener.accept().unwrap();
        let (mut tx, _rx) = client.split();
        tx.send(Frame::from(b"ping")).unwrap();
        assert_eq!(server.recv().unwrap(), b"ping");
    }

    #[test]
    fn faulty_connector_wraps_every_link() {
        let listener = listen(&Endpoint::in_proc("connector-faulty")).unwrap();
        // Drop everything: the injected plan must govern the new link.
        let connector = FaultyConnector::direct(FaultPlan::seeded(1).drop_frames(1.0));
        let client = connector.connect(&listener.endpoint()).unwrap();
        let _server = listener.accept().unwrap();
        assert_eq!(connector.links_opened(), 1);

        let (mut tx, _rx) = client.split();
        tx.send(Frame::from(b"lost")).unwrap();
        // The frame was swallowed by the plan: the handle counted it…
        let counts = connector.handles()[0].metrics();
        let dropped = ["net.fault.drop", "net.fault.partition"].map(|n| counts.counter(n));
        assert_eq!(dropped, [1, 0]);
        // …and every further link gets its own handle.
        let _second = connector.connect(&listener.endpoint()).unwrap();
        assert_eq!(connector.links_opened(), 2);
    }
}
