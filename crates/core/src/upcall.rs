//! Upcall targets and registries — section 4.1's registration machinery.
//!
//! "Registration involves informing a lower level object how to call a
//! higher level object when an event occurs. … Through the intervention
//! of the RUC class, the lower level object cannot distinguish between
//! registration requests from local objects and those from remote
//! objects."
//!
//! [`UpcallTarget<A, R>`] is what a lower layer stores: either a local
//! procedure (invoked directly — local upcalls cost a procedure call,
//! Figure 5.1 row 3) or the RUC object of section 3.5.2: a client's
//! procedure id on its connection's [`UpcallRouter`], invoked across the
//! wire. The argument and result types are fixed at registration, so
//! typing is checked at compile time, exactly as the paper resolves
//! typing "at compile time" through procedure-pointer declarations.

use crate::ruc::UpcallRouter;
use clam_rpc::{ProcId, RpcResult};
use clam_xdr::Bundle;
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

clam_obs::handles! {
    /// Upcalls delivered to local (same-address-space) targets
    /// (`core.upcall.local`); the remote twin lives in [`crate::ruc`].
    fn obs_local_upcalls() -> Counter = counter("core.upcall.local");
    /// Registrants notified per posted event (`core.upcall.fanout`).
    fn obs_fanout() -> Histogram = histogram("core.upcall.fanout");
}

/// A registered upward procedure with typed arguments and result.
///
/// Lower layers hold these and invoke them on events; whether the upper
/// layer is local or in another address space is invisible here.
pub struct UpcallTarget<A, R> {
    kind: TargetKind<A, R>,
}

enum TargetKind<A, R> {
    Local(Arc<dyn Fn(A) -> RpcResult<R> + Send + Sync>),
    /// The RUC object: the client's connection, its procedure pointer,
    /// and (in `A` and `R`) the stub that bundles the upcall.
    Remote {
        router: Arc<UpcallRouter>,
        proc: ProcId,
        _types: PhantomData<fn(A) -> R>,
    },
}

impl<A, R> Clone for UpcallTarget<A, R> {
    fn clone(&self) -> Self {
        UpcallTarget {
            kind: match &self.kind {
                TargetKind::Local(f) => TargetKind::Local(Arc::clone(f)),
                TargetKind::Remote { router, proc, .. } => TargetKind::Remote {
                    router: Arc::clone(router),
                    proc: *proc,
                    _types: PhantomData,
                },
            },
        }
    }
}

impl<A, R> std::fmt::Debug for UpcallTarget<A, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            TargetKind::Local(_) => write!(f, "UpcallTarget::Local"),
            TargetKind::Remote { proc, .. } => write!(f, "UpcallTarget::Remote({proc:?})"),
        }
    }
}

impl<A, R> UpcallTarget<A, R>
where
    A: Bundle + Clone,
    R: Bundle + Clone,
{
    /// A local registration: the procedure lives in this address space
    /// and is invoked directly, with no bundling.
    pub fn local(f: impl Fn(A) -> RpcResult<R> + Send + Sync + 'static) -> UpcallTarget<A, R> {
        UpcallTarget {
            kind: TargetKind::Local(Arc::new(f)),
        }
    }

    /// A remote registration: the client procedure `proc` on the
    /// connection whose upcalls `router` carries. Invocations cross the
    /// wire.
    #[must_use]
    pub(crate) fn remote(router: Arc<UpcallRouter>, proc: ProcId) -> UpcallTarget<A, R> {
        UpcallTarget {
            kind: TargetKind::Remote {
                router,
                proc,
                _types: PhantomData,
            },
        }
    }

    /// True if invoking this target crosses an address space.
    #[must_use]
    pub fn is_remote(&self) -> bool {
        matches!(self.kind, TargetKind::Remote { .. })
    }

    /// Synchronous upcall: run the upper layer's procedure and return its
    /// result. For remote targets the calling server *task* blocks while
    /// the client task runs (section 4.3).
    ///
    /// # Errors
    ///
    /// Whatever the procedure raises; for remote targets also transport
    /// and bundling errors.
    pub fn invoke(&self, args: A) -> RpcResult<R> {
        match &self.kind {
            TargetKind::Local(f) => {
                obs_local_upcalls().inc();
                f(args)
            }
            TargetKind::Remote { router, proc, .. } => router.invoke(
                *proc,
                |frame| clam_xdr::bundle_onto(args, frame),
                |results| Ok(clam_xdr::decode(results)?),
            ),
        }
    }

    /// Asynchronous upcall: deliver the event without waiting for the
    /// upper layer. Local targets still run inline (a local procedure
    /// call *is* the delivery); remote targets return once the message
    /// is sent.
    ///
    /// # Errors
    ///
    /// Local procedure errors, or remote transport/bundling errors.
    pub fn invoke_async(&self, args: A) -> RpcResult<()> {
        match &self.kind {
            TargetKind::Local(f) => {
                obs_local_upcalls().inc();
                f(args).map(|_| ())
            }
            TargetKind::Remote { router, proc, .. } => {
                router.invoke_async(*proc, |frame| clam_xdr::bundle_onto(args, frame))
            }
        }
    }
}

/// A lower layer's list of registrants for one kind of event, dispatched
/// in registration order.
///
/// "It is possible that zero or more higher layers may be registered to
/// receive the upcall. If there are no higher layers interested in the
/// event, then the lower level object decides what to do with the event"
/// (section 4.1) — [`UpcallRegistry::post`] reports whether anyone was
/// interested so the caller can queue or discard.
pub struct UpcallRegistry<A, R> {
    targets: Mutex<Vec<(u64, UpcallTarget<A, R>)>>,
    /// Ids minted so far; the next is one more.
    minted: AtomicU64,
}

impl<A, R> Default for UpcallRegistry<A, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A, R> std::fmt::Debug for UpcallRegistry<A, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpcallRegistry")
            .field("registered", &self.targets.lock().len())
            .finish()
    }
}

impl<A, R> UpcallRegistry<A, R> {
    /// An empty registry.
    #[must_use]
    pub fn new() -> UpcallRegistry<A, R> {
        UpcallRegistry {
            targets: Mutex::new(Vec::new()),
            minted: AtomicU64::new(0),
        }
    }
}

impl<A, R> UpcallRegistry<A, R>
where
    A: Bundle + Clone,
    R: Bundle + Clone,
{
    /// Register a target; returns a registration id for deregistration.
    pub fn register(&self, target: UpcallTarget<A, R>) -> u64 {
        let id = self.minted.fetch_add(1, Ordering::Relaxed) + 1;
        self.targets.lock().push((id, target));
        id
    }

    /// Remove a registration. Returns true if it existed.
    pub fn deregister(&self, id: u64) -> bool {
        let mut targets = self.targets.lock();
        let before = targets.len();
        targets.retain(|(tid, _)| *tid != id);
        targets.len() != before
    }

    /// Number of live registrations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.targets.lock().len()
    }

    /// True if nothing is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.targets.lock().is_empty()
    }

    /// Copy out the current targets in registration order, so they can
    /// be invoked after any lock protecting the registry's owner is
    /// released (never hold a lock across a distributed upcall — the
    /// blocked task would stall every task contending for it).
    #[must_use]
    pub fn snapshot(&self) -> Vec<UpcallTarget<A, R>> {
        self.targets.lock().iter().map(|(_, t)| t.clone()).collect()
    }

    /// Synchronously upcall every registrant in registration order,
    /// collecting results. Returns `None` if no one is registered (the
    /// lower layer then queues or discards the event).
    ///
    /// # Errors
    ///
    /// The first registrant error aborts the walk.
    pub fn post(&self, args: &A) -> RpcResult<Option<Vec<R>>> {
        let targets: Vec<_> = self.targets.lock().clone();
        if targets.is_empty() {
            return Ok(None);
        }
        obs_fanout().observe(targets.len() as u64);
        let mut results = Vec::with_capacity(targets.len());
        for (_, target) in targets {
            results.push(target.invoke(args.clone())?);
        }
        Ok(Some(results))
    }

    /// Asynchronously upcall every registrant — "propagate the
    /// asynchrony" (section 2) without blocking the event pipeline.
    /// Returns the number of registrants notified, or `None` if no one
    /// is registered.
    ///
    /// # Errors
    ///
    /// Transport errors from remote targets (local targets still run
    /// inline and may fail).
    pub fn post_async(&self, args: &A) -> RpcResult<Option<usize>> {
        let targets: Vec<_> = self.targets.lock().clone();
        if targets.is_empty() {
            return Ok(None);
        }
        obs_fanout().observe(targets.len() as u64);
        let count = targets.len();
        for (_, target) in targets {
            target.invoke_async(args.clone())?;
        }
        Ok(Some(count))
    }
}

impl<A, R> Clone for UpcallRegistry<A, R> {
    fn clone(&self) -> Self {
        UpcallRegistry {
            targets: Mutex::new(self.targets.lock().clone()),
            minted: AtomicU64::new(self.minted.load(Ordering::Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clam_rpc::{RpcError, StatusCode};
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn local_target_invokes_directly() {
        let t = UpcallTarget::local(|x: u32| Ok(x + 1));
        assert!(!t.is_remote());
        assert_eq!(t.invoke(41).unwrap(), 42);
        t.invoke_async(1).unwrap();
    }

    #[test]
    fn registry_posts_in_registration_order() {
        let reg: UpcallRegistry<u32, u32> = UpcallRegistry::new();
        reg.register(UpcallTarget::local(|x| Ok(x + 1)));
        reg.register(UpcallTarget::local(|x| Ok(x * 2)));
        let results = reg.post(&10).unwrap().unwrap();
        assert_eq!(results, vec![11, 20]);
    }

    #[test]
    fn empty_registry_reports_no_interest() {
        let reg: UpcallRegistry<u32, ()> = UpcallRegistry::new();
        assert!(reg.post(&1).unwrap().is_none());
        assert!(reg.is_empty());
    }

    #[test]
    fn deregistration_stops_delivery() {
        let count = Arc::new(AtomicU32::new(0));
        let reg: UpcallRegistry<(), ()> = UpcallRegistry::new();
        let c = Arc::clone(&count);
        let id = reg.register(UpcallTarget::local(move |()| {
            c.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }));
        reg.post(&()).unwrap();
        assert!(reg.deregister(id));
        assert!(!reg.deregister(id), "double deregister is refused");
        assert_eq!(reg.post(&()).unwrap(), None);
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn errors_from_registrants_propagate() {
        let reg: UpcallRegistry<u32, u32> = UpcallRegistry::new();
        reg.register(UpcallTarget::local(|_| {
            Err(RpcError::status(StatusCode::AppError, "refused"))
        }));
        assert!(reg.post(&1).is_err());
    }

    #[test]
    fn deregistering_during_a_post_respects_the_snapshot() {
        // `post` snapshots the target list before invoking anyone, so a
        // registrant that deregisters a peer mid-walk still lets that
        // peer see the *current* event; only later posts skip it.
        use std::sync::atomic::AtomicU64;
        let reg: Arc<UpcallRegistry<(), ()>> = Arc::new(UpcallRegistry::new());
        let b_id = Arc::new(AtomicU64::new(0));
        let b_hits = Arc::new(AtomicU32::new(0));
        let reg_in = Arc::clone(&reg);
        let b_id_in = Arc::clone(&b_id);
        reg.register(UpcallTarget::local(move |()| {
            reg_in.deregister(b_id_in.load(Ordering::SeqCst));
            Ok(())
        }));
        let hits = Arc::clone(&b_hits);
        let id = reg.register(UpcallTarget::local(move |()| {
            hits.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }));
        b_id.store(id, Ordering::SeqCst);

        assert_eq!(reg.post(&()).unwrap().unwrap().len(), 2);
        assert_eq!(b_hits.load(Ordering::SeqCst), 1, "snapshot still delivered");
        assert_eq!(reg.len(), 1, "deregistration took effect for later posts");
        assert_eq!(reg.post(&()).unwrap().unwrap().len(), 1);
        assert_eq!(b_hits.load(Ordering::SeqCst), 1, "later posts skip it");
    }

    #[test]
    fn local_upcalls_and_fanout_feed_the_metrics() {
        let local_before = clam_obs::counter("core.upcall.local").get();
        let reg: UpcallRegistry<u32, u32> = UpcallRegistry::new();
        reg.register(UpcallTarget::local(|x| Ok(x + 1)));
        reg.register(UpcallTarget::local(|x| Ok(x + 2)));
        reg.post(&1).unwrap();
        reg.post_async(&1).unwrap();
        // Lower bound: sibling tests in this process also post upcalls.
        assert!(clam_obs::counter("core.upcall.local").get() >= local_before + 4);
        let snap = clam_obs::snapshot();
        let fanout = snap.histogram("core.upcall.fanout").unwrap();
        assert!(fanout.count >= 2);
    }
}
