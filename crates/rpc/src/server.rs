//! Server-side dispatch: builtin services, object dispatch via handles,
//! and fault isolation around loaded code.

use crate::error::{RpcError, RpcResult, StatusCode};
use crate::handle::{Handle, ObjectTable};
use crate::message::{CallBatchView, Message, MessageView, Reply, Target};
use clam_net::{Frame, MsgWriter, NetResult};
use clam_obs::{EventKind, TraceContext, TraceScope};
use clam_task::{Scheduler, TaskPanic};
use clam_xdr::{BufferPool, Opaque};
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::any::Any;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

clam_obs::handles! {
    /// Calls refused by the Figure 3.3 tag check (`rpc.stale_handle_rejections`).
    fn obs_stale_rejections() -> Counter = counter("rpc.stale_handle_rejections");
    /// Re-delivered calls suppressed by the per-connection duplicate window
    /// (`rpc.duplicate_calls_dropped`).
    fn obs_duplicates_dropped() -> Counter = counter("rpc.duplicate_calls_dropped");
    /// Service registry reads to route a call (`rpc.route_lookups`).
    fn obs_route_lookups() -> Counter = counter("rpc.route_lookups");
}

thread_local! {
    /// Connection whose call is being dispatched on this thread, if any.
    static CURRENT_CONN: std::cell::Cell<Option<ConnId>> =
        const { std::cell::Cell::new(None) };
}

/// The connection whose call is currently being dispatched on this
/// thread, if any.
///
/// The paper's compiler arranges for procedure-pointer bundlers to know
/// which client's connection a pointer arrived on (section 3.5.2); here,
/// served code that receives a [`ProcId`](crate::ProcId) argument asks
/// the dispatch layer the same question through this function.
#[must_use]
pub fn current_conn() -> Option<ConnId> {
    CURRENT_CONN.with(std::cell::Cell::get)
}

/// Builtin service id of the sync point every server registers: a call
/// here does nothing remotely, but its reply — which the transports
/// deliver after everything batched before it was processed — is the
/// acknowledgement [`Caller::flush_acked`](crate::Caller::flush_acked)
/// waits for.
pub const SYNC_SERVICE_ID: u32 = 0;

/// The do-nothing service behind [`SYNC_SERVICE_ID`].
struct SyncPoint;

impl Service for SyncPoint {
    fn dispatch(&self, _server: &RpcServer, _ctx: &CallContext) -> RpcResult<Opaque> {
        Ok(Opaque::new())
    }
}

/// A channel's writer half, shared by the tasks of one scheduler: the one
/// way a task sends a frame (replies, upcalls, upcall replies and each
/// [`Caller`](crate::Caller)'s calls). A send runs in place while the
/// transport's buffer has room. Only a send that must wait — for room, or
/// for another sender that holds the writer — goes outside the baton, so
/// a peer that stops reading stalls its own senders, not the scheduler's
/// other tasks. `B` is state the senders keep under the writer's lock
/// (the caller's open batch).
pub struct TaskWriter<B = ()> {
    sched: Scheduler,
    out: Mutex<(Box<dyn MsgWriter>, B)>,
}

impl<B> std::fmt::Debug for TaskWriter<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskWriter")
            .field("sched", &self.sched.name())
            .finish_non_exhaustive()
    }
}

impl TaskWriter {
    /// Share `writer` among the tasks of `sched`.
    #[must_use]
    pub fn new(sched: &Scheduler, writer: Box<dyn MsgWriter>) -> TaskWriter {
        TaskWriter::with_state(sched, writer, ())
    }
}

impl<B> TaskWriter<B> {
    /// As [`new`](TaskWriter::new), with `state` under the writer's lock.
    pub(crate) fn with_state(sched: &Scheduler, writer: Box<dyn MsgWriter>, state: B) -> Self {
        TaskWriter {
            sched: sched.clone(),
            out: Mutex::new((writer, state)),
        }
    }

    /// Send one frame, waiting outside the baton if the buffer is full.
    ///
    /// # Errors
    ///
    /// As [`MsgWriter::send`].
    pub fn send(&self, frame: Frame) -> NetResult<()> {
        self.send_held(&mut self.hold().0, frame)
    }

    /// Take the writer and the senders' state, waiting outside the baton
    /// while another sender holds them.
    pub(crate) fn hold(&self) -> MutexGuard<'_, (Box<dyn MsgWriter>, B)> {
        self.out
            .try_lock()
            .unwrap_or_else(|| self.sched.outside(|| self.out.lock()))
    }

    /// Send one frame through the writer [`hold`](Self::hold) took: in
    /// place while the buffer has room, the rest outside the baton.
    pub(crate) fn send_held(&self, writer: &mut Box<dyn MsgWriter>, frame: Frame) -> NetResult<()> {
        if !writer.start_send(frame)? {
            self.sched.outside(|| writer.finish_send())?;
        }
        Ok(())
    }
}

/// Identifies one client connection within the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ConnId(pub u64);

impl std::fmt::Display for ConnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conn#{}", self.0)
    }
}

/// Everything a service sees about one incoming call.
#[derive(Debug, Clone)]
pub struct CallContext {
    /// The connection the call arrived on.
    pub conn: ConnId,
    /// Method number within the target interface.
    pub method: u32,
    /// Bundled argument bytes.
    pub args: Opaque,
    /// The call's request id (0 for batched async calls).
    pub request_id: u64,
}

/// A builtin server service (bootstrap facilities addressed by number:
/// the loader, the name service, …).
pub trait Service: Send + Sync {
    /// Handle one call; return bundled results. A panic here is a fault
    /// of this call alone ([`RpcServer::serve_frame`]): a sync call is
    /// answered with [`StatusCode::Fault`], the fault observer hears of
    /// it, and the frame's later calls still run.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`]; status errors travel back verbatim, others are
    /// mapped to [`StatusCode::AppError`].
    fn dispatch(&self, server: &RpcServer, ctx: &CallContext) -> RpcResult<Opaque>;
}

/// Method dispatch for one loaded class: given an object of the class and
/// a call, run the method. Implementations are generated by
/// [`remote_interface!`](crate::remote_interface) or written by hand.
pub trait ClassDispatch: Send + Sync {
    /// The class's name (diagnostics and the loader's name table).
    fn class_name(&self) -> &str;

    /// Handle one method call on `object`.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`]; see [`Service::dispatch`].
    fn dispatch(
        &self,
        server: &RpcServer,
        object: &Arc<dyn Any + Send + Sync>,
        ctx: &CallContext,
    ) -> RpcResult<Opaque>;
}

/// How many recently dispatched synchronous request ids are remembered
/// per connection for duplicate suppression.
const DEDUP_WINDOW: usize = 1024;

/// A bounded memory of synchronous request ids already dispatched on one
/// connection. A transport that re-delivers a frame (fault injection, a
/// retrying relay) replays the same ids; remembering them gives
/// at-most-once execution for synchronous calls without a handshake.
/// Async calls (`request_id == 0`) carry no identity and stay
/// at-least-once under such transports. Whoever serves a connection
/// owns its window and lends it to [`RpcServer::serve_frame`].
#[derive(Debug, Default)]
pub struct DedupWindow {
    seen: HashSet<u64>,
    order: VecDeque<u64>,
}

impl DedupWindow {
    /// Record `id`; true if it was already dispatched within the window.
    /// The first call sizes the window for good, so no later one
    /// allocates.
    fn is_duplicate(&mut self, id: u64) -> bool {
        if self.order.capacity() == 0 {
            // Twice the window: a set whose room the removals' tombstones
            // used up rehashes in place if it is at most half full, and
            // into a larger table otherwise.
            self.seen.reserve(2 * DEDUP_WINDOW);
            self.order.reserve_exact(DEDUP_WINDOW + 1);
        }
        if !self.seen.insert(id) {
            return true;
        }
        self.order.push_back(id);
        if self.order.len() > DEDUP_WINDOW {
            if let Some(evicted) = self.order.pop_front() {
                self.seen.remove(&evicted);
            }
        }
        false
    }
}

/// Check a whole request frame: a call batch (ordinary or nested) every
/// call of which reads, or an error before any call runs.
fn call_batch(frame: &[u8]) -> RpcResult<CallBatchView<'_>> {
    match MessageView::parse(frame)? {
        MessageView::CallBatch(batch) | MessageView::NestedCallBatch(batch) => Ok(batch),
        other => Err(RpcError::Protocol(format!(
            "unexpected message on rpc channel: {other:?}"
        ))),
    }
}

/// The server half of the RPC runtime: routes calls to builtin services
/// or to objects through the handle table, catching faults in the served
/// code (the paper's server "can protect itself from user bugs by
/// catching error signals", section 4.3).
pub struct RpcServer {
    services: RwLock<HashMap<u32, Arc<dyn Service>>>,
    classes: RwLock<HashMap<u32, Arc<dyn ClassDispatch>>>,
    /// Route generation: bumped after each change to `services`.
    routes: AtomicU64,
    objects: Mutex<ObjectTable>,
    /// Observer invoked when dispatch catches a panic (class fault);
    /// `clam-core` hooks error-reporting upcalls here.
    fault_observer: RwLock<Option<FaultObserver>>,
    /// This server's cluster node id; `0` outside a cluster. Calls whose
    /// handle is homed elsewhere are forwarded or redirected instead of
    /// hitting the local table.
    local_node: AtomicU64,
    /// Proxies calls for foreign-homed handles over a server-to-server
    /// link; installed by the cluster layer. Without one, such calls are
    /// answered with a [`StatusCode::WrongNode`] redirect.
    forwarder: RwLock<Option<CallForwarder>>,
}

/// Callback invoked when dispatch catches a panic in serving code.
pub type FaultObserver = Arc<dyn Fn(ConnId, &CallContext, &str) + Send + Sync>;

/// Proxies one call aimed at a foreign-homed handle to its home node,
/// returning the remote result verbatim. For async calls
/// (`ctx.request_id == 0`) the returned bytes are ignored.
pub type CallForwarder = Arc<dyn Fn(&CallContext, Handle) -> RpcResult<Opaque> + Send + Sync>;

impl std::fmt::Debug for RpcServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcServer")
            .field("services", &self.services.read().len())
            .field("classes", &self.classes.read().len())
            .field("objects", &self.objects.lock().len())
            .finish()
    }
}

impl Default for RpcServer {
    fn default() -> Self {
        Self::new()
    }
}

impl RpcServer {
    /// Create a server with only the built-in sync point registered
    /// (see [`SYNC_SERVICE_ID`]) — no other services, classes, objects.
    #[must_use]
    pub fn new() -> RpcServer {
        let server = RpcServer {
            services: RwLock::new(HashMap::new()),
            classes: RwLock::new(HashMap::new()),
            routes: AtomicU64::new(0),
            objects: Mutex::new(ObjectTable::new()),
            fault_observer: RwLock::new(None),
            local_node: AtomicU64::new(0),
            forwarder: RwLock::new(None),
        };
        server.register_service(SYNC_SERVICE_ID, Arc::new(SyncPoint));
        server
    }

    /// Declare this server to be cluster node `node`: handles minted from
    /// here on carry it as their home, and incoming calls for handles
    /// homed elsewhere are forwarded (see [`RpcServer::set_forwarder`])
    /// or redirected with [`StatusCode::WrongNode`]. Call before
    /// registering objects so every minted handle is routable.
    pub fn set_local_node(&self, node: u64) {
        self.local_node.store(node, Ordering::Relaxed);
        self.objects.lock().set_home_node(node);
    }

    /// This server's cluster node id (`0` outside a cluster).
    #[must_use]
    pub fn local_node(&self) -> u64 {
        self.local_node.load(Ordering::Relaxed)
    }

    /// Install the forwarding proxy for foreign-homed handles (at most
    /// one; replaces any previous).
    pub fn set_forwarder(&self, forwarder: CallForwarder) {
        *self.forwarder.write() = Some(forwarder);
    }

    /// Register a builtin service under `service_id`. Replaces any
    /// previous registration (used for hot upgrades in tests).
    pub fn register_service(&self, service_id: u32, service: Arc<dyn Service>) {
        self.services.write().insert(service_id, service);
        self.routes.fetch_add(1, Ordering::Release);
    }

    /// Register method dispatch for `class_id`.
    pub fn register_class(&self, class_id: u32, dispatch: Arc<dyn ClassDispatch>) {
        self.classes.write().insert(class_id, dispatch);
    }

    /// True if a class is registered under `class_id`.
    #[must_use]
    pub fn has_class(&self, class_id: u32) -> bool {
        self.classes.read().contains_key(&class_id)
    }

    /// Remove a class's dispatch table; objects of the class stop
    /// dispatching (`NoSuchClass`). The loader uses this on unload.
    pub fn unregister_class(&self, class_id: u32) {
        self.classes.write().remove(&class_id);
    }

    /// Access the object table (register/unregister objects).
    #[must_use]
    pub fn objects(&self) -> MutexGuard<'_, ObjectTable> {
        self.objects.lock()
    }

    /// Convenience: register an object and get its handle. If called
    /// while dispatching a client's call, that connection is recorded as
    /// the object's owner, and the object leaves the table when that
    /// peer dies (see [`RpcServer::invalidate_owner`]).
    pub fn register_object(
        &self,
        class_id: u32,
        version: u32,
        object: Arc<dyn Any + Send + Sync>,
    ) -> Handle {
        self.objects
            .lock()
            .register_owned(class_id, version, object, current_conn())
    }

    /// Remove every object registered on behalf of `conn` (peer death),
    /// so any handle the dead client held fails with
    /// [`StatusCode::StaleHandle`]. The objects drop after the table
    /// lock is released. Returns how many entries were removed.
    pub fn invalidate_owner(&self, conn: ConnId) -> usize {
        let removed = self.objects.lock().invalidate_owner(conn);
        removed.len()
    }

    /// Install the fault observer (at most one; replaces any previous).
    pub fn set_fault_observer(&self, observer: FaultObserver) {
        *self.fault_observer.write() = Some(observer);
    }

    /// The per-call work of serving: the trace scope (the call's wire
    /// [`TraceContext`], which any upcall the served code makes extends),
    /// the journal record, duplicate suppression, routing and the
    /// stale-handle count. `None` for an async call (its outcome has
    /// nowhere to go) and for a suppressed duplicate.
    fn dispatch(
        &self,
        kept: &mut Kept,
        ctx: &CallContext,
        target: Target,
        trace: TraceContext,
    ) -> Option<RpcResult<Opaque>> {
        if kept.scope.as_ref().map(|(entered, _)| *entered) != Some(trace) {
            // Leave the last scope first, so the outer context is restored last.
            kept.scope = None;
            kept.scope = Some((trace, clam_obs::enter(trace)));
        }
        if !trace.is_none() {
            clam_obs::journal().record(
                EventKind::ServerDispatch,
                trace,
                clam_obs::SpanId::NONE,
                ctx.method,
            );
        }
        if ctx.request_id != 0 && kept.dedup.lock().is_duplicate(ctx.request_id) {
            // A re-delivered frame: the call already executed and its
            // reply already went out. Executing again would break
            // at-most-once; replying again would confuse the caller.
            obs_duplicates_dropped().inc();
            return None;
        }
        let result = self.route(kept, ctx, target);
        if let Err(e) = &result {
            if e.status_code() == Some(StatusCode::StaleHandle) {
                obs_stale_rejections().inc();
            }
        }
        // Async call: errors have nowhere to go; the paper's model
        // accepts this (async calls are fire-and-forget).
        (ctx.request_id != 0).then_some(result)
    }

    fn route(&self, kept: &mut Kept, ctx: &CallContext, target: Target) -> RpcResult<Opaque> {
        match target {
            Target::Builtin(id) => {
                // A kept service serves while its generation and id hold.
                let key = (self.routes.load(Ordering::Acquire), id);
                if kept.service.as_ref().map(|(at, _)| *at) != Some(key) {
                    obs_route_lookups().inc();
                    kept.service = self.services.read().get(&id).map(|s| (key, Arc::clone(s)));
                }
                let (_, service) = kept.service.as_ref().ok_or_else(|| {
                    RpcError::status(StatusCode::NoSuchService, format!("service {id}"))
                })?;
                served(&mut kept.serving, || service.dispatch(self, ctx))
            }
            Target::Object(handle) => {
                let local = self.local_node.load(Ordering::Relaxed);
                if !handle.is_local_to(local) {
                    // The object lives on another cluster node: proxy the
                    // call over the server-to-server link, or redirect
                    // the caller to the home node if no fabric is wired.
                    let forwarder = self.forwarder.read().clone();
                    return match forwarder {
                        Some(forward) => forward(ctx, handle),
                        None => Err(RpcError::wrong_node(handle.home)),
                    };
                }
                // Clone what we need and drop the table lock before
                // dispatch, so the served method may itself register
                // objects or hand out handles.
                let (class_id, object) = {
                    let table = self.objects.lock();
                    let entry = table.lookup(handle)?;
                    (entry.class_id(), Arc::clone(entry.object()))
                };
                let dispatch = self.classes.read().get(&class_id).cloned().ok_or_else(|| {
                    RpcError::status(StatusCode::NoSuchClass, format!("class {class_id}"))
                })?;
                served(&mut kept.serving, || dispatch.dispatch(self, &object, ctx))
            }
        }
    }

    /// A fault in served code: notify the fault observer
    /// (error-reporting upcalls) and, for a sync call, answer with a
    /// `Fault` status instead of tearing the server down.
    fn fault(&self, ctx: &CallContext, fault: &TaskPanic) -> Option<RpcResult<Opaque>> {
        let observer = self.fault_observer.read().clone();
        if let Some(observer) = observer {
            observer(ctx.conn, ctx, fault.message());
        }
        (ctx.request_id != 0).then(|| Err(RpcError::status(StatusCode::Fault, fault.message())))
    }

    /// Serve one request frame from `conn`, the body of every serving
    /// loop: drop the sync calls its `dedup` window has seen, dispatch
    /// the rest in order straight out of the frame, send each reply
    /// through `writer` as its call completes ([`TaskWriter::send`]: a
    /// peer that does not read its replies stalls this task only), each
    /// in a buffer from `pool`. The calls share one argument
    /// buffer, one dispatch context and one panic guard: a call whose
    /// served code panics gets one `Fault` reply if it is sync and one
    /// fault-observer notification, and serving resumes at the next
    /// call. A reply that cannot be sent ends this frame's replies only;
    /// a dead peer shows up at its reader.
    ///
    /// # Errors
    ///
    /// Returns [`RpcError::Protocol`] for frames that are not call
    /// batches and bundling errors for undecodable frames. Either way no
    /// call of the frame runs, and the connection should be dropped.
    pub fn serve_frame(
        &self,
        conn: ConnId,
        dedup: &Mutex<DedupWindow>,
        frame: Frame,
        pool: &BufferPool,
        writer: &TaskWriter,
    ) -> RpcResult<()> {
        call_batch(&frame).map(|batch| {
            // One context serves every call, each call's argument bytes
            // copied into its one buffer from `pool`.
            let mut ctx = CallContext {
                conn,
                method: 0,
                args: Opaque::from(pool.acquire()),
                request_id: 0,
            };
            let mut kept = Kept::new(conn, dedup);
            let mut calls = batch.iter();
            let mut sending = true;
            let mut reply = |request_id, outcome| {
                sending = sending
                    && Message::Reply(Reply::from_outcome(request_id, outcome))
                        .to_frame_in(pool)
                        .is_ok_and(|out| writer.send(out).is_ok());
            };
            // One guard serves the frame (one per call cost about a
            // fifth of a served call): a panic ends the guarded run at the
            // call that made it, and the next run resumes after it.
            while let Err(fault) = clam_task::catch_panic(|| {
                for call in calls.by_ref() {
                    ctx.method = call.method;
                    ctx.request_id = call.request_id;
                    ctx.args.refill(call.args);
                    if let Some(outcome) = self.dispatch(&mut kept, &ctx, call.target, call.trace) {
                        reply(call.request_id, outcome);
                    }
                }
            }) {
                if !std::mem::take(&mut kept.serving) {
                    // A fault in the runtime, not in served code: it is
                    // no call's to answer for.
                    std::panic::resume_unwind(Box::new(fault.message().to_owned()));
                }
                if let Some(outcome) = self.fault(&ctx, &fault) {
                    reply(ctx.request_id, outcome);
                }
            }
            pool.recycle(ctx.args.into_inner());
        })
    }

    /// Serve one connection on the calling thread until it closes or
    /// sends something other than a call batch: the minimal
    /// single-threaded server loop (tests, benches; the full CLAM server
    /// in `clam-core` integrates tasks and upcalls instead).
    pub fn serve_channel(self: &Arc<Self>, conn: ConnId, mut channel: clam_net::Channel) {
        // One pool serves the whole connection: inbound call frames and
        // reply frames go back to it when they drop, so a steady
        // request/reply exchange reuses the same two buffers.
        let pool = BufferPool::default();
        channel.attach_pool(&pool);
        let (writer, mut reader) = channel.split();
        // This loop is a plain thread, not a task: its scheduler never
        // holds a baton, and a send that must wait just waits.
        let writer = TaskWriter::new(&Scheduler::new("serve-channel"), writer);
        let dedup = Mutex::default();
        while let Ok(frame) = reader.recv() {
            if self
                .serve_frame(conn, &dedup, frame, &pool, &writer)
                .is_err()
            {
                return; // protocol violation: drop the link
            }
        }
    }
}

/// A frame's dispatch context, kept from call to call: the connection
/// in [`current_conn`] until it drops, its dedup window, the last trace
/// scope, the last service routed to with its route generation and id,
/// and whether served code is running (see [`served`]).
struct Kept<'a> {
    outer_conn: Option<ConnId>,
    dedup: &'a Mutex<DedupWindow>,
    scope: Option<(TraceContext, TraceScope)>,
    service: Option<((u64, u32), Arc<dyn Service>)>,
    serving: bool,
}

impl Kept<'_> {
    fn new(conn: ConnId, dedup: &Mutex<DedupWindow>) -> Kept<'_> {
        Kept {
            outer_conn: CURRENT_CONN.with(|c| c.replace(Some(conn))),
            dedup,
            scope: None,
            service: None,
            serving: false,
        }
    }
}

impl Drop for Kept<'_> {
    fn drop(&mut self) {
        CURRENT_CONN.with(|c| c.set(self.outer_conn));
    }
}

/// Run served code with `serving` set, so that the frame's panic guard
/// can tell a fault in loaded code, which the call answers for, from
/// one in the runtime, which it passes on.
#[inline]
fn served<R>(serving: &mut bool, f: impl FnOnce() -> R) -> R {
    *serving = true;
    let result = f();
    *serving = false;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Call;
    use clam_xdr::Opaque;

    struct EchoService;
    impl Service for EchoService {
        fn dispatch(&self, _server: &RpcServer, ctx: &CallContext) -> RpcResult<Opaque> {
            Ok(ctx.args.clone())
        }
    }

    struct PanicService;
    impl Service for PanicService {
        fn dispatch(&self, _server: &RpcServer, _ctx: &CallContext) -> RpcResult<Opaque> {
            panic!("loaded class fault");
        }
    }

    struct CounterClass;
    impl ClassDispatch for CounterClass {
        fn class_name(&self) -> &str {
            "counter"
        }
        fn dispatch(
            &self,
            _server: &RpcServer,
            object: &Arc<dyn Any + Send + Sync>,
            ctx: &CallContext,
        ) -> RpcResult<Opaque> {
            let counter = object
                .clone()
                .downcast::<Mutex<u32>>()
                .map_err(|_| RpcError::status(StatusCode::NoSuchMethod, "not a counter"))?;
            match ctx.method {
                0 => {
                    let mut c = counter.lock();
                    *c += 1;
                    Ok(Opaque::from(clam_xdr::encode(&*c)?))
                }
                m => Err(RpcError::status(
                    StatusCode::NoSuchMethod,
                    format!("method {m}"),
                )),
            }
        }
    }

    fn call(target: Target, method: u32, args: Opaque, request_id: u64) -> Call {
        Call {
            request_id,
            target,
            method,
            args,
            ..Call::default()
        }
    }

    #[test]
    fn builtin_service_dispatches() {
        let server = RpcServer::new();
        server.register_service(1, Arc::new(EchoService));
        let reply = serve_one(
            &server,
            ConnId(1),
            call(Target::Builtin(1), 0, Opaque::from(vec![5]), 10),
        )
        .unwrap();
        assert_eq!(reply.status, StatusCode::Ok);
        assert_eq!(reply.results.as_slice(), &[5]);
        assert_eq!(reply.request_id, 10);
    }

    #[test]
    fn missing_service_is_reported() {
        let server = RpcServer::new();
        let reply = serve_one(
            &server,
            ConnId(1),
            call(Target::Builtin(9), 0, Opaque::new(), 1),
        )
        .unwrap();
        assert_eq!(reply.status, StatusCode::NoSuchService);
    }

    #[test]
    fn async_calls_produce_no_reply() {
        let server = RpcServer::new();
        server.register_service(1, Arc::new(EchoService));
        assert!(serve_one(
            &server,
            ConnId(1),
            call(Target::Builtin(1), 0, Opaque::new(), 0)
        )
        .is_none());
    }

    #[test]
    fn object_dispatch_through_handle() {
        let server = RpcServer::new();
        server.register_class(7, Arc::new(CounterClass));
        let h = server.register_object(7, 1, Arc::new(Mutex::new(0u32)));
        for expected in 1..=3u32 {
            let reply = serve_one(
                &server,
                ConnId(1),
                call(Target::Object(h), 0, Opaque::new(), u64::from(expected)),
            )
            .unwrap();
            assert_eq!(reply.status, StatusCode::Ok);
            let count: u32 = clam_xdr::decode(reply.results.as_slice()).unwrap();
            assert_eq!(count, expected);
        }
    }

    #[test]
    fn stale_handle_is_refused_before_dispatch() {
        let server = RpcServer::new();
        server.register_class(7, Arc::new(CounterClass));
        let h = server.register_object(7, 1, Arc::new(Mutex::new(0u32)));
        let forged = Handle {
            tag: h.tag.wrapping_add(1),
            ..h
        };
        let reply = serve_one(
            &server,
            ConnId(1),
            call(Target::Object(forged), 0, Opaque::new(), 1),
        )
        .unwrap();
        assert_eq!(reply.status, StatusCode::StaleHandle);
    }

    #[test]
    fn object_with_unloaded_class_is_no_such_class() {
        let server = RpcServer::new();
        let h = server.register_object(42, 1, Arc::new(Mutex::new(0u32)));
        let reply = serve_one(
            &server,
            ConnId(1),
            call(Target::Object(h), 0, Opaque::new(), 1),
        )
        .unwrap();
        assert_eq!(reply.status, StatusCode::NoSuchClass);
    }

    #[test]
    fn panicking_service_becomes_fault_status_and_server_survives() {
        let server = RpcServer::new();
        server.register_service(1, Arc::new(PanicService));
        server.register_service(2, Arc::new(EchoService));
        let faults = Arc::new(Mutex::new(Vec::new()));
        let f = Arc::clone(&faults);
        server.set_fault_observer(Arc::new(move |conn, _ctx, msg| {
            f.lock().push((conn, msg.to_string()));
        }));

        let reply = serve_one(
            &server,
            ConnId(3),
            call(Target::Builtin(1), 0, Opaque::new(), 1),
        )
        .unwrap();
        assert_eq!(reply.status, StatusCode::Fault);
        assert!(reply.detail.contains("loaded class fault"));
        assert_eq!(faults.lock().len(), 1);
        assert_eq!(faults.lock()[0].0, ConnId(3));

        // The server keeps serving other calls.
        let reply = serve_one(
            &server,
            ConnId(3),
            call(Target::Builtin(2), 0, Opaque::new(), 2),
        )
        .unwrap();
        assert_eq!(reply.status, StatusCode::Ok);
    }

    /// Serve the frame with payload `frame` from `conn` through
    /// [`RpcServer::serve_frame`] over a socket pair, against the
    /// connection's `dedup` window, and read back the replies it sent,
    /// in order.
    fn serve(
        server: &RpcServer,
        conn: ConnId,
        dedup: &Mutex<DedupWindow>,
        frame: &[u8],
    ) -> RpcResult<Vec<Reply>> {
        let (client, channel) = clam_net::pair();
        let (writer, _reader) = channel.split();
        let writer = TaskWriter::new(&Scheduler::new("serve"), writer);
        let frame = Frame::from_payload(frame).unwrap();
        let served = server.serve_frame(conn, dedup, frame, &BufferPool::default(), &writer);
        drop(writer); // the hangup ends the replies
        let (_, mut reader) = client.split();
        let mut replies = Vec::new();
        while let Ok(frame) = reader.recv() {
            let Ok(MessageView::Reply(reply)) = MessageView::parse(&frame) else {
                panic!("not a reply");
            };
            replies.push(Reply {
                request_id: reply.request_id,
                status: reply.status,
                detail: reply.detail.to_owned(),
                results: Opaque::from(reply.results.to_vec()),
            });
        }
        served.map(|()| replies)
    }

    /// Serve `call` alone in a frame from `conn`, as the first frame of
    /// its connection: the reply it sent, if any.
    fn serve_one(server: &RpcServer, conn: ConnId, call: Call) -> Option<Reply> {
        let frame = Message::CallBatch(vec![call]).to_frame().unwrap();
        let mut replies = serve(server, conn, &Mutex::default(), &frame).unwrap();
        assert!(replies.len() <= 1, "one call, {} replies", replies.len());
        replies.pop()
    }

    #[test]
    fn serve_frame_preserves_call_order() {
        let server = RpcServer::new();
        server.register_service(1, Arc::new(EchoService));
        let batch = Message::CallBatch(vec![
            call(Target::Builtin(1), 0, Opaque::from(vec![1]), 11),
            call(Target::Builtin(1), 0, Opaque::from(vec![2]), 0), // async
            call(Target::Builtin(1), 0, Opaque::from(vec![3]), 12),
        ]);
        let replies = serve(
            &server,
            ConnId(1),
            &Mutex::default(),
            &batch.to_frame().unwrap(),
        )
        .unwrap();
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0].request_id, 11);
        assert_eq!(replies[1].request_id, 12);
    }

    #[test]
    fn foreign_homed_handle_without_fabric_redirects() {
        let server = RpcServer::new();
        server.set_local_node(1);
        assert_eq!(server.local_node(), 1);
        server.register_class(7, Arc::new(CounterClass));
        let h = server.register_object(7, 1, Arc::new(Mutex::new(0u32)));
        assert_eq!(h.home, 1, "minted handles carry the node id");

        // A handle homed on node 3 cannot be served here: with no
        // forwarder installed the caller gets a WrongNode redirect
        // naming the home node.
        let foreign = Handle { home: 3, ..h };
        let reply = serve_one(
            &server,
            ConnId(1),
            call(Target::Object(foreign), 0, Opaque::new(), 1),
        )
        .unwrap();
        assert_eq!(reply.status, StatusCode::WrongNode);
        let err = RpcError::status(reply.status, reply.detail);
        assert_eq!(err.wrong_node_home(), Some(3));

        // The server's own handle still dispatches locally.
        let reply = serve_one(
            &server,
            ConnId(1),
            call(Target::Object(h), 0, Opaque::new(), 2),
        )
        .unwrap();
        assert_eq!(reply.status, StatusCode::Ok);
    }

    #[test]
    fn foreign_homed_handle_goes_through_the_forwarder() {
        let server = RpcServer::new();
        server.set_local_node(1);
        let forwarded = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&forwarded);
        server.set_forwarder(Arc::new(move |ctx, handle| {
            log.lock().push((handle.home, ctx.method));
            Ok(Opaque::from(vec![0xAB]))
        }));

        let foreign = Handle {
            object_id: 9,
            tag: 1,
            home: 2,
        };
        let reply = serve_one(
            &server,
            ConnId(1),
            call(Target::Object(foreign), 5, Opaque::new(), 1),
        )
        .unwrap();
        assert_eq!(reply.status, StatusCode::Ok);
        assert_eq!(reply.results.as_slice(), &[0xAB]);
        assert_eq!(*forwarded.lock(), vec![(2, 5)]);
    }

    #[test]
    fn a_panic_outside_served_code_is_no_calls_fault() {
        let server = RpcServer::new();
        server.set_local_node(1);
        server.set_forwarder(Arc::new(|_, _| panic!("fault in the forwarding fabric")));
        let faults = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let f = Arc::clone(&faults);
        server.set_fault_observer(Arc::new(move |_, _, _| {
            f.fetch_add(1, Ordering::SeqCst);
        }));
        let foreign = Handle {
            object_id: 9,
            tag: 1,
            home: 2,
        };
        let frame = Message::CallBatch(vec![call(Target::Object(foreign), 0, Opaque::new(), 1)])
            .to_frame()
            .unwrap();
        let passed_on =
            clam_task::catch_panic(|| serve(&server, ConnId(4), &Mutex::default(), &frame));
        assert!(passed_on
            .unwrap_err()
            .message()
            .contains("forwarding fabric"));
        assert_eq!(faults.load(Ordering::SeqCst), 0, "the observer heard of it");
        assert_eq!(current_conn(), None);
    }

    #[test]
    fn redelivered_sync_calls_execute_once() {
        let server = RpcServer::new();
        server.register_class(7, Arc::new(CounterClass));
        let h = server.register_object(7, 1, Arc::new(Mutex::new(0u32)));
        let bump = |id| {
            Message::CallBatch(vec![call(Target::Object(h), 0, Opaque::new(), id)])
                .to_frame()
                .unwrap()
        };
        let window = Mutex::default();

        let first = serve(&server, ConnId(1), &window, &bump(42)).unwrap();
        assert_eq!(first[0].status, StatusCode::Ok);
        let count: u32 = clam_xdr::decode(first[0].results.as_slice()).unwrap();
        assert_eq!(count, 1);

        // The same frame re-delivered (a duplicating transport): no
        // second execution, no second reply.
        assert!(serve(&server, ConnId(1), &window, &bump(42))
            .unwrap()
            .is_empty());
        let verify = serve(&server, ConnId(1), &window, &bump(43)).unwrap();
        let count: u32 = clam_xdr::decode(verify[0].results.as_slice()).unwrap();
        assert_eq!(count, 2, "the duplicate must not have incremented");

        // Another connection, with its own window, may use the same ids
        // freely.
        let other = serve(&server, ConnId(2), &Mutex::default(), &bump(42)).unwrap();
        assert_eq!(other[0].status, StatusCode::Ok);
    }

    #[test]
    fn non_batch_on_rpc_channel_is_protocol_error() {
        let server = RpcServer::new();
        let msg = Message::Reply(Reply::default());
        assert!(matches!(
            serve(
                &server,
                ConnId(1),
                &Mutex::default(),
                &msg.to_frame().unwrap()
            ),
            Err(RpcError::Protocol(_))
        ));
    }

    struct CountingService(std::sync::atomic::AtomicU32);
    impl Service for CountingService {
        fn dispatch(&self, _server: &RpcServer, _ctx: &CallContext) -> RpcResult<Opaque> {
            self.0.fetch_add(1, Ordering::SeqCst);
            Ok(Opaque::new())
        }
    }

    #[test]
    fn a_batch_with_a_malformed_last_call_runs_none_of_its_calls() {
        let server = RpcServer::new();
        let counting = Arc::new(CountingService(std::sync::atomic::AtomicU32::new(0)));
        server.register_service(1, Arc::clone(&counting) as Arc<dyn Service>);
        let good = Message::CallBatch(vec![
            call(Target::Builtin(1), 0, Opaque::from(vec![1]), 11),
            call(Target::Builtin(1), 0, Opaque::new(), 0),
            call(Target::Builtin(1), 0, Opaque::from(vec![9]), 12),
        ])
        .to_frame()
        .unwrap()
        .to_vec();
        // The last call's wire image: request id (8 bytes), target kind
        // and id (4 + 4), method (4), args length (4), one arg byte and
        // three padding bytes, trace (24).
        let at = good.len() - (8 + 4 + 4 + 4 + 4 + 4 + 24);
        let corrupt = |offset: usize, word: u32| {
            let mut frame = good.clone();
            frame[at + offset..at + offset + 4].copy_from_slice(&word.to_be_bytes());
            frame
        };
        let mut trailing = good.clone();
        trailing.extend_from_slice(&[0; 4]);
        let cases = [
            ("unknown target", corrupt(8, 2)),
            ("nonzero padding", corrupt(24, 0x0900_0100)),
            ("args past the end", corrupt(20, 1 << 20)),
            ("trailing bytes", trailing),
        ];

        let pool = BufferPool::default();
        let (client, channel) = clam_net::pair();
        let (_client_writer, mut client_reader) = client.split();
        let (writer, _reader) = channel.split();
        let writer = TaskWriter::new(&Scheduler::new("malformed-batch"), writer);
        for (name, frame) in cases {
            assert!(
                serve(&server, ConnId(1), &Mutex::default(), &frame).is_err(),
                "{name}: accepted"
            );
            let frame = Frame::from_payload(&frame).unwrap();
            assert!(
                server
                    .serve_frame(ConnId(1), &Mutex::default(), frame, &pool, &writer)
                    .is_err(),
                "{name}: served"
            );
            assert_eq!(counting.0.load(Ordering::SeqCst), 0, "{name}: a call ran");
        }
        let quiet = std::time::Instant::now() + std::time::Duration::from_millis(20);
        assert!(
            matches!(client_reader.recv_until(quiet), Ok(None)),
            "a reply went out"
        );

        // The intact batch runs all three calls and answers the two sync
        // ones.
        let replies = serve(&server, ConnId(1), &Mutex::default(), &good).unwrap();
        assert_eq!(replies.len(), 2);
        assert_eq!(counting.0.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn a_fault_hold_waits_outside_the_baton() {
        use std::sync::atomic::AtomicBool;
        use std::time::Duration;
        let sched = Scheduler::new("fault-hold");
        let (a, _peer) = clam_net::pair();
        let hold = clam_net::FaultPlan::seeded(4).delay_frames(1.0, Duration::from_millis(100));
        let (writer, _reader) = clam_net::FaultyChannel::wrap(a, hold).0.split();
        let writer = TaskWriter::new(&sched, writer);
        // Whether task b had run when task a's send returned.
        let b_ran_first = Arc::new(AtomicBool::new(false));
        let (spawner, first) = (sched.clone(), Arc::clone(&b_ran_first));
        let task_a = sched.spawn("a", move || {
            let b_ran = Arc::new(AtomicBool::new(false));
            let ran = Arc::clone(&b_ran);
            spawner.spawn("b", move || ran.store(true, Ordering::SeqCst));
            writer.send(Frame::from(b"held")).unwrap();
            first.store(b_ran.load(Ordering::SeqCst), Ordering::SeqCst);
        });
        task_a.join().unwrap();
        assert!(b_ran_first.load(Ordering::SeqCst), "b waited out a's hold");
    }
}
