//! The CLAM client runtime.
//!
//! "Each client requires at least two tasks … The first task executes the
//! code of the application. This task blocks during RPC requests, while
//! waiting for the return value. The second task handles all upcalls. The
//! second task is initially blocked, and is unblocked on receipt of an
//! upcall. After handling the event, any return value is sent back to the
//! server, and then the task is blocked again." (section 4.4)
//!
//! [`ClamClient`] opens the two channels, runs the upcall-handler task,
//! and keeps the [`ProcRegistry`] that stands in for procedure pointers:
//! registering a closure yields a [`ProcId`], which travels to the server
//! as an ordinary bundled argument and comes back to life there as a RUC
//! object (section 3.5.2).

use crate::wire::{ChannelRole, Hello};
use clam_load::LoaderProxy;
use clam_net::{Connector, DirectConnector, Endpoint};
use clam_obs::{EventKind, SpanId};
use clam_rpc::{
    Caller, CallerConfig, Message, MessageView, ProcId, Reply, RpcError, RpcResult, StatusCode,
    Target, TaskWriter, UpcallMsg,
};
use clam_task::Scheduler;
use clam_xdr::{Bundle, Opaque};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::session::{SessionCtl, SessionCtlProxy, SESSION_SERVICE_ID};

type RawProc = Arc<dyn Fn(&Opaque) -> RpcResult<Opaque> + Send + Sync>;

/// The client's table of procedures registered for upcalls.
///
/// This is the client half of the paper's procedure-pointer bundling: the
/// "pointer" that crosses the wire is a [`ProcId`]; the registry maps it
/// back to the real procedure when an upcall arrives.
#[derive(Default)]
pub struct ProcRegistry {
    procs: Mutex<HashMap<u64, RawProc>>,
    /// Ids minted so far; the next is one more, so none is the null 0.
    minted: AtomicU64,
}

impl std::fmt::Debug for ProcRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcRegistry")
            .field("registered", &self.procs.lock().len())
            .finish()
    }
}

impl ProcRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> ProcRegistry {
        ProcRegistry::default()
    }

    /// Register a raw (bytes-level) procedure.
    pub fn register_raw(&self, proc: RawProc) -> ProcId {
        let id = self.minted.fetch_add(1, Ordering::Relaxed) + 1;
        self.procs.lock().insert(id, proc);
        ProcId { id }
    }

    /// Register a typed procedure; arguments and result bundle through
    /// the generated stubs, so type agreement with the server's
    /// declaration is the registration-time contract (section 4.1's
    /// compile-time typing).
    pub fn register<A, R, F>(&self, f: F) -> ProcId
    where
        A: Bundle + Clone + 'static,
        R: Bundle + Clone + 'static,
        F: Fn(A) -> RpcResult<R> + Send + Sync + 'static,
    {
        self.register_raw(Arc::new(move |args: &Opaque| {
            let a: A = clam_xdr::decode(args.as_slice())
                .map_err(|e| RpcError::status(StatusCode::BadArgs, e.to_string()))?;
            let r = f(a)?;
            Ok(Opaque::from(clam_xdr::encode(&r)?))
        }))
    }

    /// Remove a registration; pending upcalls to it will fail.
    pub fn unregister(&self, proc: ProcId) -> bool {
        self.procs.lock().remove(&proc.id).is_some()
    }

    /// Look up a procedure.
    #[must_use]
    pub fn get(&self, proc: ProcId) -> Option<RawProc> {
        self.procs.lock().get(&proc.id).cloned()
    }

    /// Number of registered procedures.
    #[must_use]
    pub fn len(&self) -> usize {
        self.procs.lock().len()
    }

    /// True if nothing is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.procs.lock().is_empty()
    }
}

/// How a [`ClamClient`] reaches its server and where its tasks run.
///
/// The defaults reproduce [`ClamClient::connect`]: a private
/// `"client"` scheduler and direct transport connections.
pub struct ClientOptions {
    /// Batching/deadline configuration for the RPC caller.
    pub caller: CallerConfig,
    /// Scheduler to host the client's tasks. `None` creates a private
    /// one. The cluster fabric passes a node's *server* scheduler here
    /// so a forwarded call blocks that scheduler cooperatively (the
    /// server keeps serving) instead of freezing one of its OS threads.
    pub scheduler: Option<Scheduler>,
    /// How to open the two channels; tests interpose fault injection
    /// by supplying a [`clam_net::FaultyConnector`].
    pub connector: Arc<dyn Connector>,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        ClientOptions {
            caller: CallerConfig::default(),
            scheduler: None,
            connector: Arc::new(DirectConnector),
        }
    }
}

impl std::fmt::Debug for ClientOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientOptions")
            .field("caller", &self.caller)
            .field("external_scheduler", &self.scheduler.is_some())
            .finish_non_exhaustive()
    }
}

/// A connected CLAM client: RPC caller, upcall-handler task, procedure
/// registry.
pub struct ClamClient {
    sched: Scheduler,
    /// `sched` was created for this client, so dropping the client shuts
    /// it down.
    own_scheduler: bool,
    caller: Arc<Caller>,
    procs: Arc<ProcRegistry>,
    counters: ClientCounters,
}

clam_obs::counters! {
    struct ClientCounters {
        upcalls_handled: "core.upcalls_handled",
    }
}

impl std::fmt::Debug for ClamClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClamClient")
            .field("procs", &self.procs)
            .finish_non_exhaustive()
    }
}

impl Drop for ClamClient {
    /// A private scheduler's idle workers exit now; the upcall task's
    /// exits once the server closes the upcall channel.
    fn drop(&mut self) {
        if self.own_scheduler {
            self.sched.shutdown();
        }
    }
}

impl ClamClient {
    /// Connect both channels to a CLAM server at `endpoint`.
    ///
    /// # Errors
    ///
    /// Transport errors connecting or handshaking.
    pub fn connect(endpoint: &Endpoint) -> RpcResult<Arc<ClamClient>> {
        Self::connect_with(endpoint, CallerConfig::default())
    }

    /// Connect with explicit batching configuration.
    ///
    /// # Errors
    ///
    /// Transport errors connecting or handshaking.
    pub fn connect_with(
        endpoint: &Endpoint,
        caller_config: CallerConfig,
    ) -> RpcResult<Arc<ClamClient>> {
        Self::connect_opts(
            endpoint,
            ClientOptions {
                caller: caller_config,
                ..ClientOptions::default()
            },
        )
    }

    /// Connect with full control over scheduler, connector, and caller
    /// configuration (see [`ClientOptions`]).
    ///
    /// # Errors
    ///
    /// Transport errors connecting or handshaking.
    pub fn connect_opts(endpoint: &Endpoint, opts: ClientOptions) -> RpcResult<Arc<ClamClient>> {
        let nonce = clam_obs::unique_id();

        let mut rpc_ch = opts.connector.connect(endpoint)?;
        rpc_ch.send(&clam_xdr::encode(&Hello {
            role: ChannelRole::Rpc,
            nonce,
        })?)?;
        let mut upcall_ch = opts.connector.connect(endpoint)?;
        upcall_ch.send(&clam_xdr::encode(&Hello {
            role: ChannelRole::Upcall,
            nonce,
        })?)?;

        let own_scheduler = opts.scheduler.is_none();
        let sched = opts.scheduler.unwrap_or_else(|| Scheduler::new("client"));
        let (rpc_writer, rpc_reader) = rpc_ch.split();
        let caller = Caller::new(&sched, rpc_writer, opts.caller);
        caller.attach_reader(rpc_reader);

        let (mut up_writer, mut up_reader) = upcall_ch.split();
        // One pool for the upcall channel: inbound upcall frames are
        // recycled right after decode, reply frames after the write.
        let upcall_pool = clam_xdr::BufferPool::default();
        up_writer.attach_pool(&upcall_pool);
        up_reader.attach_pool(&upcall_pool);

        let client = Arc::new(ClamClient {
            sched,
            own_scheduler,
            caller,
            procs: Arc::new(ProcRegistry::new()),
            counters: ClientCounters::register(),
        });

        // The upcall-handler task: initially blocked, unblocked on
        // receipt of an upcall, replies, blocks again (section 4.4). It
        // reads the upcall channel and waits for room for its replies
        // outside the baton; until it comes back for the next upcall,
        // later ones wait in the transport's buffer.
        {
            let procs = Arc::clone(&client.procs);
            let handled = Arc::clone(&client.counters.upcalls_handled);
            let sched = client.sched.clone();
            let up_writer = TaskWriter::new(&sched, up_writer);
            client.sched.spawn("upcall-handler", move || {
                while let Ok(frame) = sched.outside(|| up_reader.recv()) {
                    let Ok(MessageView::Upcall(view)) = MessageView::parse(&frame) else {
                        return;
                    };
                    // The arguments move from the frame to a pooled buffer,
                    // so the frame goes back to the pool before the handler
                    // runs.
                    let mut args = upcall_pool.acquire();
                    args.extend_from_slice(view.args);
                    let up = UpcallMsg {
                        proc_id: view.proc_id,
                        request_id: view.request_id,
                        args: Opaque::from(args),
                        trace: view.trace,
                    };
                    upcall_pool.recycle(frame.into_wire());
                    let reply = Self::run_upcall(&procs, &up);
                    upcall_pool.recycle(up.args.into_inner());
                    handled.inc();
                    if up.request_id != 0 {
                        let Ok(frame) = Message::UpcallReply(reply).to_frame_in(&upcall_pool)
                        else {
                            return;
                        };
                        if up_writer.send(frame).is_err() {
                            return;
                        }
                    }
                }
            });
        }

        Ok(client)
    }

    fn run_upcall(procs: &ProcRegistry, up: &UpcallMsg) -> Reply {
        // Adopt the trace context the server put on the wire: the
        // handler (and any nested calls it makes) becomes a child of
        // the server-side span that invoked the upcall.
        let _scope = clam_obs::enter(up.trace);
        if !up.trace.is_none() {
            clam_obs::journal().record(
                EventKind::UpcallEnter,
                up.trace,
                SpanId::NONE,
                u32::try_from(up.proc_id).unwrap_or(u32::MAX),
            );
        }
        let outcome = match procs.get(ProcId { id: up.proc_id }) {
            // Handler faults must not kill the upcall task: report them
            // as a Fault status instead. Calls the handler makes while
            // its upcall is outstanding are nested (section 4.4); tag
            // them so the server services them out of band.
            Some(proc) => clam_task::catch_panic(|| clam_rpc::nested_call_scope(|| proc(&up.args)))
                .unwrap_or_else(|fault| Err(RpcError::status(StatusCode::Fault, fault.message()))),
            None => Err(RpcError::status(
                StatusCode::NoSuchMethod,
                format!("no procedure {} registered", up.proc_id),
            )),
        };
        let reply = Reply::from_outcome(up.request_id, outcome);
        if !up.trace.is_none() {
            clam_obs::journal().record(
                EventKind::UpcallExit,
                up.trace,
                SpanId::NONE,
                u32::from(reply.status != StatusCode::Ok),
            );
        }
        reply
    }

    /// The client's RPC caller (aim proxies through this).
    #[must_use]
    pub fn caller(&self) -> &Arc<Caller> {
        &self.caller
    }

    /// The client's task scheduler (the application task side).
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// The procedure registry.
    #[must_use]
    pub fn procs(&self) -> &Arc<ProcRegistry> {
        &self.procs
    }

    /// Register a typed upcall procedure; pass the returned [`ProcId`] to
    /// any server interface that accepts registrations.
    pub fn register_upcall<A, R, F>(&self, f: F) -> ProcId
    where
        A: Bundle + Clone + 'static,
        R: Bundle + Clone + 'static,
        F: Fn(A) -> RpcResult<R> + Send + Sync + 'static,
    {
        self.procs.register(f)
    }

    /// Proxy to the server's dynamic-loading service.
    #[must_use]
    pub fn loader(&self) -> LoaderProxy {
        LoaderProxy::new(
            Arc::clone(&self.caller),
            Target::Builtin(clam_load::LOADER_SERVICE_ID),
        )
    }

    /// Proxy to the server's session-control service.
    #[must_use]
    pub fn session(&self) -> SessionCtlProxy {
        SessionCtlProxy::new(
            Arc::clone(&self.caller),
            Target::Builtin(SESSION_SERVICE_ID),
        )
    }

    /// Proxy to the server's name service (share handles with other
    /// clients).
    #[must_use]
    pub fn names(&self) -> crate::naming::NameServiceProxy {
        crate::naming::NameServiceProxy::new(
            Arc::clone(&self.caller),
            Target::Builtin(crate::naming::NAME_SERVICE_ID),
        )
    }

    /// Register `f` as this client's fault handler (section 4.3's error
    /// reporting): the server upcalls it when loaded code faults on this
    /// client's behalf.
    ///
    /// # Errors
    ///
    /// Transport errors making the registration call.
    pub fn set_error_handler<F>(&self, f: F) -> RpcResult<ProcId>
    where
        F: Fn(crate::session::ErrorReport) -> RpcResult<()> + Send + Sync + 'static,
    {
        let proc = self.register_upcall(f);
        self.session().set_error_handler(proc)?;
        Ok(proc)
    }

    /// Number of upcalls this client has handled.
    #[must_use]
    pub fn upcalls_handled(&self) -> u64 {
        self.counters.upcalls_handled.get()
    }

    /// This client's own `core.*` counts, keyed by catalogue name.
    #[must_use]
    pub fn metrics(&self) -> clam_obs::MetricsSnapshot {
        self.counters.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_registry_round_trips_typed_procedures() {
        let reg = ProcRegistry::new();
        let id = reg.register(|x: u32| Ok(x * 2));
        assert!(!id.is_null());
        let raw = reg.get(id).unwrap();
        let args = Opaque::from(clam_xdr::encode(&21u32).unwrap());
        let out = raw(&args).unwrap();
        let v: u32 = clam_xdr::decode(out.as_slice()).unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn a_default_registry_never_hands_out_the_null_proc() {
        let reg = ProcRegistry::default();
        let first = reg.register(|(): ()| Ok(()));
        assert!(!first.is_null(), "the first registration is {first:?}");
        assert_eq!(first, ProcRegistry::new().register(|(): ()| Ok(())));
    }

    #[test]
    fn unregistered_procs_are_gone() {
        let reg = ProcRegistry::new();
        let id = reg.register(|(): ()| Ok(()));
        assert_eq!(reg.len(), 1);
        assert!(reg.unregister(id));
        assert!(!reg.unregister(id));
        assert!(reg.get(id).is_none());
        assert!(reg.is_empty());
    }

    #[test]
    fn bad_args_to_typed_proc_is_bad_args() {
        let reg = ProcRegistry::new();
        let id = reg.register(|x: u64| Ok(x));
        let raw = reg.get(id).unwrap();
        let err = raw(&Opaque::from(vec![1u8])).unwrap_err();
        assert_eq!(err.status_code(), Some(StatusCode::BadArgs));
    }

    #[test]
    fn run_upcall_reports_missing_procedure() {
        let reg = ProcRegistry::new();
        let reply = ClamClient::run_upcall(
            &reg,
            &UpcallMsg {
                proc_id: 99,
                request_id: 1,
                args: Opaque::new(),
                ..UpcallMsg::default()
            },
        );
        assert_eq!(reply.status, StatusCode::NoSuchMethod);
    }

    #[test]
    fn run_upcall_contains_handler_panics() {
        let reg = ProcRegistry::new();
        let id = reg.register(|(): ()| -> RpcResult<()> { panic!("handler bug") });
        let reply = ClamClient::run_upcall(
            &reg,
            &UpcallMsg {
                proc_id: id.id,
                request_id: 1,
                args: Opaque::from(clam_xdr::encode(&()).unwrap()),
                ..UpcallMsg::default()
            },
        );
        assert_eq!(reply.status, StatusCode::Fault);
        assert!(reply.detail.contains("handler bug"));
    }
}
