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

use crate::error::CoreError;
use crate::wire::{ChannelRole, Hello};
use clam_load::LoaderProxy;
use clam_net::{Connector, DirectConnector, Endpoint};
use clam_obs::{EventKind, SpanId};
use clam_rpc::{
    Caller, CallerConfig, Message, MessageView, ProcId, ReplyKind, RpcError, RpcResult, StatusCode,
    Target, TaskWriter, UpcallView,
};
use clam_task::Scheduler;
use clam_xdr::{Bundle, Opaque};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::session::{SessionCtl, SessionCtlProxy, SESSION_SERVICE_ID};

type RawProc = Arc<dyn Fn(&Opaque) -> RpcResult<Opaque> + Send + Sync>;

/// A registered procedure as the upcall task runs it: it decodes its
/// arguments where they lie in the upcall frame and bundles its result
/// onto the end of the reply frame.
type Proc = Arc<dyn Fn(&[u8], &mut Vec<u8>) -> RpcResult<()> + Send + Sync>;

/// The client's table of procedures registered for upcalls.
///
/// This is the client half of the paper's procedure-pointer bundling: the
/// "pointer" that crosses the wire is a [`ProcId`]; the registry maps it
/// back to the real procedure when an upcall arrives.
#[derive(Default)]
pub struct ProcRegistry {
    procs: Mutex<HashMap<u64, Proc>>,
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

    fn insert(&self, proc: Proc) -> ProcId {
        let id = self.minted.fetch_add(1, Ordering::Relaxed) + 1;
        self.procs.lock().insert(id, proc);
        ProcId { id }
    }

    /// Register a raw (bytes-level) procedure.
    pub fn register_raw(&self, proc: RawProc) -> ProcId {
        self.insert(Arc::new(move |args: &[u8], results: &mut Vec<u8>| {
            results.extend_from_slice(proc(&Opaque::from(args))?.as_slice());
            Ok(())
        }))
    }

    /// Register a typed procedure; arguments and result bundle through
    /// the generated stubs, so type agreement with the server's
    /// declaration is the registration-time contract (section 4.1's
    /// compile-time typing). An upcall decodes its arguments from the
    /// frame they came in and bundles the result straight into the
    /// reply frame.
    pub fn register<A, R, F>(&self, f: F) -> ProcId
    where
        A: Bundle + Clone + 'static,
        R: Bundle + Clone + 'static,
        F: Fn(A) -> RpcResult<R> + Send + Sync + 'static,
    {
        self.insert(Arc::new(move |args: &[u8], results: &mut Vec<u8>| {
            let a: A = clam_xdr::decode(args)
                .map_err(|e| RpcError::status(StatusCode::BadArgs, e.to_string()))?;
            Ok(clam_xdr::bundle_onto(f(a)?, results)?)
        }))
    }

    /// Remove a registration; pending upcalls to it will fail.
    pub fn unregister(&self, proc: ProcId) -> bool {
        self.procs.lock().remove(&proc.id).is_some()
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
    /// Transport errors connecting or handshaking; an `AppError` status
    /// if the scheduler can start no upcall-handler task (it is shut
    /// down, or no thread can be started).
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

        let (up_writer, mut up_reader) = upcall_ch.split();
        // One pool for the upcall channel: inbound upcall frames go back
        // to it once their handler has run, reply frames after the write.
        let upcall_pool = clam_xdr::BufferPool::default();
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
        // later ones wait in the transport's buffer. A handler reads its
        // arguments from the upcall frame and writes its result into the
        // reply frame; an async upcall's result goes to `discard`.
        let procs = Arc::clone(&client.procs);
        let handled = Arc::clone(&client.counters.upcalls_handled);
        let sched = client.sched.clone();
        let up_writer = TaskWriter::new(&sched, up_writer);
        let handler = client.sched.try_spawn("upcall-handler", move || {
            let mut discard = Vec::new();
            while let Ok(frame) = sched.outside(|| up_reader.recv()) {
                let Ok(MessageView::Upcall(up)) = MessageView::parse(&frame) else {
                    return;
                };
                let replied = if up.request_id == 0 {
                    discard.clear();
                    let _ = Self::run_upcall(&procs, &up, &mut discard);
                    handled.inc();
                    true
                } else {
                    let reply = Message::reply_frame_in(
                        &upcall_pool,
                        ReplyKind::UpcallReply,
                        up.request_id,
                        |results| Self::run_upcall(&procs, &up, results),
                    );
                    handled.inc();
                    reply.is_ok_and(|reply| up_writer.send(reply).is_ok())
                };
                if !replied {
                    return;
                }
            }
        });
        // A client whose upcalls no task would handle is not connected:
        // dropping it (and the task's channel halves) closes both channels.
        handler.map_err(|e| CoreError::spawn("upcall-handler")(std::io::Error::other(e)))?;
        Ok(client)
    }

    /// Run upcall `up`'s procedure on its arguments, bundling its result
    /// onto the end of `results`.
    fn run_upcall(
        procs: &ProcRegistry,
        up: &UpcallView<'_>,
        results: &mut Vec<u8>,
    ) -> RpcResult<()> {
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
        let proc = procs.procs.lock().get(&up.proc_id).cloned();
        let outcome =
            match proc {
                // Handler faults must not kill the upcall task: report them
                // as a Fault status instead. Calls the handler makes while
                // its upcall is outstanding are nested (section 4.4); tag
                // them so the server services them out of band.
                Some(proc) => clam_task::catch_panic(|| {
                    clam_rpc::nested_call_scope(|| proc(up.args, results))
                })
                .unwrap_or_else(|fault| Err(RpcError::status(StatusCode::Fault, fault.message()))),
                None => Err(RpcError::status(
                    StatusCode::NoSuchMethod,
                    format!("no procedure {} registered", up.proc_id),
                )),
            };
        if !up.trace.is_none() {
            clam_obs::journal().record(
                EventKind::UpcallExit,
                up.trace,
                SpanId::NONE,
                u32::from(outcome.is_err()),
            );
        }
        outcome
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
    use clam_rpc::{Reply, UpcallMsg};

    /// An upcall of `id` with argument bytes `args`.
    fn upcall(id: ProcId, args: Vec<u8>) -> UpcallMsg {
        UpcallMsg {
            proc_id: id.id,
            request_id: 1,
            args: Opaque::from(args),
            ..UpcallMsg::default()
        }
    }

    #[test]
    fn proc_registry_round_trips_typed_procedures() {
        let reg = ProcRegistry::new();
        let id = reg.register(|x: u32| Ok(x * 2));
        assert!(!id.is_null());
        let reply = run_upcall(&reg, &upcall(id, clam_xdr::encode(&21u32).unwrap()));
        assert_eq!(reply.status, StatusCode::Ok);
        let v: u32 = clam_xdr::decode(reply.results.as_slice()).unwrap();
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
        let reply = run_upcall(&reg, &upcall(id, clam_xdr::encode(&()).unwrap()));
        assert_eq!(reply.status, StatusCode::NoSuchMethod);
        assert!(reg.is_empty());
    }

    #[test]
    fn bad_args_to_typed_proc_is_bad_args() {
        let reg = ProcRegistry::new();
        let id = reg.register(|x: u64| Ok(x));
        let reply = run_upcall(&reg, &upcall(id, vec![1u8]));
        assert_eq!(reply.status, StatusCode::BadArgs);
    }

    /// Run `up` as the upcall task does; the reply it makes.
    fn run_upcall(procs: &ProcRegistry, up: &UpcallMsg) -> Reply {
        let view = UpcallView {
            proc_id: up.proc_id,
            request_id: up.request_id,
            args: up.args.as_slice(),
            trace: up.trace,
        };
        let mut results = Vec::new();
        let outcome = ClamClient::run_upcall(procs, &view, &mut results);
        Reply::from_outcome(up.request_id, outcome.map(|()| Opaque::from(results)))
    }

    #[test]
    fn a_connect_that_can_start_no_upcall_task_fails_and_closes_both_channels() {
        let listener = clam_net::listen(&Endpoint::tcp("127.0.0.1:0")).unwrap();
        let sched = Scheduler::new("client-shut-down");
        sched.shutdown();
        let opts = ClientOptions {
            scheduler: Some(sched),
            ..ClientOptions::default()
        };
        let err = ClamClient::connect_opts(&listener.endpoint(), opts).unwrap_err();
        assert_eq!(err.status_code(), Some(StatusCode::AppError), "got {err:?}");
        for _ in 0..2 {
            let mut channel = listener.accept().unwrap();
            assert!(channel.recv().is_ok(), "the hello");
            assert!(channel.recv().is_err(), "the channel closes");
        }
    }

    #[test]
    fn run_upcall_reports_missing_procedure() {
        let reg = ProcRegistry::new();
        let reply = run_upcall(
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
        let reply = run_upcall(
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
