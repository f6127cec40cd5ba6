//! The CLAM server runtime.
//!
//! "The server itself … contains no code specific to window management"
//! (section 2): it provides dynamic loading, version control, thread
//! scheduling and synchronization, and distributed upcalls; everything
//! application-specific arrives as loaded modules. [`ClamServer`] is that
//! kernel. Per client it maintains the two channels of section 4.4, a
//! main RPC task that serializes the client's requests ("the main task
//! handles RPC requests from clients", section 4.4), and an upcall router
//! enforcing the active-upcall limit. Faults in loaded code trigger
//! error-reporting upcalls from fresh tasks (section 4.3).

use crate::config::ServerConfig;
use crate::error::{CoreError, CoreResult};
use crate::naming::NameServiceImpl;
use crate::ruc::{RemoteUpcall, UpcallRouter};
use crate::session::{
    Act, ErrorReport, Session, SessionCtlImpl, SessionCtlSkeleton, SessionRegistry, Turn,
    SESSION_SERVICE_ID,
};
use crate::upcall::UpcallTarget;
use crate::wire::{ChannelRole, Hello};
use clam_load::{DynamicLoader, LoaderImpl, Module};
use clam_net::{Channel, Endpoint, Frame, Listener, MsgReader, NetError};
use clam_rpc::{ConnId, Message, ProcId, RpcError, RpcResult, RpcServer, StatusCode};
use clam_task::{JoinHandle, Scheduler, TaskResult};
use clam_xdr::Bundle;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// How long a `clam-accept` thread waits after a failed accept before it
/// tries again: long enough that an error that persists (out of file
/// descriptors) does not spin the thread, short enough that admission
/// resumes soon after it clears.
const ACCEPT_RETRY_BACKOFF: Duration = Duration::from_millis(10);

/// The body of a `clam-accept` thread: admit each connection `listener`
/// accepts until the server is dropped or shuts down, or the listener
/// closes. A failed accept (a connection aborted before it was accepted,
/// no file descriptor left) is counted, journalled as an
/// [`AcceptError`](clam_obs::EventKind::AcceptError) with its OS error
/// code (0 if it has none), and retried after [`ACCEPT_RETRY_BACKOFF`],
/// so it never ends admission.
fn accept_loop(listener: &dyn Listener, server: &Weak<ClamServer>) {
    loop {
        let accepted = listener.accept();
        let Some(server) = server.upgrade() else {
            return;
        };
        if server.is_shutting_down() {
            return; // woken by `shutdown`
        }
        match accepted {
            Ok(channel) => server.admit(channel),
            Err(NetError::Closed) => return,
            Err(e) => {
                server.counters.accept_errors.inc();
                let code = match e {
                    NetError::Io(e) => e.raw_os_error().and_then(|c| u32::try_from(c).ok()),
                    _ => None,
                };
                let (kind, ctx) = (clam_obs::EventKind::AcceptError, clam_obs::current());
                clam_obs::journal().record(kind, ctx, clam_obs::SpanId::NONE, code.unwrap_or(0));
                drop(server);
                std::thread::sleep(ACCEPT_RETRY_BACKOFF);
            }
        }
    }
}

/// Builder for a [`ClamServer`].
#[derive(Default)]
pub struct ClamServerBuilder {
    config: ServerConfig,
    endpoints: Vec<Endpoint>,
    modules: Vec<Arc<dyn Module>>,
}

impl std::fmt::Debug for ClamServerBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClamServerBuilder")
            .field("config", &self.config)
            .field("endpoints", &self.endpoints)
            .field("modules", &self.modules.len())
            .finish()
    }
}

impl ClamServerBuilder {
    /// Set the server configuration.
    #[must_use]
    pub fn config(mut self, config: ServerConfig) -> Self {
        self.config = config;
        self
    }

    /// Listen on an endpoint (repeatable; the paper's server serves
    /// Unix-domain and TCP clients side by side).
    #[must_use]
    pub fn listen(mut self, endpoint: Endpoint) -> Self {
        self.endpoints.push(endpoint);
        self
    }

    /// Install a module, making it loadable by clients.
    #[must_use]
    pub fn install(mut self, module: Arc<dyn Module>) -> Self {
        self.modules.push(module);
        self
    }

    /// Start the server: bind listeners, spawn accept threads, wire the
    /// loader and session services.
    ///
    /// # Errors
    ///
    /// Transport errors binding listeners; loader errors installing
    /// modules; [`CoreError::Spawn`] if an accept thread cannot start.
    pub fn build(self) -> CoreResult<Arc<ClamServer>> {
        ClamServer::start(self.config, self.endpoints, self.modules)
    }
}

/// The CLAM server: RPC dispatch, dynamic loading, tasks, and distributed
/// upcalls under one roof.
pub struct ClamServer {
    rpc: Arc<RpcServer>,
    loader_impl: Arc<LoaderImpl>,
    sched: Scheduler,
    sessions: Arc<SessionRegistry>,
    config: ServerConfig,
    next_conn: AtomicU64,
    shutting_down: AtomicBool,
    endpoints: Vec<Endpoint>,
    /// Half-open clients: nonce → the channel that arrived first.
    pending_pairs: Mutex<HashMap<u64, (ChannelRole, Channel)>>,
    /// Owned to keep the listeners open until shutdown.
    listeners: Mutex<Vec<Arc<dyn Listener>>>,
    counters: ServerCounters,
}

clam_obs::counters! {
    struct ServerCounters {
        accept_errors: "core.accept_errors",
    }
}

impl std::fmt::Debug for ClamServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClamServer")
            .field("endpoints", &self.endpoints)
            .field("sessions", &self.sessions.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl ClamServer {
    /// Start building a server.
    #[must_use]
    pub fn builder() -> ClamServerBuilder {
        ClamServerBuilder {
            config: ServerConfig::paper_faithful(),
            endpoints: Vec::new(),
            modules: Vec::new(),
        }
    }

    fn start(
        config: ServerConfig,
        endpoints: Vec<Endpoint>,
        modules: Vec<Arc<dyn Module>>,
    ) -> CoreResult<Arc<ClamServer>> {
        let rpc = Arc::new(RpcServer::new());
        let loader = Arc::new(DynamicLoader::new());
        for module in modules {
            loader.install(module)?;
        }
        let loader_impl = LoaderImpl::attach(&rpc, loader);
        let sessions = Arc::new(SessionRegistry::new());
        rpc.register_service(
            SESSION_SERVICE_ID,
            Arc::new(SessionCtlSkeleton::new(Arc::new(SessionCtlImpl::new(
                Arc::clone(&sessions),
            )))),
        );
        NameServiceImpl::attach(&rpc);

        let mut listeners = Vec::new();
        let mut resolved = Vec::new();
        for endpoint in &endpoints {
            let listener = clam_net::listen(endpoint)?;
            resolved.push(listener.endpoint());
            listeners.push(listener);
        }

        let server = Arc::new(ClamServer {
            rpc,
            loader_impl,
            sched: Scheduler::new("server"),
            sessions,
            config,
            next_conn: AtomicU64::new(1),
            shutting_down: AtomicBool::new(false),
            endpoints: resolved,
            pending_pairs: Mutex::new(HashMap::new()),
            listeners: Mutex::new(listeners.clone()),
            counters: ServerCounters::register(),
        });

        // Error-reporting upcalls (section 4.3): when loaded code faults,
        // a new task reports to the faulting client's error handler.
        let weak = Arc::downgrade(&server);
        server
            .rpc
            .set_fault_observer(Arc::new(move |conn, ctx, msg| {
                let Some(server) = weak.upgrade() else { return };
                let report = ErrorReport {
                    message: msg.to_string(),
                    method: ctx.method,
                    request_id: ctx.request_id,
                };
                server.report_error(conn, report);
            }));

        for listener in listeners {
            let weak = Arc::downgrade(&server);
            std::thread::Builder::new()
                .name("clam-accept".to_string())
                .spawn(move || accept_loop(&*listener, &weak))
                // Surface the failure instead of aborting: the caller gets
                // its error, already-started accept threads find their
                // weak server reference dead and exit.
                .map_err(CoreError::spawn("clam-accept"))?;
        }

        Ok(server)
    }

    /// The endpoints this server listens on, with ephemeral ports
    /// resolved — connect clients to these.
    #[must_use]
    pub fn endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }

    /// The underlying RPC dispatch engine.
    #[must_use]
    pub fn rpc(&self) -> &Arc<RpcServer> {
        &self.rpc
    }

    /// The dynamic loader (install modules after start).
    #[must_use]
    pub fn loader(&self) -> &Arc<DynamicLoader> {
        self.loader_impl.loader()
    }

    /// The server's task scheduler.
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// This server's own `core.*` counts, keyed by catalogue name.
    #[must_use]
    pub fn metrics(&self) -> clam_obs::MetricsSnapshot {
        self.counters.metrics()
    }

    /// Live client sessions.
    #[must_use]
    pub fn sessions(&self) -> &Arc<SessionRegistry> {
        &self.sessions
    }

    /// The server configuration.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Spawn a server task (input handling, error reporting, …).
    pub fn spawn_task(
        &self,
        name: &str,
        f: impl FnOnce() + Send + 'static,
    ) -> clam_task::JoinHandle {
        self.sched.spawn(name, f)
    }

    /// Build the RUC object for a client procedure: the translation the
    /// compiler-generated procedure-pointer bundler performs in section
    /// 3.5.2.
    ///
    /// # Errors
    ///
    /// [`StatusCode::AppError`] if the connection has no live session or
    /// the procedure id is null.
    pub fn ruc(&self, conn: ConnId, proc: ProcId) -> RpcResult<Arc<RemoteUpcall>> {
        if proc.is_null() {
            return Err(RpcError::status(
                StatusCode::AppError,
                "null procedure cannot receive upcalls",
            ));
        }
        let session = self.sessions.get(conn).ok_or_else(|| {
            RpcError::status(StatusCode::AppError, format!("{conn} has no session"))
        })?;
        Ok(RemoteUpcall::new(Arc::clone(session.router()), proc))
    }

    /// Build a typed upcall target for a client procedure — what a lower
    /// layer stores at registration time. Local and remote targets are
    /// indistinguishable to the layer holding them (section 4.1).
    ///
    /// # Errors
    ///
    /// See [`ClamServer::ruc`].
    pub fn upcall_target<A, R>(&self, conn: ConnId, proc: ProcId) -> RpcResult<UpcallTarget<A, R>>
    where
        A: Bundle + Clone,
        R: Bundle + Clone,
    {
        Ok(UpcallTarget::remote(self.ruc(conn, proc)?))
    }

    /// Report a fault to a client's registered error handler from a new
    /// task (section 4.3). No-op if the client registered no handler.
    pub fn report_error(self: &Arc<Self>, conn: ConnId, report: ErrorReport) {
        let Some(session) = self.sessions.get(conn) else {
            return;
        };
        let Some(proc) = session.error_proc() else {
            return;
        };
        let server = Arc::clone(self);
        // try_spawn: a fault racing server shutdown is dropped, not a
        // panic.
        let _ = self.sched.try_spawn("error-report", move || {
            if let Ok(target) = server.upcall_target::<ErrorReport, ()>(conn, proc) {
                // "This task will make an upcall and then wait for any
                // response the client may have."
                let _ = target.invoke(report);
            }
        });
    }

    // ------------------------------------------------------------------
    // Connection admission.
    // ------------------------------------------------------------------

    /// Shut the server down: stop admitting clients, fail outstanding
    /// upcalls, drop every session, and refuse new tasks. Connected
    /// clients observe `Disconnected`/closed channels. Idempotent.
    pub fn shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake each accept thread with a connection of our own; it sees
        // the flag and exits instead of admitting it, and with it goes
        // the last reference to its listener: later connects are refused.
        for endpoint in &self.endpoints {
            let _ = clam_net::connect(endpoint);
        }
        self.listeners.lock().clear();
        for session in self.sessions.drain_all() {
            session.mark_dead();
            self.rpc.invalidate_owner(session.conn());
        }
        self.pending_pairs.lock().clear();
        self.sched.shutdown();
    }

    /// True once [`shutdown`](ClamServer::shutdown) has been called.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Handshake a fresh connection and pair it into a session.
    fn admit(self: &Arc<Self>, mut channel: Channel) {
        if self.is_shutting_down() {
            return; // drop the connection
        }
        let Ok(frame) = channel.recv() else { return };
        let Ok(hello) = clam_xdr::decode::<Hello>(&frame) else {
            return;
        };
        let other = {
            let mut pending = self.pending_pairs.lock();
            match pending.remove(&hello.nonce) {
                Some((role, ch)) if role != hello.role => Some((role, ch)),
                Some(pair) => {
                    // Same role twice: protocol error; drop both.
                    drop(pair);
                    return;
                }
                None => {
                    pending.insert(hello.nonce, (hello.role, channel));
                    return;
                }
            }
        };
        let Some((_, other_ch)) = other else { return };
        let (rpc_ch, upcall_ch) = match hello.role {
            ChannelRole::Rpc => (channel, other_ch),
            ChannelRole::Upcall => (other_ch, channel),
        };
        // A session whose threads cannot start drops its channels.
        let _ = self.open_session(rpc_ch, upcall_ch);
    }

    fn open_session(self: &Arc<Self>, rpc_ch: Channel, upcall_ch: Channel) -> CoreResult<()> {
        let conn = ConnId(self.next_conn.fetch_add(1, Ordering::Relaxed));
        let (rpc_writer, mut rpc_reader) = rpc_ch.split();
        let (up_writer, up_reader) = upcall_ch.split();

        let router = UpcallRouter::new(
            &self.sched,
            up_writer,
            self.config.max_concurrent_upcalls,
            self.config.upcall_timeout,
        );
        router.attach_reader(up_reader);

        let session = Session::new(&self.sched, conn, router, rpc_writer, rpc_reader.closer());
        rpc_reader.attach_pool(session.buffer_pool());
        self.sessions.insert(Arc::clone(&session));
        // A session that cannot serve is torn down cleanly — the client
        // observes a dropped connection — rather than left half open.
        if let Err(e) = self.spawn_reader(&session, rpc_reader) {
            self.end_session(&session);
            return Err(CoreError::spawn("rpc-reader")(std::io::Error::other(e)));
        }
        Ok(())
    }

    /// Start a task that reads `session`'s RPC channel with `reader`
    /// ([`run_session`](Self::run_session)).
    fn spawn_reader(
        self: &Arc<Self>,
        session: &Arc<Session>,
        reader: Box<dyn MsgReader>,
    ) -> TaskResult<JoinHandle> {
        let (server, session) = (Arc::clone(self), Arc::clone(session));
        self.sched
            .try_spawn("rpc-reader", move || server.run_session(&session, reader))
    }

    /// The body of a session's tasks: the main task "handles RPC requests
    /// from clients" and is "unblocked on receipt" (section 4.4). The task
    /// holding `reader` reads outside the baton and serves each ordinary
    /// frame in place, in strict arrival order — this is what makes
    /// batched calls execute in the order they were sent (section 3.4).
    /// Frames the client marked *nested* (calls from inside an upcall
    /// handler whose upcall is still outstanding) skip that order: the
    /// task holding the reader serves each at once, in place, since the
    /// task serving the ordinary frames may be the blocked upcaller.
    ///
    /// While the task serves, its reader is parked. Just before the task
    /// blocks, it lends the reader to a follower task running this same
    /// loop (Leader/Followers), which reads on and queues ordinary frames
    /// for it. A task that drains its queue and finds its reader lent
    /// ends: the follower serves the next ordinary frame itself. Every
    /// one of these choices is [`take_turn`](crate::session::take_turn)'s;
    /// this loop performs them.
    fn run_session(self: &Arc<Self>, session: &Arc<Session>, reader: Box<dyn MsgReader>) {
        let parked = Rc::new(RefCell::new(Some(reader)));
        let lend: Rc<dyn Fn()> = {
            let (server, session, parked) =
                (Arc::clone(self), Arc::clone(session), Rc::clone(&parked));
            Rc::new(move || {
                let block = Turn::Block {
                    parked: parked.borrow().is_some(),
                };
                if matches!(session.turn(block), Act::Lend) {
                    let reader = parked.take().expect("a parked reader");
                    if server.spawn_reader(&session, reader).is_err() {
                        server.end_session(&session); // the reader went with the task
                    }
                }
            })
        };
        while let Some(reader) = parked.take() {
            let read = || self.read_turn(session, reader, &parked);
            let Some(mut act) = self.sched.outside(read) else {
                return;
            };
            while let Act::Serve(frame, ordinary) = act {
                clam_task::on_block(Rc::clone(&lend), || session.serve(&self.rpc, frame));
                let parked = parked.borrow().is_some();
                act = session.turn(Turn::Served { ordinary, parked });
            }
            if !matches!(act, Act::Read) {
                return;
            }
        }
    }

    /// Read with `reader` until [`take_turn`](crate::session::take_turn)
    /// hands this task a frame to serve; park the reader and return that
    /// [`Act::Serve`]. `None` once the channel is dead, after the session
    /// has been ended.
    fn read_turn(
        &self,
        session: &Arc<Session>,
        mut reader: Box<dyn MsgReader>,
        parked: &RefCell<Option<Box<dyn MsgReader>>>,
    ) -> Option<Act<Frame>> {
        loop {
            let turn = match reader.recv() {
                // A dead session's reader stops: the server shut it down.
                Ok(frame) if session.is_alive() => {
                    let nested = Message::frame_is_nested(&frame);
                    Turn::Read(frame, nested)
                }
                _ => Turn::Failed,
            };
            match session.turn(turn) {
                serve @ Act::Serve(..) => {
                    parked.replace(Some(reader));
                    return Some(serve);
                }
                Act::Read => {}
                _ => {
                    self.end_session(session);
                    return None;
                }
            }
        }
    }

    /// Peer death: wake blocked upcall waiters with an error (mark_dead →
    /// router.fail_all), drop the session and its dedup window, and
    /// remove every object this client created from the table, so its
    /// capabilities — wherever they leaked — fail with StaleHandle from
    /// now on.
    fn end_session(&self, session: &Session) {
        session.mark_dead();
        self.sessions.remove(session.conn());
        self.rpc.invalidate_owner(session.conn());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clam_net::NetError;

    #[test]
    fn a_session_whose_main_task_cannot_start_is_torn_down() {
        let server = ClamServer::builder().build().unwrap();
        server.sched.shutdown();
        let (mut rpc_client, rpc_ch) = clam_net::pair();
        let (mut upcall_client, upcall_ch) = clam_net::pair();
        let err = server.open_session(rpc_ch, upcall_ch).unwrap_err();
        assert!(matches!(err, CoreError::Spawn { .. }), "got {err:?}");
        assert!(server.sessions().is_empty());
        assert!(matches!(rpc_client.recv(), Err(NetError::Closed)));
        assert!(matches!(upcall_client.recv(), Err(NetError::Closed)));
    }

    /// A listener that fails its first accepts, then hands out one
    /// channel, then blocks until released and reports itself closed.
    struct ScriptedListener {
        failures: Mutex<u32>,
        channel: Mutex<Option<Channel>>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
        accepts: AtomicU64,
    }

    impl Listener for ScriptedListener {
        fn accept(&self) -> clam_net::NetResult<Channel> {
            self.accepts.fetch_add(1, Ordering::SeqCst);
            let mut failures = self.failures.lock();
            if *failures > 0 {
                *failures -= 1;
                return Err(NetError::Io(std::io::ErrorKind::ConnectionAborted.into()));
            }
            drop(failures);
            if let Some(channel) = self.channel.lock().take() {
                return Ok(channel);
            }
            let _ = self.release.lock().recv();
            Err(NetError::Closed)
        }

        fn endpoint(&self) -> Endpoint {
            Endpoint::InProc("scripted".to_string())
        }
    }

    #[test]
    fn the_accept_loop_survives_accept_errors() {
        let server = ClamServer::builder().build().unwrap();
        let (mut client, accepted) = clam_net::pair();
        let hello = Hello {
            role: ChannelRole::Rpc,
            nonce: 0x5eed,
        };
        client
            .send(clam_net::Frame::from_payload(&clam_xdr::encode(&hello).unwrap()).unwrap())
            .unwrap();
        let (release, released) = std::sync::mpsc::channel();
        let listener = Arc::new(ScriptedListener {
            failures: Mutex::new(2),
            channel: Mutex::new(Some(accepted)),
            release: Mutex::new(released),
            accepts: AtomicU64::new(0),
        });
        let weak = Arc::downgrade(&server);
        let thread = {
            let listener = Arc::clone(&listener);
            std::thread::spawn(move || accept_loop(&*listener, &weak))
        };

        // The third accept yields the channel, and its Hello makes it a
        // half-open client.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !server.pending_pairs.lock().contains_key(&hello.nonce) {
            assert!(
                std::time::Instant::now() < deadline,
                "the channel was never admitted"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(server.metrics().counter("core.accept_errors"), 2);

        // A fourth accept is under way; shutdown ends the loop.
        server.shutdown();
        release.send(()).unwrap();
        thread.join().unwrap();
        assert_eq!(listener.accepts.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn each_failed_accept_is_journalled() {
        let server = ClamServer::builder().build().unwrap();
        let (release, released) = std::sync::mpsc::channel();
        // Two failed accepts, then one that blocks until released.
        let listener = Arc::new(ScriptedListener {
            failures: Mutex::new(2),
            channel: Mutex::new(None),
            release: Mutex::new(released),
            accepts: AtomicU64::new(0),
        });
        // The loop's own trace tells its records from other tests'.
        let ctx = clam_obs::TraceContext::new_root();
        let weak = Arc::downgrade(&server);
        let thread = {
            let listener = Arc::clone(&listener);
            std::thread::spawn(move || {
                let _scope = clam_obs::enter(ctx);
                accept_loop(&*listener, &weak);
            })
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while listener.accepts.load(Ordering::SeqCst) < 3 {
            assert!(std::time::Instant::now() < deadline, "the loop stopped");
            std::thread::sleep(Duration::from_millis(1));
        }
        server.shutdown();
        release.send(()).unwrap();
        thread.join().unwrap();

        let codes: Vec<u32> = clam_obs::journal()
            .events()
            .iter()
            .filter(|e| e.kind == clam_obs::EventKind::AcceptError && e.trace == ctx.trace)
            .map(|e| e.code)
            .collect();
        // The scripted error carries no OS error number.
        assert_eq!(codes, [0, 0]);
        assert_eq!(server.metrics().counter("core.accept_errors"), 2);
    }
}
