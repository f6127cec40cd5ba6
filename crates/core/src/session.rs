//! Server-side client sessions and the session-control service.
//!
//! A session is the server's record of one client: its connection id, its
//! two channels (section 4.4), its upcall router, and its registered
//! error handler (section 4.3's error reporting).

use crate::ruc::UpcallRouter;
use clam_net::{Closer, Frame, MsgWriter};
use clam_rpc::{
    current_conn, ConnId, DedupWindow, ProcId, RpcError, RpcResult, RpcServer, StatusCode,
    TaskWriter,
};
use clam_task::Scheduler;
use clam_xdr::BufferPool;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Builtin service id of the session-control service.
pub const SESSION_SERVICE_ID: u32 = 2;

clam_xdr::bundle_struct! {
    /// What the server tells a client's error handler when loaded code
    /// faults on its behalf (section 4.3).
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct ErrorReport {
        /// Human-readable fault description (panic payload).
        pub message: String,
        /// Method number that was executing.
        pub method: u32,
        /// Request id of the faulting call (0 for async calls).
        pub request_id: u64,
    }
}

/// One client's session state inside the server.
pub struct Session {
    conn: ConnId,
    router: Arc<UpcallRouter>,
    rpc_writer: TaskWriter,
    /// Closes the RPC channel, waking the task that reads it.
    rpc_closer: Closer,
    /// `Some` while a task serves ordinary RPC frames: the frames read
    /// meanwhile, for it to serve next in arrival order.
    turns: Mutex<Option<VecDeque<Frame>>>,
    /// The sync request ids served lately, to drop re-delivered calls.
    dedup: Mutex<DedupWindow>,
    /// Cleared when the session dies.
    alive: AtomicBool,
    error_proc: Mutex<Option<ProcId>>,
    /// Wire buffers for this session's RPC channel: inbound call frames
    /// and outbound replies cycle through here instead of the allocator.
    pool: BufferPool,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("conn", &self.conn)
            .field("alive", &self.is_alive())
            .finish_non_exhaustive()
    }
}

impl Session {
    pub(crate) fn new(
        sched: &Scheduler,
        conn: ConnId,
        router: Arc<UpcallRouter>,
        mut rpc_writer: Box<dyn MsgWriter>,
        rpc_closer: Closer,
    ) -> Arc<Session> {
        let pool = BufferPool::default();
        rpc_writer.attach_pool(&pool);
        Arc::new(Session {
            conn,
            router,
            rpc_writer: TaskWriter::new(sched, rpc_writer),
            rpc_closer,
            turns: Mutex::default(),
            dedup: Mutex::default(),
            alive: AtomicBool::new(true),
            error_proc: Mutex::new(None),
            pool,
        })
    }

    /// The session's wire-buffer pool: the RPC channel's reader draws
    /// inbound frames from it, and serving recycles them after dispatch.
    #[must_use]
    pub fn buffer_pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The session's connection id.
    #[must_use]
    pub fn conn(&self) -> ConnId {
        self.conn
    }

    /// The session's upcall router.
    #[must_use]
    pub fn router(&self) -> &Arc<UpcallRouter> {
        &self.router
    }

    /// Is the client still connected?
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// The client's registered error-handler procedure, if any.
    #[must_use]
    pub fn error_proc(&self) -> Option<ProcId> {
        *self.error_proc.lock()
    }

    pub(crate) fn set_error_proc(&self, proc: Option<ProcId>) {
        *self.error_proc.lock() = proc;
    }

    /// Mark the session dead: blocked upcall waiters fail, and both
    /// channels close, so the session's reader and the client's see the
    /// hangup.
    pub(crate) fn mark_dead(&self) {
        self.alive.store(false, Ordering::Release);
        self.router.fail_all();
        self.rpc_closer.close();
    }

    /// Hand over an ordinary frame: queued if a task is serving, else
    /// handed back for the caller to serve with [`serve_turn`](Self::serve_turn).
    pub(crate) fn take_turn(&self, frame: Frame) -> Option<Frame> {
        let mut turns = self.turns.lock();
        if let Some(queue) = &mut *turns {
            queue.push_back(frame);
            return None;
        }
        *turns = Some(VecDeque::new());
        Some(frame)
    }

    /// Serve `frame`, then the frames queued meanwhile, in arrival order.
    pub(crate) fn serve_turn(&self, rpc: &RpcServer, mut frame: Frame) {
        loop {
            self.serve(rpc, frame);
            let mut turns = self.turns.lock();
            let Some(next) = turns.as_mut().and_then(VecDeque::pop_front) else {
                *turns = None;
                return;
            };
            frame = next;
        }
    }

    /// Serve one inbound RPC frame through `rpc` and send its replies
    /// ([`RpcServer::serve_frame`]); a protocol violation kills the
    /// session.
    pub(crate) fn serve(&self, rpc: &RpcServer, frame: Frame) {
        if rpc
            .serve_frame(self.conn, &self.dedup, frame, &self.pool, &self.rpc_writer)
            .is_err()
        {
            self.mark_dead();
        }
    }
}

/// All live sessions, by connection id.
#[derive(Debug, Default)]
pub struct SessionRegistry {
    sessions: RwLock<HashMap<u64, Arc<Session>>>,
}

impl SessionRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> SessionRegistry {
        SessionRegistry::default()
    }

    pub(crate) fn insert(&self, session: Arc<Session>) {
        self.sessions.write().insert(session.conn().0, session);
    }

    pub(crate) fn remove(&self, conn: ConnId) -> Option<Arc<Session>> {
        self.sessions.write().remove(&conn.0)
    }

    pub(crate) fn drain_all(&self) -> Vec<Arc<Session>> {
        self.sessions.write().drain().map(|(_, s)| s).collect()
    }

    /// Look up a session.
    #[must_use]
    pub fn get(&self, conn: ConnId) -> Option<Arc<Session>> {
        self.sessions.read().get(&conn.0).cloned()
    }

    /// Number of live sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions.read().len()
    }

    /// True if no client is connected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sessions.read().is_empty()
    }
}

clam_rpc::remote_interface! {
    /// Per-session controls every CLAM client gets.
    pub interface SessionCtl {
        proxy SessionCtlProxy;
        skeleton SessionCtlSkeleton;
        class SessionCtlClass;

        /// Register the procedure to upcall when loaded code faults on
        /// this client's behalf (`ProcId::NULL` clears it).
        fn set_error_handler(proc: ProcId) -> () = 1;
        /// Liveness probe; returns the connection id.
        fn ping() -> u64 = 2;
    }
}

/// Server-side implementation of [`SessionCtl`]; identifies the calling
/// client via [`current_conn`].
#[derive(Debug)]
pub struct SessionCtlImpl {
    registry: Arc<SessionRegistry>,
}

impl SessionCtlImpl {
    /// Wire to the session registry.
    #[must_use]
    pub fn new(registry: Arc<SessionRegistry>) -> SessionCtlImpl {
        SessionCtlImpl { registry }
    }

    fn my_session(&self) -> RpcResult<Arc<Session>> {
        let conn = current_conn()
            .ok_or_else(|| RpcError::status(StatusCode::AppError, "no calling connection"))?;
        self.registry
            .get(conn)
            .ok_or_else(|| RpcError::status(StatusCode::AppError, format!("{conn} has no session")))
    }
}

impl SessionCtl for SessionCtlImpl {
    fn set_error_handler(&self, proc: ProcId) -> RpcResult<()> {
        let session = self.my_session()?;
        session.set_error_proc(if proc.is_null() { None } else { Some(proc) });
        Ok(())
    }

    fn ping(&self) -> RpcResult<u64> {
        Ok(self.my_session()?.conn().0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clam_net::pair;

    fn session_rig() -> (Arc<Session>, Scheduler) {
        let sched = Scheduler::new("session-test");
        let (a, _b) = pair();
        let closer = a.closer();
        let (w, _r) = a.split();
        let (ua, _ub) = pair();
        let (uw, _ur) = ua.split();
        let router = UpcallRouter::new(&sched, uw, 1, None);
        let s = Session::new(&sched, ConnId(7), router, w, closer);
        (s, sched)
    }

    #[test]
    fn error_proc_is_settable_and_clearable() {
        let (s, _sched) = session_rig();
        assert_eq!(s.error_proc(), None);
        s.set_error_proc(Some(ProcId { id: 5 }));
        assert_eq!(s.error_proc(), Some(ProcId { id: 5 }));
        s.set_error_proc(None);
        assert_eq!(s.error_proc(), None);
    }

    #[test]
    fn registry_tracks_sessions() {
        let (s, _sched) = session_rig();
        let reg = SessionRegistry::new();
        assert!(reg.is_empty());
        reg.insert(Arc::clone(&s));
        assert_eq!(reg.len(), 1);
        assert!(reg.get(ConnId(7)).is_some());
        assert!(reg.get(ConnId(8)).is_none());
        assert!(reg.remove(ConnId(7)).is_some());
        assert!(reg.is_empty());
    }

    #[test]
    fn error_report_bundles() {
        let r = ErrorReport {
            message: "divide by zero".into(),
            method: 3,
            request_id: 9,
        };
        let bytes = clam_xdr::encode(&r).unwrap();
        assert_eq!(clam_xdr::decode::<ErrorReport>(&bytes).unwrap(), r);
    }
}
