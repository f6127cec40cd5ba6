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

    /// Decide `turn` for this session with [`take_turn`].
    pub(crate) fn turn(&self, turn: Turn<Frame>) -> Act<Frame> {
        take_turn(&mut self.turns.lock(), turn)
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

/// What happens on a session's RPC channel: the task holding the reader
/// reads a frame (`true` if the client marked it nested); a task has
/// served a frame (`parked`: its reader is parked with it); a serving
/// task is about to block; or the read failed, since the channel is dead
/// or the session has ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Turn<F> {
    Read(F, bool),
    Served { ordinary: bool, parked: bool },
    Block { parked: bool },
    Failed,
}

/// What a session task does: park the reader and serve the frame on this
/// task (`true` if it is ordinary, which gives the task the session's
/// turn); read on; lend the parked reader to a new task running the
/// session loop; block with nothing to hand on; end the task, whose
/// reader went to another; or end the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Act<F> {
    Serve(F, bool),
    Read,
    Lend,
    Block,
    End,
    EndSession,
}

/// The session's turn protocol, over the frames queued while a task holds
/// the turn (`Some` while one does): a nested frame is served in place,
/// an ordinary one in place unless a task holds the turn (then it is
/// queued), the queue in arrival order; a task lends its parked reader
/// when it blocks, reads on with it after serving, and ends without it.
/// A pure transition (it takes no lock and touches no socket or thread),
/// which the explorer in this module's tests drives through every
/// interleaving of up to 3 serving tasks.
pub(crate) fn take_turn<F>(turns: &mut Option<VecDeque<F>>, turn: Turn<F>) -> Act<F> {
    match turn {
        Turn::Read(frame, true) => Act::Serve(frame, false),
        Turn::Read(frame, false) => match turns {
            Some(queue) => {
                queue.push_back(frame);
                Act::Read
            }
            None => {
                *turns = Some(VecDeque::new());
                Act::Serve(frame, true)
            }
        },
        Turn::Served { ordinary, parked } => {
            if ordinary {
                match turns.as_mut().and_then(VecDeque::pop_front) {
                    Some(frame) => return Act::Serve(frame, true),
                    None => *turns = None,
                }
            }
            if parked {
                Act::Read
            } else {
                Act::End
            }
        }
        Turn::Block { parked: true } => Act::Lend,
        Turn::Block { .. } => Act::Block,
        Turn::Failed => Act::EndSession,
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

    // ------------------------------------------------------------------
    // Every interleaving of the turn protocol.
    // ------------------------------------------------------------------

    const TASKS: usize = 3;
    const FRAMES: u8 = 4;

    /// Where one modelled session task is.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Pc {
        Unborn,
        /// Holding the reader, outside the baton.
        Reading,
        Serving {
            frame: u8,
            ordinary: bool,
        },
        /// Serving, and waiting for an upcall's reply.
        Blocked {
            frame: u8,
            ordinary: bool,
        },
        Ended,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Model {
        turns: Option<VecDeque<u8>>,
        /// Each task, and whether its reader is parked with it.
        tasks: [(Pc, bool); TASKS],
        /// Frames the client has sent, and how many the reader has read.
        arrived: u8,
        read: u8,
        /// Bit `f` is set if frame `f` is nested, or has been served.
        nested: u8,
        served: u8,
        /// Blocks left to the session's serving tasks.
        blocks: u8,
        hung_up: bool,
        ended: bool,
        fault: Option<&'static str>,
    }

    impl Model {
        fn start() -> Model {
            let mut tasks = [(Pc::Unborn, false); TASKS];
            tasks[0].0 = Pc::Reading;
            Model {
                turns: None,
                tasks,
                arrived: 0,
                read: 0,
                nested: 0,
                served: 0,
                blocks: 2,
                hung_up: false,
                ended: false,
                fault: None,
            }
        }

        /// Task `t` starts serving `frame`; an ordinary frame must be
        /// the first unserved one, with no other ordinary frame in service.
        fn serve(&mut self, t: usize, frame: u8, ordinary: bool) {
            let earlier = ((1u8 << frame) - 1) & !self.nested;
            let busy = (0..TASKS).any(|other| {
                let pc = self.tasks[other].0;
                other != t
                    && matches!(
                        pc,
                        Pc::Serving { ordinary: true, .. } | Pc::Blocked { ordinary: true, .. }
                    )
            });
            if ordinary && (busy || self.served & earlier != earlier) {
                self.fault = Some("an ordinary frame is served out of turn");
            }
            self.tasks[t].0 = Pc::Serving { frame, ordinary };
        }

        fn task_steps(&self, t: usize, out: &mut Vec<Model>) {
            let (pc, parked) = self.tasks[t];
            let mut m = self.clone();
            match pc {
                Pc::Reading if self.read < self.arrived => {
                    let frame = self.read;
                    m.read += 1;
                    let nested = self.nested >> frame & 1 == 1;
                    match take_turn(&mut m.turns, Turn::Read(frame, nested)) {
                        Act::Serve(frame, ordinary) => {
                            m.tasks[t].1 = true;
                            m.serve(t, frame, ordinary);
                        }
                        Act::Read => {}
                        _ => m.fault = Some("a read got an action it cannot perform"),
                    }
                    out.push(m);
                }
                Pc::Reading if self.hung_up => {
                    if take_turn(&mut m.turns, Turn::Failed) == Act::EndSession {
                        (m.tasks[t].0, m.ended) = (Pc::Ended, true);
                    }
                    out.push(m);
                }
                Pc::Serving { frame, ordinary } => {
                    if self.blocks > 0 {
                        let mut b = m.clone();
                        b.blocks -= 1;
                        b.tasks[t].0 = Pc::Blocked { frame, ordinary };
                        if take_turn(&mut b.turns, Turn::Block { parked }) == Act::Lend {
                            b.tasks[t].1 = false;
                            match b.tasks.iter().position(|&(pc, _)| pc == Pc::Unborn) {
                                Some(follower) => b.tasks[follower].0 = Pc::Reading,
                                None => b.fault = Some("more followers than the model holds"),
                            }
                        }
                        out.push(b);
                    }
                    m.served |= 1 << frame;
                    match take_turn(&mut m.turns, Turn::Served { ordinary, parked }) {
                        Act::Serve(frame, ordinary) => m.serve(t, frame, ordinary),
                        Act::Read if parked => (m.tasks[t].0, m.tasks[t].1) = (Pc::Reading, false),
                        Act::End => m.tasks[t].0 = Pc::Ended,
                        _ => m.fault = Some("a served frame got an action the task cannot perform"),
                    }
                    out.push(m);
                }
                Pc::Blocked { frame, ordinary } => {
                    m.tasks[t].0 = Pc::Serving { frame, ordinary };
                    out.push(m);
                }
                Pc::Unborn | Pc::Reading | Pc::Ended => {}
            }
        }

        fn next(&self) -> Vec<Model> {
            let mut out = Vec::new();
            for t in 0..TASKS {
                self.task_steps(t, &mut out);
            }
            if self.arrived < FRAMES && !self.hung_up {
                for nested in [false, true] {
                    let mut m = self.clone();
                    m.nested |= u8::from(nested) << m.arrived;
                    m.arrived += 1;
                    out.push(m);
                }
            }
            if !self.hung_up {
                let mut m = self.clone();
                m.hung_up = true;
                out.push(m);
            }
            out
        }

        fn check(&self, last: bool) -> Result<(), String> {
            if let Some(fault) = self.fault {
                return Err(fault.into());
            }
            let tasks = &self.tasks;
            if tasks.iter().any(|&(pc, parked)| pc == Pc::Ended && parked) {
                return Err("a task ended with its reader parked: reader lost".into());
            }
            let readers = tasks
                .iter()
                .filter(|&&(pc, parked)| pc == Pc::Reading || parked)
                .count();
            if readers != usize::from(!self.ended) {
                return Err(format!("{readers} tasks hold the session's reader"));
            }
            let ordinary = tasks.iter().filter(|&&(pc, _)| {
                matches!(
                    pc,
                    Pc::Serving { ordinary: true, .. } | Pc::Blocked { ordinary: true, .. }
                )
            });
            if ordinary.count() != usize::from(self.turns.is_some()) {
                return Err("the turn is held by no task, or by two".into());
            }
            if self
                .turns
                .iter()
                .flatten()
                .any(|&f| self.nested >> f & 1 == 1)
            {
                return Err("a nested frame is queued behind an ordinary one".into());
            }
            if tasks
                .iter()
                .any(|&(pc, parked)| matches!(pc, Pc::Blocked { .. }) && parked)
            {
                return Err(
                    "a task waits on its upcall with the reader parked: nested frames are stuck"
                        .into(),
                );
            }
            if last && self.served != (1u8 << self.arrived) - 1 {
                return Err("a frame was never served".into());
            }
            Ok(())
        }
    }

    /// Every order of up to 4 frames, each ordinary or nested, the
    /// session's serving tasks blocking twice in upcalls (each block
    /// lending the reader to a new task) and being unblocked, and the
    /// channel's hangup: one reader, never lost; ordinary frames served
    /// in arrival order, one at a time; no nested frame queued or stuck
    /// behind a task that waits on its upcall; every frame served.
    #[test]
    fn every_interleaving_serves_in_order_and_never_strands_a_nested_frame() {
        let states =
            crate::explore::explore("session turns", [Model::start()], Model::next, Model::check);
        assert!(
            states > 1000,
            "the model explores too little: {states} states"
        );
    }
}
