//! The pending-reply table of a client's sync calls and of a server's
//! sync upcalls — the same wait seen from the two ends (section 4.3).
//!
//! The table's waiters read their replies themselves (Leader/Followers):
//! one waiter at a time holds the reader and reads outside its
//! scheduler's baton, until its own deadline, routing each reply to its
//! entry; once its own reply is in, it hands the reader to another
//! waiter. So a lone request is answered on the thread that waits for
//! it. The others block on their [`Event`]s; [`Event`]s have no timed
//! wait, so one sweeper thread per table, started by the first such
//! follower with a deadline, sleeps until the earliest armed deadline.
//! Whoever removes an entry removes its deadline too, so armed deadlines
//! never outnumber outstanding requests.

use crate::error::{RpcError, RpcResult, StatusCode};
use crate::message::{Message, Reply};
use clam_net::{Closer, MsgReader, NetError};
use clam_task::{Event, Scheduler};
use clam_xdr::{BufferPool, Opaque};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which reply message the table's reader accepts; any other message is
/// a protocol violation that drops the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyKind {
    /// [`Message::Reply`], read by a client.
    Reply,
    /// [`Message::UpcallReply`], read by a server.
    UpcallReply,
}

#[derive(Debug)]
struct Wait {
    event: Event,
    slot: Mutex<Option<RpcResult<Opaque>>>,
    deadline: Option<Instant>,
}

impl Wait {
    fn finish(&self, outcome: RpcResult<Opaque>) {
        *self.slot.lock() = Some(outcome);
        self.event.signal();
    }

    fn is_done(&self) -> bool {
        self.slot.lock().is_some()
    }
}

/// The reply channel's read half and what decoding its frames needs.
struct Link {
    reader: Box<dyn MsgReader>,
    pool: BufferPool,
    kind: ReplyKind,
}

impl Link {
    /// Read until `wait` is done, routing every reply through `inner`.
    /// `false` means the link is dead: EOF, a read error, or a message
    /// other than a reply of the link's kind.
    fn lead(&mut self, inner: &Inner, id: u64, wait: &Wait) -> bool {
        while !wait.is_done() {
            let frame = match wait.deadline {
                Some(at) => self.reader.recv_until(at),
                None => self.reader.recv().map(Some),
            };
            let frame = match frame {
                Ok(Some(frame)) => frame,
                Ok(None) => {
                    inner.expire(id);
                    continue;
                }
                Err(_) => return false,
            };
            let reply = match (Message::from_frame(&frame), self.kind) {
                (Ok(Message::Reply(reply)), ReplyKind::Reply)
                | (Ok(Message::UpcallReply(reply)), ReplyKind::UpcallReply) => reply,
                _ => return false,
            };
            self.pool.recycle(frame.into_wire());
            inner.complete(reply);
        }
        true
    }
}

/// Where the reader is: the token of Leader/Followers.
#[derive(Default)]
enum Token {
    /// No reader attached (or the table failed): waiters only wait.
    #[default]
    Detached,
    /// Attached and free: the next waiter to look takes it.
    Free(Box<Link>),
    /// A waiter is reading.
    Leading,
}

#[derive(Default)]
struct State {
    next_id: u64,
    waits: HashMap<u64, Arc<Wait>>,
    deadlines: BTreeSet<(Instant, u64)>,
    token: Token,
    /// Closes the reply channel, waking a leader blocked mid-read.
    closer: Option<Closer>,
    sweeper_started: bool,
    /// When the sweeper wakes next (`None`: only when notified).
    sweeper_wakes_at: Option<Instant>,
}

impl std::fmt::Debug for State {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("State")
            .field("outstanding", &self.waits.len())
            .field("armed", &self.deadlines.len())
            .finish_non_exhaustive()
    }
}

impl State {
    /// If the reader is free, wake one waiter to take it.
    fn pass_token(&self) {
        if matches!(self.token, Token::Free(_)) {
            if let Some(wait) = self.waits.values().next() {
                wait.event.signal();
            }
        }
    }
}

#[derive(Debug)]
struct Inner {
    sched: Scheduler,
    state: Mutex<State>,
    sweeper_cv: Condvar,
    /// Written under `state`'s lock, read without it on fast paths.
    closed: AtomicBool,
    armed_gauge: Arc<clam_obs::Gauge>,
}

/// The outstanding requests of one connection. Dropping the table fails
/// it, which also closes its reply channel and ends its sweeper thread.
#[derive(Debug)]
pub struct PendingReplies(Arc<Inner>);

impl PendingReplies {
    /// An empty, open table whose waiters block on `sched`'s events.
    #[must_use]
    pub fn new(sched: &Scheduler) -> PendingReplies {
        PendingReplies(Arc::new(Inner {
            sched: sched.clone(),
            state: Mutex::new(State::default()),
            sweeper_cv: Condvar::new(),
            closed: AtomicBool::new(false),
            armed_gauge: clam_obs::gauge("rpc.deadlines_armed"),
        }))
    }

    /// Register a request under a fresh id, hand the id to `send`, and
    /// block (a task, not the processor) until the reply arrives. While
    /// no one else reads the reply channel, the caller reads it itself.
    ///
    /// # Errors
    ///
    /// The reply's status; `DeadlineExceeded` once `timeout` passes;
    /// `Disconnected` on teardown; `send`'s error; [`RpcError::Net`] if
    /// the sweeper thread cannot start.
    pub fn request(
        &self,
        timeout: Option<Duration>,
        send: impl FnOnce(u64) -> RpcResult<()>,
    ) -> RpcResult<Opaque> {
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let wait = Arc::new(Wait {
            event: Event::new(&self.0.sched),
            slot: Mutex::new(None),
            deadline,
        });
        let mut st = self.0.state.lock();
        if self.is_closed() {
            return Err(RpcError::Disconnected);
        }
        st.next_id += 1;
        let id = st.next_id;
        st.waits.insert(id, Arc::clone(&wait));
        if let Some(at) = deadline {
            st.deadlines.insert((at, id));
            self.0.armed_gauge.adjust(1);
        }
        drop(st);
        if let Err(e) = send(id) {
            self.0.take(id);
            self.0.state.lock().pass_token();
            return Err(e);
        }
        self.0.await_reply(id, &wait)
    }

    /// Route `reply` to its waiter. Returns `false` if no entry matches:
    /// it expired, its send failed, or it never existed.
    pub fn complete(&self, reply: Reply) -> bool {
        self.0.complete(reply)
    }

    /// Close the table: every waiter and every later request fails with
    /// [`RpcError::Disconnected`], the reply channel closes, and the
    /// sweeper exits.
    pub fn fail_all(&self) {
        self.0.fail_all();
    }

    /// True once the table has been failed.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.0.closed.load(Ordering::Acquire)
    }

    /// Number of requests awaiting replies.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.0.state.lock().waits.len()
    }

    /// Number of armed deadlines (at most [`outstanding`](Self::outstanding)).
    #[must_use]
    pub fn armed(&self) -> usize {
        self.0.state.lock().deadlines.len()
    }

    /// Hand the table its reply channel's read half: from now on its
    /// waiters read `reader` themselves, recycle each frame into `pool`,
    /// route replies of `kind`, and fail the table on EOF or any other
    /// message. A table takes one reader; a later one is dropped.
    pub fn attach_reader(
        &self,
        mut reader: Box<dyn MsgReader>,
        pool: &BufferPool,
        kind: ReplyKind,
    ) {
        reader.attach_pool(pool);
        let closer = reader.closer();
        let mut st = self.0.state.lock();
        if self.is_closed() {
            drop(st);
            closer.close();
            return;
        }
        if !matches!(st.token, Token::Detached) {
            return;
        }
        st.token = Token::Free(Box::new(Link {
            reader,
            pool: pool.clone(),
            kind,
        }));
        st.closer = Some(closer);
        st.pass_token();
    }
}

impl Drop for PendingReplies {
    fn drop(&mut self) {
        self.0.fail_all();
    }
}

impl Inner {
    /// Wait for entry `id`'s outcome, leading whenever the reader is
    /// free and following otherwise.
    fn await_reply(self: &Arc<Self>, id: u64, wait: &Wait) -> RpcResult<Opaque> {
        loop {
            if let Some(outcome) = wait.slot.lock().take() {
                // A follower may have been handed the token just before
                // its own outcome came in: pass it on.
                self.state.lock().pass_token();
                return outcome;
            }
            let mut st = self.state.lock();
            match std::mem::replace(&mut st.token, Token::Leading) {
                Token::Free(mut link) => {
                    drop(st);
                    if self.sched.outside(|| link.lead(self, id, wait)) {
                        let mut st = self.state.lock();
                        if !self.closed.load(Ordering::Acquire) {
                            st.token = Token::Free(link);
                            st.pass_token();
                        }
                    } else {
                        self.fail_all();
                    }
                    // Either way the entry is done: `lead` returns once it is,
                    // and `fail_all` finishes it.
                    let outcome = wait.slot.lock().take();
                    return outcome.unwrap_or(Err(RpcError::Disconnected));
                }
                other => {
                    st.token = other;
                    if let Some(at) = wait.deadline {
                        if let Err(e) = self.arm_sweeper(&mut st, at) {
                            drop(st);
                            if self.take(id).is_some() {
                                return Err(e);
                            }
                            continue;
                        }
                    }
                    drop(st);
                    wait.event.wait();
                }
            }
        }
    }

    /// Make sure the sweeper will wake by `at` (a follower's deadline),
    /// starting it on first use. A lone request reads its own reply
    /// under its own deadline and never gets here.
    fn arm_sweeper(self: &Arc<Self>, st: &mut State, at: Instant) -> RpcResult<()> {
        if !st.sweeper_started {
            let inner = Arc::clone(self);
            std::thread::Builder::new()
                .name("clam-deadline-sweeper".to_string())
                .spawn(move || inner.sweep())
                .map_err(|e| RpcError::Net(NetError::Io(e)))?;
            st.sweeper_started = true;
        }
        if st.sweeper_wakes_at.map_or(true, |wake| at < wake) {
            st.sweeper_wakes_at = Some(at);
            self.sweeper_cv.notify_one();
        }
        Ok(())
    }

    /// Remove an entry and its deadline; the caller owns its completion.
    fn take(&self, id: u64) -> Option<Arc<Wait>> {
        let mut st = self.state.lock();
        let wait = st.waits.remove(&id)?;
        if let Some(at) = wait.deadline {
            st.deadlines.remove(&(at, id));
            self.armed_gauge.adjust(-1);
        }
        Some(wait)
    }

    fn expire(&self, id: u64) {
        if let Some(wait) = self.take(id) {
            wait.finish(Err(RpcError::DeadlineExceeded));
        }
    }

    fn complete(&self, reply: Reply) -> bool {
        let Some(wait) = self.take(reply.request_id) else {
            return false;
        };
        wait.finish(if reply.status == StatusCode::Ok {
            Ok(reply.results)
        } else {
            Err(RpcError::status(reply.status, reply.detail))
        });
        true
    }

    fn fail_all(&self) {
        let mut st = self.state.lock();
        self.closed.store(true, Ordering::Release);
        self.armed_gauge.adjust(-(st.deadlines.len() as i64));
        st.deadlines.clear();
        for (_, wait) in st.waits.drain() {
            wait.finish(Err(RpcError::Disconnected));
        }
        st.token = Token::Detached;
        let closer = st.closer.take();
        self.sweeper_cv.notify_one();
        drop(st);
        if let Some(closer) = closer {
            closer.close();
        }
    }

    /// The sweeper thread: expire due entries, then sleep until the
    /// earliest armed deadline (or until notified if none is armed).
    fn sweep(&self) {
        let mut st = self.state.lock();
        while !self.closed.load(Ordering::Acquire) {
            let now = Instant::now();
            while let Some(&(_, id)) = st.deadlines.first().filter(|(at, _)| *at <= now) {
                st.deadlines.pop_first();
                self.armed_gauge.adjust(-1);
                if let Some(wait) = st.waits.remove(&id) {
                    wait.finish(Err(RpcError::DeadlineExceeded));
                }
            }
            st.sweeper_wakes_at = st.deadlines.first().map(|&(at, _)| at);
            if let Some(at) = st.sweeper_wakes_at {
                self.sweeper_cv.wait_until(&mut st, at);
            } else {
                self.sweeper_cv.wait(&mut st);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Arc<PendingReplies> {
        Arc::new(PendingReplies::new(&Scheduler::new("pending-test")))
    }

    fn ok_reply(request_id: u64, byte: u8) -> Reply {
        Reply {
            request_id,
            status: StatusCode::Ok,
            detail: String::new(),
            results: Opaque::from(vec![byte]),
        }
    }

    /// A request that sends nothing, so only expiry or teardown ends it.
    fn silent(t: &PendingReplies, timeout: Duration) -> RpcResult<Opaque> {
        t.request(Some(timeout), |_| Ok(()))
    }

    /// Block in a silent request on another thread, once it is armed.
    fn silent_in_background(
        t: &Arc<PendingReplies>,
        timeout: Duration,
    ) -> std::thread::JoinHandle<RpcResult<Opaque>> {
        let armed_before = t.armed();
        let bg = Arc::clone(t);
        let h = std::thread::spawn(move || silent(&bg, timeout));
        while t.armed() == armed_before {
            std::thread::yield_now();
        }
        h
    }

    /// True once only the test holds the table's state: the sweeper
    /// thread has exited.
    fn sweeper_exits(inner: &Arc<Inner>) -> bool {
        let give_up = Instant::now() + Duration::from_secs(2);
        while Arc::strong_count(inner) > 1 {
            if Instant::now() > give_up {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn reply_completes_its_waiter_and_disarms_the_deadline() {
        let t = table();
        let out = t.request(Some(Duration::from_secs(30)), |id| {
            assert_eq!((t.outstanding(), t.armed()), (1, 1));
            assert!(t.complete(ok_reply(id, 7)));
            Ok(())
        });
        assert_eq!(out.unwrap().as_slice(), &[7]);
        assert_eq!((t.outstanding(), t.armed()), (0, 0));
    }

    #[test]
    fn expiry_fires_after_the_deadline() {
        let t = table();
        let start = Instant::now();
        let err = silent(&t, Duration::from_millis(30)).unwrap_err();
        assert!(matches!(err, RpcError::DeadlineExceeded), "got {err:?}");
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(30),
            "fired early: {elapsed:?}"
        );
        assert_eq!((t.outstanding(), t.armed()), (0, 0));
    }

    #[test]
    fn late_reply_after_expiry_matches_nothing() {
        let t = table();
        let mut late = 0;
        let err = t
            .request(Some(Duration::from_millis(10)), |id| {
                late = id;
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, RpcError::DeadlineExceeded));
        assert!(!t.complete(ok_reply(late, 1)), "expired entry is gone");

        // Nor may the late reply complete the next request.
        let out = t.request(Some(Duration::from_secs(30)), |id| {
            assert_ne!(id, late);
            assert!(!t.complete(ok_reply(late, 1)));
            assert!(t.complete(ok_reply(id, 2)));
            Ok(())
        });
        assert_eq!(out.unwrap().as_slice(), &[2]);
    }

    #[test]
    fn short_deadline_armed_after_a_long_one_fires_on_time() {
        let t = table();
        let long = silent_in_background(&t, Duration::from_secs(30));
        // Let the sweeper settle into its 30 s sleep first.
        std::thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        let err = silent(&t, Duration::from_millis(20)).unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, RpcError::DeadlineExceeded), "got {err:?}");
        assert!(
            elapsed >= Duration::from_millis(20),
            "fired early: {elapsed:?}"
        );
        assert!(elapsed < Duration::from_secs(2), "fired late: {elapsed:?}");
        assert_eq!((t.outstanding(), t.armed()), (1, 1), "the long one stays");
        t.fail_all();
        assert!(matches!(long.join().unwrap(), Err(RpcError::Disconnected)));
    }

    #[test]
    fn sweeper_stays_parked_when_drained_and_serves_later_deadlines() {
        let t = table();
        for _ in 0..2 {
            let err = silent(&t, Duration::from_millis(5)).unwrap_err();
            assert!(matches!(err, RpcError::DeadlineExceeded));
            // Drained: the sweeper parks instead of exiting, so it still
            // holds its reference to the table.
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(Arc::strong_count(&t.0), 2, "table + sweeper");
        }
    }

    #[test]
    fn failing_the_table_ends_the_sweeper_without_firing() {
        let t = table();
        let waiter = silent_in_background(&t, Duration::from_secs(60));
        t.fail_all();
        assert!(matches!(
            waiter.join().unwrap(),
            Err(RpcError::Disconnected)
        ));
        assert_eq!((t.outstanding(), t.armed()), (0, 0));
        let inner = Arc::clone(&t.0);
        drop(t);
        assert!(sweeper_exits(&inner), "sweeper outlived the failed table");
    }

    #[test]
    fn dropping_the_table_ends_the_sweeper_without_firing() {
        let t = table();
        // Leave the sweeper asleep toward the 60 s deadline of a request
        // that was answered.
        let out = t.request(Some(Duration::from_secs(60)), |id| {
            assert!(t.complete(ok_reply(id, 0)));
            Ok(())
        });
        assert!(out.is_ok());
        let inner = Arc::clone(&t.0);
        drop(t);
        assert!(sweeper_exits(&inner), "sweeper outlived the dropped table");
    }

    #[test]
    fn register_on_a_closed_table_is_disconnected() {
        let t = table();
        t.fail_all();
        assert!(t.is_closed());
        for timeout in [Some(Duration::from_secs(1)), None] {
            let out = t.request(timeout, |_| panic!("a closed table sends nothing"));
            assert!(matches!(out, Err(RpcError::Disconnected)));
        }
    }

    fn reply_frame(request_id: u64, byte: u8) -> clam_net::Frame {
        Message::Reply(ok_reply(request_id, byte))
            .to_frame()
            .unwrap()
            .into()
    }

    /// A table reading the client end of a fresh in-memory pair; the
    /// server end is returned.
    fn linked() -> (Arc<PendingReplies>, clam_net::Channel) {
        let (client, server) = clam_net::pair();
        let t = table();
        let (_w, r) = client.split();
        t.attach_reader(r, &BufferPool::default(), ReplyKind::Reply);
        (t, server)
    }

    fn sweeper_started(t: &PendingReplies) -> bool {
        t.0.state.lock().sweeper_started
    }

    #[test]
    fn a_lone_request_reads_its_own_reply_and_never_starts_the_sweeper() {
        let (t, mut server) = linked();
        for i in 0..100u8 {
            let out = t.request(Some(Duration::from_secs(30)), |id| {
                server.send(reply_frame(id, i)).map_err(RpcError::Net)
            });
            assert_eq!(out.unwrap().as_slice(), &[i]);
        }
        assert!(!sweeper_started(&t));
        assert_eq!(Arc::strong_count(&t.0), 1, "no sweeper holds the table");
        assert_eq!((t.outstanding(), t.armed()), (0, 0));
    }

    #[test]
    fn a_leaders_own_deadline_ends_its_read() {
        let (t, _server) = linked();
        let start = Instant::now();
        let err = silent(&t, Duration::from_millis(30)).unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, RpcError::DeadlineExceeded), "got {err:?}");
        assert!(elapsed >= Duration::from_millis(30), "early: {elapsed:?}");
        assert!(elapsed < Duration::from_millis(60), "late: {elapsed:?}");
        assert!(!sweeper_started(&t));
    }

    #[test]
    fn followers_get_their_replies_from_whoever_reads() {
        const WAITERS: usize = 8;
        let (t, mut server) = linked();
        let (ids, sent) = std::sync::mpsc::channel::<u64>();
        let waiters: Vec<_> = (0..WAITERS)
            .map(|_| {
                let (t, ids) = (Arc::clone(&t), ids.clone());
                std::thread::spawn(move || {
                    let mut mine = 0;
                    let out = t.request(Some(Duration::from_secs(30)), |id| {
                        mine = id;
                        ids.send(id).unwrap();
                        Ok(())
                    });
                    #[allow(clippy::cast_possible_truncation)]
                    let expect = mine as u8;
                    assert_eq!(out.unwrap().as_slice(), &[expect]);
                })
            })
            .collect();
        // Answer only once every request is out, last first.
        let mut all: Vec<u64> = (0..WAITERS).map(|_| sent.recv().unwrap()).collect();
        all.reverse();
        for id in all {
            #[allow(clippy::cast_possible_truncation)]
            server.send(reply_frame(id, id as u8)).unwrap();
        }
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!((t.outstanding(), t.armed()), (0, 0));
    }

    #[test]
    fn the_sweeper_expires_a_follower_and_teardown_wakes_the_reading_leader() {
        let (t, _server) = linked();
        let leader = silent_in_background(&t, Duration::from_secs(30));
        while !matches!(t.0.state.lock().token, Token::Leading) {
            std::thread::yield_now();
        }
        let start = Instant::now();
        let err = silent(&t, Duration::from_millis(40)).unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, RpcError::DeadlineExceeded), "got {err:?}");
        assert!(elapsed >= Duration::from_millis(40), "early: {elapsed:?}");
        assert!(elapsed < Duration::from_millis(80), "late: {elapsed:?}");
        assert!(
            sweeper_started(&t),
            "a follower's deadline needs the sweeper"
        );
        let start = Instant::now();
        t.fail_all();
        assert!(matches!(
            leader.join().unwrap(),
            Err(RpcError::Disconnected)
        ));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn a_hangup_or_a_stray_message_fails_every_waiter() {
        for stray in [false, true] {
            let (t, mut server) = linked();
            let waiter = silent_in_background(&t, Duration::from_secs(30));
            if stray {
                let upcall = Message::UpcallReply(ok_reply(1, 0));
                server.send(upcall.to_frame().unwrap()).unwrap();
            } else {
                drop(server);
            }
            assert!(matches!(
                waiter.join().unwrap(),
                Err(RpcError::Disconnected)
            ));
            assert!(t.is_closed());
        }
    }

    #[test]
    fn failed_send_removes_the_entry_and_its_deadline() {
        let t = table();
        let mut sent = 0;
        let err = t
            .request(Some(Duration::from_secs(30)), |id| {
                sent = id;
                Err(RpcError::Protocol("link down".into()))
            })
            .unwrap_err();
        assert!(matches!(err, RpcError::Protocol(_)));
        assert_eq!((t.outstanding(), t.armed()), (0, 0));
        assert!(!t.complete(ok_reply(sent, 0)));
    }
}
