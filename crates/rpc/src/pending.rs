//! The pending-reply table of a client's sync calls and of a server's
//! sync upcalls — the same wait seen from the two ends (section 4.3).
//!
//! The table's waiters read their replies themselves (Leader/Followers),
//! outside their scheduler's baton: one waiter at a time holds the
//! reader and reads until its own deadline, routing each reply to its
//! entry; once its own reply is in, it hands the reader to another
//! waiter. So a lone request is answered on the thread that waits for
//! it. The others wait on their own condition variables, each until its
//! own deadline. So every waiter times its own wait — the leader with
//! a timed read (`recv_until`, which sleeps in `ppoll`), a follower with
//! its condition variable — and no thread keeps time for the table. Whoever removes an entry removes its
//! deadline too, so armed deadlines never outnumber outstanding requests.

use crate::error::{RpcError, RpcResult, StatusCode};
use crate::message::{MessageView, Reply};
use clam_net::{Closer, MsgReader};
use clam_task::Scheduler;
use clam_xdr::{BufferPool, Opaque};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which reply message the table's reader accepts; any other message is
/// a protocol violation that drops the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyKind {
    /// [`Message::Reply`](crate::Message::Reply), read by a client.
    Reply,
    /// [`Message::UpcallReply`](crate::Message::UpcallReply), read by a
    /// server.
    UpcallReply,
}

/// One outstanding request. Its outcome is only written under the
/// table's lock, and `cv` (waited on with that lock) wakes this waiter
/// alone: for its outcome, or to offer it the reader.
#[derive(Debug)]
struct Wait {
    cv: Condvar,
    slot: Mutex<Option<RpcResult<Opaque>>>,
    deadline: Option<Instant>,
}

impl Wait {
    fn finish(&self, outcome: RpcResult<Opaque>) {
        *self.slot.lock() = Some(outcome);
        self.cv.notify_one();
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
    /// Read until `wait` is done, routing every reply through `table`.
    /// `false` means the link is dead: EOF, a read error, or a message
    /// other than a reply of the link's kind.
    fn lead(&mut self, table: &PendingReplies, id: u64, wait: &Wait) -> bool {
        while !wait.is_done() {
            let frame = match wait.deadline {
                Some(at) => self.reader.recv_until(at),
                None => self.reader.recv().map(Some),
            };
            let frame = match frame {
                Ok(Some(frame)) => frame,
                Ok(None) => {
                    table.finish(id, Err(RpcError::DeadlineExceeded));
                    continue;
                }
                Err(_) => return false,
            };
            let (request_id, outcome) = match (MessageView::parse(&frame), self.kind) {
                (Ok(MessageView::Reply(reply)), ReplyKind::Reply)
                | (Ok(MessageView::UpcallReply(reply)), ReplyKind::UpcallReply) => {
                    (reply.request_id, reply.outcome())
                }
                _ => return false,
            };
            self.pool.recycle(frame.into_wire());
            table.finish(request_id, outcome);
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
    /// Entries of `waits` that have a deadline.
    armed: usize,
    token: Token,
    /// Closes the reply channel, waking a leader blocked mid-read.
    closer: Option<Closer>,
}

impl std::fmt::Debug for State {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("State")
            .field("outstanding", &self.waits.len())
            .field("armed", &self.armed)
            .finish_non_exhaustive()
    }
}

impl State {
    /// If the reader is free, wake one waiter to take it.
    fn pass_token(&self) {
        if matches!(self.token, Token::Free(_)) {
            if let Some(wait) = self.waits.values().next() {
                wait.cv.notify_one();
            }
        }
    }
}

/// The outstanding requests of one connection. Dropping the table fails
/// it, which also closes its reply channel.
#[derive(Debug)]
pub struct PendingReplies {
    sched: Scheduler,
    state: Mutex<State>,
    /// Written under `state`'s lock, read without it on fast paths.
    closed: AtomicBool,
    armed_gauge: Arc<clam_obs::Gauge>,
}

impl PendingReplies {
    /// An empty, open table whose waiters give up `sched`'s baton while
    /// they wait.
    #[must_use]
    pub fn new(sched: &Scheduler) -> PendingReplies {
        PendingReplies {
            sched: sched.clone(),
            state: Mutex::new(State::default()),
            closed: AtomicBool::new(false),
            armed_gauge: clam_obs::gauge("rpc.deadlines_armed"),
        }
    }

    /// Register a request under a fresh id, hand the id to `send`, and
    /// block (a task, not the processor) until the reply arrives. While
    /// no one else reads the reply channel, the caller reads it itself.
    ///
    /// # Errors
    ///
    /// The reply's status; `DeadlineExceeded` once `timeout` passes;
    /// `Disconnected` on teardown; `send`'s error.
    pub fn request(
        &self,
        timeout: Option<Duration>,
        send: impl FnOnce(u64) -> RpcResult<()>,
    ) -> RpcResult<Opaque> {
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let wait = Arc::new(Wait {
            cv: Condvar::new(),
            slot: Mutex::new(None),
            deadline,
        });
        let mut st = self.state.lock();
        if self.is_closed() {
            return Err(RpcError::Disconnected);
        }
        st.next_id += 1;
        let id = st.next_id;
        st.waits.insert(id, Arc::clone(&wait));
        if deadline.is_some() {
            st.armed += 1;
            self.armed_gauge.adjust(1);
        }
        drop(st);
        if let Err(e) = send(id) {
            let mut st = self.state.lock();
            self.remove(&mut st, id);
            st.pass_token();
            return Err(e);
        }
        self.sched.outside(|| self.await_reply(id, &wait))
    }

    /// Route `reply` to its waiter. Returns `false` if no entry matches:
    /// it expired, its send failed, or it never existed.
    pub fn complete(&self, reply: Reply) -> bool {
        self.finish(
            reply.request_id,
            if reply.status == StatusCode::Ok {
                Ok(reply.results)
            } else {
                Err(RpcError::status(reply.status, reply.detail))
            },
        )
    }

    /// Close the table: every waiter and every later request fails with
    /// [`RpcError::Disconnected`], and the reply channel closes.
    pub fn fail_all(&self) {
        let mut st = self.state.lock();
        self.closed.store(true, Ordering::Release);
        self.armed_gauge.adjust(-(st.armed as i64));
        st.armed = 0;
        for (_, wait) in st.waits.drain() {
            wait.finish(Err(RpcError::Disconnected));
        }
        st.token = Token::Detached;
        let closer = st.closer.take();
        drop(st);
        if let Some(closer) = closer {
            closer.close();
        }
    }

    /// True once the table has been failed.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Number of requests awaiting replies.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.state.lock().waits.len()
    }

    /// Number of armed deadlines (at most [`outstanding`](Self::outstanding)).
    #[must_use]
    pub fn armed(&self) -> usize {
        self.state.lock().armed
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
        let mut st = self.state.lock();
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

    /// Wait, outside the baton, for entry `id`'s outcome: lead whenever
    /// the reader is free, follow otherwise, and expire the entry at its
    /// own deadline.
    fn await_reply(&self, id: u64, wait: &Wait) -> RpcResult<Opaque> {
        let mut st = self.state.lock();
        loop {
            if let Some(outcome) = wait.slot.lock().take() {
                // The token may have been offered to this waiter just
                // before its own outcome came in: pass it on.
                st.pass_token();
                return outcome;
            }
            if wait.deadline.is_some_and(|at| Instant::now() >= at) {
                self.finish_locked(&mut st, id, Err(RpcError::DeadlineExceeded));
                continue;
            }
            match std::mem::replace(&mut st.token, Token::Leading) {
                Token::Free(mut link) => {
                    drop(st);
                    // `lead` returns once the entry is done, and
                    // `fail_all` finishes it.
                    if !link.lead(self, id, wait) {
                        self.fail_all();
                    }
                    st = self.state.lock();
                    if !self.is_closed() {
                        st.token = Token::Free(link);
                    }
                }
                other => {
                    st.token = other;
                    match wait.deadline {
                        Some(at) => {
                            wait.cv.wait_until(&mut st, at);
                        }
                        None => wait.cv.wait(&mut st),
                    }
                }
            }
        }
    }

    /// Remove an entry and its deadline; the caller owns its completion.
    fn remove(&self, st: &mut State, id: u64) -> Option<Arc<Wait>> {
        let wait = st.waits.remove(&id)?;
        if wait.deadline.is_some() {
            st.armed -= 1;
            self.armed_gauge.adjust(-1);
        }
        Some(wait)
    }

    /// Remove entry `id` and wake its waiter with `outcome`. `false` if
    /// no entry matches.
    fn finish(&self, id: u64, outcome: RpcResult<Opaque>) -> bool {
        self.finish_locked(&mut self.state.lock(), id, outcome)
    }

    fn finish_locked(&self, st: &mut State, id: u64, outcome: RpcResult<Opaque>) -> bool {
        let Some(wait) = self.remove(st, id) else {
            return false;
        };
        wait.finish(outcome);
        true
    }
}

impl Drop for PendingReplies {
    fn drop(&mut self) {
        self.fail_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;

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

    fn is_leading(t: &PendingReplies) -> bool {
        matches!(t.state.lock().token, Token::Leading)
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
        // Let the long waiter settle into its 30 s wait first.
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
    fn a_drained_table_expires_later_deadlines_too() {
        let t = table();
        for _ in 0..3 {
            let start = Instant::now();
            let err = silent(&t, Duration::from_millis(5)).unwrap_err();
            assert!(matches!(err, RpcError::DeadlineExceeded));
            assert!(start.elapsed() >= Duration::from_millis(5));
            assert_eq!((t.outstanding(), t.armed()), (0, 0));
            assert_eq!(Arc::strong_count(&t), 1, "no thread holds the table");
        }
    }

    #[test]
    fn failing_the_table_wakes_its_waiters_without_firing() {
        let (t, _server) = linked();
        let leader = silent_in_background(&t, Duration::from_secs(60));
        while !is_leading(&t) {
            std::thread::yield_now();
        }
        let follower = silent_in_background(&t, Duration::from_secs(60));
        let start = Instant::now();
        t.fail_all();
        for waiter in [leader, follower] {
            assert!(matches!(
                waiter.join().unwrap(),
                Err(RpcError::Disconnected)
            ));
        }
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!((t.outstanding(), t.armed()), (0, 0));
        assert_eq!(Arc::strong_count(&t), 1, "no thread holds the table");
    }

    #[test]
    fn dropping_the_table_fails_it_and_closes_the_reply_channel() {
        let (t, mut server) = linked();
        let out = t.request(Some(Duration::from_secs(60)), |id| {
            server.send(reply_frame(id, 0)).map_err(RpcError::Net)
        });
        assert!(out.is_ok());
        let t = Arc::into_inner(t).expect("no thread holds the table");
        drop(t);
        assert!(
            server.send(reply_frame(1, 0)).is_err(),
            "reply channel open"
        );
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
    }

    /// A table reading the client end of a fresh in-process pair; the
    /// server end is returned.
    fn linked() -> (Arc<PendingReplies>, clam_net::Channel) {
        let (client, server) = clam_net::pair();
        let t = table();
        let (_w, r) = client.split();
        t.attach_reader(r, &BufferPool::default(), ReplyKind::Reply);
        (t, server)
    }

    #[test]
    fn a_lone_request_reads_its_own_reply() {
        let (t, mut server) = linked();
        for i in 0..100u8 {
            let out = t.request(Some(Duration::from_secs(30)), |id| {
                server.send(reply_frame(id, i)).map_err(RpcError::Net)
            });
            assert_eq!(out.unwrap().as_slice(), &[i]);
        }
        assert_eq!(Arc::strong_count(&t), 1, "no thread holds the table");
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
    }

    /// Start `timeouts.len()` waiters, one per timeout, the first of them
    /// alone until it leads; each sends its id and whether it expects a
    /// reply (a timeout of 1 s or more) through the returned receiver.
    fn waiters(
        t: &Arc<PendingReplies>,
        timeouts: &[Duration],
    ) -> (
        Vec<std::thread::JoinHandle<()>>,
        std::sync::mpsc::Receiver<(u64, bool)>,
    ) {
        let (ids, sent) = std::sync::mpsc::channel();
        let handles = timeouts
            .iter()
            .enumerate()
            .map(|(i, &timeout)| {
                let (bg, ids) = (Arc::clone(t), ids.clone());
                let answered = timeout >= Duration::from_secs(1);
                let h = std::thread::spawn(move || {
                    let mut mine = 0;
                    let out = bg.request(Some(timeout), |id| {
                        mine = id;
                        ids.send((id, answered)).unwrap();
                        Ok(())
                    });
                    if answered {
                        #[allow(clippy::cast_possible_truncation)]
                        let expect = mine as u8;
                        assert_eq!(out.unwrap().as_slice(), &[expect]);
                    } else {
                        assert!(matches!(out, Err(RpcError::DeadlineExceeded)));
                    }
                });
                while i == 0 && !is_leading(t) {
                    std::thread::yield_now();
                }
                h
            })
            .collect();
        (handles, sent)
    }

    #[test]
    fn followers_get_their_replies_from_whoever_reads() {
        const WAITERS: usize = 8;
        let (t, mut server) = linked();
        let (handles, sent) = waiters(&t, &[Duration::from_secs(30); WAITERS]);
        // Answer only once every request is out, last first.
        let mut all: Vec<(u64, bool)> = (0..WAITERS).map(|_| sent.recv().unwrap()).collect();
        all.reverse();
        for (id, _) in all {
            #[allow(clippy::cast_possible_truncation)]
            server.send(reply_frame(id, id as u8)).unwrap();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!((t.outstanding(), t.armed()), (0, 0));
    }

    #[test]
    fn followers_get_their_replies_after_the_leader_and_others_expire() {
        const WAITERS: usize = 8;
        let (t, mut server) = linked();
        // The first waiter leads and expires, as does every other one:
        // each must pass the reader on as it leaves.
        let timeouts: Vec<Duration> = (0..WAITERS)
            .map(|i| Duration::from_millis(if i % 2 == 0 { 100 } else { 30_000 }))
            .collect();
        let (handles, sent) = waiters(&t, &timeouts);
        let all: Vec<(u64, bool)> = (0..WAITERS).map(|_| sent.recv().unwrap()).collect();
        let give_up = Instant::now() + Duration::from_secs(5);
        while t.outstanding() > WAITERS / 2 {
            assert!(Instant::now() < give_up, "short deadlines did not fire");
            std::thread::sleep(Duration::from_millis(1));
        }
        let start = Instant::now();
        for &(id, answered) in all.iter().rev() {
            if answered {
                #[allow(clippy::cast_possible_truncation)]
                server.send(reply_frame(id, id as u8)).unwrap();
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_secs(1), "reader lost: {elapsed:?}");
        assert_eq!((t.outstanding(), t.armed()), (0, 0));
    }

    #[test]
    fn a_follower_times_its_own_wait_and_teardown_wakes_the_reading_leader() {
        let (t, _server) = linked();
        let leader = silent_in_background(&t, Duration::from_secs(30));
        while !is_leading(&t) {
            std::thread::yield_now();
        }
        let start = Instant::now();
        let err = silent(&t, Duration::from_millis(40)).unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, RpcError::DeadlineExceeded), "got {err:?}");
        assert!(elapsed >= Duration::from_millis(40), "early: {elapsed:?}");
        assert!(elapsed < Duration::from_millis(80), "late: {elapsed:?}");
        assert!(is_leading(&t), "the leader reads on");
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
