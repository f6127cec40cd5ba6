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
//!
//! The entries live in a slab that the request id indexes (the slot in
//! the high 32 bits, a request count in the low 32, so a late reply never
//! matches the request that reuses its slot). A slot and its condition
//! variable are made only when every slot is taken: the slab never holds
//! more slots than the most requests outstanding at once, and a request
//! allocates nothing. Each outcome stays in its slot, under the table's
//! one lock; an `Ok` reply stays the pooled frame it came in, which the
//! waiter decodes its result from. A leader whose own reply comes in
//! routes it, hands the reader back and takes its outcome in one pass.
//!
//! Every decision of this protocol is one function, [`Proto::on`], over
//! the token, the closed flag and the armed count; the table's methods
//! only perform what it returns. The explorer in this module's tests
//! drives `Proto::on` through every order of 3 waiters, with and without
//! deadlines, against replies arriving in pieces, deadlines, a failed
//! send, `fail_all`, a hangup and `attach_reader`, and checks: at most
//! one leader and one reader of the stream; the reader is never lost, and
//! is `Detached` once the table fails; every waiter ends with exactly one
//! outcome, no wake-up is lost and none waits past its deadline; armed
//! deadlines equal the outstanding entries that have one.

use crate::error::{RpcError, RpcResult, StatusCode};
use crate::message::{MessageView, Reply, ReplyKind};
use clam_net::{Closer, Frame, MsgReader};
use clam_task::Scheduler;
use clam_xdr::{BufferPool, Opaque};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a request ended: with result bytes, the `range` of a frame's
/// payload (an `Ok` reply frame, or one holding the results
/// [`PendingReplies::complete`] was handed), or with an error.
#[derive(Debug)]
enum Outcome {
    Results(Frame, Range<usize>),
    Failed(RpcError),
}

/// One slot of the slab: free (id 0), or one outstanding request, which
/// is done once it has its outcome.
#[derive(Debug, Default)]
struct Entry {
    id: u64,
    deadline: Option<Instant>,
    outcome: Option<Outcome>,
    /// Waited on with the table's lock; wakes this slot's waiter alone,
    /// for its outcome or to offer it the reader.
    cv: Arc<Condvar>,
}

/// The reply channel's read half and what decoding its frames needs.
struct Link {
    reader: Box<dyn MsgReader>,
    kind: ReplyKind,
}

impl Link {
    /// Read one reply, until `deadline` if any, and the request it
    /// finishes: its own, or request `mine` with `DeadlineExceeded` once
    /// the deadline passes. `None` means the link is dead: EOF, a read
    /// error, or a message other than a reply of the link's kind.
    fn read(&mut self, deadline: Option<Instant>, mine: u64) -> Option<(u64, Outcome)> {
        let frame = match deadline {
            Some(at) => self.reader.recv_until(at),
            None => self.reader.recv().map(Some),
        };
        let Some(frame) = frame.ok()? else {
            return Some((mine, Outcome::Failed(RpcError::DeadlineExceeded)));
        };
        let reply = match (MessageView::parse(&frame), self.kind) {
            (Ok(MessageView::Reply(reply)), ReplyKind::Reply)
            | (Ok(MessageView::UpcallReply(reply)), ReplyKind::UpcallReply) => reply,
            _ => return None,
        };
        let id = reply.request_id;
        if reply.status != StatusCode::Ok {
            let failed = RpcError::status(reply.status, reply.detail);
            return Some((id, Outcome::Failed(failed)));
        }
        // The results are a slice of the frame's payload.
        let start = reply.results.as_ptr() as usize - frame.as_ptr() as usize;
        let results = start..start + reply.results.len();
        Some((id, Outcome::Results(frame, results)))
    }
}

/// Where the reader is: the token of Leader/Followers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
enum Token {
    /// No reader attached (or the table failed): waiters only wait.
    #[default]
    Detached,
    /// Attached and free: the next waiter to look takes it.
    Free,
    /// A waiter is reading.
    Leading,
}

/// The table's protocol state: the token, whether the table has failed,
/// and how many entries have a deadline. [`Proto::on`] makes every
/// decision of the protocol over this value alone (it takes no lock,
/// reads no clock and wakes no thread), and the table performs what it
/// returns under its lock. The tests below drive it through every
/// interleaving of 3 waiters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
struct Proto {
    token: Token,
    closed: bool,
    armed: usize,
}

/// What happens to the table. An entry is named by whether it has a
/// deadline; `None` is one that has already left the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum On {
    Request {
        timed: bool,
    },
    SendFailed(Option<bool>),
    /// A waiter looks, under the lock.
    Look {
        done: bool,
        expired: bool,
        timed: bool,
    },
    /// The leader routes an outcome: a reply, or its read's deadline.
    Reply(Option<bool>),
    /// The leader's read loop ends; `false` if the link died.
    Led(bool),
    FailAll,
    Attach,
}

/// What the table does: carry on (register, route, or drop the reader
/// handed in); refuse (fail the request, close the reader, or drop the
/// link); return the outcome; finish the entry (with the routed outcome,
/// or its own `DeadlineExceeded`); lead or follow, until its own
/// deadline if `timed`; keep the link, now free; or fail every entry
/// with `Disconnected` and close the reply channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Do {
    Proceed,
    Refuse,
    Return,
    Finish,
    Lead { timed: bool },
    Follow { timed: bool },
    Keep,
    Fail,
}

/// Whom the table wakes: nobody, the waiters of the entries just
/// finished, or one waiting entry, to take the free reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wake {
    Nobody,
    Finished,
    One,
}

impl Proto {
    fn on(&mut self, on: On) -> (Do, Wake) {
        // Whoever removes an entry removes its deadline too.
        match on {
            On::Request { timed } if !self.closed => self.armed += usize::from(timed),
            On::SendFailed(Some(true)) | On::Reply(Some(true)) => self.armed -= 1,
            On::Look {
                done: false,
                expired: true,
                ..
            } => self.armed -= 1,
            On::Led(false) | On::FailAll => self.armed = 0,
            _ => {}
        }
        let offer = if self.token == Token::Free {
            Wake::One
        } else {
            Wake::Nobody
        };
        match on {
            On::Request { .. } | On::Led(true) | On::Attach if self.closed => {
                (Do::Refuse, Wake::Nobody)
            }
            On::Request { .. } | On::Reply(None) => (Do::Proceed, Wake::Nobody),
            On::SendFailed(_) => (Do::Proceed, offer),
            // The reader may have been offered to this waiter just before
            // its own outcome came in: pass it on.
            On::Look { done: true, .. } => (Do::Return, offer),
            On::Look { expired: true, .. } => (Do::Finish, Wake::Nobody),
            On::Look { timed, .. } if self.token == Token::Free => {
                self.token = Token::Leading;
                (Do::Lead { timed }, Wake::Nobody)
            }
            On::Look { timed, .. } => (Do::Follow { timed }, Wake::Nobody),
            On::Reply(Some(_)) => (Do::Finish, Wake::Finished),
            On::Led(false) | On::FailAll => {
                (self.token, self.closed) = (Token::Detached, true);
                (Do::Fail, Wake::Finished)
            }
            On::Led(true) => {
                self.token = Token::Free;
                (Do::Keep, Wake::Nobody)
            }
            // A table takes one reader; a later one is dropped.
            On::Attach if self.token != Token::Detached => (Do::Proceed, Wake::Nobody),
            On::Attach => {
                self.token = Token::Free;
                (Do::Keep, Wake::One)
            }
        }
    }
}

#[derive(Default)]
struct State {
    /// Requests registered so far; the low half of the next id.
    registered: u64,
    slab: Vec<Entry>,
    /// The free slots of `slab`.
    free: Vec<usize>,
    proto: Proto,
    /// The reader, while the token is `Free`.
    link: Option<Box<Link>>,
    /// Closes the reply channel, waking a leader blocked mid-read.
    closer: Option<Closer>,
}

impl std::fmt::Debug for State {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("State")
            .field("outstanding", &self.waiting().count())
            .field("slots", &self.slab.len())
            .field("proto", &self.proto)
            .finish_non_exhaustive()
    }
}

/// A table's state is its protocol's, plus what the protocol moves.
impl std::ops::Deref for State {
    type Target = Proto;

    fn deref(&self) -> &Proto {
        &self.proto
    }
}

impl State {
    /// Register a request in a free slot, made if there is none; the slot.
    fn insert(&mut self, deadline: Option<Instant>) -> usize {
        self.registered += 1;
        // The low half is never 0, so no id is the async calls' 0.
        if self.registered as u32 == 0 {
            self.registered += 1;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(Entry::default());
            self.slab.len() - 1
        });
        let entry = &mut self.slab[slot];
        entry.id = ((slot as u64) << 32) | u64::from(self.registered as u32);
        entry.deadline = deadline;
        slot
    }

    /// Free `slot`; the outcome it held.
    fn remove(&mut self, slot: usize) -> Option<Outcome> {
        self.slab[slot].id = 0;
        self.free.push(slot);
        self.slab[slot].outcome.take()
    }

    /// True if `slot` holds a request still waiting for its outcome.
    fn waits(&self, slot: usize) -> bool {
        let entry = &self.slab[slot];
        entry.id != 0 && entry.outcome.is_none()
    }

    /// The slots of the requests still waiting for their outcome.
    fn waiting(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.slab.len()).filter(|&slot| self.waits(slot))
    }

    /// The slot of request `id`, if it is still waiting.
    fn find(&self, id: u64) -> Option<usize> {
        let slot = usize::try_from(id >> 32).ok()?;
        (slot < self.slab.len() && self.slab[slot].id == id && self.waits(slot)).then_some(slot)
    }

    /// Hand `slot`'s waiter `outcome`, and wake it if `wake` says so.
    fn finish(&mut self, slot: usize, outcome: Outcome, wake: Wake) {
        let entry = &mut self.slab[slot];
        entry.outcome = Some(outcome);
        if wake == Wake::Finished {
            entry.cv.notify_one();
        }
    }

    /// Wake one waiting entry if `wake` says so, to take the free reader.
    fn offer(&self, wake: Wake) {
        if wake == Wake::One {
            if let Some(slot) = self.waiting().next() {
                self.slab[slot].cv.notify_one();
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

    /// Decide `on` with [`Proto::on`], keeping the gauge and `closed` in
    /// step with it.
    fn on(&self, st: &mut State, on: On) -> (Do, Wake) {
        let armed = st.proto.armed;
        let act = st.proto.on(on);
        if st.proto.armed != armed {
            #[allow(clippy::cast_possible_wrap)]
            self.armed_gauge
                .adjust(st.proto.armed as i64 - armed as i64);
        }
        if st.proto.closed {
            self.closed.store(true, Ordering::Release);
        }
        act
    }

    /// Register a request under a fresh id, hand the id to `send`, and
    /// block (a task, not the processor) until the reply arrives; its
    /// results, copied out. While no one else reads the reply channel,
    /// the caller reads it itself.
    ///
    /// # Errors
    ///
    /// As [`request_with`](Self::request_with).
    pub fn request(
        &self,
        timeout: Option<Duration>,
        send: impl FnOnce(u64) -> RpcResult<()>,
    ) -> RpcResult<Opaque> {
        self.request_with(timeout, send, |results| Ok(Opaque::from(results)))
    }

    /// [`request`](Self::request), with the reply's result bytes handed
    /// to `results` where they lie, in the reply frame.
    ///
    /// # Errors
    ///
    /// The reply's status; `DeadlineExceeded` once `timeout` passes;
    /// `Disconnected` on teardown; `send`'s error; `results`' error.
    pub fn request_with<T>(
        &self,
        timeout: Option<Duration>,
        send: impl FnOnce(u64) -> RpcResult<()>,
        results: impl FnOnce(&[u8]) -> RpcResult<T>,
    ) -> RpcResult<T> {
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let timed = deadline.is_some();
        let mut st = self.state.lock();
        if self.on(&mut st, On::Request { timed }).0 == Do::Refuse {
            return Err(RpcError::Disconnected);
        }
        let slot = st.insert(deadline);
        let id = st.slab[slot].id;
        drop(st);
        if let Err(e) = send(id) {
            let mut st = self.state.lock();
            let entry = st.find(id).map(|_| timed);
            st.remove(slot);
            let (_, wake) = self.on(&mut st, On::SendFailed(entry));
            st.offer(wake);
            return Err(e);
        }
        match self.sched.outside(|| self.await_reply(slot)) {
            Outcome::Results(frame, range) => results(&frame[range]),
            Outcome::Failed(e) => Err(e),
        }
    }

    /// Route `reply` to its waiter. Returns `false` if no entry matches:
    /// it expired, its send failed, or it never existed.
    pub fn complete(&self, reply: Reply) -> bool {
        let outcome = if reply.status == StatusCode::Ok {
            let len = reply.results.len();
            Outcome::Results(Frame::from(reply.results.as_slice()), 0..len)
        } else {
            Outcome::Failed(RpcError::status(reply.status, reply.detail))
        };
        self.route(&mut self.state.lock(), reply.request_id, outcome)
    }

    /// Close the table: every waiter and every later request fails with
    /// [`RpcError::Disconnected`], and the reply channel closes.
    pub fn fail_all(&self) {
        let mut st = self.state.lock();
        let (_, wake) = self.on(&mut st, On::FailAll);
        self.fail(st, wake);
    }

    /// Perform [`Do::Fail`]: finish every entry with `Disconnected`, wake
    /// their waiters if `wake` says so, and close the reply channel.
    fn fail(&self, mut st: MutexGuard<'_, State>, wake: Wake) {
        for slot in 0..st.slab.len() {
            if st.waits(slot) {
                st.finish(slot, Outcome::Failed(RpcError::Disconnected), wake);
            }
        }
        st.link = None;
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
        self.state.lock().waiting().count()
    }

    /// Number of armed deadlines (at most [`outstanding`](Self::outstanding)).
    #[must_use]
    pub fn armed(&self) -> usize {
        self.state.lock().armed
    }

    /// Hand the table its reply channel's read half: from now on its
    /// waiters read `reader` themselves, into buffers from `pool`, route
    /// replies of `kind`, and fail the table on EOF or any other
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
        match self.on(&mut st, On::Attach) {
            (Do::Refuse, _) => {
                drop(st);
                closer.close();
            }
            (Do::Keep, wake) => {
                st.link = Some(Box::new(Link { reader, kind }));
                st.closer = Some(closer);
                st.offer(wake);
            }
            _ => {}
        }
    }

    /// Wait, outside the baton, for `slot`'s outcome, doing what
    /// [`Proto::on`] decides each time the waiter looks: lead, follow,
    /// expire the entry at its own deadline, or return; then free the
    /// slot.
    fn await_reply(&self, slot: usize) -> Outcome {
        let mut st = self.state.lock();
        loop {
            let entry = &st.slab[slot];
            let (done, deadline) = (entry.outcome.is_some(), entry.deadline);
            let look = On::Look {
                done,
                expired: !done && deadline.is_some_and(|at| Instant::now() >= at),
                timed: deadline.is_some(),
            };
            match self.on(&mut st, look) {
                (Do::Return, wake) => {
                    st.offer(wake);
                    return st.remove(slot).expect("a done entry has its outcome");
                }
                (Do::Finish, wake) => {
                    st.finish(slot, Outcome::Failed(RpcError::DeadlineExceeded), wake);
                }
                (Do::Lead { timed }, _) => {
                    let link = st.link.take().expect("a free token has its link");
                    st = self.lead(st, slot, link, deadline.filter(|_| timed));
                }
                (Do::Follow { timed }, _) => {
                    let cv = Arc::clone(&st.slab[slot].cv);
                    match deadline.filter(|_| timed) {
                        Some(at) => {
                            cv.wait_until(&mut st, at);
                        }
                        None => cv.wait(&mut st),
                    }
                }
                act => unreachable!("{act:?} on a look"),
            }
        }
    }

    /// Read with `link`, outside the lock, routing every reply, until
    /// `slot` is done (`deadline` finishes it too) or the link dies; then,
    /// in the same pass under the lock, keep or drop the link as
    /// [`Proto::on`] decides. `fail_all` closes the reader, so the read
    /// ends then as well.
    fn lead<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        slot: usize,
        mut link: Box<Link>,
        deadline: Option<Instant>,
    ) -> MutexGuard<'a, State> {
        let mine = st.slab[slot].id;
        let alive = loop {
            drop(st);
            let read = link.read(deadline, mine);
            st = self.state.lock();
            let Some((id, outcome)) = read else {
                break false;
            };
            self.route(&mut st, id, outcome);
            if st.slab[slot].outcome.is_some() {
                break true;
            }
        };
        match self.on(&mut st, On::Led(alive)) {
            (Do::Keep, _) => st.link = Some(link),
            (Do::Fail, wake) => {
                self.fail(st, wake);
                st = self.state.lock();
            }
            _ => {}
        }
        st
    }

    /// Finish request `id` with `outcome`. `false` if no entry waits
    /// under `id`.
    fn route(&self, st: &mut State, id: u64, outcome: Outcome) -> bool {
        let slot = st.find(id);
        let entry = slot.map(|slot| st.slab[slot].deadline.is_some());
        let (_, wake) = self.on(st, On::Reply(entry));
        if let Some(slot) = slot {
            st.finish(slot, outcome, wake);
        }
        slot.is_some()
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
    fn a_reused_slot_matches_only_its_own_request() {
        let t = table();
        let mut late = 0;
        let expired = t.request(Some(Duration::from_millis(5)), |id| {
            late = id;
            Ok(())
        });
        assert!(matches!(expired, Err(RpcError::DeadlineExceeded)));
        let out = t.request(Some(Duration::from_secs(30)), |id| {
            assert_eq!(id >> 32, late >> 32, "the expired request's slot is reused");
            assert_ne!(id, late);
            assert!(!t.complete(ok_reply(late, 1)), "the old id matches nothing");
            assert!(t.complete(ok_reply(id, 2)));
            assert!(
                !t.complete(ok_reply(id, 3)),
                "a finished request takes no second reply"
            );
            Ok(())
        });
        assert_eq!(out.unwrap().as_slice(), &[2]);
        assert_eq!(
            t.state.lock().slab.len(),
            1,
            "one slot for one request at a time"
        );
    }

    #[test]
    fn the_slab_holds_no_more_slots_than_requests_outstanding_at_once() {
        const WAITERS: usize = 5;
        let (t, mut server) = linked();
        for _round in 0..3 {
            let (handles, sent) = waiters(&t, &[Duration::from_secs(30); WAITERS]);
            let all: Vec<(u64, bool)> = (0..WAITERS).map(|_| sent.recv().unwrap()).collect();
            for (id, _) in all {
                #[allow(clippy::cast_possible_truncation)]
                server.send(reply_frame(id, id as u8)).unwrap();
            }
            for h in handles {
                h.join().unwrap();
            }
        }
        let st = t.state.lock();
        assert_eq!((st.slab.len(), st.free.len()), (WAITERS, WAITERS));
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

    // ------------------------------------------------------------------
    // Every interleaving of the token protocol.
    // ------------------------------------------------------------------

    /// Where one modelled waiter is.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    enum Pc {
        Idle,
        /// Registered, sending its request.
        Sending,
        /// Awake, about to look under the lock.
        Looking,
        /// On its condition variable, until its deadline if `timed`.
        Asleep {
            timed: bool,
        },
        /// Holding the reader, reading until its deadline if `timed`.
        Leading {
            timed: bool,
        },
        Gone,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    struct Waiter {
        pc: Pc,
        timed: bool,
        expired: bool,
        /// A notify is pending on its condition variable.
        notified: bool,
        in_table: bool,
        /// Its outcome slot is written.
        outcome: bool,
        /// Its request reached the peer, which may now reply.
        sent: bool,
        replied: bool,
    }

    const WAITERS: usize = 3;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct Model {
        proto: Proto,
        waiters: [Waiter; WAITERS],
        /// Reply frames on the channel, oldest first, by waiter; `false`
        /// while only the frame's head has arrived. A waiter's reply is
        /// sent once, so `WAITERS` frames at most.
        wire: [(usize, bool); WAITERS],
        on_wire: usize,
        /// A reader was attached (so fail_all closes the channel).
        attached: bool,
        attach_done: bool,
        failed: bool,
        hung_up: bool,
        fault: Option<&'static str>,
    }

    impl Model {
        fn start(timed: [bool; WAITERS]) -> Model {
            let waiter = |timed| Waiter {
                pc: Pc::Idle,
                timed,
                expired: false,
                notified: false,
                in_table: false,
                outcome: false,
                sent: false,
                replied: false,
            };
            Model {
                proto: Proto::default(),
                waiters: timed.map(waiter),
                wire: [(0, false); WAITERS],
                on_wire: 0,
                attached: false,
                attach_done: false,
                failed: false,
                hung_up: false,
                fault: None,
            }
        }

        fn notify(&mut self, w: usize) {
            if matches!(self.waiters[w].pc, Pc::Asleep { .. }) {
                self.waiters[w].notified = true;
            }
        }

        /// Finish entry `w` as the table does, waking its waiter if told.
        fn finish(&mut self, w: usize, wake: Wake) {
            let waiter = &mut self.waiters[w];
            if waiter.outcome {
                self.fault = Some("a waiter got a second outcome");
            }
            (waiter.outcome, waiter.in_table) = (true, false);
            if wake == Wake::Finished {
                self.notify(w);
            }
        }

        /// Perform `wake` for an offer: the table wakes whichever entry its
        /// map yields first, so every entry is a successor.
        fn offer(self, wake: Wake, out: &mut Vec<Model>) {
            let mut entries = (0..WAITERS)
                .filter(|&w| self.waiters[w].in_table)
                .peekable();
            if wake != Wake::One || entries.peek().is_none() {
                return out.push(self);
            }
            for w in entries {
                let mut m = self;
                m.notify(w);
                out.push(m);
            }
        }

        /// Waiters are interchangeable: sort them, renaming the frames
        /// on the wire to match, so that states differing only in which
        /// waiter is which are visited once.
        fn canonical(self) -> Model {
            let mut order: [usize; WAITERS] = std::array::from_fn(|w| w);
            order.sort_by_key(|&w| self.waiters[w]);
            let mut m = self;
            for (to, &from) in order.iter().enumerate() {
                m.waiters[to] = self.waiters[from];
            }
            for frame in &mut m.wire[..m.on_wire] {
                frame.0 = order
                    .iter()
                    .position(|&from| from == frame.0)
                    .expect("a waiter");
            }
            m
        }

        fn fail(&mut self, wake: Wake) {
            for w in 0..WAITERS {
                if self.waiters[w].in_table {
                    self.finish(w, wake);
                }
            }
            self.hung_up |= self.attached;
        }

        fn waiter_steps(&self, w: usize, out: &mut Vec<Model>) {
            let me = self.waiters[w];
            let mut m = *self;
            match me.pc {
                Pc::Idle => {
                    m.waiters[w].pc = if m.proto.on(On::Request { timed: me.timed }).0 == Do::Refuse
                    {
                        Pc::Gone
                    } else {
                        m.waiters[w].in_table = true;
                        Pc::Sending
                    };
                    out.push(m);
                }
                Pc::Sending => {
                    let mut sent = m;
                    (sent.waiters[w].pc, sent.waiters[w].sent) = (Pc::Looking, true);
                    out.push(sent);
                    let entry = me.in_table.then_some(me.timed);
                    (m.waiters[w].pc, m.waiters[w].in_table) = (Pc::Gone, false);
                    let (_, wake) = m.proto.on(On::SendFailed(entry));
                    m.offer(wake, out);
                }
                Pc::Looking => {
                    let look = On::Look {
                        done: me.outcome,
                        expired: !me.outcome && me.expired,
                        timed: me.timed,
                    };
                    match m.proto.on(look) {
                        (Do::Return, wake) => {
                            if !me.outcome {
                                m.fault = Some("a waiter returned without an outcome");
                            }
                            m.waiters[w].pc = Pc::Gone;
                            return m.offer(wake, out);
                        }
                        (Do::Finish, _) => m.finish(w, Wake::Nobody),
                        (Do::Lead { timed }, _) => m.waiters[w].pc = Pc::Leading { timed },
                        (Do::Follow { timed }, _) => {
                            (m.waiters[w].pc, m.waiters[w].notified) =
                                (Pc::Asleep { timed }, false);
                        }
                        _ => m.fault = Some("a look got an action it cannot perform"),
                    }
                    out.push(m);
                }
                Pc::Asleep { timed } => {
                    if me.notified || (timed && me.expired) {
                        (m.waiters[w].pc, m.waiters[w].notified) = (Pc::Looking, false);
                        out.push(m);
                    }
                }
                Pc::Leading { timed } => self.leader_steps(w, timed, out),
                Pc::Gone => {}
            }
        }

        /// The leader's read loop: it checks its own entry, then reads
        /// one frame, times out, or finds the channel dead.
        fn leader_steps(&self, w: usize, timed: bool, out: &mut Vec<Model>) {
            let me = self.waiters[w];
            let led = |alive: bool, out: &mut Vec<Model>| {
                let mut m = *self;
                m.waiters[w].pc = Pc::Looking;
                match m.proto.on(On::Led(alive)) {
                    (Do::Fail, wake) => m.fail(wake),
                    (Do::Keep | Do::Refuse, _) => {}
                    _ => m.fault = Some("the leader got an action it cannot perform"),
                }
                out.push(m);
            };
            if self.hung_up {
                led(false, out);
            }
            if me.outcome {
                return led(true, out);
            }
            if let (1.., (from, true)) = (self.on_wire, self.wire[0]) {
                let mut m = *self;
                m.wire.copy_within(1.., 0);
                m.on_wire -= 1;
                let entry = m.waiters[from].in_table.then_some(m.waiters[from].timed);
                if let (Do::Finish, wake) = m.proto.on(On::Reply(entry)) {
                    m.finish(from, wake);
                }
                out.push(m);
            }
            if timed && me.expired {
                let mut m = *self;
                if let (Do::Finish, wake) = m.proto.on(On::Reply(Some(me.timed))) {
                    m.finish(w, wake);
                }
                out.push(m);
            }
        }

        /// The peer, the clock and the table's owner.
        fn world_steps(&self, out: &mut Vec<Model>) {
            let half_frame = self.on_wire > 0 && !self.wire[self.on_wire - 1].1;
            for w in 0..WAITERS {
                let me = self.waiters[w];
                if me.sent && !me.replied && !half_frame && !self.hung_up {
                    let mut m = *self;
                    m.waiters[w].replied = true;
                    m.wire[m.on_wire] = (w, false);
                    m.on_wire += 1;
                    out.push(m);
                }
                if me.timed && !me.expired && !matches!(me.pc, Pc::Idle | Pc::Gone) {
                    let mut m = *self;
                    m.waiters[w].expired = true;
                    out.push(m);
                }
            }
            if half_frame {
                let mut m = *self;
                m.wire[m.on_wire - 1].1 = true;
                out.push(m);
            }
            if !self.failed {
                let mut m = *self;
                m.failed = true;
                let (_, wake) = m.proto.on(On::FailAll);
                m.fail(wake);
                out.push(m);
            }
            if !self.hung_up {
                let mut m = *self;
                m.hung_up = true;
                out.push(m);
            }
            if !self.attach_done {
                let mut m = *self;
                m.attach_done = true;
                match m.proto.on(On::Attach) {
                    (Do::Keep, wake) => {
                        m.attached = true;
                        return m.offer(wake, out);
                    }
                    (Do::Refuse, _) => m.hung_up = true,
                    _ => {}
                }
                out.push(m);
            }
        }

        fn next(&self) -> Vec<Model> {
            let mut out = Vec::new();
            for w in 0..WAITERS {
                self.waiter_steps(w, &mut out);
            }
            self.world_steps(&mut out);
            out.into_iter().map(Model::canonical).collect()
        }

        fn check(&self, last: bool) -> Result<(), String> {
            if let Some(fault) = self.fault {
                return Err(fault.into());
            }
            let ws = &self.waiters;
            let leaders = ws
                .iter()
                .filter(|w| matches!(w.pc, Pc::Leading { .. }))
                .count();
            let token = self.proto.token;
            if leaders + usize::from(token == Token::Free) > 1
                || (token == Token::Leading) != (leaders == 1) && !self.proto.closed
            {
                return Err(format!("{leaders} leaders with the token {token:?}"));
            }
            if self.proto.closed && token != Token::Detached {
                return Err("a failed table keeps its reader".into());
            }
            let will_look = ws.iter().any(|w| {
                matches!(w.pc, Pc::Looking | Pc::Sending)
                    || matches!(w.pc, Pc::Asleep { .. }) && w.notified
            });
            if token == Token::Free && ws.iter().any(|w| w.in_table) && !will_look {
                return Err("the reader is free and every waiter sleeps: reader lost".into());
            }
            let timed = ws.iter().filter(|w| w.in_table && w.timed).count();
            if self.proto.armed != timed {
                return Err(format!(
                    "{} deadlines armed for {timed} timed entries",
                    self.proto.armed
                ));
            }
            for w in ws {
                if matches!(w.pc, Pc::Asleep { .. }) && w.outcome && !w.notified {
                    return Err("a waiter sleeps on its outcome: lost wake-up".into());
                }
                let untimed = matches!(
                    w.pc,
                    Pc::Asleep { timed: false } | Pc::Leading { timed: false }
                );
                if w.expired && !w.outcome && untimed {
                    return Err("a waiter waits past its deadline".into());
                }
            }
            if last && ws.iter().any(|w| w.pc != Pc::Gone) {
                return Err("a waiter never returned".into());
            }
            Ok(())
        }
    }

    /// Every order of 3 waiters, each with or without a deadline,
    /// against replies to any of them (each arriving in two pieces), the
    /// deadline of any, a failed send, `fail_all`, a hangup and
    /// `attach_reader`: at most one leader and one reader, a reader that
    /// is never lost and is `Detached` once the table fails, one outcome
    /// per waiter with no lost wake-up and no wait past a deadline, and
    /// armed deadlines equal to the entries that have one.
    #[test]
    fn every_interleaving_keeps_the_reader_and_wakes_each_waiter_once() {
        let starts = (0..=WAITERS).map(|timed| Model::start(std::array::from_fn(|w| w < timed)));
        let states = crate::explore::explore("reply token", starts, Model::next, Model::check);
        assert!(
            states > 10_000,
            "the model explores too little: {states} states"
        );
    }
}
