//! The pending-reply table of a client's sync calls and of a server's
//! sync upcalls — the same wait seen from the two ends (section 4.3).
//! [`Event`]s have no timed wait, so one sweeper thread per table sleeps
//! until the earliest armed deadline. Whoever removes an entry removes
//! its deadline too, so armed deadlines never outnumber outstanding
//! requests.

use crate::error::{RpcError, RpcResult, StatusCode};
use crate::message::{Message, Reply};
use clam_net::{MsgReader, NetError};
use clam_task::{Event, Scheduler};
use clam_xdr::{BufferPool, Opaque};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which reply message a reply pump accepts; any other message is a
/// protocol violation that drops the link.
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
}

#[derive(Debug, Default)]
struct State {
    next_id: u64,
    waits: HashMap<u64, Arc<Wait>>,
    deadlines: BTreeSet<(Instant, u64)>,
    sweeper_started: bool,
    /// When the sweeper wakes next (`None`: only when notified).
    sweeper_wakes_at: Option<Instant>,
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
/// it, which also ends its sweeper thread.
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
    /// block (a task, not the processor) until the reply arrives.
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
        if deadline.is_some() && !st.sweeper_started {
            let inner = Arc::clone(&self.0);
            std::thread::Builder::new()
                .name("clam-deadline-sweeper".to_string())
                .spawn(move || inner.sweep())
                .map_err(|e| RpcError::Net(NetError::Io(e)))?;
            st.sweeper_started = true;
        }
        st.next_id += 1;
        let id = st.next_id;
        st.waits.insert(id, Arc::clone(&wait));
        if let Some(at) = deadline {
            st.deadlines.insert((at, id));
            self.0.armed_gauge.adjust(1);
            if st.sweeper_wakes_at.map_or(true, |wake| at < wake) {
                st.sweeper_wakes_at = Some(at);
                self.0.sweeper_cv.notify_one();
            }
        }
        drop(st);
        if let Err(e) = send(id) {
            self.0.take(id);
            return Err(e);
        }
        wait.event.wait();
        let outcome = wait.slot.lock().take();
        outcome.unwrap_or(Err(RpcError::Disconnected))
    }

    /// Route `reply` to its waiter. Returns `false` if no entry matches:
    /// it expired, its send failed, or it never existed.
    pub fn complete(&self, reply: Reply) -> bool {
        self.0.complete(reply)
    }

    /// Close the table: every waiter and every later request fails with
    /// [`RpcError::Disconnected`], and the sweeper exits.
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

    /// Spawn the reply pump: a thread that reads `reader`, recycles each
    /// frame into `pool`, routes replies of `kind`, and fails the table on
    /// EOF or any other message.
    ///
    /// # Errors
    ///
    /// The OS error if the thread cannot start (the table is then failed).
    pub fn spawn_reply_pump(
        &self,
        mut reader: Box<dyn MsgReader>,
        pool: &BufferPool,
        kind: ReplyKind,
    ) -> std::io::Result<JoinHandle<()>> {
        reader.attach_pool(pool);
        let (inner, pool) = (Arc::clone(&self.0), pool.clone());
        std::thread::Builder::new()
            .name("clam-reply-pump".to_string())
            .spawn(move || {
                while let Ok(frame) = reader.recv() {
                    let reply = match (Message::from_frame(&frame), kind) {
                        (Ok(Message::Reply(reply)), ReplyKind::Reply)
                        | (Ok(Message::UpcallReply(reply)), ReplyKind::UpcallReply) => reply,
                        _ => break,
                    };
                    pool.recycle(frame.into_wire());
                    inner.complete(reply);
                }
                inner.fail_all();
            })
            .inspect_err(|_| self.fail_all())
    }
}

impl Drop for PendingReplies {
    fn drop(&mut self) {
        self.0.fail_all();
    }
}

impl Inner {
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
        self.sweeper_cv.notify_one();
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
