//! The Remote Upcall (RUC) class — section 3.5.2.
//!
//! "The server bundler … stores the client's procedure pointer, a pointer
//! to the server's upcall bundler, and the client's IPC connection
//! identifier in an object of a Remote Upcall (RUC) class. The purpose of
//! the RUC class is to control distributed upcalls."
//!
//! [`UpcallRouter`] is the per-client side of that control: it owns the
//! upcall channel's writer, matches upcall replies to waiting server
//! tasks, and enforces the active-upcall limit of section 4.4. One RUC
//! object is a remote [`UpcallTarget`](crate::UpcallTarget): the client's
//! procedure id bound to its connection's router, with its argument and
//! result types as the upcall stub; invoking it performs the distributed
//! upcall.

use clam_net::{MsgReader, MsgWriter};
use clam_rpc::{Message, PendingReplies, ProcId, ReplyKind, RpcError, RpcResult, TaskWriter};
use clam_task::{Event, Scheduler};
use clam_xdr::{BufferPool, XdrResult};
use std::sync::Arc;
use std::time::Duration;

clam_obs::counters! {
    struct RouterCounters {
        /// Distributed upcalls sent through this router.
        remote: "core.upcall.remote",
    }
}

/// Per-client controller of the upcall channel.
///
/// Owns the writer half; the reader half sits in its [`PendingReplies`]
/// table, read by the upcallers themselves. The permit machinery
/// implements "we allow only one upcall to be active per client" —
/// a server task invoking a synchronous upcall while another is active
/// blocks until the slot frees (with `max_concurrent_upcalls > 1`, until
/// *a* slot frees).
pub struct UpcallRouter {
    writer: TaskWriter,
    /// Outstanding synchronous upcalls and their deadlines.
    replies: PendingReplies,
    permits: Event,
    /// Upcall frames cycle: acquire → encode → send → the sent frame drops
    /// and its buffer comes back. Reply frames are read into it too.
    pool: BufferPool,
    /// Deadline for synchronous upcalls; `None` is the paper's unbounded
    /// wait (a client that never replies blocks its server task forever).
    timeout: Option<Duration>,
    counters: RouterCounters,
}

impl std::fmt::Debug for UpcallRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpcallRouter")
            .field("closed", &self.replies.is_closed())
            .finish_non_exhaustive()
    }
}

impl UpcallRouter {
    /// Create a router over the upcall channel's writer half, allowing
    /// `max_active` synchronous upcalls at once.
    ///
    /// A synchronous upcall whose reply has not arrived within `timeout`
    /// fails with [`RpcError::DeadlineExceeded`] — a hung or dead client
    /// can no longer pin a server task forever. `None` keeps the paper's
    /// unbounded wait.
    #[must_use]
    pub fn new(
        sched: &Scheduler,
        writer: Box<dyn MsgWriter>,
        max_active: usize,
        timeout: Option<Duration>,
    ) -> Arc<Self> {
        let permits = Event::new(sched);
        for _ in 0..max_active {
            permits.signal();
        }
        Arc::new(UpcallRouter {
            writer: TaskWriter::new(sched, writer),
            replies: PendingReplies::new(sched),
            permits,
            pool: BufferPool::default(),
            timeout,
            counters: RouterCounters::register(),
        })
    }

    /// Perform a synchronous distributed upcall: acquire an active slot,
    /// bundle the arguments with `args` straight into the upcall frame,
    /// send, block until the client's reply and decode it with `results`
    /// straight from the reply frame.
    ///
    /// From a server task, blocking suspends the *task* — the scheduler
    /// runs other work meanwhile, exactly the flow of section 4.3 ("while
    /// the client task is active the server task is blocked").
    ///
    /// Fails with transport errors, [`RpcError::Disconnected`] if the
    /// client goes away, or the client procedure's error status.
    pub(crate) fn invoke<T>(
        &self,
        proc_id: ProcId,
        args: impl FnOnce(&mut Vec<u8>) -> XdrResult<()>,
        results: impl FnOnce(&[u8]) -> RpcResult<T>,
    ) -> RpcResult<T> {
        // One active upcall per client (section 4.4).
        self.permits.wait();
        // The upcall is a child span of whatever server-side span is
        // current (usually the client call that triggered it), so the
        // client's handler stitches into the same trace tree. Journal
        // the parent edge here: the wire carries only (trace, span).
        let parent = clam_obs::current();
        let ctx = parent.child(); // a child of NONE is a fresh root
        self.counters.remote.inc();
        clam_obs::journal().record(
            clam_obs::EventKind::UpcallSent,
            ctx,
            parent.span,
            u32::try_from(proc_id.id).unwrap_or(u32::MAX),
        );
        let result = self.replies.request_with(
            self.timeout,
            |request_id| {
                let frame =
                    Message::upcall_frame_in(&self.pool, proc_id.id, request_id, ctx, args)?;
                Ok(self.writer.send(frame)?)
            },
            results,
        );
        self.permits.signal();
        result
    }

    /// Perform an asynchronous upcall, its arguments bundled by `args`
    /// straight into the upcall frame: no reply, no slot consumed.
    ///
    /// Fails with transport and bundling errors.
    pub(crate) fn invoke_async(
        &self,
        proc_id: ProcId,
        args: impl FnOnce(&mut Vec<u8>) -> XdrResult<()>,
    ) -> RpcResult<()> {
        if self.replies.is_closed() {
            return Err(RpcError::Disconnected);
        }
        self.counters.remote.inc();
        // Async upcalls join the current trace without opening a span:
        // nobody waits on them, so there is nothing to time.
        let trace = clam_obs::current();
        let frame = Message::upcall_frame_in(&self.pool, proc_id.id, 0, trace, args)?;
        // The client's upcall queue is the transport's buffer; a send
        // that must wait for room waits outside the baton.
        Ok(self.writer.send(frame)?)
    }

    /// This router's own `core.*` counts, keyed by catalogue name.
    #[must_use]
    pub fn metrics(&self) -> clam_obs::MetricsSnapshot {
        self.counters.metrics()
    }

    /// Number of upcalls awaiting replies.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.replies.outstanding()
    }

    /// Fail every outstanding upcall (client teardown).
    pub fn fail_all(&self) {
        self.replies.fail_all();
    }

    /// Hand the upcall channel's reader to the pending-reply table
    /// ([`PendingReplies::attach_reader`]): upcallers then read their own
    /// replies, and no thread is started.
    pub fn attach_reader(&self, reader: Box<dyn MsgReader>) {
        self.replies
            .attach_reader(reader, &self.pool, ReplyKind::UpcallReply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UpcallTarget;
    use clam_net::pair;
    use clam_rpc::{MessageView, Reply, StatusCode};
    use clam_xdr::Opaque;
    use parking_lot::Mutex;

    /// A fake client: answers every sync upcall `x: u32` with `x + 1`.
    fn fake_client(mut chan: clam_net::Channel) -> std::thread::JoinHandle<u64> {
        std::thread::spawn(move || {
            let mut served = 0;
            while let Ok(frame) = chan.recv() {
                let Ok(MessageView::Upcall(up)) = MessageView::parse(&frame) else {
                    break;
                };
                served += 1;
                if up.request_id != 0 {
                    let x: u32 = clam_xdr::decode(up.args).unwrap();
                    let reply = Message::UpcallReply(Reply {
                        request_id: up.request_id,
                        status: StatusCode::Ok,
                        detail: String::new(),
                        results: Opaque::from(clam_xdr::encode(&(x + 1)).unwrap()),
                    });
                    chan.send(reply.to_frame().unwrap()).unwrap();
                }
            }
            served
        })
    }

    fn rig(max_active: usize) -> (Arc<UpcallRouter>, std::thread::JoinHandle<u64>, Scheduler) {
        let (server_end, client_end) = pair();
        let sched = Scheduler::new("ruc-test");
        let (w, r) = server_end.split();
        let router = UpcallRouter::new(&sched, w, max_active, None);
        router.attach_reader(r);
        let client = fake_client(client_end);
        (router, client, sched)
    }

    #[test]
    fn sync_upcall_round_trips() {
        let (router, _client, _sched) = rig(1);
        let ruc: UpcallTarget<u32, u32> =
            UpcallTarget::remote(Arc::clone(&router), ProcId { id: 7 });
        assert_eq!(ruc.invoke(12).unwrap(), 13);
        assert_eq!(router.outstanding(), 0);
    }

    #[test]
    fn each_router_counts_its_own_upcalls() {
        let (one, _client_one, _sched_one) = rig(1);
        let (other, _client_other, _sched_other) = rig(1);
        let ruc = |router: &Arc<UpcallRouter>| {
            UpcallTarget::<u32, u32>::remote(Arc::clone(router), ProcId { id: 7 })
        };
        for _ in 0..2 {
            ruc(&one).invoke(0).unwrap();
        }
        ruc(&other).invoke_async(0).unwrap();
        let remote = |router: &UpcallRouter| router.metrics().counter("core.upcall.remote");
        assert_eq!((remote(&one), remote(&other)), (2, 1));
    }

    #[test]
    fn async_upcall_does_not_wait() {
        let (router, _client, _sched) = rig(1);
        let ruc: UpcallTarget<u32, u32> =
            UpcallTarget::remote(Arc::clone(&router), ProcId { id: 7 });
        ruc.invoke_async(9).unwrap();
        assert_eq!(router.outstanding(), 0);
    }

    #[test]
    fn upcall_error_status_propagates() {
        let (server_end, mut client_end) = pair();
        let sched = Scheduler::new("ruc-err");
        let (w, r) = server_end.split();
        let router = UpcallRouter::new(&sched, w, 1, None);
        router.attach_reader(r);
        let t = std::thread::spawn(move || {
            let frame = client_end.recv().unwrap();
            let Ok(MessageView::Upcall(up)) = MessageView::parse(&frame) else {
                panic!()
            };
            let reply = Message::UpcallReply(Reply {
                request_id: up.request_id,
                status: StatusCode::Fault,
                detail: "handler crashed".into(),
                results: Opaque::new(),
            });
            client_end.send(reply.to_frame().unwrap()).unwrap();
            client_end
        });
        let ruc: UpcallTarget<(), ()> = UpcallTarget::remote(router, ProcId { id: 1 });
        let err = ruc.invoke(()).unwrap_err();
        assert_eq!(err.status_code(), Some(StatusCode::Fault));
        drop(t.join().unwrap());
    }

    #[test]
    fn client_disconnect_fails_outstanding_upcalls() {
        let (server_end, client_end) = pair();
        let sched = Scheduler::new("ruc-disc");
        let (w, r) = server_end.split();
        let router = UpcallRouter::new(&sched, w, 1, None);
        router.attach_reader(r);
        let t = std::thread::spawn(move || {
            let mut client_end = client_end;
            let _ = client_end.recv();
            drop(client_end); // hang up without replying
        });
        let ruc: UpcallTarget<(), ()> = UpcallTarget::remote(Arc::clone(&router), ProcId { id: 1 });
        let err = ruc.invoke(()).unwrap_err();
        assert!(matches!(err, RpcError::Disconnected));
        t.join().unwrap();
        assert!(matches!(
            ruc.invoke(()).unwrap_err(),
            RpcError::Disconnected
        ));
    }

    #[test]
    fn silent_client_deadlines_the_upcall() {
        use std::time::{Duration, Instant};
        let (server_end, client_end) = pair();
        let sched = Scheduler::new("ruc-deadline");
        let (w, r) = server_end.split();
        let timeout = Duration::from_millis(120);
        let router = UpcallRouter::new(&sched, w, 1, Some(timeout));
        router.attach_reader(r);
        // A client that accepts the upcall but never answers.
        let t = std::thread::spawn(move || {
            let mut chan = client_end;
            while chan.recv().is_ok() {}
        });
        let ruc: UpcallTarget<(), ()> = UpcallTarget::remote(Arc::clone(&router), ProcId { id: 1 });
        let start = Instant::now();
        let err = ruc.invoke(()).unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, RpcError::DeadlineExceeded), "got {err:?}");
        assert!(
            elapsed < timeout * 2,
            "upcall deadline must fire within 2x the timeout, took {elapsed:?}"
        );
        assert_eq!(router.outstanding(), 0, "expired upcall must be reaped");
        // The active-upcall slot was released: the next upcall proceeds
        // (and deadlines again, rather than blocking on the permit).
        assert!(matches!(
            ruc.invoke(()).unwrap_err(),
            RpcError::DeadlineExceeded
        ));
        // Drop every router handle so the writer closes and the silent
        // client's recv loop ends.
        drop(ruc);
        drop(router);
        t.join().unwrap();
    }

    #[test]
    fn upcall_limit_serializes_concurrent_upcalls() {
        // Two server tasks race to upcall; with max_active = 1 the second
        // must wait until the first completes.
        let (server_end, client_end) = pair();
        let sched = Scheduler::new("ruc-limit");
        let (w, r) = server_end.split();
        let router = UpcallRouter::new(&sched, w, 1, None);
        router.attach_reader(r);

        // A slow fake client: observes both requests before replying, if
        // the router lets both through (it must not).
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let t = std::thread::spawn(move || {
            let mut chan = client_end;
            for _ in 0..2 {
                let Ok(frame) = chan.recv() else { return };
                let Ok(MessageView::Upcall(up)) = MessageView::parse(&frame) else {
                    return;
                };
                // Record how many upcalls were in flight when this one
                // arrived: with the limit, always zero others.
                seen2.lock().push(up.request_id);
                std::thread::sleep(std::time::Duration::from_millis(10));
                let reply = Message::UpcallReply(Reply {
                    request_id: up.request_id,
                    status: StatusCode::Ok,
                    detail: String::new(),
                    results: Opaque::new(),
                });
                let _ = chan.send(reply.to_frame().unwrap());
            }
        });

        let mut handles = Vec::new();
        for _ in 0..2 {
            let router = Arc::clone(&router);
            handles.push(sched.spawn("upcaller", move || {
                let ruc: UpcallTarget<(), ()> = UpcallTarget::remote(router, ProcId { id: 1 });
                ruc.invoke(()).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        t.join().unwrap();
        // The second upcall was sent only after the first replied: the
        // fake client saw them strictly one at a time (request ids in
        // order and the router never had 2 outstanding).
        assert_eq!(*seen.lock(), vec![1, 2]);
    }

    #[test]
    fn relaxed_limit_allows_parallel_upcalls() {
        let (server_end, client_end) = pair();
        let sched = Scheduler::new("ruc-relaxed");
        let (w, r) = server_end.split();
        let router = UpcallRouter::new(&sched, w, 2, None);
        router.attach_reader(r);

        // Fake client that collects BOTH requests before replying to
        // either — deadlock unless two upcalls may be active at once.
        let t = std::thread::spawn(move || {
            let mut chan = client_end;
            let mut reqs = Vec::new();
            for _ in 0..2 {
                let frame = chan.recv().unwrap();
                let Ok(MessageView::Upcall(up)) = MessageView::parse(&frame) else {
                    panic!()
                };
                reqs.push(up.request_id);
            }
            for id in reqs {
                let reply = Message::UpcallReply(Reply {
                    request_id: id,
                    status: StatusCode::Ok,
                    detail: String::new(),
                    results: Opaque::new(),
                });
                chan.send(reply.to_frame().unwrap()).unwrap();
            }
        });

        let mut handles = Vec::new();
        for _ in 0..2 {
            let router = Arc::clone(&router);
            handles.push(sched.spawn("upcaller", move || {
                let ruc: UpcallTarget<(), ()> = UpcallTarget::remote(router, ProcId { id: 1 });
                ruc.invoke(()).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        t.join().unwrap();
    }

    #[test]
    fn a_send_into_a_buffer_with_room_is_not_a_switch_point() {
        let listener = clam_net::listen(&clam_net::Endpoint::tcp("127.0.0.1:0")).unwrap();
        let server_end = clam_net::connect(&listener.endpoint()).unwrap();
        let _client_end = listener.accept().unwrap();
        let sched = Scheduler::new("ruc-room");
        let (w, _r) = server_end.split();
        let router = UpcallRouter::new(&sched, w, 1, None);
        let log = Arc::new(Mutex::new(Vec::new()));
        let sender = {
            let (s, log) = (sched.clone(), Arc::clone(&log));
            sched.spawn("sender", move || {
                // Ready from here on: it runs only when the sender blocks
                // or ends.
                let log2 = Arc::clone(&log);
                s.spawn("bystander", move || log2.lock().push("bystander"));
                let ruc: UpcallTarget<u32, u32> = UpcallTarget::remote(router, ProcId { id: 1 });
                for i in 0..3 {
                    ruc.invoke_async(i).unwrap();
                    log.lock().push("sent");
                }
            })
        };
        sender.join().unwrap();
        sched.wait_idle();
        assert_eq!(*log.lock(), ["sent", "sent", "sent", "bystander"]);
    }
}
