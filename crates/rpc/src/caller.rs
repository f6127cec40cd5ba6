//! The client-side call runtime: request/reply matching and call batching.
//!
//! Section 3.4: "when no return values are needed, the remote call can be
//! delayed, and put in a batch with other calls … Batching reduces the
//! amount of interprocess communication, and introduces asynchrony into
//! the RPC model. Our underlying communication medium guarantees
//! reliable, in-order delivery of messages, so batched calls will arrive
//! in the correct order. To force synchronization, the client program can
//! either call a procedure that returns a value, or call a special
//! synchronization procedure, which flushes the current batch."
//!
//! [`Caller::call`] is the value-returning form (it flushes and waits);
//! [`Caller::call_async`] is the batched form; [`Caller::flush`] is the
//! special synchronization procedure.

use crate::error::{RpcError, RpcResult};
use crate::message::{BatchEncoder, CallView, ReplyKind, Target};
use crate::pending::PendingReplies;
use crate::server::{TaskWriter, SYNC_SERVICE_ID};
use clam_net::{MsgReader, MsgWriter};
use clam_obs::EventKind;
use clam_task::Scheduler;
use clam_xdr::{BufferPool, Opaque};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

thread_local! {
    /// True while this thread is executing an upcall handler whose
    /// triggering upcall is still outstanding.
    static NESTED_CONTEXT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `f` in *nested-call context*: synchronous calls made inside it are
/// framed as [`NestedCallBatch`](crate::Message::NestedCallBatch), which
/// servers service immediately instead of queuing behind their (possibly
/// blocked) main RPC task. The client runtime wraps upcall handlers in
/// this; spawning a task from inside a handler escapes the context —
/// calls from such tasks may deadlock behind the outstanding upcall and
/// are unsupported. The thread's previous context is back when `f`
/// returns or unwinds.
pub fn nested_call_scope<R>(f: impl FnOnce() -> R) -> R {
    /// Puts the previous context back when dropped.
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            NESTED_CONTEXT.set(self.0);
        }
    }
    let _restore = Restore(NESTED_CONTEXT.replace(true));
    f()
}

/// Is this thread currently inside [`nested_call_scope`]?
#[must_use]
pub fn in_nested_context() -> bool {
    NESTED_CONTEXT.with(std::cell::Cell::get)
}

/// Tuning knobs for the batcher.
///
/// The thresholds are *adaptive flush* points: a long run of async calls
/// streams out in frame-sized chunks instead of accumulating one huge
/// batch, so transport writes overlap with the application still issuing
/// calls and the pooled frame buffer's capacity stays bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallerConfig {
    /// Flush automatically once this many async calls are batched.
    pub flush_at_calls: usize,
    /// Flush automatically once the encoded batch payload exceeds this
    /// many bytes.
    pub flush_at_bytes: usize,
    /// Default deadline for synchronous calls: a call whose reply has not
    /// arrived within this window fails with
    /// [`RpcError::DeadlineExceeded`] instead of blocking forever on a
    /// dead or partitioned peer. `None` restores the paper's unbounded
    /// wait. Overridable per call via [`CallOptions::deadline`].
    pub call_timeout: Option<Duration>,
}

impl Default for CallerConfig {
    fn default() -> Self {
        CallerConfig {
            flush_at_calls: 64,
            flush_at_bytes: 64 * 1024,
            call_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Per-call knobs for [`Caller::call_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallOptions {
    /// Deadline for this call; `None` uses [`CallerConfig::call_timeout`].
    pub deadline: Option<Duration>,
    /// The remote procedure is safe to execute more than once. Only
    /// idempotent calls are retried: a deadline says nothing about
    /// whether the call ran remotely.
    pub idempotent: bool,
    /// Retry an idempotent call at most this many extra times after a
    /// deadline expiry (0 disables retries).
    pub max_retries: u32,
    /// Delay before the first retry; doubles after each attempt
    /// (exponential backoff).
    pub backoff: Duration,
}

impl Default for CallOptions {
    fn default() -> Self {
        CallOptions {
            deadline: None,
            idempotent: false,
            max_retries: 0,
            backoff: Duration::from_millis(25),
        }
    }
}

impl CallOptions {
    /// Override the deadline for this call.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Mark the call idempotent and allow up to `max_retries` retries.
    #[must_use]
    pub fn idempotent_with_retries(mut self, max_retries: u32) -> Self {
        self.idempotent = true;
        self.max_retries = max_retries;
        self
    }

    /// Set the initial retry backoff (doubles per attempt).
    #[must_use]
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }
}

clam_obs::counters! {
    /// A caller's own `rpc.*` counts, registered once per caller so the
    /// batched async path — which must stay allocation-free at steady
    /// state — pays only relaxed atomic adds.
    struct CallerCounters {
        /// Added to under the writer's lock only, so without an atomic
        /// read-modify-write: exact whenever no `call_async` is under
        /// way, and so at every flush.
        calls_async: "rpc.calls_async",
        /// Flushes by reason: batch full by calls, by bytes, or a
        /// synchronization point.
        flush_calls: "rpc.flush.calls",
        flush_bytes: "rpc.flush.bytes",
        flush_sync: "rpc.flush.sync",
        /// Frames of calls sent, and the calls they carried: what IPC
        /// batching saved.
        batches_sent: "rpc.batches_sent",
        calls_sent: "rpc.calls_sent",
        retries: "rpc.retries",
        deadline_expired: "rpc.deadline_expired",
    }
}

/// A caller's writer and, under its lock, its open batch.
type Out = (Box<dyn MsgWriter>, Option<BatchEncoder>);

/// The client end of one RPC channel.
///
/// `Caller` is shared through an `Arc` by application stubs. Calls may be
/// issued from tasks of the scheduler passed to [`Caller::new`] (the task
/// blocks, others run: its sends go through a [`TaskWriter`]) or from
/// plain threads (the thread blocks); either way the caller reads its own
/// reply when no other call is reading.
pub struct Caller {
    /// The writer and the open batch in wire form: calls are encoded into
    /// its pooled frame buffer as issued, so a flush only patches two
    /// headers — no `Vec<Call>`, no re-encode, no copy.
    out: TaskWriter<Option<BatchEncoder>>,
    /// Outstanding sync calls, their deadlines and retry backoffs.
    replies: PendingReplies,
    config: CallerConfig,
    /// Buffers cycle: acquire → encode batch → send → the sent frame
    /// drops and its buffer comes back. Reply frames are read into it too.
    pool: BufferPool,
    counters: CallerCounters,
    batch_calls: Arc<clam_obs::Histogram>,
    /// Sync-call latency histograms by target: one per builtin service
    /// id, `None` for object calls. Each is resolved in the global
    /// registry on the caller's first call to that target.
    latency: Mutex<HashMap<Option<u32>, Arc<clam_obs::Histogram>>>,
}

impl std::fmt::Debug for Caller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Caller")
            .field("closed", &self.replies.is_closed())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Caller {
    /// Create a caller writing to `writer`; hand it the matching reader
    /// with [`Caller::attach_reader`].
    #[must_use]
    pub fn new(sched: &Scheduler, writer: Box<dyn MsgWriter>, config: CallerConfig) -> Arc<Caller> {
        let pool = BufferPool::default();
        Arc::new(Caller {
            out: TaskWriter::with_state(sched, writer, None),
            replies: PendingReplies::new(sched),
            config,
            pool,
            counters: CallerCounters::register(),
            batch_calls: clam_obs::histogram("rpc.batch_calls"),
            latency: Mutex::new(HashMap::new()),
        })
    }

    /// The caller's wire-buffer pool (for diagnostics and tests).
    #[must_use]
    pub fn buffer_pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The caller's pending-reply table.
    #[must_use]
    pub fn replies(&self) -> &PendingReplies {
        &self.replies
    }

    /// Synchronous call: flushes any pending batch (ahead of this call,
    /// preserving order), sends, and blocks until the reply arrives or
    /// the configured [`CallerConfig::call_timeout`] passes.
    ///
    /// # Errors
    ///
    /// Transport errors, [`RpcError::Disconnected`] if the connection
    /// drops while waiting, [`RpcError::DeadlineExceeded`] on timeout, or
    /// [`RpcError::Status`] for remote failures.
    pub fn call(&self, target: Target, method: u32, args: Opaque) -> RpcResult<Opaque> {
        self.call_once(target, method, args.as_slice(), self.config.call_timeout)
    }

    /// Synchronous call with per-call options: a deadline override and —
    /// for idempotent procedures — bounded retry with exponential
    /// backoff on deadline expiry. A deadline proves nothing about
    /// whether the remote side executed the call, so only calls the
    /// caller declares [`CallOptions::idempotent`] are ever re-sent
    /// (each attempt under a fresh request id).
    ///
    /// # Errors
    ///
    /// As [`Caller::call`]; [`RpcError::DeadlineExceeded`] surfaces once
    /// retries (if any) are exhausted.
    pub fn call_with(
        &self,
        target: Target,
        method: u32,
        args: Opaque,
        options: CallOptions,
    ) -> RpcResult<Opaque> {
        let deadline = options.deadline.or(self.config.call_timeout);
        let mut backoff = options.backoff;
        let mut attempt = 0u32;
        loop {
            match self.call_once(target, method, args.as_slice(), deadline) {
                Err(RpcError::DeadlineExceeded)
                    if options.idempotent && attempt < options.max_retries =>
                {
                    attempt += 1;
                    self.counters.retries.inc();
                    // Back off on a table entry no reply can match (its id
                    // never goes on the wire): it expires at its own
                    // deadline, like any other request.
                    match self.replies.request(Some(backoff), |_| Ok(())) {
                        Ok(_) | Err(RpcError::DeadlineExceeded) => {}
                        Err(e) => return Err(e),
                    }
                    backoff = backoff.saturating_mul(2);
                }
                other => return other,
            }
        }
    }

    fn call_once(
        &self,
        target: Target,
        method: u32,
        args: &[u8],
        deadline: Option<Duration>,
    ) -> RpcResult<Opaque> {
        // Open a child span for this call: the caller's current context
        // (a new root if there is none) is the parent; the server
        // dispatches under the child span, and any upcall the call
        // triggers back into this process extends the same trace.
        let parent = clam_obs::current();
        let trace = parent.child();
        clam_obs::journal().record(EventKind::CallStart, trace, parent.span, method);
        let started = Instant::now();
        let outcome = self.replies.request(deadline, |request_id| {
            let call = CallView {
                request_id,
                target,
                method,
                args,
                trace,
            };
            let out = &mut *self.out.hold();
            if in_nested_context() {
                // Flush whatever the application batched first (its own
                // ordinary frame), then send the nested call alone in a
                // NestedCallBatch so only IT jumps the server's queue.
                self.flush_locked(out, &self.counters.flush_sync)?;
                self.counters.calls_sent.inc();
                self.counters.batches_sent.inc();
                let mut enc = BatchEncoder::begin_nested(&self.pool);
                enc.push_view(&call)?;
                self.out.send_held(&mut out.0, enc.finish()?)?;
                Ok(())
            } else {
                self.append(&mut out.1, &call)?;
                self.flush_locked(out, &self.counters.flush_sync)
            }
        });
        if matches!(outcome, Err(RpcError::DeadlineExceeded)) {
            self.counters.deadline_expired.inc();
            clam_obs::journal().record(EventKind::DeadlineFired, trace, parent.span, method);
        }
        #[allow(clippy::cast_possible_truncation)]
        self.observe_latency(target, started.elapsed().as_micros() as u64);
        clam_obs::journal().record(
            EventKind::CallEnd,
            trace,
            parent.span,
            u32::from(outcome.is_err()),
        );
        outcome
    }

    /// Asynchronous call: no reply expected; the call joins the current
    /// batch and is sent when the batch fills, a sync call happens, or
    /// [`flush`](Caller::flush) is invoked.
    ///
    /// # Errors
    ///
    /// Transport errors if an automatic flush fires.
    pub fn call_async(&self, target: Target, method: u32, args: Opaque) -> RpcResult<()> {
        if self.replies.is_closed() {
            return Err(RpcError::Disconnected);
        }
        let out = &mut *self.out.hold();
        self.counters.calls_async.add_exclusive(1);
        // Async calls carry the caller's current context verbatim: no
        // child span, no journal entry — this path must stay
        // allocation-free at steady state, so it costs 24 trace bytes
        // in the batch.
        self.append(
            &mut out.1,
            &CallView {
                request_id: 0,
                target,
                method,
                args: args.as_slice(),
                trace: clam_obs::current(),
            },
        )?;
        // Adaptive flush: once the wire form crosses either threshold the
        // chunk streams out immediately, overlapping transport writes with
        // further call issue.
        let reason = out.1.as_ref().and_then(|b| {
            if b.calls() as usize >= self.config.flush_at_calls {
                Some(&self.counters.flush_calls)
            } else if b.payload_len() >= self.config.flush_at_bytes {
                Some(&self.counters.flush_bytes)
            } else {
                None
            }
        });
        if let Some(reason) = reason {
            let reason = Arc::clone(reason);
            self.flush_locked(out, &reason)?;
        }
        Ok(())
    }

    /// The special synchronization procedure: push the current batch out.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn flush(&self) -> RpcResult<()> {
        self.flush_locked(&mut self.out.hold(), &self.counters.flush_sync)
    }

    /// Flush the current batch and wait — bounded by the configured
    /// call timeout — until the server acknowledges having processed it.
    ///
    /// [`flush`](Caller::flush) only hands the batch to the transport; a
    /// dead peer absorbs it silently. This is the paper's "special
    /// synchronization procedure" made fault-aware: it rides a
    /// synchronous call to the built-in sync-point service
    /// ([`SYNC_SERVICE_ID`]), which every [`RpcServer`] registers, so the
    /// ack proves in-order processing of everything batched before it.
    ///
    /// # Errors
    ///
    /// As [`Caller::call`] — notably [`RpcError::DeadlineExceeded`] when
    /// the peer never acknowledges.
    ///
    /// [`RpcServer`]: crate::RpcServer
    pub fn flush_acked(&self) -> RpcResult<()> {
        self.call(Target::Builtin(SYNC_SERVICE_ID), 0, Opaque::new())
            .map(|_| ())
    }

    /// Write `call` onto the in-progress wire batch, starting one in a
    /// pooled buffer if none is open.
    fn append(&self, batch: &mut Option<BatchEncoder>, call: &CallView<'_>) -> RpcResult<()> {
        let batch = batch.get_or_insert_with(|| BatchEncoder::begin(&self.pool));
        batch.push_view(call)?;
        Ok(())
    }

    /// Record one sync call's latency in `target`'s histogram
    /// (`rpc.call_latency_us.builtin_{id}` or `.object`).
    fn observe_latency(&self, target: Target, micros: u64) {
        let key = match target {
            Target::Builtin(id) => Some(id),
            Target::Object(_) => None,
        };
        let mut latency = self.latency.lock();
        let histogram = latency.entry(key).or_insert_with(|| match key {
            Some(id) => clam_obs::histogram(&format!("rpc.call_latency_us.builtin_{id}")),
            None => clam_obs::histogram("rpc.call_latency_us.object"),
        });
        histogram.observe(micros);
    }

    /// `reason` is the `rpc.flush.*` counter naming why this flush fired
    /// (batch full by calls, by bytes, or a synchronization point); it is
    /// bumped only when a non-empty batch actually goes out.
    fn flush_locked(&self, (writer, batch): &mut Out, reason: &clam_obs::Counter) -> RpcResult<()> {
        let Some(batch) = batch.take().filter(|batch| !batch.is_empty()) else {
            return Ok(());
        };
        self.counters.calls_sent.add(u64::from(batch.calls()));
        self.counters.batches_sent.inc();
        self.batch_calls.observe(u64::from(batch.calls()));
        reason.inc();
        self.out.send_held(writer, batch.finish()?)?;
        Ok(())
    }

    /// This caller's own counts so far, keyed by catalogue name;
    /// `rpc.batches_sent` against `rpc.calls_sent` is what IPC batching
    /// saved.
    #[must_use]
    pub fn metrics(&self) -> clam_obs::MetricsSnapshot {
        self.counters.metrics()
    }

    /// Number of calls awaiting replies.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.replies.outstanding()
    }

    /// Hand the reply channel's reader to the pending-reply table
    /// ([`PendingReplies::attach_reader`]): callers then read their own
    /// replies, and no thread is started.
    pub fn attach_reader(&self, reader: Box<dyn MsgReader>) {
        self.replies
            .attach_reader(reader, &self.pool, ReplyKind::Reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StatusCode;
    use crate::message::{Message, MessageView, Reply};
    use clam_net::pair;
    use clam_xdr::Opaque;

    /// (batches sent, calls sent) by `caller` so far.
    fn sent(caller: &Caller) -> (u64, u64) {
        let m = caller.metrics();
        (m.counter("rpc.batches_sent"), m.counter("rpc.calls_sent"))
    }

    fn test_caller() -> (Arc<Caller>, clam_net::Channel) {
        let (client, server) = pair();
        let sched = Scheduler::new("caller-test");
        let (w, r) = client.split();
        let caller = Caller::new(&sched, w, CallerConfig::default());
        caller.attach_reader(r);
        (caller, server)
    }

    fn serve_echo(mut server: clam_net::Channel) -> std::thread::JoinHandle<u64> {
        std::thread::spawn(move || {
            let mut frames = 0u64;
            while let Ok(frame) = server.recv() {
                frames += 1;
                let Ok(MessageView::CallBatch(calls)) = MessageView::parse(&frame) else {
                    panic!("unexpected message");
                };
                for call in calls.iter() {
                    if call.request_id != 0 {
                        let reply = Message::Reply(Reply {
                            request_id: call.request_id,
                            status: StatusCode::Ok,
                            detail: String::new(),
                            results: Opaque::from(call.args),
                        });
                        server.send(reply.to_frame().unwrap()).unwrap();
                    }
                }
            }
            frames
        })
    }

    #[test]
    fn each_sync_call_lands_in_its_targets_latency_histogram() {
        const CALLS: u64 = 25;
        // A service id no other test calls: the registry is global.
        let name = "rpc.call_latency_us.builtin_4711";
        let (caller, server) = test_caller();
        let srv = serve_echo(server);
        let before = clam_obs::snapshot();
        for _ in 0..CALLS {
            caller
                .call(Target::Builtin(4711), 0, Opaque::new())
                .unwrap();
        }
        let delta = clam_obs::snapshot().delta(&before);
        assert_eq!(delta.histogram(name).map(|h| h.count), Some(CALLS));
        drop(caller);
        let _ = srv.join();
    }

    #[test]
    fn sync_call_round_trips() {
        let (caller, server) = test_caller();
        let srv = serve_echo(server);
        let out = caller
            .call(Target::Builtin(1), 2, Opaque::from(vec![1, 2, 3]))
            .unwrap();
        assert_eq!(out.as_slice(), &[1, 2, 3]);
        assert_eq!(caller.outstanding(), 0);
        drop(caller);
        let _ = srv.join();
    }

    #[test]
    fn async_calls_batch_until_sync_call() {
        let (caller, server) = test_caller();
        let srv = serve_echo(server);
        for i in 0..10u8 {
            caller
                .call_async(Target::Builtin(1), 0, Opaque::from(vec![i]))
                .unwrap();
        }
        assert_eq!(sent(&caller), (0, 0), "async calls are held back");
        // The sync call flushes everything in one frame, in order.
        caller.call(Target::Builtin(1), 1, Opaque::new()).unwrap();
        let (batches, calls) = sent(&caller);
        assert_eq!(batches, 1, "one frame carried all eleven calls");
        assert_eq!(calls, 11);
        drop(caller);
        assert_eq!(srv.join().unwrap(), 1);
    }

    #[test]
    fn explicit_flush_sends_the_batch() {
        let (caller, server) = test_caller();
        let srv = serve_echo(server);
        caller
            .call_async(Target::Builtin(1), 0, Opaque::new())
            .unwrap();
        caller.flush().unwrap();
        assert_eq!(sent(&caller), (1, 1));
        drop(caller);
        let _ = srv.join();
    }

    #[test]
    fn batch_flushes_automatically_at_capacity() {
        let (client, server) = pair();
        let sched = Scheduler::new("cap");
        let (w, _r) = client.split();
        let caller = Caller::new(
            &sched,
            w,
            CallerConfig {
                flush_at_calls: 4,
                flush_at_bytes: usize::MAX,
                ..CallerConfig::default()
            },
        );
        for _ in 0..4 {
            caller
                .call_async(Target::Builtin(1), 0, Opaque::new())
                .unwrap();
        }
        assert_eq!(sent(&caller).0, 1, "hit flush_at_calls");
        drop(server);
    }

    /// (async calls issued, calls sent, batches sent) by `caller` so far.
    fn counted(caller: &Caller) -> (u64, u64, u64) {
        let m = caller.metrics();
        let (batches, calls) = sent(caller);
        (m.counter("rpc.calls_async"), calls, batches)
    }

    #[test]
    fn calls_async_is_exact_at_every_flush() {
        const N: u64 = 10;
        let (caller, server) = test_caller();
        let srv = serve_echo(server);
        for _ in 0..N {
            caller
                .call_async(Target::Builtin(1), 0, Opaque::new())
                .unwrap();
        }
        caller.call(Target::Builtin(1), 1, Opaque::new()).unwrap();
        caller.flush().unwrap();
        assert_eq!(counted(&caller), (N, N + 1, 1));
        drop(caller);
        let _ = srv.join();

        // Flushed by the batch filling up at every fourth call.
        let (client, server) = pair();
        let (w, r) = client.split();
        let config = CallerConfig {
            flush_at_calls: 4,
            ..CallerConfig::default()
        };
        let caller = Caller::new(&Scheduler::new("exact"), w, config);
        caller.attach_reader(r);
        let srv = serve_echo(server);
        for n in 1..=N {
            caller
                .call_async(Target::Builtin(1), 0, Opaque::new())
                .unwrap();
            let flushed = n - n % 4;
            assert_eq!(counted(&caller), (n, flushed, flushed / 4), "call {n}");
        }
        caller.call(Target::Builtin(1), 1, Opaque::new()).unwrap();
        caller.flush().unwrap();
        assert_eq!(counted(&caller), (N, N + 1, N / 4 + 1));
        drop(caller);
        let _ = srv.join();
    }

    #[test]
    fn remote_error_status_propagates() {
        let (client, server) = pair();
        let sched = Scheduler::new("err");
        let (w, r) = client.split();
        let caller = Caller::new(&sched, w, CallerConfig::default());
        caller.attach_reader(r);
        let mut server = server;
        let srv = std::thread::spawn(move || {
            let frame = server.recv().unwrap();
            let Ok(MessageView::CallBatch(calls)) = MessageView::parse(&frame) else {
                panic!()
            };
            let reply = Message::Reply(Reply {
                request_id: calls.iter().next().unwrap().request_id,
                status: StatusCode::StaleHandle,
                detail: "gone".to_string(),
                results: Opaque::new(),
            });
            server.send(reply.to_frame().unwrap()).unwrap();
            server
        });
        let err = caller
            .call(Target::Builtin(1), 0, Opaque::new())
            .unwrap_err();
        assert_eq!(err.status_code(), Some(StatusCode::StaleHandle));
        drop(srv.join().unwrap());
    }

    #[test]
    fn disconnect_fails_outstanding_calls() {
        let (client, server) = pair();
        let sched = Scheduler::new("disc");
        let (w, r) = client.split();
        let caller = Caller::new(&sched, w, CallerConfig::default());
        caller.attach_reader(r);
        let mut server = server;
        let t = std::thread::spawn(move || {
            let _ = server.recv(); // swallow the call, then hang up
            drop(server);
        });
        let err = caller
            .call(Target::Builtin(1), 0, Opaque::new())
            .unwrap_err();
        assert!(matches!(err, RpcError::Disconnected));
        t.join().unwrap();
        // Further calls fail fast.
        assert!(matches!(
            caller.call(Target::Builtin(1), 0, Opaque::new()),
            Err(RpcError::Disconnected)
        ));
    }

    #[test]
    fn unmatched_reply_is_reported() {
        let (client, _server) = pair();
        let sched = Scheduler::new("um");
        let (w, _r) = client.split();
        let caller = Caller::new(&sched, w, CallerConfig::default());
        assert!(!caller.replies().complete(Reply {
            request_id: 42,
            status: StatusCode::Ok,
            detail: String::new(),
            results: Opaque::new(),
        }));
    }

    #[test]
    fn calls_from_tasks_block_the_task_not_the_scheduler() {
        let (client, server) = pair();
        let sched = Scheduler::new("task-call");
        let (w, r) = client.split();
        let caller = Caller::new(&sched, w, CallerConfig::default());
        caller.attach_reader(r);
        let srv = serve_echo(server);

        let log = Arc::new(Mutex::new(Vec::new()));
        let c = Arc::clone(&caller);
        let l = Arc::clone(&log);
        let h1 = sched.spawn("rpc-task", move || {
            l.lock().push("call-start");
            let out = c
                .call(Target::Builtin(1), 0, Opaque::from(vec![7]))
                .unwrap();
            assert_eq!(out.as_slice(), &[7]);
            l.lock().push("call-done");
        });
        let l = Arc::clone(&log);
        let h2 = sched.spawn("other-task", move || {
            l.lock().push("other-ran");
        });
        h1.join().unwrap();
        h2.join().unwrap();
        let log = log.lock();
        // While the RPC task waited, the other task got the processor.
        assert_eq!(*log, vec!["call-start", "other-ran", "call-done"]);
        drop(caller);
        let _ = srv.join();
    }

    use std::time::{Duration, Instant};

    /// A server that receives frames (keeping the link alive) but never
    /// replies — a black hole. Returns the frame count on disconnect.
    fn serve_black_hole(mut server: clam_net::Channel) -> std::thread::JoinHandle<u64> {
        std::thread::spawn(move || {
            let mut frames = 0u64;
            while server.recv().is_ok() {
                frames += 1;
            }
            frames
        })
    }

    fn timed_caller(timeout: Duration) -> (Arc<Caller>, clam_net::Channel) {
        let (client, server) = pair();
        let sched = Scheduler::new("deadline-test");
        let (w, r) = client.split();
        let caller = Caller::new(
            &sched,
            w,
            CallerConfig {
                call_timeout: Some(timeout),
                ..CallerConfig::default()
            },
        );
        caller.attach_reader(r);
        (caller, server)
    }

    #[test]
    fn black_holed_call_deadlines_within_twice_the_timeout() {
        let timeout = Duration::from_millis(150);
        let (caller, server) = timed_caller(timeout);
        let srv = serve_black_hole(server);
        let start = Instant::now();
        let err = caller
            .call(Target::Builtin(1), 0, Opaque::new())
            .unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, RpcError::DeadlineExceeded), "got {err:?}");
        assert!(elapsed >= timeout, "fired early: {elapsed:?}");
        assert!(
            elapsed < timeout * 2,
            "deadline must fire within 2x the timeout, took {elapsed:?}"
        );
        assert_eq!(caller.outstanding(), 0, "expired call must be reaped");
        drop(caller);
        let _ = srv.join();
    }

    #[test]
    fn idempotent_call_is_retried_after_deadline() {
        let (caller, mut server) = timed_caller(Duration::from_millis(100));
        // Swallow the first attempt; answer the second.
        let srv = std::thread::spawn(move || {
            let _ = server.recv().unwrap(); // attempt 1: black-holed
            let frame = server.recv().unwrap(); // attempt 2: served
            let Ok(MessageView::CallBatch(calls)) = MessageView::parse(&frame) else {
                panic!("unexpected message");
            };
            let call = calls.iter().next().unwrap();
            let reply = Message::Reply(Reply {
                request_id: call.request_id,
                status: StatusCode::Ok,
                detail: String::new(),
                results: Opaque::from(call.args),
            });
            server.send(reply.to_frame().unwrap()).unwrap();
            call.request_id
        });
        let out = caller
            .call_with(
                Target::Builtin(1),
                0,
                Opaque::from(vec![9]),
                CallOptions::default()
                    .idempotent_with_retries(2)
                    .with_backoff(Duration::from_millis(5)),
            )
            .unwrap();
        assert_eq!(out.as_slice(), &[9]);
        let second_id = srv.join().unwrap();
        assert!(second_id >= 2, "the retry must use a fresh request id");
    }

    #[test]
    fn non_idempotent_calls_are_never_retried() {
        let (caller, server) = timed_caller(Duration::from_millis(80));
        let srv = serve_black_hole(server);
        let err = caller
            .call_with(
                Target::Builtin(1),
                0,
                Opaque::new(),
                CallOptions {
                    max_retries: 3, // ignored without the idempotent marker
                    ..CallOptions::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, RpcError::DeadlineExceeded));
        drop(caller);
        assert_eq!(srv.join().unwrap(), 1, "exactly one attempt on the wire");
    }

    #[test]
    fn flush_acked_confirms_processing_through_the_sync_point() {
        let (client, server) = pair();
        let sched = Scheduler::new("flush-ack");
        let (w, r) = client.split();
        let caller = Caller::new(&sched, w, CallerConfig::default());
        caller.attach_reader(r);
        let rpc = Arc::new(crate::RpcServer::new());
        let srv = {
            let rpc = Arc::clone(&rpc);
            std::thread::spawn(move || rpc.serve_channel(crate::ConnId(1), server))
        };
        for i in 0..5u8 {
            caller
                .call_async(Target::Builtin(SYNC_SERVICE_ID), 1, Opaque::from(vec![i]))
                .unwrap();
        }
        caller.flush_acked().unwrap();
        let (batches, calls) = sent(&caller);
        assert_eq!(calls, 6, "five async calls plus the sync point");
        assert_eq!(batches, 1, "everything rode one frame");
        drop(caller);
        let _ = srv.join();
    }

    #[test]
    fn flush_acked_deadlines_against_a_dead_peer() {
        let (caller, server) = timed_caller(Duration::from_millis(100));
        let srv = serve_black_hole(server);
        caller
            .call_async(Target::Builtin(SYNC_SERVICE_ID), 1, Opaque::new())
            .unwrap();
        let err = caller.flush_acked().unwrap_err();
        assert!(matches!(err, RpcError::DeadlineExceeded), "got {err:?}");
        drop(caller);
        let _ = srv.join();
    }
}
