//! The three closed-loop workloads and the operations they are made of.
//!
//! One application thread issues every operation and waits for it before
//! issuing the next. The same operation code serves the timed loop and
//! the traced run's short probes; with tracing on it also records spans
//! around each call into a layer.

use crate::rig::{Rig, Transport, M_BARRIER, M_ECHO, M_NOTE, M_TRIGGER};
use crate::stats::SplitMix;
use crate::trace;
use clam_rpc::RpcResult;
use clam_xdr::Opaque;

/// Synchronous upcalls the server makes per trigger call (`upcall_unix`).
pub const UPCALLS_PER_TRIGGER: u32 = 16;

/// One block of `batch_tcp` round sizes; the seed shuffles each block.
/// Every block holds each size in the same proportion, so the latency
/// quantiles of a run do not depend on how the seed happened to mix
/// sizes, and the median round falls inside the 64-call group.
pub const BATCH_BLOCK: [u32; 5] = [1, 8, 64, 64, 512];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CallUnix,
    UpcallUnix,
    BatchTcp,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::CallUnix, Workload::UpcallUnix, Workload::BatchTcp];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::CallUnix => "call_unix",
            Workload::UpcallUnix => "upcall_unix",
            Workload::BatchTcp => "batch_tcp",
        }
    }

    #[must_use]
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    #[must_use]
    pub fn transport(self) -> Transport {
        match self {
            Workload::CallUnix | Workload::UpcallUnix => Transport::Unix,
            Workload::BatchTcp => Transport::Tcp,
        }
    }

    /// What one counted operation is.
    #[must_use]
    pub fn op_name(self) -> &'static str {
        match self {
            Workload::CallUnix => "sync echo call",
            Workload::UpcallUnix => "distributed upcall",
            Workload::BatchTcp => "async call",
        }
    }
}

/// Inputs generated from the seed. The program sees only these values.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Echo and upcall arguments, used in turn.
    pub args: Vec<u32>,
    /// `batch_tcp` round sizes, used in turn.
    pub batch_sizes: Vec<u32>,
}

impl Inputs {
    #[must_use]
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = SplitMix::new(seed);
        // Below u32::MAX - 2 * UPCALLS_PER_TRIGGER so `x + 1` and
        // `base + i + 1` never wrap.
        let limit = u64::from(u32::MAX - 2 * UPCALLS_PER_TRIGGER);
        let args = (0..4096)
            .map(|_| u32::try_from(rng.below(limit)).expect("below u32::MAX"))
            .collect();
        let mut batch_sizes = Vec::with_capacity(BATCH_BLOCK.len() * 64);
        for _ in 0..64 {
            let mut block = BATCH_BLOCK;
            for i in (1..block.len()).rev() {
                let j = usize::try_from(rng.below(i as u64 + 1)).expect("small");
                block.swap(i, j);
            }
            batch_sizes.extend_from_slice(&block);
        }
        Inputs { args, batch_sizes }
    }
}

/// The outcome of one step of a workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Step {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed: an error, a wrong reply, or an async call
    /// executed out of order.
    pub failed: u64,
    /// Client-side duration of the step in ns.
    pub ns: u64,
    /// Sync calls the step made (rounds count their barrier).
    pub sync_calls: u64,
}

/// Per-call costs of each traced round's issue phase: the mean ns of one
/// `clam_xdr::encode` and of one `Caller::call_async` in that round.
#[derive(Debug, Clone, Default)]
pub struct IssueTimes {
    pub encode_ns: Vec<u64>,
    pub call_async_ns: Vec<u64>,
}

/// Issues operations against one rig, walking through the inputs.
pub struct Runner<'a> {
    rig: &'a Rig,
    inputs: &'a Inputs,
    next_arg: usize,
    next_round: usize,
    next_seq: u32,
    next_op: u64,
    /// Filled only while tracing.
    pub issue: IssueTimes,
}

impl<'a> Runner<'a> {
    #[must_use]
    pub fn new(rig: &'a Rig, inputs: &'a Inputs) -> Runner<'a> {
        Runner {
            rig,
            inputs,
            next_arg: 0,
            next_round: 0,
            next_seq: 0,
            next_op: 1,
            issue: IssueTimes::default(),
        }
    }

    fn arg(&mut self) -> u32 {
        let x = self.inputs.args[self.next_arg % self.inputs.args.len()];
        self.next_arg += 1;
        x
    }

    fn op_id(&mut self) -> u64 {
        let id = self.next_op;
        self.next_op += 1;
        id
    }

    /// One step of `workload`.
    pub fn step(&mut self, workload: Workload) -> Step {
        match workload {
            Workload::CallUnix => self.call(),
            Workload::UpcallUnix => self.trigger(),
            Workload::BatchTcp => self.round(),
        }
    }

    /// A synchronous call traced as `call_span` with the request path, the
    /// service method and the reply path under it. Returns the decoded
    /// reply.
    fn traced_call(
        &self,
        (op, root): (u64, u32),
        call_span: &'static str,
        method: u32,
        args: Opaque,
        svc_span: Option<&'static str>,
    ) -> RpcResult<u32> {
        let traced = trace::on();
        let id = if traced { trace::new_id() } else { 0 };
        let t1 = if traced {
            trace::set_context(op, id);
            trace::now()
        } else {
            0
        };
        let out = self.rig.caller.call(self.rig.target, method, args);
        if traced {
            let t4 = trace::now();
            let entry = trace::SVC_ENTRY.load(std::sync::atomic::Ordering::Relaxed);
            let exit = trace::SVC_EXIT.load(std::sync::atomic::Ordering::Relaxed);
            trace::record(call_span, id, root, op, t1, t4);
            trace::record("rpc.request_path", trace::new_id(), id, op, t1, entry);
            if let Some(name) = svc_span {
                trace::record(name, trace::new_id(), id, op, entry, exit);
            }
            trace::record("rpc.reply_path", trace::new_id(), id, op, exit, t4);
        }
        let out = out?;
        let t = if traced { trace::now() } else { 0 };
        let value = clam_xdr::decode(out.as_slice());
        if traced {
            trace::record("xdr.decode", trace::new_id(), root, op, t, trace::now());
        }
        Ok(value?)
    }

    /// Encode `args`, traced as `xdr.encode` under `root`.
    fn encode<T: clam_xdr::Bundle + Clone>(op: u64, root: u32, args: &T) -> RpcResult<Opaque> {
        if trace::on() {
            let t = trace::now();
            let bytes = clam_xdr::encode(args);
            trace::record("xdr.encode", trace::new_id(), root, op, t, trace::now());
            Ok(Opaque::from(bytes?))
        } else {
            Ok(Opaque::from(clam_xdr::encode(args)?))
        }
    }

    /// `call_unix`: one synchronous `echo(x)`, checked against `x + 1`.
    pub fn call(&mut self) -> Step {
        let x = self.arg();
        let op = self.op_id();
        let root = if trace::on() { trace::new_id() } else { 0 };
        let t0 = trace::now();
        let reply = Self::encode(op, root, &(x,)).and_then(|args| {
            self.traced_call((op, root), "rpc.call", M_ECHO, args, Some("svc.echo"))
        });
        let t5 = trace::now();
        if trace::on() {
            trace::record("bench.call", root, 0, op, t0, t5);
        }
        let ok = matches!(reply, Ok(r) if r == x + 1);
        Step {
            ops: 1,
            failed: u64::from(!ok),
            ns: t5 - t0,
            sync_calls: 1,
        }
    }

    /// `upcall_unix`: one trigger call making the server perform
    /// [`UPCALLS_PER_TRIGGER`] synchronous upcalls; each upcall counts as
    /// one operation and must come back as its argument plus one.
    pub fn trigger(&mut self) -> Step {
        let base = self.arg();
        let op = self.op_id();
        let root = if trace::on() { trace::new_id() } else { 0 };
        let t0 = trace::now();
        // The service records its own `svc.trigger` span (with the
        // upcalls under it).
        let good = Self::encode(op, root, &(self.rig.bounce, base, UPCALLS_PER_TRIGGER))
            .and_then(|args| self.traced_call((op, root), "rpc.call", M_TRIGGER, args, None));
        let t5 = trace::now();
        if trace::on() {
            trace::record("bench.trigger", root, 0, op, t0, t5);
        }
        let k = u64::from(UPCALLS_PER_TRIGGER);
        let good = good.map_or(0, |g| u64::from(g).min(k));
        Step {
            ops: k,
            failed: k - good,
            ns: t5 - t0,
            sync_calls: 1,
        }
    }

    /// `batch_tcp`: one round of `n` async `note(seq)` calls, one flush
    /// and one sync barrier. The service counts notes that arrive in
    /// issue order; each one missing counts as a failed operation.
    pub fn round(&mut self) -> Step {
        let n = self.inputs.batch_sizes[self.next_round % self.inputs.batch_sizes.len()];
        self.next_round += 1;
        let op = self.op_id();
        let traced = trace::on();
        let root = if traced { trace::new_id() } else { 0 };
        let t0 = trace::now();
        let mut sent = 0u64;
        let (mut encode_ns, mut call_async_ns) = (0, 0);
        for _ in 0..n {
            let seq = self.next_seq;
            self.next_seq = self.next_seq.wrapping_add(1);
            let issued = if traced {
                let a = trace::now();
                let args = clam_xdr::encode(&(seq,));
                let b = trace::now();
                let r = args.map_err(clam_rpc::RpcError::from).and_then(|a| {
                    self.rig
                        .caller
                        .call_async(self.rig.target, M_NOTE, Opaque::from(a))
                });
                let c = trace::now();
                encode_ns += b - a;
                call_async_ns += c - b;
                r
            } else {
                clam_xdr::encode(&(seq,))
                    .map_err(clam_rpc::RpcError::from)
                    .and_then(|a| {
                        self.rig
                            .caller
                            .call_async(self.rig.target, M_NOTE, Opaque::from(a))
                    })
            };
            sent += u64::from(issued.is_ok());
        }
        let t1 = trace::now();
        let flushed = self.rig.caller.flush();
        let t2 = trace::now();
        let in_order = flushed.and_then(|()| {
            let args = Opaque::from(clam_xdr::encode(&(self.next_seq,))?);
            self.traced_call(
                (op, root),
                "rpc.barrier",
                M_BARRIER,
                args,
                Some("svc.barrier"),
            )
        });
        let t3 = trace::now();
        if traced {
            self.issue.encode_ns.push(encode_ns / u64::from(n));
            self.issue.call_async_ns.push(call_async_ns / u64::from(n));
            trace::record("bench.round", root, 0, op, t0, t3);
            trace::record("rpc.issue", trace::new_id(), root, op, t0, t1);
            trace::record("rpc.flush", trace::new_id(), root, op, t1, t2);
        }
        let good = in_order.map_or(0, |g| u64::from(g).min(sent));
        Step {
            ops: u64::from(n),
            failed: u64::from(n) - good,
            ns: t3 - t0,
            sync_calls: 1,
        }
    }
}
