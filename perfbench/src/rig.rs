//! The benchmark's server and client: an in-process `ClamServer` with the
//! benchmark's own service, and one `ClamClient` (two channels, as in the
//! paper) with the benchmark's upcall handler registered.

use crate::trace;
use clam_core::{ClamClient, ClamServer, ServerConfig, UpcallTarget};
use clam_net::Endpoint;
use clam_rpc::{current_conn, Caller, ProcId, RpcError, RpcResult, StatusCode, Target};
use clam_xdr::Opaque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

clam_rpc::remote_interface! {
    /// The benchmark's service.
    pub interface Bench {
        proxy BenchProxy;
        skeleton BenchSkeleton;
        class BenchClass;

        /// Returns `x + 1`.
        fn echo(x: u32) -> u32 = 1;
        /// Performs `k` synchronous upcalls `proc(base + i)` and returns
        /// how many came back as `base + i + 1`.
        fn trigger(proc: ProcId, base: u32, k: u32) -> u32 = 2;
        /// Async: the next call of a round, numbered `seq`.
        fn note(seq: u32) = 3 oneway;
        /// Sync barrier closing a round that ends before `next`: returns
        /// how many `note`s arrived in issue order since the last
        /// barrier.
        fn barrier(next: u32) -> u32 = 4;
    }
}

/// Builtin service id of [`Bench`].
pub const BENCH_SERVICE_ID: u32 = 60;
/// Method numbers, for calls made through the `Caller` directly.
pub const M_ECHO: u32 = 1;
pub const M_TRIGGER: u32 = 2;
pub const M_NOTE: u32 = 3;
pub const M_BARRIER: u32 = 4;

/// State the service shares with the benchmark (same process).
pub struct ServiceState {
    server: Mutex<Weak<ClamServer>>,
    /// Server-side duration of each upcall `invoke`, in ns.
    invoke_ns: Mutex<Vec<u64>>,
    /// Record `invoke_ns` only while true (the timed loop).
    pub sampling: std::sync::atomic::AtomicBool,
    next_seq: AtomicU32,
    in_order: AtomicU32,
    /// Fault injection for the benchmark's own tests: corrupt every
    /// `n`-th echo reply, upcall reply and async note (0 = never).
    corrupt_every: u64,
    corrupt_tick: AtomicU64,
}

impl ServiceState {
    #[must_use]
    pub fn new(corrupt_every: u64, invoke_capacity: usize) -> Arc<ServiceState> {
        let mut samples = crate::stats::resident_vec(invoke_capacity, 1u64);
        samples.clear();
        Arc::new(ServiceState {
            server: Mutex::new(Weak::new()),
            invoke_ns: Mutex::new(samples),
            sampling: std::sync::atomic::AtomicBool::new(false),
            next_seq: AtomicU32::new(0),
            in_order: AtomicU32::new(0),
            corrupt_every,
            corrupt_tick: AtomicU64::new(0),
        })
    }

    /// True when this reply should be corrupted (fault injection).
    pub fn corrupt_now(&self) -> bool {
        self.corrupt_every != 0
            && (self.corrupt_tick.fetch_add(1, Ordering::Relaxed) + 1) % self.corrupt_every == 0
    }

    /// Take the recorded invoke durations.
    pub fn take_invoke_ns(&self) -> Vec<u64> {
        std::mem::take(&mut *self.invoke_ns.lock().expect("samples poisoned"))
    }
}

struct BenchImpl {
    state: Arc<ServiceState>,
}

impl Bench for BenchImpl {
    fn echo(&self, x: u32) -> RpcResult<u32> {
        let traced = trace::on();
        if traced {
            trace::SVC_ENTRY.store(trace::now(), Ordering::Relaxed);
        }
        let reply = if self.state.corrupt_now() {
            x.wrapping_add(2)
        } else {
            x.wrapping_add(1)
        };
        if traced {
            trace::SVC_EXIT.store(trace::now(), Ordering::Relaxed);
        }
        Ok(reply)
    }

    fn trigger(&self, proc: ProcId, base: u32, k: u32) -> RpcResult<u32> {
        let traced = trace::on();
        let (op, parent) = trace::context();
        let (me, entry) = if traced {
            let entry = trace::now();
            trace::SVC_ENTRY.store(entry, Ordering::Relaxed);
            (trace::new_id(), entry)
        } else {
            (0, 0)
        };

        let server = self
            .state
            .server
            .lock()
            .expect("server slot poisoned")
            .upgrade()
            .ok_or_else(|| RpcError::status(StatusCode::AppError, "server gone"))?;
        let conn = current_conn()
            .ok_or_else(|| RpcError::status(StatusCode::AppError, "no connection"))?;
        let target: UpcallTarget<u32, u32> = server.upcall_target(conn, proc)?;
        let sampling = self.state.sampling.load(Ordering::Relaxed);
        let mut good = 0;
        for i in 0..k {
            let arg = base.wrapping_add(i);
            let started = Instant::now();
            let t0 = if traced { trace::now() } else { 0 };
            let out = target.invoke(arg);
            if traced {
                let t1 = trace::now();
                let id = trace::new_id();
                let h0 = trace::HANDLER_ENTRY.load(Ordering::Relaxed);
                let h1 = trace::HANDLER_EXIT.load(Ordering::Relaxed);
                trace::record("core.invoke", id, me, op, t0, t1);
                trace::record("core.upcall_down", trace::new_id(), id, op, t0, h0);
                trace::record("handler.bounce", trace::new_id(), id, op, h0, h1);
                trace::record("core.upcall_up", trace::new_id(), id, op, h1, t1);
            }
            if sampling {
                let ns = crate::stats::nanos(started.elapsed());
                let mut v = self.state.invoke_ns.lock().expect("samples poisoned");
                if v.len() < v.capacity() {
                    v.push(ns);
                }
            }
            if out? == arg.wrapping_add(1) {
                good += 1;
            }
        }
        if traced {
            let exit = trace::now();
            trace::SVC_EXIT.store(exit, Ordering::Relaxed);
            trace::record("svc.trigger", me, parent, op, entry, exit);
        }
        Ok(good)
    }

    fn note(&self, seq: u32) -> RpcResult<()> {
        if self.state.corrupt_now() {
            return Ok(()); // drop it: the next note arrives out of order
        }
        if self
            .state
            .next_seq
            .swap(seq.wrapping_add(1), Ordering::Relaxed)
            == seq
        {
            self.state.in_order.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn barrier(&self, next: u32) -> RpcResult<u32> {
        let traced = trace::on();
        if traced {
            trace::SVC_ENTRY.store(trace::now(), Ordering::Relaxed);
        }
        let in_order = self.state.in_order.swap(0, Ordering::Relaxed);
        // Calls lost at the end of a round show up as a short count too.
        let reply = if self.state.next_seq.load(Ordering::Relaxed) == next {
            in_order
        } else {
            0
        };
        if traced {
            trace::SVC_EXIT.store(trace::now(), Ordering::Relaxed);
        }
        Ok(reply)
    }
}

/// The transports the workloads run over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Unix,
    Tcp,
}

impl Transport {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Transport::Unix => "unix",
            Transport::Tcp => "tcp",
        }
    }
}

/// A running server with one connected client.
pub struct Rig {
    pub server: Arc<ClamServer>,
    pub client: Arc<ClamClient>,
    pub caller: Arc<Caller>,
    pub target: Target,
    /// The client's registered upcall procedure: `x -> x + 1`.
    pub bounce: ProcId,
    /// Upcalls the benchmark's handler has run.
    pub handled: Arc<AtomicU64>,
    /// The unix socket file, removed on [`Rig::stop`].
    sock: Option<PathBuf>,
}

/// Timings of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Server build through first correct reply.
    pub total: Duration,
    /// `ClamClient::connect` alone.
    pub connect: Duration,
}

impl Rig {
    /// Build a server on `transport`, connect a client, register the
    /// upcall handler and wait for the first correct echo reply.
    ///
    /// # Errors
    ///
    /// Any set-up failure, as text.
    pub fn start(
        transport: Transport,
        sock_dir: &Path,
        tag: usize,
        state: &Arc<ServiceState>,
    ) -> Result<(Rig, SetupTimes), String> {
        let sock = match transport {
            Transport::Unix => Some(sock_dir.join(format!("{}-{tag}.sock", std::process::id()))),
            Transport::Tcp => None,
        };
        let endpoint = sock
            .as_ref()
            .map_or_else(|| Endpoint::tcp("127.0.0.1:0"), Endpoint::unix);
        let started = Instant::now();
        let server = ClamServer::builder()
            .config(ServerConfig::default())
            .listen(endpoint)
            .build()
            .map_err(|e| format!("server start: {e}"))?;
        server.rpc().register_service(
            BENCH_SERVICE_ID,
            Arc::new(BenchSkeleton::new(Arc::new(BenchImpl {
                state: Arc::clone(state),
            }))),
        );
        *state.server.lock().expect("server slot poisoned") = Arc::downgrade(&server);
        let connect_started = Instant::now();
        let client = ClamClient::connect(&server.endpoints()[0])
            .map_err(|e| format!("client connect: {e}"))?;
        let connect = connect_started.elapsed();
        let handled = Arc::new(AtomicU64::new(0));
        let bounce = {
            let handled = Arc::clone(&handled);
            let state = Arc::clone(state);
            client.register_upcall(move |x: u32| {
                let traced = trace::on();
                if traced {
                    trace::HANDLER_ENTRY.store(trace::now(), Ordering::Relaxed);
                }
                handled.fetch_add(1, Ordering::Relaxed);
                let reply = if state.corrupt_now() {
                    x.wrapping_add(2)
                } else {
                    x.wrapping_add(1)
                };
                if traced {
                    trace::HANDLER_EXIT.store(trace::now(), Ordering::Relaxed);
                }
                Ok(reply)
            })
        };
        let caller = Arc::clone(client.caller());
        let rig = Rig {
            server,
            client,
            caller,
            target: Target::Builtin(BENCH_SERVICE_ID),
            bounce,
            handled,
            sock,
        };
        let reply = rig.echo_raw(41).map_err(|e| format!("first call: {e}"))?;
        if reply != 42 {
            return Err(format!("first call replied {reply}, expected 42"));
        }
        Ok((
            rig,
            SetupTimes {
                total: started.elapsed(),
                connect,
            },
        ))
    }

    /// One echo call through the caller, decoded.
    ///
    /// # Errors
    ///
    /// The call's error.
    pub fn echo_raw(&self, x: u32) -> RpcResult<u32> {
        let args = Opaque::from(clam_xdr::encode(&(x,))?);
        let out = self.caller.call(self.target, M_ECHO, args)?;
        Ok(clam_xdr::decode(out.as_slice())?)
    }

    /// Upcalls the client's runtime has dispatched to any handler.
    #[must_use]
    pub fn client_upcalls(&self) -> u64 {
        self.client.upcalls_handled()
    }

    /// Stop the server (the client sees its channels close) and remove
    /// the socket file.
    pub fn stop(self) {
        self.server.shutdown();
        if let Some(path) = &self.sock {
            let _ = std::fs::remove_file(path);
        }
    }
}
