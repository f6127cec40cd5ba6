//! Shared measurement rig for the Figure 5.1 reproduction (`fig51`), the
//! design-choice ablations (`ablations`) and the regression guard
//! (`bench_guard`).
//!
//! Figure 5.1 of the paper measures nine call configurations on Microvax
//! workstations under 4.3BSD. This crate regenerates every row:
//!
//! | Row | Configuration | Paper (µs) |
//! |---|---|---|
//! | 1 | statically linked procedure call | 19 |
//! | 2 | dynamically loaded proc → dynamically loaded proc | 21 |
//! | 3 | upcall, both procedures in the server | 19 |
//! | 4 | remote call, same machine, Unix domain | 7 200 |
//! | 5 | remote upcall, same machine, Unix domain | 7 200 |
//! | 6 | remote call, same machine, TCP/IP | 11 500 |
//! | 7 | remote upcall, same machine, TCP/IP | 11 500 |
//! | 8 | remote call, different machines, TCP/IP | 12 400 |
//! | 9 | remote upcall, different machines, TCP/IP | 12 800 |
//!
//! Absolute numbers will differ by orders of magnitude on modern
//! hardware; the *shape* is what EXPERIMENTS.md validates: rows 1–3
//! mutually close and vastly cheaper than 4–9, upcall ≈ call at every
//! tier, unix < tcp < wan.

use clam_core::{ClamClient, ClamServer, ServerConfig, UpcallTarget};
use clam_load::{ClassSpec, SimpleModule, Version};
use clam_net::Endpoint;
use clam_rpc::{current_conn, ProcId, RpcError, RpcResult, StatusCode, Target};
use clam_task::TaskError;
use clam_xdr::Opaque;
use std::hint::black_box;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// The paper's numbers, in microseconds, for side-by-side printing.
pub const PAPER_US: [(&str, f64); 9] = [
    ("static procedure call", 19.0),
    ("dyn-loaded proc calling dyn-loaded proc", 21.0),
    ("upcall, both procedures in server", 19.0),
    ("remote call, same machine (unix domain)", 7_200.0),
    ("remote upcall, same machine (unix domain)", 7_200.0),
    ("remote call, same machine (tcp/ip)", 11_500.0),
    ("remote upcall, same machine (tcp/ip)", 11_500.0),
    ("remote call, different machines (tcp/ip)", 12_400.0),
    ("remote upcall, different machines (tcp/ip)", 12_800.0),
];

// ----------------------------------------------------------------------
// Rows 1–3: local configurations.
// ----------------------------------------------------------------------

/// Row 1's callee: a statically linked, non-inlined procedure.
#[inline(never)]
pub fn static_procedure(x: u32) -> u32 {
    black_box(x).wrapping_mul(2).wrapping_add(1)
}

/// A dynamically loaded procedure value: what the loader hands back when
/// a loaded class exports a procedure. Calling it is an indirect call
/// through the dispatch table, exactly row 2's configuration.
pub type LoadedProc = Arc<dyn Fn(u32) -> u32 + Send + Sync>;

/// Build row 2's pair — a loaded procedure that calls another loaded
/// procedure with a normal (indirect) call — by actually pushing both
/// through the dynamic loader, so the calling convention is the one a
/// loaded module gets.
#[must_use]
pub fn loaded_proc_pair() -> LoadedProc {
    // The "module" carries its procedures as objects; loading resolves
    // them. (No RPC here: rows 1–3 are all intra-address-space.)
    let loader = clam_load::DynamicLoader::new();
    let server = clam_rpc::RpcServer::new();
    let inner: LoadedProc = Arc::new(|x| black_box(x).wrapping_mul(2).wrapping_add(1));
    let inner_for_module = Arc::clone(&inner);
    let module = SimpleModule::new("bench-procs", Version::new(1, 0)).with_class(ClassSpec::new(
        "Procs",
        Arc::new(NullDispatch),
        Arc::new(move |_s, _a| {
            let inner = Arc::clone(&inner_for_module);
            let outer: LoadedProc = Arc::new(move |x| inner(x));
            Ok(Arc::new(outer))
        }),
    ));
    loader.install(Arc::new(module)).expect("install");
    let classes = loader
        .load(&server, "bench-procs", Version::new(1, 0))
        .expect("load");
    let handle = loader
        .create_object(&server, classes[0].class_id, &clam_xdr::Opaque::new())
        .expect("create");
    let obj: Arc<LoadedProc> = server.objects().resolve(handle).expect("resolve");
    Arc::clone(&obj)
}

struct NullDispatch;
impl clam_rpc::ClassDispatch for NullDispatch {
    fn class_name(&self) -> &str {
        "Procs"
    }
    fn dispatch(
        &self,
        _server: &clam_rpc::RpcServer,
        _object: &Arc<dyn std::any::Any + Send + Sync>,
        _ctx: &clam_rpc::CallContext,
        _results: &mut Vec<u8>,
    ) -> RpcResult<()> {
        Err(RpcError::status(StatusCode::NoSuchMethod, "bench only"))
    }
}

/// Row 3's target: a local upcall registration.
#[must_use]
pub fn local_upcall_target() -> UpcallTarget<u32, u32> {
    UpcallTarget::local(|x: u32| Ok(black_box(x).wrapping_mul(2).wrapping_add(1)))
}

// ----------------------------------------------------------------------
// Rows 4–9: the echo service over a real server.
// ----------------------------------------------------------------------

clam_rpc::remote_interface! {
    /// Measurement service: echo (remote calls) and a server-side upcall
    /// loop (remote upcalls, timed inside the server so the triggering
    /// RPC is excluded).
    pub interface Echo {
        proxy EchoProxy;
        skeleton EchoSkeleton;
        class EchoClass;

        /// Round-trip one word.
        fn echo(x: u32) -> u32 = 1;
        /// Perform `n` synchronous upcalls to `proc`; returns elapsed
        /// nanoseconds measured server-side.
        fn run_upcalls(proc: ProcId, n: u32) -> u64 = 2;
        /// Perform `per_task` synchronous upcalls to `proc` from each of
        /// `tasks` concurrent server tasks; returns elapsed nanoseconds
        /// measured server-side.
        fn fan_out(proc: ProcId, tasks: u32, per_task: u32) -> u64 = 3;
    }
}

/// Builtin service id for the echo service.
pub const ECHO_SERVICE_ID: u32 = 60;

struct EchoImpl {
    server: Weak<ClamServer>,
}

impl EchoImpl {
    /// The server and the calling client's procedure `proc`.
    fn target(&self, proc: ProcId) -> RpcResult<(Arc<ClamServer>, UpcallTarget<u32, u32>)> {
        let server = self
            .server
            .upgrade()
            .ok_or_else(|| RpcError::status(StatusCode::AppError, "server gone"))?;
        let conn = current_conn()
            .ok_or_else(|| RpcError::status(StatusCode::AppError, "no connection"))?;
        let target = server.upcall_target(conn, proc)?;
        Ok((server, target))
    }
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Echo for EchoImpl {
    fn echo(&self, x: u32) -> RpcResult<u32> {
        Ok(x.wrapping_add(1))
    }

    fn run_upcalls(&self, proc: ProcId, n: u32) -> RpcResult<u64> {
        let (_, target) = self.target(proc)?;
        let start = Instant::now();
        for i in 0..n {
            let _ = target.invoke(i)?;
        }
        Ok(nanos_since(start))
    }

    fn fan_out(&self, proc: ProcId, tasks: u32, per_task: u32) -> RpcResult<u64> {
        let (server, target) = self.target(proc)?;
        let start = Instant::now();
        let mut handles = Vec::with_capacity(tasks as usize);
        let started = (0..tasks).try_for_each(|_| {
            let target = target.clone();
            handles.push(server.scheduler().try_spawn("fan-out", move || {
                for i in 0..per_task {
                    let _ = target.invoke(i);
                }
            })?);
            Ok(())
        });
        for h in handles {
            let _ = h.join();
        }
        started.map_err(|e: TaskError| RpcError::status(StatusCode::AppError, e.to_string()))?;
        Ok(nanos_since(start))
    }
}

/// A measurement rig: server + connected client + echo proxy.
pub struct BenchRig {
    /// The server (kept alive for the rig's lifetime).
    pub server: Arc<ClamServer>,
    /// The connected client.
    pub client: Arc<ClamClient>,
    /// Echo proxy over the client's caller.
    pub echo: EchoProxy,
    /// An upcall procedure registered on the client: `|x| x + 1`.
    pub bounce_proc: ProcId,
}

impl BenchRig {
    /// Stand up a rig over `endpoint`.
    ///
    /// # Panics
    ///
    /// Panics on setup failure (bench context).
    #[must_use]
    pub fn new(endpoint: Endpoint) -> BenchRig {
        BenchRig::with_config(endpoint, ServerConfig::default())
    }

    /// Stand up a rig over `endpoint` with a server configured by `config`.
    ///
    /// # Panics
    ///
    /// Panics on setup failure (bench context).
    #[must_use]
    pub fn with_config(endpoint: Endpoint, config: ServerConfig) -> BenchRig {
        let server = ClamServer::builder()
            .config(config)
            .listen(endpoint)
            .build()
            .expect("server starts");
        let weak = Arc::downgrade(&server);
        server.rpc().register_service(
            ECHO_SERVICE_ID,
            Arc::new(EchoSkeleton::new(Arc::new(EchoImpl { server: weak }))),
        );
        let client = ClamClient::connect(&server.endpoints()[0]).expect("client connects");
        let echo = EchoProxy::new(
            Arc::clone(client.caller()),
            Target::Builtin(ECHO_SERVICE_ID),
        );
        let bounce_proc = client.register_upcall(|x: u32| Ok(x.wrapping_add(1)));
        BenchRig {
            server,
            client,
            echo,
            bounce_proc,
        }
    }

    /// Mean time per remote call over `iters` echo round trips.
    ///
    /// # Panics
    ///
    /// Panics on transport failure (bench context).
    #[must_use]
    pub fn measure_remote_call(&self, iters: u32) -> Duration {
        let start = Instant::now();
        for i in 0..iters {
            let out = self.echo.echo(i).expect("echo");
            black_box(out);
        }
        start.elapsed() / iters.max(1)
    }

    /// Mean time per remote upcall over `iters`, timed inside the server.
    ///
    /// # Panics
    ///
    /// Panics on transport failure (bench context).
    #[must_use]
    pub fn measure_remote_upcall(&self, iters: u32) -> Duration {
        let nanos = self
            .echo
            .run_upcalls(self.bounce_proc, iters)
            .expect("run_upcalls");
        Duration::from_nanos(nanos) / iters.max(1)
    }

    /// One batched round (section 3.4): `n` async echo calls, one flush,
    /// one sync barrier call.
    ///
    /// # Panics
    ///
    /// Panics on transport failure (bench context).
    pub fn batched_round(&self, n: u32) {
        let caller = self.client.caller();
        let target = Target::Builtin(ECHO_SERVICE_ID);
        for i in 0..n {
            let args = Opaque::from(clam_xdr::encode(&(i,)).expect("encode"));
            caller.call_async(target, 1, args).expect("async call");
        }
        caller.flush().expect("flush");
        self.echo.echo(0).expect("barrier");
    }
}

/// Time `iters` runs of `f`, returning the mean per-call duration.
pub fn time_per_call(iters: u32, mut f: impl FnMut()) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters.max(1)
}

/// Time `iters` runs of `f`, returning the mean per-call time in
/// microseconds. A local call can take under a nanosecond, which
/// [`time_per_call`]'s whole-nanosecond `Duration` reads as 0 or 1.
#[must_use]
pub fn us_per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    us(start.elapsed()) / f64::from(iters.max(1))
}

/// `d` in microseconds.
#[must_use]
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The median of `samples` timings of each of `runs`, one run returning
/// one timing. Each round times every run once, in turn, so a noisy
/// spell on the host hits all the runs being compared alike.
pub fn medians<const N: usize>(
    samples: usize,
    mut runs: [&mut dyn FnMut() -> Duration; N],
) -> [Duration; N] {
    let mut times = [(); N].map(|()| Vec::with_capacity(samples));
    for _ in 0..samples.max(1) {
        for (run, times) in runs.iter_mut().zip(&mut times) {
            times.push(run());
        }
    }
    times.map(|mut times| {
        times.sort_unstable();
        times[times.len() / 2]
    })
}

/// Endpoints for rows 4–9. The WAN endpoint uses the default one-way
/// latency (tuned to Figure 5.1's cross-machine gap; see `clam-net`).
#[must_use]
pub fn row_endpoints() -> [(&'static str, Endpoint); 3] {
    let unix = std::env::temp_dir().join(format!("clam-bench-{}.sock", std::process::id()));
    [
        ("unix", Endpoint::unix(unix)),
        ("tcp", Endpoint::tcp("127.0.0.1:0")),
        ("wan", Endpoint::wan("127.0.0.1:0")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_procedure_computes() {
        assert_eq!(static_procedure(20), 41);
    }

    #[test]
    fn loaded_proc_pair_goes_through_the_loader() {
        let f = loaded_proc_pair();
        assert_eq!(f(20), 41);
    }

    #[test]
    fn local_upcall_target_is_local() {
        let t = local_upcall_target();
        assert!(!t.is_remote());
        assert_eq!(t.invoke(20).unwrap(), 41);
    }

    #[test]
    fn rig_measures_calls_and_upcalls() {
        let rig = BenchRig::new(Endpoint::in_proc(format!(
            "bench-test-{}",
            std::process::id()
        )));
        let call = rig.measure_remote_call(10);
        let upcall = rig.measure_remote_upcall(10);
        assert!(call > Duration::ZERO);
        assert!(upcall > Duration::ZERO);
        rig.batched_round(8);
        assert!(rig.echo.fan_out(rig.bounce_proc, 2, 4).unwrap() > 0);
    }

    #[test]
    fn medians_take_the_middle_sample_of_each_run() {
        let mut a = [5u64, 1, 4, 2, 3].into_iter();
        let mut b = [30u64, 10, 20].into_iter();
        let [ma, mb] = medians(
            3,
            [
                &mut || Duration::from_micros(a.next().unwrap()),
                &mut || Duration::from_micros(b.next().unwrap()),
            ],
        );
        assert_eq!(
            (ma, mb),
            (Duration::from_micros(4), Duration::from_micros(20))
        );
    }

    #[test]
    fn paper_table_has_nine_rows() {
        assert_eq!(PAPER_US.len(), 9);
        assert_eq!(PAPER_US[0].1, 19.0);
        assert_eq!(PAPER_US[8].1, 12_800.0);
    }
}
