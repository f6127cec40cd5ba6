//! A tripwire on kernel context switches: after warm-up, a synchronous
//! `echo` call over unix, a call that makes one synchronous upcall, a
//! batch of 64 async calls with its sync barrier, a call that makes one
//! async upcall, and a call whose one synchronous upcall's handler makes
//! one nested call must each stay within a budget of switches, summed
//! over every thread of this process (`/proc/self/task/*/status`). The
//! nested call must also spawn no server task of its own.
//! clam-obs counts baton grants (`task.switches_per_op`), not the
//! kernel's switches; a thread put back on a request path (a reader
//! thread handing each frame to the serving task) shows up here even
//! where that count reads 0.
//!
//! A thread that sleeps makes a voluntary switch. A reader that probes its
//! socket and yields the CPU between probes makes an involuntary one each
//! time the yield lets another thread run, so a hop turned from a sleep
//! into a yield still counts: each budget covers both kinds, and the
//! voluntary switches per `echo` have a bound of their own.
//!
//! The test runs every thread it starts on one CPU. There each hop is a
//! switch, so the count is the number of times a thread must give the
//! CPU to another, and it moves little from run to run (a yield that
//! finds no other thread ready is no switch). Across two CPUs, a blocking unix-socket read also wakes when the
//! peer reads what the waiter wrote (the kernel's write-space wake-up), and
//! whether it does depends on timing: the count then moves between runs.
//!
//! The count covers the whole process, so this test must stay alone in
//! its file.

use clam_core::{ClamClient, ClamServer, UpcallTarget};
use clam_integration::unique_unix;
use clam_rpc::{current_conn, ProcId, RpcError, RpcResult, StatusCode, Target};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

clam_rpc::remote_interface! {
    /// What the budget is measured on.
    pub interface Probe {
        proxy ProbeProxy;
        skeleton ProbeSkeleton;
        class ProbeClass;

        /// Returns `x + 1`.
        fn echo(x: u32) -> u32 = 1;
        /// Upcalls `proc(x)` once and returns what it returned.
        fn bounce(proc: ProcId, x: u32) -> u32 = 2;
        /// Counts one note.
        fn note(x: u32) = 3 oneway;
        /// The notes counted so far: the batch's barrier.
        fn noted() -> u32 = 4;
        /// Upcalls `proc(x)` once without waiting for it, and returns `x + 1`.
        fn pulse(proc: ProcId, x: u32) -> u32 = 5;
    }
}

struct ProbeImpl {
    server: Weak<ClamServer>,
    notes: AtomicU32,
}

impl ProbeImpl {
    fn to_caller(&self, proc: ProcId) -> RpcResult<UpcallTarget<u32, u32>> {
        let gone = || RpcError::status(StatusCode::AppError, "no server or connection");
        let server = self.server.upgrade().ok_or_else(gone)?;
        let conn = current_conn().ok_or_else(gone)?;
        server.upcall_target(conn, proc)
    }
}

impl Probe for ProbeImpl {
    fn echo(&self, x: u32) -> RpcResult<u32> {
        Ok(x.wrapping_add(1))
    }

    fn bounce(&self, proc: ProcId, x: u32) -> RpcResult<u32> {
        self.to_caller(proc)?.invoke(x)
    }

    fn note(&self, _x: u32) -> RpcResult<()> {
        self.notes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn noted(&self) -> RpcResult<u32> {
        Ok(self.notes.load(Ordering::Relaxed))
    }

    fn pulse(&self, proc: ProcId, x: u32) -> RpcResult<u32> {
        self.to_caller(proc)?.invoke_async(x)?;
        Ok(x.wrapping_add(1))
    }
}

const PROBE_SERVICE: u32 = 91;
const WARM_UP: u32 = 2_000;
const COUNTED: u32 = 10_000;
/// Async calls per batch.
const BATCH: u32 = 64;
/// Batches warmed up and counted: each is 64 calls.
const BATCH_WARM_UP: u32 = 200;
const BATCH_COUNTED: u32 = 2_000;
/// `optimised` in a release build, `unoptimised` in a debug one. Serving
/// takes longer unoptimised, so a reader's probing more often runs out
/// before the reply comes, and the thread sleeps instead.
const fn by_build(optimised: f64, unoptimised: f64) -> f64 {
    if cfg!(debug_assertions) {
        unoptimised
    } else {
        optimised
    }
}

/// Voluntary + involuntary switches per `echo` call.
const ECHO_BUDGET: f64 = by_build(2.5, 4.0);
/// Voluntary switches per `echo` call: a reply the caller probes for
/// needs no sleep.
const ECHO_SLEEPS: f64 = by_build(0.5, 2.0);
/// Voluntary + involuntary switches per call with one sync upcall. 20
/// release runs on a 2-vCPU VM read 8.19–8.28 and 15 debug runs
/// 8.31–9.67; the budget adds about a fifth.
const UPCALL_BUDGET: f64 = by_build(10.0, 11.5);
/// Voluntary + involuntary switches per batch of 64 async calls and its
/// sync barrier: the barrier's round trip, whose reply the caller often
/// sleeps for, as a batch's serving takes longer than a probe.
const BATCH_BUDGET: f64 = 4.5;
/// Voluntary + involuntary switches per call with one async upcall: the
/// call's round trip and the client's upcall task, which serves the
/// upcall while the caller waits for its reply.
const ASYNC_UPCALL_BUDGET: f64 = by_build(4.0, 5.5);
/// Voluntary + involuntary switches per call with one sync upcall whose
/// handler makes one nested call. 20 release runs on a 2-vCPU VM read
/// 12.27–12.50 and 15 debug runs 12.67–13.61; the budget adds about a
/// fifth.
const NESTED_BUDGET: f64 = by_build(15.0, 16.5);
/// Server tasks spawned per such call: the follower the serving task
/// lends its reader to when it blocks for the upcall. The follower serves
/// the nested call in place.
const NESTED_SPAWNS: f64 = 1.05;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread, and so every thread it starts from now
/// on, to the first CPU it may run on.
fn pin_to_one_cpu() {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, and pid 0
    // names the calling thread.
    assert_eq!(unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) }, 0);
    let (word, bit) = mask
        .iter()
        .enumerate()
        .find_map(|(i, w)| (*w != 0).then(|| (i, w.trailing_zeros())))
        .expect("some CPU is allowed");
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: as above, with a readable mask.
    assert_eq!(unsafe { sched_setaffinity(0, size, one.as_ptr()) }, 0);
}

/// Voluntary and involuntary switches of each live thread of this
/// process, by thread id, with the thread's name.
fn switches() -> HashMap<String, (String, [u64; 2])> {
    let mut threads = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let path = task.expect("a task entry").path();
        let Ok(status) = std::fs::read_to_string(path.join("status")) else {
            continue; // the thread exited meanwhile
        };
        let field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .map(|v| v.trim().to_string())
        };
        let (Some(name), Some(voluntary), Some(involuntary)) = (
            field("Name:"),
            field("voluntary_ctxt_switches:"),
            field("nonvoluntary_ctxt_switches:"),
        ) else {
            continue;
        };
        let tid = path
            .file_name()
            .expect("a tid")
            .to_string_lossy()
            .into_owned();
        let count = [voluntary, involuntary].map(|n| n.parse().expect("a count"));
        threads.insert(tid, (name, count));
    }
    threads
}

/// Switches per counted op: voluntary, involuntary, and both by thread
/// name, most first.
struct PerOp {
    voluntary: f64,
    involuntary: f64,
    by_thread: Vec<(String, [f64; 2])>,
}

impl PerOp {
    fn total(&self) -> f64 {
        self.voluntary + self.involuntary
    }
}

impl std::fmt::Display for PerOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.2} voluntary + {:.2} involuntary; [voluntary, involuntary] by thread: {:.2?}",
            self.voluntary, self.involuntary, self.by_thread
        )
    }
}

/// Run `op` `warm_up` times, then `counted` times between two snapshots.
fn per_op(warm_up: u32, counted: u32, mut op: impl FnMut(u32)) -> PerOp {
    (0..warm_up).for_each(&mut op);
    let before = switches();
    (warm_up..warm_up + counted).for_each(&mut op);
    let after = switches();
    let mut by_name: HashMap<String, [u64; 2]> = HashMap::new();
    for (tid, (name, count)) in after {
        let start = before.get(&tid).map_or([0, 0], |(_, c)| *c);
        let sum = by_name.entry(name).or_default();
        for kind in 0..2 {
            sum[kind] += count[kind] - start[kind];
        }
    }
    let mut by_thread: Vec<(String, [f64; 2])> = by_name
        .into_iter()
        .map(|(name, n)| (name, n.map(|n| n as f64 / f64::from(counted))))
        .collect();
    by_thread.sort_by(|a, b| (b.1[0] + b.1[1]).total_cmp(&(a.1[0] + a.1[1])));
    let sum = |kind: usize| by_thread.iter().map(|(_, n)| n[kind]).sum();
    PerOp {
        voluntary: sum(0),
        involuntary: sum(1),
        by_thread,
    }
}

#[test]
fn sync_calls_stay_within_their_switch_budget() {
    pin_to_one_cpu();
    let server = ClamServer::builder()
        .listen(unique_unix("switch-budget"))
        .build()
        .expect("server starts");
    server.rpc().register_service(
        PROBE_SERVICE,
        Arc::new(ProbeSkeleton::new(Arc::new(ProbeImpl {
            server: Arc::downgrade(&server),
            notes: AtomicU32::new(0),
        }))),
    );
    let client = ClamClient::connect(&server.endpoints()[0]).expect("client connects");
    let proxy = ProbeProxy::new(Arc::clone(client.caller()), Target::Builtin(PROBE_SERVICE));
    let proc = client.register_upcall(|x: u32| Ok(x.wrapping_add(1)));
    let pulses = Arc::new(AtomicU32::new(0));
    let pulsed = Arc::clone(&pulses);
    let async_proc = client.register_upcall(move |x: u32| {
        pulsed.fetch_add(1, Ordering::Relaxed);
        Ok(x)
    });

    let echo = per_op(WARM_UP, COUNTED, |x| {
        assert_eq!(proxy.echo(x).expect("echo"), x + 1);
    });
    let upcall = per_op(WARM_UP, COUNTED, |x| {
        assert_eq!(proxy.bounce(proc, x).expect("bounce"), x + 1);
    });
    let batch = per_op(BATCH_WARM_UP, BATCH_COUNTED, |round| {
        for i in 0..BATCH {
            proxy.note(i).expect("note");
        }
        assert_eq!(proxy.noted().expect("barrier"), (round + 1) * BATCH);
    });
    let async_upcall = per_op(WARM_UP, COUNTED, |x| {
        assert_eq!(proxy.pulse(async_proc, x).expect("pulse"), x + 1);
    });
    let nested_proxy = proxy.clone();
    let nesting_proc = client.register_upcall(move |x: u32| nested_proxy.echo(x));
    let nest = |x| assert_eq!(proxy.bounce(nesting_proc, x).expect("nested"), x + 1);
    (0..WARM_UP).for_each(nest);
    let spawned = || server.scheduler().metrics().counter("task.tasks_spawned");
    let spawned_before = spawned();
    let nested = per_op(0, COUNTED, nest);
    let nested_spawns = (spawned() - spawned_before) as f64 / f64::from(COUNTED);
    let give_up = Instant::now() + Duration::from_secs(10);
    while pulses.load(Ordering::Relaxed) < WARM_UP + COUNTED {
        assert!(Instant::now() < give_up, "async upcalls went missing");
        std::thread::sleep(Duration::from_millis(1));
    }
    println!("switches per echo: {echo}");
    println!("switches per upcall call: {upcall}");
    println!("switches per batch of {BATCH} and its barrier: {batch}");
    println!("switches per async upcall call: {async_upcall}");
    println!("switches per nested call: {nested}; server tasks spawned: {nested_spawns:.2}");
    assert!(
        echo.total() <= ECHO_BUDGET,
        "switches per echo call over budget {ECHO_BUDGET}: {echo}"
    );
    assert!(
        echo.voluntary <= ECHO_SLEEPS,
        "voluntary switches per echo call over {ECHO_SLEEPS}: {echo}"
    );
    assert!(
        upcall.total() <= UPCALL_BUDGET,
        "switches per call with one upcall over budget {UPCALL_BUDGET}: {upcall}"
    );
    assert!(
        batch.total() <= BATCH_BUDGET,
        "switches per batch over budget {BATCH_BUDGET}: {batch}"
    );
    assert!(
        async_upcall.total() <= ASYNC_UPCALL_BUDGET,
        "switches per call with one async upcall over budget {ASYNC_UPCALL_BUDGET}: {async_upcall}"
    );
    assert!(
        nested.total() <= NESTED_BUDGET,
        "switches per call with a nested call over budget {NESTED_BUDGET}: {nested}"
    );
    assert!(
        nested_spawns <= NESTED_SPAWNS,
        "server tasks spawned per call with a nested call over {NESTED_SPAWNS}: {nested_spawns:.2}"
    );
    drop(client);
    server.shutdown();
}
