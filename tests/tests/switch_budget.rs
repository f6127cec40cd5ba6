//! A tripwire on kernel context switches: after warm-up, a synchronous
//! `echo` call over unix, and a call that makes one synchronous upcall,
//! must each stay within a budget of voluntary switches, summed over every
//! thread of this process (`/proc/self/task/*/status`). clam-obs counts
//! baton grants (`task.switches_per_op`), not the kernel's switches; a
//! thread put back on a request path (a reader thread handing each frame
//! to the serving task) shows up here even where that count reads 0.
//!
//! The test runs every thread it starts on one CPU. There each blocking
//! read sleeps exactly once per operation, so the count is the number of
//! times a thread must block and be woken, and it does not change from run
//! to run. Across two CPUs, a blocking unix-socket read also wakes when the
//! peer reads what the waiter wrote (the kernel's write-space wake-up), and
//! whether it does depends on timing: the count then moves between runs.
//!
//! The count covers the whole process, so this test must stay alone in
//! its file.

use clam_core::{ClamClient, ClamServer, UpcallTarget};
use clam_integration::unique_unix;
use clam_rpc::{current_conn, ProcId, RpcError, RpcResult, StatusCode, Target};
use std::collections::HashMap;
use std::sync::{Arc, Weak};

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
    }
}

struct ProbeImpl {
    server: Weak<ClamServer>,
}

impl Probe for ProbeImpl {
    fn echo(&self, x: u32) -> RpcResult<u32> {
        Ok(x.wrapping_add(1))
    }

    fn bounce(&self, proc: ProcId, x: u32) -> RpcResult<u32> {
        let gone = || RpcError::status(StatusCode::AppError, "no server or connection");
        let server = self.server.upgrade().ok_or_else(gone)?;
        let conn = current_conn().ok_or_else(gone)?;
        let target: UpcallTarget<u32, u32> = server.upcall_target(conn, proc)?;
        target.invoke(x)
    }
}

const PROBE_SERVICE: u32 = 91;
const WARM_UP: u32 = 2_000;
const COUNTED: u32 = 10_000;
/// Voluntary switches per `echo` call.
const ECHO_BUDGET: f64 = 2.5;
/// Voluntary switches per call with one sync upcall.
const UPCALL_BUDGET: f64 = 8.0;

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

/// Voluntary switches of each live thread of this process, by thread id,
/// with the thread's name.
fn switches() -> HashMap<String, (String, u64)> {
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
        let (Some(name), Some(count)) = (field("Name:"), field("voluntary_ctxt_switches:")) else {
            continue;
        };
        let tid = path
            .file_name()
            .expect("a tid")
            .to_string_lossy()
            .into_owned();
        threads.insert(tid, (name, count.parse().expect("a count")));
    }
    threads
}

/// Run `op` `WARM_UP` times, then `COUNTED` times between two snapshots;
/// returns voluntary switches per counted op and the per-name split.
fn per_op(mut op: impl FnMut(u32)) -> (f64, Vec<(String, f64)>) {
    (0..WARM_UP).for_each(&mut op);
    let before = switches();
    (0..COUNTED).for_each(&mut op);
    let after = switches();
    let mut by_name: HashMap<String, u64> = HashMap::new();
    for (tid, (name, count)) in after {
        let start = before.get(&tid).map_or(0, |(_, c)| *c);
        *by_name.entry(name).or_default() += count - start;
    }
    let mut split: Vec<(String, f64)> = by_name
        .into_iter()
        .map(|(name, n)| (name, n as f64 / f64::from(COUNTED)))
        .collect();
    split.sort_by(|a, b| b.1.total_cmp(&a.1));
    (split.iter().map(|(_, n)| n).sum(), split)
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
        }))),
    );
    let client = ClamClient::connect(&server.endpoints()[0]).expect("client connects");
    let proxy = ProbeProxy::new(Arc::clone(client.caller()), Target::Builtin(PROBE_SERVICE));
    let proc = client.register_upcall(|x: u32| Ok(x.wrapping_add(1)));

    let echo = per_op(|x| assert_eq!(proxy.echo(x).expect("echo"), x + 1));
    let upcall = per_op(|x| assert_eq!(proxy.bounce(proc, x).expect("bounce"), x + 1));
    println!("switches per echo {:.2}: {:.2?}", echo.0, echo.1);
    println!("switches per upcall call {:.2}: {:.2?}", upcall.0, upcall.1);
    assert!(
        echo.0 <= ECHO_BUDGET,
        "{:.2} voluntary switches per echo call, budget {ECHO_BUDGET}; by thread: {:.2?}",
        echo.0,
        echo.1
    );
    assert!(
        upcall.0 <= UPCALL_BUDGET,
        "{:.2} voluntary switches per call with one upcall, budget {UPCALL_BUDGET}; by thread: {:.2?}",
        upcall.0,
        upcall.1
    );
    drop(client);
    server.shutdown();
}
