//! The design-choice ablations: claims the paper makes in prose, each
//! measured with the mechanism on and off.
//!
//! - **A, batching (section 3.4):** N async calls batched into one
//!   message vs flushed one message each vs N sync round trips, over
//!   unix.
//! - **B, sweep placement (section 2.1):** a sweep gesture with the
//!   sweeping layer in the server (one completion upcall) vs in the
//!   client (every event upcalled), per transport and, in process, per
//!   gesture length.
//! - **C, upcall limit (section 4.4):** 4 server tasks × 16 sync upcalls
//!   to one client with one active upcall allowed vs four.
//! - **D, task reuse (section 4.4):** spawn+join from a warm worker pool
//!   vs a fresh thread per task.
//!
//! Every cell is the median of [`SAMPLES`] timed runs, and the runs a
//! row compares are timed in turn ([`medians`]). The bin ends with shape
//! checks for the claims EXPERIMENTS.md records and exits nonzero if one
//! fails.
//!
//! Run with: `cargo run --release -p clam-bench --bin ablations`

use clam_bench::{medians, time_per_call, us, BenchRig, Echo, ECHO_SERVICE_ID};
use clam_core::{ClamClient, ClamServer, ServerConfig};
use clam_integration::{desktop_client, unique_inproc, unique_unix, window_server};
use clam_net::Endpoint;
use clam_rpc::{ProcId, Target};
use clam_task::Scheduler;
use clam_windows::input::sweep_script;
use clam_windows::module::{Desktop, DesktopProxy};
use clam_windows::sweep::SweepOptions;
use clam_windows::wm::WindowEvent;
use clam_windows::{Point, Rect, Screen, Size, SweepLayer};
use clam_xdr::Opaque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Timed runs per table cell.
const SAMPLES: usize = 11;

/// A fresh endpoint on `transport` for one rig.
fn endpoint(transport: &str) -> Endpoint {
    match transport {
        "inproc" => unique_inproc("ablation"),
        "unix" => unique_unix("ablation"),
        "tcp" => Endpoint::tcp("127.0.0.1:0"),
        _ => Endpoint::wan("127.0.0.1:0"),
    }
}

/// Prints the table; returns the N=512 (batched, sync-each) medians.
fn batching() -> (Duration, Duration) {
    println!();
    println!("Ablation A: call batching (section 3.4) — N async calls + one sync barrier, unix");
    println!("{:-<78}", "");
    println!(
        "{:>5} {:>15} {:>17} {:>16} {:>18}",
        "N", "batched (us)", "flush-each (us)", "sync-each (us)", "batched vs sync"
    );
    println!("{:-<78}", "");
    let rig = BenchRig::new(endpoint("unix"));
    let caller = rig.client.caller();
    let target = Target::Builtin(ECHO_SERVICE_ID);
    rig.batched_round(8); // warm up
    let mut last = (Duration::ZERO, Duration::ZERO);
    for n in [1u32, 8, 64, 512] {
        let [batched, flush_each, sync_each] = medians(
            SAMPLES,
            [
                &mut || time_per_call(1, || rig.batched_round(n)),
                // One IPC message per call.
                &mut || {
                    time_per_call(1, || {
                        for i in 0..n {
                            let args = Opaque::from(clam_xdr::encode(&(i,)).expect("encode"));
                            caller.call_async(target, 1, args).expect("async call");
                            caller.flush().expect("flush");
                        }
                        rig.echo.echo(0).expect("barrier");
                    })
                },
                // N round trips: the no-asynchrony baseline.
                &mut || {
                    time_per_call(1, || {
                        for i in 0..n {
                            rig.echo.echo(i).expect("echo");
                        }
                    })
                },
            ],
        );
        println!(
            "{n:>5} {:>15.1} {:>17.1} {:>16.1} {:>17.1}x",
            us(batched),
            us(flush_each),
            us(sync_each),
            sync_each.as_secs_f64() / batched.as_secs_f64().max(1e-12)
        );
        last = (batched, sync_each);
    }
    rig.server.shutdown();
    last
}

/// One placement of the sweep layer, ready to time gestures.
struct Placement {
    server: Arc<ClamServer>,
    client: Arc<ClamClient>,
    desktop: DesktopProxy,
    /// The layer runs in the server and upcalls this on completion.
    on_complete: Option<ProcId>,
}

impl Placement {
    /// The layer in the server, upcalling the client once per gesture,
    /// or in the client (the X placement): a desktop listener receives
    /// every event and runs the same state machine locally.
    fn new(endpoint: Endpoint, in_server: bool) -> Placement {
        let server = window_server(endpoint, ServerConfig::default());
        let (client, desktop) = desktop_client(&server);
        let on_complete = if in_server {
            Some(client.register_upcall(|_rect: Rect| Ok(0u32)))
        } else {
            let layer = Mutex::new((
                SweepLayer::new(SweepOptions {
                    grid: 1,
                    show_band: false, // the client has no server framebuffer
                }),
                Screen::new(Size::new(640, 480), 0),
            ));
            let listener = client.register_upcall(move |we: WindowEvent| {
                let mut guard = layer.lock().expect("no handler panicked");
                let (layer, screen) = &mut *guard;
                let _ = layer.handle_event(screen, we.event);
                Ok(0u32)
            });
            desktop.post_desktop(listener).expect("register");
            None
        };
        Placement {
            server,
            client,
            desktop,
            on_complete,
        }
    }

    /// Inject one gesture (press + `steps` moves + release), one call
    /// per event, and return how long that took.
    fn gesture(&self, steps: u32) -> Duration {
        if let Some(done) = self.on_complete {
            self.desktop.begin_sweep(1, done).expect("arm");
        }
        let script = sweep_script(Point::new(10, 10), Point::new(200, 150), steps);
        let start = Instant::now();
        for ev in script {
            self.desktop.inject(ev).expect("inject");
        }
        start.elapsed()
    }
}

/// Prints the table; returns (in server, in client) for each 64-move row.
fn sweep_placement() -> Vec<(Duration, Duration)> {
    println!();
    println!("Ablation B: sweep layer placement (section 2.1) — one gesture, one call per event");
    println!("{:-<88}", "");
    println!(
        "{:<10} {:>6} {:>16} {:>16} {:>10} {:>22}",
        "transport", "moves", "in server (ms)", "in client (ms)", "slowdown", "upcalls/gesture s/c"
    );
    println!("{:-<88}", "");
    let mut rows = Vec::new();
    for (transport, moves) in [
        ("inproc", &[16u32, 64, 256][..]),
        ("unix", &[64]),
        ("tcp", &[64]),
        ("wan", &[64]),
    ] {
        let server = Placement::new(endpoint(transport), true);
        let client = Placement::new(endpoint(transport), false);
        let handled = || [&server, &client].map(|p| p.client.upcalls_handled());
        for &steps in moves {
            let _ = (server.gesture(steps), client.gesture(steps)); // warm up
            let before = handled();
            let [server_t, client_t] = medians(
                SAMPLES,
                [&mut || server.gesture(steps), &mut || client.gesture(steps)],
            );
            let after = handled();
            let [server_up, client_up] = [0, 1].map(|i| (after[i] - before[i]) / SAMPLES as u64);
            println!(
                "{transport:<10} {steps:>6} {:>16.3} {:>16.3} {:>9.1}x {:>22}",
                us(server_t) / 1e3,
                us(client_t) / 1e3,
                client_t.as_secs_f64() / server_t.as_secs_f64().max(1e-12),
                format!("{server_up}/{client_up}"),
            );
            if steps == 64 {
                rows.push((server_t, client_t));
            }
        }
        server.server.shutdown();
        client.server.shutdown();
    }
    println!("{:-<88}", "");
    println!("in-server placement makes ONE distributed upcall per gesture; the");
    println!("client placement crosses the address space for every event.");
    rows
}

/// (limit 1, limit 4): median time for 4 server tasks × 16 sync
/// upcalls to one client, in process.
fn upcall_limit() -> (Duration, Duration) {
    println!();
    println!(
        "Ablation C: active-upcall limit (section 4.4) — 4 server tasks x 16 sync upcalls, inproc"
    );
    println!("{:-<52}", "");
    println!(
        "{:>8} {:>16} {:>16}",
        "limit", "total (ms)", "per upcall (us)"
    );
    println!("{:-<52}", "");
    let rigs = [1usize, 4].map(|limit| {
        let config = ServerConfig::default().with_max_concurrent_upcalls(limit);
        BenchRig::with_config(endpoint("inproc"), config)
    });
    let fan_out = |rig: &BenchRig, tasks, per_task| {
        Duration::from_nanos(
            rig.echo
                .fan_out(rig.bounce_proc, tasks, per_task)
                .expect("fan out"),
        )
    };
    for rig in &rigs {
        let _ = fan_out(rig, 1, 4); // warm up
    }
    let [limit1, limit4] = medians(
        SAMPLES,
        [&mut || fan_out(&rigs[0], 4, 16), &mut || {
            fan_out(&rigs[1], 4, 16)
        }],
    );
    for (limit, t) in [(1, limit1), (4, limit4)] {
        println!("{limit:>8} {:>16.3} {:>16.1}", us(t) / 1e3, us(t) / 64.0);
    }
    for rig in &rigs {
        rig.server.shutdown();
    }
    (limit1, limit4)
}

/// (reused, fresh): median spawn+join cost per task.
fn task_reuse() -> (Duration, Duration) {
    const SPAWNS: u32 = 100;
    println!();
    println!("Ablation D: task reuse (section 4.4) — spawn+join of an empty task");
    println!("{:-<44}", "");
    println!("{:<26} {:>16}", "task", "per task (us)");
    println!("{:-<44}", "");
    // One scheduler: after the first spawn every task reuses a parked
    // worker.
    let sched = Scheduler::new("abl-reuse");
    sched.spawn("warm", || {}).join().expect("warm-up");
    let [reused, fresh] = medians(
        SAMPLES,
        [
            &mut || time_per_call(SPAWNS, || sched.spawn("ev", || {}).join().expect("task")),
            // A new scheduler per task: every spawn creates a thread (the
            // paper's rejected design).
            &mut || {
                time_per_call(SPAWNS, || {
                    let cold = Scheduler::new("abl-cold");
                    cold.spawn("ev", || {}).join().expect("task");
                    cold.shutdown();
                })
            },
        ],
    );
    println!("{:<26} {:>16.1}", "reused (warm pool)", us(reused));
    println!("{:<26} {:>16.1}", "fresh thread", us(fresh));
    println!("{:-<44}", "");
    let m = sched.metrics();
    let pooled = m.counter("task.workers_reused");
    println!(
        "pool: spawned={} threads_created={} reused={pooled} ({}% reuse)",
        m.counter("task.tasks_spawned"),
        m.counter("task.threads_created"),
        100 * pooled / m.counter("task.tasks_spawned").max(1)
    );
    sched.shutdown();
    (reused, fresh)
}

fn main() {
    let (batched512, sync512) = batching();
    let sweep = sweep_placement();
    let (limit1, limit4) = upcall_limit();
    let (reused, fresh) = task_reuse();

    // ------------------------------------------------------------------
    // Shape checks, with margins below the recorded measurements.
    // ------------------------------------------------------------------
    println!();
    let mut ok = true;
    let mut check = |name: &str, cond: bool| {
        println!("{} {name}", if cond { "PASS" } else { "FAIL" });
        ok &= cond;
    };
    check(
        "A: batched/512 is >=5x faster than sync-each/512",
        sync512.as_secs_f64() >= 5.0 * batched512.as_secs_f64(),
    );
    check(
        "B: the in-server layer beats the in-client layer on every transport (64 moves)",
        sweep.iter().all(|(server, client)| server < client),
    );
    check(
        "C: limit 4 beats limit 1 (4 tasks x 16 upcalls)",
        limit4 < limit1,
    );
    // Thread creation is cheap on current Linux: the gap measures 1.7-3x
    // on a 2-core x86-64 VM, where an older host recorded 13x.
    check(
        "D: a reused task is >=1.5x cheaper than a fresh thread",
        fresh.as_secs_f64() >= 1.5 * reused.as_secs_f64(),
    );

    println!();
    if ok {
        println!("ablations A-D: shape REPRODUCED");
    } else {
        println!("ablations A-D: DEVIATIONS — see FAIL lines above");
        std::process::exit(1);
    }
}
