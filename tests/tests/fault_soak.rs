//! Fault-injection soak: calls over a deliberately broken transport.
//!
//! Two tests. The first is the acceptance check for call deadlines: a
//! sync call over a black-holed [`FaultyChannel`] must come back as
//! `DeadlineExceeded` within 2x the configured timeout. The second is a
//! seeded soak: a run of sync calls rides a lossy, delaying, duplicating
//! link and idempotent retry must land every one of them. The CI
//! fault-soak job runs this file under three fixed seeds via
//! `FAULT_SOAK_SEED`; on failure the seed, plan, and link statistics are
//! written to `target/fault-soak/` so the run can be replayed exactly.

use clam_net::{pair, FaultPlan, FaultyChannel, FrameFate};
use clam_rpc::{
    CallOptions, Caller, CallerConfig, ConnId, RpcError, RpcServer, Target, SYNC_SERVICE_ID,
};
use clam_task::Scheduler;
use clam_xdr::Opaque;
use std::sync::Arc;
use std::time::{Duration, Instant};

const EXACT_ROLE_ENV: &str = "CLAM_FAULT_EXACT_ROLE";

/// The seed for this run: `FAULT_SOAK_SEED` from the environment (the CI
/// matrix sets 1, 2, 3), defaulting to 1 for plain `cargo test`.
fn soak_seed() -> u64 {
    std::env::var("FAULT_SOAK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn timed_caller(channel: clam_net::Channel, timeout: Duration) -> Arc<Caller> {
    let sched = Scheduler::new("fault-soak");
    let (writer, reader) = channel.split();
    let caller = Caller::new(
        &sched,
        writer,
        CallerConfig {
            call_timeout: Some(timeout),
            ..CallerConfig::default()
        },
    );
    caller.attach_reader(reader);
    caller
}

#[test]
fn black_holed_call_deadlines_within_twice_the_timeout() {
    let (client, mut server) = pair();
    let (client, fault) = FaultyChannel::wrap(client, FaultPlan::seeded(soak_seed()).black_hole());

    // The server never sees a frame — the fault layer eats them all — but
    // keep a live reader so the link stays up from the client's side.
    let srv = std::thread::spawn(move || while server.recv().is_ok() {});

    let timeout = Duration::from_millis(250);
    let caller = timed_caller(client, timeout);

    let start = Instant::now();
    let err = caller
        .call(Target::Builtin(SYNC_SERVICE_ID), 0, Opaque::new())
        .unwrap_err();
    let elapsed = start.elapsed();
    assert!(matches!(err, RpcError::DeadlineExceeded), "got {err:?}");
    assert!(elapsed >= timeout, "deadline fired early: {elapsed:?}");
    assert!(
        elapsed < timeout * 2,
        "deadline must fire within 2x the timeout, took {elapsed:?}"
    );

    let stats = fault.metrics();
    let dropped = stats.counter("net.fault.drop") + stats.counter("net.fault.partition");
    assert_eq!(
        stats.counter("net.fault.delivered"),
        0,
        "black hole leaked frames: {stats:?}"
    );
    assert!(dropped >= 1, "nothing was even offered: {stats:?}");

    drop(caller); // closes the write half; the server loop ends
    srv.join().unwrap();
}

#[test]
fn seeded_soak_idempotent_retry_survives_a_lossy_link() {
    const CALLS: u32 = 40;
    let seed = soak_seed();
    let plan = FaultPlan::seeded(seed)
        .drop_frames(0.2)
        .delay_frames(0.2, Duration::from_millis(5))
        .duplicate_frames(0.1);

    let (client, server) = pair();
    let (client, fault) = FaultyChannel::wrap(client, plan);

    // A bare RpcServer is enough: the built-in sync point acks batches.
    let rpc = Arc::new(RpcServer::new());
    let srv = {
        let rpc = Arc::clone(&rpc);
        std::thread::spawn(move || rpc.serve_channel(ConnId(1), server))
    };

    let caller = timed_caller(client, Duration::from_millis(200));
    let options = CallOptions::default()
        .idempotent_with_retries(8)
        .with_backoff(Duration::from_millis(20));

    for i in 0..CALLS {
        if let Err(err) =
            caller.call_with(Target::Builtin(SYNC_SERVICE_ID), 0, Opaque::new(), options)
        {
            let transcript = format!(
                "fault soak failure\nseed: {seed}\ncall: {i}/{CALLS}\n\
                 error: {err:?}\nplan: {plan:?}\nstats: {:?}\n\
                 replay: FAULT_SOAK_SEED={seed} cargo test -p clam-integration --test fault_soak\n",
                fault.metrics()
            );
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("target")
                .join("fault-soak");
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(dir.join(format!("seed-{seed}.txt")), &transcript);
            panic!("{transcript}");
        }
    }

    let stats = fault.metrics();
    assert!(
        stats.counter("net.fault.offered") >= u64::from(CALLS),
        "soak offered too few frames: {stats:?}"
    );

    drop(caller); // closes the write half; serve_channel returns
    srv.join().unwrap();
}

/// The seed-deterministic plan the exact-fates check drives: every
/// randomized fault kind at once, plus a scripted disconnect near the
/// end, over payloads of varying length (including empty ones, which
/// skip the truncation draw).
fn exact_plan(seed: u64) -> (FaultPlan, Vec<Vec<u8>>) {
    let plan = FaultPlan::seeded(seed)
        .drop_frames(0.25)
        .delay_frames(0.2, Duration::from_micros(50))
        .duplicate_frames(0.2)
        .truncate_frames(0.3)
        .disconnect_after(40);
    let payloads = (0..48u8).map(|i| vec![i; usize::from(i) % 9 * 4]).collect();
    (plan, payloads)
}

/// Child-process body for the exact-fates check: with no sibling tests
/// injecting faults, the process-global `net.fault.*` counters must
/// match the pure [`FaultPlan::planned_fates`] replay *exactly*.
#[test]
fn child_exact_fault_fates() {
    if std::env::var(EXACT_ROLE_ENV).as_deref() != Ok("driver") {
        return;
    }
    let seed = soak_seed();
    let (plan, payloads) = exact_plan(seed);
    let lens: Vec<usize> = payloads.iter().map(Vec::len).collect();
    let fates = plan.planned_fates(&lens);

    let names = [
        "drop",
        "delay",
        "duplicate",
        "truncate",
        "partition",
        "disconnect",
    ];
    let before = clam_obs::snapshot();

    let (client, server) = pair();
    let (mut client, handle) = FaultyChannel::wrap(client, plan);
    for p in &payloads {
        // Sends after the scripted disconnect fail; that IS the fate.
        let _ = client.send(&p[..]);
    }

    assert_eq!(
        handle.metrics(),
        plan.planned_stats(&lens),
        "seed {seed}: the link's counts diverge from the planned replay"
    );

    let planned = |f: fn(&FrameFate) -> bool| fates.iter().filter(|fate| f(fate)).count() as u64;
    let expected = [
        planned(|f| f.dropped && !f.partitioned),
        planned(|f| f.delayed),
        planned(|f| f.duplicated),
        planned(|f| f.truncated),
        planned(|f| f.partitioned),
        planned(|f| f.disconnected && f.offered),
    ];
    let delta = clam_obs::snapshot().delta(&before);
    for (name, expected) in names.iter().zip(expected) {
        assert_eq!(
            delta.counter(&format!("net.fault.{name}")),
            expected,
            "seed {seed}: net.fault.{name} diverges from the planned fates"
        );
    }
    drop(server);
}

/// Drive [`child_exact_fault_fates`] in its own process, where this
/// file's other tests cannot pollute the process-global fault counters.
/// The child inherits `FAULT_SOAK_SEED`, so the CI matrix exercises the
/// exactness check under every seed.
#[test]
fn fault_counters_match_planned_fates_exactly() {
    if std::env::var(EXACT_ROLE_ENV).is_ok() {
        return; // never recurse inside the child
    }
    let out = std::process::Command::new(std::env::current_exe().expect("own path"))
        .args(["--exact", "child_exact_fault_fates", "--nocapture"])
        .env(EXACT_ROLE_ENV, "driver")
        .output()
        .expect("spawn exact-fates process");
    assert!(
        out.status.success(),
        "exact-fates child failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
