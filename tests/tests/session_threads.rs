//! A session costs one task at rest: the task that reads its RPC channel
//! serves what it reads, and no thread reads for it.
//!
//! The test counts the tasks and threads of this whole process, so it
//! must stay alone in this file.

use clam_core::{ClamClient, ClamServer, SessionCtl};
use clam_integration::unique_unix;
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;

/// Names of this process's threads, as the kernel keeps them (the first
/// 15 bytes).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|n| n.trim_end().to_string())
        .collect()
}

#[test]
fn a_session_is_one_task_at_rest() {
    let server = ClamServer::builder()
        .listen(unique_unix("session-threads"))
        .build()
        .expect("server starts");
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| ClamClient::connect(&server.endpoints()[0]).expect("client connects"))
        .collect();
    for client in &clients {
        client.session().ping().expect("ping");
    }
    assert_eq!(server.scheduler().live_tasks(), CLIENTS);
    let names = thread_names();
    assert!(
        !names.iter().any(|n| n.starts_with("clam-rpc-pump")),
        "a session runs a reader thread: {names:?}"
    );

    drop(clients);
    let deadline = Instant::now() + Duration::from_secs(1);
    while server.scheduler().live_tasks() > 0 {
        assert!(
            Instant::now() < deadline,
            "{} session tasks outlive their clients",
            server.scheduler().live_tasks()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    server.shutdown();
}
