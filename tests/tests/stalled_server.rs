//! A server that stops reading its upcall replies stalls only the client
//! task that sends them: the client-side twin of `stalled_reader.rs`.
//!
//! A `ClamClient` runs on a scheduler passed in through
//! `ClientOptions::scheduler`, as a cluster node's peer links run on its
//! server scheduler. A raw peer completes the `Hello` handshake, sends
//! sync upcalls whose handler returns 1 KiB, and reads no reply. Once the
//! upcall socket is full, the client's upcall task waits for room outside
//! the baton, so another task of that scheduler still runs. When the peer
//! then reads, every upcall has been answered exactly once, in order.
//!
//! Like its twin it is alone in its file, so no other test of the binary
//! runs beside its 1 s bound.

use clam_core::{ClamClient, ClientOptions};
use clam_integration::unique_unix;
use clam_obs::TraceContext;
use clam_rpc::{Message, MessageView, StatusCode, UpcallMsg};
use clam_task::Scheduler;
use clam_xdr::Opaque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// 1 MiB of 1 KiB replies, far more than any socket buffer holds.
const UPCALLS: u64 = 1024;

#[test]
fn a_server_that_never_reads_upcall_replies_stalls_only_their_task() {
    let endpoint = unique_unix("stalled-server");
    let listener = clam_net::listen(&endpoint).expect("listen");
    let shared = Scheduler::new("shared");
    let client = ClamClient::connect_opts(
        &endpoint,
        ClientOptions {
            scheduler: Some(shared.clone()),
            ..ClientOptions::default()
        },
    )
    .expect("client connects");
    // The raw peer: accept both channels and read their `Hello`s.
    let mut rpc_ch = listener.accept().expect("rpc channel");
    rpc_ch.recv().expect("Hello{Rpc}");
    let mut up_ch = listener.accept().expect("upcall channel");
    up_ch.recv().expect("Hello{Upcall}");

    let handled = Arc::new(AtomicU64::new(0));
    let proc = {
        let handled = Arc::clone(&handled);
        client.register_upcall(move |_: u32| {
            handled.fetch_add(1, Ordering::SeqCst);
            Ok(Opaque::from(vec![0xB1; 1024]))
        })
    };
    let (mut up_writer, mut up_reader) = up_ch.split();
    let sender = std::thread::spawn(move || {
        for request_id in 1..=UPCALLS {
            let upcall = Message::Upcall(UpcallMsg {
                proc_id: proc.id,
                request_id,
                args: Opaque::from(clam_xdr::encode(&0u32).unwrap()),
                trace: TraceContext::NONE,
            });
            up_writer
                .send(upcall.to_frame().unwrap())
                .expect("the client reads every upcall once the peer reads");
        }
        up_writer
    });

    // The handler stops once the reply socket is full: wait until it has
    // answered nothing for 200 ms.
    let mut seen = handled.load(Ordering::SeqCst);
    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let now = handled.load(Ordering::SeqCst);
        if now == seen {
            break;
        }
        assert!(Instant::now() < give_up, "the handler never stopped");
        seen = now;
    }
    assert!(
        seen < UPCALLS,
        "all {UPCALLS} upcalls were answered to a peer that reads no reply"
    );

    // Another task of the client's scheduler still runs.
    let (ran, other) = mpsc::channel();
    shared.spawn("other", move || {
        let _ = ran.send(());
    });
    other
        .recv_timeout(Duration::from_secs(1))
        .expect("a server that reads no upcall reply stalled the client's scheduler");

    // The peer reads: every upcall is answered once, in order.
    for request_id in 1..=UPCALLS {
        let frame = up_reader.recv().expect("an upcall reply");
        let Ok(MessageView::UpcallReply(reply)) = MessageView::parse(&frame) else {
            panic!("expected an upcall reply");
        };
        assert_eq!(reply.request_id, request_id);
        assert_eq!(reply.status, StatusCode::Ok);
        assert_eq!(reply.results.len(), 4 + 1024, "1 KiB, bundled");
    }
    let up_writer = sender.join().expect("the peer sent every upcall");
    assert_eq!(handled.load(Ordering::SeqCst), UPCALLS);
    drop((up_writer, up_reader, rpc_ch));
    drop(client);
    shared.shutdown();
}
