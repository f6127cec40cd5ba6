//! A dead client's objects leave the table (paper §3.5.1, Figure 3.3:
//! a handle is an id plus a tag checked against a server-side entry).
//!
//! Clients that each create a `Desktop` and disconnect must leave the
//! object table, and the `rpc.object_table_size` gauge, where they found
//! them; a handle kept from one of them is refused as stale. The test
//! must stay alone in this file: the gauge is process-global.

use clam_core::ServerConfig;
use clam_integration::{desktop_client, unique_unix, window_server};
use clam_rpc::{RpcError, StatusCode, Target};
use clam_xdr::Opaque;
use std::time::{Duration, Instant};

const CLIENTS: usize = 100;

/// Objects in `server`'s table and the process-wide gauge.
fn sizes(server: &clam_core::ClamServer) -> (usize, i64) {
    (
        server.rpc().objects().len(),
        clam_obs::snapshot().gauge("rpc.object_table_size"),
    )
}

#[test]
fn churned_clients_leave_no_objects_behind() {
    let server = window_server(unique_unix("object-churn"), ServerConfig::default());
    let before = sizes(&server);

    let mut kept = None;
    for _ in 0..CLIENTS {
        let (client, desktop) = desktop_client(&server);
        let Target::Object(handle) = desktop.target() else {
            panic!("a desktop is an object");
        };
        kept = Some(handle);
        drop(desktop);
        drop(client);
    }

    let deadline = Instant::now() + Duration::from_secs(1);
    while sizes(&server) != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        sizes(&server),
        before,
        "(table entries, rpc.object_table_size) 1 s after {CLIENTS} clients left"
    );

    // The last churned client's desktop, presented by a fresh client.
    let (fresh, _desktop) = desktop_client(&server);
    let handle = kept.expect("a churned desktop");
    let err = fresh
        .caller()
        .call(Target::Object(handle), 0, Opaque::new())
        .unwrap_err();
    assert!(
        matches!(
            err,
            RpcError::Status {
                code: StatusCode::StaleHandle,
                ..
            }
        ),
        "expected StaleHandle for a churned client's handle, got {err:?}"
    );
    server.shutdown();
}
