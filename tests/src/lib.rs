//! Shared rig for the workspace integration tests: a CLAM server with the
//! window-system module installed, plus helpers to connect clients and
//! stand up desktops over any transport.

use clam_core::{ClamClient, ClamServer, ServerConfig};
use clam_load::{Loader, Version};
use clam_net::Endpoint;
use clam_rpc::Target;
use clam_windows::module::{windows_module, DesktopProxy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NAMES: AtomicU64 = AtomicU64::new(0);

/// A unique in-process endpoint per call (tests run in parallel).
#[must_use]
pub fn unique_inproc(tag: &str) -> Endpoint {
    let n = NAMES.fetch_add(1, Ordering::Relaxed);
    Endpoint::in_proc(format!("itest-{tag}-{n}-{}", std::process::id()))
}

/// A unique Unix-domain endpoint per call, in the temp directory.
#[must_use]
pub fn unique_unix(tag: &str) -> Endpoint {
    let n = NAMES.fetch_add(1, Ordering::Relaxed);
    Endpoint::unix(
        std::env::temp_dir().join(format!("clam-itest-{tag}-{n}-{}.sock", std::process::id())),
    )
}

/// Start a CLAM server with the windows module (v1.0) installed.
///
/// # Panics
///
/// Panics if the server fails to start (test context).
#[must_use]
pub fn window_server(endpoint: Endpoint, config: ServerConfig) -> Arc<ClamServer> {
    let server = ClamServer::builder()
        .config(config)
        .listen(endpoint)
        .build()
        .expect("server starts");
    server
        .loader()
        .install(windows_module(&server, Version::new(1, 0)))
        .expect("windows module installs");
    server
}

/// Connect a client and create a `Desktop` object for it.
///
/// # Panics
///
/// Panics on connection or load failure (test context).
#[must_use]
pub fn desktop_client(server: &Arc<ClamServer>) -> (Arc<ClamClient>, DesktopProxy) {
    let client = ClamClient::connect(&server.endpoints()[0]).expect("client connects");
    let proxy = desktop_for(&client);
    (client, proxy)
}

/// Create a (new) `Desktop` object over an existing client.
///
/// # Panics
///
/// Panics on load failure (test context).
#[must_use]
pub fn desktop_for(client: &Arc<ClamClient>) -> DesktopProxy {
    let loader = client.loader();
    let report = loader
        .load_module("windows".into(), Version::new(1, 0))
        .expect("load windows module");
    let class_id = report
        .classes
        .iter()
        .find(|c| c.class_name == "Desktop")
        .expect("Desktop class present")
        .class_id;
    let handle = loader
        .create_object(class_id, clam_xdr::Opaque::new())
        .expect("create desktop");
    DesktopProxy::new(Arc::clone(client.caller()), Target::Object(handle))
}
