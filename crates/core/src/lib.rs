//! Distributed upcalls — the CLAM paper's primary contribution.
//!
//! Remote procedure calls give layers a way to call *down* through
//! abstractions across address spaces; **distributed upcalls** give the
//! lower layers a way to call *up* — "a mechanism for propagating upcalls
//! across address space boundaries" (section 1). This crate implements
//! that mechanism and the server/client runtimes it lives in:
//!
//! * [`UpcallTarget`] — a registered upward procedure. The lower layer
//!   cannot tell a local registrant from a remote one (section 4.1):
//!   `UpcallTarget::local` wraps a closure invoked directly (the paper
//!   measures local upcalls at procedure-call cost), while a remote one
//!   is the **RUC object** of section 3.5.2: the server turns a client's
//!   [`ProcId`](clam_rpc::ProcId) into an `UpcallTarget`
//!   ([`ClamServer::upcall_target`]) that holds the client's procedure
//!   identifier and IPC connection (its [`UpcallRouter`]), with its
//!   argument and result types as the upcall stub, and turns an
//!   invocation into a message on the upcall channel, bundling the
//!   arguments straight into the frame. A *synchronous* upcall blocks
//!   the calling server **task** while the client task runs (section
//!   4.3); an *asynchronous* one returns immediately.
//! * [`ClamServer`] — the server runtime: per client **two channels**
//!   (RPC requests and upcalls, section 4.4), a main RPC task per client,
//!   the one-active-upcall-per-client limit (relaxable via
//!   [`ServerConfig::max_concurrent_upcalls`], the paper's "may be
//!   relaxed in future designs"), dynamic loading, and error-reporting
//!   upcalls from fresh tasks when loaded code faults (section 4.3).
//! * [`ClamClient`] — the client runtime: the application side plus the
//!   dedicated upcall-handler task ("the second task handles all
//!   upcalls", section 4.4) and the procedure registry that stands in for
//!   bundled procedure pointers.
//!
//! # Quick start
//!
//! ```rust,no_run
//! use clam_core::{ClamClient, ClamServer, ServerConfig};
//! use clam_net::Endpoint;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = ClamServer::builder()
//!     .config(ServerConfig::default())
//!     .listen(Endpoint::in_proc("quick"))
//!     .build()?;
//!
//! let client = ClamClient::connect(&Endpoint::in_proc("quick"))?;
//! let proc_id = client.register_upcall(|event: u32| {
//!     println!("upcalled with {event}");
//!     Ok(0u32)
//! });
//! // …pass proc_id to a server interface that accepts registrations…
//! # let _ = (server, proc_id);
//! # Ok(())
//! # }
//! ```

mod client;
mod config;
mod error;
mod naming;
mod ruc;
mod server;
mod session;
mod upcall;
mod wire;

pub use client::{ClamClient, ClientOptions, ProcRegistry};
pub use config::ServerConfig;
pub use error::{CoreError, CoreResult};
pub use naming::{
    NameService, NameServiceImpl, NameServiceProxy, NameServiceSkeleton, NAME_SERVICE_ID,
};
pub use ruc::UpcallRouter;
pub use server::{ClamServer, ClamServerBuilder};
pub use session::{ErrorReport, SessionCtl, SessionCtlProxy, SESSION_SERVICE_ID};
pub use upcall::{UpcallRegistry, UpcallTarget};

// The loader service rides in every CLAM server; re-export the pieces
// clients need to drive it.
pub use clam_load::{LoaderProxy, LOADER_SERVICE_ID};

#[cfg(test)]
#[path = "../../task/tests/support/explore.rs"]
mod explore;
