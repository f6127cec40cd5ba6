//! The CLAM remote procedure call runtime.
//!
//! This crate reproduces section 3 of the paper: an RPC facility whose
//! goal is "to minimize the distinction between local and remote
//! procedure calls", with stubs and bundlers derived from declarations
//! rather than a separate specification language.
//!
//! * [`remote_interface!`] — the stub generator. From one interface
//!   declaration it derives the Rust trait, the client proxy (bundling
//!   stubs), and the server skeleton (unbundling stubs), the same three
//!   artifacts the paper's modified C++ compiler emits.
//! * [`Caller`] — the client runtime: synchronous calls with
//!   request/reply matching, and *batched* asynchronous calls — "when no
//!   return values are needed, the remote call can be delayed, and put in
//!   a batch with other calls" (section 3.4). A sync call or an explicit
//!   [`Caller::flush`] pushes the batch out; the transports deliver in
//!   order, so batched calls arrive in the correct order.
//! * [`RpcServer`] — the dispatch side: builtin services plus an
//!   [`ObjectTable`] of dynamically created objects addressed by
//!   [`Handle`]s. A handle is the paper's capability: object identifier
//!   plus validity *tag*, checked on every use (section 3.5.1,
//!   Figure 3.3). Served code reads its arguments in the request frame
//!   and bundles its results into the reply frame (section 3.3).
//! * [`MessageView`] — the wire messages read in place: a frame is
//!   checked once, then its calls, reply or upcall are views that borrow
//!   from it. The matching writers ([`BatchEncoder::push_view`],
//!   [`Message::to_frame_in`]) put a message straight into a pooled frame
//!   buffer, and [`Message::reply_frame_in`] is the one way a served
//!   call or upcall is answered: the served code bundles its results
//!   behind the reply's header in place. These are the one codec of the
//!   wire: [`Message`], [`Call`], [`Reply`] and [`UpcallMsg`] are plain
//!   structs with no bundler of their own.
//! * [`ParamMode`] — the `const`/`out`/`inout` parameter modes that let
//!   stubs bundle each parameter in only the directions it travels.
//!
//! Upcall *registration* also flows through this crate (procedure values
//! travel as [`ProcId`]s); the distributed-upcall machinery itself — the
//! RUC class — lives in `clam-core`, layered on these primitives.

#[macro_use]
mod stub;

mod caller;
mod error;
mod handle;
mod message;
mod param;
mod pending;
mod server;

pub use caller::{in_nested_context, nested_call_scope, CallOptions, Caller, CallerConfig};
pub use error::{RpcError, RpcResult, StatusCode};
pub use handle::{Handle, ObjectEntry, ObjectTable, ProcId};
pub use message::{
    BatchEncoder, Call, CallBatchView, CallView, Message, MessageView, Reply, ReplyKind, ReplyView,
    Target, UpcallMsg, UpcallView, WIRE_VERSION,
};
pub use param::{Leg, ParamMode};
pub use pending::PendingReplies;
pub use server::{
    current_conn, CallContext, CallForwarder, ClassDispatch, ConnId, DedupWindow, RpcServer,
    Service, TaskWriter, SYNC_SERVICE_ID,
};

// Re-exported for the code generated by `remote_interface!`.
#[doc(hidden)]
pub mod __macro_support {
    pub use clam_xdr::{bundle_onto, decode, encode, Opaque};
}

#[cfg(test)]
#[path = "../../task/tests/support/explore.rs"]
mod explore;
