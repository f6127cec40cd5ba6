//! Observability for the CLAM stack.
//!
//! The paper's central mechanism — a distributed upcall, where a server
//! task blocks while a client task runs in another address space
//! (section 4) — is exactly the control flow that is invisible to
//! per-process tooling. This crate makes it visible, with three pieces
//! that every other `clam-*` crate threads through its hot paths:
//!
//! 1. **Causal traces** ([`trace`]): a 16-byte [`TraceId`] plus an
//!    8-byte [`SpanId`] assigned at call origin and carried in the RPC
//!    message header, preserved across `RemoteUpcall`, so a
//!    client → server call that upcalls back into the client stitches
//!    into one tree spanning both address spaces. Its one SplitMix64
//!    ([`splitmix64`]) also mints handle tags and connection nonces
//!    ([`unique_id`]) and drives seeded fault plans.
//! 2. **Metrics** ([`metrics`]): a process-global registry of atomic
//!    counters, gauges, and fixed-bucket log2 histograms. Registration
//!    may allocate; *recording never does* — an increment is one atomic
//!    RMW, which is what lets the instrumented wire path keep its
//!    zero-allocation steady state; an owner's own ([`counters!`]) too.
//! 3. **Event journal** ([`mod@journal`]): a bounded, preallocated ring of
//!    fixed-size span events (call start/end, upcall enter/exit, fault
//!    injected, deadline fired) per recording thread, merged in time
//!    order on read, with a JSON-lines dump for offline stitching.
//!
//! The crate sits at the very bottom of the dependency graph and uses
//! only `std`, so every layer — including `clam-xdr` — can depend on it
//! without cycles.

pub mod journal;
pub mod metrics;
pub mod trace;

pub use journal::{journal, Event, EventKind, Journal};
pub use metrics::{
    counter, gauge, histogram, registry, snapshot, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricValue, MetricsSnapshot, Registry,
};
pub use trace::{current, enter, splitmix64, unique_id, SpanId, TraceContext, TraceId, TraceScope};
