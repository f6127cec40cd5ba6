//! `clam-cluster` — a sharded multi-server fabric for CLAM.
//!
//! The paper runs one server per machine and stops there; this crate
//! generalizes the runtime to a *cluster* of CLAM servers that acts
//! like one big server, while keeping every wire-visible abstraction —
//! handles, the name service, distributed upcalls — unchanged:
//!
//! * **Placement**: names shard across nodes by a [consistent-hash
//!   ring](ring::Ring) every node derives from the same membership
//!   list; the [`Directory`] protocol (seed rendezvous + pushed member
//!   lists) keeps those lists converged.
//! * **Handle forwarding**: a [`Handle`](clam_rpc::Handle) carries its
//!   home node. A server receiving a call for an object homed
//!   elsewhere proxies it over a server-to-server link — one hop,
//!   counted in `cluster.forward_hops` — so a client talking to the
//!   "wrong" node still gets its answer.
//! * **Placement caching**: a [`ClusterClient`] caches lookups and
//!   opens direct connections as it learns where objects live, so
//!   forwarding is a first-call cost, not a steady state. Stale
//!   handles and `WrongNode` redirects invalidate and re-resolve.
//! * **Cross-node distributed upcalls**: an upcall registered by a
//!   client of node A fires even when the event posts on node B — the
//!   [`ClusterEvents`] service composes two distributed upcalls (B to
//!   A's relay, A to its client) and the trace context rides both
//!   hops, journaling one stitched tree.
//!
//! # Metrics
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `cluster.forward_hops` | counter | calls proxied between servers |
//! | `cluster.placement_cache.hit` | counter | lookups served from a client's cache |
//! | `cluster.placement_cache.miss` | counter | lookups that hit the wire |
//! | `cluster.redirects` | counter | `WrongNode` redirects taken |
//! | `cluster.links` | gauge | open server-to-server links (per process) |
//! | `cluster.shard.forwarded` | counter | name-service ops relayed to their owner |
//! | `cluster.events.relayed` | counter | events crossing a node boundary |
//! | `cluster.events.delivered` | counter | local event deliveries |

mod client;
pub mod demo;
mod directory;
mod events;
mod naming;
mod node;
pub mod ring;
mod shard;

pub use client::ClusterClient;
pub use directory::{
    Directory, DirectoryImpl, DirectoryProxy, DirectorySkeleton, Member, DIRECTORY_SERVICE_ID,
};
pub use events::{
    ClusterEvents, ClusterEventsProxy, ClusterEventsSkeleton, EventsImpl, EVENTS_SERVICE_ID,
};
pub use naming::ShardedNames;
pub use node::{ClusterConfig, ClusterNode};
pub use shard::{ShardImpl, ShardSvc, ShardSvcProxy, ShardSvcSkeleton, SHARD_SERVICE_ID};

clam_obs::handles! {
    pub(crate) fn obs_forward_hops() -> Counter = counter("cluster.forward_hops");
    pub(crate) fn obs_placement_hit() -> Counter = counter("cluster.placement_cache.hit");
    pub(crate) fn obs_placement_miss() -> Counter = counter("cluster.placement_cache.miss");
    pub(crate) fn obs_redirects() -> Counter = counter("cluster.redirects");
    pub(crate) fn obs_links() -> Gauge = gauge("cluster.links");
    pub(crate) fn obs_shard_forwarded() -> Counter = counter("cluster.shard.forwarded");
    pub(crate) fn obs_events_relayed() -> Counter = counter("cluster.events.relayed");
    pub(crate) fn obs_events_delivered() -> Counter = counter("cluster.events.delivered");
}
