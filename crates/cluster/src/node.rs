//! A cluster node: one CLAM server participating in the fabric.
//!
//! A [`ClusterNode`] wraps a [`ClamServer`] with the pieces that make
//! multiple servers act as one:
//!
//! * a **member map** (node id → endpoint), seeded by the directory
//!   join protocol and pushed to every member when it changes;
//! * **server-to-server links** ([`PeerLink`]): ordinary CLAM client
//!   connections whose tasks run on the node's *server* scheduler, so a
//!   forwarded call blocks its serving task cooperatively — the node
//!   keeps serving other traffic, and two nodes forwarding to each
//!   other at the same instant cannot deadlock;
//! * a **call forwarder** installed into the RPC layer: a call
//!   addressed to a handle homed on another node proxies over the link
//!   to its home (one hop, because the link targets the home node
//!   directly) instead of failing;
//! * the node's **partition** of the sharded namespace and its **topic
//!   table** for cross-node events.

use crate::directory::{
    Directory, DirectoryImpl, DirectoryProxy, DirectorySkeleton, Member, DIRECTORY_SERVICE_ID,
};
use crate::events::{
    ClusterEvents, ClusterEventsProxy, ClusterEventsSkeleton, EventArgs, EventsImpl, Sub,
    EVENTS_SERVICE_ID,
};
use crate::naming::ShardedNames;
use crate::ring::Ring;
use crate::shard::{ShardImpl, ShardSvc, ShardSvcProxy, ShardSvcSkeleton, SHARD_SERVICE_ID};
use crate::{
    obs_events_delivered, obs_events_relayed, obs_forward_hops, obs_links, obs_redirects,
    obs_shard_forwarded,
};
use clam_core::{
    ClamClient, ClamServer, ClientOptions, CoreError, CoreResult, NameServiceSkeleton,
    ServerConfig, UpcallTarget, NAME_SERVICE_ID,
};
use clam_net::{Connector, DirectConnector, Endpoint};
use clam_rpc::{
    CallContext, CallerConfig, Handle, ProcId, RpcError, RpcResult, StatusCode, Target,
};
use clam_xdr::Opaque;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Weak};

/// How to start a [`ClusterNode`].
pub struct ClusterConfig {
    /// This node's id. Nonzero; unique within the cluster.
    pub node_id: u64,
    /// Endpoint to listen on.
    pub listen: Endpoint,
    /// The seed node's endpoint; `None` makes this node the seed.
    pub seed: Option<Endpoint>,
    /// Server tuning. `server.caller` configures the node's
    /// server-to-server link callers (deadlines bound forwarded calls).
    pub server: ServerConfig,
    /// How the node opens outbound links (tests inject faults here).
    pub connector: Arc<dyn Connector>,
}

impl std::fmt::Debug for ClusterConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterConfig")
            .field("node_id", &self.node_id)
            .field("listen", &self.listen)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

impl ClusterConfig {
    /// A node with default server tuning and direct connections.
    #[must_use]
    pub fn new(node_id: u64, listen: Endpoint) -> ClusterConfig {
        ClusterConfig {
            node_id,
            listen,
            seed: None,
            server: ServerConfig::default(),
            connector: Arc::new(DirectConnector),
        }
    }

    /// Join the cluster through the seed at `endpoint`.
    #[must_use]
    pub fn seed(mut self, endpoint: Endpoint) -> ClusterConfig {
        self.seed = Some(endpoint);
        self
    }

    /// Replace the server tuning.
    #[must_use]
    pub fn server(mut self, server: ServerConfig) -> ClusterConfig {
        self.server = server;
        self
    }

    /// Replace the outbound connector.
    #[must_use]
    pub fn connector(mut self, connector: Arc<dyn Connector>) -> ClusterConfig {
        self.connector = connector;
        self
    }
}

/// An outbound server-to-server connection.
///
/// Structurally a [`ClamClient`], but its tasks (caller waits, the
/// upcall handler that runs event relays) live on the owning node's
/// server scheduler.
pub(crate) struct PeerLink {
    node: u64,
    client: Arc<ClamClient>,
    /// The relay procedure registered on this link's [`ClamClient`]
    /// for cross-node events (one per link, shared by all topics).
    relay_proc: Mutex<Option<ProcId>>,
}

impl PeerLink {
    fn caller(&self) -> &Arc<clam_rpc::Caller> {
        self.client.caller()
    }
}

impl std::fmt::Debug for PeerLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerLink")
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

/// Shared state behind a [`ClusterNode`].
pub(crate) struct NodeInner {
    id: u64,
    endpoint: Endpoint,
    server: Arc<ClamServer>,
    connector: Arc<dyn Connector>,
    caller_cfg: CallerConfig,
    /// node id → endpoint display string; always includes self.
    members: Mutex<BTreeMap<u64, String>>,
    /// Open outbound links by node id.
    links: Mutex<HashMap<u64, Arc<PeerLink>>>,
    /// Link to the seed, for membership refresh. `None` on the seed.
    seed_link: Mutex<Option<Arc<PeerLink>>>,
    /// This node's partition of the sharded namespace.
    partition: Mutex<HashMap<String, Handle>>,
    /// topic → subscriptions (local and relay).
    topics: Mutex<HashMap<String, Vec<Sub>>>,
    next_sub: Mutex<u64>,
    /// `(peer, topic)` relay registrations already in place.
    relayed: Mutex<HashSet<(u64, String)>>,
}

impl NodeInner {
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    pub(crate) fn server(&self) -> &Arc<ClamServer> {
        &self.server
    }

    // ---- membership ----

    pub(crate) fn members(&self) -> Vec<Member> {
        self.members
            .lock()
            .iter()
            .map(|(&id, ep)| Member {
                id,
                endpoint: ep.clone(),
            })
            .collect()
    }

    pub(crate) fn endpoint_of(&self, node: u64) -> Option<String> {
        self.members.lock().get(&node).cloned()
    }

    fn ring(&self) -> Ring {
        let ids: Vec<u64> = self.members.lock().keys().copied().collect();
        Ring::new(&ids)
    }

    fn owner_of(&self, name: &str) -> u64 {
        // The ring always contains at least this node.
        self.ring().owner(name).unwrap_or(self.id)
    }

    /// Seed-side join: record the member and push the updated list to
    /// every *other* member (the joiner got it as the return value).
    pub(crate) fn admit(self: &Arc<Self>, member: Member) {
        let joined = member.id;
        self.members
            .lock()
            .insert(member.id, member.endpoint.clone());
        let roster = self.members();
        let peers: Vec<u64> = self
            .members
            .lock()
            .keys()
            .copied()
            .filter(|&id| id != self.id && id != joined)
            .collect();
        for peer in peers {
            // Best effort: a member that cannot be reached right now
            // will refresh from the seed on its next routing miss.
            if let Ok(link) = self.link_to(peer) {
                let dir = DirectoryProxy::new(
                    Arc::clone(link.caller()),
                    Target::Builtin(DIRECTORY_SERVICE_ID),
                );
                let _ = dir.adopt(roster.clone());
            }
        }
        self.propagate_relays();
    }

    /// Merge a pushed or fetched member list, then make sure any new
    /// members carry our event relays.
    pub(crate) fn adopt_members(self: &Arc<Self>, list: &[Member]) {
        {
            let mut members = self.members.lock();
            for m in list {
                members.insert(m.id, m.endpoint.clone());
            }
        }
        self.propagate_relays();
    }

    /// Re-fetch the member list from the seed (routing-miss recovery).
    fn refresh_members(self: &Arc<Self>) -> RpcResult<()> {
        let link = self.seed_link.lock().clone();
        let Some(link) = link else {
            return Ok(()); // we are the seed: our view is the truth
        };
        let dir = DirectoryProxy::new(
            Arc::clone(link.caller()),
            Target::Builtin(DIRECTORY_SERVICE_ID),
        );
        let list = dir.members()?;
        self.adopt_members(&list);
        Ok(())
    }

    // ---- links ----

    /// The open link to `node`, opening one if needed. Refreshes
    /// membership from the seed when the node id is unknown.
    fn link_to(self: &Arc<Self>, node: u64) -> RpcResult<Arc<PeerLink>> {
        debug_assert_ne!(node, self.id, "no link to self");
        if let Some(link) = self.links.lock().get(&node) {
            return Ok(Arc::clone(link));
        }
        let endpoint = match self.endpoint_of(node) {
            Some(ep) => ep,
            None => {
                self.refresh_members()?;
                self.endpoint_of(node).ok_or_else(|| {
                    RpcError::status(StatusCode::NoSuchObject, format!("unknown node {node}"))
                })?
            }
        };
        let endpoint = Endpoint::parse(&endpoint).ok_or_else(|| {
            RpcError::status(
                StatusCode::AppError,
                format!("node {node} has unparseable endpoint {endpoint:?}"),
            )
        })?;
        let client = ClamClient::connect_opts(
            &endpoint,
            ClientOptions {
                caller: self.caller_cfg,
                // The server scheduler: link waits must block their
                // task, not an OS thread — see the module docs.
                scheduler: Some(self.server.scheduler().clone()),
                connector: Arc::clone(&self.connector),
            },
        )?;
        let link = Arc::new(PeerLink {
            node,
            client,
            relay_proc: Mutex::new(None),
        });
        let link = {
            let mut links = self.links.lock();
            // Two tasks may have raced to open; keep the first, let the
            // loser's channels close on drop.
            let entry = links.entry(node).or_insert_with(|| Arc::clone(&link));
            let link = Arc::clone(entry);
            obs_links().set(links.len() as i64);
            link
        };
        // A fresh link must carry our event relays before anything is
        // posted through it.
        self.propagate_relays();
        Ok(link)
    }

    fn evict_link(&self, node: u64) {
        let mut links = self.links.lock();
        links.remove(&node);
        obs_links().set(links.len() as i64);
        drop(links);
        let mut relayed = self.relayed.lock();
        relayed.retain(|(peer, _)| *peer != node);
    }

    /// How many outbound links are open (diagnostics and tests).
    pub(crate) fn links_open(&self) -> usize {
        self.links.lock().len()
    }

    // ---- call forwarding ----

    /// The [`clam_rpc::CallForwarder`] body: proxy a call for a handle
    /// homed elsewhere over the link to its home node.
    fn forward_call(self: &Arc<Self>, ctx: &CallContext, handle: Handle) -> RpcResult<Opaque> {
        let link = match self.link_to(handle.home) {
            Ok(link) => link,
            Err(_) => {
                // Can't reach the home node: tell the client where the
                // object lives so it can connect there itself.
                obs_redirects().inc();
                return Err(RpcError::wrong_node(handle.home));
            }
        };
        obs_forward_hops().inc();
        let result = if ctx.request_id == 0 {
            // Batched async call: forward without waiting for a reply.
            link.caller()
                .call_async(Target::Object(handle), ctx.method, Opaque::from(ctx.args))
                .map(|()| Opaque::new())
        } else {
            link.caller()
                .call(Target::Object(handle), ctx.method, Opaque::from(ctx.args))
        };
        if let Err(RpcError::Net(_) | RpcError::Disconnected | RpcError::DeadlineExceeded) = &result
        {
            // The link is dead or wedged; drop it so the next forward
            // reconnects instead of queueing behind a black hole.
            self.evict_link(handle.home);
        }
        result
    }

    // ---- the sharded namespace ----

    pub(crate) fn partition_insert(&self, name: String, handle: Handle) {
        self.partition.lock().insert(name, handle);
    }

    pub(crate) fn partition_get(&self, name: &str) -> Option<Handle> {
        self.partition.lock().get(name).copied()
    }

    pub(crate) fn partition_remove(&self, name: &str) -> bool {
        self.partition.lock().remove(name).is_some()
    }

    pub(crate) fn partition_list(&self, prefix: &str) -> Vec<String> {
        let mut names: Vec<String> = self
            .partition
            .lock()
            .keys()
            .filter(|n| n.starts_with(prefix))
            .cloned()
            .collect();
        names.sort();
        names
    }

    fn shard_proxy(self: &Arc<Self>, node: u64) -> RpcResult<ShardSvcProxy> {
        let link = self.link_to(node)?;
        Ok(ShardSvcProxy::new(
            Arc::clone(link.caller()),
            Target::Builtin(SHARD_SERVICE_ID),
        ))
    }

    /// Bind by ring placement: validate and home-stamp locally-minted
    /// handles, then store in the owner's partition (one hop at most).
    pub(crate) fn route_bind(self: &Arc<Self>, name: String, mut handle: Handle) -> RpcResult<()> {
        if name.is_empty() {
            return Err(RpcError::status(StatusCode::BadArgs, "empty name"));
        }
        if handle.is_local_to(self.id) {
            // Only live local capabilities may be published; a handle
            // homed elsewhere was validated by its own node when it was
            // bound or passed out there.
            self.server.rpc().objects().lookup(handle)?;
            // Stamp the home so the binding routes once it travels.
            handle.home = self.id;
        }
        let owner = self.owner_of(&name);
        if owner == self.id {
            self.partition_insert(name, handle);
            Ok(())
        } else {
            obs_shard_forwarded().inc();
            self.shard_proxy(owner)?.bind_at(name, handle, 1)
        }
    }

    pub(crate) fn route_lookup(self: &Arc<Self>, name: &str) -> RpcResult<Handle> {
        let owner = self.owner_of(name);
        if owner == self.id {
            self.partition_get(name).ok_or_else(|| {
                RpcError::status(StatusCode::NoSuchObject, format!("no binding {name:?}"))
            })
        } else {
            obs_shard_forwarded().inc();
            self.shard_proxy(owner)?.lookup_at(name.to_string(), 1)
        }
    }

    pub(crate) fn route_unbind(self: &Arc<Self>, name: &str) -> RpcResult<bool> {
        let owner = self.owner_of(name);
        if owner == self.id {
            Ok(self.partition_remove(name))
        } else {
            obs_shard_forwarded().inc();
            self.shard_proxy(owner)?.unbind_at(name.to_string(), 1)
        }
    }

    /// Names across the whole cluster: this node's partition merged
    /// with every reachable member's. An unreachable member's names are
    /// skipped — enumeration is diagnostic, not transactional.
    pub(crate) fn route_list(self: &Arc<Self>, prefix: &str) -> RpcResult<Vec<String>> {
        let mut names = self.partition_list(prefix);
        let peers: Vec<u64> = self
            .members
            .lock()
            .keys()
            .copied()
            .filter(|&id| id != self.id)
            .collect();
        for peer in peers {
            if let Ok(proxy) = self.shard_proxy(peer) {
                if let Ok(theirs) = proxy.list_local(prefix.to_string()) {
                    names.extend(theirs);
                }
            }
        }
        names.sort();
        names.dedup();
        Ok(names)
    }

    // ---- cluster events ----

    pub(crate) fn subscribe_local(
        self: &Arc<Self>,
        topic: String,
        target: UpcallTarget<EventArgs, u32>,
        relay: bool,
    ) -> RpcResult<u64> {
        let id = {
            let mut next = self.next_sub.lock();
            let id = *next;
            *next += 1;
            id
        };
        self.topics
            .lock()
            .entry(topic.clone())
            .or_default()
            .push(Sub { id, relay, target });
        if !relay {
            // First (or any) local subscriber: make sure every peer
            // relays this topic to us.
            self.propagate_relays();
        }
        Ok(id)
    }

    pub(crate) fn unsubscribe_local(&self, topic: &str, sub: u64) -> bool {
        let mut topics = self.topics.lock();
        let Some(subs) = topics.get_mut(topic) else {
            return false;
        };
        let before = subs.len();
        subs.retain(|s| s.id != sub);
        subs.len() != before
    }

    /// Deliver to everyone: local subscribers here, plus one relay hop
    /// per subscribed peer. Returns the cluster-wide delivery count.
    pub(crate) fn post_event(&self, topic: &str, payload: &str) -> RpcResult<u32> {
        let targets: Vec<(u64, bool, UpcallTarget<EventArgs, u32>)> = self
            .topics
            .lock()
            .get(topic)
            .map(|subs| {
                subs.iter()
                    .map(|s| (s.id, s.relay, s.target.clone()))
                    .collect()
            })
            .unwrap_or_default();
        let mut delivered = 0u32;
        let mut dead = Vec::new();
        for (id, relay, target) in targets {
            match target.invoke((topic.to_string(), payload.to_string())) {
                Ok(count) if relay => {
                    obs_events_relayed().inc();
                    delivered = delivered.saturating_add(count);
                }
                Ok(_) => {
                    obs_events_delivered().inc();
                    delivered = delivered.saturating_add(1);
                }
                Err(RpcError::Net(_) | RpcError::Disconnected) => dead.push(id),
                Err(_) => {} // a failing handler misses this event only
            }
        }
        if !dead.is_empty() {
            let mut topics = self.topics.lock();
            if let Some(subs) = topics.get_mut(topic) {
                subs.retain(|s| !dead.contains(&s.id));
            }
        }
        Ok(delivered)
    }

    /// Relay arrival point: deliver to local subscribers only. Relays
    /// never chain, which keeps the cluster-wide fan-out loop-free.
    pub(crate) fn post_local(&self, topic: &str, payload: &str) -> RpcResult<u32> {
        let targets: Vec<UpcallTarget<EventArgs, u32>> = self
            .topics
            .lock()
            .get(topic)
            .map(|subs| {
                subs.iter()
                    .filter(|s| !s.relay)
                    .map(|s| s.target.clone())
                    .collect()
            })
            .unwrap_or_default();
        let mut delivered = 0u32;
        for target in targets {
            if target
                .invoke((topic.to_string(), payload.to_string()))
                .is_ok()
            {
                obs_events_delivered().inc();
                delivered += 1;
            }
        }
        Ok(delivered)
    }

    /// Make sure every peer relays every topic we have local
    /// subscribers for. Idempotent; called after subscriptions and
    /// membership changes. Best effort: an unreachable peer is retried
    /// on the next change.
    fn propagate_relays(self: &Arc<Self>) {
        let topics: Vec<String> = self
            .topics
            .lock()
            .iter()
            .filter(|(_, subs)| subs.iter().any(|s| !s.relay))
            .map(|(t, _)| t.clone())
            .collect();
        if topics.is_empty() {
            return;
        }
        let peers: Vec<u64> = self
            .members
            .lock()
            .keys()
            .copied()
            .filter(|&id| id != self.id)
            .collect();
        for peer in peers {
            for topic in &topics {
                if self.relayed.lock().contains(&(peer, topic.clone())) {
                    continue;
                }
                if self.relay_topic_to(peer, topic).is_ok() {
                    self.relayed.lock().insert((peer, topic.clone()));
                }
            }
        }
    }

    /// Ask `peer` to relay `topic` events to this node.
    fn relay_topic_to(self: &Arc<Self>, peer: u64, topic: &str) -> RpcResult<()> {
        let link = self.link_to(peer)?;
        let proc = {
            let mut slot = link.relay_proc.lock();
            match *slot {
                Some(proc) => proc,
                None => {
                    let weak = Arc::downgrade(self);
                    let proc = link.client.register_upcall(
                        move |(topic, payload): EventArgs| -> RpcResult<u32> {
                            let inner = weak.upgrade().ok_or_else(|| {
                                RpcError::status(StatusCode::AppError, "node is gone")
                            })?;
                            inner.post_local(&topic, &payload)
                        },
                    );
                    *slot = Some(proc);
                    proc
                }
            }
        };
        let events = ClusterEventsProxy::new(
            Arc::clone(link.caller()),
            Target::Builtin(EVENTS_SERVICE_ID),
        );
        events.subscribe_relay(topic.to_string(), proc)?;
        Ok(())
    }
}

impl std::fmt::Debug for NodeInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeInner")
            .field("id", &self.id)
            .field("endpoint", &self.endpoint)
            .field("members", &self.members.lock().len())
            .field("links", &self.links.lock().len())
            .finish_non_exhaustive()
    }
}

/// A running cluster node.
pub struct ClusterNode {
    inner: Arc<NodeInner>,
}

impl std::fmt::Debug for ClusterNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl ClusterNode {
    /// Start a node: listen, install cluster services, and (unless this
    /// node is the seed) join through the configured seed.
    ///
    /// # Errors
    ///
    /// Server start failures ([`CoreError`]) and, for joining nodes,
    /// transport errors reaching the seed.
    pub fn start(config: ClusterConfig) -> CoreResult<ClusterNode> {
        if config.node_id == 0 {
            return Err(CoreError::Rpc(RpcError::status(
                StatusCode::BadArgs,
                "node id 0 is reserved for \"this server\"",
            )));
        }
        let server = ClamServer::builder()
            .config(config.server)
            .listen(config.listen.clone())
            .build()?;
        server.rpc().set_local_node(config.node_id);

        let inner = Arc::new_cyclic(|weak: &Weak<NodeInner>| {
            let mut members = BTreeMap::new();
            members.insert(config.node_id, config.listen.to_string());
            // Install the cluster services. The sharded name service
            // *replaces* the single-server one under the same id, so
            // existing clients see the cluster namespace through the
            // unchanged NameService interface.
            server.rpc().register_service(
                DIRECTORY_SERVICE_ID,
                Arc::new(DirectorySkeleton::new(Arc::new(DirectoryImpl::new(
                    weak.clone(),
                )))),
            );
            server.rpc().register_service(
                SHARD_SERVICE_ID,
                Arc::new(ShardSvcSkeleton::new(Arc::new(ShardImpl::new(
                    weak.clone(),
                )))),
            );
            server.rpc().register_service(
                EVENTS_SERVICE_ID,
                Arc::new(ClusterEventsSkeleton::new(Arc::new(EventsImpl::new(
                    weak.clone(),
                )))),
            );
            server.rpc().register_service(
                NAME_SERVICE_ID,
                Arc::new(NameServiceSkeleton::new(Arc::new(ShardedNames::new(
                    weak.clone(),
                )))),
            );
            let forward = weak.clone();
            server
                .rpc()
                .set_forwarder(Arc::new(move |ctx, handle, results| {
                    let inner = forward
                        .upgrade()
                        .ok_or_else(|| RpcError::status(StatusCode::AppError, "node is gone"))?;
                    results.extend_from_slice(inner.forward_call(ctx, handle)?.as_slice());
                    Ok(())
                }));
            NodeInner {
                id: config.node_id,
                endpoint: config.listen.clone(),
                server: Arc::clone(&server),
                connector: Arc::clone(&config.connector),
                caller_cfg: config.server.caller,
                members: Mutex::new(members),
                links: Mutex::new(HashMap::new()),
                seed_link: Mutex::new(None),
                partition: Mutex::new(HashMap::new()),
                topics: Mutex::new(HashMap::new()),
                next_sub: Mutex::new(1),
                relayed: Mutex::new(HashSet::new()),
            }
        });

        if let Some(seed_ep) = config.seed {
            let client = ClamClient::connect_opts(
                &seed_ep,
                ClientOptions {
                    caller: config.server.caller,
                    scheduler: Some(inner.server.scheduler().clone()),
                    connector: Arc::clone(&inner.connector),
                },
            )?;
            let dir = DirectoryProxy::new(
                Arc::clone(client.caller()),
                Target::Builtin(DIRECTORY_SERVICE_ID),
            );
            let seed_id = dir.node_id().map_err(CoreError::Rpc)?;
            let roster = dir
                .join(Member {
                    id: inner.id,
                    endpoint: inner.endpoint.to_string(),
                })
                .map_err(CoreError::Rpc)?;
            let link = Arc::new(PeerLink {
                node: seed_id,
                client,
                relay_proc: Mutex::new(None),
            });
            {
                let mut links = inner.links.lock();
                links.insert(seed_id, Arc::clone(&link));
                obs_links().set(links.len() as i64);
            }
            *inner.seed_link.lock() = Some(link);
            inner.adopt_members(&roster);
        }

        Ok(ClusterNode { inner })
    }

    /// This node's id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The endpoint this node listens on.
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        &self.inner.endpoint
    }

    /// The wrapped CLAM server.
    #[must_use]
    pub fn server(&self) -> &Arc<ClamServer> {
        self.inner.server()
    }

    /// Current member list (id-sorted, includes this node).
    #[must_use]
    pub fn members(&self) -> Vec<Member> {
        self.inner.members()
    }

    /// Open outbound links (diagnostics and tests).
    #[must_use]
    pub fn links_open(&self) -> usize {
        self.inner.links_open()
    }

    /// Publish a handle under `name` in the cluster namespace
    /// (server-side self-publish; clients use the NameService).
    ///
    /// # Errors
    ///
    /// Validation errors for dead local handles; transport errors
    /// reaching the name's owner node.
    pub fn bind(&self, name: &str, handle: Handle) -> RpcResult<()> {
        self.inner.route_bind(name.to_string(), handle)
    }

    /// Look up a name in the cluster namespace.
    ///
    /// # Errors
    ///
    /// [`StatusCode::NoSuchObject`] for unknown names; transport errors
    /// reaching the owner node.
    pub fn lookup(&self, name: &str) -> RpcResult<Handle> {
        self.inner.route_lookup(name)
    }

    /// Remove a name from the cluster namespace.
    ///
    /// # Errors
    ///
    /// Transport errors reaching the owner node.
    pub fn unbind(&self, name: &str) -> RpcResult<bool> {
        self.inner.route_unbind(name)
    }

    /// All names in the cluster namespace with `prefix`, merged across
    /// reachable members.
    ///
    /// # Errors
    ///
    /// None today; reserved for future strict enumeration.
    pub fn list(&self, prefix: &str) -> RpcResult<Vec<String>> {
        self.inner.route_list(prefix)
    }

    /// Post a cluster event from server-side code (the paper's lower
    /// layer generating an event). Returns the cluster-wide delivery
    /// count.
    ///
    /// # Errors
    ///
    /// None for missing subscribers (that returns `Ok(0)`); errors are
    /// reserved for future strict delivery.
    pub fn post(&self, topic: &str, payload: &str) -> RpcResult<u32> {
        self.inner.post_event(topic, payload)
    }

    /// Subscribe an in-process (server-side) handler to a topic.
    pub fn subscribe_fn<F>(&self, topic: &str, f: F) -> u64
    where
        F: Fn(String, String) -> RpcResult<u32> + Send + Sync + 'static,
    {
        let target = UpcallTarget::local(move |(topic, payload): EventArgs| f(topic, payload));
        self.inner
            .subscribe_local(topic.to_string(), target, false)
            .expect("local subscribe cannot fail")
    }

    /// Shut the node's server down.
    pub fn shutdown(&self) {
        self.inner.server.shutdown();
    }
}
