//! Handles and the server object table (paper section 3.5.1, Figure 3.3).
//!
//! "Remote operations on objects are achieved by converting a pointer to
//! an object into a *handle* when passing it to a client. A handle is a
//! capability for an object. The handle contains an object identifier and
//! a *tag*, an arbitrary bit pattern for checking the validity of the
//! handle." The server-side entry records the class identifier, version
//! number, tag, and the object itself; the tag in an incoming handle is
//! compared before the object is touched.

use crate::error::{RpcError, RpcResult, StatusCode};
use crate::server::ConnId;
use rand::RngCore;
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

clam_obs::handles! {
    /// Live objects across every table in the process
    /// (`rpc.object_table_size`). Tables adjust it on register/unregister and
    /// give back their remaining entries on drop.
    fn obs_table_size() -> Gauge = gauge("rpc.object_table_size");
}

clam_xdr::bundle_struct! {
    /// A capability for a server object: identifier plus validity tag.
    ///
    /// The nil handle (`object_id == 0`) stands for the paper's nil
    /// object pointer and is accepted without table lookup.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub struct Handle {
        /// Identifies the object inside the server.
        pub object_id: u64,
        /// Arbitrary bit pattern checked against the table entry.
        pub tag: u64,
        /// Cluster node the object lives on; `0` means "this server"
        /// (the single-server topology, where handles never travel
        /// between servers). A server whose node id differs forwards or
        /// redirects instead of consulting its own table.
        pub home: u64,
    }
}

impl Handle {
    /// The nil handle (the paper's specially-handled nil pointer).
    pub const NIL: Handle = Handle {
        object_id: 0,
        tag: 0,
        home: 0,
    };

    /// True for the nil handle.
    #[must_use]
    pub fn is_nil(&self) -> bool {
        self.object_id == 0
    }

    /// True when the handle names an object on cluster node `node`.
    /// Un-homed handles (`home == 0`) are local everywhere.
    #[must_use]
    pub fn is_local_to(&self, node: u64) -> bool {
        self.home == 0 || self.home == node
    }
}

clam_xdr::bundle_struct! {
    /// Identifier of a client procedure registered for upcalls.
    ///
    /// When a client bundles a procedure pointer into the server (section
    /// 3.5.2) what actually travels is this identifier; the server wraps
    /// it in a Remote Upcall object. `0` is reserved for "no procedure".
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
    pub struct ProcId {
        /// Client-side registration number.
        pub id: u64,
    }
}

impl ProcId {
    /// The null procedure (no upcall registered).
    pub const NULL: ProcId = ProcId { id: 0 };

    /// True for the null procedure.
    #[must_use]
    pub fn is_null(&self) -> bool {
        self.id == 0
    }
}

/// A server-side object table entry: Figure 3.3's object identifier
/// structure (class identifier, version number, tag, object pointer).
pub struct ObjectEntry {
    class_id: u32,
    version: u32,
    tag: u64,
    object: Arc<dyn Any + Send + Sync>,
    /// The connection whose call created this object, if any. When that
    /// peer dies the table removes the entry, so the dead client's
    /// handles — should they ever resurface — fail as stale.
    owner: Option<ConnId>,
}

impl std::fmt::Debug for ObjectEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectEntry")
            .field("class_id", &self.class_id)
            .field("version", &self.version)
            .finish_non_exhaustive()
    }
}

impl ObjectEntry {
    /// Class of the stored object (drives method dispatch).
    #[must_use]
    pub fn class_id(&self) -> u32 {
        self.class_id
    }

    /// Version of the class the object was created from.
    #[must_use]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The stored object.
    #[must_use]
    pub fn object(&self) -> &Arc<dyn Any + Send + Sync> {
        &self.object
    }

    /// The connection that created the object, if it was registered
    /// while dispatching a client's call. The entry leaves the table
    /// when that connection dies.
    #[must_use]
    pub fn owner(&self) -> Option<ConnId> {
        self.owner
    }
}

/// The server's table of live objects addressable by handle.
#[derive(Debug)]
pub struct ObjectTable {
    entries: HashMap<u64, ObjectEntry>,
    next_id: u64,
    /// Stamped into the `home` field of every handle this table mints.
    /// `0` (the default) produces un-homed handles for the single-server
    /// topology; cluster nodes set their node id so handles stay
    /// routable when they leak to other nodes.
    home_node: u64,
}

impl Default for ObjectTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjectTable {
    /// Create an empty table.
    #[must_use]
    pub fn new() -> ObjectTable {
        ObjectTable {
            entries: HashMap::new(),
            next_id: 1,
            home_node: 0,
        }
    }

    /// Stamp all subsequently minted handles with `node` as their home.
    /// Handles minted before the call keep `home == 0` (local
    /// everywhere), so set the node id before registering objects.
    pub fn set_home_node(&mut self, node: u64) {
        self.home_node = node;
    }

    /// The node id stamped into minted handles (`0` = un-homed).
    #[must_use]
    pub fn home_node(&self) -> u64 {
        self.home_node
    }

    /// Register an object, returning the handle to hand to a client.
    ///
    /// The paper's assumption 3 holds by construction: a handle exists
    /// only after the object was registered (passed out of the server).
    pub fn register(
        &mut self,
        class_id: u32,
        version: u32,
        object: Arc<dyn Any + Send + Sync>,
    ) -> Handle {
        self.register_owned(class_id, version, object, None)
    }

    /// [`register`](ObjectTable::register) with ownership: `owner` is
    /// the connection whose call created the object, so the entry can be
    /// removed when that peer dies
    /// (see [`invalidate_owner`](ObjectTable::invalidate_owner)).
    pub fn register_owned(
        &mut self,
        class_id: u32,
        version: u32,
        object: Arc<dyn Any + Send + Sync>,
        owner: Option<ConnId>,
    ) -> Handle {
        let object_id = self.next_id;
        self.next_id += 1;
        let mut tag = rand::thread_rng().next_u64();
        if tag == 0 {
            tag = 1; // 0 is reserved for the nil handle
        }
        self.entries.insert(
            object_id,
            ObjectEntry {
                class_id,
                version,
                tag,
                object,
                owner,
            },
        );
        obs_table_size().adjust(1);
        Handle {
            object_id,
            tag,
            home: self.home_node,
        }
    }

    /// Remove every entry owned by `owner` (peer death): handles the dead
    /// client held, or leaked to others, now fail with
    /// [`StatusCode::StaleHandle`]. The removed entries are returned, so
    /// the caller can drop their objects outside the table's lock.
    pub fn invalidate_owner(&mut self, owner: ConnId) -> Vec<ObjectEntry> {
        let ids: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, entry)| entry.owner == Some(owner))
            .map(|(&id, _)| id)
            .collect();
        let removed: Vec<ObjectEntry> = ids
            .iter()
            .filter_map(|id| self.entries.remove(id))
            .collect();
        #[allow(clippy::cast_possible_wrap)]
        obs_table_size().adjust(-(removed.len() as i64));
        removed
    }

    /// Look up a handle, validating its tag (Figure 3.3's check).
    ///
    /// # Errors
    ///
    /// [`StatusCode::NoSuchObject`] for identifiers this table never
    /// minted (including nil), and [`StatusCode::StaleHandle`] for tag
    /// mismatches and for removed objects.
    pub fn lookup(&self, handle: Handle) -> RpcResult<&ObjectEntry> {
        match self.entries.get(&handle.object_id) {
            Some(entry) if entry.tag == handle.tag => Ok(entry),
            // Ids are never reused, so an id below `next_id` with no entry
            // names a removed object: its handles are stale.
            None if !(1..self.next_id).contains(&handle.object_id) => Err(RpcError::status(
                StatusCode::NoSuchObject,
                format!("{handle:?}"),
            )),
            _ => Err(RpcError::status(
                StatusCode::StaleHandle,
                format!("stale handle for object {}", handle.object_id),
            )),
        }
    }

    /// Look up and downcast the object behind a handle.
    ///
    /// # Errors
    ///
    /// The errors of [`lookup`](ObjectTable::lookup), plus
    /// [`StatusCode::NoSuchMethod`] if the object is not a `T` (dispatch
    /// reached the wrong class).
    pub fn resolve<T: Any + Send + Sync>(&self, handle: Handle) -> RpcResult<Arc<T>> {
        let entry = self.lookup(handle)?;
        Arc::downcast::<T>(Arc::clone(&entry.object)).map_err(|_| {
            RpcError::status(
                StatusCode::NoSuchMethod,
                format!(
                    "object {} is not a {}",
                    handle.object_id,
                    std::any::type_name::<T>()
                ),
            )
        })
    }

    /// Remove an object; subsequent uses of its handles fail.
    ///
    /// Returns the entry if the handle was valid.
    pub fn unregister(&mut self, handle: Handle) -> Option<ObjectEntry> {
        match self.entries.get(&handle.object_id) {
            Some(e) if e.tag == handle.tag => {
                let removed = self.entries.remove(&handle.object_id);
                if removed.is_some() {
                    obs_table_size().adjust(-1);
                }
                removed
            }
            _ => None,
        }
    }

    /// Number of live objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no objects are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Drop for ObjectTable {
    fn drop(&mut self) {
        // Return this table's remaining entries so the process-wide
        // gauge does not drift when a server is torn down.
        #[allow(clippy::cast_possible_wrap)]
        obs_table_size().adjust(-(self.entries.len() as i64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_lookup_resolve() {
        let mut table = ObjectTable::new();
        let h = table.register(7, 1, Arc::new(42u32));
        let entry = table.lookup(h).unwrap();
        assert_eq!(entry.class_id(), 7);
        assert_eq!(entry.version(), 1);
        let v: Arc<u32> = table.resolve(h).unwrap();
        assert_eq!(*v, 42);
    }

    #[test]
    fn tag_mismatch_is_stale_handle() {
        let mut table = ObjectTable::new();
        let h = table.register(1, 1, Arc::new(0u8));
        let forged = Handle {
            tag: h.tag.wrapping_add(1),
            ..h
        };
        let err = table.lookup(forged).unwrap_err();
        assert_eq!(err.status_code(), Some(StatusCode::StaleHandle));
    }

    #[test]
    fn unknown_object_is_no_such_object() {
        let table = ObjectTable::new();
        let err = table
            .lookup(Handle {
                object_id: 99,
                tag: 1,
                home: 0,
            })
            .unwrap_err();
        assert_eq!(err.status_code(), Some(StatusCode::NoSuchObject));
    }

    #[test]
    fn nil_handle_is_never_registered() {
        let mut table = ObjectTable::new();
        let h = table.register(1, 1, Arc::new(()));
        assert_ne!(h.object_id, 0);
        assert_ne!(h.tag, 0);
        assert!(Handle::NIL.is_nil());
        assert!(!h.is_nil());
    }

    #[test]
    fn wrong_type_resolve_fails_cleanly() {
        let mut table = ObjectTable::new();
        let h = table.register(1, 1, Arc::new(42u32));
        let err = table.resolve::<String>(h).unwrap_err();
        assert_eq!(err.status_code(), Some(StatusCode::NoSuchMethod));
    }

    #[test]
    fn unregister_invalidates_handles() {
        let mut table = ObjectTable::new();
        let h = table.register(1, 1, Arc::new(1u8));
        assert!(table.unregister(h).is_some());
        assert!(table.lookup(h).is_err());
        assert!(table.unregister(h).is_none());
        assert!(table.is_empty());
    }

    #[test]
    fn unregister_with_bad_tag_is_refused() {
        let mut table = ObjectTable::new();
        let h = table.register(1, 1, Arc::new(1u8));
        let forged = Handle {
            tag: h.tag.wrapping_add(1),
            ..h
        };
        assert!(table.unregister(forged).is_none());
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn handles_bundle_across_the_wire() {
        let h = Handle {
            object_id: 5,
            tag: 0xdead_beef,
            home: 3,
        };
        let bytes = clam_xdr::encode(&h).unwrap();
        assert_eq!(bytes.len(), 24);
        assert_eq!(clam_xdr::decode::<Handle>(&bytes).unwrap(), h);
    }

    #[test]
    fn home_node_is_stamped_into_minted_handles() {
        let mut table = ObjectTable::new();
        let unhomed = table.register(1, 1, Arc::new(0u8));
        assert_eq!(unhomed.home, 0);
        assert!(unhomed.is_local_to(1) && unhomed.is_local_to(2));

        table.set_home_node(9);
        assert_eq!(table.home_node(), 9);
        let homed = table.register(1, 1, Arc::new(0u8));
        assert_eq!(homed.home, 9);
        assert!(homed.is_local_to(9));
        assert!(!homed.is_local_to(2));
        // Home is routing metadata: the local table honors the handle
        // regardless of the stamp.
        assert!(table.lookup(homed).is_ok());
    }

    #[test]
    fn invalidate_owner_bumps_tags_to_stale() {
        let mut table = ObjectTable::new();
        let dead = ConnId(7);
        let owned = table.register_owned(1, 1, Arc::new(1u8), Some(dead));
        let other = table.register_owned(1, 1, Arc::new(2u8), Some(ConnId(8)));
        let unowned = table.register(1, 1, Arc::new(3u8));

        assert_eq!(table.invalidate_owner(dead).len(), 1);
        // The dead client's handle now fails as StaleHandle, not
        // NoSuchObject: the table minted the id, and the capability died.
        let err = table.lookup(owned).unwrap_err();
        assert_eq!(err.status_code(), Some(StatusCode::StaleHandle));
        // Unrelated entries are untouched.
        assert!(table.lookup(other).is_ok());
        assert!(table.lookup(unowned).is_ok());
        assert_eq!(table.len(), 2, "the dead client's object left the table");
    }

    #[test]
    fn owner_is_recorded_on_registration() {
        let mut table = ObjectTable::new();
        let h = table.register_owned(1, 1, Arc::new(()), Some(ConnId(3)));
        assert_eq!(table.lookup(h).unwrap().owner(), Some(ConnId(3)));
        let h2 = table.register(1, 1, Arc::new(()));
        assert_eq!(table.lookup(h2).unwrap().owner(), None);
    }

    #[test]
    fn proc_ids_bundle_and_null_checks() {
        let p = ProcId { id: 3 };
        let bytes = clam_xdr::encode(&p).unwrap();
        assert_eq!(clam_xdr::decode::<ProcId>(&bytes).unwrap(), p);
        assert!(ProcId::NULL.is_null());
        assert!(!p.is_null());
    }
}
