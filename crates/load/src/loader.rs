//! The dynamic loader: resolves name+version, assigns class ids, wires
//! dispatch tables into the RPC server.

use crate::module::{Constructor, Module};
use crate::version::Version;
use clam_obs::Counter;
use clam_rpc::{Handle, RpcError, RpcResult, RpcServer, StatusCode};
use clam_xdr::Opaque;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// Module loads that actually ran a load hook (`load.modules_loaded`);
/// idempotent re-loads are not counted.
fn obs_modules_loaded() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| clam_obs::counter("load.modules_loaded"))
}

/// Objects constructed from loaded classes (`load.objects_created`).
fn obs_objects_created() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| clam_obs::counter("load.objects_created"))
}

/// A class made live by a load: where it came from and how to construct
/// instances.
#[derive(Clone)]
pub struct LoadedClass {
    /// Server-wide class identifier (what handles carry).
    pub class_id: u32,
    /// Module the class came from.
    pub module: String,
    /// Class name within the module.
    pub class_name: String,
    /// Version of the providing module.
    pub version: Version,
    constructor: Constructor,
}

impl std::fmt::Debug for LoadedClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadedClass")
            .field("class_id", &self.class_id)
            .field("module", &self.module)
            .field("class_name", &self.class_name)
            .field("version", &self.version)
            .finish_non_exhaustive()
    }
}

#[derive(Default)]
struct LoaderState {
    /// Installed (available) modules, keyed by name → versions.
    available: HashMap<String, HashMap<Version, Arc<dyn Module>>>,
    /// Live classes by id.
    loaded: HashMap<u32, LoadedClass>,
    /// (module, version) → class ids it contributed.
    by_module: HashMap<(String, Version), Vec<u32>>,
}

/// The server's dynamic loading facility.
///
/// Install modules with [`install`](DynamicLoader::install) (putting the
/// "object file" where the server can find it); clients then load them by
/// name and version through the [`Loader`](crate::Loader) service.
pub struct DynamicLoader {
    state: RwLock<LoaderState>,
    next_class_id: AtomicU32,
}

impl std::fmt::Debug for DynamicLoader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.read();
        f.debug_struct("DynamicLoader")
            .field("available_modules", &st.available.len())
            .field("loaded_classes", &st.loaded.len())
            .finish()
    }
}

impl Default for DynamicLoader {
    fn default() -> Self {
        Self::new()
    }
}

impl DynamicLoader {
    /// Create an empty loader.
    #[must_use]
    pub fn new() -> DynamicLoader {
        DynamicLoader {
            state: RwLock::new(LoaderState::default()),
            // Class id 0 is reserved; windowing substrates start their
            // static classes low, loaded classes start at 1000 to make
            // logs readable. Any nonzero scheme works.
            next_class_id: AtomicU32::new(1000),
        }
    }

    /// Install a module, making it *available* for loading. Several
    /// versions of one name may be installed side by side.
    ///
    /// # Errors
    ///
    /// [`StatusCode::AppError`] if this exact name+version is already
    /// installed.
    pub fn install(&self, module: Arc<dyn Module>) -> RpcResult<()> {
        let name = module.name().to_string();
        let version = module.version();
        let mut st = self.state.write();
        let versions = st.available.entry(name.clone()).or_default();
        if versions.contains_key(&version) {
            return Err(RpcError::status(
                StatusCode::AppError,
                format!("module {name} {version} already installed"),
            ));
        }
        versions.insert(version, module);
        Ok(())
    }

    /// Load `name` at `version` into `server`: run the module's load
    /// hook, assign class ids, and register dispatch tables. Loading the
    /// same module+version again is idempotent and returns the existing
    /// classes (two clients may both request the sweep module).
    ///
    /// # Errors
    ///
    /// [`StatusCode::NoSuchClass`] if the module or version is not
    /// installed; any error from the module's `on_load` hook.
    pub fn load(
        &self,
        server: &RpcServer,
        name: &str,
        version: Version,
    ) -> RpcResult<Vec<LoadedClass>> {
        let module = {
            let st = self.state.read();
            if let Some(ids) = st.by_module.get(&(name.to_string(), version)) {
                // Already loaded: idempotent.
                return Ok(ids.iter().map(|id| st.loaded[id].clone()).collect());
            }
            st.available
                .get(name)
                .and_then(|versions| versions.get(&version))
                .cloned()
                .ok_or_else(|| {
                    RpcError::status(
                        StatusCode::NoSuchClass,
                        format!("module {name} {version} is not installed"),
                    )
                })?
        };

        module.on_load(server)?;

        let mut created = Vec::new();
        for spec in module.classes() {
            let class_id = self.next_class_id.fetch_add(1, Ordering::Relaxed);
            server.register_class(class_id, Arc::clone(spec.dispatch()));
            created.push(LoadedClass {
                class_id,
                module: name.to_string(),
                class_name: spec.name().to_string(),
                version,
                constructor: Arc::clone(spec.constructor()),
            });
        }

        let mut st = self.state.write();
        for class in &created {
            st.loaded.insert(class.class_id, class.clone());
        }
        st.by_module.insert(
            (name.to_string(), version),
            created.iter().map(|c| c.class_id).collect(),
        );
        obs_modules_loaded().inc();
        Ok(created)
    }

    /// Newest installed version of `name`, if any.
    #[must_use]
    pub fn latest_version(&self, name: &str) -> Option<Version> {
        self.state
            .read()
            .available
            .get(name)
            .and_then(|versions| versions.keys().max().copied())
    }

    /// Find a live class id by module, class name, and version.
    #[must_use]
    pub fn find_class(&self, module: &str, class_name: &str, version: Version) -> Option<u32> {
        let st = self.state.read();
        let ids = st.by_module.get(&(module.to_string(), version))?;
        ids.iter()
            .find(|id| st.loaded[id].class_name == class_name)
            .copied()
    }

    /// Construct an object of a loaded class and register it in the
    /// server's object table, returning the client's handle.
    ///
    /// # Errors
    ///
    /// [`StatusCode::NoSuchClass`] for unknown class ids; any error from
    /// the class constructor.
    pub fn create_object(
        &self,
        server: &RpcServer,
        class_id: u32,
        args: &Opaque,
    ) -> RpcResult<Handle> {
        let class = self
            .state
            .read()
            .loaded
            .get(&class_id)
            .cloned()
            .ok_or_else(|| {
                RpcError::status(
                    StatusCode::NoSuchClass,
                    format!("class {class_id} is not loaded"),
                )
            })?;
        let object = (class.constructor)(server, args)?;
        obs_objects_created().inc();
        Ok(server.register_object(class_id, class.version.as_u32(), object))
    }

    /// Unload a module+version: its classes stop dispatching (live
    /// objects' handles start failing with `NoSuchClass`).
    ///
    /// # Errors
    ///
    /// [`StatusCode::NoSuchClass`] if that module+version is not loaded.
    pub fn unload(&self, server: &RpcServer, name: &str, version: Version) -> RpcResult<()> {
        let mut st = self.state.write();
        let ids = st
            .by_module
            .remove(&(name.to_string(), version))
            .ok_or_else(|| {
                RpcError::status(
                    StatusCode::NoSuchClass,
                    format!("module {name} {version} is not loaded"),
                )
            })?;
        for id in ids {
            st.loaded.remove(&id);
            server.unregister_class(id);
        }
        Ok(())
    }

    /// Snapshot of all live classes.
    #[must_use]
    pub fn loaded_classes(&self) -> Vec<LoadedClass> {
        let st = self.state.read();
        let mut classes: Vec<_> = st.loaded.values().cloned().collect();
        classes.sort_by_key(|c| c.class_id);
        classes
    }
}
