//! Test modules: a simple counter module (two versions, to exercise
//! version control) and a faulty module (to exercise fault isolation).
//!
//! These are used by this crate's tests, by the workspace integration
//! tests, and by the error-reporting example.

use crate::module::{ClassSpec, Module, SimpleModule};
use crate::version::Version;
use clam_rpc::{RpcResult, StatusCode};
use parking_lot::Mutex;
use std::sync::Arc;

clam_rpc::remote_interface! {
    /// A counter that steps by a version-dependent stride.
    pub interface Counter {
        proxy CounterProxy;
        skeleton CounterSkeleton;
        class CounterClass;

        /// Advance and return the new value.
        fn bump() -> i64 = 1;
        /// Current value.
        fn value() -> i64 = 2;
        /// Add without reply (batched).
        fn add(delta: i64) = 3 oneway;
    }
}

/// Counter implementation; the stride differs per module version so tests
/// can observe which version served them.
#[derive(Debug)]
pub struct CounterImpl {
    stride: i64,
    value: Mutex<i64>,
}

impl Counter for CounterImpl {
    fn bump(&self) -> RpcResult<i64> {
        let mut v = self.value.lock();
        *v += self.stride;
        Ok(*v)
    }
    fn value(&self) -> RpcResult<i64> {
        Ok(*self.value.lock())
    }
    fn add(&self, delta: i64) -> RpcResult<()> {
        *self.value.lock() += delta;
        Ok(())
    }
}

/// Build the counter module at `version`; version 1.x bumps by 1,
/// version 2.x bumps by 10.
#[must_use]
pub fn counter_module(version: Version) -> Arc<dyn Module> {
    let stride = if version.major >= 2 { 10 } else { 1 };
    Arc::new(
        SimpleModule::new("counter", version).with_class(ClassSpec::new(
            "Counter",
            Arc::new(CounterClass::<CounterImpl>::new()),
            Arc::new(move |_server, args| {
                // Constructor args: optional starting value.
                let start: i64 = if args.is_empty() {
                    0
                } else {
                    clam_xdr::decode(args.as_slice()).map_err(|e| {
                        clam_rpc::RpcError::status(StatusCode::BadArgs, e.to_string())
                    })?
                };
                Ok(Arc::new(CounterImpl {
                    stride,
                    value: Mutex::new(start),
                }))
            }),
        )),
    )
}

clam_rpc::remote_interface! {
    /// A deliberately buggy class for fault-isolation tests.
    pub interface Faulty {
        proxy FaultyProxy;
        skeleton FaultySkeleton;
        class FaultyClass;

        /// Panics (the paper's memory fault / divide by zero stand-in).
        fn explode() -> () = 1;
        /// Behaves.
        fn ping() -> u32 = 2;
    }
}

/// The faulty implementation.
#[derive(Debug, Default)]
pub struct FaultyImpl;

impl Faulty for FaultyImpl {
    fn explode(&self) -> RpcResult<()> {
        panic!("injected fault in loaded class");
    }
    fn ping(&self) -> RpcResult<u32> {
        Ok(0x600d)
    }
}

/// Build the faulty module at version 1.0.
#[must_use]
pub fn faulty_module() -> Arc<dyn Module> {
    Arc::new(
        SimpleModule::new("faulty", Version::new(1, 0)).with_class(ClassSpec::new(
            "Faulty",
            Arc::new(FaultyClass::<FaultyImpl>::new()),
            Arc::new(|_server, _args| Ok(Arc::new(FaultyImpl))),
        )),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{LoaderImpl, LOADER_SERVICE_ID};
    use crate::{DynamicLoader, Loader};
    use clam_rpc::{ConnId, Message, MessageView, Reply, RpcServer, Target, TaskWriter};
    use clam_task::Scheduler;
    use clam_xdr::{BufferPool, Opaque};

    fn rig() -> (Arc<RpcServer>, Arc<LoaderImpl>) {
        let server = Arc::new(RpcServer::new());
        let loader = Arc::new(DynamicLoader::new());
        loader.install(counter_module(Version::new(1, 0))).unwrap();
        loader.install(counter_module(Version::new(2, 0))).unwrap();
        loader.install(faulty_module()).unwrap();
        let imp = LoaderImpl::attach(&server, loader);
        (server, imp)
    }

    /// Serve one sync call alone in a frame through
    /// [`RpcServer::serve_frame`], as a fresh connection's first frame,
    /// and read back its reply.
    fn serve(server: &RpcServer, target: Target, method: u32, args: Opaque) -> Reply {
        let (client, channel) = clam_net::pair();
        let (writer, _reader) = channel.split();
        let writer = TaskWriter::new(&Scheduler::new("loader-test"), writer);
        let call = clam_rpc::Call {
            request_id: 1,
            target,
            method,
            args,
            ..clam_rpc::Call::default()
        };
        let frame = Message::CallBatch(vec![call]).to_frame().unwrap();
        server
            .serve_frame(
                ConnId(1),
                &Mutex::default(),
                frame,
                &BufferPool::default(),
                &writer,
            )
            .unwrap();
        let (_, mut reader) = client.split();
        let frame = reader.recv().unwrap();
        let Ok(MessageView::Reply(reply)) = MessageView::parse(&frame) else {
            panic!("not a reply");
        };
        Reply {
            request_id: reply.request_id,
            status: reply.status,
            detail: reply.detail.to_owned(),
            results: Opaque::from(reply.results.to_vec()),
        }
    }

    fn dispatch_ok(server: &RpcServer, target: Target, method: u32, args: Opaque) -> Opaque {
        let reply = serve(server, target, method, args);
        assert_eq!(
            reply.status,
            clam_rpc::StatusCode::Ok,
            "dispatch failed: {}",
            reply.detail
        );
        reply.results
    }

    #[test]
    fn load_create_call_lifecycle() {
        let (server, imp) = rig();
        let report = imp
            .load_module("counter".into(), Version::new(1, 0))
            .unwrap();
        assert_eq!(report.classes.len(), 1);
        let class_id = report.classes[0].class_id;

        let handle = imp.create_object(class_id, Opaque::new()).unwrap();
        let results = dispatch_ok(&server, Target::Object(handle), 1, Opaque::new());
        let v: i64 = clam_xdr::decode(results.as_slice()).unwrap();
        assert_eq!(v, 1, "version 1 bumps by 1");
    }

    #[test]
    fn two_versions_coexist_with_different_behaviour() {
        let (server, imp) = rig();
        let r1 = imp
            .load_module("counter".into(), Version::new(1, 0))
            .unwrap();
        let r2 = imp
            .load_module("counter".into(), Version::new(2, 0))
            .unwrap();
        assert_ne!(r1.classes[0].class_id, r2.classes[0].class_id);

        let h1 = imp
            .create_object(r1.classes[0].class_id, Opaque::new())
            .unwrap();
        let h2 = imp
            .create_object(r2.classes[0].class_id, Opaque::new())
            .unwrap();
        let v1: i64 =
            clam_xdr::decode(dispatch_ok(&server, Target::Object(h1), 1, Opaque::new()).as_slice())
                .unwrap();
        let v2: i64 =
            clam_xdr::decode(dispatch_ok(&server, Target::Object(h2), 1, Opaque::new()).as_slice())
                .unwrap();
        assert_eq!((v1, v2), (1, 10), "each client sees its own version");
    }

    #[test]
    fn loading_is_idempotent() {
        let (_server, imp) = rig();
        let a = imp
            .load_module("counter".into(), Version::new(1, 0))
            .unwrap();
        let b = imp
            .load_module("counter".into(), Version::new(1, 0))
            .unwrap();
        assert_eq!(a.classes[0].class_id, b.classes[0].class_id);
    }

    #[test]
    fn missing_module_or_version_is_reported() {
        let (_server, imp) = rig();
        assert!(imp
            .load_module("nonexistent".into(), Version::new(1, 0))
            .is_err());
        assert!(imp
            .load_module("counter".into(), Version::new(9, 9))
            .is_err());
    }

    #[test]
    fn latest_version_finds_the_newest() {
        let (_server, imp) = rig();
        assert_eq!(
            imp.latest_version("counter".into()).unwrap(),
            Version::new(2, 0)
        );
        assert!(imp.latest_version("nope".into()).is_err());
    }

    #[test]
    fn constructor_args_are_bundled_through() {
        let (server, imp) = rig();
        let report = imp
            .load_module("counter".into(), Version::new(1, 0))
            .unwrap();
        let start = clam_xdr::encode(&100i64).unwrap();
        let h = imp
            .create_object(report.classes[0].class_id, Opaque::from(start))
            .unwrap();
        let v: i64 =
            clam_xdr::decode(dispatch_ok(&server, Target::Object(h), 2, Opaque::new()).as_slice())
                .unwrap();
        assert_eq!(v, 100);
    }

    #[test]
    fn unload_stops_dispatch_for_live_objects() {
        let (server, imp) = rig();
        let report = imp
            .load_module("counter".into(), Version::new(1, 0))
            .unwrap();
        let h = imp
            .create_object(report.classes[0].class_id, Opaque::new())
            .unwrap();
        imp.unload_module("counter".into(), Version::new(1, 0))
            .unwrap();
        let reply = serve(&server, Target::Object(h), 1, Opaque::new());
        assert_eq!(reply.status, clam_rpc::StatusCode::NoSuchClass);
    }

    #[test]
    fn fault_in_loaded_class_is_contained() {
        let (server, imp) = rig();
        let report = imp
            .load_module("faulty".into(), Version::new(1, 0))
            .unwrap();
        let h = imp
            .create_object(report.classes[0].class_id, Opaque::new())
            .unwrap();
        let reply = serve(&server, Target::Object(h), 1, Opaque::new()); // explode
        assert_eq!(reply.status, clam_rpc::StatusCode::Fault);
        // Same object still serves the healthy method afterwards.
        let results = dispatch_ok(&server, Target::Object(h), 2, Opaque::new());
        let pong: u32 = clam_xdr::decode(results.as_slice()).unwrap();
        assert_eq!(pong, 0x600d);
    }

    #[test]
    fn duplicate_install_is_rejected() {
        let (_server, imp) = rig();
        let err = imp
            .loader()
            .install(counter_module(Version::new(1, 0)))
            .unwrap_err();
        assert_eq!(err.status_code(), Some(clam_rpc::StatusCode::AppError));
    }

    #[test]
    fn list_classes_reflects_loads() {
        let (_server, imp) = rig();
        assert!(imp.list_classes().unwrap().is_empty());
        imp.load_module("counter".into(), Version::new(1, 0))
            .unwrap();
        imp.load_module("faulty".into(), Version::new(1, 0))
            .unwrap();
        let classes = imp.list_classes().unwrap();
        assert_eq!(classes.len(), 2);
        assert!(classes.iter().any(|c| c.class_name == "Counter"));
        assert!(classes.iter().any(|c| c.class_name == "Faulty"));
    }

    #[test]
    fn loader_service_id_is_registered_by_attach() {
        let (server, _imp) = rig();
        let reply = serve(
            &server,
            Target::Builtin(LOADER_SERVICE_ID),
            6,
            Opaque::from(clam_xdr::encode(&()).unwrap()),
        ); // list_classes
        assert_eq!(reply.status, clam_rpc::StatusCode::Ok);
    }
}
