//! `remote_interface!` — the stub generator (paper sections 3.2–3.4).
//!
//! The paper integrates stub generation with the compiler: one procedure
//! declaration yields the client stub, the server stub, and the procedure
//! itself, with no separate specification language. This macro is that
//! integration point for Rust. From one interface declaration it derives:
//!
//! * the Rust **trait** servers implement (the "procedure itself");
//! * a **proxy** — the client stub: bundles arguments, performs the call,
//!   unbundles results. Methods declared `oneway` use the batched
//!   asynchronous path of section 3.4;
//! * a **skeleton** — the server stub as a [`Service`](crate::Service)
//!   (for builtin targets) and a **class** adapter as a
//!   [`ClassDispatch`](crate::ClassDispatch) (for object targets). It
//!   decodes the arguments in the request frame and bundles the result
//!   onto the reply frame, with no buffer of their own. A method that
//!   returns `()`, `oneway` ones among them, answers with empty results,
//!   the bytes `()` bundles to, without running the encoder.
//!
//! Method numbers are declared explicitly (`= N`), making the wire
//! protocol stable under reordering. Argument and result types must
//! implement `Bundle + Clone`; per-type user-defined bundlers hook in via
//! [`bundle_struct!`](clam_xdr::bundle_struct)'s `@ bundler` syntax — the
//! paper's `typedef`-attached bundlers — so they apply here without extra
//! annotation. Typechecking of calls and upcall registrations is
//! compile-time, as in the paper (section 4.1).
//!
//! # Example
//!
//! ```rust
//! use clam_rpc::RpcResult;
//!
//! clam_rpc::remote_interface! {
//!     /// A toy calculator service.
//!     pub interface Calculator {
//!         proxy CalculatorProxy;
//!         skeleton CalculatorSkeleton;
//!         class CalculatorClass;
//!
//!         fn add(a: i32, b: i32) -> i32 = 1;
//!         fn reset() -> () = 2;
//!         fn log(line: String) = 3 oneway;
//!     }
//! }
//! # fn main() {}
//! ```

/// Generate trait, proxy, skeleton, and class-dispatch adapter for one
/// remote interface. See the crate documentation for the grammar.
#[macro_export]
macro_rules! remote_interface {
    (
        $(#[$meta:meta])*
        $vis:vis interface $trait_name:ident {
            proxy $proxy:ident;
            skeleton $skeleton:ident;
            class $class:ident;

            $(
                $(#[$fmeta:meta])*
                fn $method:ident ( $($arg:ident : $aty:ty),* $(,)? )
                    $(-> $ret:ty)? = $mid:literal $($oneway:ident)? ;
            )*
        }
    ) => {
        $(#[$meta])*
        ///
        /// Implemented by the serving side; called through the matching
        /// proxy on the client side. Generated by `remote_interface!`.
        $vis trait $trait_name: Send + Sync {
            $(
                $(#[$fmeta])*
                ///
                /// # Errors
                ///
                /// Implementations may fail with any [`RpcError`]
                /// (crate::RpcError); the proxy adds transport errors.
                fn $method(
                    &self,
                    $($arg : $aty),*
                ) -> $crate::RpcResult<$crate::remote_interface!(@ret_ty $($ret)?)>;
            )*
        }

        /// Client stub for the interface: bundles arguments, calls
        /// through a [`Caller`]($crate::Caller), unbundles results.
        #[derive(Debug, Clone)]
        $vis struct $proxy {
            caller: ::std::sync::Arc<$crate::Caller>,
            target: $crate::Target,
        }

        impl $proxy {
            /// Aim the proxy at `target` through `caller`.
            #[must_use]
            $vis fn new(
                caller: ::std::sync::Arc<$crate::Caller>,
                target: $crate::Target,
            ) -> Self {
                Self { caller, target }
            }

            /// The proxy's target.
            #[must_use]
            #[allow(dead_code)]
            $vis fn target(&self) -> $crate::Target {
                self.target
            }

            /// Force out any batched `oneway` calls (the paper's special
            /// synchronization procedure).
            ///
            /// # Errors
            ///
            /// Transport errors.
            $vis fn flush(&self) -> $crate::RpcResult<()> {
                self.caller.flush()
            }
        }

        impl $trait_name for $proxy {
            $(
                fn $method(
                    &self,
                    $($arg : $aty),*
                ) -> $crate::RpcResult<$crate::remote_interface!(@ret_ty $($ret)?)> {
                    let args = $crate::__macro_support::Opaque::from(
                        $crate::__macro_support::encode(&($($arg,)*))?,
                    );
                    $crate::remote_interface!(
                        @proxy_send self, $mid, args $(, ret $ret)? $(, $oneway)?
                    )
                }
            )*
        }

        /// Server stub exposing a `T:
        #[doc = stringify!($trait_name)]
        /// ` as a builtin [`Service`]($crate::Service).
        $vis struct $skeleton<T> {
            inner: ::std::sync::Arc<T>,
        }

        impl<T: $trait_name + 'static> $skeleton<T> {
            /// Wrap an implementation.
            #[must_use]
            $vis fn new(inner: ::std::sync::Arc<T>) -> Self {
                Self { inner }
            }

            fn dispatch_inner(
                inner: &T,
                ctx: &$crate::CallContext,
                results: &mut ::std::vec::Vec<u8>,
            ) -> $crate::RpcResult<()> {
                match ctx.method {
                    $(
                        $mid => {
                            let ($($arg,)*): ($($aty,)*) =
                                $crate::__macro_support::decode(ctx.args)
                                    .map_err(|e| $crate::RpcError::status(
                                        $crate::StatusCode::BadArgs,
                                        e.to_string(),
                                    ))?;
                            let result = inner.$method($($arg),*)?;
                            // `()` bundles to no bytes: skip the encoder.
                            if ::std::any::Any::type_id(&result) != ::std::any::TypeId::of::<()>() {
                                $crate::__macro_support::bundle_onto(result, results)?;
                            }
                            Ok(())
                        }
                    )*
                    other => Err($crate::RpcError::status(
                        $crate::StatusCode::NoSuchMethod,
                        format!(
                            "{} has no method {other}",
                            stringify!($trait_name),
                        ),
                    )),
                }
            }
        }

        impl<T: $trait_name + 'static> $crate::Service for $skeleton<T> {
            fn dispatch(
                &self,
                _server: &$crate::RpcServer,
                ctx: &$crate::CallContext,
                results: &mut ::std::vec::Vec<u8>,
            ) -> $crate::RpcResult<()> {
                Self::dispatch_inner(&self.inner, ctx, results)
            }
        }

        /// Class-dispatch adapter: method dispatch for server objects of
        /// type `T` addressed by handle.
        $vis struct $class<T> {
            _marker: ::std::marker::PhantomData<fn() -> T>,
        }

        impl<T> Default for $class<T> {
            fn default() -> Self {
                Self::new()
            }
        }

        impl<T> $class<T> {
            /// Create the dispatch adapter.
            #[must_use]
            $vis fn new() -> Self {
                Self {
                    _marker: ::std::marker::PhantomData,
                }
            }
        }

        impl<T: $trait_name + 'static> $crate::ClassDispatch for $class<T> {
            fn class_name(&self) -> &str {
                stringify!($trait_name)
            }

            fn dispatch(
                &self,
                _server: &$crate::RpcServer,
                object: &::std::sync::Arc<dyn ::std::any::Any + Send + Sync>,
                ctx: &$crate::CallContext,
                results: &mut ::std::vec::Vec<u8>,
            ) -> $crate::RpcResult<()> {
                let object = ::std::sync::Arc::clone(object)
                    .downcast::<T>()
                    .map_err(|_| $crate::RpcError::status(
                        $crate::StatusCode::NoSuchMethod,
                        format!(
                            "object is not a {}",
                            stringify!($trait_name),
                        ),
                    ))?;
                $skeleton::<T>::dispatch_inner(&object, ctx, results)
            }
        }
    };

    // ---------------- helper arms ----------------

    (@ret_ty $ret:ty) => { $ret };
    (@ret_ty) => { () };

    // oneway: batched asynchronous call, no reply.
    (@proxy_send $self:ident, $mid:literal, $args:ident, oneway) => {{
        $self.caller.call_async($self.target, $mid, $args)?;
        Ok(())
    }};
    // synchronous call with a declared return type.
    (@proxy_send $self:ident, $mid:literal, $args:ident, ret $ret:ty) => {{
        let results = $self.caller.call($self.target, $mid, $args)?;
        let value: $ret = $crate::__macro_support::decode(results.as_slice())?;
        Ok(value)
    }};
    // synchronous call returning unit.
    (@proxy_send $self:ident, $mid:literal, $args:ident) => {{
        let results = $self.caller.call($self.target, $mid, $args)?;
        let (): () = $crate::__macro_support::decode(results.as_slice())?;
        Ok(())
    }};
}

#[cfg(test)]
mod tests {
    use crate::{Caller, CallerConfig, ConnId, RpcError, RpcResult, RpcServer, StatusCode, Target};
    use clam_task::Scheduler;
    use parking_lot::Mutex;
    use std::sync::Arc;

    crate::remote_interface! {
        /// Test interface exercising every method shape.
        pub interface Calculator {
            proxy CalculatorProxy;
            skeleton CalculatorSkeleton;
            class CalculatorClass;

            fn add(a: i32, b: i32) -> i32 = 1;
            fn concat(parts: Vec<String>, sep: String) -> String = 2;
            fn reset() -> () = 3;
            fn accumulate(x: i64) = 4 oneway;
            fn total() -> i64 = 5;
            fn touch() = 6;
        }
    }

    #[derive(Default)]
    struct CalcImpl {
        acc: Mutex<i64>,
    }

    impl Calculator for CalcImpl {
        fn add(&self, a: i32, b: i32) -> RpcResult<i32> {
            a.checked_add(b)
                .ok_or_else(|| RpcError::status(StatusCode::AppError, "overflow"))
        }
        fn concat(&self, parts: Vec<String>, sep: String) -> RpcResult<String> {
            Ok(parts.join(&sep))
        }
        fn reset(&self) -> RpcResult<()> {
            *self.acc.lock() = 0;
            Ok(())
        }
        fn accumulate(&self, x: i64) -> RpcResult<()> {
            *self.acc.lock() += x;
            Ok(())
        }
        fn total(&self) -> RpcResult<i64> {
            Ok(*self.acc.lock())
        }
        fn touch(&self) -> RpcResult<()> {
            Ok(())
        }
    }

    /// Stand up a loopback server/caller pair over an in-process channel.
    fn rig() -> (Arc<RpcServer>, Arc<Caller>, Arc<CalcImpl>) {
        let server = Arc::new(RpcServer::new());
        let imp = Arc::new(CalcImpl::default());
        server.register_service(1, Arc::new(CalculatorSkeleton::new(Arc::clone(&imp))));

        let (client_ch, server_ch) = clam_net::pair();
        let srv = Arc::clone(&server);
        std::thread::spawn(move || srv.serve_channel(ConnId(1), server_ch));

        let sched = Scheduler::new("stub-test");
        let (w, r) = client_ch.split();
        let caller = Caller::new(&sched, w, CallerConfig::default());
        caller.attach_reader(r);
        (server, caller, imp)
    }

    #[test]
    fn generated_proxy_calls_generated_skeleton() {
        let (_server, caller, _imp) = rig();
        let calc = CalculatorProxy::new(Arc::clone(&caller), Target::Builtin(1));
        assert_eq!(calc.add(2, 40).unwrap(), 42);
        assert_eq!(
            calc.concat(vec!["a".into(), "b".into()], "-".into())
                .unwrap(),
            "a-b"
        );
        calc.reset().unwrap();
    }

    #[test]
    fn oneway_methods_batch_and_apply_in_order() {
        let (_server, caller, imp) = rig();
        let calc = CalculatorProxy::new(Arc::clone(&caller), Target::Builtin(1));
        calc.accumulate(5).unwrap();
        calc.accumulate(10).unwrap();
        assert_eq!(*imp.acc.lock(), 0, "oneway calls are still batched");
        // A sync call flushes the batch ahead of itself.
        assert_eq!(calc.total().unwrap(), 15);
    }

    #[test]
    fn explicit_proxy_flush_pushes_oneways() {
        let (_server, caller, _imp) = rig();
        let calc = CalculatorProxy::new(Arc::clone(&caller), Target::Builtin(1));
        calc.accumulate(3).unwrap();
        calc.flush().unwrap();
        // Poll through a sync call; the flush already sent the batch.
        assert_eq!(calc.total().unwrap(), 3);
        let sent = caller.metrics();
        assert_eq!(
            sent.counter("rpc.batches_sent"),
            2,
            "flush frame plus the sync-call frame"
        );
        assert_eq!(sent.counter("rpc.calls_sent"), 2);
    }

    #[test]
    fn app_errors_cross_the_wire_as_status() {
        let (_server, caller, _imp) = rig();
        let calc = CalculatorProxy::new(Arc::clone(&caller), Target::Builtin(1));
        let err = calc.add(i32::MAX, 1).unwrap_err();
        assert_eq!(err.status_code(), Some(StatusCode::AppError));
        assert!(err.to_string().contains("overflow"));
    }

    #[test]
    fn unknown_method_is_no_such_method() {
        let (_server, caller, _imp) = rig();
        let err = caller
            .call(Target::Builtin(1), 999, clam_xdr::Opaque::new())
            .unwrap_err();
        assert_eq!(err.status_code(), Some(StatusCode::NoSuchMethod));
    }

    #[test]
    fn bad_argument_bytes_are_bad_args() {
        let (_server, caller, _imp) = rig();
        // Method 1 (add) expects two i32s; send garbage.
        let err = caller
            .call(Target::Builtin(1), 1, clam_xdr::Opaque::from(vec![1u8]))
            .unwrap_err();
        assert_eq!(err.status_code(), Some(StatusCode::BadArgs));
    }

    #[test]
    fn class_adapter_dispatches_object_targets() {
        let (server, caller, _imp) = rig();
        server.register_class(30, Arc::new(CalculatorClass::<CalcImpl>::new()));
        let obj = Arc::new(CalcImpl::default());
        let handle = server.register_object(30, 1, obj);
        let calc = CalculatorProxy::new(Arc::clone(&caller), Target::Object(handle));
        calc.accumulate(4).unwrap();
        assert_eq!(calc.total().unwrap(), 4);
        assert_eq!(calc.add(1, 2).unwrap(), 3);
    }

    #[test]
    fn per_object_state_is_isolated() {
        let (server, caller, _imp) = rig();
        server.register_class(30, Arc::new(CalculatorClass::<CalcImpl>::new()));
        let h1 = server.register_object(30, 1, Arc::new(CalcImpl::default()));
        let h2 = server.register_object(30, 1, Arc::new(CalcImpl::default()));
        let c1 = CalculatorProxy::new(Arc::clone(&caller), Target::Object(h1));
        let c2 = CalculatorProxy::new(Arc::clone(&caller), Target::Object(h2));
        c1.accumulate(100).unwrap();
        assert_eq!(c1.total().unwrap(), 100);
        assert_eq!(c2.total().unwrap(), 0);
    }

    #[test]
    fn a_unit_result_is_answered_with_the_bytes_of_an_encoded_unit() {
        use crate::{Call, Message, Reply, TaskWriter};
        let server = RpcServer::new();
        server.register_service(
            1,
            Arc::new(CalculatorSkeleton::<CalcImpl>::new(Arc::default())),
        );
        // `reset` declares `-> ()`, `touch` no result at all.
        for (method, request_id) in [(3, 7), (6, 8)] {
            let (client, channel) = clam_net::pair();
            let writer = TaskWriter::new(&Scheduler::new("unit-reply"), channel.split().0);
            let call = Call {
                request_id,
                target: Target::Builtin(1),
                method,
                ..Call::default()
            };
            server
                .serve_frame(
                    ConnId(1),
                    &Mutex::default(),
                    Message::CallBatch(vec![call]).to_frame().unwrap(),
                    &clam_xdr::BufferPool::default(),
                    &writer,
                )
                .unwrap();
            let sent = client.split().1.recv().unwrap();
            let unit = clam_xdr::encode(&()).unwrap();
            let expected = Reply::from_outcome(request_id, Ok(clam_xdr::Opaque::from(unit)));
            assert_eq!(sent, Message::Reply(expected).to_frame().unwrap());
        }
    }

    #[test]
    fn proxy_and_impl_are_interchangeable_behind_the_trait() {
        // The paper's goal: minimize the distinction between local and
        // remote calls. The same code runs against either.
        fn exercise(calc: &dyn Calculator) -> i32 {
            calc.add(20, 22).unwrap()
        }
        let local = CalcImpl::default();
        assert_eq!(exercise(&local), 42);
        let (_server, caller, _imp) = rig();
        let remote = CalculatorProxy::new(caller, Target::Builtin(1));
        assert_eq!(exercise(&remote), 42);
    }
}
