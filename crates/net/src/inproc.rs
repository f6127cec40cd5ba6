//! In-process transport: both ends in one address space.
//!
//! This is the placement the paper gets by dynamically loading a layer
//! into the server — communication without crossing address spaces. A
//! process-global registry maps listener names to pending-connection
//! queues; each connection is a Unix-domain socket pair, so in-process
//! channels read and write through the same stream code as the others.

use crate::channel::{socket_pair, Channel};
use crate::endpoint::Endpoint;
use crate::error::{NetError, NetResult};
use crate::Listener;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;

/// Registry of live in-process listeners.
static REGISTRY: Mutex<Option<HashMap<String, Sender<Channel>>>> = Mutex::new(None);

fn with_registry<R>(f: impl FnOnce(&mut HashMap<String, Sender<Channel>>) -> R) -> R {
    let mut guard = REGISTRY.lock();
    f(guard.get_or_insert_with(HashMap::new))
}

struct InProcListener {
    name: String,
    /// Locked by `accept`, so concurrent accepts take turns.
    incoming: Mutex<Receiver<Channel>>,
}

impl Listener for InProcListener {
    fn accept(&self) -> NetResult<Channel> {
        self.incoming.lock().recv().map_err(|_| NetError::Closed)
    }

    fn endpoint(&self) -> Endpoint {
        Endpoint::InProc(self.name.clone())
    }
}

impl Drop for InProcListener {
    fn drop(&mut self) {
        with_registry(|reg| {
            reg.remove(&self.name);
        });
    }
}

pub(crate) fn listen(name: &str) -> NetResult<Arc<dyn Listener>> {
    let (tx, rx) = mpsc::channel();
    with_registry(|reg| {
        if reg.contains_key(name) {
            return Err(NetError::DuplicateInProcName(name.to_string()));
        }
        reg.insert(name.to_string(), tx);
        Ok(())
    })?;
    Ok(Arc::new(InProcListener {
        name: name.to_string(),
        incoming: Mutex::new(rx),
    }))
}

pub(crate) fn connect(name: &str) -> NetResult<Channel> {
    let tx = with_registry(|reg| reg.get(name).cloned())
        .ok_or_else(|| NetError::UnknownInProcName(name.to_string()))?;
    let (client_end, server_end) = socket_pair()?;
    tx.send(server_end).map_err(|_| NetError::Closed)?;
    Ok(client_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{connect as net_connect, listen as net_listen};

    #[test]
    fn listener_accepts_connections_by_name() {
        let l = net_listen(&Endpoint::in_proc("inproc-test-a")).unwrap();
        let mut c = net_connect(&Endpoint::in_proc("inproc-test-a")).unwrap();
        let mut s = l.accept().unwrap();
        c.send(b"ping").unwrap();
        assert_eq!(s.recv().unwrap(), b"ping");
        s.send(b"pong").unwrap();
        assert_eq!(c.recv().unwrap(), b"pong");
    }

    #[test]
    fn unknown_name_is_reported() {
        assert!(matches!(
            net_connect(&Endpoint::in_proc("no-such-listener")),
            Err(NetError::UnknownInProcName(_))
        ));
    }

    #[test]
    fn duplicate_name_is_rejected_until_drop() {
        let l = net_listen(&Endpoint::in_proc("inproc-test-dup")).unwrap();
        assert!(matches!(
            net_listen(&Endpoint::in_proc("inproc-test-dup")),
            Err(NetError::DuplicateInProcName(_))
        ));
        drop(l);
        let _l2 = net_listen(&Endpoint::in_proc("inproc-test-dup")).unwrap();
    }

    #[test]
    fn multiple_clients_queue_for_accept() {
        let l = net_listen(&Endpoint::in_proc("inproc-test-multi")).unwrap();
        let mut c1 = net_connect(&l.endpoint()).unwrap();
        let mut c2 = net_connect(&l.endpoint()).unwrap();
        c1.send(b"from-1").unwrap();
        c2.send(b"from-2").unwrap();
        let mut s1 = l.accept().unwrap();
        let mut s2 = l.accept().unwrap();
        assert_eq!(s1.recv().unwrap(), b"from-1");
        assert_eq!(s2.recv().unwrap(), b"from-2");
    }
}
