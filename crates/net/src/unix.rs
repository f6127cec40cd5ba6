//! Unix-domain stream transport — the paper's same-machine IPC
//! (Figure 5.1, "UNIX domain connection" rows).

use crate::channel::Channel;
use crate::endpoint::Endpoint;
use crate::error::NetResult;
use crate::Listener;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;

struct UnixChannelListener {
    listener: UnixListener,
    path: PathBuf,
}

impl Listener for UnixChannelListener {
    fn accept(&self) -> NetResult<Channel> {
        let (stream, _) = self.listener.accept()?;
        Ok(Channel::from_stream("unix-server", stream))
    }

    fn endpoint(&self) -> Endpoint {
        Endpoint::Unix(self.path.clone())
    }
}

impl Drop for UnixChannelListener {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

pub(crate) fn listen(path: &Path) -> NetResult<Arc<dyn Listener>> {
    // A stale socket file from a crashed process would make bind fail;
    // remove it if nothing is listening there.
    if path.exists() && UnixStream::connect(path).is_err() {
        let _ = std::fs::remove_file(path);
    }
    let listener = UnixListener::bind(path)?;
    Ok(Arc::new(UnixChannelListener {
        listener,
        path: path.to_path_buf(),
    }))
}

pub(crate) fn connect(path: &Path) -> NetResult<Channel> {
    let stream = UnixStream::connect(path)?;
    Ok(Channel::from_stream("unix-client", stream))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{connect as net_connect, listen as net_listen};

    fn temp_sock(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("clam-net-test-{tag}-{}.sock", std::process::id()))
    }

    #[test]
    fn unix_round_trip() {
        let path = temp_sock("rt");
        let l = net_listen(&Endpoint::unix(&path)).unwrap();
        let mut c = net_connect(&Endpoint::unix(&path)).unwrap();
        let mut s = l.accept().unwrap();
        c.send(b"over unix").unwrap();
        assert_eq!(s.recv().unwrap(), b"over unix");
        s.send(&[0u8; 4096]).unwrap();
        assert_eq!(c.recv().unwrap(), vec![0u8; 4096]);
    }

    #[test]
    fn stale_socket_file_is_cleaned_up() {
        let path = temp_sock("stale");
        std::fs::write(&path, b"").unwrap(); // a plain file at the path
        let _ = std::fs::remove_file(&path);
        std::os::unix::net::UnixListener::bind(&path)
            .map(drop)
            .unwrap();
        // The bound listener is dropped but the file remains: stale.
        assert!(path.exists());
        let l = net_listen(&Endpoint::unix(&path)).unwrap();
        drop(l);
        assert!(!path.exists(), "listener drop removes the socket file");
    }

    #[test]
    fn peer_hangup_is_closed() {
        let path = temp_sock("hang");
        let l = net_listen(&Endpoint::unix(&path)).unwrap();
        let c = net_connect(&Endpoint::unix(&path)).unwrap();
        let mut s = l.accept().unwrap();
        drop(c);
        assert!(s.recv().unwrap_err().is_closed());
    }
}
