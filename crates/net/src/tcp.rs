//! TCP transport — the paper's same-machine and cross-machine TCP/IP
//! rows of Figure 5.1.

use crate::channel::Channel;
use crate::endpoint::Endpoint;
use crate::error::NetResult;
use crate::Listener;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

pub(crate) fn channel_from_stream(label: &str, stream: TcpStream) -> NetResult<Channel> {
    // An RPC round trip is a small write each way; Nagle would add 40 ms
    // class delays, drowning the measurement the benches exist to take.
    stream.set_nodelay(true)?;
    Channel::from_stream(label, stream)
}

struct TcpChannelListener {
    listener: TcpListener,
    addr: String,
}

impl Listener for TcpChannelListener {
    fn accept(&self) -> NetResult<Channel> {
        let (stream, _) = self.listener.accept()?;
        channel_from_stream("tcp-server", stream)
    }

    fn endpoint(&self) -> Endpoint {
        Endpoint::Tcp(self.addr.clone())
    }
}

pub(crate) fn listen(addr: &str) -> NetResult<Arc<dyn Listener>> {
    let listener = TcpListener::bind(addr)?;
    let actual = listener.local_addr()?;
    Ok(Arc::new(TcpChannelListener {
        listener,
        addr: actual.to_string(),
    }))
}

pub(crate) fn connect(addr: &str) -> NetResult<Channel> {
    let stream = TcpStream::connect(addr)?;
    channel_from_stream("tcp-client", stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{connect as net_connect, listen as net_listen};

    #[test]
    fn tcp_round_trip_with_ephemeral_port() {
        let l = net_listen(&Endpoint::tcp("127.0.0.1:0")).unwrap();
        let ep = l.endpoint();
        assert_ne!(ep.to_string(), "tcp://127.0.0.1:0", "port was resolved");
        let mut c = net_connect(&ep).unwrap();
        let mut s = l.accept().unwrap();
        c.send(b"over tcp").unwrap();
        assert_eq!(s.recv().unwrap(), b"over tcp");
        s.send(b"back").unwrap();
        assert_eq!(c.recv().unwrap(), b"back");
    }

    #[test]
    fn large_frames_cross_tcp() {
        let l = net_listen(&Endpoint::tcp("127.0.0.1:0")).unwrap();
        let mut c = net_connect(&l.endpoint()).unwrap();
        let mut s = l.accept().unwrap();
        let big = vec![0x5au8; 1 << 20];
        c.send(&big).unwrap();
        assert_eq!(s.recv().unwrap(), big);
    }

    #[test]
    fn connection_refused_is_io_error() {
        // Port 1 on localhost is essentially never listening.
        let err = net_connect(&Endpoint::tcp("127.0.0.1:1")).unwrap_err();
        assert!(!err.is_closed());
    }
}
