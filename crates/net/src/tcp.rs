//! TCP transport — the paper's same-machine and cross-machine TCP/IP
//! rows of Figure 5.1.
//!
//! We have one machine where the paper had two Microvaxes, so a WAN
//! channel is loopback TCP in a latency-only [`FaultyChannel`]: each end
//! holds every frame it receives for the one-way latency.

use crate::channel::Channel;
use crate::endpoint::Endpoint;
use crate::error::NetResult;
use crate::fault::{FaultPlan, FaultyChannel};
use crate::Listener;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A channel over `stream`, holding each received frame for `latency`
/// if one is given (a WAN channel).
fn channel(label: &str, stream: TcpStream, latency: Option<Duration>) -> NetResult<Channel> {
    // An RPC round trip is a small write each way; Nagle would add 40 ms
    // class delays, drowning the measurement the benches exist to take.
    stream.set_nodelay(true)?;
    let channel = Channel::from_stream(label, stream);
    Ok(match latency {
        Some(latency) => FaultyChannel::wrap(channel, FaultPlan::default().with_latency(latency)).0,
        None => channel,
    })
}

struct TcpChannelListener {
    listener: TcpListener,
    addr: String,
    /// `Some` for a WAN listener.
    latency: Option<Duration>,
}

impl Listener for TcpChannelListener {
    fn accept(&self) -> NetResult<Channel> {
        let (stream, _) = self.listener.accept()?;
        channel("tcp-server", stream, self.latency)
    }

    fn endpoint(&self) -> Endpoint {
        let addr = self.addr.clone();
        match self.latency {
            Some(latency) => Endpoint::Wan { addr, latency },
            None => Endpoint::Tcp(addr),
        }
    }
}

pub(crate) fn listen(addr: &str, latency: Option<Duration>) -> NetResult<Arc<dyn Listener>> {
    let listener = TcpListener::bind(addr)?;
    let actual = listener.local_addr()?;
    Ok(Arc::new(TcpChannelListener {
        listener,
        addr: actual.to_string(),
        latency,
    }))
}

pub(crate) fn connect(addr: &str, latency: Option<Duration>) -> NetResult<Channel> {
    channel("tcp-client", TcpStream::connect(addr)?, latency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{connect as net_connect, listen as net_listen};
    use std::time::Instant;

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

    #[test]
    fn wan_round_trip_pays_two_one_way_latencies() {
        let ep = Endpoint::Wan {
            addr: "127.0.0.1:0".to_string(),
            latency: Duration::from_millis(5),
        };
        let l = net_listen(&ep).unwrap();
        let mut c = net_connect(&l.endpoint()).unwrap();
        let mut s = l.accept().unwrap();

        let start = Instant::now();
        c.send(b"req").unwrap();
        assert_eq!(s.recv().unwrap(), b"req");
        s.send(b"resp").unwrap();
        assert_eq!(c.recv().unwrap(), b"resp");
        let rtt = start.elapsed();
        assert!(
            rtt >= Duration::from_millis(10),
            "round trip {rtt:?} must include both one-way delays"
        );
    }

    #[test]
    fn wan_endpoint_carries_resolved_port_and_config() {
        let latency = Duration::from_micros(100);
        let l = net_listen(&Endpoint::Wan {
            addr: "127.0.0.1:0".to_string(),
            latency,
        })
        .unwrap();
        match l.endpoint() {
            Endpoint::Wan { addr, latency: c } => {
                assert!(!addr.ends_with(":0"));
                assert_eq!(c, latency);
            }
            other => panic!("unexpected endpoint {other}"),
        }
    }

    #[test]
    fn default_latency_matches_figure_5_1_gap() {
        let Endpoint::Wan { latency, .. } = Endpoint::wan("127.0.0.1:0") else {
            panic!("not a WAN endpoint");
        };
        assert_eq!(latency, Duration::from_micros(450));
    }
}
