//! Simulated wide-area transport: TCP plus per-frame delivery latency.
//!
//! The paper's Figure 5.1 measures "process on different machines
//! (TCP/IP connection)" between two Microvaxes on a LAN. We have one
//! machine, so per the reproduction's substitution rule we wrap loopback
//! TCP in a delivery-latency model. Each received frame is held for
//! `one_way_latency` after it arrives before it is handed to the caller;
//! with both peers wrapped, a round trip pays two one-way latencies,
//! exactly like a real network path.
//!
//! The default latency is tuned to the paper's *proportions*: its
//! cross-machine round trip exceeded same-machine TCP by roughly 0.9 ms
//! (12 400 µs vs 11 500 µs), i.e. ~450 µs each way on 1988 Ethernet.

use crate::channel::{Channel, Closer, MsgReader};
use crate::endpoint::Endpoint;
use crate::error::NetResult;
use crate::frame::Frame;
use crate::{tcp, Listener};
use clam_xdr::BufferPool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency model for the simulated WAN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WanConfig {
    /// Delay added to each delivered frame.
    pub one_way_latency: Duration,
}

impl Default for WanConfig {
    /// ~450 µs each way: the 1988-Ethernet gap implied by Figure 5.1.
    fn default() -> Self {
        WanConfig::with_latency(Duration::from_micros(450))
    }
}

impl WanConfig {
    /// A latency model with the given one-way delay.
    #[must_use]
    pub fn with_latency(one_way_latency: Duration) -> Self {
        WanConfig { one_way_latency }
    }
}

/// Delays frames on the receive side: a frame becomes visible
/// `one_way_latency` after it arrived at this host.
struct DelayedReader {
    inner: Box<dyn MsgReader>,
    config: WanConfig,
}

impl DelayedReader {
    /// Hold a frame that just arrived until its delivery time.
    fn deliver(&self, frame: Frame) -> Frame {
        std::thread::sleep(self.config.one_way_latency);
        frame
    }
}

impl MsgReader for DelayedReader {
    fn recv(&mut self) -> NetResult<Frame> {
        let frame = self.inner.recv()?;
        Ok(self.deliver(frame))
    }

    fn recv_until(&mut self, deadline: Instant) -> NetResult<Option<Frame>> {
        // A frame that arrived in time is delivered even if its hold
        // runs past the deadline.
        let frame = self.inner.recv_until(deadline)?;
        Ok(frame.map(|f| self.deliver(f)))
    }

    fn closer(&self) -> Closer {
        self.inner.closer()
    }

    fn attach_pool(&mut self, pool: &BufferPool) {
        self.inner.attach_pool(pool);
    }
}

fn wrap(channel: Channel, config: WanConfig) -> Channel {
    let label = format!("wan-{}", channel.label());
    let (writer, reader) = channel.split();
    Channel::from_halves(
        label,
        writer,
        Box::new(DelayedReader {
            inner: reader,
            config,
        }),
    )
}

struct WanListener {
    inner: Arc<dyn Listener>,
    config: WanConfig,
}

impl Listener for WanListener {
    fn accept(&self) -> NetResult<Channel> {
        Ok(wrap(self.inner.accept()?, self.config))
    }

    fn endpoint(&self) -> Endpoint {
        match self.inner.endpoint() {
            Endpoint::Tcp(addr) => Endpoint::Wan {
                addr,
                config: self.config,
            },
            other => other,
        }
    }
}

pub(crate) fn listen(addr: &str, config: WanConfig) -> NetResult<Arc<dyn Listener>> {
    let inner = tcp::listen(addr)?;
    Ok(Arc::new(WanListener { inner, config }))
}

pub(crate) fn connect(addr: &str, config: WanConfig) -> NetResult<Channel> {
    Ok(wrap(tcp::connect(addr)?, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{connect as net_connect, listen as net_listen};

    #[test]
    fn wan_round_trip_pays_two_one_way_latencies() {
        let config = WanConfig::with_latency(Duration::from_millis(5));
        let ep = Endpoint::Wan {
            addr: "127.0.0.1:0".to_string(),
            config,
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
        let config = WanConfig::with_latency(Duration::from_micros(100));
        let l = net_listen(&Endpoint::Wan {
            addr: "127.0.0.1:0".to_string(),
            config,
        })
        .unwrap();
        match l.endpoint() {
            Endpoint::Wan { addr, config: c } => {
                assert!(!addr.ends_with(":0"));
                assert_eq!(c, config);
            }
            other => panic!("unexpected endpoint {other}"),
        }
    }

    #[test]
    fn default_latency_matches_figure_5_1_gap() {
        let d = WanConfig::default();
        assert_eq!(d.one_way_latency, Duration::from_micros(450));
    }
}
