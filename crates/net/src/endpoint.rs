//! Endpoint addressing across all transports.

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

/// Where a server listens and clients connect.
///
/// The four variants are the four placements measured in the paper's
/// Figure 5.1: same address space (`InProc`), same machine over a
/// Unix-domain connection (`Unix`), same machine over TCP (`Tcp`), and
/// different machines (`Wan`, simulated as TCP plus delivery latency).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Endpoint {
    /// Both ends inside one process, connected by a Unix-domain socket
    /// pair.
    InProc(String),
    /// A Unix-domain stream socket at this path.
    Unix(PathBuf),
    /// A TCP socket; `"host:port"`, port 0 picks a free port.
    Tcp(String),
    /// TCP plus simulated wide-area delivery latency.
    Wan {
        /// The underlying TCP address.
        addr: String,
        /// One-way latency added to every delivered frame.
        latency: Duration,
    },
}

impl Endpoint {
    /// Shorthand for an in-process endpoint.
    #[must_use]
    pub fn in_proc(name: impl Into<String>) -> Endpoint {
        Endpoint::InProc(name.into())
    }

    /// Shorthand for a Unix-domain endpoint.
    #[must_use]
    pub fn unix(path: impl Into<PathBuf>) -> Endpoint {
        Endpoint::Unix(path.into())
    }

    /// Shorthand for a TCP endpoint.
    #[must_use]
    pub fn tcp(addr: impl Into<String>) -> Endpoint {
        Endpoint::Tcp(addr.into())
    }

    /// Shorthand for a simulated-WAN endpoint with the default latency:
    /// ~450 µs each way, the 1988-Ethernet gap implied by Figure 5.1 (its
    /// cross-machine round trip exceeded same-machine TCP by roughly
    /// 0.9 ms, 12 400 µs vs 11 500 µs).
    #[must_use]
    pub fn wan(addr: impl Into<String>) -> Endpoint {
        Endpoint::Wan {
            addr: addr.into(),
            latency: Duration::from_micros(450),
        }
    }

    /// Parse the URL-like form produced by [`Display`](fmt::Display):
    /// `inproc://name`, `unix://path`, `tcp://addr`, `wan://addr`.
    ///
    /// Cluster membership carries endpoints as strings on the wire; this
    /// is the inverse mapping. A `wan://` address parses with the default
    /// latency (the query suffix, if present, is ignored — the
    /// latency is simulation config, not addressing).
    #[must_use]
    pub fn parse(s: &str) -> Option<Endpoint> {
        let (scheme, rest) = s.split_once("://")?;
        if rest.is_empty() {
            return None;
        }
        match scheme {
            "inproc" => Some(Endpoint::in_proc(rest)),
            "unix" => Some(Endpoint::unix(rest)),
            "tcp" => Some(Endpoint::tcp(rest)),
            "wan" => {
                let addr = rest.split_once('?').map_or(rest, |(a, _)| a);
                Some(Endpoint::wan(addr))
            }
            _ => None,
        }
    }

    /// A short transport tag: `"inproc"`, `"unix"`, `"tcp"`, or `"wan"`.
    #[must_use]
    pub fn transport_name(&self) -> &'static str {
        match self {
            Endpoint::InProc(_) => "inproc",
            Endpoint::Unix(_) => "unix",
            Endpoint::Tcp(_) => "tcp",
            Endpoint::Wan { .. } => "wan",
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::InProc(name) => write!(f, "inproc://{name}"),
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            Endpoint::Wan { addr, latency } => write!(f, "wan://{addr}?latency={latency:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_tags() {
        assert_eq!(Endpoint::in_proc("x").transport_name(), "inproc");
        assert_eq!(Endpoint::unix("/tmp/s").transport_name(), "unix");
        assert_eq!(Endpoint::tcp("127.0.0.1:0").transport_name(), "tcp");
        assert_eq!(Endpoint::wan("127.0.0.1:0").transport_name(), "wan");
    }

    #[test]
    fn display_is_url_like() {
        assert_eq!(Endpoint::in_proc("x").to_string(), "inproc://x");
        assert_eq!(Endpoint::tcp("h:1").to_string(), "tcp://h:1");
        assert!(Endpoint::wan("h:1").to_string().starts_with("wan://h:1"));
    }

    #[test]
    fn parse_inverts_display() {
        for ep in [
            Endpoint::in_proc("node-a"),
            Endpoint::unix("/tmp/clam.sock"),
            Endpoint::tcp("127.0.0.1:7000"),
            Endpoint::wan("10.0.0.1:7000"),
        ] {
            assert_eq!(Endpoint::parse(&ep.to_string()), Some(ep));
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(Endpoint::parse(""), None);
        assert_eq!(Endpoint::parse("tcp:127.0.0.1:1"), None);
        assert_eq!(Endpoint::parse("carrier-pigeon://coop"), None);
        assert_eq!(Endpoint::parse("inproc://"), None);
    }
}
