//! Round-trip floors measured in the same process as each workload: a raw
//! `std` socket ping-pong and a `clam_net::Channel` ping-pong, both at the
//! payload size of one echo call and over the workload's transport.

use crate::rig::Transport;
use crate::stats::nanos;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Instant;

/// Round-trip times in ns of `rounds` raw socket ping-pongs of
/// `payload` bytes each way.
///
/// # Errors
///
/// Socket errors, as text.
pub fn raw_rtts(transport: Transport, payload: usize, rounds: usize) -> Result<Vec<u64>, String> {
    let io = |e: std::io::Error| format!("raw {} floor: {e}", transport.name());
    match transport {
        Transport::Unix => {
            let (a, b) = UnixStream::pair().map_err(io)?;
            ping_pong(a, b, payload, rounds).map_err(io)
        }
        Transport::Tcp => {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
            let a = TcpStream::connect(listener.local_addr().map_err(io)?).map_err(io)?;
            let (b, _) = listener.accept().map_err(io)?;
            // The same socket option the tcp transport sets.
            a.set_nodelay(true).map_err(io)?;
            b.set_nodelay(true).map_err(io)?;
            ping_pong(a, b, payload, rounds).map_err(io)
        }
    }
}

fn ping_pong<S: Read + Write + Send + 'static>(
    mut client: S,
    mut echo: S,
    payload: usize,
    rounds: usize,
) -> std::io::Result<Vec<u64>> {
    let echoer = std::thread::spawn(move || -> std::io::Result<()> {
        let mut buf = vec![0u8; payload];
        for _ in 0..rounds {
            echo.read_exact(&mut buf)?;
            echo.write_all(&buf)?;
        }
        Ok(())
    });
    let msg = vec![7u8; payload];
    let mut back = vec![0u8; payload];
    let mut rtts = Vec::with_capacity(rounds);
    let mut outcome = Ok(());
    for _ in 0..rounds {
        let t = Instant::now();
        if let Err(e) = client
            .write_all(&msg)
            .and_then(|()| client.read_exact(&mut back))
        {
            outcome = Err(e);
            break;
        }
        rtts.push(nanos(t.elapsed()));
    }
    drop(client);
    echoer
        .join()
        .map_err(|_| std::io::Error::other("echo thread panicked"))??;
    outcome.map(|()| rtts)
}

/// Round-trip times in ns of `rounds` `clam_net::Channel` send/recv
/// ping-pongs of `payload` bytes over `transport`.
///
/// # Errors
///
/// Transport errors, as text.
pub fn channel_rtts(
    transport: Transport,
    sock_dir: &Path,
    payload: usize,
    rounds: usize,
) -> Result<Vec<u64>, String> {
    let err = |e: clam_net::NetError| format!("channel {} floor: {e}", transport.name());
    let endpoint = match transport {
        Transport::Unix => {
            clam_net::Endpoint::unix(sock_dir.join(format!("{}-floor.sock", std::process::id())))
        }
        Transport::Tcp => clam_net::Endpoint::tcp("127.0.0.1:0"),
    };
    let listener = clam_net::listen(&endpoint).map_err(err)?;
    let mut client = clam_net::connect(&listener.endpoint()).map_err(err)?;
    let mut echo = listener.accept().map_err(err)?;
    let echoer = std::thread::spawn(move || -> clam_net::NetResult<()> {
        for _ in 0..rounds {
            let frame = echo.recv()?;
            echo.send(frame)?;
        }
        Ok(())
    });
    let msg = vec![7u8; payload];
    let mut rtts = Vec::with_capacity(rounds);
    let mut outcome = Ok(());
    for _ in 0..rounds {
        let t = Instant::now();
        let r = client.send(msg.as_slice()).and_then(|()| client.recv());
        match r {
            Ok(back) if back.payload().len() == payload => rtts.push(nanos(t.elapsed())),
            Ok(_) => {
                outcome = Err("channel floor: echo changed the payload".to_string());
                break;
            }
            Err(e) => {
                outcome = Err(err(e));
                break;
            }
        }
    }
    drop(client);
    let joined = echoer
        .join()
        .map_err(|_| "channel floor: echo thread panicked".to_string())?;
    outcome?;
    joined.map_err(err)?;
    Ok(rtts)
}
