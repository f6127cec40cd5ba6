//! The same layered application run over every placement the paper
//! offers: in-process channels, Unix domain, TCP, and simulated WAN.
//! "The user decides where to place a particular layer based on frequency
//! of access, speed of communication channels…" — the code must not care.

use clam_core::ServerConfig;
use clam_integration::{desktop_for, window_server};
use clam_net::Endpoint;
use clam_windows::module::Desktop;
use clam_windows::{InputEvent, MouseButton, Point, Rect};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

fn exercise(endpoint: Endpoint) {
    let server = window_server(endpoint.clone(), ServerConfig::default());
    let client = clam_core::ClamClient::connect(&server.endpoints()[0])
        .unwrap_or_else(|e| panic!("connect over {endpoint}: {e}"));
    let desktop = desktop_for(&client);

    let w = desktop
        .create_window(Rect::new(5, 5, 80, 60), "t".into())
        .unwrap();
    let events = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&events);
    let proc = client.register_upcall(move |we: clam_windows::wm::WindowEvent| {
        log.lock().push(we.event);
        Ok(0u32)
    });
    desktop.post_input(w, proc).unwrap();

    for i in 0..5 {
        desktop
            .inject(InputEvent::MouseMove(Point::new(10 + i, 10 + i)))
            .unwrap();
    }
    desktop
        .inject(InputEvent::MouseDown(Point::new(12, 12), MouseButton::Left))
        .unwrap();

    let events = events.lock();
    assert_eq!(events.len(), 6, "all events delivered over {endpoint}");
    assert!(matches!(events[5], InputEvent::MouseDown(..)));
}

#[test]
fn inproc_placement() {
    exercise(clam_integration::unique_inproc("transport"));
}

#[test]
fn unix_domain_placement() {
    let sock = std::env::temp_dir().join(format!(
        "clam-itest-unix-{}-{:?}.sock",
        std::process::id(),
        std::thread::current().id()
    ));
    exercise(Endpoint::unix(sock));
}

#[test]
fn tcp_placement() {
    exercise(Endpoint::tcp("127.0.0.1:0"));
}

#[test]
fn simulated_wan_placement() {
    exercise(Endpoint::Wan {
        addr: "127.0.0.1:0".to_string(),
        latency: Duration::from_micros(300),
    });
}

#[test]
fn wan_round_trips_are_visibly_slower_than_tcp() {
    // The latency model must actually bite: time one sync call on each.
    let tcp_server = window_server(Endpoint::tcp("127.0.0.1:0"), ServerConfig::default());
    let wan_server = window_server(
        Endpoint::Wan {
            addr: "127.0.0.1:0".to_string(),
            latency: Duration::from_millis(3),
        },
        ServerConfig::default(),
    );
    let tcp_client = clam_core::ClamClient::connect(&tcp_server.endpoints()[0]).unwrap();
    let wan_client = clam_core::ClamClient::connect(&wan_server.endpoints()[0]).unwrap();
    let tcp_desktop = desktop_for(&tcp_client);
    let wan_desktop = desktop_for(&wan_client);

    let time = |d: &clam_windows::module::DesktopProxy| {
        let start = std::time::Instant::now();
        for _ in 0..5 {
            d.screen_size().unwrap();
        }
        start.elapsed()
    };
    let tcp_time = time(&tcp_desktop);
    let wan_time = time(&wan_desktop);
    assert!(
        wan_time > tcp_time + Duration::from_millis(20),
        "wan {wan_time:?} must exceed tcp {tcp_time:?} by ~6ms/call"
    );
}
