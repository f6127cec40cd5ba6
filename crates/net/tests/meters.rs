//! Each stream half meters its frames in counters of its own: totals are
//! exact across channels that come and go, and the registry lets go of
//! a half's counters once it is dropped.
//!
//! Alone in its file: the `net.*.unix` totals are process-wide, and an
//! exact delta needs no other unix traffic in the process.

use clam_net::{connect, listen, Endpoint};

const NAMES: [&str; 4] = [
    "net.frames_sent.unix",
    "net.bytes_sent.unix",
    "net.frames_recv.unix",
    "net.bytes_recv.unix",
];

#[test]
fn unix_channels_meter_exactly_and_let_go_of_their_counters() {
    const PAIRS: usize = 100;
    const FRAMES: usize = 10;
    let path = std::env::temp_dir().join(format!("clam-meters-{}.sock", std::process::id()));
    let listener = listen(&Endpoint::unix(&path)).unwrap();
    let registry = clam_obs::registry();
    let before = clam_obs::snapshot();

    let mut pairs: Vec<_> = (0..PAIRS)
        .map(|_| {
            let client = connect(&listener.endpoint()).unwrap();
            (client, listener.accept().unwrap())
        })
        .collect();
    for (client, server) in &mut pairs {
        for i in 0..FRAMES {
            client.send(&vec![1u8; i][..]).unwrap();
            server.send(&vec![2u8; i][..]).unwrap();
        }
        for i in 0..FRAMES {
            assert_eq!(server.recv().unwrap().len(), i);
            assert_eq!(client.recv().unwrap().len(), i);
        }
    }
    let live = 2 * PAIRS; // each name has one half per end
    for name in NAMES {
        let held = registry.instances(name);
        assert!((live..=live + 1).contains(&held), "{name}: {held} held");
    }
    drop(pairs);

    let delta = clam_obs::snapshot().delta(&before);
    let frames = (2 * PAIRS * FRAMES) as u64;
    // Each frame is its 4-byte length prefix and i payload bytes.
    let bytes = (2 * PAIRS * (4 * FRAMES + (0..FRAMES).sum::<usize>())) as u64;
    let counts = NAMES.map(|name| delta.counter(name));
    assert_eq!(counts, [frames, bytes, frames, bytes]);
    for name in NAMES {
        assert!(registry.instances(name) <= 1, "{name} after the drop");
    }
    drop(listener);
    let _ = std::fs::remove_file(&path);
}
