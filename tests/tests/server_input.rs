//! Input originating *inside the server* — the paper's actual flow
//! (section 4.3): "A new task is started in the server in response to
//! input from the external devices … This task propagates the
//! information from the input event upward through layers of abstraction
//! by using upcalls. If the higher layers of the abstraction are in a
//! client process, a task is started in the client to continue handling
//! of the input event."
//!
//! Unlike the other window tests (where the client injects events by
//! RPC), here an `InputDriver` on the *server's* scheduler replays the
//! mouse script; each event runs in its own server task and upcalls into
//! the remote client.

use clam_core::ServerConfig;
use clam_integration::{desktop_client, unique_inproc, window_server};
use clam_rpc::Target;
use clam_windows::input::{sweep_script, InputDriver};
use clam_windows::module::{Desktop, DesktopImpl};
use clam_windows::{InputEvent, Point, Rect};
use parking_lot::Mutex;
use std::sync::Arc;

#[test]
fn server_side_input_tasks_upcall_into_the_client() {
    let server = window_server(unique_inproc("srv-input"), ServerConfig::default());
    let (client, desktop) = desktop_client(&server);

    // The client creates a window and registers for its input (via RPC,
    // as usual).
    let w = desktop
        .create_window(Rect::new(0, 0, 200, 200), "w".into())
        .unwrap();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let s = Arc::clone(&seen);
    let proc = client.register_upcall(move |we: clam_windows::wm::WindowEvent| {
        s.lock().push(we.event);
        Ok(0u32)
    });
    desktop.post_input(w, proc).unwrap();

    // Reach the desktop object inside the server (we are the embedding
    // program — this is where a real deployment wires the mouse driver).
    let handle = match desktop.target() {
        Target::Object(h) => h,
        Target::Builtin(_) => unreachable!(),
    };
    let desktop_obj: Arc<DesktopImpl> = server.rpc().objects().resolve(handle).unwrap();

    // The input driver replays a script on the SERVER's scheduler: one
    // task per event, each upcalling through the layers into the client.
    let driver = InputDriver::new(server.scheduler());
    let script = sweep_script(Point::new(10, 10), Point::new(60, 60), 6);
    let events = script.len() as u64;
    let desktop_for_sink = Arc::clone(&desktop_obj);
    driver
        .replay(&script, move |ev| {
            desktop_for_sink.inject(ev).expect("server-side inject");
        })
        .expect("replay");

    assert_eq!(driver.events_delivered(), events);
    let seen = seen.lock();
    assert_eq!(seen.len() as u64, events, "every event upcalled");
    assert!(matches!(seen[0], InputEvent::MouseDown(..)));
    assert_eq!(client.upcalls_handled(), events);
}

#[test]
fn server_side_sweep_upcalls_once_from_an_input_task() {
    // The full section 2.1 story with input in its rightful place: the
    // mouse lives in the server; the sweep layer consumes every move
    // there; exactly one distributed upcall crosses to the client.
    let server = window_server(unique_inproc("srv-sweep"), ServerConfig::default());
    let (client, desktop) = desktop_client(&server);

    let completions = Arc::new(Mutex::new(Vec::new()));
    let c = Arc::clone(&completions);
    let done = client.register_upcall(move |r: Rect| {
        c.lock().push(r);
        Ok(0u32)
    });
    desktop.begin_sweep(1, done).unwrap();

    let handle = match desktop.target() {
        Target::Object(h) => h,
        Target::Builtin(_) => unreachable!(),
    };
    let desktop_obj: Arc<DesktopImpl> = server.rpc().objects().resolve(handle).unwrap();

    let driver = InputDriver::new(server.scheduler());
    let script = sweep_script(Point::new(20, 20), Point::new(100, 90), 30);
    let desktop_for_sink = Arc::clone(&desktop_obj);
    driver
        .replay(&script, move |ev| {
            desktop_for_sink.inject(ev).expect("inject");
        })
        .expect("replay");

    assert_eq!(*completions.lock(), vec![Rect::new(20, 20, 80, 70)]);
    assert_eq!(
        client.upcalls_handled(),
        1,
        "33 events in the server, one upcall to the client"
    );
    assert_eq!(desktop.window_count().unwrap(), 1);
}
