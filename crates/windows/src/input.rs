//! The input driver: the asynchronous origin of everything.
//!
//! "Input is inherently asynchronous at some level" (section 2). The
//! paper's server starts "a new task … in response to input from the
//! external devices, such as the keyboard and mouse. This task propagates
//! the information from the input event upward through layers of
//! abstraction by using upcalls" (section 4.3).
//!
//! **Substitution note** (DESIGN.md): we have no Microvax mouse; the
//! driver replays a synthetic, scriptable event sequence. The code path
//! being reproduced — event source → task per event → upcalls through the
//! layers — is exercised identically.

use crate::events::InputEvent;
use crate::geometry::Point;
use clam_task::Scheduler;
use std::sync::Arc;

clam_obs::counters! {
    struct InputCounters {
        events_delivered: "wm.input_events_delivered",
    }
}

/// A synthetic input source that pushes scripted events through a sink,
/// one server task per event (the paper's input tasks).
pub struct InputDriver {
    sched: Scheduler,
    counters: InputCounters,
}

impl std::fmt::Debug for InputDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InputDriver")
            .field("events_delivered", &self.events_delivered())
            .finish_non_exhaustive()
    }
}

impl InputDriver {
    /// A driver spawning its per-event tasks on `sched`.
    #[must_use]
    pub fn new(sched: &Scheduler) -> InputDriver {
        InputDriver {
            sched: sched.clone(),
            counters: InputCounters::register(),
        }
    }

    /// Deliver one event: a fresh task runs `sink(event)`. Returns the
    /// task handle (join it to know the layers finished with the event).
    pub fn deliver<F>(&self, event: InputEvent, sink: F) -> clam_task::JoinHandle
    where
        F: FnOnce(InputEvent) + Send + 'static,
    {
        let delivered = Arc::clone(&self.counters.events_delivered);
        self.sched.spawn("input-event", move || {
            sink(event);
            delivered.inc();
        })
    }

    /// Replay a whole script in order, one task per event, returning
    /// once every event has been fully handled.
    pub fn replay<F>(&self, script: &[InputEvent], sink: F)
    where
        F: Fn(InputEvent) + Send + Sync + 'static,
    {
        let sink = Arc::new(sink);
        let handles: Vec<_> = script
            .iter()
            .map(|&event| {
                let sink = Arc::clone(&sink);
                self.deliver(event, move |ev| sink(ev))
            })
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Events fully delivered so far.
    #[must_use]
    pub fn events_delivered(&self) -> u64 {
        self.counters.events_delivered.get()
    }

    /// This driver's own `wm.*` counts, keyed by catalogue name.
    #[must_use]
    pub fn metrics(&self) -> clam_obs::MetricsSnapshot {
        self.counters.metrics()
    }
}

/// Build the mouse script for a sweep gesture: press at `from`, drag via
/// `steps` intermediate points, release at `to`. Shared by examples,
/// tests, and the sweep-placement ablation.
#[must_use]
pub fn sweep_script(from: Point, to: Point, steps: u32) -> Vec<InputEvent> {
    use crate::events::MouseButton;
    let mut script = vec![InputEvent::MouseDown(from, MouseButton::Left)];
    for i in 1..=steps {
        let t = f64::from(i) / f64::from(steps + 1);
        let x = from.x + ((f64::from(to.x - from.x)) * t) as i32;
        let y = from.y + ((f64::from(to.y - from.y)) * t) as i32;
        script.push(InputEvent::MouseMove(Point::new(x, y)));
    }
    script.push(InputEvent::MouseMove(to));
    script.push(InputEvent::MouseUp(to, MouseButton::Left));
    script
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::MouseButton;
    use parking_lot::Mutex;

    #[test]
    fn deliver_runs_the_sink_in_a_task() {
        let sched = Scheduler::new("input-test");
        let driver = InputDriver::new(&sched);
        let seen = Arc::new(Mutex::new(None));
        let s = Arc::clone(&seen);
        driver
            .deliver(InputEvent::Key(9), move |ev| {
                *s.lock() = Some(ev);
            })
            .join()
            .unwrap();
        assert_eq!(*seen.lock(), Some(InputEvent::Key(9)));
        assert_eq!(driver.events_delivered(), 1);
    }

    #[test]
    fn replay_preserves_script_order() {
        let sched = Scheduler::new("input-order");
        let driver = InputDriver::new(&sched);
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = Arc::clone(&log);
        let script: Vec<_> = (0..10).map(InputEvent::Key).collect();
        driver.replay(&script, move |ev| {
            if let InputEvent::Key(k) = ev {
                l.lock().push(k);
            }
        });
        assert_eq!(*log.lock(), (0..10).collect::<Vec<_>>());
        assert_eq!(driver.events_delivered(), 10);
    }

    #[test]
    fn sweep_script_has_press_moves_release() {
        let script = sweep_script(Point::new(0, 0), Point::new(10, 10), 3);
        assert_eq!(script.len(), 6); // down + 3 + final move + up
        assert!(matches!(
            script[0],
            InputEvent::MouseDown(_, MouseButton::Left)
        ));
        assert!(matches!(
            script.last(),
            Some(InputEvent::MouseUp(p, MouseButton::Left)) if *p == Point::new(10, 10)
        ));
        assert!(script[1..5]
            .iter()
            .all(|e| matches!(e, InputEvent::MouseMove(_))));
    }

    #[test]
    fn sweep_script_moves_are_monotonic() {
        let script = sweep_script(Point::new(0, 0), Point::new(100, 50), 9);
        let xs: Vec<i32> = script
            .iter()
            .filter_map(|e| match e {
                InputEvent::MouseMove(p) => Some(p.x),
                _ => None,
            })
            .collect();
        assert!(xs.windows(2).all(|w| w[0] <= w[1]), "x never reverses");
    }
}
