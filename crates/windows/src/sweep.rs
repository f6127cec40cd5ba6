//! The sweep layer — section 2.1's running example.
//!
//! "The code to sweep out a window is dynamically loaded into the CLAM
//! server … Low level input routines would perform an upcall to the
//! sweeping layer (module). This layer would process the event, redrawing
//! the window border with each new event. Events would be processed
//! quickly, since upcalls are basically procedure calls. When the user
//! finishes sweeping (indicated by pressing a mouse button), the sweeping
//! layer makes an upcall to the next layer, passing the single 'window
//! created' event."
//!
//! [`SweepLayer`] is that state machine. It consumes the per-move events
//! locally (rubber-banding on the screen) and emits exactly one upward
//! event at the end — the asynchrony-limiting pattern the paper
//! advertises. Where the layer lives (server or client) decides how many
//! events cross address spaces; Ablation B of the `ablations` bin
//! measures the difference.

use crate::events::{InputEvent, MouseButton};
use crate::geometry::{Point, Rect};
use crate::screen::{Pixel, Screen};
use clam_core::UpcallRegistry;
use clam_rpc::RpcResult;

/// XOR mask for the rubber-band outline.
pub const BAND_MASK: Pixel = 0x00ff_ffff;

/// Sweep options a client chooses by loading its preferred version of the
/// module ("Clients can decide the details of window creation and load an
/// appropriate version of the sweeping code").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Snap the swept rectangle to this grid (1 = no snapping).
    pub grid: u32,
    /// Draw the rubber band while dragging.
    pub show_band: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            grid: 1,
            show_band: true,
        }
    }
}

/// What the sweep produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepOutcome {
    /// Still idle or dragging; nothing to report upward.
    Pending,
    /// The sweep finished with this rectangle ("window created").
    Completed(Rect),
    /// The sweep was abandoned (released with zero area).
    Cancelled,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    Dragging { start: Point, band: Option<Rect> },
}

/// The sweeping state machine.
pub struct SweepLayer {
    state: State,
    options: SweepOptions,
    /// Registered "window created" listeners — the next layer up.
    completions: UpcallRegistry<Rect, u32>,
    moves_consumed: u64,
}

impl std::fmt::Debug for SweepLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepLayer")
            .field("state", &self.state)
            .field("options", &self.options)
            .field("moves_consumed", &self.moves_consumed)
            .finish_non_exhaustive()
    }
}

impl Default for SweepLayer {
    fn default() -> Self {
        Self::new(SweepOptions::default())
    }
}

impl SweepLayer {
    /// A sweep layer with the given options.
    #[must_use]
    pub fn new(options: SweepOptions) -> SweepLayer {
        SweepLayer {
            state: State::Idle,
            options,
            completions: UpcallRegistry::new(),
            moves_consumed: 0,
        }
    }

    /// Register the next layer's "window created" procedure (local or
    /// remote — the sweep layer cannot tell).
    pub fn on_complete(&self, target: clam_core::UpcallTarget<Rect, u32>) -> u64 {
        self.completions.register(target)
    }

    /// Is a drag in progress?
    #[must_use]
    pub fn is_dragging(&self) -> bool {
        matches!(self.state, State::Dragging { .. })
    }

    /// Mouse-move events consumed locally (never propagated upward) —
    /// the quantity the placement ablation counts.
    #[must_use]
    pub fn moves_consumed(&self) -> u64 {
        self.moves_consumed
    }

    fn snap(&self, r: Rect) -> Rect {
        let g = self.options.grid.max(1) as i32;
        let snap_down = |v: i32| (v.div_euclid(g)) * g;
        let snap_up = |v: i32| (v + g - 1).div_euclid(g) * g;
        let x0 = snap_down(r.left());
        let y0 = snap_down(r.top());
        let x1 = snap_up(r.right());
        let y1 = snap_up(r.bottom());
        Rect::new(x0, y0, (x1 - x0).max(0) as u32, (y1 - y0).max(0) as u32)
    }

    /// Snapshot the completion targets for delivery outside any lock
    /// protecting this layer (see [`wm`](crate::wm) on why locks must not
    /// be held across distributed upcalls).
    #[must_use]
    pub fn completion_targets(&self) -> Vec<clam_core::UpcallTarget<Rect, u32>> {
        self.completions.snapshot()
    }

    /// Make the single upward "window created" upcall for a completed
    /// sweep. [`handle_event_notifying`](SweepLayer::handle_event_notifying)
    /// calls this for you; callers holding locks should snapshot targets
    /// and invoke them after unlocking instead.
    ///
    /// # Errors
    ///
    /// Errors from upward listeners.
    pub fn notify_complete(&self, rect: Rect) -> RpcResult<()> {
        let _ = self.completions.post(&rect)?;
        Ok(())
    }

    /// Feed one input event and, if the sweep completed, immediately make
    /// the upward upcall. Convenient for purely local layering.
    ///
    /// # Errors
    ///
    /// Errors from upward listeners on completion.
    pub fn handle_event_notifying(
        &mut self,
        screen: &mut Screen,
        event: InputEvent,
    ) -> RpcResult<SweepOutcome> {
        let outcome = self.handle_event(screen, event);
        if let SweepOutcome::Completed(rect) = outcome {
            self.notify_complete(rect)?;
        }
        Ok(outcome)
    }

    /// Feed one input event. Mouse-down starts the sweep, moves rubber-
    /// band, mouse-up completes it. Returns what (if anything) finished.
    /// The caller delivers the completion upcall (directly via
    /// [`notify_complete`](SweepLayer::notify_complete), or after
    /// releasing its locks via
    /// [`completion_targets`](SweepLayer::completion_targets)).
    pub fn handle_event(&mut self, screen: &mut Screen, event: InputEvent) -> SweepOutcome {
        match (self.state, event) {
            (State::Idle, InputEvent::MouseDown(p, MouseButton::Left)) => {
                self.state = State::Dragging {
                    start: p,
                    band: None,
                };
                SweepOutcome::Pending
            }
            (State::Dragging { start, band }, InputEvent::MouseMove(p)) => {
                self.moves_consumed += 1;
                if self.options.show_band {
                    if let Some(old) = band {
                        screen.xor_rect(old, BAND_MASK); // erase old band
                    }
                    let new_band = Rect::from_corners(start, p);
                    screen.xor_rect(new_band, BAND_MASK);
                    self.state = State::Dragging {
                        start,
                        band: Some(new_band),
                    };
                } else {
                    self.state = State::Dragging {
                        start,
                        band: Some(Rect::from_corners(start, p)),
                    };
                }
                SweepOutcome::Pending
            }
            (State::Dragging { start, band }, InputEvent::MouseUp(p, MouseButton::Left)) => {
                if let (Some(old), true) = (band, self.options.show_band) {
                    screen.xor_rect(old, BAND_MASK); // erase final band
                }
                self.state = State::Idle;
                let raw = Rect::from_corners(start, p);
                if raw.is_empty() {
                    return SweepOutcome::Cancelled;
                }
                let swept = self.snap(raw);
                SweepOutcome::Completed(swept)
            }
            _ => SweepOutcome::Pending,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Size;
    use clam_core::UpcallTarget;
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn screen() -> Screen {
        Screen::new(Size::new(100, 100), 0)
    }

    fn drag(
        layer: &mut SweepLayer,
        screen: &mut Screen,
        from: Point,
        via: &[Point],
        to: Point,
    ) -> SweepOutcome {
        layer
            .handle_event_notifying(screen, InputEvent::MouseDown(from, MouseButton::Left))
            .unwrap();
        for &p in via {
            layer
                .handle_event_notifying(screen, InputEvent::MouseMove(p))
                .unwrap();
        }
        layer
            .handle_event_notifying(screen, InputEvent::MouseUp(to, MouseButton::Left))
            .unwrap()
    }

    #[test]
    fn a_drag_produces_one_completion_with_the_swept_rect() {
        let mut layer = SweepLayer::default();
        let mut s = screen();
        let completions = Arc::new(Mutex::new(Vec::new()));
        let c = Arc::clone(&completions);
        layer.on_complete(UpcallTarget::local(move |r: Rect| {
            c.lock().push(r);
            Ok(0)
        }));

        let outcome = drag(
            &mut layer,
            &mut s,
            Point::new(10, 10),
            &[Point::new(20, 15), Point::new(40, 30)],
            Point::new(40, 30),
        );
        assert_eq!(outcome, SweepOutcome::Completed(Rect::new(10, 10, 30, 20)));
        assert_eq!(*completions.lock(), vec![Rect::new(10, 10, 30, 20)]);
        assert_eq!(layer.moves_consumed(), 2, "moves were consumed locally");
        assert!(!layer.is_dragging());
    }

    #[test]
    fn rubber_band_leaves_no_residue() {
        let mut layer = SweepLayer::default();
        let mut s = screen();
        drag(
            &mut layer,
            &mut s,
            Point::new(5, 5),
            &[Point::new(30, 30), Point::new(50, 40), Point::new(20, 60)],
            Point::new(20, 60),
        );
        // Every XOR was undone: the screen is back to background.
        assert_eq!(s.count_pixels(0), 100 * 100);
    }

    #[test]
    fn zero_area_sweep_is_cancelled() {
        let mut layer = SweepLayer::default();
        let mut s = screen();
        let fired = Arc::new(Mutex::new(0u32));
        let f = Arc::clone(&fired);
        layer.on_complete(UpcallTarget::local(move |_r: Rect| {
            *f.lock() += 1;
            Ok(0)
        }));
        let outcome = drag(&mut layer, &mut s, Point::new(9, 9), &[], Point::new(9, 9));
        assert_eq!(outcome, SweepOutcome::Cancelled);
        assert_eq!(*fired.lock(), 0, "no upcall on cancel");
    }

    #[test]
    fn grid_snapping_rounds_outward() {
        let mut layer = SweepLayer::new(SweepOptions {
            grid: 8,
            show_band: false,
        });
        let mut s = screen();
        let outcome = drag(
            &mut layer,
            &mut s,
            Point::new(3, 5),
            &[],
            Point::new(18, 12),
        );
        assert_eq!(outcome, SweepOutcome::Completed(Rect::new(0, 0, 24, 16)));
    }

    #[test]
    fn sweep_from_any_corner_direction() {
        let mut layer = SweepLayer::new(SweepOptions {
            grid: 1,
            show_band: false,
        });
        let mut s = screen();
        let outcome = drag(
            &mut layer,
            &mut s,
            Point::new(40, 30),
            &[],
            Point::new(10, 10),
        );
        assert_eq!(outcome, SweepOutcome::Completed(Rect::new(10, 10, 30, 20)));
    }

    #[test]
    fn events_before_mousedown_are_ignored() {
        let mut layer = SweepLayer::default();
        let mut s = screen();
        assert_eq!(
            layer.handle_event(&mut s, InputEvent::MouseMove(Point::new(1, 1))),
            SweepOutcome::Pending
        );
        assert_eq!(
            layer.handle_event(
                &mut s,
                InputEvent::MouseUp(Point::new(1, 1), MouseButton::Left)
            ),
            SweepOutcome::Pending
        );
        assert_eq!(layer.moves_consumed(), 0);
    }

    #[test]
    fn right_button_does_not_start_a_sweep() {
        let mut layer = SweepLayer::default();
        let mut s = screen();
        layer.handle_event(
            &mut s,
            InputEvent::MouseDown(Point::new(1, 1), MouseButton::Right),
        );
        assert!(!layer.is_dragging());
    }
}
