//! The base window manager — Figure 4.1's `BaseW`.
//!
//! `BaseW` receives raw events from the screen layer and "determines if
//! the mouse was inside any other windows and, if so, makes upcalls to
//! them" (section 4.2). Each window carries its own registration list
//! (the `postinput` registrations); events that land nowhere, or on a
//! window with no registrants, fall into the queue-or-discard policy of
//! section 4.1.
//!
//! Routing and invocation are deliberately split:
//! [`route_event`](WindowManager::route_event) mutates manager state (focus, raise) and
//! *selects* targets under the caller's lock; the returned
//! [`RoutedEvent::deliver`] performs the (possibly blocking, possibly
//! remote) upcalls after the lock is released. Holding a lock across a
//! distributed upcall would stall every other task that touches the
//! manager.

use crate::events::{EventQueue, InputEvent, OverflowPolicy};
use crate::geometry::{Point, Rect};
use crate::screen::Screen;
use crate::window::{Window, WindowId};
use clam_core::{UpcallRegistry, UpcallTarget};
use clam_rpc::RpcResult;

clam_obs::handles! {
    /// Raw input events routed by any window manager (`wm.events_routed`).
    fn obs_events_routed() -> Counter = counter("wm.events_routed");
}

clam_xdr::bundle_struct! {
    /// What an upcalled layer receives: the event plus which window (0 =
    /// desktop) it was routed to.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct WindowEvent {
        /// The window the event was routed to; id 0 means the desktop.
        pub window: WindowId,
        /// The event itself.
        pub event: InputEvent,
    }
}

struct ManagedWindow {
    window: Window,
    listeners: UpcallRegistry<WindowEvent, u32>,
}

/// Where a routed event ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Delivered to listeners of a window.
    Window(WindowId),
    /// Delivered to desktop listeners (hit no window).
    Desktop,
    /// No interested layer: queued for later (section 4.1).
    Queued,
    /// No interested layer and the queue was full: dropped.
    Dropped,
}

/// A routed event, ready for delivery outside the manager's lock.
pub struct RoutedEvent {
    /// Where the event was routed.
    pub disposition: Disposition,
    event: WindowEvent,
    targets: Vec<UpcallTarget<WindowEvent, u32>>,
}

impl std::fmt::Debug for RoutedEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutedEvent")
            .field("disposition", &self.disposition)
            .field("event", &self.event)
            .field("targets", &self.targets.len())
            .finish()
    }
}

impl RoutedEvent {
    /// Upcall every selected target in registration order, returning
    /// their replies. Call this *without* holding the manager lock.
    ///
    /// # Errors
    ///
    /// The first failing upcall aborts delivery.
    pub fn deliver(&self) -> RpcResult<Vec<u32>> {
        let mut replies = Vec::with_capacity(self.targets.len());
        for target in &self.targets {
            replies.push(target.invoke(self.event)?);
        }
        Ok(replies)
    }
}

/// The base window manager: windows in z-order, per-window registrations,
/// click-to-focus, event routing.
pub struct WindowManager {
    /// Bottom-to-top paint order; the last hit window wins routing.
    windows: Vec<ManagedWindow>,
    next_id: u64,
    desktop_listeners: UpcallRegistry<WindowEvent, u32>,
    unclaimed: EventQueue,
    focus: Option<WindowId>,
}

impl std::fmt::Debug for WindowManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowManager")
            .field("windows", &self.windows.len())
            .field("focus", &self.focus)
            .finish_non_exhaustive()
    }
}

impl Default for WindowManager {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowManager {
    /// An empty manager with a 64-event unclaimed queue.
    #[must_use]
    pub fn new() -> WindowManager {
        WindowManager {
            windows: Vec::new(),
            next_id: 1,
            desktop_listeners: UpcallRegistry::new(),
            unclaimed: EventQueue::new(64, OverflowPolicy::DropOldest),
            focus: None,
        }
    }

    /// Create a window on top of the stack.
    pub fn create_window(&mut self, frame: Rect, title: impl Into<String>) -> WindowId {
        let id = WindowId { id: self.next_id };
        self.next_id += 1;
        self.windows.push(ManagedWindow {
            window: Window::new(id, frame, title),
            listeners: UpcallRegistry::new(),
        });
        id
    }

    /// Destroy a window. Returns true if it existed.
    pub fn destroy_window(&mut self, id: WindowId) -> bool {
        let before = self.windows.len();
        self.windows.retain(|m| m.window.id() != id);
        if self.focus == Some(id) {
            self.focus = None;
        }
        self.windows.len() != before
    }

    /// Number of live windows.
    #[must_use]
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// Read access to a window.
    #[must_use]
    pub fn window(&self, id: WindowId) -> Option<&Window> {
        self.windows
            .iter()
            .find(|m| m.window.id() == id)
            .map(|m| &m.window)
    }

    /// Mutable access to a window.
    pub fn window_mut(&mut self, id: WindowId) -> Option<&mut Window> {
        self.windows
            .iter_mut()
            .find(|m| m.window.id() == id)
            .map(|m| &mut m.window)
    }

    /// Window ids bottom-to-top.
    #[must_use]
    pub fn stacking_order(&self) -> Vec<WindowId> {
        self.windows.iter().map(|m| m.window.id()).collect()
    }

    /// Raise a window to the top. Returns true if it existed.
    pub fn raise(&mut self, id: WindowId) -> bool {
        let Some(pos) = self.windows.iter().position(|m| m.window.id() == id) else {
            return false;
        };
        let w = self.windows.remove(pos);
        self.windows.push(w);
        true
    }

    /// The focused window, if any.
    #[must_use]
    pub fn focus(&self) -> Option<WindowId> {
        self.focus
    }

    /// Focus a window (and update highlight state). `None` clears focus.
    pub fn set_focus(&mut self, id: Option<WindowId>) {
        self.focus = id;
        for m in &mut self.windows {
            m.window.set_focused(Some(m.window.id()) == id);
        }
    }

    /// The topmost visible window containing `p`.
    #[must_use]
    pub fn window_at(&self, p: Point) -> Option<WindowId> {
        self.windows
            .iter()
            .rev()
            .find(|m| m.window.hit(p))
            .map(|m| m.window.id())
    }

    /// Register an upcall for a window's input (the paper's
    /// `W2.postinput`). Returns a registration id, or `None` for unknown
    /// windows.
    pub fn post_input(
        &mut self,
        id: WindowId,
        target: UpcallTarget<WindowEvent, u32>,
    ) -> Option<u64> {
        self.windows
            .iter_mut()
            .find(|m| m.window.id() == id)
            .map(|m| m.listeners.register(target))
    }

    /// Remove a window-input registration made by
    /// [`post_input`](WindowManager::post_input). Returns true if it
    /// existed.
    pub fn remove_input(&mut self, id: WindowId, registration: u64) -> bool {
        self.windows
            .iter_mut()
            .find(|m| m.window.id() == id)
            .is_some_and(|m| m.listeners.deregister(registration))
    }

    /// Register an upcall for events that hit no window (the paper's
    /// `S.postinput` at the base layer).
    pub fn post_desktop(&mut self, target: UpcallTarget<WindowEvent, u32>) -> u64 {
        self.desktop_listeners.register(target)
    }

    /// Route one raw event: mouse events go to the topmost window under
    /// the pointer (with click-to-focus and raise on button press);
    /// keyboard events go to the focused window. Select the upcall
    /// targets; deliver with [`RoutedEvent::deliver`] after releasing
    /// any lock around the manager.
    pub fn route_event(&mut self, event: InputEvent) -> RoutedEvent {
        obs_events_routed().inc();
        let hit = match event {
            InputEvent::Key(_) => self.focus,
            _ => event.position().and_then(|p| self.window_at(p)),
        };

        if let (InputEvent::MouseDown(..), Some(id)) = (event, hit) {
            self.set_focus(Some(id));
            self.raise(id);
        }

        match hit {
            Some(id) => {
                let m = self
                    .windows
                    .iter()
                    .find(|m| m.window.id() == id)
                    .expect("hit window exists");
                let wev = WindowEvent { window: id, event };
                let targets = m.listeners.snapshot();
                if targets.is_empty() {
                    self.queue_unclaimed(event, wev)
                } else {
                    RoutedEvent {
                        disposition: Disposition::Window(id),
                        event: wev,
                        targets,
                    }
                }
            }
            None => {
                let wev = WindowEvent {
                    window: WindowId { id: 0 },
                    event,
                };
                let targets = self.desktop_listeners.snapshot();
                if targets.is_empty() {
                    self.queue_unclaimed(event, wev)
                } else {
                    RoutedEvent {
                        disposition: Disposition::Desktop,
                        event: wev,
                        targets,
                    }
                }
            }
        }
    }

    fn queue_unclaimed(&mut self, event: InputEvent, wev: WindowEvent) -> RoutedEvent {
        let kept = self.unclaimed.push(event);
        RoutedEvent {
            disposition: if kept {
                Disposition::Queued
            } else {
                Disposition::Dropped
            },
            event: wev,
            targets: Vec::new(),
        }
    }

    /// Drain events that were queued for lack of listeners.
    pub fn take_unclaimed(&mut self) -> Vec<InputEvent> {
        let mut out = Vec::with_capacity(self.unclaimed.len());
        while let Some(ev) = self.unclaimed.pop() {
            out.push(ev);
        }
        out
    }

    /// Paint every window bottom-to-top onto the screen.
    pub fn draw_all(&self, screen: &mut Screen) {
        for m in &self.windows {
            m.window.draw(screen);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::MouseButton;
    use crate::geometry::Size;
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn manager_with_two_windows() -> (WindowManager, WindowId, WindowId) {
        let mut wm = WindowManager::new();
        let a = wm.create_window(Rect::new(0, 0, 50, 50), "a");
        let b = wm.create_window(Rect::new(25, 25, 50, 50), "b");
        (wm, a, b)
    }

    #[test]
    fn topmost_window_wins_hit_testing() {
        let (wm, a, b) = manager_with_two_windows();
        // Overlap region belongs to b (created later → on top).
        assert_eq!(wm.window_at(Point::new(30, 30)), Some(b));
        assert_eq!(wm.window_at(Point::new(5, 5)), Some(a));
        assert_eq!(wm.window_at(Point::new(200, 200)), None);
    }

    #[test]
    fn raise_reorders_the_stack() {
        let (mut wm, a, b) = manager_with_two_windows();
        assert!(wm.raise(a));
        assert_eq!(wm.window_at(Point::new(30, 30)), Some(a));
        assert_eq!(wm.stacking_order(), vec![b, a]);
        assert!(!wm.raise(WindowId { id: 99 }));
    }

    #[test]
    fn click_focuses_and_raises() {
        let (mut wm, a, _b) = manager_with_two_windows();
        let routed = wm.route_event(InputEvent::MouseDown(Point::new(5, 5), MouseButton::Left));
        // a was hit; with no listeners the event queues, but focus and
        // raise still applied.
        assert_eq!(routed.disposition, Disposition::Queued);
        assert_eq!(wm.focus(), Some(a));
        assert!(wm.window(a).unwrap().is_focused());
        assert_eq!(wm.stacking_order().last(), Some(&a));
    }

    #[test]
    fn events_route_to_window_listeners() {
        let (mut wm, _a, b) = manager_with_two_windows();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        wm.post_input(
            b,
            UpcallTarget::local(move |we: WindowEvent| {
                s.lock().push(we);
                Ok(1)
            }),
        )
        .unwrap();

        let routed = wm.route_event(InputEvent::MouseMove(Point::new(30, 30)));
        assert_eq!(routed.disposition, Disposition::Window(b));
        let replies = routed.deliver().unwrap();
        assert_eq!(replies, vec![1]);
        let seen = seen.lock();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].window, b);
    }

    #[test]
    fn desktop_listeners_catch_missed_events() {
        let mut wm = WindowManager::new();
        let seen = Arc::new(Mutex::new(0u32));
        let s = Arc::clone(&seen);
        wm.post_desktop(UpcallTarget::local(move |_we: WindowEvent| {
            *s.lock() += 1;
            Ok(0)
        }));
        let routed = wm.route_event(InputEvent::MouseMove(Point::new(9, 9)));
        assert_eq!(routed.disposition, Disposition::Desktop);
        routed.deliver().unwrap();
        assert_eq!(*seen.lock(), 1);
    }

    #[test]
    fn unclaimed_events_queue_and_drain() {
        let mut wm = WindowManager::new();
        let r1 = wm.route_event(InputEvent::Key(1));
        let r2 = wm.route_event(InputEvent::Key(2));
        assert_eq!(r1.disposition, Disposition::Queued);
        assert_eq!(r2.disposition, Disposition::Queued);
        assert_eq!(
            wm.take_unclaimed(),
            vec![InputEvent::Key(1), InputEvent::Key(2)]
        );
        assert!(wm.take_unclaimed().is_empty());
    }

    #[test]
    fn destroy_removes_window_and_focus() {
        let (mut wm, a, _b) = manager_with_two_windows();
        wm.set_focus(Some(a));
        assert!(wm.destroy_window(a));
        assert_eq!(wm.focus(), None);
        assert_eq!(wm.window_count(), 1);
        assert!(!wm.destroy_window(a));
        assert!(wm.window(a).is_none());
    }

    #[test]
    fn hidden_windows_are_skipped_by_routing() {
        let (mut wm, _a, b) = manager_with_two_windows();
        wm.window_mut(b).unwrap().set_visible(false);
        // The overlap point now routes to a (below).
        let hit = wm.window_at(Point::new(30, 30));
        assert_ne!(hit, Some(b));
    }

    #[test]
    fn draw_all_paints_in_stacking_order() {
        let (mut wm, _a, b) = manager_with_two_windows();
        let mut screen = Screen::new(Size::new(100, 100), 0x11);
        wm.window_mut(b).unwrap().set_background(0x22);
        wm.draw_all(&mut screen);
        // The overlap region shows b's client pixels (topmost).
        let c = wm.window(b).unwrap().client_area();
        assert_eq!(
            screen.pixel(Point::new(c.left() + 1, c.top() + 1)),
            Some(0x22)
        );
    }

    #[test]
    fn key_events_follow_focus() {
        let (mut wm, a, b) = manager_with_two_windows();
        let seen = Arc::new(Mutex::new(Vec::new()));
        for w in [a, b] {
            let s = Arc::clone(&seen);
            wm.post_input(
                w,
                UpcallTarget::local(move |we: WindowEvent| {
                    s.lock().push(we.window);
                    Ok(0)
                }),
            )
            .unwrap();
        }
        // No focus yet: keys are unclaimed.
        let routed = wm.route_event(InputEvent::Key(1));
        assert_eq!(routed.disposition, Disposition::Queued);
        // Focus a, type, focus b, type.
        wm.set_focus(Some(a));
        wm.route_event(InputEvent::Key(2)).deliver().unwrap();
        wm.set_focus(Some(b));
        wm.route_event(InputEvent::Key(3)).deliver().unwrap();
        assert_eq!(*seen.lock(), vec![a, b]);
    }

    #[test]
    fn post_input_to_unknown_window_is_none() {
        let mut wm = WindowManager::new();
        assert!(wm
            .post_input(WindowId { id: 9 }, UpcallTarget::local(|_| Ok(0)))
            .is_none());
    }
}
