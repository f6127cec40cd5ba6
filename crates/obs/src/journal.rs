//! Bounded per-process event journal with a JSON-lines dump.
//!
//! The journal is a preallocated ring of fixed-size [`Event`]s — no
//! strings, no per-record allocation — so recording from hot paths costs
//! one short mutex hold and a few word writes. When the ring fills, the
//! oldest events fall off; `total` keeps counting so a reader can tell
//! truncation happened.
//!
//! Events carry the [`TraceContext`] under which they occurred plus the
//! parent span, which is all a stitcher needs: dump the journals of two
//! processes with [`Journal::dump_to_path`], join on span ids, and the
//! client → server → upcall-back-into-client chain reads as one tree.

use crate::trace::{SpanId, TraceContext, TraceId};
use std::io::{self, Write};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// What happened at one instant of a span's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A sync call left the client stub (span = the call's new span).
    CallStart,
    /// The matching reply (or error) came back.
    CallEnd,
    /// A server began dispatching a received call (span = wire span).
    ServerDispatch,
    /// A distributed upcall left the server (span = the upcall's fresh
    /// span, parent = the server-side span that issued it). This is the
    /// record that carries the parent edge: the wire context holds only
    /// (trace, span), so the client cannot know the parent.
    UpcallSent,
    /// An upcall handler was entered (client side; span = wire span).
    UpcallEnter,
    /// The upcall handler returned.
    UpcallExit,
    /// The fault layer altered a frame's fate (`code` = fault kind).
    FaultInjected,
    /// A call or upcall deadline expired before its reply.
    DeadlineFired,
    /// A server's listener failed to accept a connection (`code` = the
    /// OS error number, 0 if it has none).
    AcceptError,
}

impl EventKind {
    /// Stable textual name used in the JSON dump.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::CallStart => "CallStart",
            EventKind::CallEnd => "CallEnd",
            EventKind::ServerDispatch => "ServerDispatch",
            EventKind::UpcallSent => "UpcallSent",
            EventKind::UpcallEnter => "UpcallEnter",
            EventKind::UpcallExit => "UpcallExit",
            EventKind::FaultInjected => "FaultInjected",
            EventKind::DeadlineFired => "DeadlineFired",
            EventKind::AcceptError => "AcceptError",
        }
    }

    /// Parse the form produced by [`EventKind::name`].
    #[must_use]
    pub fn from_name(s: &str) -> Option<EventKind> {
        Some(match s {
            "CallStart" => EventKind::CallStart,
            "CallEnd" => EventKind::CallEnd,
            "ServerDispatch" => EventKind::ServerDispatch,
            "UpcallSent" => EventKind::UpcallSent,
            "UpcallEnter" => EventKind::UpcallEnter,
            "UpcallExit" => EventKind::UpcallExit,
            "FaultInjected" => EventKind::FaultInjected,
            "DeadlineFired" => EventKind::DeadlineFired,
            "AcceptError" => EventKind::AcceptError,
            _ => return None,
        })
    }
}

/// One fixed-size journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Trace the event belongs to.
    pub trace: TraceId,
    /// Span the event belongs to.
    pub span: SpanId,
    /// Parent span within the trace ([`SpanId::NONE`] at the root).
    pub parent: SpanId,
    /// Microseconds since this process's journal was created.
    pub t_us: u64,
    /// Kind-specific detail: method number, procedure id, fault kind,
    /// status code.
    pub code: u32,
}

impl Event {
    /// Render as one JSON object (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"trace\":\"{}\",\"span\":\"{}\",\"parent\":\"{}\",\"t_us\":{},\"code\":{}}}",
            self.kind.name(),
            self.trace.to_hex(),
            self.span.to_hex(),
            self.parent.to_hex(),
            self.t_us,
            self.code
        )
    }

    /// Parse one line produced by [`Event::to_json`]. Tolerates extra
    /// whitespace; returns `None` for anything else.
    #[must_use]
    pub fn from_json_line(line: &str) -> Option<Event> {
        fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
            let pat = format!("\"{key}\":");
            let start = line.find(&pat)? + pat.len();
            let rest = line[start..].trim_start();
            if let Some(stripped) = rest.strip_prefix('"') {
                let end = stripped.find('"')?;
                Some(&stripped[..end])
            } else {
                let end = rest
                    .find(|c: char| !c.is_ascii_digit() && c != '-')
                    .unwrap_or(rest.len());
                Some(&rest[..end])
            }
        }
        Some(Event {
            kind: EventKind::from_name(field(line, "kind")?)?,
            trace: TraceId::from_hex(field(line, "trace")?)?,
            span: SpanId::from_hex(field(line, "span")?)?,
            parent: SpanId::from_hex(field(line, "parent")?)?,
            t_us: field(line, "t_us")?.parse().ok()?,
            code: field(line, "code")?.parse().ok()?,
        })
    }
}

struct Ring {
    buf: Vec<Event>,
    head: usize,
    total: u64,
}

/// A bounded ring of [`Event`]s. Normally accessed through the
/// process-global [`journal`]; separate instances exist for tests.
pub struct Journal {
    inner: Mutex<Ring>,
    capacity: usize,
    start: Instant,
}

impl Journal {
    /// Default ring capacity of the process-global journal.
    pub const DEFAULT_CAPACITY: usize = 8192;

    /// A journal retaining the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Journal {
        assert!(capacity > 0, "journal capacity must be nonzero");
        Journal {
            inner: Mutex::new(Ring {
                buf: Vec::with_capacity(capacity),
                head: 0,
                total: 0,
            }),
            capacity,
            start: Instant::now(),
        }
    }

    /// Record an event under `ctx` with parent span `parent`.
    pub fn record(&self, kind: EventKind, ctx: TraceContext, parent: SpanId, code: u32) {
        let t_us = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let ev = Event {
            kind,
            trace: ctx.trace,
            span: ctx.span,
            parent,
            t_us,
            code,
        };
        let mut ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        ring.total += 1;
        if ring.buf.len() < self.capacity {
            ring.buf.push(ev); // within preallocated capacity
        } else {
            let head = ring.head;
            ring.buf[head] = ev;
            ring.head = (head + 1) % self.capacity;
        }
    }

    /// All retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::with_capacity(ring.buf.len());
        out.extend_from_slice(&ring.buf[ring.head..]);
        out.extend_from_slice(&ring.buf[..ring.head]);
        out
    }

    /// Events ever recorded (≥ retained when the ring has wrapped).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).total
    }

    /// Write every retained event as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn dump_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for ev in self.events() {
            writeln!(w, "{}", ev.to_json())?;
        }
        Ok(())
    }

    /// Dump JSON lines to a file, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn dump_to_path<P: AsRef<std::path::Path>>(&self, path: P) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.dump_jsonl(&mut f)?;
        f.flush()
    }
}

/// The process-global journal all instrumentation points record into.
pub fn journal() -> &'static Journal {
    static GLOBAL: OnceLock<Journal> = OnceLock::new();
    GLOBAL.get_or_init(|| Journal::with_capacity(Journal::DEFAULT_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> TraceContext {
        TraceContext::new_root()
    }

    #[test]
    fn events_come_back_in_order() {
        let j = Journal::with_capacity(16);
        let c = ctx();
        for code in 0..5 {
            j.record(EventKind::CallStart, c, SpanId::NONE, code);
        }
        let evs = j.events();
        assert_eq!(evs.len(), 5);
        assert_eq!(
            evs.iter().map(|e| e.code).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(j.total(), 5);
    }

    #[test]
    fn ring_wraps_keeping_the_newest() {
        let j = Journal::with_capacity(4);
        let c = ctx();
        for code in 0..10 {
            j.record(EventKind::CallEnd, c, SpanId::NONE, code);
        }
        let evs = j.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(
            evs.iter().map(|e| e.code).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(j.total(), 10);
    }

    #[test]
    fn json_lines_round_trip() {
        let j = Journal::with_capacity(8);
        let c = ctx();
        let parent = SpanId(0xabc);
        j.record(EventKind::UpcallEnter, c, parent, 42);
        let mut out = Vec::new();
        j.dump_jsonl(&mut out).unwrap();
        let line = String::from_utf8(out).unwrap();
        let back = Event::from_json_line(line.trim()).expect("parses");
        assert_eq!(back.kind, EventKind::UpcallEnter);
        assert_eq!(back.trace, c.trace);
        assert_eq!(back.span, c.span);
        assert_eq!(back.parent, parent);
        assert_eq!(back.code, 42);
    }

    #[test]
    fn garbage_lines_do_not_parse() {
        assert!(Event::from_json_line("").is_none());
        assert!(Event::from_json_line("{\"kind\":\"Nope\"}").is_none());
        assert!(Event::from_json_line("not json at all").is_none());
    }

    #[test]
    fn every_kind_name_round_trips() {
        for kind in [
            EventKind::CallStart,
            EventKind::CallEnd,
            EventKind::ServerDispatch,
            EventKind::UpcallSent,
            EventKind::UpcallEnter,
            EventKind::UpcallExit,
            EventKind::FaultInjected,
            EventKind::DeadlineFired,
            EventKind::AcceptError,
        ] {
            assert_eq!(EventKind::from_name(kind.name()), Some(kind));
        }
    }
}
