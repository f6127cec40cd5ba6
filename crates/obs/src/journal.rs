//! Bounded per-process event journal with a JSON-lines dump.
//!
//! The journal keeps one preallocated ring of fixed-size [`Event`]s per
//! recording thread — no strings, no per-record allocation — so
//! recording from hot paths writes the calling thread's own ring under a
//! lock no other recording thread takes, and shares no cache line with
//! another recorder. A thread's first record takes a ring from the
//! journal's free list (or makes one), and the ring goes back to that
//! list when the thread exits, so the journal holds as many rings as it
//! ever had live recording threads. When a ring fills, its oldest events
//! fall off; `total` keeps counting so a reader can tell truncation
//! happened. Readers merge the rings oldest first by a nanosecond
//! timestamp taken from the journal's one start [`Instant`].
//!
//! Events carry the [`TraceContext`] under which they occurred plus the
//! parent span, which is all a stitcher needs: dump the journals of two
//! processes with [`Journal::dump_to_path`], join on span ids, and the
//! client → server → upcall-back-into-client chain reads as one tree.

use crate::trace::{SpanId, TraceContext, TraceId};
use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};
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

/// One recording thread's events, oldest at `head` once full. Aligned
/// so that the thread writing it shares no cache line with another
/// ring's writer.
#[repr(align(128))]
struct Ring {
    /// Each event with its nanoseconds since the journal's start.
    buf: Vec<(u64, Event)>,
    head: usize,
    total: u64,
}

impl Ring {
    fn push(&mut self, t_ns: u64, ev: Event, capacity: usize) {
        self.total += 1;
        if self.buf.len() < capacity {
            self.buf.push((t_ns, ev)); // within preallocated capacity
        } else {
            self.buf[self.head] = (t_ns, ev);
            self.head = (self.head + 1) % capacity;
        }
    }
}

/// Lock `m`, also after a panic: each update of a ring or a ring list
/// is one push, pop or store, so no panic leaves one torn.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every ring a journal has made, in the order it made them, and those
/// no live thread holds.
#[derive(Default)]
struct Rings {
    all: Vec<Arc<Mutex<Ring>>>,
    free: Vec<Arc<Mutex<Ring>>>,
}

struct Shared {
    rings: Mutex<Rings>,
    capacity: usize,
    start: Instant,
}

impl Shared {
    /// A free ring, or a new one when every ring is held.
    fn take(&self) -> Arc<Mutex<Ring>> {
        let mut rings = lock(&self.rings);
        rings.free.pop().unwrap_or_else(|| {
            let ring = Arc::new(Mutex::new(Ring {
                buf: Vec::with_capacity(self.capacity),
                head: 0,
                total: 0,
            }));
            rings.all.push(Arc::clone(&ring));
            ring
        })
    }

    fn give_back(&self, ring: Arc<Mutex<Ring>>) {
        lock(&self.rings).free.push(ring);
    }
}

/// A ring this thread holds in one journal, given back when the thread
/// exits.
struct Held {
    journal: Weak<Shared>,
    ring: Arc<Mutex<Ring>>,
}

impl Drop for Held {
    fn drop(&mut self) {
        if let Some(journal) = self.journal.upgrade() {
            journal.give_back(Arc::clone(&self.ring));
        }
    }
}

thread_local! {
    /// The rings this thread records into, one per journal.
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
}

/// A bounded journal of [`Event`]s, one ring per recording thread.
/// Normally accessed through the process-global [`journal`]; separate
/// instances exist for tests.
pub struct Journal {
    shared: Arc<Shared>,
}

impl Journal {
    /// Ring capacity of the process-global journal: the most recent
    /// events it keeps of each recording thread, in 128 KiB a ring.
    pub const DEFAULT_CAPACITY: usize = 2048;

    /// A journal retaining the most recent `capacity` events of each
    /// recording thread.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Journal {
        assert!(capacity > 0, "journal capacity must be nonzero");
        Journal {
            shared: Arc::new(Shared {
                rings: Mutex::default(),
                capacity,
                start: Instant::now(),
            }),
        }
    }

    /// Record an event under `ctx` with parent span `parent`, in the
    /// calling thread's ring.
    pub fn record(&self, kind: EventKind, ctx: TraceContext, parent: SpanId, code: u32) {
        let t_ns = u64::try_from(self.shared.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let ev = Event {
            kind,
            trace: ctx.trace,
            span: ctx.span,
            parent,
            t_us: t_ns / 1000,
            code,
        };
        let capacity = self.shared.capacity;
        let recorded = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            let mine = Arc::as_ptr(&self.shared);
            let ring = match held.iter().position(|h| h.journal.as_ptr() == mine) {
                Some(i) => &held[i].ring,
                None => {
                    held.retain(|h| h.journal.strong_count() > 0);
                    let ring = self.shared.take();
                    let journal = Arc::downgrade(&self.shared);
                    held.push(Held { journal, ring });
                    &held[held.len() - 1].ring
                }
            };
            lock(ring).push(t_ns, ev, capacity);
        });
        if recorded.is_err() {
            // The thread is exiting and has given its rings back.
            let ring = self.shared.take();
            lock(&ring).push(t_ns, ev, capacity);
            self.shared.give_back(ring);
        }
    }

    /// All retained events, oldest first. Events recorded in the same
    /// nanosecond keep the order of their rings, so each thread's events
    /// keep the order it recorded them in.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let mut all = Vec::new();
        for ring in &lock(&self.shared.rings).all {
            let ring = lock(ring);
            all.extend_from_slice(&ring.buf[ring.head..]);
            all.extend_from_slice(&ring.buf[..ring.head]);
        }
        all.sort_by_key(|&(t_ns, _)| t_ns); // stable
        all.into_iter().map(|(_, ev)| ev).collect()
    }

    /// Events ever recorded (≥ retained when a ring has wrapped).
    #[must_use]
    pub fn total(&self) -> u64 {
        let rings = lock(&self.shared.rings);
        rings.all.iter().map(|ring| lock(ring).total).sum()
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

    /// Rings `j` has made.
    fn rings(j: &Journal) -> usize {
        lock(&j.shared.rings).all.len()
    }

    /// `threads` threads record `each` events into `j` at once, each
    /// under its own trace and with codes 0, 1, …, all holding a ring
    /// before any records its second event; their traces.
    fn record_from_threads(j: &Arc<Journal>, threads: usize, each: u32) -> Vec<TraceId> {
        let start = Arc::new(std::sync::Barrier::new(threads));
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let (j, start) = (Arc::clone(j), Arc::clone(&start));
                std::thread::spawn(move || {
                    let c = ctx();
                    for code in 0..each {
                        j.record(EventKind::ServerDispatch, c, SpanId::NONE, code);
                        if code == 0 {
                            start.wait(); // every thread holds its ring
                        }
                    }
                    c.trace
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    }

    #[test]
    fn threads_record_into_rings_merged_in_time_order() {
        let j = Arc::new(Journal::with_capacity(10_000));
        let traces = record_from_threads(&j, 4, 10_000);
        assert_eq!(j.total(), 40_000);
        let evs = j.events();
        assert_eq!(evs.len(), 40_000);
        assert!(
            evs.windows(2).all(|w| w[0].t_us <= w[1].t_us),
            "oldest first"
        );
        for trace in traces {
            let codes: Vec<u32> = evs
                .iter()
                .filter(|e| e.trace == trace)
                .map(|e| e.code)
                .collect();
            assert_eq!(
                codes,
                (0..10_000).collect::<Vec<_>>(),
                "in its thread's order"
            );
        }
    }

    #[test]
    fn an_exited_threads_ring_serves_the_next_thread() {
        let j = Arc::new(Journal::with_capacity(64));
        record_from_threads(&j, 4, 100);
        assert_eq!(rings(&j), 4, "one ring per recording thread");
        record_from_threads(&j, 4, 100);
        assert_eq!(rings(&j), 4, "the new threads reuse the free rings");
        assert_eq!(j.total(), 800);
    }

    #[test]
    fn a_warm_thread_records_without_the_list_of_rings() {
        let j = Arc::new(Journal::with_capacity(16));
        let (go, wait) = std::sync::mpsc::channel();
        let (done, finished) = std::sync::mpsc::channel();
        let recorder = {
            let j = Arc::clone(&j);
            std::thread::spawn(move || {
                let c = ctx();
                j.record(EventKind::CallStart, c, SpanId::NONE, 0);
                done.send(()).unwrap();
                wait.recv().unwrap();
                for code in 1..=10_000 {
                    j.record(EventKind::CallEnd, c, SpanId::NONE, code);
                }
                done.send(()).unwrap();
            })
        };
        finished.recv().unwrap();
        {
            let _list = lock(&j.shared.rings);
            go.send(()).unwrap();
            let recorded = finished.recv_timeout(std::time::Duration::from_secs(30));
            assert!(recorded.is_ok(), "record waited for the list of rings");
        }
        recorder.join().unwrap();
        assert_eq!(j.total(), 10_001);
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
