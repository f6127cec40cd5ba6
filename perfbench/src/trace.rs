//! In-memory span recorder for the traced run.
//!
//! Spans are taken by the benchmark's own code around its calls into each
//! layer's public functions (and inside the benchmark's service and
//! upcall handler), never inside the program. Every span carries its
//! name, start, end, its parent span and an operation id shared by all
//! spans of one call, upcall trigger or batch round. The buffer is
//! allocated and made resident before timing starts, so recording costs
//! no allocation and adds no RSS growth; spans past its capacity are
//! counted and dropped. `write_jsonl` dumps everything at the end.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's base.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    /// Parent span id, 0 for a root.
    pub parent: u32,
    pub op: u64,
    pub start: u64,
    pub end: u64,
    /// True for spans of the main loop, false for the post-run probes.
    pub main: bool,
}

impl Span {
    #[must_use]
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

const EMPTY: Span = Span {
    name: "",
    id: 0,
    parent: 0,
    op: 0,
    start: 0,
    end: 0,
    main: false,
};

static ON: AtomicBool = AtomicBool::new(false);
static MAIN: AtomicBool = AtomicBool::new(true);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
/// The operation and parent span a call currently in flight belongs to,
/// published by the client so the service and handler (other threads of
/// this process) can attach their spans. The loop is closed: one
/// operation is in flight at a time.
static CUR_OP: AtomicU64 = AtomicU64::new(0);
static CUR_PARENT: AtomicU32 = AtomicU32::new(0);
/// Entry/exit stamps the service and handler leave for the client side.
pub static SVC_ENTRY: AtomicU64 = AtomicU64::new(0);
pub static SVC_EXIT: AtomicU64 = AtomicU64::new(0);
pub static HANDLER_ENTRY: AtomicU64 = AtomicU64::new(0);
pub static HANDLER_EXIT: AtomicU64 = AtomicU64::new(0);

fn base() -> Instant {
    static BASE: OnceLock<Instant> = OnceLock::new();
    *BASE.get_or_init(Instant::now)
}

fn buf() -> &'static Mutex<Vec<Span>> {
    static BUF: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    BUF.get_or_init(|| Mutex::new(Vec::new()))
}

/// Allocate room for `capacity` spans and make it resident.
pub fn install(capacity: usize) {
    let _ = base();
    let mut b = buf().lock().expect("trace buffer poisoned");
    *b = crate::stats::resident_vec(capacity, EMPTY);
    b.clear();
}

/// Turn recording on or off (the traced run alternates).
pub fn set_on(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Mark subsequent spans as main-loop (`true`) or probe (`false`).
pub fn set_main(main: bool) {
    MAIN.store(main, Ordering::Relaxed);
}

#[inline]
#[must_use]
pub fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Nanoseconds since the recorder's base instant.
#[inline]
#[must_use]
pub fn now() -> u64 {
    crate::stats::nanos(base().elapsed())
}

/// A fresh span id.
#[inline]
#[must_use]
pub fn new_id() -> u32 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Publish the operation and parent span of the call about to be made.
#[inline]
pub fn set_context(op: u64, parent: u32) {
    CUR_OP.store(op, Ordering::Relaxed);
    CUR_PARENT.store(parent, Ordering::Relaxed);
}

/// The published `(op, parent)`.
#[inline]
#[must_use]
pub fn context() -> (u64, u32) {
    (
        CUR_OP.load(Ordering::Relaxed),
        CUR_PARENT.load(Ordering::Relaxed),
    )
}

/// Record a finished span.
pub fn record(name: &'static str, id: u32, parent: u32, op: u64, start: u64, end: u64) {
    let mut b = buf().lock().expect("trace buffer poisoned");
    if b.len() == b.capacity() {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    b.push(Span {
        name,
        id,
        parent,
        op,
        start,
        end,
        main: MAIN.load(Ordering::Relaxed),
    });
}

/// Take every recorded span (leaves the buffer empty).
#[must_use]
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *buf().lock().expect("trace buffer poisoned"))
}

/// Spans that did not fit in the buffer.
#[must_use]
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Write spans as JSON lines.
///
/// # Errors
///
/// I/O errors writing `w`.
pub fn write_jsonl<W: Write>(w: &mut W, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{},\"phase\":\"{}\"}}",
            s.name,
            s.id,
            s.parent,
            s.op,
            s.start,
            s.end,
            if s.main { "main" } else { "probe" }
        )?;
    }
    Ok(())
}

/// Per-layer self time: each span's duration minus the part its direct
/// children cover, summed by layer (the span name up to the first `.`).
/// Returns `(layer, self_ns_total)` sorted by layer.
#[must_use]
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(&'static str, u64)> {
    use std::collections::{BTreeMap, HashMap};
    let mut child_ns: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur();
        }
    }
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let covered = child_ns.get(&s.id).copied().unwrap_or(0);
        *by_layer.entry(layer).or_default() += s.dur().saturating_sub(covered);
    }
    by_layer.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            id,
            parent,
            op: 1,
            start,
            end,
            main: true,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            span("bench.call", 1, 0, 0, 100),
            span("xdr.encode", 2, 1, 0, 10),
            span("rpc.call", 3, 1, 10, 90),
            span("svc.echo", 4, 3, 40, 50),
        ];
        let layers = self_time_by_layer(&spans);
        assert_eq!(
            layers,
            vec![("bench", 10), ("rpc", 70), ("svc", 10), ("xdr", 10)]
        );
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut out = Vec::new();
        write_jsonl(&mut out, &[span("a.b", 1, 0, 1, 2)]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"name\":\"a.b\""));
    }
}
