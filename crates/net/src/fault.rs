//! Fault injection: a composable wrapper that misdelivers frames on
//! purpose.
//!
//! The paper's capability tags (section 3.5.1) and the reproduction's
//! deadline/retry machinery exist to survive peers and networks that
//! misbehave. This module makes misbehaviour *reproducible*: a
//! [`FaultPlan`] is a deterministic, seedable schedule of frame drops,
//! delays, duplications, and truncations, plus one-sided partitions and
//! forced disconnects. Wrapping is transport-agnostic — any [`Channel`]
//! (in-process, Unix, TCP, WAN) gains the same fault model, and the same
//! seed replays the same fault sequence, so a red CI soak run is
//! reproducible locally from its seed alone.
//!
//! Faults are applied on the *send* side of the wrapped channel, which
//! makes every fault naturally one-sided: wrap the client end to break
//! the client→server direction, the server end for the reverse, or both
//! ends for a symmetric disaster. Truncation corrupts the payload but
//! keeps the framing valid, so stream transports stay parseable and the
//! peer observes a well-framed-but-garbage message (the protocol-violation
//! path), never a wedged length prefix.
//!
//! A frame's fate is one function of the seed and the frame sequence:
//! first the scripted disconnect and partition thresholds, then the four
//! chances, the hold and the truncation point. The wrapped writer calls
//! it for each frame and only counts, journals and delivers what it
//! returns; [`FaultPlan::planned_fates`] replays the same function without
//! a channel, so the replay cannot drift from the writer it checks.
//!
//! A plan's fixed [`latency`](FaultPlan::latency) is the one exception:
//! it holds each frame the wrapped end *receives*, where reads wait,
//! outside any scheduler's baton. A random delay's hold waits in
//! [`MsgWriter::finish_send`], which a task's sender runs there too.

use crate::channel::{Channel, Closer, MsgReader, MsgWriter};
use crate::error::{NetError, NetResult};
use crate::frame::Frame;
use clam_xdr::BufferPool;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A deterministic, seedable schedule of transport faults.
///
/// Probabilities are per frame, drawn independently in a fixed order
/// (drop, delay, duplicate, truncate) from the SplitMix64 stream
/// ([`clam_obs::splitmix64`]) that starts at [`FaultPlan::seed`] — the
/// same seed always produces the same fault sequence for the same frame
/// sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault RNG. Equal seeds replay equal fault sequences.
    pub seed: u64,
    /// Probability a frame is silently discarded.
    pub drop: f64,
    /// Probability a frame is held back before delivery.
    pub delay: f64,
    /// Upper bound of the uniform random hold applied to delayed frames.
    pub max_delay: Duration,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a frame's payload is truncated (well-framed garbage).
    pub truncate: f64,
    /// After this many offered frames, black-hole every send (a one-sided
    /// partition: the other direction keeps working).
    pub partition_after: Option<u64>,
    /// After this many offered frames, close the send side for good:
    /// further sends fail with [`NetError::Closed`] and the inner writer
    /// is dropped, so the peer's reader observes the hangup.
    pub disconnect_after: Option<u64>,
    /// Fixed hold of every frame the wrapped end receives: a network's
    /// one-way latency. It draws nothing from the fault RNG.
    pub latency: Duration,
}

impl Default for FaultPlan {
    /// No faults, seed 1 (deterministic but benign).
    fn default() -> Self {
        FaultPlan {
            seed: 1,
            drop: 0.0,
            delay: 0.0,
            max_delay: Duration::ZERO,
            duplicate: 0.0,
            truncate: 0.0,
            partition_after: None,
            disconnect_after: None,
            latency: Duration::ZERO,
        }
    }
}

impl FaultPlan {
    /// A benign plan with the fault RNG pinned to `seed`.
    #[must_use]
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Drop every frame (the classic black hole).
    #[must_use]
    pub fn black_hole(mut self) -> FaultPlan {
        self.drop = 1.0;
        self
    }

    /// Drop frames with probability `p`.
    #[must_use]
    pub fn drop_frames(mut self, p: f64) -> FaultPlan {
        self.drop = p;
        self
    }

    /// Delay frames with probability `p` by up to `max`.
    #[must_use]
    pub fn delay_frames(mut self, p: f64, max: Duration) -> FaultPlan {
        self.delay = p;
        self.max_delay = max;
        self
    }

    /// Duplicate frames with probability `p`.
    #[must_use]
    pub fn duplicate_frames(mut self, p: f64) -> FaultPlan {
        self.duplicate = p;
        self
    }

    /// Truncate frame payloads with probability `p`.
    #[must_use]
    pub fn truncate_frames(mut self, p: f64) -> FaultPlan {
        self.truncate = p;
        self
    }

    /// Black-hole all sends after `n` offered frames.
    #[must_use]
    pub fn partition_after(mut self, n: u64) -> FaultPlan {
        self.partition_after = Some(n);
        self
    }

    /// Force-close the send side after `n` offered frames.
    #[must_use]
    pub fn disconnect_after(mut self, n: u64) -> FaultPlan {
        self.disconnect_after = Some(n);
        self
    }

    /// Hold each received frame for `latency` before delivering it.
    #[must_use]
    pub fn with_latency(mut self, latency: Duration) -> FaultPlan {
        self.latency = latency;
        self
    }

    /// Replay, without any channel, the fates this plan deals to a frame
    /// sequence with the given payload lengths.
    ///
    /// This is the *pure function* the module docs promise: a loop over
    /// the one function that decides each frame's fate, which the live
    /// [`FaultyChannel`] calls for every frame it sends. For the same seed
    /// and the same frame sequence the returned fates are exactly what a
    /// wrapped channel would do — which is how tests prove the fault
    /// *metrics* correct rather than merely present. Payload lengths
    /// matter because empty payloads skip the truncation draw.
    #[must_use]
    pub fn planned_fates(&self, payload_lens: &[usize]) -> Vec<FrameFate> {
        let mut fates = Fates {
            plan: *self,
            draws: 0,
            offered: 0,
        };
        let (mut partitioned, mut disconnected) = (false, false);
        let fate = |&len: &usize| {
            let f = fates.next(len, partitioned, disconnected).0;
            (partitioned, disconnected) = (f.partitioned, f.disconnected);
            f
        };
        payload_lens.iter().map(fate).collect()
    }

    /// Fold [`FaultPlan::planned_fates`] into the reading
    /// [`FaultHandle::metrics`] would give after sending the same
    /// sequence.
    #[must_use]
    pub fn planned_stats(&self, payload_lens: &[usize]) -> clam_obs::MetricsSnapshot {
        let fates = self.planned_fates(payload_lens);
        let delivered = fates.iter().map(FrameFate::delivered_copies).sum();
        // The number of fates that are so.
        let n = |so: fn(&FrameFate) -> bool| fates.iter().filter(|f| so(f)).count() as u64;
        clam_obs::MetricsSnapshot::from_counters([
            ("net.fault.offered", n(|f| f.offered)),
            ("net.fault.drop", n(|f| f.dropped && !f.partitioned)),
            ("net.fault.delay", n(|f| f.delayed)),
            ("net.fault.duplicate", n(|f| f.duplicated)),
            ("net.fault.truncate", n(|f| f.truncated)),
            ("net.fault.partition", n(|f| f.partitioned)),
            ("net.fault.disconnect", n(|f| f.offered && f.disconnected)),
            ("net.fault.delivered", delivered),
        ])
    }
}

/// The fate one offered frame receives under a [`FaultPlan`], as
/// replayed by [`FaultPlan::planned_fates`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameFate {
    /// The frame reached the fault layer (counted in
    /// `net.fault.offered`). False only once a disconnect has already
    /// closed the writer.
    pub offered: bool,
    /// Silently discarded — by the random drop draw or by a partition.
    pub dropped: bool,
    /// Held back before delivery.
    pub delayed: bool,
    /// Delivered twice.
    pub duplicated: bool,
    /// Delivered with a truncated payload.
    pub truncated: bool,
    /// The discard came from a partition black-hole (subset of
    /// `dropped`).
    pub partitioned: bool,
    /// The send failed with `Closed` (scripted or sticky disconnect).
    pub disconnected: bool,
}

impl FrameFate {
    /// Copies of this frame the inner transport carries (0, 1, or 2).
    #[must_use]
    pub fn delivered_copies(&self) -> u64 {
        if self.dropped || self.disconnected {
            0
        } else if self.duplicated {
            2
        } else {
            1
        }
    }
}

/// The one decision of the fault layer: the fate of each frame a plan
/// sees, in order. The live writer and [`FaultPlan::planned_fates`] both
/// run it.
struct Fates {
    plan: FaultPlan,
    /// Draws taken from the plan's SplitMix64 stream.
    draws: u64,
    /// Frames offered to the fault layer.
    offered: u64,
}

impl Fates {
    fn draw(&mut self) -> u64 {
        self.draws += 1;
        clam_obs::splitmix64(self.plan.seed, self.draws)
    }

    /// True with probability `p`, from the top 53 bits of one draw; no
    /// draw for `p <= 0` or `p >= 1`.
    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 || p >= 1.0 {
            return p >= 1.0;
        }
        ((self.draw() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Uniform in `0..span`: two draws, high word first, reduced modulo
    /// `span`.
    fn below(&mut self, span: u128) -> u128 {
        let high = u128::from(self.draw()) << 64;
        (high | u128::from(self.draw())) % span
    }

    /// The fate of the next frame, of `len` payload bytes, on a link whose
    /// flags (which a [`FaultHandle`] also sets) read `partitioned` and
    /// `disconnected`; with it, the hold of a delayed frame and the
    /// payload length a truncated one keeps. First the scripted
    /// thresholds; then the four chances, the hold and the truncation
    /// point, each conditional draw skipped unless its frame is delivered.
    #[allow(clippy::cast_possible_truncation)]
    fn next(
        &mut self,
        len: usize,
        partitioned: bool,
        disconnected: bool,
    ) -> (FrameFate, Duration, usize) {
        let mut frame = FrameFate {
            offered: !disconnected,
            disconnected,
            ..FrameFate::default()
        };
        let (mut hold, mut keep) = (Duration::ZERO, len);
        if !disconnected {
            self.offered += 1;
            let n = self.offered;
            let plan = self.plan;
            // A partition begins on crossing its threshold; a heal lifts it.
            if plan.disconnect_after.is_some_and(|limit| n > limit) {
                frame.disconnected = true;
            } else if partitioned || plan.partition_after.is_some_and(|limit| n == limit + 1) {
                frame.dropped = true;
                frame.partitioned = true;
            } else {
                frame.dropped = self.chance(plan.drop);
                let delayed = self.chance(plan.delay);
                frame.duplicated = self.chance(plan.duplicate) && !frame.dropped;
                let truncated = self.chance(plan.truncate);
                frame.delayed = !frame.dropped && delayed && !plan.max_delay.is_zero();
                if frame.delayed {
                    hold = Duration::from_micros(self.below(plan.max_delay.as_micros() + 1) as u64);
                }
                frame.truncated = !frame.dropped && truncated && len > 0;
                if frame.truncated {
                    keep = self.below(len as u128) as usize;
                }
            }
        }
        (frame, hold, keep)
    }
}

clam_obs::counters! {
    /// One faulty link's counts.
    #[derive(Debug)]
    struct FaultCounters {
        /// Frames handed to the faulty writer.
        offered: "net.fault.offered",
        /// Frames the random draw dropped (a partition's are `partition`).
        drop: "net.fault.drop",
        delay: "net.fault.delay",
        duplicate: "net.fault.duplicate",
        truncate: "net.fault.truncate",
        partition: "net.fault.partition",
        /// Scripted disconnects.
        disconnect: "net.fault.disconnect",
        /// Frames passed to the inner transport (duplicates count).
        delivered: "net.fault.delivered",
    }
}

#[derive(Debug)]
struct FaultState {
    counters: FaultCounters,
    partitioned: AtomicBool,
    disconnected: AtomicBool,
}

/// Live control over a wrapped channel: force partitions and disconnects
/// at test-chosen moments, and read the link's fault counters.
#[derive(Debug, Clone)]
pub struct FaultHandle {
    state: Arc<FaultState>,
}

impl FaultHandle {
    /// Black-hole all subsequent sends (until [`heal`](FaultHandle::heal)).
    pub fn partition(&self) {
        self.state.partitioned.store(true, Ordering::Release);
    }

    /// Lift a partition: subsequent sends flow again.
    pub fn heal(&self) {
        self.state.partitioned.store(false, Ordering::Release);
    }

    /// Close the send side for good; the peer's reader observes a hangup
    /// once the inner writer is dropped on the next send attempt.
    pub fn disconnect(&self) {
        self.state.disconnected.store(true, Ordering::Release);
    }

    /// Is the channel currently partitioned?
    #[must_use]
    pub fn is_partitioned(&self) -> bool {
        self.state.partitioned.load(Ordering::Acquire)
    }

    /// Has the channel been force-disconnected?
    #[must_use]
    pub fn is_disconnected(&self) -> bool {
        self.state.disconnected.load(Ordering::Acquire)
    }

    /// This link's fault counts, keyed by catalogue name
    /// (`net.fault.offered`, `.delivered`, and one per fault kind).
    #[must_use]
    pub fn metrics(&self) -> clam_obs::MetricsSnapshot {
        self.state.counters.metrics()
    }
}

/// Journal codes carried by `FaultInjected` events, one per fault kind
/// (mirrored by the `net.fault.*` counters).
pub const FAULT_CODE_DROP: u32 = 1;
/// Journal code for an injected delay.
pub const FAULT_CODE_DELAY: u32 = 2;
/// Journal code for an injected duplicate.
pub const FAULT_CODE_DUPLICATE: u32 = 3;
/// Journal code for an injected truncation.
pub const FAULT_CODE_TRUNCATE: u32 = 4;
/// Journal code for a partition black-hole discard.
pub const FAULT_CODE_PARTITION: u32 = 5;
/// Journal code for a (scripted or forced) disconnect.
pub const FAULT_CODE_DISCONNECT: u32 = 6;

fn journal_fault(code: u32) {
    clam_obs::journal().record(
        clam_obs::EventKind::FaultInjected,
        clam_obs::current(),
        clam_obs::SpanId::NONE,
        code,
    );
}

struct FaultyWriter {
    inner: Option<Box<dyn MsgWriter>>,
    fates: Fates,
    state: Arc<FaultState>,
    /// Copies drawn for delivery that the inner writer has not taken yet,
    /// in order, and when a delayed frame's hold ends.
    held: VecDeque<Frame>,
    hold_until: Option<Instant>,
}

impl MsgWriter for FaultyWriter {
    fn send(&mut self, frame: Frame) -> NetResult<()> {
        if !self.start_send(frame)? {
            self.finish_send()?;
        }
        Ok(())
    }

    /// Deals `frame` its fate. Returns `false` for a delayed frame, which
    /// waits out its hold in [`finish_send`](MsgWriter::finish_send), and
    /// when the inner writer stops at a full buffer.
    fn start_send(&mut self, frame: Frame) -> NetResult<bool> {
        self.finish_send()?;
        let state = &self.state;
        let partitioned = state.partitioned.load(Ordering::Acquire);
        let disconnected = state.disconnected.load(Ordering::Acquire);
        let len = frame.payload().len();
        let (f, hold, keep) = self.fates.next(len, partitioned, disconnected);
        let c = &state.counters;
        c.offered.add(u64::from(f.offered));
        for (dealt, counter, code) in [
            (
                f.offered && f.disconnected,
                &c.disconnect,
                FAULT_CODE_DISCONNECT,
            ),
            (f.partitioned, &c.partition, FAULT_CODE_PARTITION),
            (f.dropped && !f.partitioned, &c.drop, FAULT_CODE_DROP),
            (f.delayed, &c.delay, FAULT_CODE_DELAY),
            (f.truncated, &c.truncate, FAULT_CODE_TRUNCATE),
            (f.duplicated, &c.duplicate, FAULT_CODE_DUPLICATE),
        ] {
            if dealt {
                counter.inc();
                journal_fault(code);
            }
        }
        c.delivered.add(f.delivered_copies());

        if f.disconnected {
            state.disconnected.store(true, Ordering::Release);
            self.inner = None; // drop the writer: the peer sees the hangup
            return Err(NetError::Closed);
        }
        if f.partitioned && !partitioned {
            state.partitioned.store(true, Ordering::Release);
        }
        if f.dropped {
            return Ok(true); // a black hole: the sender never learns
        }
        if f.delayed {
            self.hold_until = Some(Instant::now() + hold);
        }
        let frame = if f.truncated {
            Frame::from_payload(&frame.payload()[..keep])?
        } else {
            frame
        };
        if f.duplicated {
            self.held.push_back(frame.clone());
        }
        self.held.push_back(frame);
        if self.hold_until.is_some() {
            return Ok(false);
        }
        let inner = self.inner.as_mut().ok_or(NetError::Closed)?;
        while let Some(frame) = self.held.pop_front() {
            if !inner.start_send(frame)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn finish_send(&mut self) -> NetResult<()> {
        if let Some(until) = self.hold_until.take() {
            std::thread::sleep(until.saturating_duration_since(Instant::now()));
        }
        let Some(inner) = &mut self.inner else {
            return Ok(());
        };
        inner.finish_send()?;
        while let Some(frame) = self.held.pop_front() {
            inner.send(frame)?;
        }
        Ok(())
    }
}

/// Holds each received frame until the plan's latency has passed since
/// it arrived, so frames that arrive together are held once, together.
struct FaultyReader {
    inner: Box<dyn MsgReader>,
    latency: Duration,
    /// Frames received and not yet delivered, each with when it is due.
    held: VecDeque<(Instant, Frame)>,
    /// How the inner reader ended, to report after the held frames.
    failed: Option<NetError>,
}

impl FaultyReader {
    /// The next frame, once it is due; `None` if none arrived by
    /// `deadline`. A frame that arrived in time is delivered even if its
    /// hold runs past the deadline. While it is held, the frames behind
    /// it are read and held too.
    fn next(&mut self, deadline: Option<Instant>) -> NetResult<Option<Frame>> {
        if self.held.is_empty() {
            if let Some(e) = self.failed.take() {
                return Err(e);
            }
            let frame = match deadline {
                None => self.inner.recv()?,
                Some(at) => match self.inner.recv_until(at)? {
                    Some(frame) => frame,
                    None => return Ok(None),
                },
            };
            self.held.push_back((Instant::now() + self.latency, frame));
        }
        let due = self.held[0].0;
        while self.failed.is_none() {
            match self.inner.recv_until(due) {
                Ok(Some(frame)) => self.held.push_back((Instant::now() + self.latency, frame)),
                Ok(None) => break,
                Err(e) => self.failed = Some(e),
            }
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        Ok(self.held.pop_front().map(|(_, frame)| frame))
    }
}

impl MsgReader for FaultyReader {
    fn recv(&mut self) -> NetResult<Frame> {
        self.next(None)?.ok_or(NetError::Closed)
    }

    fn recv_until(&mut self, deadline: Instant) -> NetResult<Option<Frame>> {
        self.next(Some(deadline))
    }

    fn closer(&self) -> Closer {
        self.inner.closer()
    }

    fn attach_pool(&mut self, pool: &BufferPool) {
        self.inner.attach_pool(pool);
    }
}

/// Wrapper that injects a [`FaultPlan`] into a channel's send direction,
/// and the plan's latency into its receive direction.
///
/// Composable over every transport: the wrapped thing is a [`Channel`],
/// so inproc, Unix, TCP, and WAN channels all take faults the same way,
/// and wrapping the two ends independently yields asymmetric failures.
pub struct FaultyChannel;

impl FaultyChannel {
    /// Wrap `channel`, applying `plan` to everything it sends. Receives
    /// pass through untouched (wrap the peer for the other direction),
    /// apart from the plan's latency.
    ///
    /// Returns the wrapped channel and a [`FaultHandle`] for runtime
    /// control (forced partitions/disconnects) and fault counters.
    #[must_use]
    pub fn wrap(channel: Channel, plan: FaultPlan) -> (Channel, FaultHandle) {
        let label = format!("faulty-{}", channel.label());
        let (writer, reader) = channel.split();
        let state = Arc::new(FaultState {
            counters: FaultCounters::register(),
            partitioned: AtomicBool::new(false),
            disconnected: AtomicBool::new(false),
        });
        let handle = FaultHandle {
            state: Arc::clone(&state),
        };
        let writer = Box::new(FaultyWriter {
            inner: Some(writer),
            fates: Fates {
                plan,
                draws: 0,
                offered: 0,
            },
            state,
            held: VecDeque::new(),
            hold_until: None,
        });
        let reader = if plan.latency.is_zero() {
            reader
        } else {
            Box::new(FaultyReader {
                inner: reader,
                latency: plan.latency,
                held: VecDeque::new(),
                failed: None,
            })
        };
        (Channel::from_halves(label, writer, reader), handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::pair;

    /// The link's own count of `net.fault.{name}`.
    fn count(handle: &FaultHandle, name: &str) -> u64 {
        handle.metrics().counter(&format!("net.fault.{name}"))
    }

    #[test]
    fn benign_plan_passes_frames_through() {
        let (a, mut b) = pair();
        let (mut a, handle) = FaultyChannel::wrap(a, FaultPlan::seeded(3));
        a.send(b"one").unwrap();
        a.send(b"two").unwrap();
        assert_eq!(b.recv().unwrap(), b"one");
        assert_eq!(b.recv().unwrap(), b"two");
        let counts = ["offered", "delivered", "drop"].map(|n| count(&handle, n));
        assert_eq!(counts, [2, 2, 0]);
        assert!(format!("{a:?}").contains("faulty-"));
    }

    #[test]
    fn black_hole_swallows_everything_silently() {
        let (a, mut b) = pair();
        let (mut a, handle) = FaultyChannel::wrap(a, FaultPlan::seeded(3).black_hole());
        for _ in 0..5 {
            a.send(b"gone").unwrap(); // sender sees success
        }
        // Nothing arrived: the peer would block, so check via stats.
        let counts = ["offered", "drop", "delivered"].map(|n| count(&handle, n));
        assert_eq!(counts, [5, 5, 0]);
        drop(a);
        assert!(b.recv().unwrap_err().is_closed());
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let run = |seed: u64| -> Vec<bool> {
            let (a, mut b) = pair();
            let (mut a, _h) = FaultyChannel::wrap(a, FaultPlan::seeded(seed).drop_frames(0.5));
            for i in 0..32u8 {
                a.send(&[i][..]).unwrap();
            }
            drop(a);
            let mut arrived = vec![false; 32];
            while let Ok(frame) = b.recv() {
                arrived[frame.payload()[0] as usize] = true;
            }
            arrived
        };
        assert_eq!(run(42), run(42), "same seed replays the same drops");
        assert_ne!(run(42), run(43), "different seeds diverge");
        let survivors = run(42).iter().filter(|&&x| x).count();
        assert!((4..=28).contains(&survivors), "p=0.5 drops roughly half");
    }

    #[test]
    fn duplicates_arrive_twice() {
        let (a, mut b) = pair();
        let (mut a, handle) = FaultyChannel::wrap(a, FaultPlan::seeded(9).duplicate_frames(1.0));
        a.send(b"twin").unwrap();
        assert_eq!(b.recv().unwrap(), b"twin");
        assert_eq!(b.recv().unwrap(), b"twin");
        assert_eq!(count(&handle, "duplicate"), 1);
        assert_eq!(count(&handle, "delivered"), 2);
    }

    #[test]
    fn truncation_keeps_framing_valid() {
        let (a, mut b) = pair();
        let (mut a, handle) = FaultyChannel::wrap(a, FaultPlan::seeded(5).truncate_frames(1.0));
        a.send(b"a-long-enough-payload").unwrap();
        let got = b.recv().unwrap();
        assert!(got.payload().len() < b"a-long-enough-payload".len());
        assert!(b"a-long-enough-payload".starts_with(got.payload()));
        assert_eq!(count(&handle, "truncate"), 1);
    }

    #[test]
    fn partition_after_n_black_holes_the_rest() {
        let (a, mut b) = pair();
        let (mut a, handle) = FaultyChannel::wrap(a, FaultPlan::seeded(1).partition_after(2));
        a.send(b"1").unwrap();
        a.send(b"2").unwrap();
        a.send(b"3").unwrap(); // black-holed
        assert!(handle.is_partitioned());
        assert_eq!(b.recv().unwrap(), b"1");
        assert_eq!(b.recv().unwrap(), b"2");
        let dropped = ["drop", "partition"].map(|n| count(&handle, n));
        assert_eq!(dropped, [0, 1]);
        // One-sided: the reverse direction still works.
        b.send(b"back").unwrap();
        assert_eq!(a.recv().unwrap(), b"back");
        // heal() restores the forward direction.
        handle.heal();
        a.send(b"4").unwrap();
        assert_eq!(b.recv().unwrap(), b"4");
    }

    #[test]
    fn forced_disconnect_closes_both_views() {
        let (a, mut b) = pair();
        let (mut a, handle) = FaultyChannel::wrap(a, FaultPlan::seeded(1).disconnect_after(1));
        a.send(b"last words").unwrap();
        assert!(a.send(b"too late").unwrap_err().is_closed());
        assert!(handle.is_disconnected());
        assert_eq!(b.recv().unwrap(), b"last words");
        assert!(b.recv().unwrap_err().is_closed(), "peer sees the hangup");
    }

    #[test]
    fn handle_can_disconnect_mid_stream() {
        let (a, mut b) = pair();
        let (mut a, handle) = FaultyChannel::wrap(a, FaultPlan::seeded(1));
        a.send(b"ok").unwrap();
        handle.disconnect();
        assert!(a.send(b"dead").unwrap_err().is_closed());
        assert_eq!(b.recv().unwrap(), b"ok");
        assert!(b.recv().unwrap_err().is_closed());
    }

    #[test]
    fn planned_stats_replay_matches_a_live_channel_exactly() {
        // A plan exercising every randomized fault kind at once. Payload
        // lengths vary (including an empty one, which skips the
        // truncation draw) to stress the RNG-stream bookkeeping.
        let plan = FaultPlan::seeded(1234)
            .drop_frames(0.3)
            .delay_frames(0.2, Duration::from_micros(50))
            .duplicate_frames(0.25)
            .truncate_frames(0.4);
        let payloads: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; usize::from(i) % 7 * 3]).collect();
        let lens: Vec<usize> = payloads.iter().map(Vec::len).collect();

        let (a, b) = pair();
        let (mut a, handle) = FaultyChannel::wrap(a, plan);
        for p in &payloads {
            a.send(&p[..]).unwrap();
        }
        assert_eq!(
            handle.metrics(),
            plan.planned_stats(&lens),
            "the pure replay must predict the live counters exactly"
        );
        drop(b);
    }

    #[test]
    fn one_seeds_fates_and_truncation_points_are_pinned() {
        // Every random kind at once, then a partition, over lengths that
        // include empty payloads (which skip the truncation draw). The
        // strings are this seed's fault sequence: a change to the draw
        // order, the mixing or the reductions shows here.
        let plan = FaultPlan::seeded(2024)
            .drop_frames(0.2)
            .delay_frames(0.25, Duration::from_micros(30))
            .duplicate_frames(0.2)
            .truncate_frames(0.4)
            .partition_after(56);
        let payloads: Vec<Vec<u8>> = (0..64u8)
            .map(|i| vec![i; usize::from(i) * 5 % 11])
            .collect();
        let lens: Vec<usize> = payloads.iter().map(Vec::len).collect();
        // One token a frame: x dropped, p partitioned, h held, 2
        // duplicated, t truncated, - delivered as sent.
        let code = |f: &FrameFate| {
            let marks = [
                (f.dropped && !f.partitioned, 'x'),
                (f.partitioned, 'p'),
                (f.delayed, 'h'),
                (f.duplicated, '2'),
                (f.truncated, 't'),
            ];
            let s: String = marks.iter().filter(|m| m.0).map(|m| m.1).collect();
            if s.is_empty() {
                "-".to_string()
            } else {
                s
            }
        };
        let fates: Vec<String> = plan.planned_fates(&lens).iter().map(code).collect();
        assert_eq!(
            fates.join(" "),
            "h x - x - - 2t h2 - x - x ht t 2t t - t 2 x x t x - 2 ht - h h2t - t - ht h 2 t - - - - ht h2 - - 2 2t x - - - - t - x h2t 2 p p p p p p p p"
        );

        let (a, mut b) = pair();
        let (mut a, _handle) = FaultyChannel::wrap(a, plan);
        for p in &payloads {
            a.send(&p[..]).unwrap();
        }
        drop(a);
        let mut delivered = Vec::new();
        while let Ok(frame) = b.recv() {
            delivered.push(frame.payload().len());
        }
        assert_eq!(
            delivered,
            [
                0, 10, 9, 3, 2, 2, 2, 2, 7, 6, 1, 2, 1, 1, 6, 3, 4, 2, 2, 2, 5, 10, 10, 3, 9, 3, 0,
                0, 2, 0, 1, 3, 0, 5, 5, 8, 4, 9, 3, 8, 0, 7, 7, 1, 6, 0, 0, 0, 0, 4, 9, 3, 8, 0, 7,
                4, 4, 0, 0
            ]
        );
    }

    #[test]
    fn planned_fates_script_partitions_and_disconnects() {
        let plan = FaultPlan::seeded(9).partition_after(2);
        let fates = plan.planned_fates(&[4, 4, 4, 4]);
        assert!(fates[..2].iter().all(|f| f.delivered_copies() == 1));
        assert!(fates[2..].iter().all(|f| f.partitioned && f.dropped));

        let plan = FaultPlan::seeded(9).disconnect_after(1);
        let fates = plan.planned_fates(&[4, 4, 4]);
        assert_eq!(
            fates[0],
            FrameFate {
                offered: true,
                ..FrameFate::default()
            }
        );
        assert!(fates[1].disconnected && fates[1].offered);
        assert!(
            fates[2].disconnected && !fates[2].offered,
            "sticky: not offered"
        );
        let planned = plan.planned_stats(&[4, 4, 4]);
        assert_eq!(planned.counter("net.fault.offered"), 2);
        assert_eq!(planned.counter("net.fault.disconnect"), 1);
    }

    #[test]
    fn injected_faults_feed_the_global_fault_counters() {
        let before = clam_obs::snapshot();
        let (a, _b) = pair();
        let (mut a, handle) = FaultyChannel::wrap(
            a,
            FaultPlan::seeded(7)
                .duplicate_frames(1.0)
                .partition_after(3),
        );
        for _ in 0..5 {
            a.send(b"frame").unwrap();
        }
        // Lower bounds only: the global counters sum every link, and
        // sibling tests inject faults concurrently. The link's own
        // counters are exact.
        let delta = clam_obs::snapshot().delta(&before);
        assert!(delta.counter("net.fault.duplicate") >= 3);
        assert!(delta.counter("net.fault.partition") >= 2);
        assert_eq!(count(&handle, "duplicate"), 3);
        assert_eq!(count(&handle, "partition"), 2);
    }

    #[test]
    fn a_latency_only_plan_injects_no_fault() {
        let plan = FaultPlan::seeded(1).with_latency(Duration::from_millis(5));
        let l = crate::listen(&crate::Endpoint::tcp("127.0.0.1:0")).unwrap();
        let (mut c, client) = FaultyChannel::wrap(crate::connect(&l.endpoint()).unwrap(), plan);
        let (mut s, server) = FaultyChannel::wrap(l.accept().unwrap(), plan);
        let start = Instant::now();
        c.send(b"req").unwrap();
        assert_eq!(s.recv().unwrap(), b"req");
        s.send(b"resp").unwrap();
        assert_eq!(c.recv().unwrap(), b"resp");
        assert!(start.elapsed() >= Duration::from_millis(10));
        for handle in [client, server] {
            let faults = [
                "drop",
                "delay",
                "duplicate",
                "truncate",
                "partition",
                "disconnect",
            ];
            assert_eq!(faults.map(|n| count(&handle, n)), [0; 6]);
            assert_eq!(count(&handle, "offered"), 1);
            assert_eq!(count(&handle, "delivered"), 1);
        }
    }

    #[test]
    fn a_burst_is_held_once() {
        let latency = Duration::from_millis(5);
        let (mut a, b) = pair();
        let (mut b, _) = FaultyChannel::wrap(b, FaultPlan::seeded(1).with_latency(latency));
        let start = Instant::now();
        for i in 0..10u8 {
            a.send(&[i][..]).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(b.recv().unwrap(), [i]);
        }
        let took = start.elapsed();
        assert!(took >= latency && took < latency * 2, "{took:?}");
    }

    #[test]
    fn a_held_frame_outlives_its_deadline_and_its_stream() {
        let latency = Duration::from_millis(20);
        let (mut a, b) = pair();
        let (b, _) = FaultyChannel::wrap(b, FaultPlan::seeded(1).with_latency(latency));
        let (_w, mut b) = b.split();
        let start = Instant::now();
        assert!(matches!(b.recv_until(start + latency / 4), Ok(None)));
        assert!(start.elapsed() >= latency / 4);
        // Arrived in time: delivered after its hold, past the deadline.
        let sent = Instant::now();
        a.send(b"one").unwrap();
        a.send(b"two").unwrap();
        let got = b.recv_until(sent + latency / 4).unwrap();
        assert_eq!(got.unwrap(), b"one");
        assert!(sent.elapsed() >= latency);
        // The end of the stream comes after the frames held before it.
        drop(a);
        assert_eq!(b.recv().unwrap(), b"two");
        assert!(b.recv().unwrap_err().is_closed());
        assert!(sent.elapsed() < latency * 2, "{:?}", sent.elapsed());
    }

    #[test]
    fn a_latency_draws_nothing_from_the_fault_rng() {
        let plan = FaultPlan::seeded(77)
            .drop_frames(0.2)
            .delay_frames(0.3, Duration::from_micros(40))
            .duplicate_frames(0.2)
            .truncate_frames(0.3);
        let lens: Vec<usize> = (0..48).map(|i| i % 5).collect();
        assert_eq!(
            plan.planned_fates(&lens),
            plan.with_latency(Duration::from_millis(3))
                .planned_fates(&lens)
        );
    }

    #[test]
    fn a_delayed_frame_waits_in_finish_send_and_is_not_overtaken() {
        let (a, mut b) = pair();
        let plan = FaultPlan::seeded(4).delay_frames(1.0, Duration::from_millis(100));
        let (a, handle) = FaultyChannel::wrap(a, plan);
        let (mut w, _r) = a.split();
        let at = Instant::now();
        assert!(!w.start_send(Frame::from(b"first")).unwrap(), "held");
        assert!(at.elapsed() < Duration::from_millis(20), "start_send slept");
        // The next frame finishes the held one first, hold and all.
        if !w.start_send(Frame::from(b"second")).unwrap() {
            w.finish_send().unwrap();
        }
        assert_eq!(b.recv().unwrap(), b"first");
        assert_eq!(b.recv().unwrap(), b"second");
        assert_eq!(handle.metrics(), plan.planned_stats(&[5, 6]));
    }
}
