//! Short measurements of single layers' public functions, taken in the
//! traced run: a task handoff between two tasks of one `Scheduler`, and
//! the clam-obs calls the rpc caller makes on every sync call.

use crate::stats::{nanos, quantile};
use clam_task::{Event, Scheduler};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Signal→wake latencies in ns of `rounds` `Event` handoffs between two
/// tasks on one fresh `Scheduler`.
///
/// # Errors
///
/// A task that panicked, as text.
pub fn task_handoffs(rounds: usize) -> Result<Vec<u64>, String> {
    let sched = Scheduler::new("perfbench-handoff");
    let ping = Arc::new(Event::new(&sched));
    let pong = Arc::new(Event::new(&sched));
    let base = Instant::now();
    let signaled_at = Arc::new(AtomicU64::new(0));
    let samples = Arc::new(Mutex::new(Vec::with_capacity(rounds)));

    let waiter = {
        let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
        let (signaled_at, samples) = (Arc::clone(&signaled_at), Arc::clone(&samples));
        sched.spawn("handoff-waiter", move || {
            for _ in 0..rounds {
                ping.wait();
                let woke = nanos(base.elapsed());
                let sent = signaled_at.load(Ordering::Acquire);
                samples
                    .lock()
                    .expect("samples poisoned")
                    .push(woke.saturating_sub(sent));
                pong.signal();
            }
        })
    };
    let signaler = sched.spawn("handoff-signaler", move || {
        for _ in 0..rounds {
            signaled_at.store(nanos(base.elapsed()), Ordering::Release);
            ping.signal();
            pong.wait();
        }
    });
    let outcome = waiter
        .join()
        .and_then(|()| signaler.join())
        .map_err(|e| format!("handoff task: {e}"));
    sched.shutdown();
    outcome?;
    let samples = std::mem::take(&mut *samples.lock().expect("samples poisoned"));
    Ok(samples)
}

/// Mean ns per call of `f` over `iters` calls.
fn mean_ns(iters: u32, mut f: impl FnMut(u32)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    #[allow(clippy::cast_precision_loss)]
    let ns = nanos(t.elapsed()) as f64;
    ns / f64::from(iters.max(1))
}

/// Median over `reps` repetitions of [`mean_ns`], to shed preemptions.
fn steady_ns(reps: usize, iters: u32, mut f: impl FnMut(u32)) -> f64 {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let means: Vec<u64> = (0..reps)
        .map(|_| (mean_ns(iters, &mut f) * 1000.0) as u64)
        .collect();
    quantile(&means, 0.5) / 1000.0
}

/// Costs of the clam-obs calls on the sync-call path, in ns each.
#[derive(Debug, Clone, Copy)]
pub struct ObsCosts {
    /// `clam_obs::histogram(&format!(..))`, the per-call lookup the rpc
    /// caller makes for its latency histogram.
    pub histogram_lookup: f64,
    /// `Histogram::observe`.
    pub observe: f64,
    /// `Journal::record`.
    pub journal_record: f64,
}

#[must_use]
pub fn obs_costs() -> ObsCosts {
    let id = crate::rig::BENCH_SERVICE_ID;
    let histogram_lookup = steady_ns(9, 2_000, |_| {
        let h = clam_obs::histogram(&format!("rpc.call_latency_us.builtin_{id}"));
        std::hint::black_box(h);
    });
    let h = clam_obs::histogram("perfbench.probe");
    let observe = steady_ns(9, 20_000, |i| h.observe(u64::from(i & 1023)));
    let ctx = clam_obs::TraceContext::new_root();
    let journal_record = steady_ns(9, 20_000, |i| {
        clam_obs::journal().record(clam_obs::EventKind::CallStart, ctx, clam_obs::SpanId(0), i);
    });
    ObsCosts {
        histogram_lookup,
        observe,
        journal_record,
    }
}
