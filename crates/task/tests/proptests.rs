//! Property-based tests for the scheduler: whatever the interleaving of
//! yields, events, and spawns, the non-preemptive invariants must hold.

use clam_task::{Event, Scheduler};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A small program for a task to run: a sequence of actions.
#[derive(Debug, Clone)]
enum Action {
    /// Append a marker to the shared log.
    Log,
    /// Yield the processor.
    Yield,
    /// Signal event `i`.
    Signal(u8),
}

fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
    proptest::collection::vec(
        prop_oneof![
            3 => Just(Action::Log),
            2 => Just(Action::Yield),
            2 => (0u8..4).prop_map(Action::Signal),
        ],
        0..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every spawned task runs to completion exactly once, whatever the
    /// mix of yields and signals.
    #[test]
    fn all_tasks_complete(programs in proptest::collection::vec(arb_actions(), 1..6)) {
        let sched = Scheduler::new("prop");
        let events: Vec<Arc<Event>> = (0..4).map(|_| Arc::new(Event::new(&sched))).collect();
        let completions = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for program in &programs {
            let sched2 = sched.clone();
            let events = events.clone();
            let completions = Arc::clone(&completions);
            let program = program.clone();
            handles.push(sched.spawn("prop-task", move || {
                for action in &program {
                    match action {
                        Action::Log => {}
                        Action::Yield => sched2.yield_now(),
                        Action::Signal(i) => events[*i as usize % 4].signal(),
                    }
                }
                completions.fetch_add(1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        prop_assert_eq!(completions.load(Ordering::SeqCst), programs.len() as u64);
        prop_assert_eq!(sched.live_tasks(), 0);
    }

    /// Runs never interleave between yield points: with K tasks each
    /// logging M times between yields, the log is made of runs of length
    /// >= M per task segment.
    #[test]
    fn no_interleaving_between_yields(
        tasks in 1usize..4,
        chunk in 1usize..4,
        rounds in 1usize..4,
    ) {
        let sched = Scheduler::new("prop-atomic");
        let log: Arc<Mutex<Vec<(usize, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 0..tasks {
            let log = Arc::clone(&log);
            let sched2 = sched.clone();
            handles.push(sched.spawn("chunker", move || {
                for r in 0..rounds {
                    for _ in 0..chunk {
                        log.lock().unwrap().push((t, r));
                    }
                    sched2.yield_now();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let log = log.lock().unwrap();
        prop_assert_eq!(log.len(), tasks * chunk * rounds);
        // Every maximal run of equal (task, round) pairs has length
        // exactly `chunk`: no preemption mid-chunk.
        let mut i = 0;
        while i < log.len() {
            let mut j = i;
            while j < log.len() && log[j] == log[i] {
                j += 1;
            }
            prop_assert_eq!(j - i, chunk, "chunk split at index {}", i);
            i = j;
        }
    }

    /// Signals are never lost: N signals satisfy exactly N waits,
    /// regardless of order.
    #[test]
    fn signals_balance_waits(n in 1u32..20) {
        let sched = Scheduler::new("prop-signals");
        let ev = Arc::new(Event::new(&sched));
        let woken = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..n {
            let ev = Arc::clone(&ev);
            let woken = Arc::clone(&woken);
            handles.push(sched.spawn("waiter", move || {
                ev.wait();
                woken.fetch_add(1, Ordering::SeqCst);
            }));
        }
        // Signal from outside, interleaved with scheduler activity.
        for _ in 0..n {
            ev.signal();
        }
        for h in handles {
            h.join().unwrap();
        }
        prop_assert_eq!(woken.load(Ordering::SeqCst), u64::from(n));
        prop_assert_eq!(ev.pending(), 0);
    }

    /// The worker pool conserves tasks: threads_created + workers_reused
    /// equals tasks_spawned once everything joined.
    #[test]
    fn pool_accounting_balances(batches in 1usize..4, per_batch in 1usize..6) {
        let sched = Scheduler::new("prop-pool");
        for _ in 0..batches {
            let handles: Vec<_> = (0..per_batch)
                .map(|_| sched.spawn("unit", || {}))
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
        let m = sched.metrics();
        let spawned = m.counter("task.tasks_spawned");
        prop_assert_eq!(spawned, (batches * per_batch) as u64);
        prop_assert_eq!(
            m.counter("task.threads_created") + m.counter("task.workers_reused"),
            spawned
        );
    }
}
