//! Behavioural tests for the non-preemptive task scheduler.

use clam_task::{on_block, Event, Scheduler, TaskError};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

#[test]
fn a_task_runs_and_joins() {
    let sched = Scheduler::new("t");
    let ran = Arc::new(AtomicU64::new(0));
    let r = Arc::clone(&ran);
    let h = sched.spawn("one", move || {
        r.store(7, Ordering::SeqCst);
    });
    h.join().unwrap();
    assert_eq!(ran.load(Ordering::SeqCst), 7);
}

#[test]
fn tasks_do_not_interleave_without_yield() {
    // Non-preemption: a running task owns the processor until it yields.
    // Two tasks each append their tag three times with no yield; the log
    // must contain two uninterrupted runs.
    let sched = Scheduler::new("t");
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for tag in ["a", "b"] {
        let log = Arc::clone(&log);
        handles.push(sched.spawn(tag, move || {
            for _ in 0..3 {
                log.lock().unwrap().push(tag);
                // Deliberately give the OS a chance to misbehave if
                // preemption were possible.
                std::thread::sleep(Duration::from_millis(1));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let log = log.lock().unwrap();
    assert_eq!(log[..3].concat(), log[0].repeat(3));
    assert_eq!(log[3..].concat(), log[3].repeat(3));
}

#[test]
fn yield_alternates_between_tasks() {
    let sched = Scheduler::new("t");
    let log = Arc::new(Mutex::new(Vec::new()));
    // Spawned from a task, which keeps the processor until it joins, both
    // workers are ready before either runs; spawned from this thread, the
    // first could yield three times before the second's thread started.
    let (s, l) = (sched.clone(), Arc::clone(&log));
    let spawner = sched.spawn("spawner", move || {
        let mut handles = Vec::new();
        for tag in [0u8, 1] {
            let log = Arc::clone(&l);
            let s2 = s.clone();
            handles.push(s.spawn("worker", move || {
                for _ in 0..3 {
                    log.lock().unwrap().push(tag);
                    s2.yield_now();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });
    spawner.join().unwrap();
    let log = log.lock().unwrap();
    assert_eq!(*log, vec![0, 1, 0, 1, 0, 1]);
}

#[test]
fn event_signal_then_wait_does_not_block() {
    let sched = Scheduler::new("t");
    let ev = Arc::new(Event::new(&sched));
    ev.signal();
    assert_eq!(ev.pending(), 1);
    let e = Arc::clone(&ev);
    sched
        .spawn("waiter", move || {
            e.wait(); // consumes the banked signal immediately
        })
        .join()
        .unwrap();
    assert_eq!(ev.pending(), 0);
}

#[test]
fn event_wait_blocks_until_other_task_signals() {
    let sched = Scheduler::new("t");
    let ev = Arc::new(Event::new(&sched));
    let order = Arc::new(Mutex::new(Vec::new()));

    let (e1, o1) = (Arc::clone(&ev), Arc::clone(&order));
    let waiter = sched.spawn("waiter", move || {
        o1.lock().unwrap().push("wait-start");
        e1.wait();
        o1.lock().unwrap().push("wait-done");
    });

    let (e2, o2) = (Arc::clone(&ev), Arc::clone(&order));
    let signaler = sched.spawn("signaler", move || {
        o2.lock().unwrap().push("signal");
        e2.signal();
    });

    waiter.join().unwrap();
    signaler.join().unwrap();
    assert_eq!(
        *order.lock().unwrap(),
        vec!["wait-start", "signal", "wait-done"]
    );
}

#[test]
fn event_signaled_from_external_thread_wakes_task() {
    // This is the I/O-pump pattern: a foreign OS thread plays the kernel
    // and reactivates a blocked task.
    let sched = Scheduler::new("t");
    let ev = Arc::new(Event::new(&sched));
    let e = Arc::clone(&ev);
    let h = sched.spawn("blocked-on-io", move || {
        e.wait();
    });
    let e = Arc::clone(&ev);
    let pump = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        e.signal();
    });
    h.join().unwrap();
    pump.join().unwrap();
}

#[test]
fn external_thread_can_wait_on_event() {
    let sched = Scheduler::new("t");
    let ev = Arc::new(Event::new(&sched));
    let e = Arc::clone(&ev);
    sched.spawn("signaler", move || {
        e.signal();
    });
    // Main thread is not a task: external wait path.
    ev.wait();
}

#[test]
fn signals_are_fifo_per_waiter() {
    let sched = Scheduler::new("t");
    let ev = Arc::new(Event::new(&sched));
    let order = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for tag in 0..3u8 {
        let e = Arc::clone(&ev);
        let o = Arc::clone(&order);
        let s = sched.clone();
        handles.push(sched.spawn("w", move || {
            // Stagger arrival so the waiter list order is deterministic.
            for _ in 0..tag {
                s.yield_now();
            }
            e.wait();
            o.lock().unwrap().push(tag);
        }));
    }
    sched.wait_idle();
    for _ in 0..3 {
        ev.signal();
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
}

#[test]
fn panicking_task_reports_through_join_and_scheduler_survives() {
    let sched = Scheduler::new("t");
    let h = sched.spawn("bad", || panic!("deliberate fault"));
    let err = h.join().unwrap_err();
    match err {
        TaskError::Panicked(p) => assert!(p.message().contains("deliberate fault")),
        other => panic!("unexpected error {other:?}"),
    }
    // The scheduler still runs new tasks afterwards.
    let h = sched.spawn("good", || {});
    h.join().unwrap();
}

#[test]
fn join_from_within_a_task_blocks_that_task_only() {
    let sched = Scheduler::new("t");
    let order = Arc::new(Mutex::new(Vec::new()));

    let o = Arc::clone(&order);
    let inner_handle = sched.spawn("inner", move || {
        o.lock().unwrap().push("inner");
    });

    let o = Arc::clone(&order);
    let outer = sched.spawn("outer", move || {
        o.lock().unwrap().push("outer-before");
        inner_handle.join().unwrap();
        o.lock().unwrap().push("outer-after");
    });

    outer.join().unwrap();
    assert_eq!(
        *order.lock().unwrap(),
        vec!["inner", "outer-before", "outer-after"]
    );
}

#[test]
fn join_after_completion_returns_immediately() {
    let sched = Scheduler::new("t");
    let h = sched.spawn("quick", || {});
    sched.wait_idle();
    assert!(h.is_finished());
    h.join().unwrap();
}

#[test]
fn worker_threads_are_reused_across_tasks() {
    let sched = Scheduler::new("t");
    for _ in 0..10 {
        sched.spawn("serial", || {}).join().unwrap();
    }
    let m = sched.metrics();
    let threads_created = m.counter("task.threads_created");
    assert_eq!(m.counter("task.tasks_spawned"), 10);
    assert!(
        threads_created < 10,
        "pool must be reused; created {threads_created} threads"
    );
    assert_eq!(
        threads_created + m.counter("task.workers_reused"),
        m.counter("task.tasks_spawned")
    );
}

#[test]
fn shutdown_refuses_new_tasks() {
    let sched = Scheduler::new("t");
    sched.spawn("ok", || {}).join().unwrap();
    sched.shutdown();
    assert!(matches!(
        sched.try_spawn("nope", || {}),
        Err(TaskError::ShutDown)
    ));
}

#[test]
fn current_task_is_visible_inside_and_absent_outside() {
    let sched = Scheduler::new("t");
    assert!(sched.current_task().is_none());
    let s = sched.clone();
    let seen = Arc::new(Mutex::new(None));
    let seen2 = Arc::clone(&seen);
    sched
        .spawn("who", move || {
            *seen2.lock().unwrap() = s.current_task();
        })
        .join()
        .unwrap();
    assert!(seen.lock().unwrap().is_some());
}

#[test]
fn many_tasks_with_events_complete() {
    // A little stress: a chain of tasks, each signaling the next.
    const N: usize = 50;
    let sched = Scheduler::new("chain");
    let events: Vec<Arc<Event>> = (0..=N).map(|_| Arc::new(Event::new(&sched))).collect();
    let mut handles = Vec::new();
    for i in 0..N {
        let wait_on = Arc::clone(&events[i]);
        let then_signal = Arc::clone(&events[i + 1]);
        handles.push(sched.spawn("link", move || {
            wait_on.wait();
            then_signal.signal();
        }));
    }
    events[0].signal();
    events[N].wait(); // external wait for the end of the chain
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn two_schedulers_are_independent() {
    let a = Scheduler::new("a");
    let b = Scheduler::new("b");
    let ev_b = Arc::new(Event::new(&b));
    // A task of scheduler A waiting on B's event uses the external path —
    // and blocks its whole OS thread — so instead we check identity: a
    // task of A is not a "current task" of B.
    let b2 = b.clone();
    let saw = Arc::new(Mutex::new(None));
    let saw2 = Arc::clone(&saw);
    a.spawn("probe", move || {
        *saw2.lock().unwrap() = Some(b2.current_task());
    })
    .join()
    .unwrap();
    assert_eq!(*saw.lock().unwrap(), Some(None));
    drop(ev_b);
}

#[test]
fn live_task_count_tracks_lifecycle() {
    let sched = Scheduler::new("t");
    assert_eq!(sched.live_tasks(), 0);
    let ev = Arc::new(Event::new(&sched));
    let e = Arc::clone(&ev);
    let h = sched.spawn("sleeper", move || e.wait());
    sched.wait_idle();
    assert_eq!(sched.live_tasks(), 1);
    ev.signal();
    h.join().unwrap();
    assert_eq!(sched.live_tasks(), 0);
}

/// Count running tasks around `body`, recording the most ever seen.
fn counted(running: &AtomicU64, most: &AtomicU64, body: impl FnOnce()) {
    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
    most.fetch_max(now, Ordering::SeqCst);
    body();
    running.fetch_sub(1, Ordering::SeqCst);
}

#[test]
fn while_one_task_is_outside_the_others_run_one_at_a_time() {
    let sched = Scheduler::new("outside");
    let running = Arc::new(AtomicU64::new(0));
    let most = Arc::new(AtomicU64::new(0));
    let (release, blocked) = std::sync::mpsc::channel::<()>();
    let outside = {
        let (s, running, most) = (sched.clone(), Arc::clone(&running), Arc::clone(&most));
        sched.spawn("reader", move || {
            counted(&running, &most, || {});
            // A blocking read, outside: the processor goes to the others.
            s.outside(|| blocked.recv().unwrap());
            counted(&running, &most, || {});
        })
    };
    let others: Vec<_> = (0..4)
        .map(|_| {
            let (running, most) = (Arc::clone(&running), Arc::clone(&most));
            sched.spawn("other", move || {
                counted(&running, &most, || {
                    std::thread::sleep(Duration::from_millis(5));
                });
            })
        })
        .collect();
    // The four others all finish while the reader is still outside.
    for h in others {
        h.join().unwrap();
    }
    release.send(()).unwrap();
    outside.join().unwrap();
    assert_eq!(most.load(Ordering::SeqCst), 1, "two tasks ran at once");
}

#[test]
fn a_task_back_from_outside_waits_for_the_running_task() {
    let sched = Scheduler::new("outside-rejoin");
    let log = Arc::new(Mutex::new(Vec::new()));
    let (started, wait_started) = std::sync::mpsc::channel::<()>();
    let reader = {
        let (s, log) = (sched.clone(), Arc::clone(&log));
        sched.spawn("reader", move || {
            s.outside(|| {
                // Return while the other task holds the processor.
                wait_started.recv().unwrap();
                log.lock().unwrap().push("reader-returned");
            });
            log.lock().unwrap().push("reader-resumed");
        })
    };
    let other = {
        let log = Arc::clone(&log);
        sched.spawn("other", move || {
            log.lock().unwrap().push("other-start");
            started.send(()).unwrap();
            while !log.lock().unwrap().contains(&"reader-returned") {
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(20));
            log.lock().unwrap().push("other-done");
        })
    };
    reader.join().unwrap();
    other.join().unwrap();
    assert_eq!(
        *log.lock().unwrap(),
        [
            "other-start",
            "reader-returned",
            "other-done",
            "reader-resumed"
        ]
    );
}

#[test]
fn outside_on_an_idle_scheduler_resumes_without_a_switch() {
    let sched = Scheduler::new("outside-idle");
    let switches = Arc::new(AtomicU64::new(u64::MAX));
    let (s, sw) = (sched.clone(), Arc::clone(&switches));
    sched
        .spawn("alone", move || {
            let switches = || s.metrics().counter("task.context_switches");
            let before = switches();
            let v = s.outside(|| {
                assert!(s.current_task().is_none(), "f runs as a foreign thread");
                7
            });
            assert_eq!(v, 7);
            assert!(s.current_task().is_some());
            sw.store(switches() - before, Ordering::SeqCst);
        })
        .join()
        .unwrap();
    // The only task took the processor back itself: no baton grant.
    assert_eq!(switches.load(Ordering::SeqCst), 0);
}

#[test]
fn a_panic_outside_is_reported_and_the_scheduler_survives() {
    let sched = Scheduler::new("outside-panic");
    let s = sched.clone();
    let err = sched
        .spawn("bad", move || s.outside(|| panic!("read failed")))
        .join()
        .unwrap_err();
    assert!(matches!(err, TaskError::Panicked(_)), "got {err:?}");
    sched.spawn("after", || {}).join().unwrap();
}

/// Names of this process's live threads, as the kernel keeps them (the
/// first 15 bytes).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|n| n.trim_end().to_string())
        .collect()
}

#[test]
fn dropping_the_last_handle_releases_idle_workers() {
    // A five-character name keeps the thread name within the kernel's 15.
    let comm = "clam-dropw";
    let sched = Scheduler::new("dropw");
    let handles: Vec<_> = (0..3).map(|_| sched.spawn("unit", || {})).collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        thread_names().iter().any(|n| n == comm),
        "the finished tasks' workers wait in the pool"
    );
    // No shutdown: dropping the scheduler's last handle must do.
    drop(sched);
    let deadline = std::time::Instant::now() + Duration::from_secs(1);
    while thread_names().iter().any(|n| n == comm) {
        assert!(
            std::time::Instant::now() < deadline,
            "idle workers outlived their scheduler"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn the_block_hook_runs_only_where_its_task_blocks() {
    let sched = Scheduler::new("t");
    let s = sched.clone();
    sched
        .spawn("hooked", move || {
            let event = Arc::new(Event::new(&s));
            let calls = Arc::new(AtomicU64::new(0));
            let hook: Rc<dyn Fn()> = {
                let calls = Arc::clone(&calls);
                Rc::new(move || {
                    calls.fetch_add(1, Ordering::SeqCst);
                })
            };
            let count = || calls.load(Ordering::SeqCst);
            on_block(Rc::clone(&hook), || {
                event.signal();
                event.wait(); // a banked signal: no block
                s.yield_now(); // ready again at once: no block
                assert_eq!(count(), 0);
                s.outside(|| ());
                assert_eq!(count(), 1);
                let ev = Arc::clone(&event);
                s.spawn("signaler", move || ev.signal());
                event.wait();
                assert_eq!(count(), 2);
            });
            s.outside(|| ());
            assert_eq!(count(), 2, "the hook is gone once `on_block` returns");
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                on_block(hook, || panic!("serving failed"));
            }));
            assert!(unwound.is_err());
            s.outside(|| ());
            assert_eq!(count(), 2, "the hook is gone after an unwind too");
        })
        .join()
        .unwrap();
}
