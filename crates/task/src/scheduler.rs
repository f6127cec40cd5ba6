//! The non-preemptive scheduler.
//!
//! Every task is carried by an OS worker thread, but a *baton* protocol
//! guarantees that at most one task of a scheduler executes at a time and
//! that switches happen only at yield, block, join, or exit — the paper's
//! non-preemptive discipline. Worker threads return to an idle pool when
//! their task finishes and are reused for later tasks (the paper: "Tasks
//! are reused, instead of being newly created on each input event to
//! reduce overhead").

use crate::error::{catch_panic, TaskError, TaskResult};
use crate::task::{Completion, JoinHandle, TaskId, TaskState};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, OnceLock};

/// Unique id per scheduler instance, for the thread-local current-task
/// marker.
static SCHED_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// (scheduler uid, task id) of the task currently carried by this
    /// thread, if any.
    static CURRENT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// Global `task.context_switches` counter: every baton grant is one
/// processor handover. Static so the locked switching paths (which do
/// not carry `SchedInner`) can reach it without allocation.
fn obs_switches() -> &'static clam_obs::Counter {
    static C: OnceLock<std::sync::Arc<clam_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| clam_obs::counter("task.context_switches"))
}

/// Global `task.ready_depth` gauge, adjusted by ±1 as tasks enter and
/// leave ready queues (summed over all schedulers in the process).
fn obs_ready_depth() -> &'static clam_obs::Gauge {
    static G: OnceLock<std::sync::Arc<clam_obs::Gauge>> = OnceLock::new();
    G.get_or_init(|| clam_obs::gauge("task.ready_depth"))
}

/// Global `task.tasks_spawned` counter.
fn obs_spawned() -> &'static clam_obs::Counter {
    static C: OnceLock<std::sync::Arc<clam_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| clam_obs::counter("task.tasks_spawned"))
}

/// The per-task baton: a worker thread parks here until the scheduler
/// hands it the (single) right to run.
#[derive(Debug)]
struct Baton {
    runnable: Mutex<bool>,
    cv: Condvar,
}

impl Baton {
    fn new() -> Arc<Self> {
        Arc::new(Baton {
            runnable: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn grant(&self) {
        let mut g = self.runnable.lock();
        *g = true;
        self.cv.notify_one();
    }

    fn await_grant(&self) {
        let mut g = self.runnable.lock();
        while !*g {
            self.cv.wait(&mut g);
        }
        *g = false;
    }
}

struct TaskEntry {
    #[allow(dead_code)] // kept for debugging dumps
    name: String,
    state: TaskState,
    baton: Arc<Baton>,
    completion: Arc<Completion>,
    /// Tasks blocked in `join` on this task.
    join_waiters: Vec<TaskId>,
}

struct SchedState {
    ready: VecDeque<TaskId>,
    tasks: HashMap<u64, TaskEntry>,
    current: Option<TaskId>,
    shutdown: bool,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct WorkPacket {
    sched: Arc<SchedInner>,
    id: TaskId,
    baton: Arc<Baton>,
    job: Job,
}

/// Shared scheduler internals; `Scheduler` is a cheap handle around this.
pub struct SchedInner {
    uid: u64,
    name: String,
    state: Mutex<SchedState>,
    idle_cv: Condvar,
    /// Idle worker threads, each reachable through its job channel.
    pool: Mutex<Vec<SyncSender<WorkPacket>>>,
    next_task: AtomicU64,
    // Statistics for the task-reuse ablation.
    tasks_spawned: AtomicU64,
    threads_created: AtomicU64,
    workers_reused: AtomicU64,
    context_switches: AtomicU64,
}

impl std::fmt::Debug for SchedInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedInner")
            .field("uid", &self.uid)
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// Point-in-time scheduler statistics.
///
/// `threads_created + workers_reused == tasks_spawned` once all spawns have
/// been carried; the reuse ratio is what the paper's task-reuse rule buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerStats {
    /// Tasks handed to the scheduler so far.
    pub tasks_spawned: u64,
    /// OS worker threads created so far.
    pub threads_created: u64,
    /// Spawns satisfied from the idle worker pool.
    pub workers_reused: u64,
    /// Tasks alive (ready, running, or blocked) right now.
    pub live_tasks: usize,
    /// Baton grants so far — each is one non-preemptive processor
    /// handover (dispatch after spawn, yield, unblock, or task exit).
    pub context_switches: u64,
    /// Tasks sitting in the ready queue right now.
    pub ready_depth: usize,
}

/// A non-preemptive task scheduler (the paper's thread class).
///
/// Cloning the handle is cheap; all clones drive the same scheduler.
#[derive(Clone, Debug)]
pub struct Scheduler {
    inner: Arc<SchedInner>,
}

impl Scheduler {
    /// Create a new scheduler. `name` shows up in worker thread names.
    #[must_use]
    pub fn new(name: &str) -> Scheduler {
        Scheduler {
            inner: Arc::new(SchedInner {
                uid: SCHED_IDS.fetch_add(1, Ordering::Relaxed),
                name: name.to_string(),
                state: Mutex::new(SchedState {
                    ready: VecDeque::new(),
                    tasks: HashMap::new(),
                    current: None,
                    shutdown: false,
                }),
                idle_cv: Condvar::new(),
                pool: Mutex::new(Vec::new()),
                next_task: AtomicU64::new(1),
                tasks_spawned: AtomicU64::new(0),
                threads_created: AtomicU64::new(0),
                workers_reused: AtomicU64::new(0),
                context_switches: AtomicU64::new(0),
            }),
        }
    }

    /// The scheduler's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Spawn a task. The task starts only when the scheduler is otherwise
    /// idle or the running task yields/blocks — creation itself is the
    /// paper's "asynchronous call to a procedure in the thread class".
    ///
    /// # Panics
    ///
    /// Panics if the scheduler has been shut down or no worker thread
    /// can start; use [`try_spawn`](Scheduler::try_spawn) to handle that.
    pub fn spawn(&self, name: &str, f: impl FnOnce() + Send + 'static) -> JoinHandle {
        self.try_spawn(name, f).expect("spawn a task")
    }

    /// Spawn a task, reporting failure instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::ShutDown`] after [`Scheduler::shutdown`], and
    /// [`TaskError::Spawn`] if no worker thread could be started for the
    /// task; either way the task never exists.
    pub fn try_spawn(
        &self,
        name: &str,
        f: impl FnOnce() + Send + 'static,
    ) -> TaskResult<JoinHandle> {
        let inner = &self.inner;
        if inner.state.lock().shutdown {
            return Err(TaskError::ShutDown);
        }
        let id = TaskId(inner.next_task.fetch_add(1, Ordering::Relaxed));
        let baton = Baton::new();
        let completion = Completion::new();
        // The worker parks on the baton until the task is granted the
        // processor, so the task becomes ready only once its worker exists.
        Self::dispatch_to_worker(
            inner,
            WorkPacket {
                sched: Arc::clone(inner),
                id,
                baton: Arc::clone(&baton),
                job: Box::new(f),
            },
        )?;
        inner.tasks_spawned.fetch_add(1, Ordering::Relaxed);
        obs_spawned().inc();

        let mut st = inner.state.lock();
        st.tasks.insert(
            id.0,
            TaskEntry {
                name: name.to_string(),
                state: TaskState::Ready,
                baton,
                completion: Arc::clone(&completion),
                join_waiters: Vec::new(),
            },
        );
        st.ready.push_back(id);
        obs_ready_depth().adjust(1);
        // If the scheduler was idle, hand the baton over immediately.
        Self::try_dispatch_locked(inner, &mut st);
        drop(st);

        Ok(JoinHandle {
            id,
            sched: Arc::clone(inner),
            completion,
        })
    }

    /// Give up the processor; the task re-enters the ready queue behind
    /// any other ready tasks. Calling from a non-task thread is a no-op.
    pub fn yield_now(&self) {
        let Some(me) = self.current_task() else {
            return;
        };
        let inner = &self.inner;
        let mut st = inner.state.lock();
        let my_baton = match st.tasks.get_mut(&me.0) {
            Some(e) => {
                e.state = TaskState::Ready;
                Arc::clone(&e.baton)
            }
            None => return,
        };
        st.ready.push_back(me);
        obs_ready_depth().adjust(1);
        Self::switch_away_locked(inner, st);
        my_baton.await_grant();
    }

    /// Run `f` — typically a blocking read — outside the scheduler: the
    /// calling task gives up the processor while `f` runs, then rejoins.
    /// If no task is running when `f` returns, the task takes the
    /// processor straight back, with no thread switch; otherwise it
    /// queues behind the ready tasks like a woken one. So at most one
    /// task still runs at a time, and switches still happen only where a
    /// task blocks. `f` runs as a foreign thread: an [`Event`](crate::Event)
    /// it waits on blocks the thread, not a task. From a thread that is
    /// not a task of this scheduler, this is just `f()`.
    pub fn outside<R>(&self, f: impl FnOnce() -> R) -> R {
        let Some(me) = self.current_task() else {
            return f();
        };
        let inner = &self.inner;
        let mut st = inner.state.lock();
        let e = st.tasks.get_mut(&me.0).expect("running task has an entry");
        // Nothing wakes a task in this state: it is in no event's or
        // join's waiter list.
        e.state = TaskState::Blocked;
        let baton = Arc::clone(&e.baton);
        Self::switch_away_locked(inner, st);
        CURRENT.with(|c| c.set(None));
        // Rejoin even if `f` unwinds: the task's exit path expects to hold
        // the processor.
        let _rejoin = Rejoin { inner, me, baton };
        f()
    }

    /// The id of the task executing on this thread under this scheduler,
    /// if any.
    #[must_use]
    pub fn current_task(&self) -> Option<TaskId> {
        CURRENT.with(|c| match c.get() {
            Some((uid, tid)) if uid == self.inner.uid => Some(TaskId(tid)),
            _ => None,
        })
    }

    /// Number of live (ready, running, or blocked) tasks.
    #[must_use]
    pub fn live_tasks(&self) -> usize {
        self.inner.state.lock().tasks.len()
    }

    /// Scheduler statistics (for the task-reuse ablation bench).
    #[must_use]
    pub fn stats(&self) -> SchedulerStats {
        let inner = &self.inner;
        let (live_tasks, ready_depth) = {
            let st = inner.state.lock();
            (st.tasks.len(), st.ready.len())
        };
        SchedulerStats {
            tasks_spawned: inner.tasks_spawned.load(Ordering::Relaxed),
            threads_created: inner.threads_created.load(Ordering::Relaxed),
            workers_reused: inner.workers_reused.load(Ordering::Relaxed),
            live_tasks,
            context_switches: inner.context_switches.load(Ordering::Relaxed),
            ready_depth,
        }
    }

    /// Block the calling OS thread until no task is running or ready.
    /// Blocked tasks may still exist (they are waiting on events).
    pub fn wait_idle(&self) {
        let inner = &self.inner;
        let mut st = inner.state.lock();
        while st.current.is_some() || !st.ready.is_empty() {
            inner.idle_cv.wait(&mut st);
        }
    }

    /// Refuse new tasks and release pooled worker threads. Running and
    /// blocked tasks are allowed to finish naturally.
    pub fn shutdown(&self) {
        let inner = &self.inner;
        inner.state.lock().shutdown = true;
        inner.pool.lock().clear();
    }

    // ------------------------------------------------------------------
    // Worker pool.
    // ------------------------------------------------------------------

    fn dispatch_to_worker(inner: &Arc<SchedInner>, packet: WorkPacket) -> TaskResult<()> {
        let reused = inner.pool.lock().pop();
        match reused {
            Some(tx) => {
                inner.workers_reused.fetch_add(1, Ordering::Relaxed);
                match tx.send(packet) {
                    Ok(()) => Ok(()),
                    // The worker died between pooling and reuse; fall back
                    // to a fresh thread.
                    Err(send_err) => Self::spawn_worker(inner, send_err.0),
                }
            }
            None => Self::spawn_worker(inner, packet),
        }
    }

    fn spawn_worker(inner: &Arc<SchedInner>, first: WorkPacket) -> TaskResult<()> {
        std::thread::Builder::new()
            .name(format!("clam-task-{}", inner.name))
            .spawn(move || Self::worker_main(first))
            .map_err(|e| TaskError::Spawn(e.to_string()))?;
        inner.threads_created.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// A pooled worker holds no reference to its scheduler while idle:
    /// once every handle is gone the scheduler drops, its pool with it,
    /// and the worker's `recv` fails, so the thread exits.
    fn worker_main(first: WorkPacket) {
        let mut packet = first;
        loop {
            let inner = Arc::clone(&packet.sched);
            Self::carry_task(packet);
            // Pool ourselves for reuse, unless shutting down.
            if inner.state.lock().shutdown {
                return;
            }
            let (tx, rx) = mpsc::sync_channel(1);
            inner.pool.lock().push(tx);
            drop(inner);
            match rx.recv() {
                Ok(next) => packet = next,
                Err(_) => return, // pool cleared or dropped; exit
            }
        }
    }

    fn carry_task(packet: WorkPacket) {
        let WorkPacket {
            sched,
            id,
            baton,
            job,
        } = packet;
        // Wait until the scheduler grants us the processor.
        baton.await_grant();
        CURRENT.with(|c| c.set(Some((sched.uid, id.0))));
        let outcome = catch_panic(job).map_err(TaskError::Panicked);
        CURRENT.with(|c| c.set(None));
        Self::finish_task(&sched, id, outcome);
    }

    // ------------------------------------------------------------------
    // Core switching machinery.
    // ------------------------------------------------------------------

    /// Pick the next ready task and grant it the processor; the caller has
    /// already recorded the disposition of the task that is giving up the
    /// processor. Consumes the state guard.
    fn switch_away_locked(inner: &SchedInner, mut st: MutexGuard<'_, SchedState>) {
        if let Some(next) = st.ready.pop_front() {
            obs_ready_depth().adjust(-1);
            inner.context_switches.fetch_add(1, Ordering::Relaxed);
            obs_switches().inc();
            st.current = Some(next);
            let baton = {
                let e = st
                    .tasks
                    .get_mut(&next.0)
                    .expect("ready queue references a live task");
                e.state = TaskState::Running;
                Arc::clone(&e.baton)
            };
            drop(st);
            baton.grant();
        } else {
            st.current = None;
            inner.idle_cv.notify_all();
            drop(st);
        }
    }

    /// If nothing is running, start the next ready task.
    fn try_dispatch_locked(inner: &SchedInner, st: &mut SchedState) {
        if st.current.is_none() {
            if let Some(next) = st.ready.pop_front() {
                obs_ready_depth().adjust(-1);
                inner.context_switches.fetch_add(1, Ordering::Relaxed);
                obs_switches().inc();
                st.current = Some(next);
                let e = st
                    .tasks
                    .get_mut(&next.0)
                    .expect("ready queue references a live task");
                e.state = TaskState::Running;
                e.baton.grant();
            }
        }
    }

    /// Block the running task `me`. Called with the state lock held;
    /// consumes the guard, parks the calling thread, returns when the task
    /// is rescheduled.
    fn block_current_locked(inner: &SchedInner, mut st: MutexGuard<'_, SchedState>, me: TaskId) {
        debug_assert_eq!(st.current, Some(me), "only the running task may block");
        let my_baton = {
            let e = st.tasks.get_mut(&me.0).expect("blocking task has an entry");
            e.state = TaskState::Blocked;
            Arc::clone(&e.baton)
        };
        Self::switch_away_locked(inner, st);
        my_baton.await_grant();
    }

    /// Move a blocked task to the ready queue and dispatch if idle.
    fn make_ready_locked(inner: &SchedInner, st: &mut SchedState, id: TaskId) {
        if let Some(e) = st.tasks.get_mut(&id.0) {
            if e.state == TaskState::Blocked {
                e.state = TaskState::Ready;
                st.ready.push_back(id);
                obs_ready_depth().adjust(1);
                Self::try_dispatch_locked(inner, st);
            }
        }
    }

    fn finish_task(inner: &SchedInner, me: TaskId, outcome: TaskResult<()>) {
        let mut st = inner.state.lock();
        let entry = st.tasks.remove(&me.0).expect("finishing task has an entry");
        debug_assert_eq!(st.current, Some(me));
        // Wake tasks joined on us.
        for waiter in &entry.join_waiters {
            Self::make_ready_locked(inner, &mut st, *waiter);
        }
        entry.completion.complete(outcome);
        Self::switch_away_locked(inner, st);
    }

    // ------------------------------------------------------------------
    // Join support (called from JoinHandle).
    // ------------------------------------------------------------------

    pub(crate) fn join_inner(
        inner: &Arc<SchedInner>,
        target: TaskId,
        completion: &Arc<Completion>,
    ) -> TaskResult<()> {
        let caller = CURRENT.with(Cell::get);
        match caller {
            Some((uid, tid)) if uid == inner.uid => {
                let me = TaskId(tid);
                if me == target {
                    return Err(TaskError::JoinSelf);
                }
                let mut st = inner.state.lock();
                // Completion is recorded under the state lock, so this
                // check cannot race with task exit.
                if completion.is_done() {
                    return completion.outcome().unwrap_or(Ok(()));
                }
                match st.tasks.get_mut(&target.0) {
                    Some(e) => e.join_waiters.push(me),
                    None => return completion.outcome().unwrap_or(Ok(())),
                }
                Self::block_current_locked(inner, st, me);
                completion.outcome().unwrap_or(Ok(()))
            }
            _ => completion.wait_external(),
        }
    }

    pub(crate) fn inner(&self) -> &Arc<SchedInner> {
        &self.inner
    }
}

/// Brings a task back from [`Scheduler::outside`] when dropped.
struct Rejoin<'a> {
    inner: &'a SchedInner,
    me: TaskId,
    baton: Arc<Baton>,
}

impl Drop for Rejoin<'_> {
    fn drop(&mut self) {
        let inner = self.inner;
        CURRENT.with(|c| c.set(Some((inner.uid, self.me.0))));
        let mut st = inner.state.lock();
        if st.current.is_none() {
            // Idle (so the ready queue is empty too): take the processor
            // on this very thread.
            st.current = Some(self.me);
            if let Some(e) = st.tasks.get_mut(&self.me.0) {
                e.state = TaskState::Running;
            }
            return;
        }
        if let Some(e) = st.tasks.get_mut(&self.me.0) {
            e.state = TaskState::Ready;
        }
        st.ready.push_back(self.me);
        obs_ready_depth().adjust(1);
        drop(st);
        self.baton.await_grant();
    }
}

// ----------------------------------------------------------------------
// Hooks used by the event module. Lock order everywhere: scheduler state
// first, then the event's own mutex; these hooks enforce that by taking
// the state lock before running the caller's closure.
// ----------------------------------------------------------------------

/// Identify the calling task under `inner`, if any.
pub(crate) fn current_task_of(inner: &SchedInner) -> Option<TaskId> {
    CURRENT.with(|c| match c.get() {
        Some((uid, tid)) if uid == inner.uid => Some(TaskId(tid)),
        _ => None,
    })
}

/// Block the calling task. `prepare` runs under the scheduler state lock
/// (typically: register the task in an event's waiter list) before the
/// processor is handed away; if it returns `false` — e.g. a signal was
/// banked between the caller's fast-path check and now — the task does not
/// block. The call returns when the task is woken (or immediately when
/// `prepare` aborts).
pub(crate) fn block_current_task<F: FnOnce() -> bool>(inner: &SchedInner, me: TaskId, prepare: F) {
    let st = inner.state.lock();
    if prepare() {
        Scheduler::block_current_locked(inner, st, me);
    }
}

/// Run `pick` under the scheduler state lock; if it names a task, move
/// that task to the ready queue (and dispatch if the scheduler is idle).
pub(crate) fn wake_picked_task<F: FnOnce() -> Vec<TaskId>>(inner: &SchedInner, pick: F) {
    let mut st = inner.state.lock();
    for id in pick() {
        Scheduler::make_ready_locked(inner, &mut st, id);
    }
}
