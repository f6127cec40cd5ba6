//! The non-preemptive scheduler.
//!
//! Every task is carried by an OS worker thread, but a baton protocol
//! guarantees that at most one task of a scheduler executes at a time and
//! that switches happen only at yield, block, join, or exit — the paper's
//! non-preemptive discipline. Each worker parks on its own [`Slot`] for its
//! whole life: the ready queue and the event waiter lists hold slots, and
//! granting the processor means waking one. Worker threads return to an
//! idle pool when their task finishes and are reused for later tasks (the
//! paper: "Tasks are reused, instead of being newly created on each input
//! event to reduce overhead").

use crate::error::{catch_panic, TaskError, TaskResult};
use crate::task::{Completion, JoinHandle, TaskId};
use parking_lot::{Condvar, Mutex};
use std::cell::{Cell, OnceCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Unique id per scheduler instance, for the thread-local current-task
/// marker.
static SCHED_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// (scheduler uid, task id) of the task currently carried by this
    /// thread, if any.
    static CURRENT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
    /// This worker thread's slot; unset on threads that are not workers.
    static SLOT: OnceCell<Arc<Slot>> = const { OnceCell::new() };
    /// What the task on this thread does just before it blocks; see
    /// [`on_block`].
    static ON_BLOCK: Cell<Option<Rc<dyn Fn()>>> = const { Cell::new(None) };
}

/// Global `task.ready_depth` gauge, adjusted by ±1 as tasks enter and
/// leave ready queues (summed over all schedulers in the process).
fn obs_ready_depth() -> &'static clam_obs::Gauge {
    static G: OnceLock<std::sync::Arc<clam_obs::Gauge>> = OnceLock::new();
    G.get_or_init(|| clam_obs::gauge("task.ready_depth"))
}

clam_obs::counters! {
    /// Each spawn creates a worker thread or reuses a pooled one; the
    /// reuse ratio is what the paper's task-reuse rule buys.
    struct SchedCounters {
        tasks_spawned: "task.tasks_spawned",
        threads_created: "task.threads_created",
        workers_reused: "task.workers_reused",
        /// Processor grants, each one non-preemptive handover (dispatch
        /// after spawn, yield, unblock, or task exit).
        context_switches: "task.context_switches",
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A task handed to a worker, held in its slot until it first runs.
struct Task {
    sched: Arc<SchedInner>,
    id: TaskId,
    job: Job,
    completion: Arc<Completion>,
}

/// Where one worker thread parks, for its whole life: in the pool until
/// it is handed a task, and in the ready queue or an event's waiter list
/// until its task is granted the processor.
pub(crate) struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

#[derive(Default)]
struct SlotState {
    granted: bool,
    /// Released from the pool: the worker exits.
    closed: bool,
    task: Option<Task>,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot").finish_non_exhaustive()
    }
}

impl Slot {
    fn grant(&self) {
        self.state.lock().granted = true;
        self.cv.notify_one();
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_one();
    }

    /// Park until the processor is granted, and take the task handed to
    /// this worker if it has not started yet; `None` too once the slot is
    /// closed.
    fn park(&self) -> Option<Task> {
        let mut s = self.state.lock();
        while !s.granted && !s.closed {
            self.cv.wait(&mut s);
        }
        s.granted = false;
        s.task.take()
    }
}

struct SchedState {
    ready: VecDeque<Arc<Slot>>,
    running: bool,
    live: usize,
    shutdown: bool,
}

/// Shared scheduler internals; `Scheduler` is a cheap handle around this.
pub struct SchedInner {
    uid: u64,
    name: String,
    state: Mutex<SchedState>,
    idle_cv: Condvar,
    /// Slots of idle worker threads.
    pool: Mutex<Vec<Arc<Slot>>>,
    next_task: AtomicU64,
    counters: SchedCounters,
}

impl std::fmt::Debug for SchedInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedInner")
            .field("uid", &self.uid)
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// Pooled workers hold no reference to their scheduler, so once every
/// handle is gone this releases them.
impl Drop for SchedInner {
    fn drop(&mut self) {
        self.pool.get_mut().drain(..).for_each(|slot| slot.close());
    }
}

/// A non-preemptive task scheduler (the paper's thread class).
///
/// Cloning the handle is cheap; all clones drive the same scheduler.
#[derive(Clone, Debug)]
pub struct Scheduler {
    inner: Arc<SchedInner>,
}

impl Scheduler {
    /// Create a new scheduler. Its worker threads are named `clam-{name}`,
    /// which the kernel cuts to 15 bytes: keep `name` short and distinct.
    #[must_use]
    pub fn new(name: &str) -> Scheduler {
        Scheduler {
            inner: Arc::new(SchedInner {
                uid: SCHED_IDS.fetch_add(1, Ordering::Relaxed),
                name: name.to_string(),
                state: Mutex::new(SchedState {
                    ready: VecDeque::new(),
                    running: false,
                    live: 0,
                    shutdown: false,
                }),
                idle_cv: Condvar::new(),
                pool: Mutex::new(Vec::new()),
                next_task: AtomicU64::new(1),
                counters: SchedCounters::register(),
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

    /// Spawn a task, reporting failure instead of panicking. `_name` is
    /// for the caller's readability only; the scheduler does not keep it.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::ShutDown`] after [`Scheduler::shutdown`], and
    /// [`TaskError::Spawn`] if no worker thread could be started for the
    /// task; either way the task never exists.
    pub fn try_spawn(
        &self,
        _name: &str,
        f: impl FnOnce() + Send + 'static,
    ) -> TaskResult<JoinHandle> {
        let inner = &self.inner;
        if inner.state.lock().shutdown {
            return Err(TaskError::ShutDown);
        }
        let id = TaskId(inner.next_task.fetch_add(1, Ordering::Relaxed));
        let completion = Completion::new();
        // The worker parks on its slot until the task is granted the
        // processor, so the task becomes ready only once its worker exists.
        let slot = Self::worker_for(
            inner,
            Task {
                sched: Arc::clone(inner),
                id,
                job: Box::new(f),
                completion: Arc::clone(&completion),
            },
        )?;
        inner.counters.tasks_spawned.inc();
        let mut st = inner.state.lock();
        st.live += 1;
        make_ready_locked(inner, &mut st, slot);
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
        if self.current_task().is_none() {
            return;
        }
        let inner = &*self.inner;
        SLOT.with(|slot| {
            let slot = slot.get().expect("a task runs on a worker thread");
            let mut st = inner.state.lock();
            make_ready_locked(inner, &mut st, Arc::clone(slot));
            grant_next_locked(inner, &mut st);
            drop(st);
            slot.park();
        });
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
        outside(&self.inner, f)
    }

    /// The id of the task executing on this thread under this scheduler,
    /// if any.
    #[must_use]
    pub fn current_task(&self) -> Option<TaskId> {
        current_task_of(&self.inner)
    }

    /// Number of live (ready, running, or blocked) tasks.
    #[must_use]
    pub fn live_tasks(&self) -> usize {
        self.inner.state.lock().live
    }

    /// The scheduler's own `task.*` counts, keyed by catalogue name.
    #[must_use]
    pub fn metrics(&self) -> clam_obs::MetricsSnapshot {
        self.inner.counters.metrics()
    }

    /// Block the calling OS thread until no task is running or ready.
    /// Blocked tasks may still exist (they are waiting on events).
    pub fn wait_idle(&self) {
        let inner = &self.inner;
        let mut st = inner.state.lock();
        while st.running || !st.ready.is_empty() {
            inner.idle_cv.wait(&mut st);
        }
    }

    /// Refuse new tasks and release pooled worker threads. Running and
    /// blocked tasks are allowed to finish naturally.
    pub fn shutdown(&self) {
        let inner = &self.inner;
        inner.state.lock().shutdown = true;
        inner.pool.lock().drain(..).for_each(|slot| slot.close());
    }

    // ------------------------------------------------------------------
    // Worker pool.
    // ------------------------------------------------------------------

    /// Hand `task` to an idle pooled worker, or to a new worker thread.
    fn worker_for(inner: &SchedInner, task: Task) -> TaskResult<Arc<Slot>> {
        let pooled = inner.pool.lock().pop();
        if let Some(slot) = pooled {
            slot.state.lock().task = Some(task);
            inner.counters.workers_reused.inc();
            return Ok(slot);
        }
        let slot = Arc::new(Slot {
            state: Mutex::new(SlotState {
                task: Some(task),
                ..SlotState::default()
            }),
            cv: Condvar::new(),
        });
        let worker = Arc::clone(&slot);
        std::thread::Builder::new()
            .name(format!("clam-{}", inner.name))
            .spawn(move || Self::worker_main(worker))
            .map_err(|e| TaskError::Spawn(e.to_string()))?;
        inner.counters.threads_created.inc();
        Ok(slot)
    }

    /// Carry tasks until the slot is closed. Between tasks the worker
    /// waits in the pool holding no reference to its scheduler.
    fn worker_main(slot: Arc<Slot>) {
        SLOT.with(|s| {
            s.get_or_init(|| Arc::clone(&slot));
        });
        while let Some(task) = slot.park() {
            let inner = Self::carry_task(task);
            // Pool ourselves for reuse, unless shutting down. `shutdown`
            // sets its flag before it empties the pool, so checking under
            // the pool lock cannot miss it.
            let mut pool = inner.pool.lock();
            if inner.state.lock().shutdown {
                return;
            }
            pool.push(Arc::clone(&slot));
        }
    }

    /// Run a task that has been granted the processor, then finish it and
    /// hand the processor on. Returns the task's scheduler.
    fn carry_task(task: Task) -> Arc<SchedInner> {
        let Task {
            sched,
            id,
            job,
            completion,
        } = task;
        CURRENT.with(|c| c.set(Some((sched.uid, id.0))));
        let outcome = catch_panic(job).map_err(TaskError::Panicked);
        CURRENT.with(|c| c.set(None));
        let mut st = sched.state.lock();
        st.live -= 1;
        // Completed under the state lock, so a joiner never sees the task
        // done and still live.
        completion.complete(outcome);
        grant_next_locked(&sched, &mut st);
        drop(st);
        sched
    }

    pub(crate) fn inner(&self) -> &Arc<SchedInner> {
        &self.inner
    }
}

// ----------------------------------------------------------------------
// Core switching machinery. Lock order everywhere: the pool, then the
// scheduler state, then an event's own mutex, then a slot's.
// ----------------------------------------------------------------------

/// Hand the processor to the next ready task, or mark the scheduler idle;
/// the caller has already disposed of the task giving the processor up.
fn grant_next_locked(inner: &SchedInner, st: &mut SchedState) {
    if let Some(next) = st.ready.pop_front() {
        obs_ready_depth().adjust(-1);
        inner.counters.context_switches.inc();
        st.running = true;
        next.grant();
    } else {
        st.running = false;
        inner.idle_cv.notify_all();
    }
}

/// Queue `slot`'s task behind the ready tasks, and dispatch if idle.
fn make_ready_locked(inner: &SchedInner, st: &mut SchedState, slot: Arc<Slot>) {
    st.ready.push_back(slot);
    obs_ready_depth().adjust(1);
    if !st.running {
        grant_next_locked(inner, st);
    }
}

/// Identify the calling task under `inner`, if any.
pub(crate) fn current_task_of(inner: &SchedInner) -> Option<TaskId> {
    CURRENT.with(|c| match c.get() {
        Some((uid, tid)) if uid == inner.uid => Some(TaskId(tid)),
        _ => None,
    })
}

/// Run `f` with `hook` called each time the task on this thread is about
/// to give up the processor by blocking: on entering
/// [`Scheduler::outside`] (so also in a join, and in a wait for a reply
/// or for room to write), and before an [`Event::wait`](crate::Event::wait)
/// that cannot return at once. The hook runs while the task still holds
/// the processor, and never within itself. The thread's previous hook is
/// back when `f` returns or unwinds.
pub fn on_block<R>(hook: Rc<dyn Fn()>, f: impl FnOnce() -> R) -> R {
    /// Puts the previous hook back when dropped.
    struct Restore(Option<Rc<dyn Fn()>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ON_BLOCK.set(self.0.take());
        }
    }
    let _restore = Restore(ON_BLOCK.replace(Some(hook)));
    f()
}

/// Run this thread's [`on_block`] hook, if it has one.
pub(crate) fn before_block() {
    if let Some(hook) = ON_BLOCK.take() {
        hook();
        ON_BLOCK.set(Some(hook));
    }
}

/// [`Scheduler::outside`] for any holder of the scheduler's internals.
pub(crate) fn outside<R>(inner: &SchedInner, f: impl FnOnce() -> R) -> R {
    let Some(me) = current_task_of(inner) else {
        return f();
    };
    before_block();
    // Nothing wakes the task while it is outside: its slot is in no
    // event's waiter list.
    grant_next_locked(inner, &mut inner.state.lock());
    CURRENT.with(|c| c.set(None));
    // Rejoin even if `f` unwinds: the task's exit path expects to hold
    // the processor.
    let _rejoin = Rejoin { inner, me };
    f()
}

/// Brings a task back from [`outside`] when dropped.
struct Rejoin<'a> {
    inner: &'a SchedInner,
    me: TaskId,
}

impl Drop for Rejoin<'_> {
    fn drop(&mut self) {
        let inner = self.inner;
        CURRENT.with(|c| c.set(Some((inner.uid, self.me.0))));
        let mut st = inner.state.lock();
        if !st.running {
            // Idle (so the ready queue is empty too): take the processor
            // on this very thread.
            st.running = true;
            return;
        }
        SLOT.with(|slot| {
            let slot = slot.get().expect("a task runs on a worker thread");
            make_ready_locked(inner, &mut st, Arc::clone(slot));
            drop(st);
            slot.park();
        });
    }
}

/// Block the calling task. `prepare` runs under the scheduler state lock
/// with the task's slot (typically: put the slot in an event's waiter
/// list) before the processor is handed away; if it returns `false` — e.g.
/// a signal was banked between the caller's fast-path check and now — the
/// task does not block. The call returns when the task is granted the
/// processor again (or immediately when `prepare` aborts).
pub(crate) fn block_current_task(inner: &SchedInner, prepare: impl FnOnce(&Arc<Slot>) -> bool) {
    SLOT.with(|slot| {
        let slot = slot.get().expect("a task runs on a worker thread");
        let mut st = inner.state.lock();
        if prepare(slot) {
            grant_next_locked(inner, &mut st);
            // Never park holding the state lock: the grant that wakes us
            // takes it.
            drop(st);
            slot.park();
        }
    });
}

/// Run `pick` under the scheduler state lock; if it names a waiting
/// task's slot, move that task to the ready queue (and dispatch if the
/// scheduler is idle).
pub(crate) fn wake_picked_task(inner: &SchedInner, pick: impl FnOnce() -> Option<Arc<Slot>>) {
    let mut st = inner.state.lock();
    if let Some(slot) = pick() {
        make_ready_locked(inner, &mut st, slot);
    }
}
