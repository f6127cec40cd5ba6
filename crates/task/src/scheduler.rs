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
use std::sync::Arc;

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

clam_obs::handles! {
    /// Global `task.ready_depth` gauge, adjusted by ±1 as tasks enter and
    /// leave ready queues (summed over all schedulers in the process).
    fn obs_ready_depth() -> Gauge = gauge("task.ready_depth");
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
    grants: Grants<Arc<Slot>>,
    live: usize,
    shutdown: bool,
}

/// Who holds the processor: the slots waiting for it, in order, and
/// whether a task holds it. Every grant is decided by [`Grants::on`], a
/// transition over this value alone: it takes no lock and wakes no
/// thread, and the caller performs the [`Grant`] it returns. `S` is a
/// worker's slot; the explorer in this module's tests drives plain ids.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Grants<S> {
    ready: VecDeque<S>,
    running: bool,
}

/// A change in who wants the processor: `S`'s task can run (spawned,
/// woken or yielding), the holder gives it up (it blocks, exits or steps
/// outside), or `S`'s task is back from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Want<S> {
    Ready(S),
    Release,
    Rejoin(S),
}

/// What the caller does: wake `S`, whose task now holds the processor;
/// wake the threads waiting for the scheduler to idle; run on, as a
/// rejoining task that took the idle processor on its own thread; or
/// wait for a grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Grant<S> {
    Wake(S),
    Idle,
    Run,
    Wait,
}

impl<S> Grants<S> {
    fn on(&mut self, want: Want<S>) -> Grant<S> {
        match want {
            // Idle, so the ready queue is empty too: no thread switch.
            Want::Rejoin(_) if !self.running => {
                self.running = true;
                Grant::Run
            }
            Want::Ready(slot) | Want::Rejoin(slot) => {
                self.ready.push_back(slot);
                if self.running {
                    Grant::Wait
                } else {
                    self.on(Want::Release)
                }
            }
            Want::Release => match self.ready.pop_front() {
                Some(next) => {
                    self.running = true;
                    Grant::Wake(next)
                }
                None => {
                    self.running = false;
                    Grant::Idle
                }
            },
        }
    }
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
                    grants: Grants {
                        ready: VecDeque::new(),
                        running: false,
                    },
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
        grant(inner, &mut st, Want::Ready(slot));
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
            grant(inner, &mut st, Want::Ready(Arc::clone(slot)));
            grant(inner, &mut st, Want::Release);
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
        while st.grants.running || !st.grants.ready.is_empty() {
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
        grant(&sched, &mut st, Want::Release);
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

/// Decide `want` with [`Grants::on`] and perform the grant: wake the slot
/// it names, or the threads waiting for the scheduler to idle. A task
/// that is handed [`Grant::Wait`] parks on its slot once the caller has
/// dropped the state lock.
fn grant(inner: &SchedInner, st: &mut SchedState, want: Want<Arc<Slot>>) -> Grant<Arc<Slot>> {
    let queued = st.grants.ready.len();
    let grant = st.grants.on(want);
    #[allow(clippy::cast_possible_wrap)]
    let moved = st.grants.ready.len() as i64 - queued as i64;
    if moved != 0 {
        obs_ready_depth().adjust(moved);
    }
    match &grant {
        Grant::Wake(slot) => {
            inner.counters.context_switches.inc();
            slot.grant();
        }
        Grant::Idle => {
            inner.idle_cv.notify_all();
        }
        Grant::Run | Grant::Wait => {}
    }
    grant
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
    grant(inner, &mut inner.state.lock(), Want::Release);
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
        SLOT.with(|slot| {
            let slot = slot.get().expect("a task runs on a worker thread");
            let mut st = inner.state.lock();
            if !matches!(
                grant(inner, &mut st, Want::Rejoin(Arc::clone(slot))),
                Grant::Run
            ) {
                drop(st);
                slot.park();
            }
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
            grant(inner, &mut st, Want::Release);
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
        grant(inner, &mut st, Want::Ready(slot));
    }
}

#[cfg(test)]
mod tests {
    use super::{Grant, Grants, Want};
    use crate::explore::explore;
    use std::collections::VecDeque;

    /// Where one modelled task is.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Pc {
        Unborn,
        /// Parked on its slot: queued, or just granted the processor.
        Parked,
        Running,
        Outside,
        /// Waiting on an event.
        Blocked,
        Done,
    }

    /// A task: where it is, whether its slot holds a grant, and how many
    /// more times it may yield, block or step outside before it exits.
    type Task = (Pc, bool, u8);

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Model {
        grants: Grants<usize>,
        tasks: Vec<Task>,
        fault: Option<&'static str>,
    }

    impl Model {
        /// Decide `want` and perform the grant, as `super::grant` does.
        fn want(&mut self, want: Want<usize>) -> Grant<usize> {
            let grant = self.grants.on(want);
            if let Grant::Wake(t) = grant {
                if self.tasks[t].0 != Pc::Parked || self.tasks[t].1 {
                    self.fault = Some("granted a slot that does not wait for a grant");
                }
                self.tasks[t].1 = true;
            }
            grant
        }

        fn next(&self) -> Vec<Model> {
            let mut out = Vec::new();
            for t in 0..self.tasks.len() {
                let (pc, granted, budget) = self.tasks[t];
                let mut step = |f: &dyn Fn(&mut Model)| {
                    let mut m = self.clone();
                    f(&mut m);
                    out.push(m);
                };
                match pc {
                    Pc::Unborn => step(&|m| {
                        m.tasks[t].0 = Pc::Parked;
                        m.want(Want::Ready(t));
                    }),
                    Pc::Parked if granted => step(&|m| m.tasks[t] = (Pc::Running, false, budget)),
                    Pc::Running => {
                        step(&|m| {
                            m.tasks[t].0 = Pc::Done;
                            m.want(Want::Release);
                        });
                        if budget == 0 {
                            continue;
                        }
                        for to in [Pc::Parked, Pc::Outside, Pc::Blocked] {
                            step(&|m| {
                                m.tasks[t] = (to, false, budget - 1);
                                if to == Pc::Parked {
                                    m.want(Want::Ready(t)); // a yield
                                }
                                m.want(Want::Release);
                            });
                        }
                    }
                    Pc::Outside => step(&|m| {
                        m.tasks[t].0 = Pc::Parked;
                        if m.want(Want::Rejoin(t)) == Grant::Run {
                            m.tasks[t].0 = Pc::Running;
                        }
                    }),
                    Pc::Blocked => step(&|m| {
                        m.tasks[t].0 = Pc::Parked;
                        m.want(Want::Ready(t)); // a signal
                    }),
                    Pc::Parked | Pc::Done => {}
                }
            }
            out
        }

        fn check(&self, last: bool) -> Result<(), String> {
            if let Some(fault) = self.fault {
                return Err(fault.into());
            }
            let holders = self
                .tasks
                .iter()
                .filter(|&&(pc, granted, _)| pc == Pc::Running || granted)
                .count();
            if holders != usize::from(self.grants.running) {
                return Err(format!("{holders} tasks hold the processor"));
            }
            if !self.grants.running && !self.grants.ready.is_empty() {
                return Err("the scheduler idles while a task is ready".into());
            }
            if last && self.tasks.iter().any(|&(pc, ..)| pc != Pc::Done) {
                return Err("a task never finished".into());
            }
            Ok(())
        }
    }

    /// Every order in which up to 3 tasks are spawned, yield, block on an
    /// event and are signalled, step outside and rejoin, and exit: the
    /// processor is granted to at most one slot, never idles while a
    /// task is ready, and every task finishes.
    #[test]
    fn every_interleaving_grants_the_processor_to_one_task() {
        let starts = (1..=3).map(|n| Model {
            grants: Grants {
                ready: VecDeque::new(),
                running: false,
            },
            tasks: vec![(Pc::Unborn, false, 2); n],
            fault: None,
        });
        let states = explore("scheduler grants", starts, Model::next, Model::check);
        assert!(
            states > 1000,
            "the model explores too little: {states} states"
        );
    }
}
