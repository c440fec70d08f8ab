//! The pooled scheduler behind the `native` engine.
//!
//! Where the machine simulator *models* iteration-level parallelism on
//! simulated PEs, the pool *runs* it: the partitioned SP program executes
//! on a pool of real OS threads (one "virtual PE" per worker), iteration
//! instances are spawned per the partitioner's distribution decisions
//! (distributing allocate, `LD`, Range Filters), and instances synchronise
//! through the thread-safe I-structure store
//! ([`pods_istructure::SharedArrayStore`]) — write-once cells whose deferred
//! readers are re-activated by the eventual write, exactly the paper's
//! presence-bit protocol lifted onto threads.
//!
//! Scheduling follows the paper's blocked/ready instance model rather than
//! blocking OS threads: when an instance needs an operand that has not
//! arrived (an unwritten array element or an outstanding function return),
//! the *instance* is parked and the worker moves on. The write (or return)
//! that produces the operand delivers it and re-queues the instance. This
//! makes the pool deadlock-free under any scheduling order a correct
//! program allows, and lets it detect true deadlocks exactly: when no task
//! of a job is queued or running but instances remain parked, no future
//! delivery can happen.
//!
//! [`Pool`] owns everything about scheduling: the worker threads, their
//! deques with work stealing (own deque LIFO for locality, steal FIFO from
//! siblings — `std` threads, mutexes and condvars only), the per-job state
//! ([`Job`]: store, liveness counts, stop/error/result, counters, completion
//! hook, trace), batched wake-up delivery, instance arenas, the one run loop
//! over [`pods_sp::exec::run_instance`], and the one `ExecCtx` adapter.
//!
//! A parked instance goes into its job's blocked map, keyed by instance,
//! and a waiter is an `(instance, slot)` pair. Delivering a batch of
//! wake-ups takes the job's scheduler lock once: each value fills its
//! parked frame (re-queuing the instance when the awaited slot arrives) or,
//! when its target is queued or running, lands in the mailbox, which the
//! target drains when it next tries to park. Frames move by value between
//! the run queues, the worker, and the blocked map.
//!
//! # Pool lifecycle vs per-job state
//!
//! A pool outlives any single program execution; [`crate::Runtime`] owns
//! one and keeps it alive across calls (it is the only place a pool is
//! spawned). A [`Job`] owns everything scoped to one execution. Queue
//! entries carry an `Arc<Job>`, so any number of jobs can be in flight on
//! one pool without cross-talk.
//!
//! # Warm-path cost model
//!
//! * **Shared program state** ([`JobSpec`]): the partitioned SP program and
//!   its read-slot tables travel as `Arc`s, built once by
//!   [`crate::Runtime::prepare`] and shared by every job.
//! * **Batched wake-up delivery**: writes append their `(waiter, value)`
//!   wake-ups to a per-worker buffer
//!   ([`pods_istructure::SharedArray::write_into`]), delivered in one
//!   scheduler-lock transaction when the buffer reaches the job's
//!   `delivery_batch` and at every task boundary (park, finish, error), so
//!   deadlock detection observes exactly the liveness it would unbatched.
//! * **Per-worker instance arenas**: finished instances return their frame
//!   to a free-list owned by the worker thread, so loops that spawn an
//!   instance per iteration recycle frames instead of hammering the
//!   allocator.

use super::{EngineKind, EngineOutcome, EngineStats};
use crate::error::PodsError;
use crate::trace::{TraceEventKind, TraceHandle};
use pods_istructure::{
    ArrayHeader, ArrayId, Partitioning, PeId, SharedArray, SharedArrayStore, SharedReadResult,
    StoreStats, Value,
};
use pods_machine::{ArraySnapshot, InstanceId, SimulationError};
use pods_partition::PartitionReport;
use pods_sp::exec::{self, ArrayOps, ExecCtx, ExecEvent, Loaded, RunExit, TraceSink};
pub(crate) use pods_sp::exec::{build_read_slots, ReadSlots};
use pods_sp::{Operand, SlotId, SpId, SpProgram};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// `(instance, slot)` continuation tag registered with the store: where a
/// produced value must go.
type Waiter = (InstanceId, SlotId);

/// The immutable identity of one SP instance.
struct InstMeta {
    id: InstanceId,
    template: SpId,
    /// The virtual PE this instance runs as (drives Range Filters).
    pe: usize,
    /// Where the instance's return value goes, if it is a call.
    return_to: Option<Waiter>,
}

impl InstMeta {
    /// The waiter that routes a value into `slot` of this instance.
    fn waiter(&self, slot: SlotId) -> Waiter {
        (self.id, slot)
    }
}

/// The execution state of one instance: everything a worker needs to resume
/// it where it left off.
struct Frame {
    pc: usize,
    slots: Vec<Option<Value>>,
}

impl Frame {
    fn slot(&self, slot: SlotId) -> Option<Value> {
        self.slots.get(slot.index()).copied().flatten()
    }

    fn is_present(&self, slot: SlotId) -> bool {
        self.slot(slot).is_some()
    }

    fn set_slot(&mut self, slot: SlotId, value: Value) {
        if slot.index() < self.slots.len() {
            self.slots[slot.index()] = Some(value);
        }
    }

    fn clear_slot(&mut self, slot: SlotId) {
        if slot.index() < self.slots.len() {
            self.slots[slot.index()] = None;
        }
    }
}

/// A runnable instance: its identity plus the frame it resumes from.
struct Task {
    meta: InstMeta,
    frame: Frame,
}

/// An instance parked on a missing operand.
struct Blocked {
    task: Task,
    slot: SlotId,
}

/// A job's parked instances plus the mailbox for values that arrive while
/// their target instance is queued or running.
#[derive(Default)]
struct Sched {
    blocked: HashMap<InstanceId, Blocked>,
    mailbox: HashMap<InstanceId, Vec<(SlotId, Value)>>,
}

/// Counters reported by the pool for one job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of worker threads in the pool that ran the job.
    pub workers: usize,
    /// SP instances created over the run.
    pub instances: u64,
    /// Task executions, counting each resume of a parked instance.
    pub tasks: u64,
    /// Times an instance was parked waiting for an operand.
    pub parks: u64,
    /// Parked instances re-queued because a delivery filled their awaited
    /// slot. Equals `parks` on every run that completes.
    pub resumptions: u64,
    /// Tasks obtained by stealing from another worker's deque.
    pub steals: u64,
    /// Process-unique identity of the worker pool that executed the job.
    /// Two runs on the same [`crate::Runtime`] report the same `pool_id`
    /// (the worker threads were reused); runs on two runtimes report
    /// different ones.
    pub pool_id: u64,
    /// 1-based sequence number of this job on its pool. A reused pool
    /// reports 1, 2, 3, … across successive submissions.
    pub job_seq: u64,
    /// Wake-up values delivered: one per `(waiter, value)` pair a write
    /// re-activated, *plus* one per function-return value routed back to a
    /// calling instance (returns travel through the same delivery path).
    pub wakeups: u64,
    /// Delivery transactions spent on those wake-ups. Equals `wakeups` when
    /// every delivery travels alone; batched delivery coalesces up to
    /// `delivery_batch` wake-ups per transaction.
    pub wakeup_flushes: u64,
    /// Instances whose frame was recycled from a worker's arena free-list
    /// instead of freshly allocated.
    pub arena_reuses: u64,
    /// Extra loop iterations absorbed by chunked instances: each time the
    /// chunk driver advanced an instance to its next iteration in place
    /// (instead of a fresh spawn) this grows by one. `0` when the program
    /// ran unchunked.
    pub chunk_iterations: u64,
    /// Super-op firings: each time the specialized driver passed a hoisted
    /// firing check and executed a whole fused run as one dispatch. `0`
    /// when the program ran without a specialization plan
    /// (`PODS_SPECIALIZE=0` or [`crate::RuntimeBuilder::specialize`]).
    pub super_ops: u64,
    /// Chunk-size retunes applied by [`crate::Runtime`]'s adaptive grain
    /// control before this job ran (0 on the first run of a program and
    /// whenever the chunk policy is fixed).
    pub chunks_autotuned: u64,
    /// Allocation counters of this job's I-structure store (live/peak
    /// arrays and approximate bytes).
    pub store: StoreStats,
}

impl PoolStats {
    /// SP instances actually created over the run (alias of `instances`,
    /// named for symmetry with [`Self::iterations_per_instance`]).
    pub fn instances_spawned(&self) -> u64 {
        self.instances
    }

    /// Effective grain: average loop iterations executed per spawned
    /// instance. `1.0` for an unchunked run (every iteration was its own
    /// instance); grows toward the chunk size as chunking takes hold.
    pub fn iterations_per_instance(&self) -> f64 {
        if self.instances == 0 {
            return 0.0;
        }
        (self.instances + self.chunk_iterations) as f64 / self.instances as f64
    }
}

impl std::fmt::Display for PoolStats {
    /// One-line human summary, shared by the examples and the slow-job
    /// diagnostics (see [`super::EngineStats::summary`]).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} worker(s), {} instances ({:.1} iter/instance), {} tasks, {} super-ops, \
             {} parks, {} resumptions, {} steals, {} wakeups in {} flushes, peak {} arrays",
            self.workers,
            self.instances,
            self.iterations_per_instance(),
            self.tasks,
            self.super_ops,
            self.parks,
            self.resumptions,
            self.steals,
            self.wakeups,
            self.wakeup_flushes,
            self.store.peak_arrays,
        )
    }
}

/// Everything program-shaped a job needs, in `Arc`-shared form so warm
/// submissions of the same prepared program pay zero setup: the partitioned
/// SP program, its read-slot tables, the partition report (for the
/// outcome), and the per-job execution knobs.
pub(crate) struct JobSpec {
    pub program: Arc<SpProgram>,
    pub read_slots: Arc<ReadSlots>,
    pub partition: PartitionReport,
    pub page_size: usize,
    /// 0 = unlimited; otherwise abort after this many task executions.
    pub max_tasks: u64,
    /// Max wake-ups buffered per worker before a forced flush (>= 1; 1
    /// flushes after every write, i.e. unbatched delivery).
    pub delivery_batch: usize,
    /// How many times adaptive grain control re-partitioned this program
    /// with a larger chunk before this submission (reported in the stats;
    /// 0 for fixed chunk policies).
    pub chunks_autotuned: u64,
    /// Completion hook: fired exactly once when the job finishes (success,
    /// failure, or cancellation), with the final allocation statistics of
    /// the job's I-structure store and whether the job failed. Installed by
    /// the `Runtime`'s service layer to drive its metrics and dispatch
    /// window.
    pub on_done: Option<JobNotifier>,
    /// Flight-recorder handle: when present, the scheduler and the exec
    /// core emit trace events for this job (see [`crate::trace`]). `None`
    /// (tracing disabled) costs one branch per would-be event.
    pub trace: Option<TraceHandle>,
}

/// The completion callback a [`JobSpec`] can carry (see
/// [`JobSpec::on_done`]).
pub(crate) type JobNotifier = Arc<dyn Fn(StoreStats, bool) + Send + Sync>;

/// The error every job cut short by pool teardown reports (tests match on
/// "cancelled").
pub(crate) fn cancellation_error() -> SimulationError {
    SimulationError::Runtime(
        "job cancelled: its runtime was dropped before the job completed".into(),
    )
}

/// Per-task memo of array directory lookups.
///
/// Going through the store's sharded directory (plus an `Arc` refcount
/// bump) for every element access costs two shared-cache-line touches;
/// loop instances touch the same few arrays thousands of times, so one
/// lookup per task execution amortises to nothing. The cache lives on the
/// worker's stack for one task execution and is rebuilt after a park.
struct ArrayCache<T> {
    entries: Vec<(ArrayId, Arc<SharedArray<T>>)>,
}

impl<T> ArrayCache<T> {
    fn get(&mut self, store: &SharedArrayStore<T>, id: ArrayId) -> Result<&SharedArray<T>, String> {
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == id) {
            return Ok(&self.entries[i].1);
        }
        let shared = store.require(id).map_err(|e| e.to_string())?;
        self.entries.push((id, shared));
        Ok(&self.entries.last().expect("just pushed").1)
    }
}

/// Upper bound on recycled frames a worker keeps around, so a spike of tiny
/// instances cannot pin memory forever.
const ARENA_MAX_FREE: usize = 256;

/// Per-worker free-list of instance frames (operand-slot vectors). Loop
/// bodies spawn one instance per iteration; recycling the frame of every
/// finished instance turns that allocator traffic into a pop/push on a
/// thread-local vector.
#[derive(Default)]
struct InstanceArena {
    free: Vec<Vec<Option<Value>>>,
}

impl InstanceArena {
    /// A frame of `num_slots` cleared slots with `args` copied into the
    /// parameter positions. Returns `true` when the frame was recycled.
    fn frame(&mut self, num_slots: usize, args: &[Value]) -> (Vec<Option<Value>>, bool) {
        let (mut slots, reused) = match self.free.pop() {
            Some(v) => (v, true),
            None => (Vec::with_capacity(num_slots), false),
        };
        slots.clear();
        slots.resize(num_slots, None);
        for (i, v) in args.iter().take(num_slots).enumerate() {
            slots[i] = Some(*v);
        }
        (slots, reused)
    }

    fn recycle(&mut self, slots: Vec<Option<Value>>) {
        if self.free.len() < ARENA_MAX_FREE {
            self.free.push(slots);
        }
    }
}

/// State owned by one worker thread and reused across every task it runs:
/// the instance arena, the wake-up delivery buffer, and a scratch vector for
/// marshalling spawn arguments. All three keep per-iteration allocations
/// and lock acquisitions off the warm path.
struct WorkerCtx {
    arena: InstanceArena,
    /// Buffered wake-ups of the job currently executing. Invariant: empty
    /// between tasks — every exit path of `run_task` flushes (on progress)
    /// or clears (when the job is already failing) the buffer, so
    /// deliveries can never leak into another job.
    delivery: Vec<(Waiter, Value)>,
    spawn_args: Vec<Value>,
}

/// The most recent park of a job, named by its deadlock report.
#[derive(Clone, Copy)]
struct Suspended {
    inst: InstanceId,
    template: SpId,
    pc: usize,
    slot: SlotId,
}

/// Per-job liveness accounting. `live` counts existing instances (queued,
/// running, or parked); `in_flight` counts queued-or-running tasks. When
/// `in_flight` hits zero with instances still live, no future delivery can
/// wake them: the job is deadlocked.
#[derive(Default)]
struct JobCounts {
    live: usize,
    in_flight: usize,
    last_suspend: Option<Suspended>,
}

/// The per-job event counters behind [`PoolStats`].
#[derive(Default)]
struct Counters {
    tasks: AtomicU64,
    parks: AtomicU64,
    resumptions: AtomicU64,
    steals: AtomicU64,
    wakeups: AtomicU64,
    wakeup_flushes: AtomicU64,
    arena_reuses: AtomicU64,
    chunk_iterations: AtomicU64,
    super_ops: AtomicU64,
}

/// The entry instance of every job: the first one spawned.
const ENTRY: InstanceId = InstanceId(0);

/// Everything scoped to one submitted program execution. Queue entries
/// reference their job through an `Arc`, so concurrent jobs on one pool have
/// fully disjoint instance namespaces, I-structure stores, parked-instance
/// maps, deadlock detection, and error/result slots.
struct Job {
    /// 1-based submission sequence number on the owning pool.
    seq: u64,
    /// Identity of the owning pool (for reuse assertions / stats).
    pool_id: u64,
    /// Virtual-PE count for partitioning decisions (= pool worker count).
    workers: usize,
    spec: JobSpec,
    store: SharedArrayStore<Waiter>,
    sched: Mutex<Sched>,
    counts: Mutex<JobCounts>,
    /// Set on first error (or cancellation): workers abandon this job's
    /// tasks instead of running them.
    stop: AtomicBool,
    error: Mutex<Option<SimulationError>>,
    result: Mutex<Option<Value>>,
    done: Mutex<bool>,
    done_cv: Condvar,
    /// First-wins claim on the terminal transition, separate from `done` so
    /// the hook can run *before* `done` is published (waiters must never
    /// observe a finished job whose hook has not fired yet).
    finished: AtomicBool,
    next_instance: AtomicU64,
    next_array: AtomicUsize,
    counters: Counters,
}

impl Job {
    #[inline(always)]
    fn emit(&self, w: usize, inst: InstanceId, kind: TraceEventKind) {
        if let Some(t) = &self.spec.trace {
            t.emit(w as u32, inst.0, kind);
        }
    }

    /// Records the error and stops the job (not the pool). A no-op if the
    /// job already finished: the first of normal completion / failure /
    /// cancellation wins, so a cancel racing a finished job can neither
    /// clobber its result nor re-fire the completion hook.
    fn fail(&self, err: SimulationError) {
        self.stop.store(true, Ordering::SeqCst);
        self.finish(Some(err));
    }

    /// The single completion point: flips `finished` exactly once, records
    /// the error (if any), fires the `on_done` hook, and only then
    /// publishes `done` and wakes every waiter.
    fn finish(&self, err: Option<SimulationError>) {
        // First caller wins; a cancel racing normal completion is dropped.
        if self.finished.swap(true, Ordering::SeqCst) {
            return;
        }
        let failed = err.is_some();
        if let Some(e) = err {
            *self.error.lock().expect("error poisoned") = Some(e);
        }
        // The hook runs before `done` is published: once a waiter observes
        // completion, the service metrics already include this job. No
        // locks are held here, so the hook may take the service locks.
        if let Some(hook) = &self.spec.on_done {
            hook(self.store.stats(), failed);
        }
        *self.done.lock().expect("done poisoned") = true;
        self.done_cv.notify_all();
    }

    /// Gives up a running task's `in_flight` slot — and, when the instance
    /// finished rather than `parked`, its `live` slot too — then completes
    /// the job if no instance is left, or fails it with a deadlock if
    /// nothing runnable is left to wake the parked ones.
    fn release(&self, parked: Option<Suspended>) {
        let mut c = self.counts.lock().expect("counts poisoned");
        c.in_flight -= 1;
        match parked {
            Some(p) => c.last_suspend = Some(p),
            None => c.live -= 1,
        }
        let (live, in_flight, last) = (c.live, c.in_flight, c.last_suspend);
        drop(c);
        if live == 0 {
            self.finish(None);
        } else if in_flight == 0 && !self.stop.load(Ordering::Relaxed) {
            let detail = last
                .map(|s| {
                    format!(
                        "inst{} of {} suspended at pc {} awaiting {}",
                        s.inst.0,
                        self.spec.program.template(s.template).name,
                        s.pc,
                        s.slot
                    )
                })
                .unwrap_or_default();
            self.fail(SimulationError::Deadlock {
                stuck_instances: live,
                detail,
            });
        }
    }

    /// Accounting for a task abandoned because its job errored out.
    fn abandon(&self) {
        let mut c = self.counts.lock().expect("counts poisoned");
        c.in_flight -= 1;
        c.live -= 1;
    }

    /// Delivers a batch of wake-ups under one scheduler-lock acquisition:
    /// each value fills its parked frame, pushing the instance onto `woken`
    /// when the awaited slot arrives, or lands in the mailbox when its
    /// target is queued or running.
    fn deliver(&self, batch: std::vec::Drain<'_, (Waiter, Value)>, woken: &mut Vec<Task>) {
        let mut sched = self.sched.lock().expect("sched poisoned");
        for ((target, slot), value) in batch {
            if let Some(b) = sched.blocked.get_mut(&target) {
                b.task.frame.set_slot(slot, value);
                if b.slot == slot {
                    let b = sched.blocked.remove(&target).expect("checked above");
                    woken.push(b.task);
                }
            } else {
                sched.mailbox.entry(target).or_default().push((slot, value));
            }
        }
    }

    /// Parks the running instance on `slot`, unless a mailbox delivery that
    /// raced the park already filled it: then the task is handed back to
    /// keep running.
    fn try_park(&self, mut task: Task, slot: SlotId) -> Option<Task> {
        let mut sched = self.sched.lock().expect("sched poisoned");
        if let Some(msgs) = sched.mailbox.remove(&task.meta.id) {
            for (s, v) in msgs {
                task.frame.set_slot(s, v);
            }
        }
        if task.frame.is_present(slot) {
            return Some(task);
        }
        // Counted under the lock, before any delivery can resume the
        // instance: a wake-up may complete the whole job before this worker
        // returns, and the job's stats must already include this park.
        self.counters.parks.fetch_add(1, Ordering::Relaxed);
        sched.blocked.insert(task.meta.id, Blocked { task, slot });
        None
    }

    fn is_done(&self) -> bool {
        *self.done.lock().expect("done poisoned")
    }

    /// Blocks until the job completes and assembles its outcome, timed from
    /// `started`.
    fn wait(
        &self,
        partition: PartitionReport,
        started: Instant,
    ) -> Result<EngineOutcome, PodsError> {
        let mut done = self.done.lock().expect("done poisoned");
        while !*done {
            done = self.done_cv.wait(done).expect("done poisoned");
        }
        drop(done);
        if let Some(err) = self.error.lock().expect("error poisoned").take() {
            return Err(err.into());
        }
        let wall_us = started.elapsed().as_secs_f64() * 1e6;
        let arrays = self
            .store
            .snapshots()
            .into_iter()
            .map(|(id, name, shape, values)| ArraySnapshot {
                id,
                name,
                shape,
                values,
            })
            .collect();
        Ok(EngineOutcome {
            engine: EngineKind::Native.name(),
            return_value: self.result.lock().expect("result poisoned").take(),
            arrays,
            modelled_us: None,
            wall_us,
            stats: EngineStats::Native {
                stats: self.stats(),
                partition,
            },
            diagnostics: None,
        })
    }

    fn stats(&self) -> PoolStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let n = &self.counters;
        PoolStats {
            workers: self.workers,
            instances: load(&self.next_instance),
            tasks: load(&n.tasks),
            parks: load(&n.parks),
            resumptions: load(&n.resumptions),
            steals: load(&n.steals),
            pool_id: self.pool_id,
            job_seq: self.seq,
            wakeups: load(&n.wakeups),
            wakeup_flushes: load(&n.wakeup_flushes),
            arena_reuses: load(&n.arena_reuses),
            chunk_iterations: load(&n.chunk_iterations),
            super_ops: load(&n.super_ops),
            chunks_autotuned: self.spec.chunks_autotuned,
            store: self.store.stats(),
        }
    }
}

/// A runnable unit on the pool: one task of one job.
struct Entry {
    job: Arc<Job>,
    task: Task,
}

/// Pool-wide scheduling state shared by the workers and submitters.
struct PoolCoord {
    /// Queued tasks across all deques (the condvar predicate for idle
    /// workers).
    ready: isize,
    /// Set only when the pool itself is being torn down.
    shutdown: bool,
}

/// Process-unique pool identities, so tests (and users) can assert that two
/// runs really shared one set of worker threads. No two pools ever report
/// the same id.
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

struct PoolShared {
    id: u64,
    workers: usize,
    queues: Vec<Mutex<VecDeque<Entry>>>,
    coord: Mutex<PoolCoord>,
    cv: Condvar,
    jobs_submitted: AtomicU64,
    /// Cheap teardown flag checked on the workers' hot paths (between
    /// tasks and between instructions), so dropping the pool aborts
    /// in-flight jobs at the next instruction boundary instead of running
    /// every queued task to completion first.
    stop: AtomicBool,
}

impl PoolShared {
    fn lock_coord(&self) -> std::sync::MutexGuard<'_, PoolCoord> {
        self.coord.lock().expect("coord poisoned")
    }

    /// Makes `tasks` runnable on worker `w`'s deque: one `counts`, one
    /// `coord` and one deque lock for the whole batch. `new` marks freshly
    /// spawned instances (as opposed to woken ones).
    fn enqueue(
        &self,
        w: usize,
        job: &Arc<Job>,
        tasks: impl ExactSizeIterator<Item = Task>,
        new: bool,
    ) {
        let n = tasks.len();
        {
            let mut c = job.counts.lock().expect("counts poisoned");
            if new {
                c.live += n;
            }
            c.in_flight += n;
        }
        self.lock_coord().ready += n as isize;
        {
            let mut q = self.queues[w].lock().expect("queue poisoned");
            for task in tasks {
                if !new {
                    job.emit(w, task.meta.id, TraceEventKind::Resumed);
                }
                q.push_back(Entry {
                    job: Arc::clone(job),
                    task,
                });
            }
        }
        if n == 1 {
            self.cv.notify_one();
        } else {
            self.cv.notify_all();
        }
    }

    #[allow(clippy::too_many_arguments)] // hot path: a params struct would be built per spawn
    fn spawn(
        &self,
        w: usize,
        job: &Arc<Job>,
        template: SpId,
        args: &[Value],
        pe: usize,
        return_to: Option<Waiter>,
        arena: &mut InstanceArena,
    ) {
        let id = InstanceId(job.next_instance.fetch_add(1, Ordering::Relaxed));
        let (slots, reused) = arena.frame(job.spec.program.template(template).num_slots, args);
        if reused {
            job.counters.arena_reuses.fetch_add(1, Ordering::Relaxed);
        }
        job.emit(w, id, TraceEventKind::InstanceSpawned);
        let meta = InstMeta {
            id,
            template,
            pe,
            return_to,
        };
        let task = Task {
            meta,
            frame: Frame { pc: 0, slots },
        };
        self.enqueue(w, job, std::iter::once(task), true);
    }

    /// Pops the next task: own deque first (LIFO end for locality), then
    /// steal from siblings (FIFO end, taking the oldest work).
    fn pop_task(&self, w: usize) -> Option<Entry> {
        let own = self.queues[w].lock().expect("queue poisoned").pop_back();
        let entry = own.or_else(|| {
            (1..self.workers).find_map(|i| {
                let victim = (w + i) % self.workers;
                let stolen = self.queues[victim]
                    .lock()
                    .expect("queue poisoned")
                    .pop_front();
                if let Some(e) = &stolen {
                    e.job.counters.steals.fetch_add(1, Ordering::Relaxed);
                    let from = victim as u32;
                    e.job
                        .emit(w, e.task.meta.id, TraceEventKind::Steal { from });
                }
                stolen
            })
        });
        if entry.is_some() {
            self.lock_coord().ready -= 1;
        }
        entry
    }

    /// Delivers every buffered wake-up of `buf` in one scheduler-lock
    /// transaction and enqueues everything that woke in one more. Called
    /// when the buffer reaches the job's `delivery_batch` and at every task
    /// boundary (park, finish), so batching changes *when* locks are taken,
    /// never *whether* a wake-up happens before the liveness counters can
    /// observe the task as idle.
    fn flush(&self, w: usize, job: &Arc<Job>, buf: &mut Vec<(Waiter, Value)>) {
        if buf.is_empty() {
            return;
        }
        job.counters
            .wakeups
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        job.counters.wakeup_flushes.fetch_add(1, Ordering::Relaxed);
        let mut woken = Vec::new();
        job.deliver(buf.drain(..), &mut woken);
        if woken.is_empty() {
            return;
        }
        job.counters
            .resumptions
            .fetch_add(woken.len() as u64, Ordering::Relaxed);
        self.enqueue(w, job, woken.into_iter(), false);
    }

    /// Terminates an instance, routing its return value through the
    /// delivery buffer and flushing it (a task boundary) before the
    /// liveness counters give up this task's `in_flight` slot.
    fn finish(
        &self,
        w: usize,
        job: &Arc<Job>,
        meta: &InstMeta,
        value: Option<Value>,
        delivery: &mut Vec<(Waiter, Value)>,
    ) {
        if meta.id == ENTRY {
            *job.result.lock().expect("result poisoned") = value;
        } else if let (Some(ret), Some(v)) = (meta.return_to, value) {
            delivery.push((ret, v));
        }
        self.flush(w, job, delivery);
        job.release(None);
    }

    /// Runs one task until its instance finishes, parks, or its job stops.
    /// The instruction semantics live in the shared core
    /// ([`pods_sp::exec::run_instance`]); the pool supplies the mechanics
    /// and the park/resume.
    ///
    /// Delivery-buffer discipline: `ctx.delivery` is empty on entry and on
    /// every return. Progress exits (park, finish) *flush* — buffered
    /// wake-ups must be enqueued before this task's `in_flight` count is
    /// given up, or deadlock detection could observe a false idle. Failure
    /// exits (job error, cancellation) *clear* — the job is already failing
    /// and its waiters are released by `fail`, but the buffer must not leak
    /// into the next task, which may belong to another job. The frame goes
    /// back to the worker's arena on every terminal exit.
    fn run_task(&self, job: &Arc<Job>, mut task: Task, w: usize, ctx: &mut WorkerCtx) {
        debug_assert!(ctx.delivery.is_empty(), "delivery buffer leaked a task");
        let executed = job.counters.tasks.fetch_add(1, Ordering::Relaxed) + 1;
        if job.spec.max_tasks > 0 && executed > job.spec.max_tasks {
            job.fail(SimulationError::EventLimitExceeded {
                limit: job.spec.max_tasks,
            });
            job.abandon();
            ctx.arena.recycle(task.frame.slots);
            return;
        }
        let (id, template_id) = (task.meta.id, task.meta.template);
        let program = Arc::clone(&job.spec.program);
        let template = program.template(template_id);
        let slot_table = &job.spec.read_slots[template_id.index()];
        let mut cache = ArrayCache {
            entries: Vec::new(),
        };
        job.emit(w, id, TraceEventKind::RunBegin);
        loop {
            let exit = {
                let mut cx = PoolCtx {
                    pool: self,
                    job,
                    meta: &task.meta,
                    frame: &mut task.frame,
                    cache: &mut cache,
                    w,
                    worker: ctx,
                    super_ops: 0,
                };
                exec::run_instance(
                    &mut cx,
                    &template.code,
                    slot_table,
                    template.chunk_meta.as_ref(),
                    template.plan.as_ref(),
                )
            };
            job.emit(w, id, TraceEventKind::RunEnd);
            let err = match exit {
                Ok(RunExit::Finished(v)) => {
                    self.finish(w, job, &task.meta, v, &mut ctx.delivery);
                    ctx.arena.recycle(task.frame.slots);
                    return;
                }
                Ok(RunExit::Blocked(slot)) => {
                    self.flush(w, job, &mut ctx.delivery);
                    let parked = Suspended {
                        inst: id,
                        template: template_id,
                        pc: task.frame.pc,
                        slot,
                    };
                    match job.try_park(task, slot) {
                        Some(resumed) => {
                            job.emit(w, id, TraceEventKind::RunBegin);
                            task = resumed;
                            continue;
                        }
                        None => {
                            job.release(Some(parked));
                            return;
                        }
                    }
                }
                Err(msg) => Some(SimulationError::Runtime(msg)),
                // Pool teardown cuts the job short so its waiter gets a
                // cancellation error instead of hanging; otherwise the job
                // itself already failed and this task is simply abandoned.
                Ok(RunExit::Stopped) => {
                    (!job.stop.load(Ordering::Relaxed)).then(cancellation_error)
                }
            };
            if let Some(err) = err {
                job.fail(err);
            }
            job.abandon();
            ctx.delivery.clear();
            ctx.arena.recycle(task.frame.slots);
            return;
        }
    }

    fn worker(&self, w: usize) {
        let mut ctx = WorkerCtx {
            arena: InstanceArena::default(),
            delivery: Vec::new(),
            spawn_args: Vec::new(),
        };
        loop {
            if self.stop.load(Ordering::Relaxed) {
                // Leave queued tasks in place: `Drop` drains them and fails
                // their jobs with the cancellation error.
                return;
            }
            if let Some(entry) = self.pop_task(w) {
                self.run_task(&entry.job, entry.task, w, &mut ctx);
                continue;
            }
            let c = self.lock_coord();
            if c.shutdown {
                return;
            }
            if c.ready <= 0 {
                // Untimed wait is lost-wakeup-safe: `ready` is incremented
                // under this same mutex before the task is pushed, and the
                // notify fires after the push — so either this check sees
                // ready > 0, or the enqueuer's notify lands after the wait
                // has atomically released the lock. A persistent pool must
                // not poll: idle runtimes should cost nothing.
                let _unused = self.cv.wait(c).expect("coord poisoned");
            }
        }
    }
}

/// The pool's execution context for the shared instruction core
/// (`pods_sp::exec`): one task execution of one instance. The semantics
/// live in the core; this adapter supplies the mechanics — the job's
/// [`SharedArrayStore`] (with the per-task directory memo and batched
/// wake-up delivery), the worker-local spawn scratch and frame arena, and
/// the job/pool stop flags. Costs are free (`charge` keeps its no-op
/// default): the only honest clock here is the wall.
struct PoolCtx<'a> {
    pool: &'a PoolShared,
    job: &'a Arc<Job>,
    meta: &'a InstMeta,
    frame: &'a mut Frame,
    cache: &'a mut ArrayCache<Waiter>,
    w: usize,
    worker: &'a mut WorkerCtx,
    /// Super-op firings this run segment, flushed to the job counter on
    /// drop — one atomic per segment instead of one per firing, which is
    /// too hot a path for a shared cache line.
    super_ops: u64,
}

impl Drop for PoolCtx<'_> {
    fn drop(&mut self) {
        if self.super_ops > 0 {
            self.job
                .counters
                .super_ops
                .fetch_add(self.super_ops, Ordering::Relaxed);
        }
    }
}

impl ArrayOps for PoolCtx<'_> {
    fn alloc_array(
        &mut self,
        dst: SlotId,
        name: &str,
        dims: &[usize],
        distributed: bool,
    ) -> Result<(), String> {
        let id = ArrayId(self.job.next_array.fetch_add(1, Ordering::Relaxed));
        let total: usize = dims.iter().product();
        let (page_size, workers) = (self.job.spec.page_size, self.job.workers);
        let partitioning = if distributed {
            Partitioning::new(total, page_size, workers)
        } else {
            let pe = PeId(self.meta.pe);
            Partitioning::single_owner(total, page_size, workers, pe)
        };
        self.job
            .store
            .allocate(
                id,
                name.to_string(),
                pods_istructure::ArrayShape::new(dims.to_vec()),
                partitioning,
            )
            .map_err(|e| e.to_string())?;
        self.frame.set_slot(dst, Value::ArrayRef(id));
        Ok(())
    }

    fn with_header<R>(
        &mut self,
        id: ArrayId,
        f: impl FnOnce(&ArrayHeader) -> R,
    ) -> Result<R, String> {
        let shared = self.cache.get(&self.job.store, id)?;
        Ok(f(shared.header()))
    }

    fn load_element(&mut self, id: ArrayId, offset: usize, dst: SlotId) -> Result<Loaded, String> {
        let shared = self.cache.get(&self.job.store, id)?;
        match shared
            .read(offset, self.meta.waiter(dst))
            .map_err(|e| e.to_string())?
        {
            SharedReadResult::Present(v) => Ok(Loaded::Ready(v)),
            // The producing write will deliver into `dst`; split-phase, so
            // the core keeps the instance running until the value is
            // consumed.
            SharedReadResult::Deferred => Ok(Loaded::Deferred),
        }
    }

    fn store_element(&mut self, id: ArrayId, offset: usize, value: Value) -> Result<(), String> {
        // Wake-ups land in the worker's delivery buffer; they are flushed
        // in one transaction when the buffer fills (or at the next task
        // boundary).
        {
            let shared = self.cache.get(&self.job.store, id)?;
            shared
                .write_into(offset, value, &mut self.worker.delivery)
                .map_err(|e| e.to_string())?;
        }
        if self.worker.delivery.len() >= self.job.spec.delivery_batch {
            self.pool.flush(self.w, self.job, &mut self.worker.delivery);
        }
        Ok(())
    }
}

impl ExecCtx for PoolCtx<'_> {
    #[inline(always)]
    fn pc(&self) -> usize {
        self.frame.pc
    }

    #[inline(always)]
    fn set_pc(&mut self, pc: usize) {
        self.frame.pc = pc;
    }

    #[inline(always)]
    fn slot(&self, slot: SlotId) -> Option<Value> {
        self.frame.slot(slot)
    }

    #[inline(always)]
    fn set_slot(&mut self, slot: SlotId, value: Value) {
        self.frame.set_slot(slot, value);
    }

    #[inline(always)]
    fn clear_slot(&mut self, slot: SlotId) {
        self.frame.clear_slot(slot);
    }

    #[inline(always)]
    fn pe(&self) -> usize {
        self.meta.pe
    }

    #[inline(always)]
    fn should_stop(&self) -> bool {
        self.job.stop.load(Ordering::Relaxed) || self.pool.stop.load(Ordering::Relaxed)
    }

    #[inline(always)]
    fn chunk_advanced(&mut self) {
        self.job
            .counters
            .chunk_iterations
            .fetch_add(1, Ordering::Relaxed);
    }

    #[inline(always)]
    fn super_op_fired(&mut self) {
        self.super_ops += 1;
    }

    fn spawn(
        &mut self,
        target: SpId,
        args: &[Operand],
        distributed: bool,
        return_to: Option<SlotId>,
    ) -> Result<(), String> {
        // Marshal arguments into the worker's scratch vector (no per-spawn
        // allocation, and distributed spawns reuse one slice instead of
        // cloning per PE).
        let mut buf = std::mem::take(&mut self.worker.spawn_args);
        buf.clear();
        buf.extend(args.iter().map(|a| self.operand(a)));
        let ret = return_to.map(|slot| self.meta.waiter(slot));
        let pe = self.meta.pe;
        let arena = &mut self.worker.arena;
        if distributed {
            for q in 0..self.job.workers {
                let ret_here = if q == pe { ret } else { None };
                self.pool
                    .spawn(self.w, self.job, target, &buf, q, ret_here, arena);
            }
        } else {
            self.pool
                .spawn(self.w, self.job, target, &buf, pe, ret, arena);
        }
        self.worker.spawn_args = buf;
        Ok(())
    }

    #[inline(always)]
    fn trace_sink(&mut self) -> Option<&mut dyn TraceSink> {
        if self.job.spec.trace.is_some() {
            Some(self)
        } else {
            None
        }
    }
}

impl TraceSink for PoolCtx<'_> {
    fn exec_event(&mut self, _pe: usize, ev: ExecEvent) {
        self.job
            .emit(self.w, self.meta.id, TraceEventKind::from_exec(ev));
    }
}

/// A persistent work-stealing worker pool: `workers` OS threads that stay
/// parked between jobs and execute any number of submitted jobs, serially
/// or concurrently. Dropping the pool joins the threads; outstanding jobs —
/// queued or in flight — are cut short (at the next instruction boundary)
/// and fail with a cancellation error rather than hanging their waiters.
pub(crate) struct Pool {
    shared: Arc<PoolShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawns a pool of `workers` threads (at least one).
    pub(crate) fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            workers,
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            coord: Mutex::new(PoolCoord {
                ready: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            jobs_submitted: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let threads = (0..workers)
            .map(|w| {
                let s = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pods-native-{}-{w}", shared.id))
                    .spawn(move || s.worker(w))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, threads }
    }

    /// Process-unique identity of this pool.
    pub(crate) fn id(&self) -> u64 {
        self.shared.id
    }

    /// Submits one prepared program for execution and returns a handle to
    /// wait on. The program state in the [`JobSpec`] is `Arc`-shared, so a
    /// warm submission allocates only per-job state (store, parked-instance
    /// map, counters) — no program clone, no re-partition, no read-slot
    /// rebuild. The entry instance is placed on a rotating home worker so
    /// that concurrent jobs spread across the pool.
    pub(crate) fn submit(&self, mut spec: JobSpec, args: &[Value]) -> PoolHandle {
        let started = Instant::now();
        let seq = self.shared.jobs_submitted.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(t) = &spec.trace {
            t.emit(t.service_lane(), 0, TraceEventKind::JobStarted);
        }
        let partition = std::mem::take(&mut spec.partition);
        spec.delivery_batch = spec.delivery_batch.max(1);
        let entry_template = spec.program.entry();
        let job = Arc::new(Job {
            seq,
            pool_id: self.shared.id,
            workers: self.shared.workers,
            spec,
            store: SharedArrayStore::new(),
            sched: Mutex::default(),
            counts: Mutex::new(JobCounts::default()),
            stop: AtomicBool::new(false),
            error: Mutex::new(None),
            result: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            finished: AtomicBool::new(false),
            next_instance: AtomicU64::new(0),
            next_array: AtomicUsize::new(0),
            counters: Counters::default(),
        });
        let home = (seq as usize - 1) % self.shared.workers;
        // Submission happens off the worker threads, so the entry frame
        // comes from a throwaway arena (one allocation per job).
        let mut arena = InstanceArena::default();
        self.shared
            .spawn(home, &job, entry_template, args, 0, None, &mut arena);
        PoolHandle {
            job,
            partition,
            started,
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        {
            self.shared.lock_coord().shutdown = true;
        }
        self.shared.cv.notify_all();
        for t in self.threads.drain(..) {
            t.join().expect("pool worker panicked");
        }
        // Jobs still queued when the pool dies would otherwise hang their
        // waiters; fail them loudly instead.
        for q in &self.shared.queues {
            for entry in q.lock().expect("queue poisoned").drain(..) {
                entry.job.fail(cancellation_error());
            }
        }
    }
}

/// A handle to one submitted job. `wait` blocks until the job completes and
/// assembles the uniform [`EngineOutcome`].
pub(crate) struct PoolHandle {
    job: Arc<Job>,
    partition: PartitionReport,
    started: Instant,
}

impl PoolHandle {
    /// Whether the job has already completed (successfully or not).
    pub(crate) fn is_done(&self) -> bool {
        self.job.is_done()
    }

    /// A detachable cancel token for this job, usable while (or after)
    /// `wait` consumes the handle.
    pub(crate) fn canceller(&self) -> PoolCanceller {
        PoolCanceller {
            job: Arc::clone(&self.job),
        }
    }

    /// Blocks until the job completes and returns its outcome.
    pub(crate) fn wait(self) -> Result<EngineOutcome, PodsError> {
        self.job.wait(self.partition, self.started)
    }
}

/// Cancel token for one job: stops the job at its next instruction boundary
/// with the supplied error, through the same stop-flag path that pool
/// teardown uses. A no-op if the job already finished.
#[derive(Clone)]
pub(crate) struct PoolCanceller {
    job: Arc<Job>,
}

impl PoolCanceller {
    /// Whether the job has already completed (successfully or not).
    pub(crate) fn is_done(&self) -> bool {
        self.job.is_done()
    }

    /// Stops the job with `err` unless it already finished.
    pub(crate) fn cancel(&self, err: SimulationError) {
        self.job.fail(err);
    }
}
