//! The pooled scheduler behind the `native` and `async` engines.
//!
//! Where the machine simulator *models* iteration-level parallelism on
//! simulated PEs, the pooled engines *run* it: the partitioned SP program
//! executes on a pool of real OS threads (one "virtual PE" per worker),
//! iteration instances are spawned per the partitioner's distribution
//! decisions (distributing allocate, `LD`, Range Filters), and instances
//! synchronise through the thread-safe I-structure store
//! ([`pods_istructure::SharedArrayStore`]) — write-once cells whose deferred
//! readers are re-activated by the eventual write, exactly the paper's
//! presence-bit protocol lifted onto threads.
//!
//! Scheduling follows the paper's blocked/ready instance model rather than
//! blocking OS threads: when an instance needs an operand that has not
//! arrived (an unwritten array element or an outstanding function return),
//! the *instance* is suspended and the worker moves on. The write (or
//! return) that produces the operand delivers it and re-queues the
//! instance. This makes the pool deadlock-free under any scheduling order a
//! correct program allows, and lets it detect true deadlocks exactly: when
//! no task of a job is queued or running but instances remain suspended,
//! no future delivery can happen.
//!
//! [`Pool`] owns everything about scheduling: the worker threads, their
//! deques with work stealing (own deque LIFO for locality, steal FIFO from
//! siblings — `std` threads, mutexes and condvars only), the per-job state
//! ([`Job`]: store, liveness counts, stop/error/result, counters, completion
//! hook, trace), batched wake-up delivery, instance arenas, the one run loop
//! over [`pods_sp::exec::run_instance`], and the one `ExecCtx` adapter. The
//! only thing left open is *how a blocked instance parks and wakes*, the
//! [`Suspension`] strategy, dispatched statically:
//!
//! * `Registry` (`native`, [`crate::EngineKind::Native`]): a job-global
//!   blocked map plus a mailbox behind one scheduler lock; a waiter is an
//!   `(instance, slot)` pair and frames move by value.
//! * `Waker` (`async`, [`crate::EngineKind::AsyncCoop`]): each instance is a
//!   task that keeps its own suspension state; a waiter is an `Arc` of the
//!   task plus the slot, so a delivery locks only the receiving task.
//!
//! Both strategies count the same things the same way ([`PoolStats`]): any
//! difference between the two engines is the cost of the suspension
//! mechanism, not of the protocol around it.
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
//!   strategy transaction when the buffer reaches the job's
//!   `delivery_batch` and at every task boundary (park, finish, error), so
//!   deadlock detection observes exactly the liveness it would unbatched.
//! * **Per-worker instance arenas**: finished instances return their frame
//!   to a free-list owned by the worker thread, so loops that spawn an
//!   instance per iteration recycle frames instead of hammering the
//!   allocator.

use super::{EngineOutcome, EngineStats};
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
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// How a blocked instance parks and how a delivered value wakes it — the
/// one thing the two pooled engines do differently. Everything else
/// (queues, liveness, counters, the run loop) is the [`Pool`]'s.
pub(crate) trait Suspension: Sized + Send + Sync + 'static {
    /// Engine name reported in outcomes and worker-thread names.
    const NAME: &'static str;
    /// The continuation tag registered with the store: where a produced
    /// value must go.
    type Waiter: Clone + Send + Sync + 'static;
    /// A runnable instance as it sits in a run queue.
    type Task: Send + 'static;
    /// What a worker holds for an instance while it runs, besides the frame.
    type Running;
    /// Per-job suspension state.
    type State: Default + Send + Sync;

    /// A freshly spawned, runnable task.
    fn task(meta: InstMeta<Self::Waiter>, frame: Frame) -> Self::Task;
    /// The instance a queued task runs (for trace events).
    fn task_id(task: &Self::Task) -> InstanceId;
    /// Checks a popped task out for execution.
    fn begin(task: Self::Task) -> (Self::Running, Frame);
    /// The identity of the running instance.
    fn meta(running: &Self::Running) -> &InstMeta<Self::Waiter>;
    /// The waiter that routes a value into `slot` of the running instance.
    fn waiter(running: &Self::Running, slot: SlotId) -> Self::Waiter;
    /// Delivers a batch of wake-ups, pushing every task whose awaited slot
    /// arrived onto `woken`.
    fn deliver(
        state: &Self::State,
        batch: std::vec::Drain<'_, (Self::Waiter, Value)>,
        woken: &mut Vec<Self::Task>,
    );
    /// Parks the running instance on `slot`, unless a delivery that raced
    /// the park already filled it: then the instance is handed back to keep
    /// running.
    fn try_suspend(
        state: &Self::State,
        running: Self::Running,
        frame: Frame,
        slot: SlotId,
    ) -> Option<(Self::Running, Frame)>;
    /// The instance finished or was abandoned; later deliveries to it are
    /// dropped.
    fn retire(_running: &Self::Running) {}
    /// This engine's [`EngineStats`] variant.
    fn engine_stats(stats: PoolStats, partition: PartitionReport) -> EngineStats;
}

/// The immutable identity of one SP instance.
pub(crate) struct InstMeta<W> {
    pub id: InstanceId,
    pub template: SpId,
    /// The virtual PE this instance runs as (drives Range Filters).
    pub pe: usize,
    /// Where the instance's return value goes, if it is a call.
    pub return_to: Option<W>,
}

/// The execution state of one instance: everything a worker needs to resume
/// it where it left off.
#[derive(Debug)]
pub(crate) struct Frame {
    pub pc: usize,
    pub slots: Vec<Option<Value>>,
}

impl Frame {
    pub(crate) fn slot(&self, slot: SlotId) -> Option<Value> {
        self.slots.get(slot.index()).copied().flatten()
    }

    pub(crate) fn is_present(&self, slot: SlotId) -> bool {
        self.slot(slot).is_some()
    }

    pub(crate) fn set_slot(&mut self, slot: SlotId, value: Value) {
        if slot.index() < self.slots.len() {
            self.slots[slot.index()] = Some(value);
        }
    }

    pub(crate) fn clear_slot(&mut self, slot: SlotId) {
        if slot.index() < self.slots.len() {
            self.slots[slot.index()] = None;
        }
    }
}

/// Counters reported by the pool for one job, identical in meaning for both
/// suspension strategies.
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
/// outcome), and the per-job execution knobs. One [`crate::PreparedProgram`]
/// handle serves either strategy.
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
    /// the job's I-structure store. Installed by the `Runtime`'s service
    /// layer to drive its metrics and dispatch window.
    pub on_done: Option<JobNotifier>,
    /// Flight-recorder handle: when present, the scheduler and the exec
    /// core emit trace events for this job (see [`crate::trace`]). `None`
    /// (tracing disabled) costs one branch per would-be event.
    pub trace: Option<TraceHandle>,
}

/// The completion callback a [`JobSpec`] can carry (see
/// [`JobSpec::on_done`]).
pub(crate) type JobNotifier = Arc<dyn Fn(StoreStats) + Send + Sync>;

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
struct WorkerCtx<S: Suspension> {
    arena: InstanceArena,
    /// Buffered wake-ups of the job currently executing. Invariant: empty
    /// between tasks — every exit path of `run_task` flushes (on progress)
    /// or clears (when the job is already failing) the buffer, so
    /// deliveries can never leak into another job.
    delivery: Vec<(S::Waiter, Value)>,
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
/// fully disjoint instance namespaces, I-structure stores, suspension
/// state, deadlock detection, and error/result slots.
struct Job<S: Suspension> {
    /// 1-based submission sequence number on the owning pool.
    seq: u64,
    /// Identity of the owning pool (for reuse assertions / stats).
    pool_id: u64,
    /// Virtual-PE count for partitioning decisions (= pool worker count).
    workers: usize,
    spec: JobSpec,
    store: SharedArrayStore<S::Waiter>,
    suspension: S::State,
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

impl<S: Suspension> Job<S> {
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
        if let Some(e) = err {
            *self.error.lock().expect("error poisoned") = Some(e);
        }
        // The hook runs before `done` is published: once a waiter observes
        // completion, the service metrics already include this job. No
        // locks are held here, so the hook may take the service locks.
        if let Some(hook) = &self.spec.on_done {
            hook(self.store.stats());
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
    fn abandon(&self, running: &S::Running) {
        S::retire(running);
        let mut c = self.counts.lock().expect("counts poisoned");
        c.in_flight -= 1;
        c.live -= 1;
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

/// The strategy-independent face of a job, behind the job handle and the
/// canceller (per-job calls, never on the instruction path).
trait JobControl: Send + Sync {
    fn is_done(&self) -> bool;
    fn fail(&self, err: SimulationError);
    /// Blocks until the job completes and assembles its outcome, timed from
    /// `started`.
    fn wait(
        &self,
        partition: PartitionReport,
        started: Instant,
    ) -> Result<EngineOutcome, PodsError>;
}

impl<S: Suspension> JobControl for Job<S> {
    fn is_done(&self) -> bool {
        *self.done.lock().expect("done poisoned")
    }

    fn fail(&self, err: SimulationError) {
        Job::fail(self, err);
    }

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
            engine: S::NAME,
            return_value: self.result.lock().expect("result poisoned").take(),
            arrays,
            modelled_us: None,
            wall_us,
            stats: S::engine_stats(self.stats(), partition),
            diagnostics: None,
        })
    }
}

/// A runnable unit on the pool: one task of one job.
struct Entry<S: Suspension> {
    job: Arc<Job<S>>,
    task: S::Task,
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
/// runs really shared one set of worker threads. No two pools of either
/// strategy ever report the same id.
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

struct PoolShared<S: Suspension> {
    id: u64,
    workers: usize,
    queues: Vec<Mutex<VecDeque<Entry<S>>>>,
    coord: Mutex<PoolCoord>,
    cv: Condvar,
    jobs_submitted: AtomicU64,
    /// Cheap teardown flag checked on the workers' hot paths (between
    /// tasks and between instructions), so dropping the pool aborts
    /// in-flight jobs at the next instruction boundary instead of running
    /// every queued task to completion first.
    stop: AtomicBool,
}

impl<S: Suspension> PoolShared<S> {
    fn lock_coord(&self) -> std::sync::MutexGuard<'_, PoolCoord> {
        self.coord.lock().expect("coord poisoned")
    }

    /// Makes `tasks` runnable on worker `w`'s deque: one `counts`, one
    /// `coord` and one deque lock for the whole batch. `new` marks freshly
    /// spawned instances (as opposed to woken ones).
    fn enqueue(
        &self,
        w: usize,
        job: &Arc<Job<S>>,
        tasks: impl ExactSizeIterator<Item = S::Task>,
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
                    job.emit(w, S::task_id(&task), TraceEventKind::Resumed);
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
        job: &Arc<Job<S>>,
        template: SpId,
        args: &[Value],
        pe: usize,
        return_to: Option<S::Waiter>,
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
        let task = S::task(meta, Frame { pc: 0, slots });
        self.enqueue(w, job, std::iter::once(task), true);
    }

    /// Pops the next task: own deque first (LIFO end for locality), then
    /// steal from siblings (FIFO end, taking the oldest work).
    fn pop_task(&self, w: usize) -> Option<Entry<S>> {
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
                        .emit(w, S::task_id(&e.task), TraceEventKind::Steal { from });
                }
                stolen
            })
        });
        if entry.is_some() {
            self.lock_coord().ready -= 1;
        }
        entry
    }

    /// Delivers every buffered wake-up of `buf` in one strategy transaction
    /// and enqueues everything that woke in one more. Called when the
    /// buffer reaches the job's `delivery_batch` and at every task boundary
    /// (park, finish), so batching changes *when* locks are taken, never
    /// *whether* a wake-up happens before the liveness counters can observe
    /// the task as idle.
    fn flush(&self, w: usize, job: &Arc<Job<S>>, buf: &mut Vec<(S::Waiter, Value)>) {
        if buf.is_empty() {
            return;
        }
        job.counters
            .wakeups
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        job.counters.wakeup_flushes.fetch_add(1, Ordering::Relaxed);
        let mut woken = Vec::new();
        S::deliver(&job.suspension, buf.drain(..), &mut woken);
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
        job: &Arc<Job<S>>,
        running: &S::Running,
        value: Option<Value>,
        delivery: &mut Vec<(S::Waiter, Value)>,
    ) {
        S::retire(running);
        let meta = S::meta(running);
        if meta.id == ENTRY {
            *job.result.lock().expect("result poisoned") = value;
        } else if let (Some(ret), Some(v)) = (&meta.return_to, value) {
            delivery.push((ret.clone(), v));
        }
        self.flush(w, job, delivery);
        job.release(None);
    }

    /// Runs one task until its instance finishes, parks, or its job stops.
    /// The instruction semantics live in the shared core
    /// ([`pods_sp::exec::run_instance`]); the pool supplies the mechanics
    /// and `S` the park/resume.
    ///
    /// Delivery-buffer discipline: `ctx.delivery` is empty on entry and on
    /// every return. Progress exits (park, finish) *flush* — buffered
    /// wake-ups must be enqueued before this task's `in_flight` count is
    /// given up, or deadlock detection could observe a false idle. Failure
    /// exits (job error, cancellation) *clear* — the job is already failing
    /// and its waiters are released by `fail`, but the buffer must not leak
    /// into the next task, which may belong to another job. The frame goes
    /// back to the worker's arena on every terminal exit.
    fn run_task(&self, job: &Arc<Job<S>>, task: S::Task, w: usize, ctx: &mut WorkerCtx<S>) {
        debug_assert!(ctx.delivery.is_empty(), "delivery buffer leaked a task");
        let (mut running, mut frame) = S::begin(task);
        let executed = job.counters.tasks.fetch_add(1, Ordering::Relaxed) + 1;
        if job.spec.max_tasks > 0 && executed > job.spec.max_tasks {
            job.fail(SimulationError::EventLimitExceeded {
                limit: job.spec.max_tasks,
            });
            job.abandon(&running);
            ctx.arena.recycle(frame.slots);
            return;
        }
        let (id, template_id) = (S::meta(&running).id, S::meta(&running).template);
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
                    running: &running,
                    frame: &mut frame,
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
                    self.finish(w, job, &running, v, &mut ctx.delivery);
                    ctx.arena.recycle(frame.slots);
                    return;
                }
                Ok(RunExit::Blocked(slot)) => {
                    self.flush(w, job, &mut ctx.delivery);
                    let parked = Suspended {
                        inst: id,
                        template: template_id,
                        pc: frame.pc,
                        slot,
                    };
                    match S::try_suspend(&job.suspension, running, frame, slot) {
                        Some(resumed) => {
                            job.emit(w, id, TraceEventKind::RunBegin);
                            (running, frame) = resumed;
                            continue;
                        }
                        None => {
                            job.counters.parks.fetch_add(1, Ordering::Relaxed);
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
            job.abandon(&running);
            ctx.delivery.clear();
            ctx.arena.recycle(frame.slots);
            return;
        }
    }

    fn worker(&self, w: usize) {
        let mut ctx = WorkerCtx::<S> {
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
struct PoolCtx<'a, S: Suspension> {
    pool: &'a PoolShared<S>,
    job: &'a Arc<Job<S>>,
    running: &'a S::Running,
    frame: &'a mut Frame,
    cache: &'a mut ArrayCache<S::Waiter>,
    w: usize,
    worker: &'a mut WorkerCtx<S>,
    /// Super-op firings this run segment, flushed to the job counter on
    /// drop — one atomic per segment instead of one per firing, which is
    /// too hot a path for a shared cache line.
    super_ops: u64,
}

impl<S: Suspension> Drop for PoolCtx<'_, S> {
    fn drop(&mut self) {
        if self.super_ops > 0 {
            self.job
                .counters
                .super_ops
                .fetch_add(self.super_ops, Ordering::Relaxed);
        }
    }
}

impl<S: Suspension> ArrayOps for PoolCtx<'_, S> {
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
            let pe = PeId(S::meta(self.running).pe);
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
            .read(offset, S::waiter(self.running, dst))
            .map_err(|e| e.to_string())?
        {
            SharedReadResult::Present(v) => Ok(Loaded::Ready(v)),
            // The producing write will deliver into `dst` through the
            // suspension strategy; split-phase, so the core keeps the
            // instance running until the value is consumed.
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

impl<S: Suspension> ExecCtx for PoolCtx<'_, S> {
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
        S::meta(self.running).pe
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
        let ret = return_to.map(|slot| S::waiter(self.running, slot));
        let pe = S::meta(self.running).pe;
        let arena = &mut self.worker.arena;
        if distributed {
            for q in 0..self.job.workers {
                let ret_here = if q == pe { ret.clone() } else { None };
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

impl<S: Suspension> TraceSink for PoolCtx<'_, S> {
    fn exec_event(&mut self, _pe: usize, ev: ExecEvent) {
        let id = S::meta(self.running).id;
        self.job.emit(self.w, id, TraceEventKind::from_exec(ev));
    }
}

/// A persistent work-stealing worker pool: `workers` OS threads that stay
/// parked between jobs and execute any number of submitted jobs, serially
/// or concurrently. Dropping the pool joins the threads; outstanding jobs —
/// queued or in flight — are cut short (at the next instruction boundary)
/// and fail with a cancellation error rather than hanging their waiters.
pub(crate) struct Pool<S: Suspension> {
    shared: Arc<PoolShared<S>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl<S: Suspension> Pool<S> {
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
                    .name(format!("pods-{}-{}-{w}", S::NAME, shared.id))
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
    /// warm submission allocates only per-job state (store, suspension
    /// state, counters) — no program clone, no re-partition, no read-slot
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
        let job = Arc::new(Job::<S> {
            seq,
            pool_id: self.shared.id,
            workers: self.shared.workers,
            spec,
            store: SharedArrayStore::new(),
            suspension: S::State::default(),
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

impl<S: Suspension> Drop for Pool<S> {
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
    job: Arc<dyn JobControl>,
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
    job: Arc<dyn JobControl>,
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

/// Instantiates the shared strategy-generic test bodies of [`tests`] for one
/// [`Suspension`]: `strategy_tests! { S; test_name => body, ... }` makes
/// `#[test] fn test_name()` run `tests::body::<S>()`.
#[cfg(test)]
macro_rules! strategy_tests {
    ($strategy:ty; $($name:ident => $body:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                $crate::engine::pool::tests::$body::<$strategy>();
            }
        )*
    };
}
#[cfg(test)]
pub(crate) use strategy_tests;

/// Test bodies every suspension strategy must pass, instantiated per
/// strategy by [`strategy_tests!`] in the strategy's own module.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pipeline::{compile, CompiledProgram, RunOptions};

    /// A job spec for one submission of `program`, prepared on the spot.
    fn spec(program: &CompiledProgram, opts: &RunOptions) -> JobSpec {
        let (partitioned, partition) = program.partitioned(opts);
        let read_slots = build_read_slots(&partitioned);
        JobSpec {
            program: Arc::new(partitioned),
            read_slots: Arc::new(read_slots),
            partition,
            page_size: opts.page_size,
            max_tasks: opts.max_events,
            delivery_batch: opts.delivery_batch.max(1),
            chunks_autotuned: 0,
            on_done: None,
            trace: None,
        }
    }

    /// One job on a pool of `opts.num_pes` workers spawned for it.
    fn run_job<S: Suspension>(
        src: &str,
        args: &[Value],
        opts: &RunOptions,
    ) -> Result<EngineOutcome, PodsError> {
        let program = compile(src).unwrap();
        Pool::<S>::new(opts.num_pes)
            .submit(spec(&program, opts), args)
            .wait()
    }

    fn run<S: Suspension>(src: &str, args: &[Value], opts: &RunOptions) -> EngineOutcome {
        run_job::<S>(src, args, opts).unwrap()
    }

    fn run_err<S: Suspension>(src: &str, n: i64, opts: &RunOptions) -> SimulationError {
        match run_job::<S>(src, &[Value::Int(n)], opts) {
            Err(PodsError::Simulation(e)) => e,
            other => panic!("{}: expected a run-time failure, got {other:?}", S::NAME),
        }
    }

    fn stats<S: Suspension>(outcome: &EngineOutcome) -> PoolStats {
        assert_eq!(outcome.engine, S::NAME);
        match &outcome.stats {
            EngineStats::Native { stats, .. } | EngineStats::AsyncCoop { stats, .. } => *stats,
            other => panic!("expected pool stats, got {other:?}"),
        }
    }

    pub(crate) fn scalar_and_function_calls<S: Suspension>() {
        let outcome = run::<S>(
            "def main(n) { x = double(n); return x + 1; } def double(v) { return v * 2; }",
            &[Value::Int(10)],
            &RunOptions::with_pes(2),
        );
        assert_eq!(outcome.return_value, Some(Value::Int(21)));
        let stats = stats::<S>(&outcome);
        assert_eq!(stats.workers, 2);
        assert!(stats.instances >= 2);
        assert!(stats.tasks >= stats.instances);
    }

    pub(crate) fn distributed_fill_is_complete<S: Suspension>() {
        let src = r#"
            def main(n) {
                a = matrix(n, n);
                for i = 0 to n - 1 {
                    for j = 0 to n - 1 { a[i, j] = i * n + j; }
                }
                return a;
            }
        "#;
        let reference = run::<S>(src, &[Value::Int(8)], &RunOptions::with_pes(1));
        let expected = reference.returned_array().unwrap().to_f64(-1.0);
        for workers in [2, 4, 8] {
            let outcome = run::<S>(src, &[Value::Int(8)], &RunOptions::with_pes(workers));
            let a = outcome.returned_array().unwrap();
            assert!(a.is_complete(), "incomplete on {workers} workers");
            assert_eq!(
                a.to_f64(-1.0),
                expected,
                "wrong values on {workers} workers"
            );
        }
    }

    pub(crate) fn consumers_wait_for_producers<S: Suspension>() {
        let src = r#"
            def main(n) {
                a = array(n);
                for i = 0 to n - 1 { a[i] = i * 2; }
                s = a[n - 1] + a[0];
                return s;
            }
        "#;
        let outcome = run::<S>(src, &[Value::Int(10)], &RunOptions::with_pes(4));
        assert_eq!(outcome.return_value, Some(Value::Int(18)));
        let stats = stats::<S>(&outcome);
        // Every park of a completed run was resumed by a delivery.
        assert_eq!(stats.parks, stats.resumptions);
        assert!(stats.tasks >= stats.instances + stats.resumptions);
    }

    pub(crate) fn carried_recurrence<S: Suspension>() {
        let src = r#"
            def main(n) {
                src = array(n);
                for i = 0 to n - 1 { src[i] = i * 1.0; }
                acc = array(n);
                acc[0] = src[0];
                for i = 1 to n - 1 { acc[i] = acc[i - 1] + src[i]; }
                return acc;
            }
        "#;
        let outcome = run::<S>(src, &[Value::Int(16)], &RunOptions::with_pes(4));
        let acc = outcome.returned_array().unwrap();
        assert!(acc.is_complete());
        assert_eq!(acc.get(&[15]), Some(Value::Float(120.0)));
    }

    pub(crate) fn single_assignment_violation<S: Suspension>() {
        let src = "def main(n) { a = array(n); for i = 0 to n - 1 { a[0] = i; } return 0; }";
        let err = run_err::<S>(src, 4, &RunOptions::with_pes(1));
        assert!(matches!(err, SimulationError::Runtime(_)), "{err}");
    }

    pub(crate) fn never_written_read_deadlocks<S: Suspension>() {
        let src = "def main(n) { a = array(n); a[0] = 1; return a[1]; }";
        for workers in [1, 4] {
            let err = run_err::<S>(src, 4, &RunOptions::with_pes(workers));
            let SimulationError::Deadlock { detail, .. } = &err else {
                panic!("workers={workers}: expected deadlock, got {err}");
            };
            assert!(
                detail.contains("awaiting"),
                "deadlock detail must name the awaited slot: {detail}"
            );
        }
    }

    pub(crate) fn task_limit_aborts_runaway_runs<S: Suspension>() {
        let src = "def main(n) { a = matrix(n, n); for i = 0 to n - 1 { for j = 0 to n - 1 { a[i, j] = i + j; } } return a; }";
        let mut opts = RunOptions::with_pes(2);
        opts.max_events = 3;
        let err = run_err::<S>(src, 8, &opts);
        assert!(
            matches!(err, SimulationError::EventLimitExceeded { limit: 3 }),
            "{err}"
        );
    }

    pub(crate) fn out_of_bounds_store_is_reported<S: Suspension>() {
        let src = "def main(n) { a = array(n); a[n + 5] = 1; return 0; }";
        let err = run_err::<S>(src, 4, &RunOptions::with_pes(2));
        assert!(matches!(err, SimulationError::Runtime(_)), "{err}");
    }

    pub(crate) fn one_pool_runs_many_jobs<S: Suspension>() {
        // Submit several jobs of different programs to one pool before
        // waiting on any of them: per-job stores and suspension state must
        // not cross-talk, and job sequence numbers must be distinct.
        let fill =
            compile("def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i * 3; } return a; }")
                .unwrap();
        let scalar = compile("def main(n) { return n * 7; }").unwrap();
        let pool = Pool::<S>::new(4);
        let opts = RunOptions::with_pes(4);
        let mut handles = Vec::new();
        for k in 0..6i64 {
            let (program, args) = if k % 2 == 0 {
                (&fill, vec![Value::Int(8 + k)])
            } else {
                (&scalar, vec![Value::Int(k)])
            };
            handles.push((k, pool.submit(spec(program, &opts), &args)));
        }
        let mut seqs = Vec::new();
        for (k, handle) in handles {
            let outcome = handle.wait().unwrap();
            if k % 2 == 0 {
                let a = outcome.returned_array().unwrap();
                assert!(a.is_complete(), "job {k} incomplete");
                assert_eq!(a.get(&[2]), Some(Value::Int(6)), "job {k}");
            } else {
                assert_eq!(outcome.return_value, Some(Value::Int(k * 7)), "job {k}");
            }
            let stats = stats::<S>(&outcome);
            assert_eq!(stats.pool_id, pool.id());
            seqs.push(stats.job_seq);
        }
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5, 6]);
    }

    pub(crate) fn a_failing_job_does_not_poison_the_pool<S: Suspension>() {
        let bad = compile("def main(n) { a = array(n); a[0] = 1; return a[1]; }").unwrap();
        let good = compile("def main(n) { return n + 1; }").unwrap();
        let pool = Pool::<S>::new(2);
        let opts = RunOptions::with_pes(2);
        let bad_handle = pool.submit(spec(&bad, &opts), &[Value::Int(4)]);
        let good_handle = pool.submit(spec(&good, &opts), &[Value::Int(4)]);
        assert!(bad_handle.wait().is_err());
        assert_eq!(
            good_handle.wait().unwrap().return_value,
            Some(Value::Int(5))
        );
        // And the pool still accepts new work after a failure.
        let again = pool.submit(spec(&good, &opts), &[Value::Int(9)]);
        assert_eq!(again.wait().unwrap().return_value, Some(Value::Int(10)));
    }

    pub(crate) fn batched_delivery_coalesces_flushes<S: Suspension>() {
        // Sixteen split-phase probe calls park on unwritten elements, then
        // one producer-loop task writes all of them. The producer is
        // spawned *first*, so on one worker's LIFO deque the probes run
        // (and defer) before it: its writes then deliver 16 wake-ups from
        // a single task. Unbatched (batch = 1) that is one delivery
        // transaction per write; batch = 16 coalesces them into one. The
        // right-nested sum keeps all 16 spawns split-phase (no Move needs a
        // return value until every probe is in flight).
        let src = r#"
            def main(n) {
                a = array(n);
                for i = 0 to n - 1 { a[i] = i * 3; }
                return probe(a, 0) + (probe(a, 1) + (probe(a, 2) + (probe(a, 3)
                     + (probe(a, 4) + (probe(a, 5) + (probe(a, 6) + (probe(a, 7)
                     + (probe(a, 8) + (probe(a, 9) + (probe(a, 10) + (probe(a, 11)
                     + (probe(a, 12) + (probe(a, 13) + (probe(a, 14) + probe(a, 15)
                     ))))))))))))));
            }
            def probe(a, i) { return a[i] + 1; }
        "#;
        let expected = (0..16).map(|i| i * 3 + 1).sum::<i64>();
        let stats_for = |batch: usize| {
            let mut opts = RunOptions::with_pes(1);
            opts.delivery_batch = batch;
            let outcome = run::<S>(src, &[Value::Int(16)], &opts);
            assert_eq!(
                outcome.return_value,
                Some(Value::Int(expected)),
                "batch={batch}"
            );
            stats::<S>(&outcome)
        };
        let unbatched = stats_for(1);
        let batched = stats_for(16);
        assert_eq!(
            unbatched.wakeups, batched.wakeups,
            "batching must not change how many wake-ups are delivered"
        );
        assert!(
            unbatched.wakeups >= 32,
            "expected 16 deferred reads + 16 returns, got {}",
            unbatched.wakeups
        );
        // Both modes pay one forced flush per probe return (a task
        // boundary); the contrast is the producer's 16 array wake-ups — 16
        // transactions unbatched, 1 batched.
        assert!(
            batched.wakeup_flushes + 8 <= unbatched.wakeup_flushes,
            "batch=16 should need fewer delivery transactions: {} vs {}",
            batched.wakeup_flushes,
            unbatched.wakeup_flushes
        );
    }

    pub(crate) fn worker_arena_recycles_frames<S: Suspension>() {
        // One probe instance per iteration, sequentially: spawn, run,
        // finish, spawn the next. After the first frame is recycled every
        // later spawn reuses it, so reuse grows with n.
        let src = r#"
            def main(n) {
                a = array(n);
                s = array(n);
                for i = 0 to n - 1 { a[i] = i * 3; }
                for i = 0 to n - 1 { s[i] = probe(a, i); }
                return s;
            }
            def probe(a, i) { return a[i] + 1; }
        "#;
        let mut opts = RunOptions::with_pes(1);
        opts.delivery_batch = 16;
        let stats = stats::<S>(&run::<S>(src, &[Value::Int(64)], &opts));
        assert!(
            stats.arena_reuses > 32,
            "expected recycled instance frames, got {} (instances {})",
            stats.arena_reuses,
            stats.instances
        );
    }
}
