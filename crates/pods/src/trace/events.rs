//! The flight recorder's event vocabulary: [`TraceEvent`] and
//! [`TraceEventKind`].
//!
//! Events are small `Copy` records — a microsecond timestamp relative to
//! the recorder's epoch, a lane (worker index, with one extra lane for the
//! service dispatcher), the job and instance they are attributed to, and a
//! kind. The kinds mirror the runtime's layers: job lifecycle events come
//! from the service, scheduling events (spawn, run spans, steals,
//! resumptions) from the pooled engine, and core events (suspension with
//! pc + slot, deferred loads with array id + pc, chunk advances) from the
//! shared instruction core via [`pods_sp::exec::TraceSink`].

use pods_sp::exec::ExecEvent;

/// What happened, with the kind-specific payload inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The service admitted a submission (queued or fast-path dispatched).
    JobAdmitted,
    /// The dispatcher handed the job to the worker pool.
    JobDispatched,
    /// The pool accepted the job and spawned its entry instance.
    JobStarted,
    /// The job reached a terminal state (success, error, or cancellation).
    JobFinished,
    /// The job was cancelled (`JobHandle::cancel` or runtime shutdown).
    JobCancelled,
    /// The deadline watchdog expired the job.
    JobDeadline,
    /// A new SP instance was created and enqueued.
    InstanceSpawned,
    /// A worker began executing an instance (span open; closed by
    /// [`TraceEventKind::RunEnd`] on the same lane).
    RunBegin,
    /// The worker stopped executing the instance: it finished, suspended,
    /// or was stopped (span close).
    RunEnd,
    /// The firing rule suspended the instance at `pc` on absent `slot`
    /// (emitted by the shared exec core).
    Suspended {
        /// Program counter of the blocked instruction.
        pc: u32,
        /// The absent operand slot.
        slot: u32,
    },
    /// A split-phase array read was deferred (emitted by the exec core).
    DeferredLoad {
        /// The array whose element was absent.
        array: u64,
        /// Program counter of the deferring load.
        pc: u32,
    },
    /// A suspended instance was woken by the arrival of its operand.
    Resumed,
    /// The worker on this lane stole a task from worker `from`.
    Steal {
        /// The victim worker the task was taken from.
        from: u32,
    },
    /// The chunk driver advanced a chunked instance in place (emitted by
    /// the exec core).
    ChunkAdvanced,
    /// Adaptive grain control re-partitioned the program at a coarser
    /// chunk (`generation` retunes applied so far).
    ChunkRetuned {
        /// The autotune generation after this retune.
        generation: u32,
    },
}

impl TraceEventKind {
    /// Stable lower-case name, used for Chrome-trace event names.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::JobAdmitted => "job-admitted",
            TraceEventKind::JobDispatched => "job-dispatched",
            TraceEventKind::JobStarted => "job-started",
            TraceEventKind::JobFinished => "job-finished",
            TraceEventKind::JobCancelled => "job-cancelled",
            TraceEventKind::JobDeadline => "job-deadline",
            TraceEventKind::InstanceSpawned => "spawn",
            TraceEventKind::RunBegin => "run",
            TraceEventKind::RunEnd => "run",
            TraceEventKind::Suspended { .. } => "suspend",
            TraceEventKind::DeferredLoad { .. } => "deferred-load",
            TraceEventKind::Resumed => "resume",
            TraceEventKind::Steal { .. } => "steal",
            TraceEventKind::ChunkAdvanced => "chunk-advance",
            TraceEventKind::ChunkRetuned { .. } => "chunk-retune",
        }
    }

    /// Maps a core-level [`ExecEvent`] into the recorder's vocabulary.
    pub(crate) fn from_exec(ev: ExecEvent) -> TraceEventKind {
        match ev {
            ExecEvent::Blocked { pc, slot } => TraceEventKind::Suspended {
                pc: pc as u32,
                slot: slot.0 as u32,
            },
            ExecEvent::DeferredLoad { array, pc } => TraceEventKind::DeferredLoad {
                array: array.0 as u64,
                pc: pc as u32,
            },
            ExecEvent::ChunkAdvanced => TraceEventKind::ChunkAdvanced,
        }
    }
}

/// One recorded flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds since the recorder's epoch (the runtime's build time).
    pub t_us: u64,
    /// The lane the event was recorded on: worker index for pool/core
    /// events, the extra service lane for job-lifecycle events.
    pub lane: u32,
    /// The traced job this event belongs to (`0` = not job-attributed).
    pub job: u64,
    /// The SP instance involved (`0` when not instance-scoped).
    pub instance: u64,
    /// What happened.
    pub kind: TraceEventKind,
}
