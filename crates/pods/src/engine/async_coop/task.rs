//! The resumable SP instance: a futures-style task with a waker protocol.
//!
//! A task carries its whole suspension state in itself: the saved frame,
//! the slot it awaits, and a small per-task mutex. The waiter tag
//! registered with the I-structure store *is* the waker — an `Arc` of the
//! task plus the destination slot — so a write re-activates a suspended
//! instance by locking only that one task. This is the `Waker` half of
//! Rust's `Future` contract, specialised to SP instances: `deliver` is
//! `wake_by_ref`, `try_suspend` is returning `Poll::Pending` after
//! re-checking for a wake that raced the suspension.

use crate::engine::pool::{Frame, InstMeta};
use pods_istructure::Value;
use pods_sp::SlotId;
use std::sync::{Arc, Mutex};

/// The waiter tag the async engine registers with the shared I-structure
/// store: a waker. When the producing write lands, the store hands this tag
/// back and the writer delivers the value straight into the task.
#[derive(Clone)]
pub(crate) struct AsyncWaiter {
    /// The task awaiting the value.
    pub task: Arc<TaskHandle>,
    /// The frame slot the value is destined for.
    pub slot: SlotId,
}

/// Where a task is in its lifecycle. Transitions:
/// `Queued → Running → {Queued (yield via wake), Suspended, Done}`,
/// `Suspended → Queued` (a waker delivered the awaited slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// In some worker's run queue, frame saved in the task.
    Queued,
    /// A worker holds the frame and is executing instructions.
    Running,
    /// Waiting for the given slot; frame saved in the task.
    Suspended(SlotId),
    /// Finished, errored, or abandoned; the frame is gone.
    Done,
}

/// The mutable core of a task, behind the per-task mutex.
#[derive(Debug)]
struct TaskCore {
    /// The saved frame; `None` exactly while a worker is running the task.
    frame: Option<Frame>,
    phase: Phase,
    /// Values that arrived while the frame was checked out (the per-task
    /// analogue of the registry strategy's job-global mailbox). Drained into
    /// the frame at resume and at suspension, so a wake that races the
    /// suspension is never lost.
    pending: Vec<(SlotId, Value)>,
}

/// One cooperative SP instance. Shared as `Arc<TaskHandle>`: the run queue,
/// the store's deferred-reader queues (as wakers), and child tasks (for
/// return routing) all hold references; the task owns no reference to its
/// job or pool, so dropping a job's store releases every task suspended on
/// it with no reference cycle.
pub(crate) struct TaskHandle {
    pub meta: InstMeta<AsyncWaiter>,
    core: Mutex<TaskCore>,
}

impl TaskHandle {
    /// A fresh task, queued, over a ready-made frame (arguments already in
    /// the parameter slots — the pool builds frames through its per-worker
    /// arena so finished frames are recycled).
    pub(crate) fn new(meta: InstMeta<AsyncWaiter>, frame: Frame) -> TaskHandle {
        TaskHandle {
            meta,
            core: Mutex::new(TaskCore {
                frame: Some(frame),
                phase: Phase::Queued,
                pending: Vec::new(),
            }),
        }
    }

    /// Checks the frame out for execution: drains pending deliveries into
    /// it and marks the task running. Called by the worker that popped the
    /// task off a run queue.
    pub(crate) fn begin_poll(&self) -> Frame {
        let mut core = self.core.lock().expect("task core poisoned");
        let mut frame = core.frame.take().expect("queued task owns its frame");
        for (slot, value) in core.pending.drain(..) {
            frame.set_slot(slot, value);
        }
        core.phase = Phase::Running;
        frame
    }

    /// Delivers a value into the task (the wake path). Returns `true` when
    /// the delivery re-activated a suspension — the caller must then put
    /// the task back on a run queue. Deliveries to a running task are
    /// buffered in `pending` (the frame is checked out); deliveries to a
    /// queued or suspended task land directly in the saved frame.
    pub(crate) fn deliver(&self, slot: SlotId, value: Value) -> bool {
        let mut core = self.core.lock().expect("task core poisoned");
        match core.phase {
            Phase::Running => {
                core.pending.push((slot, value));
                false
            }
            Phase::Queued => {
                if let Some(frame) = core.frame.as_mut() {
                    frame.set_slot(slot, value);
                }
                false
            }
            Phase::Suspended(awaited) => {
                let frame = core.frame.as_mut().expect("suspended task owns its frame");
                frame.set_slot(slot, value);
                if frame.is_present(awaited) {
                    core.phase = Phase::Queued;
                    true
                } else {
                    false
                }
            }
            Phase::Done => false,
        }
    }

    /// Attempts to suspend the running task on `awaited`. Pending
    /// deliveries are drained first; if one of them filled the awaited slot
    /// the frame is handed straight back (`Some`) and the task keeps
    /// running — the analogue of the registry strategy's
    /// park-then-mailbox re-check, closing the race where the producing
    /// write lands between the firing-rule miss and the suspension.
    pub(crate) fn try_suspend(&self, mut frame: Frame, awaited: SlotId) -> Option<Frame> {
        let mut core = self.core.lock().expect("task core poisoned");
        for (slot, value) in core.pending.drain(..) {
            frame.set_slot(slot, value);
        }
        if frame.is_present(awaited) {
            return Some(frame);
        }
        core.frame = Some(frame);
        core.phase = Phase::Suspended(awaited);
        None
    }

    /// Marks the task finished (successfully or abandoned); its frame is
    /// dropped by the caller and late deliveries become no-ops.
    pub(crate) fn retire(&self) {
        let mut core = self.core.lock().expect("task core poisoned");
        core.phase = Phase::Done;
        core.pending.clear();
        core.frame = None;
    }
}

impl std::fmt::Debug for TaskHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskHandle")
            .field("id", &self.meta.id)
            .field("template", &self.meta.template)
            .field("pe", &self.meta.pe)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pods_machine::InstanceId;
    use pods_sp::SpId;

    fn task() -> Arc<TaskHandle> {
        let mut slots = vec![None; 4];
        slots[0] = Some(Value::Int(1));
        let meta = InstMeta {
            id: InstanceId(7),
            template: SpId(0),
            pe: 0,
            return_to: None,
        };
        Arc::new(TaskHandle::new(meta, Frame { pc: 0, slots }))
    }

    #[test]
    fn frames_carry_args_and_presence_bits() {
        let t = task();
        let frame = t.begin_poll();
        assert_eq!(frame.slot(SlotId(0)), Some(Value::Int(1)));
        assert!(!frame.is_present(SlotId(1)));
        assert_eq!(frame.pc, 0);
    }

    #[test]
    fn delivery_to_a_suspension_wakes_exactly_once() {
        let t = task();
        let frame = t.begin_poll();
        assert!(t.try_suspend(frame, SlotId(2)).is_none());
        // A delivery to a different slot fills the frame but does not wake.
        assert!(!t.deliver(SlotId(3), Value::Int(30)));
        // The awaited slot wakes — once.
        assert!(t.deliver(SlotId(2), Value::Int(20)));
        assert!(!t.deliver(SlotId(1), Value::Int(10)));
        let frame = t.begin_poll();
        assert_eq!(frame.slot(SlotId(1)), Some(Value::Int(10)));
        assert_eq!(frame.slot(SlotId(2)), Some(Value::Int(20)));
        assert_eq!(frame.slot(SlotId(3)), Some(Value::Int(30)));
    }

    #[test]
    fn a_wake_racing_the_suspension_is_not_lost() {
        let t = task();
        let frame = t.begin_poll();
        // The value arrives while the task is still running (frame checked
        // out): it lands in `pending` …
        assert!(!t.deliver(SlotId(2), Value::Int(9)));
        // … and the suspension attempt finds it and keeps the task running.
        let frame = t.try_suspend(frame, SlotId(2)).expect("must keep running");
        assert_eq!(frame.slot(SlotId(2)), Some(Value::Int(9)));
    }

    #[test]
    fn retired_tasks_ignore_late_deliveries() {
        let t = task();
        let _frame = t.begin_poll();
        t.retire();
        assert!(!t.deliver(SlotId(0), Value::Int(5)));
    }
}
