//! The `native` engine: the [`super::pool`] with the `Registry` suspension
//! strategy.
//!
//! A parked instance goes into a job-global blocked map, keyed by instance,
//! and a waiter is an `(instance, slot)` pair. Delivering a batch of
//! wake-ups takes the job's scheduler lock once: each value fills its
//! parked frame (re-queuing the instance when the awaited slot arrives) or,
//! when its target is queued or running, lands in the mailbox, which the
//! target drains when it next tries to park. Frames move by value between
//! the run queues, the worker, and the blocked map.

use super::pool::{Frame, InstMeta, PoolStats, Suspension};
use super::EngineStats;
use pods_istructure::Value;
use pods_machine::InstanceId;
use pods_partition::PartitionReport;
use pods_sp::SlotId;
use std::collections::HashMap;
use std::sync::Mutex;

/// `(instance, slot)` continuation tag: where a produced value must go.
type NativeWaiter = (InstanceId, SlotId);

/// An instance parked on a missing operand.
struct Blocked {
    meta: InstMeta<NativeWaiter>,
    frame: Frame,
    slot: SlotId,
}

/// Parked-instance registry plus the mailbox for values that arrive while
/// their target instance is queued or running.
#[derive(Default)]
pub(crate) struct Sched {
    blocked: HashMap<InstanceId, Blocked>,
    mailbox: HashMap<InstanceId, Vec<(SlotId, Value)>>,
}

/// The registry suspension strategy (see the module docs).
pub(crate) struct Registry;

impl Suspension for Registry {
    const NAME: &'static str = "native";
    type Waiter = NativeWaiter;
    type Task = (InstMeta<NativeWaiter>, Frame);
    type Running = InstMeta<NativeWaiter>;
    type State = Mutex<Sched>;

    #[inline(always)]
    fn task(meta: InstMeta<NativeWaiter>, frame: Frame) -> Self::Task {
        (meta, frame)
    }

    #[inline(always)]
    fn task_id(task: &Self::Task) -> InstanceId {
        task.0.id
    }

    #[inline(always)]
    fn begin(task: Self::Task) -> (Self::Running, Frame) {
        task
    }

    #[inline(always)]
    fn meta(running: &Self::Running) -> &InstMeta<NativeWaiter> {
        running
    }

    #[inline(always)]
    fn waiter(running: &Self::Running, slot: SlotId) -> NativeWaiter {
        (running.id, slot)
    }

    fn deliver(
        state: &Mutex<Sched>,
        batch: std::vec::Drain<'_, (NativeWaiter, Value)>,
        woken: &mut Vec<Self::Task>,
    ) {
        let mut sched = state.lock().expect("sched poisoned");
        for ((target, slot), value) in batch {
            if let Some(b) = sched.blocked.get_mut(&target) {
                b.frame.set_slot(slot, value);
                if b.slot == slot {
                    let b = sched.blocked.remove(&target).expect("checked above");
                    woken.push((b.meta, b.frame));
                }
            } else {
                sched.mailbox.entry(target).or_default().push((slot, value));
            }
        }
    }

    fn try_suspend(
        state: &Mutex<Sched>,
        meta: Self::Running,
        mut frame: Frame,
        slot: SlotId,
    ) -> Option<(Self::Running, Frame)> {
        let mut sched = state.lock().expect("sched poisoned");
        if let Some(msgs) = sched.mailbox.remove(&meta.id) {
            for (s, v) in msgs {
                frame.set_slot(s, v);
            }
        }
        if frame.is_present(slot) {
            return Some((meta, frame));
        }
        sched.blocked.insert(meta.id, Blocked { meta, frame, slot });
        None
    }

    fn engine_stats(stats: PoolStats, partition: PartitionReport) -> EngineStats {
        EngineStats::Native { stats, partition }
    }
}

#[cfg(test)]
mod tests {
    use super::Registry;

    crate::engine::pool::strategy_tests! {
        Registry;
        scalar_and_function_calls => scalar_and_function_calls,
        distributed_fill_is_complete_on_any_worker_count => distributed_fill_is_complete,
        consumers_park_until_producers_write => consumers_wait_for_producers,
        carried_recurrence_is_computed_correctly => carried_recurrence,
        single_assignment_violation_is_a_runtime_error => single_assignment_violation,
        reading_a_never_written_element_is_detected_as_deadlock => never_written_read_deadlocks,
        task_limit_aborts_runaway_runs => task_limit_aborts_runaway_runs,
        out_of_bounds_store_is_reported => out_of_bounds_store_is_reported,
        one_pool_runs_many_jobs_with_disjoint_state => one_pool_runs_many_jobs,
        a_failing_job_does_not_poison_the_pool => a_failing_job_does_not_poison_the_pool,
        batched_delivery_coalesces_scheduler_transactions => batched_delivery_coalesces_flushes,
        worker_arena_recycles_instance_frames => worker_arena_recycles_frames,
    }
}
