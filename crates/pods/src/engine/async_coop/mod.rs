//! The `async` engine: the [`super::pool`] with the `Waker` suspension
//! strategy.
//!
//! Each SP instance is a futures-style resumable task
//! ([`task::TaskHandle`]) that keeps its own suspension state: the saved
//! frame, the slot it awaits, and a small per-task mutex. A waiter is a
//! *waker* — an `Arc` of the task plus the destination slot — so delivering
//! a value locks only the receiving task, never a job-global registry, and
//! re-queues it if its awaited slot arrived. There is no blocked map and no
//! mailbox; values that arrive while the task runs wait in the task itself.

mod task;

use super::pool::{Frame, InstMeta, PoolStats, Suspension};
use super::EngineStats;
use pods_istructure::Value;
use pods_machine::InstanceId;
use pods_partition::PartitionReport;
use pods_sp::SlotId;
use std::sync::Arc;
use task::{AsyncWaiter, TaskHandle};

/// The waker suspension strategy (see the module docs).
pub(crate) struct Waker;

impl Suspension for Waker {
    const NAME: &'static str = "async";
    type Waiter = AsyncWaiter;
    type Task = Arc<TaskHandle>;
    type Running = Arc<TaskHandle>;
    type State = ();

    fn task(meta: InstMeta<AsyncWaiter>, frame: Frame) -> Arc<TaskHandle> {
        Arc::new(TaskHandle::new(meta, frame))
    }

    fn task_id(task: &Arc<TaskHandle>) -> InstanceId {
        task.meta.id
    }

    fn begin(task: Arc<TaskHandle>) -> (Arc<TaskHandle>, Frame) {
        let frame = task.begin_poll();
        (task, frame)
    }

    fn meta(running: &Arc<TaskHandle>) -> &InstMeta<AsyncWaiter> {
        &running.meta
    }

    fn waiter(running: &Arc<TaskHandle>, slot: SlotId) -> AsyncWaiter {
        AsyncWaiter {
            task: Arc::clone(running),
            slot,
        }
    }

    fn deliver(
        _state: &(),
        batch: std::vec::Drain<'_, (AsyncWaiter, Value)>,
        woken: &mut Vec<Arc<TaskHandle>>,
    ) {
        for (waiter, value) in batch {
            if waiter.task.deliver(waiter.slot, value) {
                woken.push(waiter.task);
            }
        }
    }

    fn try_suspend(
        _state: &(),
        running: Arc<TaskHandle>,
        frame: Frame,
        slot: SlotId,
    ) -> Option<(Arc<TaskHandle>, Frame)> {
        let frame = running.try_suspend(frame, slot)?;
        Some((running, frame))
    }

    fn retire(running: &Arc<TaskHandle>) {
        running.retire();
    }

    fn engine_stats(stats: PoolStats, partition: PartitionReport) -> EngineStats {
        EngineStats::AsyncCoop { stats, partition }
    }
}

#[cfg(test)]
mod tests {
    use super::Waker;

    crate::engine::pool::strategy_tests! {
        Waker;
        scalar_and_function_calls => scalar_and_function_calls,
        distributed_fill_is_complete_on_any_worker_count => distributed_fill_is_complete,
        consumers_suspend_until_producers_write_and_counters_balance => consumers_wait_for_producers,
        carried_recurrence_is_computed_correctly => carried_recurrence,
        single_assignment_violation_is_a_runtime_error => single_assignment_violation,
        reading_a_never_written_element_is_detected_as_deadlock => never_written_read_deadlocks,
        poll_limit_aborts_runaway_runs => task_limit_aborts_runaway_runs,
        out_of_bounds_store_is_reported => out_of_bounds_store_is_reported,
        one_executor_runs_many_jobs_with_disjoint_state => one_pool_runs_many_jobs,
        a_failing_job_does_not_poison_the_executor => a_failing_job_does_not_poison_the_pool,
        batched_waker_delivery_coalesces_flushes_without_changing_wakeups => batched_delivery_coalesces_flushes,
        worker_arena_recycles_task_frames => worker_arena_recycles_frames,
    }
}
