//! The recorder itself: bounded per-lane rings, drop-oldest overflow with
//! exact drop accounting, and the merged, time-ordered drain.
//!
//! One lane per worker plus one service lane. Each lane is a bounded
//! `VecDeque` behind its own mutex; on the hot path the lock is touched by
//! exactly one producer (the worker that owns the lane), so it is
//! uncontended — the mutex buys the crate-wide `forbid(unsafe_code)`
//! guarantee at the cost of one uncontended atomic pair per event, which
//! the `tracing_overhead` bench group keeps honest. When a ring is full the
//! oldest event is dropped and counted, so a long run degrades to "the most
//! recent window of events" instead of unbounded memory.

use super::events::{TraceEvent, TraceEventKind};
use super::JobTrace;
use pods_sp::exec::{ExecEvent, TraceSink};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default per-lane ring capacity (events).
const DEFAULT_BUFFER: usize = 4096;

/// Configuration of the flight recorder, passed to
/// `RuntimeBuilder::trace`. The environment equivalent is `PODS_TRACE=1`
/// with `PODS_TRACE_BUF` overriding the per-worker buffer size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Per-worker ring-buffer capacity in events (clamped to at least 16).
    /// When a lane overflows, the oldest events are dropped and counted in
    /// [`JobTrace::dropped`].
    pub buffer_size: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            buffer_size: DEFAULT_BUFFER,
        }
    }
}

impl TraceConfig {
    /// The default configuration (4096-event rings).
    pub fn new() -> TraceConfig {
        TraceConfig::default()
    }

    /// Sets the per-worker ring capacity (clamped to at least 16).
    pub fn buffer_size(mut self, events: usize) -> TraceConfig {
        self.buffer_size = events.max(16);
        self
    }

    /// The configuration requested by the environment: `Some` when
    /// `PODS_TRACE` is set to a truthy value (anything but `0`, `false`,
    /// `off`, or empty), with `PODS_TRACE_BUF` overriding the buffer size.
    pub(crate) fn from_env() -> Option<TraceConfig> {
        let v = std::env::var("PODS_TRACE").ok()?;
        if v.is_empty()
            || v == "0"
            || v.eq_ignore_ascii_case("false")
            || v.eq_ignore_ascii_case("off")
        {
            return None;
        }
        let mut cfg = TraceConfig::default();
        if let Some(n) = std::env::var("PODS_TRACE_BUF")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
        {
            cfg = cfg.buffer_size(n);
        }
        Some(cfg)
    }
}

/// One lane's bounded ring.
struct Ring {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// The per-runtime flight recorder (see module docs).
pub(crate) struct TraceRecorder {
    epoch: Instant,
    cap: usize,
    /// Worker lanes `0..workers`, then one service lane.
    lanes: Vec<Mutex<Ring>>,
    next_job: AtomicU64,
}

impl TraceRecorder {
    pub(crate) fn new(workers: usize, buffer_size: usize) -> TraceRecorder {
        let cap = buffer_size.max(16);
        TraceRecorder {
            epoch: Instant::now(),
            cap,
            lanes: (0..workers.max(1) + 1)
                .map(|_| {
                    Mutex::new(Ring {
                        events: VecDeque::with_capacity(cap.min(1024)),
                        dropped: 0,
                    })
                })
                .collect(),
            next_job: AtomicU64::new(1),
        }
    }

    /// The extra lane job-lifecycle (service) events are recorded on.
    pub(crate) fn service_lane(&self) -> u32 {
        (self.lanes.len() - 1) as u32
    }

    /// Allocates the next trace-job id (ids start at 1; 0 means untraced).
    pub(crate) fn next_job_id(&self) -> u64 {
        self.next_job.fetch_add(1, Ordering::Relaxed)
    }

    /// Records one event on `lane` (clamped to the service lane when out of
    /// range, e.g. a simulated PE count above the recorder's worker count).
    pub(crate) fn emit(&self, lane: u32, job: u64, instance: u64, kind: TraceEventKind) {
        let idx = (lane as usize).min(self.lanes.len() - 1);
        let mut ring = self.lanes[idx].lock().expect("trace lane poisoned");
        // Timestamp under the lane lock so each lane is monotonically
        // ordered even when several producers share the service lane.
        let t_us = self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64;
        if ring.events.len() >= self.cap {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(TraceEvent {
            t_us,
            lane: idx as u32,
            job,
            instance,
            kind,
        });
    }

    /// Takes every recorded event, merged into one time-ordered stream,
    /// and resets the rings (and drop counters).
    pub(crate) fn drain(&self) -> JobTrace {
        self.collect(true)
    }

    /// A merged snapshot that leaves the rings intact (used to attach
    /// diagnostics to job outcomes without consuming the trace).
    pub(crate) fn peek(&self) -> JobTrace {
        self.collect(false)
    }

    fn collect(&self, take: bool) -> JobTrace {
        let mut events = Vec::new();
        let mut dropped = 0;
        for lane in &self.lanes {
            let mut ring = lane.lock().expect("trace lane poisoned");
            dropped += ring.dropped;
            if take {
                ring.dropped = 0;
                events.extend(ring.events.drain(..));
            } else {
                events.extend(ring.events.iter().copied());
            }
        }
        // Each lane is time-ordered; a stable sort on the timestamp (lane
        // as tie-break) merges them into one ordered stream.
        events.sort_by_key(|e| (e.t_us, e.lane));
        JobTrace {
            events,
            dropped,
            lanes: self.lanes.len(),
        }
    }
}

/// A cloneable per-job handle into the recorder: the recorder plus the
/// trace-job id the service assigned at admission. Travels in `JobSpec`
/// (like the completion hook) so the pool can emit without knowing about
/// the service.
#[derive(Clone)]
pub(crate) struct TraceHandle {
    pub(crate) rec: Arc<TraceRecorder>,
    pub(crate) job: u64,
}

impl TraceHandle {
    /// Records one event for this job.
    pub(crate) fn emit(&self, lane: u32, instance: u64, kind: TraceEventKind) {
        self.rec.emit(lane, self.job, instance, kind);
    }

    /// The recorder's service lane.
    pub(crate) fn service_lane(&self) -> u32 {
        self.rec.service_lane()
    }
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("job", &self.job)
            .finish()
    }
}

/// Adapts a [`TraceHandle`] into the exec core's [`TraceSink`], attributing
/// events to the PE lane the core reports. This is how the machine
/// simulator produces the same core events as the pooled engine: the
/// runtime boxes one of these and threads it into the simulation.
pub(crate) struct RecorderExecSink {
    pub(crate) handle: TraceHandle,
}

impl TraceSink for RecorderExecSink {
    fn exec_event(&mut self, pe: usize, ev: ExecEvent) {
        self.handle
            .emit(pe as u32, 0, TraceEventKind::from_exec(ev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_drops_oldest_keeps_newest_and_counts_exactly() {
        let rec = TraceRecorder::new(1, 16);
        for i in 0..40u64 {
            rec.emit(0, 1, i, TraceEventKind::InstanceSpawned);
        }
        let trace = rec.drain();
        assert_eq!(trace.dropped, 24, "40 events into a 16-slot ring");
        assert_eq!(trace.events.len(), 16);
        // Drop-oldest: the survivors are exactly the newest 16, in order.
        let kept: Vec<u64> = trace.events.iter().map(|e| e.instance).collect();
        assert_eq!(kept, (24..40).collect::<Vec<u64>>());
    }

    #[test]
    fn drain_resets_rings_and_drop_counters() {
        let rec = TraceRecorder::new(1, 16);
        for i in 0..20u64 {
            rec.emit(0, 1, i, TraceEventKind::InstanceSpawned);
        }
        assert_eq!(rec.drain().dropped, 4);
        let second = rec.drain();
        assert!(second.is_empty());
        assert_eq!(second.dropped, 0);
    }

    #[test]
    fn peek_leaves_the_rings_intact() {
        let rec = TraceRecorder::new(2, 16);
        rec.emit(0, 1, 0, TraceEventKind::RunBegin);
        rec.emit(1, 1, 0, TraceEventKind::RunBegin);
        assert_eq!(rec.peek().len(), 2);
        assert_eq!(rec.drain().len(), 2);
        assert!(rec.drain().is_empty());
    }

    #[test]
    fn out_of_range_lanes_clamp_to_the_service_lane() {
        let rec = TraceRecorder::new(2, 16);
        rec.emit(99, 0, 0, TraceEventKind::JobAdmitted);
        let trace = rec.drain();
        assert_eq!(trace.events[0].lane, rec.service_lane());
    }

    #[test]
    fn merged_drain_is_time_ordered_across_lanes() {
        let rec = TraceRecorder::new(4, 64);
        for i in 0..40u64 {
            rec.emit((i % 5) as u32, 1, i, TraceEventKind::InstanceSpawned);
        }
        let trace = rec.drain();
        assert_eq!(trace.lanes, 5);
        assert!(trace
            .events
            .windows(2)
            .all(|w| (w[0].t_us, w[0].lane) <= (w[1].t_us, w[1].lane)));
    }

    #[test]
    fn trace_config_clamps_tiny_buffers() {
        assert_eq!(TraceConfig::new().buffer_size(3).buffer_size, 16);
        assert_eq!(TraceConfig::new().buffer_size(64).buffer_size, 64);
    }
}
