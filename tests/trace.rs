//! Flight-recorder contract tests, exercised through the public runtime
//! API on the pooled engine:
//!
//! 1. a runtime built without tracing records nothing (and `PODS_TRACE`
//!    stays an opt-in — these tests never set it),
//! 2. under a concurrent soak the merged trace is time-ordered and its
//!    `RunBegin`/`RunEnd` spans are balanced per (lane, instance),
//! 3. ring overflow degrades to "newest window + exact drop count"
//!    rather than unbounded memory,
//! 4. the Chrome-trace export is well-formed JSON with one span pair per
//!    recorded `RunBegin`,
//! 5. traced outcomes carry a per-job breakdown whose phases are
//!    consistent with the recorded events.

use pods::{
    compile, CompiledProgram, EngineKind, Runtime, TraceConfig, TraceEvent, TraceEventKind, Value,
};
use std::collections::HashMap;

fn fill_program() -> CompiledProgram {
    compile(
        "def main(n) {
             a = matrix(n, n);
             for i = 0 to n - 1 {
                 for j = 0 to n - 1 { a[i, j] = f(i, j, n); }
             }
             return a;
         }
         def f(i, j, n) { return sqrt((i * n + j) * 1.0); }",
    )
    .expect("fill program compiles")
}

/// Asserts the merged stream is sorted by (timestamp, lane) and that every
/// `RunBegin` on a lane is matched by a `RunEnd` for the same instance.
fn assert_ordered_and_balanced(events: &[TraceEvent]) {
    assert!(
        events
            .windows(2)
            .all(|w| (w[0].t_us, w[0].lane) <= (w[1].t_us, w[1].lane)),
        "merged trace must be time-ordered with lane as tie-break"
    );
    let mut open: HashMap<(u32, u64), i64> = HashMap::new();
    for ev in events {
        match ev.kind {
            TraceEventKind::RunBegin => *open.entry((ev.lane, ev.instance)).or_default() += 1,
            TraceEventKind::RunEnd => {
                let depth = open.entry((ev.lane, ev.instance)).or_default();
                assert!(
                    *depth > 0,
                    "RunEnd without an open RunBegin on lane {} instance {}",
                    ev.lane,
                    ev.instance
                );
                *depth -= 1;
            }
            _ => {}
        }
    }
    for ((lane, instance), depth) in open {
        assert_eq!(
            depth, 0,
            "unclosed run span on lane {lane} instance {instance}"
        );
    }
}

#[test]
fn native_soak_trace_is_ordered_and_span_balanced() {
    let program = fill_program();
    let runtime = Runtime::builder(EngineKind::Native)
        .workers(4)
        .trace(TraceConfig::new().buffer_size(1 << 20))
        .build();
    assert!(runtime.tracing_enabled());
    let prepared = runtime.prepare(&program);

    let handles: Vec<_> = std::thread::scope(|scope| {
        (0..4)
            .map(|_| {
                scope.spawn(|| {
                    (0..6)
                        .map(|_| runtime.submit(&prepared, &[Value::Int(12)]).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect()
    });
    for handle in handles {
        handle.wait().expect("soak job succeeds");
    }

    let trace = runtime.take_trace();
    assert_eq!(trace.dropped, 0, "soak must fit the enlarged rings");
    assert_eq!(trace.lanes, 5, "4 worker lanes + 1 service lane");
    assert!(!trace.is_empty());
    assert_ordered_and_balanced(&trace.events);

    // Every admitted job ran to completion, and lifecycle events live on
    // the service lane.
    let count = |kind: TraceEventKind| {
        trace
            .events
            .iter()
            .filter(|e| e.kind == kind)
            .inspect(|e| assert_eq!(e.lane, 4, "{kind:?} belongs on the service lane"))
            .count()
    };
    assert_eq!(count(TraceEventKind::JobAdmitted), 24);
    assert_eq!(count(TraceEventKind::JobDispatched), 24);
    assert_eq!(count(TraceEventKind::JobFinished), 24);

    // Draining consumed the stream.
    assert!(runtime.take_trace().is_empty());
}

#[test]
fn disabled_tracing_records_nothing() {
    let runtime = Runtime::builder(EngineKind::Native).workers(2).build();
    assert!(!runtime.tracing_enabled());
    runtime
        .run(&fill_program(), &[Value::Int(16)])
        .expect("untraced run succeeds");
    let trace = runtime.take_trace();
    assert!(trace.is_empty());
    assert_eq!(trace.dropped, 0);
}

#[test]
fn ring_overflow_keeps_the_newest_window() {
    let runtime = Runtime::builder(EngineKind::Native)
        .workers(2)
        .trace(TraceConfig::new().buffer_size(16))
        .build();
    let program = fill_program();
    for _ in 0..3 {
        runtime.run(&program, &[Value::Int(24)]).unwrap();
    }
    let trace = runtime.take_trace();
    assert!(trace.dropped > 0, "a 24x24 fill overflows 16-slot rings");
    assert!(trace.events.len() <= 16 * trace.lanes);
    // The newest window must include the end of the final job.
    assert!(trace
        .events
        .iter()
        .any(|e| e.kind == TraceEventKind::JobFinished));
}

#[test]
fn chrome_trace_export_is_well_formed() {
    let runtime = Runtime::builder(EngineKind::Native)
        .workers(2)
        .trace(TraceConfig::new())
        .build();
    runtime.run(&fill_program(), &[Value::Int(12)]).unwrap();
    let trace = runtime.take_trace();
    let json = trace.chrome_trace();

    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"droppedEvents\":0"));
    assert!(json.ends_with('}'));
    // Structural sanity without a JSON dependency: quotes and brackets
    // balance (the serializer never emits strings containing either).
    assert_eq!(json.matches('"').count() % 2, 0);
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());

    // One "B" and one "E" Chrome phase per recorded span half.
    let begins = trace
        .events
        .iter()
        .filter(|e| e.kind == TraceEventKind::RunBegin)
        .count();
    assert_eq!(json.matches("\"ph\":\"B\"").count(), begins);
    assert_eq!(json.matches("\"ph\":\"E\"").count(), begins);
}

#[test]
fn traced_outcomes_carry_a_job_breakdown() {
    let runtime = Runtime::builder(EngineKind::Native)
        .workers(2)
        .trace(TraceConfig::new())
        .build();
    let outcome = runtime.run(&fill_program(), &[Value::Int(16)]).unwrap();
    let breakdown = outcome
        .diagnostics
        .expect("traced pooled runs attach a breakdown");
    assert!(breakdown.run_us > 0, "the fill spends measurable run time");
    let text = breakdown.to_string();
    for phase in ["queue", "run", "blocked"] {
        assert!(
            text.contains(phase),
            "breakdown text mentions {phase}: {text}"
        );
    }

    // Untraced runtimes attach none.
    let plain = Runtime::builder(EngineKind::Native).workers(2).build();
    let outcome = plain.run(&fill_program(), &[Value::Int(16)]).unwrap();
    assert!(outcome.diagnostics.is_none());
}
