//! The two pooled engines are one work-stealing pool with two suspension
//! strategies (`native`: a job-global blocked registry; `async`: per-task
//! wakers). On one worker the schedule is deterministic, so everything the
//! pool counts must agree between them exactly — any difference would mean
//! the strategies diverged somewhere other than how an instance parks and
//! wakes.

use pods::{EngineKind, EngineOutcome, EngineStats, PodsError, PoolStats, Runtime, Value};

/// The bundled workloads at small sizes: name, source, args.
fn workloads() -> Vec<(&'static str, &'static str, Vec<Value>)> {
    vec![
        ("paper_example", pods_workloads::PAPER_EXAMPLE, vec![]),
        ("fill", pods_workloads::FILL, vec![Value::Int(12)]),
        ("matmul", pods_workloads::MATMUL, vec![Value::Int(6)]),
        ("stencil", pods_workloads::STENCIL, vec![Value::Int(12)]),
        (
            "recurrence",
            pods_workloads::RECURRENCE,
            vec![Value::Int(48)],
        ),
        (
            "simple",
            pods_workloads::simple::SIMPLE,
            vec![Value::Int(8)],
        ),
    ]
}

fn pool_stats(outcome: &EngineOutcome) -> PoolStats {
    match &outcome.stats {
        EngineStats::Native { stats, .. } | EngineStats::AsyncCoop { stats, .. } => *stats,
        other => panic!("expected pool stats, got {other:?}"),
    }
}

fn run_on_one_worker(
    kind: EngineKind,
    source: &str,
    args: &[Value],
) -> Result<EngineOutcome, PodsError> {
    let program = pods::compile(source).unwrap();
    Runtime::builder(kind)
        .workers(1)
        .build()
        .run(&program, args)
}

#[test]
fn strategies_report_identical_pool_stats_on_one_worker() {
    let mut parks = 0;
    for (name, source, args) in workloads() {
        let [native, coop] = [EngineKind::Native, EngineKind::AsyncCoop].map(|kind| {
            let outcome = run_on_one_worker(kind, source, &args)
                .unwrap_or_else(|e| panic!("{name} on {kind}: {e}"));
            let stats = pool_stats(&outcome);
            assert_eq!(
                stats.resumptions, stats.parks,
                "{name} on {kind}: a completed run resumes every park"
            );
            // Pool identity and submission order are per-runtime, not
            // per-strategy.
            PoolStats {
                pool_id: 0,
                job_seq: 0,
                ..stats
            }
        });
        assert_eq!(native, coop, "{name}: native vs async pool stats");
        parks += native.parks;
    }
    assert!(parks > 0, "the workloads must exercise suspension");
}

#[test]
fn strategies_report_a_deadlock_identically() {
    let source = "def main(n) { a = array(n); a[0] = 1; return a[1]; }";
    let [native, coop] = [EngineKind::Native, EngineKind::AsyncCoop].map(|kind| {
        match run_on_one_worker(kind, source, &[Value::Int(4)]) {
            Err(e @ PodsError::Simulation(pods::SimulationError::Deadlock { .. })) => e.to_string(),
            other => panic!("{kind}: expected a deadlock, got {other:?}"),
        }
    });
    assert!(native.contains("suspended at pc"), "{native}");
    assert!(native.contains("awaiting s"), "{native}");
    assert_eq!(native, coop);
}
