//! Unit tests of the `native` engine: small programs submitted straight to
//! the pool (`Pool::submit`) and checked end to end — results, error
//! classes, deadlock reports, and the pool's counters.

mod tests {
    use crate::engine::{build_read_slots, EngineOutcome, EngineStats, JobSpec, Pool, PoolStats};
    use crate::error::PodsError;
    use crate::pipeline::{compile, CompiledProgram, RunOptions};
    use pods_istructure::Value;
    use pods_machine::SimulationError;
    use std::sync::Arc;

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
    fn run_job(src: &str, args: &[Value], opts: &RunOptions) -> Result<EngineOutcome, PodsError> {
        let program = compile(src).unwrap();
        Pool::new(opts.num_pes)
            .submit(spec(&program, opts), args)
            .wait()
    }

    fn run(src: &str, args: &[Value], opts: &RunOptions) -> EngineOutcome {
        run_job(src, args, opts).unwrap()
    }

    fn run_err(src: &str, n: i64, opts: &RunOptions) -> SimulationError {
        match run_job(src, &[Value::Int(n)], opts) {
            Err(PodsError::Simulation(e)) => e,
            other => panic!("expected a run-time failure, got {other:?}"),
        }
    }

    fn pool_stats(outcome: &EngineOutcome) -> PoolStats {
        assert_eq!(outcome.engine, "native");
        match &outcome.stats {
            EngineStats::Native { stats, .. } => *stats,
            other => panic!("expected pool stats, got {other:?}"),
        }
    }

    #[test]
    fn scalar_and_function_calls() {
        let outcome = run(
            "def main(n) { x = double(n); return x + 1; } def double(v) { return v * 2; }",
            &[Value::Int(10)],
            &RunOptions::with_pes(2),
        );
        assert_eq!(outcome.return_value, Some(Value::Int(21)));
        let stats = pool_stats(&outcome);
        assert_eq!(stats.workers, 2);
        assert!(stats.instances >= 2);
        assert!(stats.tasks >= stats.instances);
    }

    #[test]
    fn distributed_fill_is_complete_on_any_worker_count() {
        let src = r#"
            def main(n) {
                a = matrix(n, n);
                for i = 0 to n - 1 {
                    for j = 0 to n - 1 { a[i, j] = i * n + j; }
                }
                return a;
            }
        "#;
        let reference = run(src, &[Value::Int(8)], &RunOptions::with_pes(1));
        let expected = reference.returned_array().unwrap().to_f64(-1.0);
        for workers in [2, 4, 8] {
            let outcome = run(src, &[Value::Int(8)], &RunOptions::with_pes(workers));
            let a = outcome.returned_array().unwrap();
            assert!(a.is_complete(), "incomplete on {workers} workers");
            assert_eq!(
                a.to_f64(-1.0),
                expected,
                "wrong values on {workers} workers"
            );
        }
    }

    #[test]
    fn consumers_park_until_producers_write() {
        let src = r#"
            def main(n) {
                a = array(n);
                for i = 0 to n - 1 { a[i] = i * 2; }
                s = a[n - 1] + a[0];
                return s;
            }
        "#;
        let outcome = run(src, &[Value::Int(10)], &RunOptions::with_pes(4));
        assert_eq!(outcome.return_value, Some(Value::Int(18)));
        let stats = pool_stats(&outcome);
        // Every park of a completed run was resumed by a delivery.
        assert_eq!(stats.parks, stats.resumptions);
        assert!(stats.tasks >= stats.instances + stats.resumptions);
    }

    #[test]
    fn carried_recurrence_is_computed_correctly() {
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
        let outcome = run(src, &[Value::Int(16)], &RunOptions::with_pes(4));
        let acc = outcome.returned_array().unwrap();
        assert!(acc.is_complete());
        assert_eq!(acc.get(&[15]), Some(Value::Float(120.0)));
    }

    #[test]
    fn single_assignment_violation_is_a_runtime_error() {
        let src = "def main(n) { a = array(n); for i = 0 to n - 1 { a[0] = i; } return 0; }";
        let err = run_err(src, 4, &RunOptions::with_pes(1));
        assert!(matches!(err, SimulationError::Runtime(_)), "{err}");
    }

    #[test]
    fn reading_a_never_written_element_is_detected_as_deadlock() {
        let src = "def main(n) { a = array(n); a[0] = 1; return a[1]; }";
        for workers in [1, 4] {
            let err = run_err(src, 4, &RunOptions::with_pes(workers));
            let SimulationError::Deadlock { detail, .. } = &err else {
                panic!("workers={workers}: expected deadlock, got {err}");
            };
            // `inst{N} of {template} suspended at pc {pc} awaiting s{K}`.
            let words: Vec<&str> = detail.split(' ').collect();
            let number = |w: &str, prefix: &str| {
                w.strip_prefix(prefix)
                    .is_some_and(|n| n.parse::<usize>().is_ok())
            };
            assert!(
                words.len() == 9
                    && number(words[0], "inst")
                    && words[1..6] == ["of", "main", "suspended", "at", "pc"]
                    && number(words[6], "")
                    && words[7] == "awaiting"
                    && number(words[8], "s"),
                "workers={workers}: deadlock detail must name the parked instance, \
                 its pc and the awaited slot: {detail}"
            );
        }
    }

    #[test]
    fn task_limit_aborts_runaway_runs() {
        let src = "def main(n) { a = matrix(n, n); for i = 0 to n - 1 { for j = 0 to n - 1 { a[i, j] = i + j; } } return a; }";
        let mut opts = RunOptions::with_pes(2);
        opts.max_events = 3;
        let err = run_err(src, 8, &opts);
        assert!(
            matches!(err, SimulationError::EventLimitExceeded { limit: 3 }),
            "{err}"
        );
    }

    #[test]
    fn out_of_bounds_store_is_reported() {
        let src = "def main(n) { a = array(n); a[n + 5] = 1; return 0; }";
        let err = run_err(src, 4, &RunOptions::with_pes(2));
        assert!(matches!(err, SimulationError::Runtime(_)), "{err}");
    }

    #[test]
    fn one_pool_runs_many_jobs_with_disjoint_state() {
        // Submit several jobs of different programs to one pool before
        // waiting on any of them: per-job stores and parked-instance maps must
        // not cross-talk, and job sequence numbers must be distinct.
        let fill =
            compile("def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i * 3; } return a; }")
                .unwrap();
        let scalar = compile("def main(n) { return n * 7; }").unwrap();
        let pool = Pool::new(4);
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
            let stats = pool_stats(&outcome);
            assert_eq!(stats.pool_id, pool.id());
            seqs.push(stats.job_seq);
        }
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn a_failing_job_does_not_poison_the_pool() {
        let bad = compile("def main(n) { a = array(n); a[0] = 1; return a[1]; }").unwrap();
        let good = compile("def main(n) { return n + 1; }").unwrap();
        let pool = Pool::new(2);
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

    #[test]
    fn batched_delivery_coalesces_scheduler_transactions() {
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
            let outcome = run(src, &[Value::Int(16)], &opts);
            assert_eq!(
                outcome.return_value,
                Some(Value::Int(expected)),
                "batch={batch}"
            );
            pool_stats(&outcome)
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

    #[test]
    fn worker_arena_recycles_instance_frames() {
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
        let stats = pool_stats(&run(src, &[Value::Int(64)], &opts));
        assert!(
            stats.arena_reuses > 32,
            "expected recycled instance frames, got {} (instances {})",
            stats.arena_reuses,
            stats.instances
        );
    }
}
