//! Soak test of the job-service subsystem: thousands of mixed
//! prepared/raw jobs from many client threads against a bounded admission
//! queue, checking the service's four contract points under sustained
//! load —
//!
//! 1. the queue depth never exceeds the admission capacity,
//! 2. per-client weighted fairness holds within a generous band,
//! 3. deadlines fire as `DeadlineExceeded`, never as hangs,
//! 4. every submission is accounted for at drain
//!    (`submitted == completed + rejected + cancelled`) and drop-on-drain
//!    is clean.
//!
//! Scale: the default run is sized for CI (a few hundred jobs). Set
//! `PODS_SOAK_SCALE=<n>` to multiply the job counts for longer soaks
//! (e.g. `PODS_SOAK_SCALE=10` for a thousands-of-jobs run).

use pods::{ClientId, EngineKind, PodsError, Runtime, Value};
use std::time::Duration;

/// Job-count multiplier from `PODS_SOAK_SCALE` (default 1).
fn scale() -> usize {
    std::env::var("PODS_SOAK_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

#[test]
fn weighted_clients_share_a_saturated_runtime_fairly() {
    // A weight-2 and a weight-1 client each park a deep backlog behind a
    // blocker that occupies the single dispatch slot, so both lanes are
    // saturated when dispatching starts. Mid-drain, deficit round robin
    // must keep each client's completion share within 2x of its fair share
    // (heavy 2/3, light 1/3) — and the books must balance at full drain.
    let per_client = 60 * scale() as u64;
    let heavy = ClientId(1);
    let light = ClientId(2);
    let program =
        pods::compile("def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i; } return a; }")
            .unwrap();
    let blocker_program = pods::compile(
        "def main(n) {
             a = matrix(n, n);
             for i = 0 to n - 1 {
                 for j = 0 to n - 1 { a[i, j] = i * n + j; }
             }
             return a;
         }",
    )
    .unwrap();
    let runtime = Runtime::builder(EngineKind::Native)
        .workers(2)
        .dispatch_window(1)
        .client_weight(heavy, 2)
        .client_weight(light, 1)
        .build();
    let prepared = runtime.prepare(&program);

    // Occupy the one dispatch slot so both backlogs queue up completely
    // before the dispatcher starts serving them.
    let blocker = runtime.submit(&blocker_program, &[Value::Int(48)]).unwrap();
    let handles: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = [heavy, light]
            .into_iter()
            .map(|client| {
                let (runtime, prepared, program) = (&runtime, &prepared, &program);
                scope.spawn(move || {
                    (0..per_client)
                        .map(|i| {
                            // Mixed submission forms: prepared mostly, raw
                            // (LRU-cached) every eighth job.
                            if i % 8 == 0 {
                                runtime.submit_for(client, program, &[Value::Int(16)])
                            } else {
                                runtime.submit_for(client, prepared, &[Value::Int(16)])
                            }
                            .expect("unbounded submit never rejects")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("submitter panicked"))
            .collect()
    });
    assert!(blocker.wait().is_ok());

    // Sample mid-drain: once at least half the backlog completed, each
    // client's share must sit within 2x of its weighted fair share.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let m = runtime.metrics();
        // Ignore the blocker (completed, anonymous) via per-client counts.
        let h = m.completed_for(heavy);
        let l = m.completed_for(light);
        let done = h + l;
        if done >= per_client {
            let heavy_share = h as f64 / done as f64;
            let light_share = l as f64 / done as f64;
            assert!(
                (1.0 / 3.0..=(2.0 / 3.0) * 2.0).contains(&heavy_share),
                "heavy share {heavy_share:.2} outside 2x band of 2/3 \
                 ({h} heavy vs {l} light)"
            );
            assert!(
                (1.0 / 6.0..=(1.0 / 3.0) * 2.0).contains(&light_share),
                "light share {light_share:.2} outside 2x band of 1/3 \
                 ({h} heavy vs {l} light)"
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "backlog never reached half-drained: {m:?}"
        );
        std::thread::yield_now();
    }

    for handle in handles {
        assert!(handle.wait().is_ok());
    }
    let m = runtime.metrics();
    assert_eq!(m.submitted, 2 * per_client + 1);
    assert_eq!(
        m.completed,
        2 * per_client + 1,
        "nothing lost, nothing extra"
    );
    assert_eq!(m.rejected + m.cancelled, 0);
    assert_eq!(m.submitted, m.completed + m.rejected + m.cancelled);
    assert_eq!(m.completed_for(heavy), per_client);
    assert_eq!(m.completed_for(light), per_client);
    assert!(m.queue_depth == 0 && m.in_flight == 0, "drained: {m:?}");
    assert!(m.jobs_per_sec > 0.0);
    assert!(m.p99_latency_us >= m.p50_latency_us);
}

#[test]
fn bounded_queue_backpressure_accounts_for_every_submission() {
    // Many producer threads race mixed blocking / bounded-wait /
    // non-blocking submissions into a capacity-8 queue behind a single
    // dispatch slot. The queue depth must never exceed the capacity, no
    // handle may be lost, and at drain every submission is exactly one of
    // completed / rejected / cancelled.
    const CAPACITY: usize = 8;
    const THREADS: u64 = 4;
    let per_thread = 40 * scale() as u64;
    let program = pods::compile(
        "def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i * 2; } return a; }",
    )
    .unwrap();
    let runtime = Runtime::builder(EngineKind::Native)
        .workers(2)
        .dispatch_window(1)
        .admission_capacity(CAPACITY)
        .build();
    let prepared = runtime.prepare(&program);

    let (outcomes, rejected): (u64, u64) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (runtime, prepared) = (&runtime, &prepared);
                scope.spawn(move || {
                    let client = ClientId(t + 1);
                    let mut handles = Vec::new();
                    let mut rejected = 0u64;
                    for i in 0..per_thread {
                        let result = match i % 3 {
                            0 => runtime.submit_for(client, prepared, &[Value::Int(24)]),
                            1 => runtime.submit_timeout_for(
                                client,
                                prepared,
                                &[Value::Int(24)],
                                Duration::from_millis((i % 5) * 2),
                            ),
                            _ => runtime.try_submit_for(client, prepared, &[Value::Int(24)]),
                        };
                        match result {
                            Ok(handle) => handles.push(handle),
                            Err(PodsError::QueueFull { capacity, depth }) => {
                                assert_eq!(capacity, CAPACITY);
                                assert!(depth <= CAPACITY, "overfull queue reported");
                                rejected += 1;
                            }
                            Err(e) => panic!("unexpected submit error: {e}"),
                        }
                        // Drain a little as we go so blocking submits make
                        // progress even at heavy oversubscription.
                        if handles.len() >= 24 {
                            assert!(handles.remove(0).wait().is_ok());
                        }
                    }
                    let kept = handles.len() as u64;
                    for handle in handles {
                        assert!(handle.wait().is_ok());
                    }
                    (per_thread - rejected - kept, rejected, kept)
                })
            })
            .collect();
        let mut completed_early = 0;
        let mut rejected = 0;
        let mut kept = 0;
        for w in workers {
            let (c, r, k) = w.join().expect("producer thread panicked");
            completed_early += c;
            rejected += r;
            kept += k;
        }
        (completed_early + kept, rejected)
    });

    let m = runtime.metrics();
    assert_eq!(m.submitted, THREADS * per_thread);
    assert_eq!(m.completed, outcomes, "every kept handle completed");
    assert_eq!(m.rejected, rejected, "every QueueFull was counted");
    assert_eq!(m.cancelled, 0);
    assert_eq!(m.submitted, m.completed + m.rejected + m.cancelled);
    assert!(
        m.queue_depth_peak <= CAPACITY,
        "queue depth {} exceeded capacity {CAPACITY}",
        m.queue_depth_peak
    );
    assert!(m.queue_depth == 0 && m.in_flight == 0, "drained: {m:?}");
}

#[test]
fn deadlines_fire_as_deadline_exceeded_not_hangs() {
    // Slow jobs behind a single dispatch slot under a tight deadline: at
    // least the tail of the burst must be cut short, every waiter must
    // resolve promptly, and cut-short jobs must report the typed
    // `DeadlineExceeded` error (queued and in-flight expiry paths both).
    // The backlog must stay deep enough that its tail overshoots the
    // deadline even with specialized (register-chained) execution, which
    // drains jobs several times faster than the interpreter this test was
    // originally tuned against.
    let jobs = 96 * scale() as i64;
    let deadline = Duration::from_millis(5);
    let program = pods::compile(
        "def main(n) {
             a = matrix(n, n);
             for i = 0 to n - 1 {
                 for j = 0 to n - 1 { a[i, j] = i * n + j; }
             }
             return a;
         }",
    )
    .unwrap();
    let runtime = Runtime::builder(EngineKind::Native)
        .workers(2)
        .dispatch_window(1)
        .deadline(deadline)
        .build();
    let prepared = runtime.prepare(&program);
    let handles: Vec<_> = (0..jobs)
        .map(|_| runtime.submit(&prepared, &[Value::Int(48)]).unwrap())
        .collect();

    let mut expired = 0u64;
    for (i, handle) in handles.into_iter().enumerate() {
        match handle.wait() {
            Ok(outcome) => assert!(
                outcome.returned_array().unwrap().is_complete(),
                "job {i} completed with holes"
            ),
            Err(PodsError::DeadlineExceeded { deadline: d, .. }) => {
                assert_eq!(d, deadline, "error must carry the configured deadline");
                expired += 1;
            }
            Err(e) => panic!("job {i}: expected DeadlineExceeded, got {e}"),
        }
    }
    assert!(
        expired >= 1,
        "a {jobs}-deep backlog of ~matrix(48) jobs behind one slot must \
         blow a {deadline:?} deadline at least once"
    );
    let m = runtime.metrics();
    assert_eq!(m.cancelled, expired);
    assert_eq!(m.submitted, m.completed + m.rejected + m.cancelled);
    assert!(m.queue_depth == 0 && m.in_flight == 0, "drained: {m:?}");
}

#[test]
fn dropping_a_loaded_runtime_drains_cleanly() {
    // Drop the runtime with a deep backlog: the drop returns promptly, the
    // tail reports cancellation (never hangs), and the service books
    // balance at teardown.
    let jobs = 24 * scale();
    let program = pods::compile(
        "def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i + 1; } return a; }",
    )
    .unwrap();
    let runtime = Runtime::builder(EngineKind::Native)
        .workers(2)
        .dispatch_window(1)
        .build();
    let prepared = runtime.prepare(&program);
    let handles: Vec<_> = (0..jobs)
        .map(|_| runtime.submit(&prepared, &[Value::Int(64)]).unwrap())
        .collect();
    let metrics = runtime.metrics();
    assert_eq!(metrics.submitted, jobs as u64);
    drop(runtime);
    let mut cancelled = 0usize;
    for (i, handle) in handles.into_iter().enumerate() {
        match handle.wait() {
            Ok(outcome) => assert!(
                outcome.returned_array().unwrap().is_complete(),
                "job {i} completed with holes"
            ),
            Err(e) => {
                assert!(
                    e.to_string().contains("cancelled"),
                    "job {i}: unexpected error {e}"
                );
                cancelled += 1;
            }
        }
    }
    assert!(
        cancelled >= 1,
        "dropping with a {jobs}-job backlog must cancel the tail"
    );
}
