//! Differential tests of the execution layer: every `pods_workloads` kernel
//! runs through every registered engine, and all engines must agree on the
//! returned value and the contents of every allocated array (the sequential
//! interpreter acts as the oracle). This is the safety net that lets the
//! engines evolve independently: a scheduling bug in the native thread pool
//! or a protocol bug in the simulator shows up as a cross-engine diff.
//!
//! Runs go through the typed [`Runtime`] API (one runtime per engine kind
//! and machine size), which also exercises the persistent native pool on
//! every workload.

use pods::{ChunkPolicy, EngineKind, EngineStats, RunOptions, Runtime, Value};

/// The workload matrix: name, source, args, and a small machine-size sweep.
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

fn values_close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9 || (a.is_nan() && b.is_nan())
}

/// Runs one workload through every engine on several machine sizes and
/// checks full agreement with the sequential oracle.
fn assert_engines_agree(name: &str, source: &str, args: &[Value], pe_counts: &[usize]) {
    let program = pods::compile(source).unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    let oracle = Runtime::with_options(EngineKind::Seq, RunOptions::default())
        .run(&program, args)
        .unwrap_or_else(|e| panic!("{name}: oracle run failed: {e}"));

    for kind in EngineKind::ALL {
        let engine = kind.name();
        // One runtime per (engine, machine size, delivery batch, grain,
        // specialization): the native pool is reused across every workload
        // size swept below. The pooled engine also runs with unbatched (1)
        // and batched (16) wake-up delivery — the batching must be
        // invisible to results — and every engine additionally sweeps the
        // chunk grain (1 = unchunked, a fixed 4, and the auto-tuned grain)
        // at the batched delivery, since chunking must be equally
        // invisible. Every configuration then runs both
        // with and without prepare-time specialization: super-op dispatch
        // must be just as invisible as batching and chunking.
        let batches: &[usize] = if kind.is_pooled() { &[1, 16] } else { &[16] };
        let mut configs: Vec<(usize, ChunkPolicy, bool)> = Vec::new();
        for spec in [true, false] {
            configs.extend(batches.iter().map(|&b| (b, ChunkPolicy::Fixed(1), spec)));
            configs.push((16, ChunkPolicy::Fixed(4), spec));
            configs.push((16, ChunkPolicy::Auto, spec));
        }
        for &pes in pe_counts {
            for &(batch, chunk, spec) in &configs {
                let runtime = Runtime::builder(kind)
                    .workers(pes)
                    .delivery_batch(batch)
                    .chunk_policy(chunk)
                    .specialize(spec)
                    .build();
                let outcome = runtime.run(&program, args).unwrap_or_else(|e| {
                    panic!(
                        "{name}: engine `{engine}` on {pes} PEs \
                         (batch {batch}, chunk {chunk}, specialize {spec}) failed: {e}"
                    )
                });

                // Return values agree. Array references are compared through
                // the arrays they denote (allocation *ids* legitimately differ
                // across engines: the simulator's split-phase allocations can
                // complete out of program order).
                let label = format!("{name}/{engine}/{pes}/batch{batch}/chunk{chunk}/spec{spec}");
                match (&oracle.return_value, &outcome.return_value) {
                    (Some(Value::ArrayRef(_)), Some(Value::ArrayRef(_))) => {
                        let a = oracle.returned_array().expect("oracle returned array");
                        let b = outcome.returned_array().expect("engine returned array");
                        assert_eq!(a.name, b.name, "{label}: returned array identity");
                    }
                    (Some(a), Some(b)) => {
                        if let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) {
                            assert!(
                                values_close(x, y),
                                "{label}: return value {y} != oracle {x}"
                            );
                        } else {
                            assert_eq!(a, b, "{label}: return value mismatch");
                        }
                    }
                    (a, b) => assert_eq!(a, b, "{label}: return value presence"),
                }
                // A completed pooled run resumed every instance it parked.
                if let EngineStats::Native { stats, .. } = &outcome.stats {
                    assert_eq!(stats.parks, stats.resumptions, "{label}: stranded park");
                }

                // Every array the oracle allocated exists (matched by source
                // name) with identical shape and element-wise identical
                // contents.
                assert_eq!(
                    oracle.arrays.len(),
                    outcome.arrays.len(),
                    "{label}: array count"
                );
                for expected in &oracle.arrays {
                    let got = outcome
                        .array(&expected.name)
                        .unwrap_or_else(|| panic!("{label}: array `{}` missing", expected.name));
                    assert_eq!(
                        expected.shape, got.shape,
                        "{label}: shape of `{}`",
                        expected.name
                    );
                    let ev = expected.to_f64(f64::NAN);
                    let gv = got.to_f64(f64::NAN);
                    for (i, (a, b)) in ev.iter().zip(&gv).enumerate() {
                        assert!(
                            values_close(*a, *b),
                            "{label}: `{}`[{i}] = {b}, oracle {a}",
                            expected.name
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn paper_example_agrees_across_all_engines() {
    let (name, src, args) = workloads().remove(0);
    assert_engines_agree(name, src, &args, &[1, 2, 4]);
}

#[test]
fn fill_agrees_across_all_engines() {
    let (name, src, args) = workloads().remove(1);
    assert_engines_agree(name, src, &args, &[1, 2, 4]);
}

#[test]
fn matmul_agrees_across_all_engines() {
    let (name, src, args) = workloads().remove(2);
    assert_engines_agree(name, src, &args, &[1, 4]);
}

#[test]
fn stencil_agrees_across_all_engines() {
    let (name, src, args) = workloads().remove(3);
    assert_engines_agree(name, src, &args, &[1, 4]);
}

#[test]
fn recurrence_agrees_across_all_engines() {
    let (name, src, args) = workloads().remove(4);
    assert_engines_agree(name, src, &args, &[1, 4]);
}

#[test]
fn simple_agrees_across_all_engines() {
    let (name, src, args) = workloads().remove(5);
    assert_engines_agree(name, src, &args, &[1, 2, 4]);
}

#[test]
fn unknown_engine_names_are_rejected() {
    let err = "warp-drive".parse::<EngineKind>().unwrap_err();
    assert!(matches!(err, pods::PodsError::UnknownEngine { .. }));
    assert!(err.to_string().contains("native"));
}

#[test]
fn parallel_engines_agree_on_partitioning_decisions() {
    // The simulator and the native pool run the same partitioned program;
    // their reports must be identical for identical options.
    let program = pods::compile(pods_workloads::FILL).unwrap();
    let run = |kind| {
        Runtime::with_options(kind, RunOptions::with_pes(4))
            .run(&program, &[Value::Int(8)])
            .unwrap()
    };
    let sim = run(EngineKind::Sim);
    let native = run(EngineKind::Native);
    assert_eq!(
        sim.partition().unwrap().loops,
        native.partition().unwrap().loops
    );
}

#[test]
fn native_engine_speeds_up_on_multicore_hosts() {
    // The wall-clock speed-up claim only makes sense with enough real,
    // unloaded cores. On a single-core host the test degenerates to a smoke
    // check that multi-worker runs stay correct; on small shared runners
    // (2-3 vCPUs, where scheduler noise can eat the margin) the speed-up is
    // reported but only softly checked; the >1.5x assertion applies from 4
    // cores up. Set PODS_SKIP_SPEEDUP_ASSERT=1 to demote the assertion to a
    // report on co-tenanted machines where even 4 visible cores are noisy.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let program = pods::compile(pods_workloads::FILL).unwrap();
    let args = [Value::Int(96)];

    // Best of several runs on a persistent Runtime (pool spawn excluded —
    // the speed-up under measurement is the execution, not the setup): one
    // clean sample is enough to demonstrate the available parallelism, and
    // the minimum is robust to scheduler noise.
    let best = |workers: usize| -> f64 {
        let runtime = Runtime::builder(EngineKind::Native)
            .workers(workers)
            .build();
        (0..5)
            .map(|_| runtime.run(&program, &args).unwrap().wall_us)
            .fold(f64::MAX, f64::min)
    };

    let one = best(1);
    let workers = cores.clamp(2, 4);
    let multi = best(workers);
    let speedup = one / multi;
    eprintln!(
        "native wall-clock on {cores}-core host: 1 worker {one:.0} us, \
         {workers} workers {multi:.0} us ({speedup:.2}x)"
    );
    if cores < 2 || std::env::var("PODS_SKIP_SPEEDUP_ASSERT").is_ok() {
        return;
    }
    if cores < 4 {
        // Soft check: multi-worker must at least not collapse.
        assert!(
            speedup > 0.5,
            "multi-worker run collapsed on a {cores}-core host: {speedup:.2}x"
        );
        return;
    }
    assert!(
        speedup > 1.5,
        "expected >1.5x wall-clock speed-up on {workers} workers \
         ({cores}-core host); got {speedup:.2}x ({one:.0} us vs {multi:.0} us). \
         On a co-tenanted machine set PODS_SKIP_SPEEDUP_ASSERT=1."
    );
}
