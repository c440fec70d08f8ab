//! `jobbench`: the end-to-end job benchmark of the PODS runtime.
//!
//! ```text
//! jobbench --workload <simple_mesh|gather_burst|cold_compile> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload in rounds of about two seconds,
//! each on a freshly set-up runtime, for `--seconds` in all, and prints the
//! end-to-end metrics. With `--trace 1` the rounds alternate between an
//! untraced runtime and one with the flight recorder; it then times the
//! front end, prepare and the store through their public functions, prints
//! the per-layer metrics and writes a Chrome trace to `out/` beside this
//! crate. The last line of standard output is one JSON record; see
//! `README.md`.

mod layers;
mod stats;
mod workloads;

use layers::Spans;
use stats::{mean_present, median, median_of, median_present, metrics_json, quantile, Metric};
use std::process::ExitCode;
use std::time::Duration;
use workloads::{failed, latencies, Bench, Workload, WORKERS};

/// Programs timed by the traced run's front-end and prepare passes.
const LAYER_REPS: usize = 25;
/// Elements the traced run's store passes touch, at least.
const STORE_ELEMENTS: usize = 200_000;

const USAGE: &str = "usage: jobbench --workload <simple_mesh|gather_burst|cold_compile> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One run's result.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Supporting figures, in the record but not among the benchmark's
    /// declared metrics.
    extra: Vec<Metric>,
    chrome_trace: Option<String>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Seconds per round. A run is split into rounds: each sets the workload up
/// afresh on a new runtime (one `setup_s` sample) and then runs the closed
/// loop on it. Each timing metric is the median of its per-round values, so
/// set-up is sampled across the whole run and a round that a noisy
/// neighbour on a shared host slowed down cannot move a metric alone.
const ROUND_SECONDS: f64 = 2.0;

fn rounds(seconds: f64) -> usize {
    ((seconds / ROUND_SECONDS).round() as usize).max(2)
}

fn end_to_end(args: &Args) -> Result<Report, String> {
    let mut bench = Bench::new(args.workload, args.seed)?;
    let n = rounds(args.seconds);
    let window = Duration::from_secs_f64(args.seconds / n as f64);
    let (mut setup_times, mut p50, mut p90, mut rate) = (vec![], vec![], vec![], vec![]);
    let mut ops = Vec::new();
    for _ in 0..n {
        let (warm, secs) = bench.setup(false)?;
        let m = bench.measure(&warm, window, &mut Spans::off());
        let lat = latencies(&m.ops);
        setup_times.push(secs);
        p50.push(quantile(&lat, 0.5));
        p90.push(quantile(&lat, 0.9));
        rate.push((m.ops.len() - failed(&m.ops)) as f64 / m.busy_s);
        ops.extend(m.ops);
    }
    let peak_bytes = median_present(&ops, |o| {
        o.stats.as_ref().map(|s| s.store.peak_bytes as f64)
    });
    Ok(Report {
        attempted: ops.len(),
        failed: failed(&ops),
        metrics: vec![
            metric("setup_s", median(&setup_times), "s"),
            metric("op_p50_us", median(&p50), "us"),
            metric("op_p90_us", median(&p90), "us"),
            metric("ops_per_s", median(&rate), "1/s"),
            metric("store_peak_bytes", peak_bytes, "bytes"),
        ],
        extra: vec![
            metric(
                "failed_ratio",
                failed(&ops) as f64 / ops.len() as f64,
                "ratio",
            ),
            metric("op_samples", ops.len() as f64, "count"),
            metric("rounds", n as f64, "count"),
        ],
        chrome_trace: None,
    })
}

/// Alternates untraced and traced rounds, so the tracing overhead compares
/// rounds taken under the same host conditions; the per-layer metrics come
/// from the traced rounds and the layer passes after them.
fn traced(args: &Args) -> Result<Report, String> {
    let mut bench = Bench::new(args.workload, args.seed)?;
    let n = rounds(args.seconds);
    let window = Duration::from_secs_f64(args.seconds / n as f64);
    let (mut plain, mut ops) = (Vec::new(), Vec::new());
    let mut queue_depth_peak = 0usize;
    let mut last = None;
    for round in 0..n {
        let traced = round % 2 == 1;
        let (warm, _) = bench.setup(traced)?;
        let mut spans = if traced {
            Spans::on(warm.epoch)
        } else {
            Spans::off()
        };
        let m = bench.measure(&warm, window, &mut spans);
        if traced {
            queue_depth_peak = queue_depth_peak.max(warm.runtime.metrics().queue_depth_peak);
            ops.extend(m.ops);
            last = Some((warm, spans));
        } else {
            plain.extend(m.ops);
        }
    }
    let (warm, mut spans) = last.expect("at least two rounds, so one is traced");

    // Front end and prepare, each program freshly compiled so prepare
    // misses the runtime's cache.
    let mut front = Vec::new();
    let mut prep = Vec::new();
    for source in bench.layer_sources(LAYER_REPS) {
        front.push(layers::frontend_split(&source, &mut spans)?);
        let program = pods::compile(&source).map_err(|e| format!("compile: {e}"))?;
        prep.push(layers::prepare_split(&warm.runtime, &program, &mut spans));
    }
    let shape = bench.largest_shape().to_vec();
    let passes = STORE_ELEMENTS.div_ceil(shape.iter().product::<usize>().max(1));
    let store: Vec<_> = (0..passes)
        .map(|_| layers::store_pass(&warm.runtime, &shape, &mut spans))
        .collect();

    let trace = warm.runtime.take_trace();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!(
        "{dir}/trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    );
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, spans.chrome_trace(&trace)))
        .map_err(|e| format!("writing {path}: {e}"))?;

    let stat = |f: fn(&pods::NativeStats) -> u64| {
        median_present(&ops, |o| o.stats.as_ref().map(|s| f(s) as f64))
    };
    let diag = |f: fn(&pods::JobBreakdown) -> u64| {
        median_present(&ops, |o| o.breakdown.as_ref().map(|b| f(b) as f64))
    };
    // Queue and dispatch gaps are a few µs, between recorder timestamps
    // truncated to whole µs, so their median reads 0 or 1. The mean of such
    // differences is unbiased (a gap of g µs reads as its ceiling with
    // probability frac(g)), so these two are means over jobs.
    let diag_mean = |f: fn(&pods::JobBreakdown) -> u64| {
        mean_present(&ops, |o| o.breakdown.as_ref().map(|b| f(b) as f64))
    };
    let traced_p50 = quantile(&latencies(&ops), 0.5);
    let plain_p50 = quantile(&latencies(&plain), 0.5);
    let metrics = vec![
        metric(
            "frontend.idlang_us",
            median_of(&front, |f| f.idlang_us),
            "us",
        ),
        metric(
            "frontend.dataflow_us",
            median_of(&front, |f| f.dataflow_us),
            "us",
        ),
        metric(
            "frontend.translate_us",
            median_of(&front, |f| f.translate_us),
            "us",
        ),
        metric(
            "frontend.sp_instrs",
            median_of(&front, |f| f.sp_instrs),
            "count",
        ),
        metric(
            "prepare.partition_us",
            median_of(&prep, |p| p.partition_us),
            "us",
        ),
        metric(
            "prepare.specialize_us",
            median_of(&prep, |p| p.specialize_us),
            "us",
        ),
        metric("prepare.total_us", median_of(&prep, |p| p.total_us), "us"),
        metric(
            "prepare.super_op_sites",
            median_of(&prep, |p| p.super_op_sites),
            "count",
        ),
        metric(
            "prepare.range_filters",
            median_of(&prep, |p| p.range_filters),
            "count",
        ),
        metric("service.submit_us", median_of(&ops, |o| o.submit_us), "us"),
        metric("service.queue_us", diag_mean(|b| b.queue_us), "us"),
        metric("service.dispatch_us", diag_mean(|b| b.dispatch_us), "us"),
        metric("sched.instances", stat(|s| s.instances), "count"),
        metric("sched.tasks", stat(|s| s.tasks), "count"),
        metric("sched.parks", stat(|s| s.parks), "count"),
        metric("sched.steals", stat(|s| s.steals), "count"),
        metric("sched.wakeups", stat(|s| s.wakeups), "count"),
        metric("sched.wakeup_flushes", stat(|s| s.wakeup_flushes), "count"),
        metric("sched.arena_reuses", stat(|s| s.arena_reuses), "count"),
        metric("sched.blocked_us", diag(|b| b.blocked_us), "us"),
        metric("core.run_us", diag(|b| b.run_us), "us"),
        metric("core.super_ops", stat(|s| s.super_ops), "count"),
        metric(
            "store.present_read_ns",
            median_of(&store, |s| s.present_read_ns),
            "ns",
        ),
        metric(
            "store.deferred_read_wake_ns",
            median_of(&store, |s| s.deferred_read_wake_ns),
            "ns",
        ),
        metric("store.write_ns", median_of(&store, |s| s.write_ns), "ns"),
        metric(
            "store.peak_arrays",
            stat(|s| s.store.peak_arrays as u64),
            "count",
        ),
        metric("trace.op_p50_us", traced_p50, "us"),
        metric("trace.overhead_ratio", traced_p50 / plain_p50, "ratio"),
    ];
    let traced_jobs = ops.iter().filter(|o| o.breakdown.is_some()).count();
    Ok(Report {
        attempted: plain.len() + ops.len(),
        failed: failed(&plain) + failed(&ops),
        metrics,
        // Reported but not declared, as they read 0 on some workloads: one
        // job in flight never queues, and at the default chunk settings no
        // workload's loop is chunked.
        extra: vec![
            metric("service.queue_depth_peak", queue_depth_peak as f64, "count"),
            metric(
                "core.chunk_iterations",
                stat(|s| s.chunk_iterations),
                "count",
            ),
            metric("trace.overhead_us", traced_p50 - plain_p50, "us"),
            metric("untraced_op_p50_us", plain_p50, "us"),
            metric("traced_ops", ops.len() as f64, "count"),
            metric("traced_ops_with_breakdown", traced_jobs as f64, "count"),
            metric("trace_events_exported", trace.len() as f64, "count"),
            metric("trace_events_dropped", trace.dropped as f64, "count"),
        ],
        chrome_trace: Some(path),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jobbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    } {
        Ok(r) => r,
        Err(e) => {
            eprintln!("jobbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for m in report.metrics.iter().chain(&report.extra) {
        eprintln!("{:>28} {:>14.3} {}", m.name, m.value, m.unit);
    }
    let trace_path = report
        .chrome_trace
        .as_deref()
        .map_or("null".to_string(), |p| format!("\"{p}\""));
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"workers\": {WORKERS}, \
         \"seconds\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"metrics\": {}, \"extra\": {}, \"chrome_trace\": {trace_path}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics_json(&report.metrics),
        metrics_json(&report.extra),
    );
    ExitCode::SUCCESS
}
