//! Per-layer measurements, timed from outside through each layer's public
//! functions, and the benchmark's own spans for the Chrome trace.

use pods::{ArrayId, ArrayShape, CompiledProgram, JobTrace, Runtime, SharedArrayStore};
use pods_istructure::{Partitioning, SharedReadResult};
use pods_machine::InstanceId;
use pods_sp::SlotId;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Spans kept for the Chrome trace; older ones are dropped, as the flight
/// recorder drops its oldest events.
const SPAN_CAP: usize = 20_000;

struct Span {
    name: &'static str,
    op: u64,
    start_us: f64,
    dur_us: f64,
}

/// The benchmark's own spans around each public call, on the clock of the
/// runtime's flight recorder.
pub struct Spans {
    epoch: Instant,
    on: bool,
    log: VecDeque<Span>,
}

impl Spans {
    pub fn off() -> Spans {
        Spans {
            epoch: Instant::now(),
            on: false,
            log: VecDeque::new(),
        }
    }

    pub fn on(epoch: Instant) -> Spans {
        Spans {
            epoch,
            on: true,
            log: VecDeque::new(),
        }
    }

    /// Runs `f`, returning its result and duration in µs, and records a
    /// span named `name` for op `op` when spans are on.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let dur_us = start.elapsed().as_secs_f64() * 1e6;
        if self.on {
            if self.log.len() == SPAN_CAP {
                self.log.pop_front();
            }
            self.log.push_back(Span {
                name,
                op,
                start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
                dur_us,
            });
        }
        (out, dur_us)
    }

    /// The recorder's Chrome trace with these spans added as a second
    /// process, one complete (`X`) event per span.
    pub fn chrome_trace(&self, trace: &JobTrace) -> String {
        let recorder = trace.chrome_trace();
        let tail = recorder
            .rfind("\n],\"displayTimeUnit\"")
            .expect("the recorder's trace ends its event array before displayTimeUnit");
        let mut out = String::with_capacity(recorder.len() + self.log.len() * 112);
        out.push_str(&recorder[..tail]);
        out.push_str(
            ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\"args\":{\"name\":\"jobbench\"}}",
        );
        for s in &self.log {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":2,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
                s.name, s.start_us, s.dur_us, s.op
            );
        }
        out.push_str(&recorder[tail..]);
        out
    }
}

/// Front-end split of one compile: `pods_idlang::compile`,
/// `build_program` + `analyze_loops`, and `translate`, in µs, plus the SP
/// instruction count.
pub struct Frontend {
    pub idlang_us: f64,
    pub dataflow_us: f64,
    pub translate_us: f64,
    pub sp_instrs: f64,
}

pub fn frontend_split(source: &str, spans: &mut Spans) -> Result<Frontend, String> {
    let (hir, idlang_us) = spans.time("frontend.idlang", 0, || pods_idlang::compile(source));
    let hir = hir.map_err(|e| format!("idlang: {e}"))?;
    let (graph, dataflow_us) = spans.time("frontend.dataflow", 0, || {
        (
            pods_dataflow::build_program(&hir),
            pods_dataflow::analyze_loops(&hir),
        )
    });
    black_box(graph);
    let (sp, translate_us) = spans.time("frontend.translate", 0, || pods_sp::translate(&hir));
    let sp = sp.map_err(|e| format!("translate: {e}"))?;
    Ok(Frontend {
        idlang_us,
        dataflow_us,
        translate_us,
        sp_instrs: sp.total_instructions() as f64,
    })
}

/// Prepare split of one program under `runtime`'s configuration: the
/// partitioner and the specialization pass on a copy of the SP program, and
/// `Runtime::prepare` as a whole, in µs, plus what prepare decided.
pub struct Prepare {
    pub partition_us: f64,
    pub specialize_us: f64,
    pub total_us: f64,
    pub super_op_sites: f64,
    pub range_filters: f64,
}

/// `program` must be freshly compiled, so `Runtime::prepare` misses the
/// runtime's cache.
pub fn prepare_split(runtime: &Runtime, program: &CompiledProgram, spans: &mut Spans) -> Prepare {
    let opts = runtime.options();
    let mut sp = program.sp_program().clone();
    let (report, partition_us) = spans.time("prepare.partition", 0, || {
        pods_partition::partition_with_chunk_boost(&mut sp, program.loops(), &opts.partition, 1)
    });
    let specialize_us = if opts.specialize {
        spans
            .time("prepare.specialize", 0, || {
                pods_sp::specialize_program(&mut sp)
            })
            .1
    } else {
        0.0
    };
    let (prepared, total_us) = spans.time("prepare.total", 0, || runtime.prepare(program));
    Prepare {
        partition_us,
        specialize_us,
        total_us,
        super_op_sites: prepared.partition_report().super_ops as f64,
        range_filters: report.range_filters as f64,
    }
}

/// Per-element cost of the shared I-structure store in ns: a read of a
/// present element, a deferred read plus the write that wakes it, and a
/// write with no waiter.
pub struct Store {
    pub present_read_ns: f64,
    pub deferred_read_wake_ns: f64,
    pub write_ns: f64,
}

/// The native engine's store waiter: the instance and the frame slot a
/// deferred read delivers to.
type Waiter = (InstanceId, SlotId);

fn waiter(off: usize) -> Waiter {
    (InstanceId(off as u64), SlotId(0))
}

/// Times one pass of each access over a fresh array of `shape`, paged and
/// distributed as `runtime` lays out its arrays, in a store with the native
/// engine's waiter type.
pub fn store_pass(runtime: &Runtime, shape: &[usize], spans: &mut Spans) -> Store {
    let opts = runtime.options();
    let shape = ArrayShape::new(shape.to_vec());
    let len = shape.len();
    let store: SharedArrayStore<Waiter> = SharedArrayStore::new();
    let fresh = |id: usize| {
        store
            .allocate(
                ArrayId(id),
                "bench",
                shape.clone(),
                Partitioning::new(len, opts.page_size, opts.num_pes),
            )
            .expect("fresh id, non-degenerate shape");
        store.require(ArrayId(id)).expect("just allocated")
    };
    let filled = fresh(0);
    let (_, write_us) = spans.time("store.write", 0, || {
        for off in 0..len {
            black_box(
                filled
                    .write(off, pods::Value::Int(off as i64))
                    .expect("first write"),
            );
        }
    });
    let (_, read_us) = spans.time("store.present_read", 0, || {
        for off in 0..len {
            let r = filled.read(off, waiter(off)).expect("in bounds");
            debug_assert!(matches!(r, SharedReadResult::Present(_)));
            black_box(r);
        }
    });
    let empty = fresh(1);
    let (_, deferred_us) = spans.time("store.deferred_read_wake", 0, || {
        for off in 0..len {
            black_box(empty.read(off, waiter(off)).expect("in bounds"));
            let woken = empty.write(off, pods::Value::Int(1)).expect("first write");
            debug_assert_eq!(woken.len(), 1);
            black_box(woken);
        }
    });
    let per = |us: f64| us * 1e3 / len as f64;
    Store {
        present_read_ns: per(read_us),
        deferred_read_wake_ns: per(deferred_us),
        write_ns: per(write_us),
    }
}
