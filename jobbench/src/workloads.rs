//! The three workloads, their seeded inputs, and the closed loops that drive
//! them through `pods::Runtime`.
//!
//! All load comes from the calling thread (the generator). Every op's
//! result is compared with the sequential oracle after the op's timing
//! stops; the oracle interprets the HIR, so it shares no code with the
//! dataflow, SP, partition, core or store layers under test.

use crate::layers::Spans;
use crate::stats::Rng;
use pods::{
    ClientId, EngineKind, EngineOutcome, EngineStats, JobBreakdown, JobHandle, NativeStats,
    PodsError, PreparedProgram, Runtime, TraceConfig, Value,
};
use std::time::{Duration, Instant};

/// Worker threads of the measured runtime.
pub const WORKERS: usize = 2;

/// SIMPLE runs on the paper's middle mesh size.
const SIMPLE_MESH: i64 = 32;
/// Probe calls of the gather program (as in the `engines` bench).
const GATHER_PROBES: usize = 64;
/// Jobs `gather_burst` keeps in flight.
const GATHER_IN_FLIGHT: usize = 8;
/// How often `gather_burst` looks for a finished job. With Linux's default
/// 50 µs timer slack the sleep takes about 67 µs, so an op's latency reads
/// up to that much long.
const POLL_INTERVAL: Duration = Duration::from_micros(10);
/// Warm-up ops per set-up: enough to fault in code and allocator pools.
const SIMPLE_WARMUPS: usize = 3;
const GATHER_WARMUPS: usize = 16;
/// One block of the variant sequence: every bundled source once.
const COLD_WARMUPS: usize = COLD_SOURCES.len();

/// Flight-recorder ring size per lane. A traced job's breakdown is read
/// from the rings when the job completes, so a ring must hold the job's
/// share of events (about 5,300 per SIMPLE job at mesh 32, under 1,000 for
/// the others) with the jobs in flight beside it. Every completion copies
/// the rings, so larger rings only add tracing overhead.
const SIMPLE_TRACE_BUFFER: usize = 1 << 13;
const SMALL_TRACE_BUFFER: usize = 1 << 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimpleMesh,
    GatherBurst,
    ColdCompile,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SimpleMesh,
        Workload::GatherBurst,
        Workload::ColdCompile,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimpleMesh => "simple_mesh",
            Workload::GatherBurst => "gather_burst",
            Workload::ColdCompile => "cold_compile",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The bundled sources `cold_compile` draws variants of, with the tiny
/// argument each runs at.
const COLD_SOURCES: [(&str, &str, Option<i64>); 5] = [
    ("simple", pods_workloads::simple::SIMPLE, Some(4)),
    ("matmul", pods_workloads::MATMUL, Some(4)),
    ("stencil", pods_workloads::STENCIL, Some(6)),
    ("recurrence", pods_workloads::RECURRENCE, Some(16)),
    ("paper_example", pods_workloads::PAPER_EXAMPLE, None),
];

/// A read-heavy gather with `k` split-phase probe calls (the program of the
/// `engines` bench): every probe parks on an unwritten element until the
/// producer loop's writes wake it. The sum is right-nested so every probe is
/// in flight before any add needs a return value.
fn gather_source(k: usize) -> String {
    let mut expr = format!("probe(a, {})", k - 1);
    for i in (0..k - 1).rev() {
        expr = format!("probe(a, {i}) + ({expr})");
    }
    format!(
        "def main(n) {{\n    a = array(n);\n    for i = 0 to n - 1 {{ a[i] = i * 3; }}\n    \
         return {expr};\n}}\ndef probe(a, i) {{ return a[i] + 1; }}\n"
    )
}

/// The seeded, never-repeating sequence of `cold_compile` programs. The
/// sources come in blocks that hold each bundled source once, in a seeded
/// order, so every prefix of the sequence has a near-equal mix. Variant `k`
/// scales every non-zero float literal by a factor unique to `k`, so no
/// cache keyed on source text or program identity can hit.
pub struct Variants {
    rng: Rng,
    block: Vec<usize>,
    next: u64,
    /// A seeded shift of every variant's scale factor.
    offset: f64,
}

pub struct Variant {
    pub source: String,
    pub args: Vec<Value>,
}

impl Variants {
    fn new(seed: u64) -> Variants {
        let mut rng = Rng::new(seed ^ 0xC01D);
        let offset = rng.unit() * 1e-4;
        Variants {
            rng,
            block: Vec::new(),
            next: 0,
            offset,
        }
    }

    pub fn next_variant(&mut self) -> Variant {
        if self.block.is_empty() {
            self.block = (0..COLD_SOURCES.len()).collect();
            self.rng.shuffle(&mut self.block);
        }
        let (name, source, arg) = COLD_SOURCES[self.block.pop().expect("block refilled above")];
        let k = self.next;
        self.next += 1;
        let factor = 1.0 + self.offset + (k + 1) as f64 * 1e-9;
        let mut source = perturb_floats(source, factor);
        if name == "paper_example" {
            // The paper example has no float literal, and its integer
            // literals are array and loop bounds except the row stride in
            // `f`, which only changes the stored values.
            let stride = format!("i * {} + j", 11 + k);
            source = source.replacen("i * 10 + j", &stride, 1);
        }
        Variant {
            source,
            args: arg.map(Value::Int).into_iter().collect(),
        }
    }
}

/// Scales every non-zero float literal of an idlang source by `factor`,
/// leaving comments, identifiers and integer literals as they are.
fn perturb_floats(src: &str, factor: f64) -> String {
    let bytes = src.as_bytes();
    let mut out = String::with_capacity(src.len() + 256);
    let (mut copied, mut i) = (0, 0);
    while i < bytes.len() {
        let c = bytes[i];
        if c == b'#' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
        } else if c.is_ascii_alphabetic() || c == b'_' {
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
        } else if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let value: f64 = src[start..i].parse().expect("digits '.' digits");
                if value != 0.0 {
                    out.push_str(&src[copied..start]);
                    let mut text = format!("{}", value * factor);
                    if !text.contains('.') {
                        text.push_str(".0");
                    }
                    out.push_str(&text);
                    copied = i;
                }
            }
        } else {
            i += 1;
        }
    }
    out.push_str(&src[copied..]);
    out
}

/// `gather_burst` submits as two clients, alternating in pairs whose order
/// the seed fixes.
struct ClientOrder {
    rng: Rng,
    pending: Option<ClientId>,
}

impl ClientOrder {
    fn next_client(&mut self) -> ClientId {
        if let Some(c) = self.pending.take() {
            return c;
        }
        let (first, second) = if self.rng.next_u64() & 1 == 0 {
            (ClientId(1), ClientId(2))
        } else {
            (ClientId(2), ClientId(1))
        };
        self.pending = Some(second);
        first
    }
}

/// Whether `got` matches the oracle's outcome: the same return value (an
/// array reference compared through the array it denotes) and, for every
/// array the oracle allocated, an array of that name with the same shape
/// and the same elements. Allocation ids legitimately differ between
/// engines, so arrays are matched by name.
pub fn agrees(expected: &EngineOutcome, got: &EngineOutcome) -> bool {
    let close = |a: f64, b: f64| (a - b).abs() < 1e-9 || (a.is_nan() && b.is_nan());
    let returns = match (&expected.return_value, &got.return_value) {
        (Some(Value::ArrayRef(_)), Some(Value::ArrayRef(_))) => {
            match (expected.returned_array(), got.returned_array()) {
                (Some(a), Some(b)) => a.name == b.name,
                _ => false,
            }
        }
        (Some(a), Some(b)) => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => close(x, y),
            _ => a == b,
        },
        (a, b) => a == b,
    };
    returns
        && expected.arrays.len() == got.arrays.len()
        && expected.arrays.iter().all(|e| {
            got.array(&e.name).is_some_and(|g| {
                g.shape == e.shape
                    && e.to_f64(f64::NAN)
                        .iter()
                        .zip(g.to_f64(f64::NAN))
                        .all(|(a, b)| close(*a, b))
            })
        })
}

/// One measured op.
pub struct Op {
    /// Submit (or compile) to result, in µs; infinite for a failed op, which
    /// misses every latency limit.
    pub latency_us: f64,
    /// The `Runtime::submit` call alone, in µs.
    pub submit_us: f64,
    /// Completed and agreed with the oracle.
    pub ok: bool,
    pub stats: Option<NativeStats>,
    pub breakdown: Option<JobBreakdown>,
}

impl Op {
    fn new(
        latency: Duration,
        submit_us: f64,
        outcome: &Result<EngineOutcome, PodsError>,
        ok: bool,
    ) -> Op {
        let (stats, breakdown) = match outcome {
            Ok(o) => match &o.stats {
                EngineStats::Native { stats, .. } => (Some(*stats), o.diagnostics),
                _ => (None, o.diagnostics),
            },
            Err(_) => (None, None),
        };
        Op {
            latency_us: if ok {
                latency.as_secs_f64() * 1e6
            } else {
                f64::INFINITY
            },
            submit_us,
            ok,
            stats,
            breakdown,
        }
    }
}

/// The ops of one measured window.
pub struct Measured {
    pub ops: Vec<Op>,
    /// Seconds during which at least one op was in flight: the oracle
    /// checks and input generation of the one-in-flight loops are excluded.
    pub busy_s: f64,
}

pub fn failed(ops: &[Op]) -> usize {
    ops.iter().filter(|o| !o.ok).count()
}

pub fn latencies(ops: &[Op]) -> Vec<f64> {
    ops.iter().map(|o| o.latency_us).collect()
}

/// A runtime that is set up and warmed, ready for timed ops.
pub struct Warm {
    pub runtime: Runtime,
    prepared: Option<PreparedProgram>,
    /// Taken just before the runtime (and its flight recorder) was built:
    /// the origin the benchmark's own spans share with the recorder's.
    pub epoch: Instant,
}

/// The job a fixed-program workload runs over and over.
struct FixedJob {
    source: String,
    args: Vec<Value>,
    expected: EngineOutcome,
}

/// A workload's seeded inputs, oracle and generator state.
pub struct Bench {
    pub workload: Workload,
    oracle: Runtime,
    fixed: Option<FixedJob>,
    variants: Variants,
    clients: ClientOrder,
    next_op: u64,
    /// The largest array shape any oracle run allocated.
    largest_shape: Vec<usize>,
}

impl Bench {
    /// Generates the workload's inputs from `seed` and, for the fixed
    /// programs, runs the oracle once.
    pub fn new(workload: Workload, seed: u64) -> Result<Bench, String> {
        let oracle = Runtime::builder(EngineKind::Seq).workers(1).build();
        let fixed = match workload {
            Workload::SimpleMesh => Some((
                pods_workloads::simple::SIMPLE.to_string(),
                vec![Value::Int(SIMPLE_MESH)],
            )),
            Workload::GatherBurst => Some((
                gather_source(GATHER_PROBES),
                vec![Value::Int(GATHER_PROBES as i64)],
            )),
            Workload::ColdCompile => None,
        };
        let mut bench = Bench {
            workload,
            oracle,
            fixed: None,
            variants: Variants::new(seed),
            clients: ClientOrder {
                rng: Rng::new(seed ^ 0xC11E),
                pending: None,
            },
            next_op: 0,
            largest_shape: Vec::new(),
        };
        if let Some((source, args)) = fixed {
            let program = pods::compile(&source).map_err(|e| format!("compile: {e}"))?;
            let expected = bench.run_oracle(&program, &args)?;
            bench.fixed = Some(FixedJob {
                source,
                args,
                expected,
            });
        }
        Ok(bench)
    }

    fn run_oracle(
        &mut self,
        program: &pods::CompiledProgram,
        args: &[Value],
    ) -> Result<EngineOutcome, String> {
        let expected = self
            .oracle
            .run(program, args)
            .map_err(|e| format!("oracle: {e}"))?;
        for a in &expected.arrays {
            if a.values.len() > self.largest_shape.iter().product() {
                self.largest_shape = a.shape.dims().to_vec();
            }
        }
        Ok(expected)
    }

    /// The shape of the largest array the workload's programs allocate.
    pub fn largest_shape(&self) -> &[usize] {
        &self.largest_shape
    }

    /// Builds a runtime (native, `WORKERS` workers, default chunk and
    /// specialize settings), compiles, prepares and warms up. Returns the
    /// warmed-up runtime and the set-up time in seconds, not counting the
    /// oracle.
    pub fn setup(&mut self, traced: bool) -> Result<(Warm, f64), String> {
        let start = Instant::now();
        let mut oracle_s = 0.0;
        let mut config = Runtime::builder(EngineKind::Native).workers(WORKERS);
        if traced {
            let ring = match self.workload {
                Workload::SimpleMesh => SIMPLE_TRACE_BUFFER,
                _ => SMALL_TRACE_BUFFER,
            };
            config = config.trace(TraceConfig::new().buffer_size(ring));
        }
        let epoch = Instant::now();
        let runtime = config.build();
        let prepared = match &self.fixed {
            Some(job) => {
                let program = pods::compile(&job.source).map_err(|e| format!("compile: {e}"))?;
                let prepared = runtime.prepare(&program);
                let warmups = match self.workload {
                    Workload::SimpleMesh => SIMPLE_WARMUPS,
                    _ => GATHER_WARMUPS,
                };
                for _ in 0..warmups {
                    let out = runtime
                        .run(&prepared, &job.args)
                        .map_err(|e| format!("warm-up: {e}"))?;
                    if !agrees(&job.expected, &out) {
                        return Err("warm-up result disagrees with the oracle".into());
                    }
                }
                Some(prepared)
            }
            None => {
                for _ in 0..COLD_WARMUPS {
                    let variant = self.variants.next_variant();
                    let program =
                        pods::compile(&variant.source).map_err(|e| format!("compile: {e}"))?;
                    let prepared = runtime.prepare(&program);
                    let out = runtime
                        .run(&prepared, &variant.args)
                        .map_err(|e| format!("warm-up: {e}"))?;
                    let t = Instant::now();
                    let expected = self.run_oracle(&program, &variant.args)?;
                    oracle_s += t.elapsed().as_secs_f64();
                    if !agrees(&expected, &out) {
                        return Err("warm-up result disagrees with the oracle".into());
                    }
                }
                None
            }
        };
        let setup_s = start.elapsed().as_secs_f64() - oracle_s;
        Ok((
            Warm {
                runtime,
                prepared,
                epoch,
            },
            setup_s,
        ))
    }

    /// Runs the workload's closed loop on `warm` until `window` has
    /// passed, recording spans into `spans` when it is on.
    pub fn measure(&mut self, warm: &Warm, window: Duration, spans: &mut Spans) -> Measured {
        let deadline = Instant::now() + window;
        match self.workload {
            Workload::SimpleMesh => self.one_in_flight(warm, deadline, spans),
            Workload::GatherBurst => self.burst(warm, deadline, spans),
            Workload::ColdCompile => self.cold(warm, deadline, spans),
        }
    }

    fn one_in_flight(&mut self, warm: &Warm, deadline: Instant, spans: &mut Spans) -> Measured {
        let job = self.fixed.as_ref().expect("fixed-program workload");
        let prepared = warm.prepared.as_ref().expect("prepared in set-up");
        let (mut ops, mut busy) = (Vec::new(), Duration::ZERO);
        while Instant::now() < deadline {
            self.next_op += 1;
            let op = self.next_op;
            let start = Instant::now();
            let (handle, submit_us) =
                spans.time("submit", op, || warm.runtime.submit(prepared, &job.args));
            let outcome = match handle {
                Ok(h) => spans.time("wait", op, || h.wait()).0,
                Err(e) => Err(e),
            };
            let latency = start.elapsed();
            busy += latency;
            let (ok, _) = spans.time("check", op, || {
                outcome.as_ref().is_ok_and(|o| agrees(&job.expected, o))
            });
            ops.push(Op::new(latency, submit_us, &outcome, ok));
        }
        Measured {
            ops,
            busy_s: busy.as_secs_f64(),
        }
    }

    fn burst(&mut self, warm: &Warm, deadline: Instant, spans: &mut Spans) -> Measured {
        let prepared = warm.prepared.as_ref().expect("prepared in set-up");
        let job = self.fixed.as_ref().expect("fixed-program workload");
        let start = Instant::now();
        let mut in_flight: Vec<(u64, Instant, f64, Result<JobHandle, PodsError>)> = Vec::new();
        let mut ops = Vec::new();
        loop {
            while in_flight.len() < GATHER_IN_FLIGHT && Instant::now() < deadline {
                self.next_op += 1;
                let op = self.next_op;
                let client = self.clients.next_client();
                let submitted = Instant::now();
                let (handle, submit_us) = spans.time("submit", op, || {
                    warm.runtime.submit_for(client, prepared, &job.args)
                });
                in_flight.push((op, submitted, submit_us, handle));
            }
            if in_flight.is_empty() {
                break;
            }
            // The fair queue reorders the two clients' jobs, so collect
            // whichever job is done first: each op's clock stops when its own
            // completion is seen, not at that of a job submitted before it.
            let Some(i) = in_flight
                .iter()
                .position(|(.., h)| h.as_ref().map_or(true, JobHandle::is_done))
            else {
                // Poll with short sleeps: on a 2-core host, a generator
                // spinning on `yield_now` took the workers' CPU and cut
                // throughput by 16-29%.
                std::thread::sleep(POLL_INTERVAL);
                continue;
            };
            let (op, submitted, submit_us, handle) = in_flight.remove(i);
            let latency = submitted.elapsed();
            let outcome = match handle {
                Ok(h) => spans.time("wait", op, || h.wait()).0,
                Err(e) => Err(e),
            };
            let (ok, _) = spans.time("check", op, || {
                outcome.as_ref().is_ok_and(|o| agrees(&job.expected, o))
            });
            ops.push(Op::new(latency, submit_us, &outcome, ok));
        }
        Measured {
            ops,
            // Jobs stay in flight during every check, so the whole loop is
            // busy time.
            busy_s: start.elapsed().as_secs_f64(),
        }
    }

    fn cold(&mut self, warm: &Warm, deadline: Instant, spans: &mut Spans) -> Measured {
        let (mut ops, mut busy) = (Vec::new(), Duration::ZERO);
        while Instant::now() < deadline {
            let variant = self.variants.next_variant();
            self.next_op += 1;
            let op = self.next_op;
            let start = Instant::now();
            let (compiled, _) = spans.time("compile", op, || pods::compile(&variant.source));
            let mut submit_us = 0.0;
            let outcome = match &compiled {
                Ok(program) => {
                    let (prepared, _) = spans.time("prepare", op, || warm.runtime.prepare(program));
                    let (handle, us) = spans.time("submit", op, || {
                        warm.runtime.submit(&prepared, &variant.args)
                    });
                    submit_us = us;
                    match handle {
                        Ok(h) => spans.time("wait", op, || h.wait()).0,
                        Err(e) => Err(e),
                    }
                }
                Err(e) => Err(e.clone()),
            };
            let latency = start.elapsed();
            busy += latency;
            let ok = match (&compiled, &outcome) {
                (Ok(program), Ok(got)) => {
                    let (expected, _) =
                        spans.time("oracle", op, || self.run_oracle(program, &variant.args));
                    expected.is_ok_and(|e| agrees(&e, got))
                }
                _ => false,
            };
            ops.push(Op::new(latency, submit_us, &outcome, ok));
        }
        Measured {
            ops,
            busy_s: busy.as_secs_f64(),
        }
    }

    /// Sources for the traced run's front-end and prepare passes: the fixed
    /// program `reps` times, or the next `reps` variants.
    pub fn layer_sources(&mut self, reps: usize) -> Vec<String> {
        match &self.fixed {
            Some(job) => vec![job.source.clone(); reps],
            None => (0..reps)
                .map(|_| self.variants.next_variant().source)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_are_unique_and_seeded() {
        let take = |seed| {
            let mut v = Variants::new(seed);
            (0..20).map(|_| v.next_variant().source).collect::<Vec<_>>()
        };
        let a = take(1);
        assert_eq!(a, take(1));
        assert_ne!(a, take(2));
        let mut unique = a.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), a.len());
        for src in &a {
            pods::compile(src).expect("variant compiles");
        }
    }

    #[test]
    fn perturbation_skips_comments_identifiers_and_zero() {
        let src = "# 1.5 stays\nx1 = 2.5 + 0.0 + 3;";
        assert_eq!(perturb_floats(src, 2.0), "# 1.5 stays\nx1 = 5.0 + 0.0 + 3;");
    }

    #[test]
    fn clients_alternate_in_pairs() {
        let mut order = ClientOrder {
            rng: Rng::new(3),
            pending: None,
        };
        let ids: Vec<u64> = (0..40).map(|_| order.next_client().0).collect();
        assert!(ids.chunks(2).all(|p| p[0] != p[1]));
    }
}
