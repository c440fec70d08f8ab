//! Edge-operand fuzzing of the shared instruction core, differentially
//! across all four engines.
//!
//! Each property drives one template program with adversarial operand
//! values — division by and near zero, `i64::MIN`/`i64::MAX`, negative and
//! empty and out-of-range loop bounds feeding the Range Filters,
//! zero/negative array dimensions, NaN/±inf/−0.0 floats, booleans and unit
//! where numbers are expected — through every registered engine on one and
//! three workers, and asserts that all of them agree with the sequential
//! oracle: same success/error class, and on success bit-identical values
//! (NaN compared as NaN).
//!
//! This suite is what forced the shared core's divergence fixes: the
//! Range-Filter edge-extension rule (out-of-range iterations must fault
//! like the oracle instead of being silently clamped away), wrapping
//! integer division/remainder/negation (`i64::MIN / -1` used to panic the
//! executing worker thread), and the non-boolean branch error.

use pods::{
    ChunkPolicy, CompiledProgram, EngineKind, EngineOutcome, PodsError, Runtime, SimulationError,
    Value,
};
use proptest::prelude::*;
use std::sync::LazyLock;

/// Adversarial operand values, indexed by the fuzzed case.
const EDGES: &[Value] = &[
    Value::Int(0),
    Value::Int(1),
    Value::Int(-1),
    Value::Int(3),
    Value::Int(-7),
    Value::Int(i64::MAX),
    Value::Int(i64::MIN),
    Value::Int(i64::MIN + 1),
    Value::Float(0.0),
    Value::Float(-0.0),
    Value::Float(1.5),
    Value::Float(-2.5),
    Value::Float(f64::NAN),
    Value::Float(f64::INFINITY),
    Value::Float(f64::NEG_INFINITY),
    Value::Float(f64::MIN_POSITIVE),
    Value::Bool(true),
    Value::Bool(false),
    Value::Unit,
];

/// One long-lived runtime per (engine kind, worker count, chunk grain,
/// specialization): the native worker pool is reused across every fuzz
/// case instead of being spawned per case. The grain sweep
/// (1 = unchunked, a fixed 4, auto-tuned) pins the chunk driver — including
/// its chunk-aware Range-Filter re-evaluation — to the oracle on every
/// adversarial operand, and the specialize sweep does the same for super-op
/// dispatch (wrapping div, RF faulting, and non-boolean branches must
/// behave identically through fused runs and the plain interpreter).
type RuntimeCase = (EngineKind, usize, ChunkPolicy, bool, Runtime);

static RUNTIMES: LazyLock<Vec<RuntimeCase>> = LazyLock::new(|| {
    let mut out = Vec::new();
    for kind in EngineKind::ALL {
        for workers in [1usize, 3] {
            for chunk in [
                ChunkPolicy::Fixed(1),
                ChunkPolicy::Fixed(4),
                ChunkPolicy::Auto,
            ] {
                for specialize in [true, false] {
                    out.push((
                        kind,
                        workers,
                        chunk,
                        specialize,
                        Runtime::builder(kind)
                            .workers(workers)
                            .chunk_policy(chunk)
                            .specialize(specialize)
                            .build(),
                    ));
                }
            }
        }
    }
    out
});

/// The oracle: the sequential interpreter on default options.
static ORACLE: LazyLock<Runtime> = LazyLock::new(|| Runtime::builder(EngineKind::Seq).build());

/// Coarse outcome classes for error agreement. The parallel engines report
/// a read of a never-written element as an exact *deadlock* (nothing can
/// ever deliver the operand), which the sequential oracle — with no
/// parallelism to wait on — reports eagerly as a read-before-write error;
/// the two are the same program defect, so they share a class. Every other
/// error (arithmetic, bounds, zero-dimension allocation, single
/// assignment) is one class, and success is its own.
fn classify(result: &Result<EngineOutcome, PodsError>) -> &'static str {
    match result {
        Ok(_) => "ok",
        Err(PodsError::Simulation(SimulationError::Deadlock { .. })) => "stuck",
        Err(PodsError::Baseline(e)) if e.to_string().contains("read before") => "stuck",
        Err(_) => "error",
    }
}

/// Value equality with NaN treated as equal to NaN (bit-identical floats
/// otherwise — every engine runs the same `eval` code, so even rounding
/// must agree to the last bit).
fn values_agree(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        }
        _ => a == b,
    }
}

fn cells_agree(a: &Option<Value>, b: &Option<Value>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => values_agree(x, y),
        (None, None) => true,
        _ => false,
    }
}

/// Runs `program(args)` on every engine and asserts full agreement with
/// the sequential oracle.
fn assert_all_engines_agree(label: &str, program: &CompiledProgram, args: &[Value]) {
    let oracle = ORACLE.run(program, args);
    let oracle_class = classify(&oracle);
    for (kind, workers, chunk, spec, runtime) in RUNTIMES.iter() {
        let outcome = runtime.run(program, args);
        let class = classify(&outcome);
        assert_eq!(
            class, oracle_class,
            "{label}: engine `{kind}` on {workers} workers (chunk {chunk}, spec {spec}) diverged: \
             {outcome:?} vs oracle {oracle:?}"
        );
        let (Ok(outcome), Ok(oracle)) = (&outcome, &oracle) else {
            continue;
        };
        match (&oracle.return_value, &outcome.return_value) {
            // Array identities may differ across engines; the arrays
            // themselves are compared below by name.
            (Some(Value::ArrayRef(_)), Some(Value::ArrayRef(_))) => {}
            (Some(a), Some(b)) => assert!(
                values_agree(a, b),
                "{label}: engine `{kind}` on {workers} workers (chunk {chunk}, spec {spec}) returned {b}, oracle {a}"
            ),
            (a, b) => assert_eq!(a, b, "{label}: `{kind}`/{workers}/c{chunk}/s{spec}: return presence"),
        }
        assert_eq!(
            oracle.arrays.len(),
            outcome.arrays.len(),
            "{label}: `{kind}`/{workers}/c{chunk}/s{spec}: array count"
        );
        for expected in &oracle.arrays {
            let got = outcome.array(&expected.name).unwrap_or_else(|| {
                panic!(
                    "{label}: `{kind}`/{workers}/c{chunk}/s{spec}: array `{}` missing",
                    expected.name
                )
            });
            assert_eq!(
                expected.shape, got.shape,
                "{label}: `{kind}`/{workers}/c{chunk}/s{spec}"
            );
            for (i, (a, b)) in expected.values.iter().zip(&got.values).enumerate() {
                assert!(
                    cells_agree(a, b),
                    "{label}: `{kind}`/{workers}/c{chunk}/s{spec}: `{}`[{i}] = {b:?}, oracle {a:?}",
                    expected.name
                );
            }
        }
    }
}

static ARITH: LazyLock<CompiledProgram> = LazyLock::new(|| {
    pods::compile(
        "def main(a, b) {
             s = a + b;
             d = a - b;
             p = a * b;
             m = if a < b then a else b;
             return ((s - d) + p) - m;
         }",
    )
    .unwrap()
});

static DIVREM: LazyLock<CompiledProgram> =
    LazyLock::new(|| pods::compile("def main(a, b) { return a / b + a % b; }").unwrap());

static UNARY: LazyLock<CompiledProgram> =
    LazyLock::new(|| pods::compile("def main(a) { return (0 - a) + abs(a); }").unwrap());

static FILL: LazyLock<CompiledProgram> = LazyLock::new(|| {
    pods::compile("def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i * 3; } return a; }")
        .unwrap()
});

static RF_ASC: LazyLock<CompiledProgram> = LazyLock::new(|| {
    pods::compile(
        "def main(lo, hi) { a = array(8); for i = lo to hi { a[i] = i + 40; } return 0; }",
    )
    .unwrap()
});

static RF_DESC: LazyLock<CompiledProgram> = LazyLock::new(|| {
    pods::compile(
        "def main(lo, hi) { a = array(8); for i = hi downto lo { a[i] = i * 2; } return 0; }",
    )
    .unwrap()
});

static RF_INNER: LazyLock<CompiledProgram> = LazyLock::new(|| {
    // The outer level carries a dependency (row i reads row i-1), so the
    // *inner* level is the distributed one: its Range Filter runs at dim 1
    // and consults the fuzzed outer row — including rows past the matrix.
    pods::compile(
        "def main(n, m) {
             a = matrix(4, 4);
             for j = 0 to 3 { a[0, j] = j * 2; }
             for i = 1 to n { for j = 0 to m { a[i, j] = a[i - 1, j] + 1; } }
             return 0;
         }",
    )
    .unwrap()
});

static BITS: LazyLock<CompiledProgram> = LazyLock::new(|| {
    pods::compile(
        "def main(x) {
             a = array(3);
             a[0] = x;
             a[1] = x * 1.0;
             a[2] = x + 0.0;
             return a;
         }",
    )
    .unwrap()
});

/// Exhaustive (not sampled) sweep of every edge-value pair through the
/// division template: the pairs that matter most — `i64::MIN / -1`,
/// division by `0`, by `-0.0`, by NaN — must not depend on sampler luck.
#[test]
fn division_edge_pairs_exhaustive() {
    for a in EDGES {
        for b in EDGES {
            assert_all_engines_agree(&format!("divrem!({a}, {b})"), &DIVREM, &[*a, *b]);
        }
    }
}

proptest! {
    /// Wrapping arithmetic, mixed promotion, NaN comparisons: identical
    /// results (to the bit) or identical error classes on all engines.
    #[test]
    fn arithmetic_agrees_on_edge_operands(ai in 0usize..EDGES.len(), bi in 0usize..EDGES.len()) {
        let args = [EDGES[ai], EDGES[bi]];
        assert_all_engines_agree(&format!("arith({}, {})", args[0], args[1]), &ARITH, &args);
    }

    /// Division by and near zero — including `i64::MIN / -1`, which used to
    /// panic the executing worker thread and poison the whole pool.
    #[test]
    fn division_agrees_on_edge_operands(ai in 0usize..EDGES.len(), bi in 0usize..EDGES.len()) {
        let args = [EDGES[ai], EDGES[bi]];
        assert_all_engines_agree(&format!("divrem({}, {})", args[0], args[1]), &DIVREM, &args);
    }

    /// Negation / absolute value on extremes (wrapping at `i64::MIN`).
    #[test]
    fn unary_agrees_on_edge_operands(ai in 0usize..EDGES.len()) {
        let args = [EDGES[ai]];
        assert_all_engines_agree(&format!("unary({})", args[0]), &UNARY, &args);
    }

    /// Zero, negative, and non-integer array dimensions, and normal fills.
    #[test]
    fn allocation_agrees_on_edge_sizes(n in -4i64..20) {
        assert_all_engines_agree(&format!("fill({n})"), &FILL, &[Value::Int(n)]);
    }

    /// Negative, empty, reversed, and out-of-range bounds through the
    /// Range Filters of a distributed ascending loop: the filter must
    /// partition the source range (out-of-range iterations fault like the
    /// oracle) and never truncate it.
    #[test]
    fn range_filter_bounds_agree_ascending(lo in -4i64..12, hi in -4i64..12) {
        assert_all_engines_agree(
            &format!("rf_asc({lo}, {hi})"),
            &RF_ASC,
            &[Value::Int(lo), Value::Int(hi)],
        );
    }

    /// The same bounds sweep for a descending (`downto`) loop, whose Range
    /// Filters swap roles (the initial bound goes through RangeHi).
    #[test]
    fn range_filter_bounds_agree_descending(lo in -4i64..12, hi in -4i64..12) {
        assert_all_engines_agree(
            &format!("rf_desc({lo}, {hi})"),
            &RF_DESC,
            &[Value::Int(lo), Value::Int(hi)],
        );
    }

    /// Inner-dimension Range Filters (dim 1, consulting the outer row):
    /// out-of-range *rows* and out-of-range *column* bounds must both
    /// fault like the oracle — an invalid row has no owning PE, so its
    /// iteration space is handed whole to one edge PE instead of being
    /// silently clamped to empty everywhere.
    #[test]
    fn inner_range_filter_bounds_agree(n in -2i64..7, m in -2i64..7) {
        assert_all_engines_agree(
            &format!("rf_inner({n}, {m})"),
            &RF_INNER,
            &[Value::Int(n), Value::Int(m)],
        );
    }

    /// Float payloads — NaN, ±inf, −0.0 — stored through the I-structure
    /// and read back: bit-identical on every engine.
    #[test]
    fn float_bit_patterns_survive_every_store_path(xi in 0usize..EDGES.len()) {
        let args = [EDGES[xi]];
        assert_all_engines_agree(&format!("bits({})", args[0]), &BITS, &args);
    }
}
