//! The Pingali & Rogers static-compilation estimator engine.

use super::seq::{baseline_snapshots, interpret};
use super::{EngineKind, EngineOutcome, EngineStats};
use crate::error::PodsError;
use crate::pipeline::{CompiledProgram, RunOptions};
use pods_baseline::PrModel;
use pods_istructure::Value;
use std::time::Instant;

/// Models the execution of the program under a statically-scheduled,
/// bulk-synchronous SPMD system (the "P&R" comparator of Figure 10). The
/// estimate is driven by a real sequential run, so the outcome carries the
/// oracle's arrays and return value together with the modelled parallel
/// time on `opts.num_pes` PEs.
pub(crate) fn run(
    program: &CompiledProgram,
    args: &[Value],
    opts: &RunOptions,
) -> Result<EngineOutcome, PodsError> {
    let start = Instant::now();
    let run = interpret(program, args, opts)?;
    let point = PrModel::default().estimate(&run, opts.num_pes);
    let wall_us = start.elapsed().as_secs_f64() * 1e6;
    Ok(EngineOutcome {
        engine: EngineKind::Pr.name(),
        return_value: run.return_value,
        arrays: baseline_snapshots(&run),
        modelled_us: Some(point.elapsed_us),
        wall_us,
        stats: EngineStats::Estimated { point },
        diagnostics: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compile;

    #[test]
    fn estimate_speeds_up_parallel_loops() {
        let program = compile(
            r#"
            def main(n) {
                a = matrix(n, n);
                for i = 0 to n - 1 {
                    for j = 0 to n - 1 { a[i, j] = sqrt(i * 1.0) + j; }
                }
                return a;
            }
            "#,
        )
        .unwrap();
        let one = run(&program, &[Value::Int(32)], &RunOptions::with_pes(1)).unwrap();
        let eight = run(&program, &[Value::Int(32)], &RunOptions::with_pes(8)).unwrap();
        assert!(eight.modelled_us.unwrap() < one.modelled_us.unwrap());
        assert!(matches!(
            eight.stats,
            EngineStats::Estimated { point } if point.speedup > 1.0
        ));
        // The estimate rides on a real sequential run, so arrays are real.
        assert!(eight.returned_array().unwrap().is_complete());
    }
}
