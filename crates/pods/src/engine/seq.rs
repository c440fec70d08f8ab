//! The sequential-interpreter engine (the correctness oracle).

use super::{EngineKind, EngineOutcome, EngineStats};
use crate::error::PodsError;
use crate::pipeline::{CompiledProgram, RunOptions};
use pods_baseline::{run_sequential_bounded, SequentialRun};
use pods_istructure::{ArrayId, Value};
use pods_machine::{ArraySnapshot, SimulationError, TimingModel};
use std::time::Instant;

/// Executes the program with the control-driven sequential interpreter
/// ([`pods_baseline::run_sequential`]) — no SPs, no I-structure run-time,
/// just program order with the iPSC/2 cost model. The differential tests use
/// this engine as the oracle the parallel engines must agree with.
pub(crate) fn run(
    program: &CompiledProgram,
    args: &[Value],
    opts: &RunOptions,
) -> Result<EngineOutcome, PodsError> {
    let start = Instant::now();
    let run = interpret(program, args, opts)?;
    let wall_us = start.elapsed().as_secs_f64() * 1e6;
    Ok(EngineOutcome {
        engine: EngineKind::Seq.name(),
        return_value: run.return_value,
        arrays: baseline_snapshots(&run),
        modelled_us: Some(run.elapsed_us),
        wall_us,
        stats: EngineStats::Sequential {
            nests: run.nests.len(),
            serial_us: run.serial_us,
        },
        diagnostics: None,
    })
}

/// Interprets the program under `opts.max_events`, mapping the
/// interpreter's step-budget exhaustion onto the engines' shared
/// event-limit error, so `RunOptions::max_events` reports uniformly across
/// `sim`, `native`, `seq`, and `pr`.
pub(crate) fn interpret(
    program: &CompiledProgram,
    args: &[Value],
    opts: &RunOptions,
) -> Result<SequentialRun, PodsError> {
    let limit = opts.max_events;
    run_sequential_bounded(program.hir(), args, &TimingModel::default(), limit).map_err(|err| {
        if err.is_step_limit() {
            PodsError::Simulation(SimulationError::EventLimitExceeded { limit })
        } else {
            PodsError::Baseline(err)
        }
    })
}

/// Converts the interpreter's array states into the uniform snapshot form.
pub(crate) fn baseline_snapshots(run: &SequentialRun) -> Vec<ArraySnapshot> {
    run.arrays
        .iter()
        .enumerate()
        .map(|(i, a)| ArraySnapshot {
            id: ArrayId(i),
            name: a.name.clone(),
            shape: a.shape.clone(),
            values: a.values.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compile;

    #[test]
    fn sequential_outcome_exposes_arrays_and_profile() {
        let program =
            compile("def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i * 2; } return a; }")
                .unwrap();
        let outcome = run(&program, &[Value::Int(6)], &RunOptions::default()).unwrap();
        assert_eq!(
            outcome.returned_array().unwrap().get(&[5]),
            Some(Value::Int(10))
        );
        assert!(outcome.modelled_us.unwrap() > 0.0);
        assert!(matches!(
            outcome.stats,
            EngineStats::Sequential { nests: 1, .. }
        ));
        assert!(outcome.partition().is_none());
    }

    #[test]
    fn runtime_errors_surface_as_baseline_errors() {
        let program = compile("def main(n) { a = array(n); return a[0]; }").unwrap();
        let err = run(&program, &[Value::Int(3)], &RunOptions::default()).unwrap_err();
        assert!(matches!(err, PodsError::Baseline(_)), "{err}");
    }

    #[test]
    fn max_events_is_enforced_as_a_statement_budget() {
        let program =
            compile("def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i; } return a; }")
                .unwrap();
        let opts = RunOptions {
            max_events: 4,
            ..RunOptions::default()
        };
        let err = run(&program, &[Value::Int(64)], &opts).unwrap_err();
        assert!(
            matches!(
                err,
                PodsError::Simulation(pods_machine::SimulationError::EventLimitExceeded {
                    limit: 4
                })
            ),
            "{err}"
        );
        // Unlimited by default.
        assert!(run(&program, &[Value::Int(64)], &RunOptions::default()).is_ok());
    }
}
