//! Figure 8 of the paper: average utilization of each functional unit
//! (EU, MU, MM, AM, RU) for SIMPLE 16x16 as the number of PEs grows.

use pods::{report, EngineKind};

fn main() {
    let program = pods_bench::compile_simple();
    let n = 16;
    println!("Figure 8: functional-unit utilization, SIMPLE {n}x{n}");
    println!("{}", report::utilization_header());
    for pes in pods_bench::pe_counts() {
        let outcome = pods_bench::run_simple(EngineKind::Sim, &program, n, pes);
        let stats = outcome.simulation_stats().expect("simulated run");
        println!("{}", report::utilization_row(pes, stats));
    }
    println!();
    println!("paper shape: the Execution Unit dominates every other unit at all machine sizes,");
    println!("so no specialised hardware support is needed for the supporting units.");
}
