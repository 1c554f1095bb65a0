//! **Table 2** — performance-model prediction errors.
//!
//! For each of the seven evaluation models: fit the performance model from
//! the profiler's sampled runs, then predict ~20 *unseen* configurations
//! (4 plan families × up to 5 resource allocations/placements) and report
//! the average and maximum relative error against the testbed's measured
//! throughput. "/" marks plan families that are OOM-infeasible for that
//! model (as in the paper's table). The computation lives in
//! `rubick_bench::table2`.
//!
//! ```sh
//! cargo run --release -p rubick-bench --bin exp_table2
//! ```

use rubick_bench::std_oracle;
use rubick_bench::table2::{overall_mean, table2};

fn main() {
    println!("Table 2: performance prediction errors (fit on profiled samples, predict unseen configs)\n");
    let rows = table2(&std_oracle());
    for row in &rows {
        let cells = match &row.cells {
            Ok(cells) => cells,
            Err(e) => {
                println!("{:<14} profiling failed: {e}", row.model);
                continue;
            }
        };
        print!("{:<14} |", row.model);
        for cell in cells {
            match cell.errors {
                Some((avg, max)) => print!(
                    " {:<16} avg {:>5.2}% max {:>5.2}% |",
                    cell.family,
                    avg * 100.0,
                    max * 100.0
                ),
                None => print!(" {:<16} {:>23} |", cell.family, "/"),
            }
        }
        println!();
    }
    println!(
        "\noverall mean of family-average errors: {:.2}% \
         (paper: averages up to 7.4%, maxima up to 10.4%)",
        overall_mean(&rows) * 100.0
    );
}
