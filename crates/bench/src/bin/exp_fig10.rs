//! **Figure 10** — performance vs. cluster load: Rubick vs. Synergy under
//! different trace down-sampling rates (load factors), reporting average
//! JCT and makespan improvements.
//!
//! Runs the committed `examples/sweeps/fig10.toml`, so every row matches
//! `rubick sweep examples/sweeps/fig10.toml`.
//!
//! ```sh
//! cargo run --release -p rubick-bench --bin exp_fig10
//! ```

use rubick_bench::{hours, run_sweep};

fn main() {
    eprintln!("[fig10] running examples/sweeps/fig10.toml...");
    let (_, outcomes) = run_sweep(include_str!("../../../../examples/sweeps/fig10.toml"));
    let cell = |scheduler: &str, load: f64| {
        &outcomes
            .iter()
            .find(|o| o.spec.scheduler == scheduler && o.spec.load == load)
            .expect("fig10.toml crosses both schedulers with every load")
            .report
    };

    println!("Figure 10: performance vs. cluster load (Rubick vs. Synergy)\n");
    println!(
        "{:>5} | {:>8} | {:>12} {:>12} {:>8} | {:>12} {:>12} {:>8}",
        "load", "finished", "rubick JCT", "synergy JCT", "gain", "rubick mk", "synergy mk", "gain"
    );
    println!("{}", "-".repeat(95));
    for outcome in outcomes.iter().filter(|o| o.spec.scheduler == "rubick") {
        let load = outcome.spec.load;
        let (rubick, synergy) = (&outcome.report, cell("synergy", load));
        println!(
            "{load:>5} | {:>3}/{:<4} | {:>11.2}h {:>11.2}h {:>7.2}x | {:>11.2}h {:>11.2}h {:>7.2}x",
            rubick.jobs.len(),
            synergy.jobs.len(),
            hours(rubick.avg_jct()),
            hours(synergy.avg_jct()),
            synergy.avg_jct() / rubick.avg_jct().max(1e-9),
            hours(rubick.makespan),
            hours(synergy.makespan),
            synergy.makespan / rubick.makespan.max(1e-9),
        );
    }
    println!(
        "\nShape check (paper): Rubick wins at every load, with larger JCT gains\n\
         at higher loads (paper: up to 3.5x JCT, 1.4x makespan)."
    );
}
