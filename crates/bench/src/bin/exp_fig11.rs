//! **Figure 11** — performance vs. the proportion of large models
//! (LLaMA-2-7B / LLaMA-30B) in the trace: Rubick vs. Synergy.
//!
//! Reconfigurability widens the feasible resource range of large models —
//! they can start early on few GPUs (ZeRO-Offload / GC) instead of
//! gang-waiting — so Rubick's advantage should *grow* with the large-model
//! fraction (paper: 2.6x -> 3.4x).
//!
//! Runs the committed `examples/sweeps/fig11.toml`, so every row matches
//! `rubick sweep examples/sweeps/fig11.toml`.
//!
//! ```sh
//! cargo run --release -p rubick-bench --bin exp_fig11
//! ```

use rubick_bench::{hours, run_sweep};

fn main() {
    eprintln!("[fig11] running examples/sweeps/fig11.toml...");
    let (_, outcomes) = run_sweep(include_str!("../../../../examples/sweeps/fig11.toml"));
    let cell = |scheduler: &str, frac: Option<f64>| {
        &outcomes
            .iter()
            .find(|o| o.spec.scheduler == scheduler && o.spec.large_frac == frac)
            .expect("fig11.toml crosses both schedulers with every fraction")
            .report
    };

    println!("Figure 11: performance vs. large-model fraction (Rubick vs. Synergy)\n");
    println!(
        "{:>10} | {:>8} | {:>12} | {:>12} | {:>8}",
        "large frac", "finished", "rubick JCT", "synergy JCT", "JCT gain"
    );
    println!("{}", "-".repeat(64));
    let mut gains = Vec::new();
    for outcome in outcomes.iter().filter(|o| o.spec.scheduler == "rubick") {
        let frac = outcome.spec.large_frac;
        let (rubick, synergy) = (&outcome.report, cell("synergy", frac));
        let gain = synergy.avg_jct() / rubick.avg_jct().max(1e-9);
        gains.push(gain);
        println!(
            "{:>10} | {:>3}/{:<4} | {:>11.2}h | {:>11.2}h | {gain:>7.2}x",
            frac.expect("fig11.toml sets large_frac on every cell"),
            rubick.jobs.len(),
            synergy.jobs.len(),
            hours(rubick.avg_jct()),
            hours(synergy.avg_jct()),
        );
    }
    let trend = if gains.last() > gains.first() {
        "GROWS"
    } else {
        "does NOT grow"
    };
    println!(
        "\nShape check (paper): the JCT gain {trend} with the large-model share\n\
         (paper: 2.6x at the default mix up to 3.4x)."
    );
}
