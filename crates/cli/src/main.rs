//! `rubick` — command-line interface for the Rubick reproduction.
//!
//! ```text
//! rubick run     --scheduler rubick --trace base --jobs 406 --load 1.0
//! rubick plans   --model gpt2-1.5b --gpus 8
//! rubick profile --model llama2-7b
//! rubick trace   --jobs 50 --seed 7 --csv
//! rubick compare --jobs 120
//! rubick sweep   examples/sweeps/table4.toml --parallelism auto
//! ```
//!
//! Everything runs against the deterministic simulated testbed — no GPUs
//! required. See `rubick help` for all commands and flags.

mod args;
mod commands;
mod output;

use args::Args;
use std::process::ExitCode;

/// Top-level usage text.
fn usage() -> &'static str {
    "rubick — reconfigurable DL cluster scheduling (paper reproduction)

USAGE:
    rubick <COMMAND> [FLAGS]

COMMANDS:
    run       Run a workload trace through one scheduler and report JCT stats
    compare   Run the same trace through every scheduler side by side
    sweep     Run a declarative scenario grid from a spec file (one CSV row
              per cell; see examples/sweeps/ and EXPERIMENTS.md)
    serve     Run a long-lived scheduling session: accept streaming job
              submissions/cancellations over NDJSON (stdin or TCP) with an
              optional write-ahead session log for crash recovery
    plans     List feasible execution plans for a model on a GPU count
    profile   Profile a model type and show the fitted performance model
    trace     Generate a synthetic trace and print a summary (or CSV)
    help      Show this message

COMMON FLAGS:
    --seed <u64>         Oracle/trace seed (default 2025)
    --csv                Machine-readable output where supported

RUN / COMPARE FLAGS:
    --scheduler <name>   rubick|rubick-e|rubick-r|rubick-n|sia|synergy|antman|equal
    --trace <name>       base|bp|mt (default base)
    --jobs <usize>       Jobs at load 1.0 (default 406)
    --load <f64>         Load factor (default 1.0)
    --large-frac <f64>   Override the large-model fraction of the mix
    --log-level <lvl>    Stderr progress verbosity: error|info|debug
                         (default info; stdout output is unaffected)
    --verbose            (run) print the full decision log
    --events <path>      (run) stream every simulation event to <path> as
                         JSON Lines (one event per line, buffered through a
                         background writer thread)
    --progress           (run) live progress line on stderr (running/queued/
                         finished counts) while the simulation executes
    --chaos <path>       Inject faults from a chaos config file: node
                         failures/recoveries, straggler slowdowns, transient
                         launch failures, restart penalties (see DESIGN.md
                         §10 for the format); adds a degraded-mode summary
    --chaos-seed <u64>   Override the seed in the chaos config (requires
                         --chaos); same seed = identical fault timeline
    --refit              Refit each job's throughput model online from the
                         observed iteration times; a material shift bumps
                         the registry version and re-plans affected jobs
                         next round (run/compare/serve; off by default —
                         without it results are byte-identical to before)
    --refit-threshold <f64>
                         Material-change threshold for --refit: the relative
                         envelope shift that publishes a refit (default 0.15)
    --util-timeline <path>
                         (run) write a per-round cluster-utilization
                         timeline to <path> as JSON Lines (busy/up/total
                         GPUs and the utilization fraction per round)

SERVE:
    rubick serve [--scheduler <name>] [--seed <u64>] [--nodes <n>]
                 [--log <path>] [--events <path>] [--echo-events]
                 [--listen <addr>] [--tick-ms <ms>] [--time-scale <f64>]
                 [--refit] [--refit-threshold <f64>] [--snapshot-bytes <n>]
    Reads NDJSON ops (submit/cancel/advance/status/snapshot/shutdown) one
    per line and replies one line per op. --log journals every
    state-changing op write-ahead: restarting with the same flags and an
    existing log recovers the exact session state by deterministic
    replay (a 'snapshot' op compacts the log to bound replay cost).
    --listen serves one TCP connection instead of stdin; --tick-ms
    advances simulation time by tick*time-scale seconds of idle wall
    clock; --echo-events inlines the simulation events each op caused
    before its reply line; --snapshot-bytes auto-compacts the journal
    whenever it outgrows <n> bytes (requires --log), bounding replay
    cost on long sessions without manual snapshot ops.

SWEEP:
    rubick sweep <spec.toml> [--out <csv>] [--jsonl <path>]
                 [--baseline <path>] [--parallelism <n>]
                 [--log-level <lvl>] [--no-timings]
    Expands the spec's [grid] blocks into cells (trace x scheduler x jobs
    x load x large_frac x nodes x chaos_rate x chaos_seed x seed x
    refit), runs
    every cell, and emits one row per cell in grid order.
    --parallelism runs cells on worker threads: 'auto' (all cores) or a
    count (default 1). Each cell's rounds stay on one thread, and output
    is byte-identical at any setting. Without --out the CSV
    goes to stdout; --jsonl additionally writes a JSON-Lines file. Each
    row ends with per-cell wall_ms/mean_round_ns wall-clock columns;
    --no-timings leaves them empty for run-to-run reproducible output.
    --baseline diffs the sweep against a previous run's --out CSV or
    --jsonl file: cells are matched by spec dimensions, metrics compared
    numerically (timing columns ignored), and any changed cell fails the
    command — a per-cell regression gate for CI.

PLANS FLAGS:
    --model <name>       Zoo model name (vit-86m, roberta-355m, bert-336m,
                         t5-1.2b, gpt2-1.5b, llama2-7b, llama-30b)
    --gpus <u32>         GPU count (default 8)
    --batch <u32>        Global batch size (default: model default)
    --env <name>         a800|commodity (default a800)

PROFILE FLAGS:
    --model <name>       Zoo model name

TRACE FLAGS:
    --jobs/--load/--seed as above
"
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    // Only `sweep` takes a positional operand (its spec file); everywhere
    // else a stray token is the parse error it always was.
    if args.command.as_deref() != Some("sweep") {
        if let Some(op) = &args.operand {
            eprintln!("error: unexpected argument '{op}'\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    }
    let result = match args.command.as_deref() {
        Some("run") => commands::run::execute(&args),
        Some("compare") => commands::compare::execute(&args),
        Some("serve") => commands::serve::execute(&args),
        Some("sweep") => commands::sweep::execute(&args),
        Some("plans") => commands::plans::execute(&args),
        Some("profile") => commands::profile::execute(&args),
        Some("trace") => commands::trace::execute(&args),
        Some("help") | None => {
            println!("{}", usage());
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("\nrun `rubick help` for usage");
            ExitCode::FAILURE
        }
    }
}
