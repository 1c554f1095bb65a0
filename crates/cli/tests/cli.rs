//! End-to-end tests for the `rubick` binary (run via
//! `CARGO_BIN_EXE_rubick`, so they exercise the real executable).

use std::process::{Command, Output};

fn rubick(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rubick"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_lists_all_commands() {
    let out = rubick(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for cmd in [
        "run", "compare", "sweep", "serve", "plans", "profile", "trace",
    ] {
        assert!(text.contains(cmd), "help must mention {cmd}");
    }
}

#[test]
fn no_args_prints_usage_successfully() {
    let out = rubick(&[]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
}

#[test]
fn unknown_command_fails_with_hint() {
    let out = rubick(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn unknown_flag_fails_with_name() {
    let out = rubick(&["plans", "--model", "gpt2-1.5b", "--gups", "8"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--gups"));
}

/// Rounds run on one thread, so `run` and `compare` have no in-round
/// `--parallelism`; only `sweep` keeps it, for cell workers.
#[test]
fn run_and_compare_reject_parallelism() {
    for cmd in ["run", "compare"] {
        let out = rubick(&[cmd, "--jobs", "4", "--parallelism", "2"]);
        assert!(!out.status.success(), "{cmd} accepted --parallelism");
        assert!(
            stderr(&out).contains("unknown flag --parallelism"),
            "{cmd} stderr: {}",
            stderr(&out)
        );
    }
}

#[test]
fn plans_lists_feasible_plans_best_first() {
    let out = rubick(&["plans", "--model", "gpt2-1.5b", "--gpus", "4"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("feasible plans"));
    assert!(text.contains("ZeRO-DP4") || text.contains("DP4"));
    assert!(text.contains("(100%)"), "best plan marked 100%");
}

#[test]
fn plans_csv_is_machine_readable() {
    let out = rubick(&["plans", "--model", "roberta-355m", "--gpus", "2", "--csv"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let mut lines = text.lines();
    assert_eq!(
        lines.next(),
        Some("plan,samples_per_s,gpu_mem_gb,host_mem_gb,cpus")
    );
    let first = lines.next().expect("at least one plan");
    assert_eq!(first.split(',').count(), 5);
}

#[test]
fn plans_rejects_unknown_model_listing_options() {
    let out = rubick(&["plans", "--model", "alexnet"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown model"));
    assert!(err.contains("gpt2-1.5b"), "should list valid names: {err}");
}

#[test]
fn plans_reports_infeasible_combinations() {
    // LLaMA-30B cannot run on 2 GPUs in any configuration.
    let out = rubick(&["plans", "--model", "llama-30b", "--gpus", "2"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("no feasible plan"));
}

#[test]
fn trace_csv_has_one_row_per_job() {
    let out = rubick(&["trace", "--jobs", "20", "--seed", "5", "--csv"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].starts_with("id,submit_s,model"));
    assert!(
        lines.len() >= 15,
        "expected ~20 jobs, got {}",
        lines.len() - 1
    );
}

#[test]
fn run_small_trace_reports_stats() {
    let out = rubick(&["run", "--jobs", "15", "--scheduler", "synergy", "--csv"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("scheduler,synergy"));
    assert!(text.contains("unfinished,0"));
    assert!(text.contains("avg_jct_s,"));
}

#[test]
fn run_rejects_unknown_scheduler() {
    let out = rubick(&["run", "--scheduler", "fifo9000", "--jobs", "5"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown scheduler"));
}

#[test]
fn runs_are_deterministic() {
    let a = rubick(&["run", "--jobs", "12", "--seed", "9", "--csv"]);
    let b = rubick(&["run", "--jobs", "12", "--seed", "9", "--csv"]);
    assert!(a.status.success() && b.status.success());
    assert_eq!(stdout(&a), stdout(&b));
}

#[test]
fn invalid_log_level_fails_listing_choices() {
    let out = rubick(&["run", "--jobs", "5", "--log-level", "chatty"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("invalid --log-level 'chatty'"),
        "stderr: {err}"
    );
    assert!(err.contains("error|info|debug"), "stderr: {err}");
}

#[test]
fn log_level_error_silences_progress() {
    let out = rubick(&[
        "run",
        "--jobs",
        "5",
        "--scheduler",
        "synergy",
        "--csv",
        "--log-level",
        "error",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).is_empty(),
        "no progress at level error: {}",
        stderr(&out)
    );
}

#[test]
fn unwritable_events_path_fails_with_path() {
    let out = rubick(&[
        "run",
        "--jobs",
        "5",
        "--events",
        "/nonexistent-dir/events.jsonl",
    ]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("/nonexistent-dir/events.jsonl"),
        "stderr: {err}"
    );
}

#[test]
fn events_stream_parses_and_folds_to_the_printed_report() {
    use rubick_obs::{parse_jsonl_line, EventSink, JsonlLine, SimEvent};
    use rubick_sim::ReportSink;

    let path = std::env::temp_dir().join(format!("rubick-cli-events-{}.jsonl", std::process::id()));
    let path_str = path.to_str().unwrap();
    let out = rubick(&[
        "run",
        "--jobs",
        "12",
        "--seed",
        "9",
        "--scheduler",
        "synergy",
        "--csv",
        "--events",
        path_str,
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // The file leads with the schema header, and every other line parses
    // back into a typed event...
    let text = std::fs::read_to_string(&path).expect("events file written");
    let mut lines = text.lines();
    match parse_jsonl_line(lines.next().expect("nonempty file")) {
        Ok(JsonlLine::Schema(v)) => assert_eq!(v, rubick_obs::SCHEMA_VERSION),
        other => panic!("first line must be the schema header, got {other:?}"),
    }
    let events: Vec<SimEvent> = lines
        .map(|l| match parse_jsonl_line(l).expect("valid JSONL line") {
            JsonlLine::Event(e) => e,
            JsonlLine::Schema(_) => panic!("schema header repeated mid-stream"),
        })
        .collect();
    assert!(!events.is_empty());

    // ...and folding the stream reproduces the metrics the CLI printed.
    let mut fold = ReportSink::new();
    for event in &events {
        fold.on_event(event);
    }
    let report = fold.take_report("synergy");
    let csv = stdout(&out);
    assert!(
        csv.contains(&format!("jobs,{}", report.jobs.len())),
        "{csv}"
    );
    assert!(
        csv.contains(&format!("unfinished,{}", report.unfinished.len())),
        "{csv}"
    );
    assert!(
        csv.contains(&format!("avg_jct_s,{:.1}", report.avg_jct())),
        "{csv}"
    );
    assert!(
        csv.contains(&format!("makespan_s,{:.1}", report.makespan)),
        "{csv}"
    );
    std::fs::remove_file(&path).ok();
}

/// Writes a scripted chaos scenario to a temp file, returning its path.
fn chaos_config(tag: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("rubick-cli-chaos-{tag}-{}.cfg", std::process::id()));
    std::fs::write(
        &path,
        "restart-penalty-secs 90\nstraggle 0 0.6\nfail 1 2000\nrecover 1 9000\n",
    )
    .expect("chaos config written");
    path
}

#[test]
fn chaos_run_reports_degraded_mode_summary() {
    let cfg = chaos_config("run");
    let out = rubick(&[
        "run",
        "--jobs",
        "12",
        "--seed",
        "9",
        "--csv",
        "--chaos",
        cfg.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("node_failures,1"), "{text}");
    assert!(text.contains("node_recoveries,1"), "{text}");
    assert!(text.contains("node_downtime_s,7000.0"), "{text}");
    assert!(text.contains("goodput_lost_gpu_h,"), "{text}");
    std::fs::remove_file(&cfg).ok();
}

#[test]
fn chaos_runs_are_deterministic() {
    let cfg = chaos_config("det");
    let args = [
        "run",
        "--jobs",
        "12",
        "--seed",
        "9",
        "--csv",
        "--chaos",
        cfg.to_str().unwrap(),
        "--chaos-seed",
        "42",
    ];
    let a = rubick(&args);
    let b = rubick(&args);
    assert!(a.status.success() && b.status.success());
    assert_eq!(stdout(&a), stdout(&b));
    std::fs::remove_file(&cfg).ok();
}

#[test]
fn chaos_seed_without_chaos_fails_fast() {
    let out = rubick(&["run", "--jobs", "5", "--chaos-seed", "7"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--chaos-seed requires --chaos"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn chaos_rejects_bad_config_with_line_number() {
    let path = std::env::temp_dir().join(format!("rubick-cli-badchaos-{}.cfg", std::process::id()));
    std::fs::write(&path, "fail zero 100\n").unwrap();
    let out = rubick(&["run", "--jobs", "5", "--chaos", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("invalid chaos config"), "stderr: {err}");
    std::fs::remove_file(&path).ok();
}

/// Writes a sweep spec to a temp file, returning its path.
fn sweep_spec(tag: &str, text: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "rubick-cli-sweep-{tag}-{}.toml",
        std::process::id()
    ));
    std::fs::write(&path, text).expect("sweep spec written");
    path
}

const TINY_SWEEP: &str = "[sweep]\n\
     name = \"tiny\"\n\
     jobs = 6\n\
     duration_hours = 2.0\n\
     seed = 7\n\
     [grid]\n\
     scheduler = [\"rubick\", \"synergy\"]\n\
     chaos_rate = [0.0, 0.3]\n\
     chaos_seed = [7]\n";

#[test]
fn sweep_emits_one_csv_row_per_cell_in_grid_order() {
    let spec = sweep_spec("rows", TINY_SWEEP);
    let out = rubick(&["sweep", spec.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5, "header + 4 cells:\n{text}");
    assert!(lines[0].starts_with("cell,trace,scheduler,"), "{text}");
    assert!(lines[1].starts_with("0,base,rubick,6,"), "{text}");
    assert!(lines[2].starts_with("1,base,rubick,6,"), "{text}");
    assert!(lines[3].starts_with("2,base,synergy,6,"), "{text}");
    assert!(lines[4].starts_with("3,base,synergy,6,"), "{text}");
    std::fs::remove_file(&spec).ok();
}

#[test]
fn sweep_output_is_byte_identical_at_any_parallelism() {
    // --no-timings: the wall-clock columns are the one part of a row
    // that legitimately differs between runs.
    let spec = sweep_spec("det", TINY_SWEEP);
    let path = spec.to_str().unwrap();
    let seq = rubick(&["sweep", path, "--no-timings"]);
    let par = rubick(&["sweep", path, "--no-timings", "--parallelism", "3"]);
    let auto = rubick(&["sweep", path, "--no-timings", "--parallelism", "auto"]);
    assert!(seq.status.success() && par.status.success() && auto.status.success());
    assert_eq!(stdout(&seq), stdout(&par));
    assert_eq!(stdout(&seq), stdout(&auto));
    assert!(!stdout(&seq).is_empty());
    std::fs::remove_file(&spec).ok();
}

#[test]
fn sweep_times_cells_by_default_and_no_timings_blanks_them() {
    let spec = sweep_spec("timing", TINY_SWEEP);
    let path = spec.to_str().unwrap();
    let timed = rubick(&["sweep", path]);
    let untimed = rubick(&["sweep", path, "--no-timings"]);
    assert!(timed.status.success() && untimed.status.success());
    for out in [&timed, &untimed] {
        let text = stdout(out);
        let header = text.lines().next().expect("header row");
        assert!(header.ends_with(",wall_ms,mean_round_ns"), "{header}");
    }
    for row in stdout(&timed).lines().skip(1) {
        let cols: Vec<&str> = row.split(',').collect();
        let wall: f64 = cols[cols.len() - 2].parse().expect("wall_ms number");
        let round: f64 = cols[cols.len() - 1].parse().expect("mean_round_ns number");
        assert!(wall > 0.0 && round > 0.0, "{row}");
    }
    for row in stdout(&untimed).lines().skip(1) {
        assert!(
            row.ends_with(",,"),
            "untimed row should blank timings: {row}"
        );
    }
    std::fs::remove_file(&spec).ok();
}

#[test]
fn sweep_writes_csv_and_jsonl_files() {
    let spec = sweep_spec("files", TINY_SWEEP);
    let csv = std::env::temp_dir().join(format!("rubick-sweep-out-{}.csv", std::process::id()));
    let jsonl = std::env::temp_dir().join(format!("rubick-sweep-out-{}.jsonl", std::process::id()));
    let out = rubick(&[
        "sweep",
        spec.to_str().unwrap(),
        "--out",
        csv.to_str().unwrap(),
        "--jsonl",
        jsonl.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).is_empty(), "CSV went to --out, not stdout");
    let csv_text = std::fs::read_to_string(&csv).expect("CSV written");
    assert_eq!(csv_text.lines().count(), 5);
    let jsonl_text = std::fs::read_to_string(&jsonl).expect("JSONL written");
    let first = jsonl_text.lines().next().expect("nonempty JSONL");
    assert!(
        first.contains("\"type\":\"sweep\"") && first.contains("\"cells\":4"),
        "{first}"
    );
    assert_eq!(jsonl_text.lines().count(), 5);
    std::fs::remove_file(&spec).ok();
    std::fs::remove_file(&csv).ok();
    std::fs::remove_file(&jsonl).ok();
}

#[test]
fn sweep_without_spec_fails_with_usage_hint() {
    let out = rubick(&["sweep"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("sweep requires a spec file"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn sweep_rejects_malformed_spec_with_line_number() {
    let spec = sweep_spec("bad", "[grid]\ntrace = [base]\n");
    let out = rubick(&["sweep", spec.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("invalid sweep spec"), "stderr: {err}");
    assert!(err.contains("line 2"), "stderr: {err}");
    std::fs::remove_file(&spec).ok();
}

#[test]
fn sweep_rejects_unknown_scheduler_listing_options() {
    let spec = sweep_spec("sched", "[grid]\nscheduler = [\"dragon\"]\n");
    let out = rubick(&["sweep", spec.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown scheduler 'dragon'"), "stderr: {err}");
    assert!(err.contains("rubick-e"), "should list valid names: {err}");
    std::fs::remove_file(&spec).ok();
}

#[test]
fn sweep_rejects_empty_grid() {
    let spec = sweep_spec("empty", "[sweep]\nname = \"nothing\"\n");
    let out = rubick(&["sweep", spec.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("empty grid"),
        "stderr: {}",
        stderr(&out)
    );
    std::fs::remove_file(&spec).ok();
}

#[test]
fn sweep_rejects_output_path_collisions() {
    let spec = sweep_spec("clash", TINY_SWEEP);
    let path = spec.to_str().unwrap();
    let both = rubick(&[
        "sweep",
        path,
        "--out",
        "/tmp/x.csv",
        "--jsonl",
        "/tmp/x.csv",
    ]);
    assert!(!both.status.success());
    assert!(
        stderr(&both).contains("--out and --jsonl both point at"),
        "stderr: {}",
        stderr(&both)
    );
    let clobber = rubick(&["sweep", path, "--out", path]);
    assert!(!clobber.status.success());
    assert!(
        stderr(&clobber).contains("would overwrite the sweep spec"),
        "stderr: {}",
        stderr(&clobber)
    );
    std::fs::remove_file(&spec).ok();
}

#[test]
fn sweep_rejects_missing_spec_file_naming_it() {
    let out = rubick(&["sweep", "/nonexistent-dir/grid.toml"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("cannot read sweep spec '/nonexistent-dir/grid.toml'"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn non_sweep_commands_reject_positional_operands() {
    for cmd in ["run", "compare", "trace"] {
        let out = rubick(&[cmd, "stray-token"]);
        assert!(!out.status.success(), "{cmd} must reject an operand");
        assert!(
            stderr(&out).contains("unexpected argument 'stray-token'"),
            "{cmd} stderr: {}",
            stderr(&out)
        );
    }
}

/// Compare runs its schedulers on parallel threads but must print rows in
/// the fixed scheduler order, with the chaos summary block appended.
#[test]
fn compare_keeps_fixed_row_order_under_chaos() {
    let cfg = chaos_config("cmp");
    let out = rubick(&[
        "compare",
        "--jobs",
        "6",
        "--seed",
        "3",
        "--csv",
        "--chaos",
        cfg.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let expected = [
        "rubick,",
        "rubick-e,",
        "rubick-r,",
        "rubick-n,",
        "sia,",
        "synergy,",
        "antman,",
    ];
    let mut last = 0;
    for name in expected {
        let pos = text
            .find(name)
            .unwrap_or_else(|| panic!("row for {name} missing in:\n{text}"));
        assert!(pos >= last, "row {name} out of order:\n{text}");
        last = pos;
    }
    assert!(
        text.contains("scheduler,fault_evictions,restarts,mean_resched_s,goodput_lost_gpu_h"),
        "{text}"
    );
    std::fs::remove_file(&cfg).ok();
}

/// Runs the binary with `input` piped to stdin (how a serve session is
/// scripted in tests).
fn rubick_stdin(args: &[&str], input: impl AsRef<[u8]>) -> Output {
    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_rubick"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_ref())
        .expect("session script written");
    child.wait_with_output().expect("binary exits")
}

const SERVE_SESSION: &str = "\
{\"type\":\"submit\",\"job\":1,\"model\":\"roberta-355m\",\"gpus\":4,\"target_batches\":60}\n\
{\"type\":\"advance\",\"until\":1}\n\
{\"type\":\"status\"}\n\
{\"type\":\"cancel\",\"job\":1}\n\
{\"type\":\"shutdown\"}\n";

const SERVE_FLAGS: &[&str] = &[
    "serve",
    "--scheduler",
    "rubick",
    "--seed",
    "7",
    "--nodes",
    "2",
    "--log-level",
    "error",
];

#[test]
fn serve_stdin_session_replies_one_line_per_op() {
    let out = rubick_stdin(SERVE_FLAGS, SERVE_SESSION);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 6, "5 replies + report:\n{text}");
    assert_eq!(lines[0], "{\"type\":\"ok\",\"op\":\"submit\",\"job\":1}");
    assert!(
        lines[1].starts_with("{\"type\":\"state\",\"clock\":1,")
            && lines[1].contains("\"running\":1"),
        "{}",
        lines[1]
    );
    assert!(lines[2].contains("\"type\":\"state\""), "{}", lines[2]);
    assert_eq!(lines[3], "{\"type\":\"ok\",\"op\":\"cancel\",\"job\":1}");
    assert_eq!(lines[4], "{\"type\":\"ok\",\"op\":\"shutdown\"}");
    assert!(
        lines[5].starts_with("{\"type\":\"report\",\"scheduler\":\"rubick\","),
        "{}",
        lines[5]
    );

    // Serve sessions are deterministic end to end.
    let again = rubick_stdin(SERVE_FLAGS, SERVE_SESSION);
    assert_eq!(text, stdout(&again));
}

#[test]
fn serve_reports_protocol_errors_without_dying() {
    let session = "not json\n\
        {\"type\":\"submit\",\"job\":1,\"model\":\"alexnet\",\"gpus\":4}\n\
        {\"type\":\"shutdown\"}\n";
    let out = rubick_stdin(SERVE_FLAGS, session);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].starts_with("{\"type\":\"error\","), "{}", lines[0]);
    assert!(lines[1].contains("unknown model 'alexnet'"), "{}", lines[1]);
    assert_eq!(lines[2], "{\"type\":\"ok\",\"op\":\"shutdown\"}");
}

/// A malformed op line and a submit without its `job` field are answered
/// as op errors, not in the event-log reader's wording, and the session
/// keeps reading.
#[test]
fn serve_words_a_bad_op_line_as_an_invalid_op() {
    let session = "{\"type\":\"sta\n\
        {\"type\":\"submit\",\"model\":\"roberta-355m\",\"gpus\":4}\n\
        {\"type\":\"shutdown\"}\n";
    let out = rubick_stdin(SERVE_FLAGS, session);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines[0],
        "{\"type\":\"error\",\"message\":\"invalid op: unterminated string\"}"
    );
    assert_eq!(
        lines[1],
        "{\"type\":\"error\",\"message\":\"invalid op: missing field \\\"job\\\"\"}"
    );
    assert_eq!(lines[2], "{\"type\":\"ok\",\"op\":\"shutdown\"}");
}

/// A line that is not UTF-8 gets an error reply; the ops after it still
/// run. An empty session's report prints `0.000` GPU-hours, not `-0.000`.
#[test]
fn serve_answers_a_non_utf8_line_and_keeps_reading() {
    let out = rubick_stdin(
        SERVE_FLAGS,
        b"\xff\xfe{\"type\":\"status\"}\n{\"type\":\"status\"}\n",
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "error + state + report:\n{text}");
    assert_eq!(
        lines[0],
        "{\"type\":\"error\",\"message\":\"op line is not valid UTF-8\"}"
    );
    assert!(lines[1].starts_with("{\"type\":\"state\","), "{}", lines[1]);
    assert!(lines[2].contains("\"gpu_hours\":0.000,"), "{}", lines[2]);
}

#[test]
fn serve_echo_events_inlines_the_stream_before_each_reply() {
    let mut args = SERVE_FLAGS.to_vec();
    args.push("--echo-events");
    // The cancel lands at the session clock, so a trailing advance is
    // what makes its event fire and get echoed.
    let session = "\
        {\"type\":\"submit\",\"job\":1,\"model\":\"roberta-355m\",\"gpus\":4,\"target_batches\":60}\n\
        {\"type\":\"advance\",\"until\":1}\n\
        {\"type\":\"cancel\",\"job\":1}\n\
        {\"type\":\"advance\",\"until\":2}\n\
        {\"type\":\"shutdown\"}\n";
    let out = rubick_stdin(&args, session);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let submitted = text
        .lines()
        .position(|l| l.contains("\"type\":\"job_submitted\""))
        .expect("submit event echoed");
    let state = text
        .lines()
        .position(|l| l.starts_with("{\"type\":\"state\""))
        .expect("advance reply");
    assert!(submitted < state, "events precede the reply:\n{text}");
    assert!(
        text.contains("\"type\":\"job_cancelled\""),
        "cancel event echoed:\n{text}"
    );
}

#[test]
fn serve_restart_recovers_the_logged_session() {
    let log = std::env::temp_dir().join(format!("rubick-serve-log-{}.jsonl", std::process::id()));
    std::fs::remove_file(&log).ok();
    let log_str = log.to_str().unwrap();
    let mut args = SERVE_FLAGS.to_vec();
    args.extend(["--log", log_str]);

    // First session: submit and advance, then the process "dies" (EOF
    // without shutdown still folds a report; the journal survives).
    let first = rubick_stdin(
        &args,
        "{\"type\":\"submit\",\"job\":1,\"model\":\"roberta-355m\",\"gpus\":4,\
         \"target_batches\":60}\n{\"type\":\"advance\",\"until\":1}\n",
    );
    assert!(first.status.success(), "stderr: {}", stderr(&first));

    // Second session recovers from the journal: job 1 is running again.
    let second = rubick_stdin(&args, "{\"type\":\"status\"}\n{\"type\":\"shutdown\"}\n");
    assert!(second.status.success(), "stderr: {}", stderr(&second));
    let text = stdout(&second);
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines[0].starts_with("{\"type\":\"recovered\",\"ops\":2,"),
        "{text}"
    );
    assert!(
        lines[1].contains("\"type\":\"state\"") && lines[1].contains("\"running\":1"),
        "{text}"
    );
    std::fs::remove_file(&log).ok();
}

#[test]
fn serve_listen_serves_one_tcp_connection() {
    use std::io::{BufRead, BufReader, Write as _};
    use std::process::Stdio;
    let mut args = SERVE_FLAGS.to_vec();
    args.extend(["--listen", "127.0.0.1:0"]);
    let mut child = Command::new(env!("CARGO_BIN_EXE_rubick"))
        .args(&args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let mut console = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    console.read_line(&mut line).expect("listening line");
    assert!(
        line.starts_with("{\"type\":\"listening\",\"addr\":\""),
        "{line}"
    );
    let addr = line
        .split("\"addr\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .expect("addr in listening line")
        .to_string();

    let stream = std::net::TcpStream::connect(&addr).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer
        .write_all(SERVE_SESSION.as_bytes())
        .expect("ops sent");
    let mut replies = Vec::new();
    loop {
        let mut reply = String::new();
        if reader.read_line(&mut reply).expect("reply read") == 0 {
            break;
        }
        replies.push(reply.trim().to_string());
    }
    let status = child.wait().expect("server exits");
    assert!(status.success());
    assert_eq!(replies.len(), 6, "{replies:?}");
    assert_eq!(replies[0], "{\"type\":\"ok\",\"op\":\"submit\",\"job\":1}");
    assert!(
        replies[5].starts_with("{\"type\":\"report\","),
        "{replies:?}"
    );
}

#[test]
fn run_progress_renders_a_live_line_on_stderr() {
    let quiet = rubick(&[
        "run",
        "--jobs",
        "8",
        "--seed",
        "4",
        "--csv",
        "--log-level",
        "error",
    ]);
    let progress = rubick(&[
        "run",
        "--jobs",
        "8",
        "--seed",
        "4",
        "--csv",
        "--log-level",
        "error",
        "--progress",
    ]);
    assert!(quiet.status.success() && progress.status.success());
    // The progress line lives on stderr and never disturbs the report.
    assert_eq!(stdout(&quiet), stdout(&progress));
    let err = stderr(&progress);
    assert!(err.contains("running="), "progress line on stderr: {err}");
    assert!(err.contains("finished="), "progress line on stderr: {err}");
    assert!(err.ends_with('\n'), "finish() terminates the line: {err:?}");
    assert!(stderr(&quiet).is_empty(), "{}", stderr(&quiet));
}

#[test]
fn sweep_baseline_gates_on_metric_drift() {
    let spec = sweep_spec("baseline", TINY_SWEEP);
    let path = spec.to_str().unwrap();
    let csv =
        std::env::temp_dir().join(format!("rubick-sweep-baseline-{}.csv", std::process::id()));
    let csv_str = csv.to_str().unwrap();
    let out = rubick(&["sweep", path, "--no-timings", "--out", csv_str]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // An identical re-run diffs clean against its own output...
    let clean = rubick(&["sweep", path, "--no-timings", "--baseline", csv_str]);
    assert!(clean.status.success(), "stderr: {}", stderr(&clean));
    assert!(
        stderr(&clean).contains("4 matched, 0 changed"),
        "stderr: {}",
        stderr(&clean)
    );

    // ...and a doctored metric fails the gate, naming cell and column.
    let text = std::fs::read_to_string(&csv).unwrap();
    let (line_no, line) = text
        .lines()
        .enumerate()
        .find(|(_, l)| l.starts_with("0,"))
        .expect("cell 0 row");
    let cols: Vec<&str> = line.split(',').collect();
    let mut doctored_cols = cols.clone();
    let avg_jct_col = 12; // avg_jct_s per SWEEP_CSV_HEADER
    let doctored_value = "123456.789";
    doctored_cols[avg_jct_col] = doctored_value;
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    lines[line_no] = doctored_cols.join(",");
    std::fs::write(&csv, lines.join("\n") + "\n").unwrap();
    let gate = rubick(&["sweep", path, "--no-timings", "--baseline", csv_str]);
    assert!(!gate.status.success(), "doctored baseline must fail");
    let err = stderr(&gate);
    assert!(err.contains("regressed against baseline"), "stderr: {err}");
    assert!(err.contains("avg_jct_s"), "stderr: {err}");
    assert!(err.contains(doctored_value), "stderr: {err}");
    std::fs::remove_file(&spec).ok();
    std::fs::remove_file(&csv).ok();
}

#[test]
fn sweep_baseline_accepts_jsonl_and_rejects_garbage() {
    let spec = sweep_spec("baseline-jsonl", TINY_SWEEP);
    let path = spec.to_str().unwrap();
    let jsonl = std::env::temp_dir().join(format!(
        "rubick-sweep-baseline-{}.jsonl",
        std::process::id()
    ));
    let jsonl_str = jsonl.to_str().unwrap();
    let out = rubick(&["sweep", path, "--no-timings", "--jsonl", jsonl_str]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let clean = rubick(&["sweep", path, "--no-timings", "--baseline", jsonl_str]);
    assert!(clean.status.success(), "stderr: {}", stderr(&clean));

    // A malformed baseline fails before any cell runs.
    let garbage =
        std::env::temp_dir().join(format!("rubick-sweep-garbage-{}.csv", std::process::id()));
    std::fs::write(&garbage, "not,a,sweep\n1,2,3\n").unwrap();
    let bad = rubick(&[
        "sweep",
        path,
        "--no-timings",
        "--baseline",
        garbage.to_str().unwrap(),
    ]);
    assert!(!bad.status.success());
    assert!(
        stderr(&bad).contains("invalid baseline"),
        "stderr: {}",
        stderr(&bad)
    );
    std::fs::remove_file(&spec).ok();
    std::fs::remove_file(&jsonl).ok();
    std::fs::remove_file(&garbage).ok();
}
