//! `rubick serve` — a long-running scheduling session over NDJSON.
//!
//! Reads one protocol op per line (from stdin, or a single TCP
//! connection with `--listen`), applies it to a live
//! [`rubick_sim::ServeSession`], and writes one reply line per op.
//! With `--log`, every state-changing op is journalled write-ahead and a
//! restarted daemon recovers the exact session state by deterministic
//! replay; with `--tick-ms`, simulation time advances on a wall-clock
//! tick even when no ops arrive.
//!
//! ```text
//! $ rubick serve --scheduler rubick --nodes 2 --log session.jsonl
//! {"type":"submit","job":1,"model":"roberta-355m","gpus":4}
//! {"type":"ok","op":"submit","job":1}
//! {"type":"advance","until":600}
//! {"type":"state","clock":600,"now":600,...}
//! {"type":"shutdown"}
//! {"type":"ok","op":"shutdown"}
//! {"type":"report",...}
//! ```

use super::{refit_from, CliError};
use crate::args::Args;
use crate::output::{render_serve_report_line, Logger};
use rubick_bench::{ZooBackend, SCHEDULER_NAMES};
use rubick_obs::{EventSink, JsonWriter, JsonlSink, SimEvent};
use rubick_sim::serve::{recover, ServeMeta, ServeOp, ServeSession};
use rubick_sim::{Engine, ScenarioBackend, ScenarioSpec};
use rubick_testbed::TestbedOracle;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::mpsc;
use std::time::Duration;

/// The reply to an op that could not be applied.
fn error_line(message: &str) -> String {
    let mut w = JsonWriter::new("error");
    w.str("message", message);
    w.finish()
}

/// The per-session event sink: optionally buffers lines for `--echo-events`
/// (drained after each op) and forwards everything to the `--events` file.
struct ServeSink {
    echo: Option<Vec<String>>,
    file: Option<JsonlSink<File>>,
}

impl EventSink for ServeSink {
    fn on_event(&mut self, event: &SimEvent) {
        if let Some(echo) = &mut self.echo {
            echo.push(event.to_jsonl());
        }
        if let Some(file) = &mut self.file {
            file.on_event(event);
        }
    }
}

impl ServeSink {
    fn drain_echo(&mut self) -> Vec<String> {
        match &mut self.echo {
            Some(echo) => std::mem::take(echo),
            None => Vec::new(),
        }
    }
}

/// One incoming line, a line that is not UTF-8, or the end of input.
enum Incoming {
    Line(String),
    NotUtf8,
    Eof,
}

/// Executes the `serve` subcommand.
pub fn execute(args: &Args) -> Result<(), CliError> {
    args.allow(&[
        "scheduler",
        "seed",
        "nodes",
        "log",
        "events",
        "echo-events",
        "listen",
        "tick-ms",
        "time-scale",
        "log-level",
        "refit",
        "refit-threshold",
        "snapshot-bytes",
    ])?;
    let log = Logger::from_args(args)?;
    let scheduler = args.str_or("scheduler", "rubick");
    if !SCHEDULER_NAMES.contains(&scheduler.as_str()) {
        return Err(format!(
            "unknown scheduler '{scheduler}' ({})",
            SCHEDULER_NAMES.join("|")
        )
        .into());
    }
    let seed: u64 = args.parse_or("seed", 2025u64)?;
    let nodes: usize = args.parse_or("nodes", 8usize)?;
    if nodes == 0 {
        return Err("--nodes must be at least 1".into());
    }
    let tick = match args.get("tick-ms") {
        None => None,
        Some(raw) => {
            let ms: u64 = raw
                .parse()
                .map_err(|_| format!("invalid --tick-ms '{raw}': expected milliseconds"))?;
            if ms == 0 {
                return Err("--tick-ms must be at least 1".into());
            }
            Some(Duration::from_millis(ms))
        }
    };
    let time_scale: f64 = args.parse_or("time-scale", 1.0f64)?;
    if !(time_scale > 0.0 && time_scale.is_finite()) {
        return Err("--time-scale must be a positive number".into());
    }
    let refit = refit_from(args)?;
    let snapshot_bytes = match args.get("snapshot-bytes") {
        None => None,
        Some(raw) => {
            let bytes: u64 = raw
                .parse()
                .map_err(|_| format!("invalid --snapshot-bytes '{raw}': expected a byte count"))?;
            if bytes == 0 {
                return Err("--snapshot-bytes must be at least 1".into());
            }
            if args.get("log").is_none() {
                return Err("--snapshot-bytes requires --log <path>".into());
            }
            Some(bytes)
        }
    };

    log.info("profiling model zoo...");
    let spec = ScenarioSpec {
        scheduler: scheduler.clone(),
        seed,
        nodes,
        refit,
        ..ScenarioSpec::default()
    };
    let oracle = TestbedOracle::new(seed);
    // The session's scheduler and the refitter share one registry, so a
    // material refit re-plans on the next round. Recovery replays with
    // the same flags, rebuilding identical refit state deterministically.
    let (policy, refit_hook) = ZooBackend::prepare([seed])?.scheduler_with_refit(&spec)?;
    let mut engine = Engine::new(
        &oracle,
        policy,
        spec.cluster(),
        vec![],
        spec.engine_config(),
    );
    if let Some(hook) = refit_hook {
        engine.set_refit_hook(hook);
    }
    if let Some(threshold) = refit {
        log.info(&format!(
            "online refitting enabled (material-change threshold {threshold})"
        ));
    }

    let mut sink = ServeSink {
        echo: args.flag("echo-events").then(Vec::new),
        file: match args.get("events") {
            Some(path) => Some(
                JsonlSink::create(path)
                    .map_err(|e| format!("cannot create events file '{path}': {e}"))?,
            ),
            None => None,
        },
    };

    // A journalled session recovers if the log already holds one; the
    // replayed event stream flows through `sink`, so an `--events` file
    // (recreated each start) carries the complete session history.
    let meta = ServeMeta {
        scheduler: scheduler.clone(),
        seed,
        nodes,
    };
    let mut recovered_line = None;
    let mut session = match args.get("log") {
        None => ServeSession::new(engine),
        Some(path) => {
            let exists = std::fs::metadata(path)
                .map(|m| m.len() > 0)
                .unwrap_or(false);
            if exists {
                let recovery = recover(path, engine, &mut sink)?;
                log.info(&format!(
                    "recovered session from '{path}': {} op(s), {} event(s) replayed",
                    recovery.stats.ops_replayed, recovery.stats.events_replayed
                ));
                let mut w = JsonWriter::new("recovered");
                w.uint("ops", recovery.stats.ops_replayed as u64);
                w.uint("events", recovery.stats.events_replayed as u64);
                w.bool("torn_tail", recovery.stats.torn_tail);
                recovered_line = Some(w.finish());
                recovery.session
            } else {
                ServeSession::with_log(engine, &meta, std::path::Path::new(path))
                    .map_err(|e| format!("cannot create serve log '{path}': {e}"))?
            }
        }
    };
    session.set_auto_compact(snapshot_bytes);

    let report_line = match args.get("listen") {
        None => {
            let stdout = std::io::stdout();
            drive(
                session,
                &mut sink,
                BufReader::new(std::io::stdin()),
                &mut stdout.lock(),
                recovered_line,
                tick,
                time_scale,
                &log,
            )?
        }
        Some(addr) => {
            let listener =
                TcpListener::bind(addr).map_err(|e| format!("cannot listen on '{addr}': {e}"))?;
            let local = listener
                .local_addr()
                .map_err(|e| format!("cannot resolve listen address: {e}"))?;
            // The bound address goes to stdout so a client (or test) can
            // find an OS-assigned port.
            let mut w = JsonWriter::new("listening");
            w.str("addr", &local.to_string());
            println!("{}", w.finish());
            std::io::stdout().flush().ok();
            log.info(&format!("listening on {local}; serving one connection"));
            let (conn, peer) = listener
                .accept()
                .map_err(|e| format!("accept failed: {e}"))?;
            log.info(&format!("client connected from {peer}"));
            let reader = BufReader::new(
                conn.try_clone()
                    .map_err(|e| format!("cannot clone connection: {e}"))?,
            );
            let mut writer = conn;
            drive(
                session,
                &mut sink,
                reader,
                &mut writer,
                recovered_line,
                tick,
                time_scale,
                &log,
            )?
        }
    };
    // `drive` already wrote the report line to the protocol stream; echo
    // it on the server console only when the stream was a socket.
    if args.get("listen").is_some() {
        println!("{report_line}");
    }
    if let Some(file) = &mut sink.file {
        file.flush()
            .map_err(|e| format!("failed writing events file: {e}"))?;
        log.info(&format!("wrote {} events", file.events_written()));
    }
    Ok(())
}

/// The session loop: reads op lines, writes reply lines, ticks the clock.
/// Returns the final report line (printed to stdout by the caller so TCP
/// sessions still report on the server console).
#[allow(clippy::too_many_arguments)]
fn drive(
    mut session: ServeSession<'_>,
    sink: &mut ServeSink,
    reader: impl BufRead + Send + 'static,
    out: &mut dyn Write,
    recovered_line: Option<String>,
    tick: Option<Duration>,
    time_scale: f64,
    log: &Logger,
) -> Result<String, CliError> {
    let write_line = |out: &mut dyn Write, line: &str| -> Result<(), CliError> {
        out.write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .and_then(|()| out.flush())
            .map_err(|e| format!("cannot write reply: {e}").into())
    };
    if let Some(line) = recovered_line {
        write_line(out, &line)?;
    }

    // Ops arrive over a channel so the loop can multiplex the reader with
    // the wall-clock tick; without --tick-ms the channel just blocks.
    // Lines are read as raw bytes so a line that is not UTF-8 gets an
    // error reply instead of ending the session; only an I/O error does.
    let (tx, rx) = mpsc::channel::<Incoming>();
    std::thread::spawn(move || {
        for bytes in reader.split(b'\n') {
            let Ok(mut bytes) = bytes else { break };
            if bytes.last() == Some(&b'\r') {
                bytes.pop();
            }
            let incoming = String::from_utf8(bytes).map_or(Incoming::NotUtf8, Incoming::Line);
            if tx.send(incoming).is_err() {
                return;
            }
        }
        tx.send(Incoming::Eof).ok();
    });

    loop {
        let incoming = match tick {
            None => rx.recv().unwrap_or(Incoming::Eof),
            Some(tick) => match rx.recv_timeout(tick) {
                Ok(incoming) => incoming,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // Auto-tick: advance the session clock by the scaled
                    // tick. Journalled like any op, so a recovered session
                    // replays the exact same clock trajectory.
                    let until = session.clock() + tick.as_secs_f64() * time_scale;
                    session
                        .apply(&ServeOp::Advance { until }, sink)
                        .map_err(CliError::from)?;
                    for event in sink.drain_echo() {
                        write_line(out, &event)?;
                    }
                    continue;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => Incoming::Eof,
            },
        };
        let line = match incoming {
            Incoming::Line(line) => line,
            Incoming::NotUtf8 => {
                write_line(out, &error_line("op line is not valid UTF-8"))?;
                continue;
            }
            Incoming::Eof => {
                log.info("input closed; finishing session");
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let op = match ServeOp::parse(&line) {
            Ok(op) => op,
            Err(e) => {
                write_line(out, &error_line(&e))?;
                continue;
            }
        };
        let shutdown = op == ServeOp::Shutdown;
        match session.apply(&op, sink) {
            Ok(reply) => {
                for event in sink.drain_echo() {
                    write_line(out, &event)?;
                }
                write_line(out, &reply.to_jsonl())?;
            }
            Err(e) => {
                sink.drain_echo();
                write_line(out, &error_line(&e))?;
            }
        }
        if shutdown {
            break;
        }
    }
    let report = session.finish();
    let line = render_serve_report_line(&report);
    write_line(out, &line)?;
    Ok(line)
}
