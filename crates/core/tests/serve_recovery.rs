//! Crash-recovery tests for the serve layer against the *real* Rubick
//! policy (the sim-crate serve tests use a toy FIFO scheduler).
//!
//! The contract under test: a serve session that dies mid-stream — even
//! leaving a torn final line in its write-ahead log — recovers by replay
//! to the exact state an uninterrupted session would have reached, and
//! the healed log is byte-identical to the uninterrupted session's log.
//! A proptest sweeps crash points, torn-tail lengths, and snapshot
//! (compaction) positions.

use proptest::prelude::*;
use rubick_core::{ModelRegistry, RubickScheduler};
use rubick_model::prelude::ModelSpec;
use rubick_model::NodeShape;
use rubick_obs::{EventSink, SimEvent};
use rubick_sim::{recover, Cluster, Engine, EngineConfig, ServeMeta, ServeOp, ServeSession};
use rubick_testbed::TestbedOracle;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

const SEED: u64 = 7;
const NODES: usize = 2;

/// A shared registry (profiling the zoo once keeps the suite fast).
fn registry() -> Arc<ModelRegistry> {
    static REG: OnceLock<Arc<ModelRegistry>> = OnceLock::new();
    Arc::clone(REG.get_or_init(|| {
        let oracle = TestbedOracle::new(SEED);
        Arc::new(ModelRegistry::from_oracle(&oracle, &ModelSpec::zoo()).unwrap())
    }))
}

fn engine(oracle: &TestbedOracle) -> Engine<'_> {
    let policy = Box::new(RubickScheduler::new(Arc::new(registry().clone_fitted())));
    Engine::new(
        oracle,
        policy,
        Cluster::new(NODES, NodeShape::a800()),
        vec![],
        EngineConfig::default(),
    )
}

fn meta() -> ServeMeta {
    ServeMeta {
        scheduler: "rubick".to_string(),
        seed: SEED,
        nodes: NODES,
    }
}

/// The session script. Every op is journalled (no status/snapshot), so
/// `RecoveryStats::ops_replayed` indexes straight into this list.
fn script() -> Vec<ServeOp> {
    [
        r#"{"type":"submit","job":1,"model":"roberta-355m","gpus":4,"target_batches":400}"#,
        r#"{"type":"submit","job":2,"model":"vit-86m","gpus":2,"target_batches":300}"#,
        r#"{"type":"advance","until":120}"#,
        r#"{"type":"submit","job":3,"model":"bert-336m","gpus":4,"target_batches":200}"#,
        r#"{"type":"cancel","job":2}"#,
        r#"{"type":"advance","until":40000}"#,
    ]
    .iter()
    .map(|line| ServeOp::parse(line).expect("script op parses"))
    .collect()
}

/// Collects every event's canonical JSONL line.
#[derive(Default)]
struct Capture {
    lines: Vec<String>,
}

impl EventSink for Capture {
    fn on_event(&mut self, event: &SimEvent) {
        self.lines.push(event.to_jsonl());
    }
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rubick-serve-recovery-{tag}-{}-{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Runs the whole script uninterrupted; returns (log bytes, report debug,
/// event lines).
fn uninterrupted(tag: &str) -> (Vec<u8>, String, Vec<String>) {
    let path = temp_path(tag);
    std::fs::remove_file(&path).ok();
    let oracle = TestbedOracle::new(SEED);
    let mut session = ServeSession::with_log(engine(&oracle), &meta(), &path).unwrap();
    let mut sink = Capture::default();
    for op in script() {
        session.apply(&op, &mut sink).unwrap();
    }
    let report = session.finish();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (bytes, format!("{report:?}"), sink.lines)
}

/// The uninterrupted run is crash-parameter independent, so compute it
/// once and share it across every proptest case.
fn baseline() -> &'static (Vec<u8>, String, Vec<String>) {
    static BASELINE: OnceLock<(Vec<u8>, String, Vec<String>)> = OnceLock::new();
    BASELINE.get_or_init(|| uninterrupted("baseline"))
}

/// Truncates at most the final line of the log (a torn tail — the only
/// corruption a crashed append-only writer can leave behind).
fn tear_tail(path: &PathBuf, torn: usize) {
    if torn == 0 {
        return;
    }
    let bytes = std::fs::read(path).unwrap();
    let body = &bytes[..bytes.len() - 1]; // ignore the trailing newline
    let last_line_start = body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let last_line_len = bytes.len() - last_line_start;
    let keep = bytes.len() - torn.min(last_line_len);
    std::fs::write(path, &bytes[..keep]).unwrap();
}

/// Kills the session after `crash_after` ops, tears `torn` bytes off the
/// log tail, recovers, replays the remaining script, and returns the same
/// observables as [`uninterrupted`] (recovery regenerates the full event
/// stream, so the capture is directly comparable). `snapshot_at` injects
/// a compaction before that script index.
fn crash_and_recover(
    tag: &str,
    crash_after: usize,
    torn: usize,
    snapshot_at: Option<usize>,
) -> (Vec<u8>, String, Vec<String>) {
    let path = temp_path(tag);
    std::fs::remove_file(&path).ok();
    let ops = script();

    {
        let oracle = TestbedOracle::new(SEED);
        let mut session = ServeSession::with_log(engine(&oracle), &meta(), &path).unwrap();
        let mut sink = Capture::default();
        for (i, op) in ops.iter().take(crash_after).enumerate() {
            if snapshot_at == Some(i) {
                session.apply(&ServeOp::Snapshot, &mut sink).unwrap();
            }
            session.apply(op, &mut sink).unwrap();
        }
        // The session drops here without finish(): the simulated kill.
    }
    tear_tail(&path, torn);

    let oracle = TestbedOracle::new(SEED);
    let mut sink = Capture::default();
    let recovery = recover(&path, engine(&oracle), &mut sink).unwrap();
    let mut session = recovery.session;
    let resume_from = recovery.stats.ops_replayed as usize;
    assert!(
        resume_from == crash_after || (torn > 0 && resume_from + 1 == crash_after),
        "replayed {resume_from} of {crash_after} applied ops (torn {torn} bytes)"
    );
    for (i, op) in ops.iter().enumerate().skip(resume_from) {
        if snapshot_at == Some(i) && i >= crash_after {
            session.apply(&ServeOp::Snapshot, &mut sink).unwrap();
        }
        session.apply(op, &mut sink).unwrap();
    }
    let report = session.finish();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (bytes, format!("{report:?}"), sink.lines)
}

#[test]
fn killed_rubick_session_recovers_byte_identically() {
    let (log, report, events) = baseline();
    let (crashed_log, crashed_report, crashed_events) = crash_and_recover("kill", 4, 23, None);
    assert_eq!(
        &crashed_log, log,
        "healed log must match the uninterrupted one"
    );
    assert_eq!(&crashed_report, report);
    assert_eq!(&crashed_events, events);
}

#[test]
fn clean_restart_without_torn_tail_also_round_trips() {
    let (log, report, events) = baseline();
    let (crashed_log, crashed_report, crashed_events) = crash_and_recover("clean", 3, 0, None);
    assert_eq!(&crashed_log, log);
    assert_eq!(&crashed_report, report);
    assert_eq!(&crashed_events, events);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any crash point, any torn tail, any snapshot position: the
    /// recovered session finishes with the uninterrupted session's
    /// report and event stream. (Log bytes are only compared in the
    /// snapshot-free tests above — compaction legitimately rewrites
    /// the file.)
    #[test]
    fn recovery_is_exact_for_any_interleaving(
        crash_after in 1usize..7,
        torn in 0usize..48,
        snapshot_raw in 0usize..7,
    ) {
        // 6 is the no-snapshot sentinel (the shim has no option strategy).
        let snapshot_at = (snapshot_raw < 6).then_some(snapshot_raw);
        let (_, report, events) = baseline();
        let tag = format!("prop-{crash_after}-{torn}-{snapshot_at:?}");
        let (_, crashed_report, crashed_events) =
            crash_and_recover(&tag, crash_after, torn, snapshot_at);
        prop_assert_eq!(&crashed_report, report);
        prop_assert_eq!(&crashed_events, events);
    }
}

/// Writes `text` as a journal, recovers it, finishes the recovered
/// session, and returns the file's bytes afterwards.
fn recover_text(tag: &str, text: &str) -> Result<Vec<u8>, String> {
    let path = temp_path(tag);
    std::fs::write(&path, text).unwrap();
    let oracle = TestbedOracle::new(SEED);
    let recovery = recover(&path, engine(&oracle), &mut Capture::default());
    let out = recovery.map(|r| {
        r.session.finish();
        std::fs::read(&path).unwrap()
    });
    std::fs::remove_file(&path).ok();
    out
}

fn baseline_text() -> String {
    String::from_utf8(baseline().0.clone()).unwrap()
}

/// Whether a journal line is an event line (not header, op or marker).
fn is_event(line: &str) -> bool {
    rubick_obs::JsonObject::parse(line)
        .ok()
        .and_then(|obj| obj.ty().ok().map(SimEvent::known_type))
        .unwrap_or(false)
}

/// Reverses the field order of a line whose strings hold no comma.
fn reorder(line: &str) -> String {
    let inner = &line[1..line.len() - 1];
    let mut fields: Vec<&str> = inner.split(',').collect();
    fields.reverse();
    format!("{{{}}}", fields.join(","))
}

/// Rewrites the first line `pick` selects with `edit`.
fn edit_first(text: &str, pick: impl Fn(&str) -> bool, edit: impl Fn(&str) -> String) -> String {
    let mut done = false;
    text.lines()
        .map(|line| {
            if !done && pick(line) {
                done = true;
                edit(line)
            } else {
                line.to_string()
            }
        })
        .map(|line| line + "\n")
        .collect()
}

#[cfg(unix)]
#[test]
fn finished_journal_recovers_without_a_rewrite() {
    use std::os::unix::fs::MetadataExt;
    let (log, _, _) = baseline();
    let path = temp_path("no-rewrite");
    std::fs::write(&path, log).unwrap();
    let inode = std::fs::metadata(&path).unwrap().ino();
    let oracle = TestbedOracle::new(SEED);
    let recovery = recover(&path, engine(&oracle), &mut Capture::default()).unwrap();
    assert!(!recovery.stats.torn_tail);
    assert_eq!(
        recovery.stats.events_verified,
        recovery.stats.events_replayed
    );
    assert_eq!(
        std::fs::metadata(&path).unwrap().ino(),
        inode,
        "file was replaced"
    );
    assert_eq!(&std::fs::read(&path).unwrap(), log);
    recovery.session.finish();
    assert_eq!(std::fs::metadata(&path).unwrap().ino(), inode);
    assert_eq!(&std::fs::read(&path).unwrap(), log);
    std::fs::remove_file(&path).ok();
}

#[test]
fn non_canonical_journals_heal_to_canonical_bytes() {
    let canonical = baseline_text();
    let is_round = |l: &str| l.contains(r#""type":"round_started""#);
    let is_submit = |l: &str| l.contains(r#""type":"submit""#);
    let is_advance = |l: &str| l.contains(r#""type":"advance""#);
    let has_fraction = |l: &str| is_event(l) && fraction_end(l).is_some();
    let pad_fraction = |l: &str| {
        let end = fraction_end(l).unwrap();
        format!("{}0{}", &l[..end], &l[end..])
    };
    let variants = [
        ("crlf", canonical.replace('\n', "\r\n")),
        ("blank", {
            let mut lines: Vec<&str> = canonical.lines().collect();
            lines.insert(3, "");
            lines.insert(6, "   ");
            lines.join("\n") + "\n"
        }),
        ("reordered-op", edit_first(&canonical, is_submit, reorder)),
        ("reordered-event", edit_first(&canonical, is_round, reorder)),
        (
            "padded-fraction",
            edit_first(&canonical, has_fraction, pad_fraction),
        ),
        (
            "integral-dot-zero",
            edit_first(&canonical, is_advance, |l| l.replace('}', ".0}")),
        ),
        ("torn", canonical.clone() + r#"{"type":"round_sta"#),
    ];
    for (tag, text) in variants {
        assert_ne!(text, canonical, "{tag}: the variant must differ");
        let healed = recover_text(tag, &text).unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert_eq!(String::from_utf8(healed).unwrap(), canonical, "{tag}");
    }
}

/// The end of the first `digits.digits` number in `line`.
fn fraction_end(line: &str) -> Option<usize> {
    let b = line.as_bytes();
    let dot = (1..b.len().saturating_sub(1))
        .find(|&i| b[i] == b'.' && b[i - 1].is_ascii_digit() && b[i + 1].is_ascii_digit())?;
    Some(
        dot + 1
            + b[dot + 1..]
                .iter()
                .take_while(|c| c.is_ascii_digit())
                .count(),
    )
}

#[test]
fn recovery_errors_keep_their_text() {
    let canonical = baseline_text();
    let path = |tag: &str| temp_path(tag).display().to_string();

    // A changed event, also written non-canonically: the error quotes the
    // logged event's canonical rendering next to the replayed line.
    let lines: Vec<&str> = canonical.lines().collect();
    let (at, original) = lines
        .iter()
        .enumerate()
        .find(|(_, l)| l.contains(r#""type":"round_started""#))
        .map(|(i, l)| (i, l.to_string()))
        .unwrap();
    let index = lines[..at].iter().filter(|l| is_event(l)).count();
    let tampered = reorder(&original.replace(r#""round":"#, r#""round":9"#));
    let text = edit_first(&canonical, |l| l == original, |_| tampered.clone());
    let logged = SimEvent::from_jsonl(&tampered).unwrap().to_jsonl();
    assert_eq!(
        recover_text("diverge", &text).unwrap_err(),
        format!(
            "serve log '{}' diverges from deterministic replay at event {index}: \
             logged {logged} vs replayed {original}",
            path("diverge")
        )
    );

    // One event line more than replay regenerates.
    let last_event = canonical.lines().rev().find(|l| is_event(l)).unwrap();
    let text = format!("{canonical}{last_event}\n");
    assert_eq!(
        recover_text("beyond", &text).unwrap_err(),
        format!(
            "serve log '{}' has 1 event line(s) beyond what replay regenerates",
            path("beyond")
        )
    );
}
