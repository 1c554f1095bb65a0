//! **Live serve sessions**: the long-running counterpart of a batch run.
//!
//! A [`ServeSession`] wraps the stepped engine core ([`Engine::step`])
//! behind a small NDJSON operation protocol — submit, cancel, advance,
//! status, snapshot, shutdown — so a daemon (`rubick serve`) can accept
//! streaming submissions and cancellations while simulation time advances
//! on a caller-owned clock (typically a wall-clock tick mapped to
//! simulation seconds).
//!
//! # The session log is a write-ahead journal
//!
//! With a log path attached, every state-changing operation is appended
//! to a single JSON-Lines file *before* it is applied, and every
//! simulation event the engine emits is appended as it happens:
//!
//! ```text
//! {"type":"serve","version":1,...}          header: session parameters
//! {"type":"submit","job":1,...}             input op (write-ahead)
//! {"type":"advance","until":600}            input op (write-ahead)
//! {"type":"job_submitted",...}              engine event (effect)
//! {"type":"round_started",...}              engine event (effect)
//! ...
//! ```
//!
//! Because the engine is deterministic, the input ops alone reproduce the
//! whole session: [`recover`] replays the journalled ops through a fresh
//! engine, checks that the regenerated event stream matches the logged
//! one line for line (any divergence means the log is corrupt or the
//! binary changed behavior), heals a torn tail left by a crash
//! mid-append, and returns a session positioned exactly where an
//! uninterrupted one would be.
//!
//! Compaction ([`ServeSession::compact`], the `snapshot` op) bounds
//! replay cost by rewriting the log to header + ops + a
//! `{"type":"compacted","events_dropped":K}` marker: under determinism
//! the op journal *is* the minimal snapshot, so only the (bulky) event
//! lines are dropped.

use crate::engine::{Engine, StepOutcome};
use crate::job::{JobClass, JobId, JobSpec};
use crate::metrics::SimReport;
use crate::tenant::TenantId;
use rubick_model::{ExecutionPlan, ModelSpec, NodeShape, Resources};
use rubick_obs::{
    read_event_log_tolerant, EventSink, FanoutSink, JsonObject, JsonWriter, LogLine, SimEvent,
    SCHEMA_VERSION,
};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Version of the serve-log line format (the header/op/marker lines; the
/// event lines carry their own [`SCHEMA_VERSION`]).
pub const SERVE_LOG_VERSION: u32 = 1;

/// The immutable session parameters recorded in the log's header line —
/// enough for `recover` to refuse a log written under different
/// parameters than the engine it was handed.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeMeta {
    /// Scheduler name (must match the engine's).
    pub scheduler: String,
    /// Oracle seed the engine was built from.
    pub seed: u64,
    /// Cluster size in nodes.
    pub nodes: usize,
}

impl ServeMeta {
    /// The log's first line.
    pub fn header_line(&self) -> String {
        let mut w = JsonWriter::new("serve");
        w.uint("version", u64::from(SERVE_LOG_VERSION));
        w.uint("events_version", u64::from(SCHEMA_VERSION));
        w.str("scheduler", &self.scheduler);
        w.uint("seed", self.seed);
        w.uint("nodes", self.nodes as u64);
        w.finish()
    }

    /// Parses a header line object.
    ///
    /// # Errors
    ///
    /// Version mismatches (log format or event schema) and missing fields.
    pub fn parse(obj: &JsonObject) -> Result<ServeMeta, String> {
        let version = obj.uint("version").map_err(|e| e.to_string())?;
        if version != u64::from(SERVE_LOG_VERSION) {
            return Err(format!(
                "serve log version {version} is not supported (expected {SERVE_LOG_VERSION})"
            ));
        }
        let events = obj.uint("events_version").map_err(|e| e.to_string())?;
        if events != u64::from(SCHEMA_VERSION) {
            return Err(format!(
                "serve log was written with event schema v{events}; this build emits v{SCHEMA_VERSION} \
                 and cannot verify the replay against it"
            ));
        }
        Ok(ServeMeta {
            scheduler: obj.str("scheduler").map_err(|e| e.to_string())?.to_string(),
            seed: obj.uint("seed").map_err(|e| e.to_string())?,
            nodes: obj.uint("nodes").map_err(|e| e.to_string())? as usize,
        })
    }
}

/// A `submit` operation: the protocol-level description of a job, resolved
/// against the model zoo into a full [`JobSpec`] at apply time.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitOp {
    /// Job id chosen by the client (must be fresh in this session).
    pub job: JobId,
    /// Zoo model name (e.g. `gpt2-1.5b`).
    pub model: String,
    /// Requested GPU count (the gang request; also the plan's degree).
    pub gpus: u32,
    /// Global batch size; defaults to the model's default batch.
    pub batch: Option<u32>,
    /// Mini-batches the job must complete.
    pub target_batches: u64,
    /// Scheduling class.
    pub class: JobClass,
    /// Owning tenant name (empty = the default tenant).
    pub tenant: String,
    /// Initial-plan kind: `dp`, `zero-dp`, `zero3` or `zero-offload`.
    pub plan: String,
    /// Submission time, simulation seconds; defaults to the session clock.
    pub at: Option<f64>,
}

fn plan_by_kind(kind: &str, gpus: u32) -> Result<ExecutionPlan, String> {
    match kind {
        "dp" => Ok(ExecutionPlan::dp(gpus)),
        "zero-dp" => Ok(ExecutionPlan::zero_dp(gpus)),
        "zero3" => Ok(ExecutionPlan::zero3(gpus)),
        "zero-offload" => Ok(ExecutionPlan::zero_offload(gpus)),
        other => Err(format!(
            "unknown plan kind '{other}' (dp|zero-dp|zero3|zero-offload)"
        )),
    }
}

impl SubmitOp {
    /// Resolves the op into a [`JobSpec`]: model by name, plan by kind at
    /// the requested degree, resources scaled from the A800 node shape.
    ///
    /// # Errors
    ///
    /// Unknown model/plan names and structurally infeasible plans.
    pub fn resolve(&self) -> Result<JobSpec, String> {
        let model = ModelSpec::by_name(&self.model).ok_or_else(|| {
            let names: Vec<String> = ModelSpec::zoo().into_iter().map(|m| m.name).collect();
            format!(
                "unknown model '{}'; available: {}",
                self.model,
                names.join(", ")
            )
        })?;
        if self.gpus == 0 {
            return Err(format!("job {}: gpus must be at least 1", self.job));
        }
        if self.target_batches == 0 {
            return Err(format!(
                "job {}: target_batches must be at least 1",
                self.job
            ));
        }
        if self.batch == Some(0) {
            return Err(format!("job {}: batch must be at least 1", self.job));
        }
        let batch = self.batch.unwrap_or(model.default_batch);
        let plan = plan_by_kind(&self.plan, self.gpus)?;
        plan.validate(&model, batch)
            .map_err(|e| format!("job {}: infeasible initial plan: {e}", self.job))?;
        let shape = NodeShape::a800();
        let requested = Resources::new(
            self.gpus,
            (shape.cpus as f64 * self.gpus as f64 / shape.gpus as f64).round() as u32,
            shape.mem_gb * self.gpus as f64 / shape.gpus as f64,
        );
        Ok(JobSpec {
            id: self.job,
            model,
            global_batch: batch,
            submit_time: self.at.unwrap_or(0.0),
            target_batches: self.target_batches,
            requested,
            initial_plan: plan,
            class: self.class,
            tenant: TenantId(self.tenant.clone()),
        })
    }
}

/// One protocol operation, parsed from an NDJSON line.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeOp {
    /// Accept a new job.
    Submit(SubmitOp),
    /// Withdraw a job at simulation time `at` (default: the session clock).
    Cancel {
        /// The job to withdraw.
        job: JobId,
        /// Cancellation time, simulation seconds.
        at: Option<f64>,
    },
    /// Advance the session clock to `until`, processing every due event.
    Advance {
        /// Target simulation time, seconds.
        until: f64,
    },
    /// Report the session state (read-only; never journalled).
    Status,
    /// Compact the session log (drops event lines, keeps the op journal).
    Snapshot,
    /// End the session.
    Shutdown,
}

/// A field or JSON error of a protocol line, worded as the op error it
/// is rather than as an event-log error.
fn invalid_op(e: rubick_obs::EventParseError) -> String {
    format!("invalid op: {}", e.message())
}

impl ServeOp {
    /// Parses one NDJSON protocol line.
    ///
    /// # Errors
    ///
    /// Malformed JSON, unknown op types, missing required fields, each
    /// worded `invalid op: …`.
    pub fn parse(line: &str) -> Result<ServeOp, String> {
        let obj = JsonObject::parse(line).map_err(invalid_op)?;
        ServeOp::from_object(&obj)
    }

    /// Builds an op from an already-parsed JSON object (how [`recover`]
    /// reads the journal, whose lines arrive pre-classified).
    ///
    /// # Errors
    ///
    /// Unknown op types and missing required fields; a missing or
    /// mistyped field is worded `invalid op: …`.
    pub fn from_object(obj: &JsonObject) -> Result<ServeOp, String> {
        match obj.ty().map_err(invalid_op)? {
            "submit" => {
                let class = match obj.opt_str("class").map_err(invalid_op)? {
                    None | Some("guaranteed") => JobClass::Guaranteed,
                    Some("best-effort") => JobClass::BestEffort,
                    Some(other) => {
                        return Err(format!("unknown class '{other}' (guaranteed|best-effort)"))
                    }
                };
                let batch = if obj.contains("batch") {
                    Some(obj.uint32("batch").map_err(invalid_op)?)
                } else {
                    None
                };
                Ok(ServeOp::Submit(SubmitOp {
                    job: obj.uint("job").map_err(invalid_op)?,
                    model: obj.str("model").map_err(invalid_op)?.to_string(),
                    gpus: obj.uint32("gpus").map_err(invalid_op)?,
                    batch,
                    target_batches: obj.uint_or(1000, "target_batches").map_err(invalid_op)?,
                    class,
                    tenant: obj
                        .opt_str("tenant")
                        .map_err(invalid_op)?
                        .unwrap_or_default()
                        .to_string(),
                    plan: obj
                        .opt_str("plan")
                        .map_err(invalid_op)?
                        .unwrap_or("dp")
                        .to_string(),
                    at: if obj.contains("at") {
                        obj.opt_num("at").map_err(invalid_op)?
                    } else {
                        None
                    },
                }))
            }
            "cancel" => Ok(ServeOp::Cancel {
                job: obj.uint("job").map_err(invalid_op)?,
                at: if obj.contains("at") {
                    obj.opt_num("at").map_err(invalid_op)?
                } else {
                    None
                },
            }),
            "advance" => Ok(ServeOp::Advance {
                until: obj.num("until").map_err(invalid_op)?,
            }),
            "status" => Ok(ServeOp::Status),
            "snapshot" => Ok(ServeOp::Snapshot),
            "shutdown" => Ok(ServeOp::Shutdown),
            other => Err(format!(
                "unknown op '{other}' (submit|cancel|advance|status|snapshot|shutdown)"
            )),
        }
    }

    /// Canonical one-line serialization; `parse` ∘ `to_jsonl` is the
    /// identity, which is what lets [`recover`] re-serialize a journalled
    /// op byte-for-byte.
    pub fn to_jsonl(&self) -> String {
        let mut w = JsonWriter::new(self.kind());
        match self {
            ServeOp::Submit(s) => {
                w.uint("job", s.job);
                w.str("model", &s.model);
                w.uint("gpus", u64::from(s.gpus));
                if let Some(batch) = s.batch {
                    w.uint("batch", u64::from(batch));
                }
                w.uint("target_batches", s.target_batches);
                w.str("class", s.class.label());
                w.str("tenant", &s.tenant);
                w.str("plan", &s.plan);
                if let Some(at) = s.at {
                    w.num("at", at);
                }
            }
            ServeOp::Cancel { job, at } => {
                w.uint("job", *job);
                if let Some(at) = at {
                    w.num("at", *at);
                }
            }
            ServeOp::Advance { until } => w.num("until", *until),
            ServeOp::Status | ServeOp::Snapshot | ServeOp::Shutdown => {}
        }
        w.finish()
    }

    /// The op's wire label (its JSON `type` field).
    fn kind(&self) -> &'static str {
        match self {
            ServeOp::Submit(_) => "submit",
            ServeOp::Cancel { .. } => "cancel",
            ServeOp::Advance { .. } => "advance",
            ServeOp::Status => "status",
            ServeOp::Snapshot => "snapshot",
            ServeOp::Shutdown => "shutdown",
        }
    }

    /// Whether the op mutates session state (and is therefore journalled).
    pub fn is_journalled(&self) -> bool {
        matches!(
            self,
            ServeOp::Submit(_) | ServeOp::Cancel { .. } | ServeOp::Advance { .. }
        )
    }
}

/// A point-in-time view of a session, rendered by the `status` reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionState {
    /// The session clock: the last `advance` target, simulation seconds.
    pub clock: f64,
    /// The engine clock: the time of the last processed event.
    pub now: f64,
    /// Jobs currently holding resources.
    pub running: usize,
    /// Jobs waiting in the queue.
    pub queued: usize,
    /// Jobs that left the active set (completed or cancelled).
    pub finished: usize,
    /// Simulation time of the next queued event, if any.
    pub next_event: Option<f64>,
}

/// The session's answer to one op, serialized as one NDJSON line.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeReply {
    /// The op was applied.
    Ok {
        /// Which op this acknowledges.
        op: &'static str,
        /// The job id involved, when the op names one.
        job: Option<JobId>,
    },
    /// A state snapshot (`advance` and `status` replies).
    State(SessionState),
    /// The log was compacted.
    Compacted {
        /// Event lines dropped by this compaction.
        events_dropped: u64,
    },
}

impl ServeReply {
    /// One-line JSON serialization of the reply.
    pub fn to_jsonl(&self) -> String {
        match self {
            ServeReply::Ok { op, job } => {
                let mut w = JsonWriter::new("ok");
                w.str("op", op);
                if let Some(job) = job {
                    w.uint("job", *job);
                }
                w.finish()
            }
            ServeReply::State(s) => {
                let mut w = JsonWriter::new("state");
                w.num("clock", s.clock);
                w.num("now", s.now);
                w.uint("running", s.running as u64);
                w.uint("queued", s.queued as u64);
                w.uint("finished", s.finished as u64);
                w.opt_num("next_event", s.next_event);
                w.finish()
            }
            ServeReply::Compacted { events_dropped } => marker_line(*events_dropped),
        }
    }
}

fn marker_line(events_dropped: u64) -> String {
    let mut w = JsonWriter::new("compacted");
    w.uint("events_dropped", events_dropped);
    w.finish()
}

/// The append-only session journal.
struct ServeLog {
    path: PathBuf,
    file: BufWriter<File>,
    header: String,
    /// Journalled op lines, in order (the compaction rewrite keeps these).
    ops: Vec<String>,
    /// Event lines removed by earlier compactions (cumulative).
    events_dropped: u64,
    /// Event lines currently in the file.
    events_logged: u64,
    /// Bytes currently in the file (header, ops, events, markers —
    /// newlines included). Drops back to the rewritten size on compaction,
    /// which is what the auto-compaction threshold watches.
    bytes: u64,
    /// First I/O error, sticky: later writes are no-ops and every later
    /// [`check`](ServeLog::check) reports it, because a journal that lost
    /// a line (or whose handle points at a replaced file) cannot replay.
    error: Option<io::Error>,
    /// The event line being written, reused across events.
    line: String,
}

impl ServeLog {
    fn create(path: &Path, header: String) -> io::Result<ServeLog> {
        let mut file = BufWriter::new(File::create(path)?);
        file.write_all(header.as_bytes())?;
        file.write_all(b"\n")?;
        file.flush()?;
        let bytes = header.len() as u64 + 1;
        Ok(ServeLog {
            path: path.to_path_buf(),
            file,
            header,
            ops: Vec::new(),
            events_dropped: 0,
            events_logged: 0,
            bytes,
            error: None,
            line: String::with_capacity(256),
        })
    }

    fn write_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        let result = self
            .file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.write_all(b"\n"));
        match result {
            Ok(()) => self.bytes += line.len() as u64 + 1,
            Err(e) => self.error = Some(e),
        }
    }

    fn log_op(&mut self, line: String) {
        self.write_line(&line);
        self.ops.push(line);
        self.flush_soft();
    }

    fn flush_soft(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.file.flush() {
                self.error = Some(e);
            }
        }
    }

    fn check(&mut self) -> Result<(), String> {
        self.flush_soft();
        match &self.error {
            Some(e) => Err(format!("serve log '{}': {e}", self.path.display())),
            None => Ok(()),
        }
    }

    /// Rewrites the log to header + op journal + compaction marker,
    /// dropping every event line; returns how many were dropped.
    ///
    /// Failure-atomic: until the rename replaces the log, a failure leaves
    /// the file, the handle and the counters as they were. Once it has,
    /// the counters describe the new file, and a failure to reopen it is
    /// the sticky error (the old handle points at the unlinked file).
    fn compact(&mut self) -> Result<u64, String> {
        self.check()?;
        let dropped_now = self.events_logged;
        let events_dropped = self.events_dropped + dropped_now;
        let mut content = String::with_capacity(self.header.len() + 64 * (self.ops.len() + 2));
        content.push_str(&self.header);
        content.push('\n');
        for op in &self.ops {
            content.push_str(op);
            content.push('\n');
        }
        content.push_str(&marker_line(events_dropped));
        content.push('\n');
        let tmp = self.path.with_extension("tmp");
        let failed = |e: &io::Error| format!("compacting serve log '{}': {e}", self.path.display());
        std::fs::write(&tmp, &content)
            .and_then(|()| std::fs::rename(&tmp, &self.path))
            .map_err(|e| failed(&e))?;
        self.events_dropped = events_dropped;
        self.events_logged = 0;
        self.bytes = content.len() as u64;
        match OpenOptions::new().append(true).open(&self.path) {
            Ok(file) => {
                self.file = BufWriter::new(file);
                Ok(dropped_now)
            }
            Err(e) => {
                let message = failed(&e);
                self.error = Some(e);
                Err(message)
            }
        }
    }
}

/// The journal appends every engine event it observes.
impl EventSink for ServeLog {
    fn on_event(&mut self, event: &SimEvent) {
        let mut line = std::mem::take(&mut self.line);
        line.clear();
        event.write_jsonl(&mut line);
        self.write_line(&line);
        self.line = line;
        self.events_logged += 1;
    }
}

/// A live scheduling session: the stepped engine plus the session clock
/// and (optionally) the write-ahead journal.
pub struct ServeSession<'a> {
    engine: Engine<'a>,
    clock: f64,
    log: Option<ServeLog>,
    /// Auto-compaction threshold: when the journal exceeds this many
    /// bytes *and* holds at least one event line, the next applied op
    /// compacts it (`None` = compaction only via the `snapshot` op).
    auto_compact_bytes: Option<u64>,
}

impl<'a> ServeSession<'a> {
    /// A session without a journal (no crash recovery).
    pub fn new(engine: Engine<'a>) -> ServeSession<'a> {
        ServeSession {
            engine,
            clock: 0.0,
            log: None,
            auto_compact_bytes: None,
        }
    }

    /// A journalled session: creates (truncates) the log at `path` and
    /// writes the header line.
    ///
    /// # Errors
    ///
    /// Forwards log-file creation failures.
    pub fn with_log(
        engine: Engine<'a>,
        meta: &ServeMeta,
        path: &Path,
    ) -> io::Result<ServeSession<'a>> {
        let log = ServeLog::create(path, meta.header_line())?;
        Ok(ServeSession {
            engine,
            clock: 0.0,
            log: Some(log),
            auto_compact_bytes: None,
        })
    }

    /// Sets (or clears) the journal auto-compaction threshold in bytes.
    /// No-op for sessions without a journal. Compaction is the same
    /// rewrite the `snapshot` op performs, so a recovered session replays
    /// identically whether the log was compacted by hand or by size.
    pub fn set_auto_compact(&mut self, bytes: Option<u64>) {
        self.auto_compact_bytes = bytes;
    }

    /// Bytes currently in the journal file (`None` without a journal).
    pub fn log_bytes(&self) -> Option<u64> {
        self.log.as_ref().map(|log| log.bytes)
    }

    /// The current session state.
    pub fn state(&self) -> SessionState {
        SessionState {
            clock: self.clock,
            now: self.engine.now(),
            running: self.engine.running_jobs(),
            queued: self.engine.queued_jobs(),
            finished: self.engine.finished_jobs(),
            next_event: self.engine.next_event_time(),
        }
    }

    /// The session clock (the last `advance` target).
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Applies one protocol op. State-changing ops are journalled before
    /// they touch the engine (write-ahead); events emitted while applying
    /// go to the journal and to `sink`.
    ///
    /// # Errors
    ///
    /// Invalid ops (unknown model, duplicate job id, ...) and journal I/O
    /// failures. The engine is never mutated by an op that errors.
    pub fn apply(&mut self, op: &ServeOp, sink: &mut dyn EventSink) -> Result<ServeReply, String> {
        let reply = self.apply_inner(op, sink)?;
        self.maybe_auto_compact()?;
        Ok(reply)
    }

    fn apply_inner(
        &mut self,
        op: &ServeOp,
        sink: &mut dyn EventSink,
    ) -> Result<ServeReply, String> {
        match op {
            ServeOp::Submit(s) => {
                let spec = s.resolve()?;
                if self.engine.has_job(spec.id) {
                    return Err(format!("duplicate job id {}", spec.id));
                }
                self.journal(op)?;
                self.engine.submit(spec);
                Ok(ServeReply::Ok {
                    op: "submit",
                    job: Some(s.job),
                })
            }
            ServeOp::Cancel { job, at } => {
                self.journal(op)?;
                self.engine.cancel(at.unwrap_or(self.clock), *job);
                Ok(ServeReply::Ok {
                    op: "cancel",
                    job: Some(*job),
                })
            }
            ServeOp::Advance { until } => {
                // Journal the *resolved* target so replay reproduces the
                // clamped clock exactly.
                let until = until.max(self.clock);
                self.journal(&ServeOp::Advance { until })?;
                self.advance(until, sink)?;
                Ok(ServeReply::State(self.state()))
            }
            ServeOp::Status => Ok(ServeReply::State(self.state())),
            ServeOp::Snapshot => {
                let events_dropped = self.compact()?;
                Ok(ServeReply::Compacted { events_dropped })
            }
            ServeOp::Shutdown => Ok(ServeReply::Ok {
                op: "shutdown",
                job: None,
            }),
        }
    }

    /// Compacts the journal when it has outgrown the auto-compaction
    /// threshold. Requires at least one event line in the file: ops are
    /// retained by compaction, so rewriting an op-only journal could
    /// never shrink it below the threshold.
    fn maybe_auto_compact(&mut self) -> Result<(), String> {
        let Some(limit) = self.auto_compact_bytes else {
            return Ok(());
        };
        let over = self
            .log
            .as_ref()
            .is_some_and(|log| log.bytes > limit && log.events_logged > 0);
        if over {
            self.compact()?;
        }
        Ok(())
    }

    fn journal(&mut self, op: &ServeOp) -> Result<(), String> {
        if let Some(log) = &mut self.log {
            log.log_op(op.to_jsonl());
            log.check()?;
        }
        Ok(())
    }

    /// Advances the session clock to `until` (never backwards),
    /// processing every event at or before it.
    ///
    /// # Errors
    ///
    /// Journal I/O failures.
    pub fn advance(&mut self, until: f64, sink: &mut dyn EventSink) -> Result<StepOutcome, String> {
        let until = until.max(self.clock);
        self.clock = until;
        let outcome = {
            let ServeSession { engine, log, .. } = self;
            let mut fan = FanoutSink::new();
            if let Some(log) = log {
                fan.push(log);
            }
            fan.push(sink);
            loop {
                match engine.step(Some(until), &mut fan) {
                    StepOutcome::Advanced { .. } => {}
                    other => break other,
                }
            }
        };
        if let Some(log) = &mut self.log {
            log.check()?;
        }
        Ok(outcome)
    }

    /// Compacts the journal (see module docs); no-op without a log.
    ///
    /// # Errors
    ///
    /// Journal I/O failures.
    pub fn compact(&mut self) -> Result<u64, String> {
        match &mut self.log {
            Some(log) => log.compact(),
            None => Ok(0),
        }
    }

    /// Ends the session and folds the final [`SimReport`].
    pub fn finish(mut self) -> SimReport {
        if let Some(log) = &mut self.log {
            log.flush_soft();
        }
        self.engine.finish_report()
    }
}

/// What [`recover`] found in the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// State-changing ops replayed through the fresh engine.
    pub ops_replayed: usize,
    /// Event lines regenerated by the replay.
    pub events_replayed: usize,
    /// Event lines found in the log and verified against the replay.
    pub events_verified: usize,
    /// Whether the log ended in a torn (partially written) line.
    pub torn_tail: bool,
}

/// A recovered session plus what it took to get there.
pub struct Recovery<'a> {
    /// The session, positioned exactly where the logged session was.
    pub session: ServeSession<'a>,
    /// Replay statistics.
    pub stats: RecoveryStats,
}

/// The regenerated event stream as replay sees it: every event is counted,
/// and those at or past `from` (the compaction offset; the journal keeps
/// no event line before it) are rendered into one buffer, each followed
/// by `\n`. Verification and heal read nothing else.
struct TailSink {
    from: usize,
    seen: usize,
    text: String,
    /// Where each rendered line starts in `text`.
    starts: Vec<usize>,
}

impl TailSink {
    fn new(from: usize) -> TailSink {
        TailSink {
            from,
            seen: 0,
            text: String::new(),
            starts: Vec::new(),
        }
    }

    /// The rendered line of event `k` (counted from the session start).
    fn line(&self, k: usize) -> Option<&str> {
        let i = k.checked_sub(self.from)?;
        let start = *self.starts.get(i)?;
        let end = self.starts.get(i + 1).copied().unwrap_or(self.text.len());
        Some(&self.text[start..end - 1])
    }

    /// Events `k..`, each line followed by `\n`.
    fn lines_from(&self, k: usize) -> &str {
        match k.checked_sub(self.from).and_then(|i| self.starts.get(i)) {
            Some(&start) => &self.text[start..],
            None => "",
        }
    }
}

impl EventSink for TailSink {
    fn on_event(&mut self, event: &SimEvent) {
        if self.seen >= self.from {
            self.starts.push(self.text.len());
            event.write_jsonl(&mut self.text);
            self.text.push('\n');
        }
        self.seen += 1;
    }
}

/// What a retained journal line is, which fixes its canonical rendering.
enum Retained {
    Header,
    Op,
    Marker,
    Event,
}

/// Whether `text` is exactly `lines`, each followed by `\n`.
fn is_text_of<'s>(text: &str, lines: impl Iterator<Item = &'s str>) -> bool {
    let mut rest = text;
    for line in lines {
        match rest.strip_prefix(line).and_then(|r| r.strip_prefix('\n')) {
            Some(r) => rest = r,
            None => return false,
        }
    }
    rest.is_empty()
}

/// Recovers a session from its journal: replays the logged ops through
/// `engine` (which must be constructed exactly as the original — same
/// scheduler, seed and cluster), verifies the regenerated event stream
/// against the logged one, heals a torn tail, and reattaches the journal
/// in append mode. Every regenerated event is forwarded to `sink`, so
/// event subscribers can rebuild their state alongside the engine.
///
/// A journal that is already canonical and not torn (the common case: a
/// clean shutdown, or a crash between lines) is not rewritten; recovery
/// only appends the events it is missing, if any.
///
/// # Errors
///
/// Unreadable or corrupt logs, parameter mismatches between the log
/// header and `engine`, and replay divergence (the logged events do not
/// match what the deterministic replay regenerates).
pub fn recover<'a>(
    path: impl AsRef<Path>,
    engine: Engine<'a>,
    sink: &mut dyn EventSink,
) -> Result<Recovery<'a>, String> {
    let path = path.as_ref();
    let log = read_event_log_tolerant(path)
        .map_err(|e| format!("cannot read serve log '{}': {e}", path.display()))?
        .map_err(|e| format!("serve log '{}': {e}", path.display()))?;
    let mut meta: Option<ServeMeta> = None;
    let mut ops: Vec<ServeOp> = Vec::new();
    // Each op's canonical line, rendered once for heal and the journal.
    let mut op_lines: Vec<String> = Vec::new();
    let mut events_dropped: u64 = 0;
    // The index in `log.lines` of each event line.
    let mut logged_events: Vec<usize> = Vec::new();
    let mut retained: Vec<Retained> = Vec::with_capacity(log.lines.len());
    for (i, line) in log.lines.iter().enumerate() {
        let kind = match line {
            LogLine::Schema(_) => {
                return Err(format!(
                    "serve log '{}': unexpected bare event-schema header",
                    path.display()
                ))
            }
            LogLine::Event(_) => {
                logged_events.push(i);
                Retained::Event
            }
            LogLine::Other(obj) => {
                let ty = obj.ty().map_err(|e| e.to_string())?;
                match ty {
                    "serve" => {
                        if meta.is_some() {
                            return Err(format!(
                                "serve log '{}': duplicate header line",
                                path.display()
                            ));
                        }
                        meta = Some(ServeMeta::parse(obj)?);
                        Retained::Header
                    }
                    "submit" | "cancel" | "advance" => {
                        let op = ServeOp::from_object(obj)?;
                        op_lines.push(op.to_jsonl());
                        ops.push(op);
                        Retained::Op
                    }
                    "compacted" => {
                        events_dropped = obj.uint("events_dropped").map_err(|e| e.to_string())?;
                        Retained::Marker
                    }
                    other => {
                        return Err(format!(
                            "serve log '{}': unexpected line type '{other}'",
                            path.display()
                        ))
                    }
                }
            }
        };
        retained.push(kind);
    }
    let meta = meta.ok_or_else(|| {
        format!(
            "serve log '{}' has no header line — not a serve journal",
            path.display()
        )
    })?;
    if meta.scheduler != engine.scheduler_name() {
        return Err(format!(
            "serve log '{}' was written by scheduler '{}', engine runs '{}'",
            path.display(),
            meta.scheduler,
            engine.scheduler_name()
        ));
    }

    // Replay the op journal through the fresh engine, rendering the
    // regenerated events the journal can hold beside the caller's sink.
    let offset = events_dropped as usize;
    let mut session = ServeSession::new(engine);
    let mut tail = TailSink::new(offset);
    {
        let mut fan = FanoutSink::new();
        fan.push(&mut tail);
        fan.push(sink);
        for (i, op) in ops.iter().enumerate() {
            session
                .apply(op, &mut fan)
                .map_err(|e| format!("replaying journalled op {i}: {e}"))?;
        }
    }

    // Verify: the logged events must match the replay at the compaction
    // offset, compared as rendered lines. Replay may run *longer* than the
    // log (a crash mid-advance journals the op but only a prefix of its
    // events) — never shorter. A logged line equal to the rendering needs
    // no parse; one that differs may still be the same event written
    // differently (reordered keys, `1.50`), so its parsed event is
    // rendered and compared.
    for (i, &at) in logged_events.iter().enumerate() {
        let Some(replayed) = tail.line(offset + i) else {
            return Err(format!(
                "serve log '{}' has {} event line(s) beyond what replay regenerates",
                path.display(),
                logged_events.len() + offset - tail.seen
            ));
        };
        if replayed == log.raw(at) {
            continue;
        }
        let logged = match &log.lines[at] {
            LogLine::Event(e) => e.to_jsonl(),
            _ => unreachable!("logged_events indexes event lines"),
        };
        if logged != replayed {
            return Err(format!(
                "serve log '{}' diverges from deterministic replay at event {}: \
                 logged {logged} vs replayed {replayed}",
                path.display(),
                offset + i
            ));
        }
    }
    if offset > tail.seen {
        return Err(format!(
            "serve log '{}' claims {offset} compacted event(s) but replay regenerates only {}",
            path.display(),
            tail.seen
        ));
    }

    // Heal: the file must hold the retained lines canonically (the torn
    // tail dropped) followed by the events the log was missing — what an
    // uninterrupted session would have written. A file that already holds
    // the canonical lines only gets the missing events appended; any other
    // is rewritten whole.
    let header = meta.header_line();
    let marker = marker_line(events_dropped);
    let (header_str, marker_str, tail_lines) = (header.as_str(), marker.as_str(), &tail);
    let canonical = || {
        let mut op_line = op_lines.iter();
        let mut event = offset;
        retained.iter().map(move |kind| match kind {
            Retained::Header => header_str,
            Retained::Marker => marker_str,
            Retained::Op => op_line.next().map_or("", String::as_str),
            Retained::Event => {
                event += 1;
                tail_lines.line(event - 1).unwrap_or_default()
            }
        })
    };
    let missing = tail.lines_from(offset + logged_events.len());
    let (file, bytes) = if !log.torn_tail && is_text_of(&log.text, canonical()) {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .and_then(|mut file| file.write_all(missing.as_bytes()).map(|()| file));
        (file, log.text.len() + missing.len())
    } else {
        let mut content = String::with_capacity(log.text.len() + missing.len());
        for line in canonical() {
            content.push_str(line);
            content.push('\n');
        }
        content.push_str(missing);
        let tmp = path.with_extension("tmp");
        let file = std::fs::write(&tmp, &content)
            .and_then(|()| std::fs::rename(&tmp, path))
            .and_then(|()| OpenOptions::new().append(true).open(path));
        (file, content.len())
    };
    let file = file.map_err(|e| format!("healing serve log '{}': {e}", path.display()))?;
    session.log = Some(ServeLog {
        path: path.to_path_buf(),
        file: BufWriter::new(file),
        header,
        ops: op_lines,
        events_dropped,
        events_logged: (tail.seen - offset) as u64,
        bytes: bytes as u64,
        error: None,
        line: String::with_capacity(256),
    });
    Ok(Recovery {
        stats: RecoveryStats {
            ops_replayed: ops.len(),
            events_replayed: tail.seen,
            events_verified: logged_events.len(),
            torn_tail: log.torn_tail,
        },
        session,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Allocation, Cluster};
    use crate::engine::EngineConfig;
    use crate::job::JobStatus;
    use crate::scheduler::{Assignment, JobSnapshot, Scheduler};
    use crate::tenant::Tenant;
    use rubick_obs::{NullSink, VecSink};
    use rubick_testbed::TestbedOracle;

    /// Minimal FIFO gang scheduler (mirrors the engine test double).
    struct Fifo;

    impl Scheduler for Fifo {
        fn name(&self) -> &str {
            "fifo-test"
        }

        fn schedule(
            &mut self,
            _now: f64,
            jobs: &[JobSnapshot],
            cluster: &Cluster,
            _tenants: &[Tenant],
        ) -> Vec<Assignment> {
            let mut free: Vec<Resources> = cluster.nodes().iter().map(|n| n.free).collect();
            let mut out = Vec::new();
            for job in jobs {
                if let JobStatus::Running {
                    allocation, plan, ..
                } = &job.status
                {
                    out.push(Assignment {
                        job: job.id(),
                        allocation: allocation.clone(),
                        plan: *plan,
                    });
                    continue;
                }
                let want = job.spec.requested;
                if let Some((node, f)) = free
                    .iter_mut()
                    .enumerate()
                    .find(|(_, f)| f.dominates(&want))
                {
                    *f -= want;
                    out.push(Assignment {
                        job: job.id(),
                        allocation: Allocation::on_node(node, want),
                        plan: job.spec.initial_plan,
                    });
                }
            }
            out
        }
    }

    fn engine(oracle: &TestbedOracle) -> Engine<'_> {
        Engine::new(
            oracle,
            Box::new(Fifo),
            Cluster::new(2, NodeShape::a800()),
            vec![],
            EngineConfig::default(),
        )
    }

    fn meta() -> ServeMeta {
        ServeMeta {
            scheduler: "fifo-test".to_string(),
            seed: 1,
            nodes: 2,
        }
    }

    fn submit_line(job: u64, batches: u64) -> String {
        format!(
            "{{\"type\":\"submit\",\"job\":{job},\"model\":\"roberta-355m\",\"gpus\":4,\
             \"target_batches\":{batches}}}"
        )
    }

    fn ops_script() -> Vec<ServeOp> {
        vec![
            ServeOp::parse(&submit_line(1, 400)).unwrap(),
            ServeOp::parse(&submit_line(2, 300)).unwrap(),
            ServeOp::parse("{\"type\":\"advance\",\"until\":600}").unwrap(),
            ServeOp::parse(&submit_line(3, 200)).unwrap(),
            ServeOp::parse("{\"type\":\"cancel\",\"job\":2}").unwrap(),
            ServeOp::parse("{\"type\":\"advance\",\"until\":40000}").unwrap(),
        ]
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "rubick-serve-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn ops_round_trip_through_jsonl() {
        let lines = [
            "{\"type\":\"submit\",\"job\":7,\"model\":\"gpt2-1.5b\",\"gpus\":8,\"batch\":64,\
             \"target_batches\":500,\"class\":\"best-effort\",\"tenant\":\"team-a\",\
             \"plan\":\"zero-dp\",\"at\":120}",
            "{\"type\":\"cancel\",\"job\":7,\"at\":300}",
            "{\"type\":\"cancel\",\"job\":9}",
            "{\"type\":\"advance\",\"until\":3600}",
            "{\"type\":\"status\"}",
            "{\"type\":\"snapshot\"}",
            "{\"type\":\"shutdown\"}",
            // Quote, backslash, TAB, CR, LF, U+0001 and non-ASCII text.
            r#"{"type":"submit","job":8,"model":"m\"o\\d\te\rl\n\u0001-é","gpus":2,
               "tenant":"t\"e\\n\ta\rn\nt\u0001-ü","plan":"p\"l\\a\tn\r\n\u0001-ß"}"#,
        ];
        for line in lines {
            let op = ServeOp::parse(line).unwrap();
            let rendered = op.to_jsonl();
            assert_eq!(ServeOp::parse(&rendered).unwrap(), op, "{line}");
            // Canonical form is a fixed point.
            assert_eq!(ServeOp::parse(&rendered).unwrap().to_jsonl(), rendered);
        }
        let ServeOp::Submit(odd) = ServeOp::parse(lines[7]).unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(odd.model, "m\"o\\d\te\rl\n\u{1}-é");
        // Control characters escape as event lines do: TAB and CR by name.
        let rendered = ServeOp::Submit(odd).to_jsonl();
        assert!(
            rendered.contains(r#""model":"m\"o\\d\te\rl\n\u0001-é""#),
            "{rendered}"
        );
    }

    #[test]
    fn bad_op_lines_are_worded_as_op_errors() {
        assert_eq!(
            ServeOp::parse(r#"{"type":"sta"#).unwrap_err(),
            "invalid op: unterminated string"
        );
        let no_job = r#"{"type":"submit","model":"roberta-355m","gpus":4}"#;
        assert_eq!(
            ServeOp::parse(no_job).unwrap_err(),
            r#"invalid op: missing field "job""#
        );
        let obj = JsonObject::parse(no_job).unwrap();
        assert_eq!(
            ServeOp::from_object(&obj).unwrap_err(),
            r#"invalid op: missing field "job""#
        );
        // The event-log reader keeps its own wording for the same fault.
        let event_err = JsonObject::parse(r#"{"type":"sta"#).unwrap_err();
        assert_eq!(event_err.message(), "unterminated string");
        assert_eq!(
            event_err.to_string(),
            "invalid event line: unterminated string"
        );
    }

    #[test]
    fn non_finite_numbers_are_rejected_and_never_journalled() {
        for (line, field) in [
            (r#"{"type":"advance","until":1e999}"#, "until"),
            (r#"{"type":"cancel","job":1,"at":1e999}"#, "at"),
            (
                r#"{"type":"submit","job":4,"model":"roberta-355m","gpus":4,"at":-1e999}"#,
                "at",
            ),
        ] {
            let err = ServeOp::parse(line).unwrap_err();
            assert!(
                err.contains(&format!("field {field:?}")) && err.contains("not finite"),
                "{line}: {err}"
            );
        }

        // A session fed the rejected lines between valid ops journals only
        // the valid ones, so its log still recovers.
        let path = temp_path("non-finite");
        let oracle = TestbedOracle::new(1);
        let mut session = ServeSession::with_log(engine(&oracle), &meta(), &path).unwrap();
        let script = [
            submit_line(1, 400),
            r#"{"type":"advance","until":1e999}"#.to_string(),
            "{\"type\":\"advance\",\"until\":600}".to_string(),
            r#"{"type":"cancel","job":1,"at":1e999}"#.to_string(),
        ];
        for line in &script {
            if let Ok(op) = ServeOp::parse(line) {
                session.apply(&op, &mut NullSink).unwrap();
            }
        }
        let report = format!("{:?}", session.finish());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("inf") && !text.contains("1e999"), "{text}");
        let recovery = recover(&path, engine(&oracle), &mut NullSink).unwrap();
        assert_eq!(recovery.stats.ops_replayed, 2);
        assert_eq!(format!("{:?}", recovery.session.finish()), report);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn submit_defaults_resolve_against_the_zoo() {
        let ServeOp::Submit(op) = ServeOp::parse(&submit_line(1, 400)).unwrap() else {
            panic!("expected submit");
        };
        let spec = op.resolve().unwrap();
        assert_eq!(spec.id, 1);
        assert_eq!(spec.model.name, "roberta-355m");
        assert_eq!(spec.global_batch, spec.model.default_batch);
        assert_eq!(spec.requested.gpus, 4);
        assert_eq!(spec.requested.cpus, 48);
        assert_eq!(spec.class, JobClass::Guaranteed);
        assert_eq!(spec.initial_plan, ExecutionPlan::dp(4));
    }

    #[test]
    fn submit_rejects_unknown_names_helpfully() {
        let bad_model =
            ServeOp::parse("{\"type\":\"submit\",\"job\":1,\"model\":\"alexnet\",\"gpus\":4}")
                .unwrap();
        let ServeOp::Submit(op) = bad_model else {
            panic!()
        };
        let err = op.resolve().unwrap_err();
        assert!(err.contains("unknown model 'alexnet'"), "{err}");
        assert!(err.contains("gpt2-1.5b"), "{err}");
        let bad_plan = SubmitOp {
            model: "roberta-355m".to_string(),
            plan: "fsdp".to_string(),
            ..op
        };
        assert!(bad_plan.resolve().unwrap_err().contains("unknown plan"));
    }

    #[test]
    fn session_processes_ops_and_counts_jobs() {
        let oracle = TestbedOracle::new(1);
        let mut session = ServeSession::new(engine(&oracle));
        let mut sink = VecSink::default();
        let r1 = session
            .apply(&ServeOp::parse(&submit_line(1, 400)).unwrap(), &mut sink)
            .unwrap();
        assert_eq!(
            r1,
            ServeReply::Ok {
                op: "submit",
                job: Some(1)
            }
        );
        // Duplicate ids are a protocol error, engine untouched.
        let err = session
            .apply(&ServeOp::parse(&submit_line(1, 400)).unwrap(), &mut sink)
            .unwrap_err();
        assert!(err.contains("duplicate job id 1"), "{err}");
        session
            .apply(&ServeOp::parse(&submit_line(2, 300)).unwrap(), &mut sink)
            .unwrap();
        // Advance just past the submits: both jobs are placed by the
        // round at t=0 and neither can have finished yet.
        let reply = session
            .apply(&ServeOp::Advance { until: 1.0 }, &mut sink)
            .unwrap();
        let ServeReply::State(state) = reply else {
            panic!("advance replies with state");
        };
        assert_eq!(state.clock, 1.0);
        assert_eq!(state.running, 2);
        assert_eq!(state.finished, 0);
        assert!(!sink.events.is_empty());
        // Cancel one, run out the other.
        session
            .apply(&ServeOp::Cancel { job: 2, at: None }, &mut sink)
            .unwrap();
        session
            .apply(&ServeOp::Advance { until: 200_000.0 }, &mut sink)
            .unwrap();
        // The finished job 1 and the cancelled job 2 are both counted, and
        // neither id may be reused; the rejected submits change nothing.
        let done = session.state();
        assert_eq!((done.running, done.queued, done.finished), (0, 0, 2));
        for job in [1, 2] {
            let err = session
                .apply(&ServeOp::parse(&submit_line(job, 400)).unwrap(), &mut sink)
                .unwrap_err();
            assert!(err.contains(&format!("duplicate job id {job}")), "{err}");
        }
        assert_eq!(session.state(), done);
        let report = session.finish();
        assert_eq!(report.jobs.len(), 1, "cancelled job 2 has no record");
        assert!(report.unfinished.is_empty());
    }

    /// Runs the whole script in one journalled session; returns the log
    /// path, the final report (debug-formatted) and the event stream.
    fn run_full(tag: &str) -> (PathBuf, String, Vec<String>) {
        let path = temp_path(tag);
        let oracle = TestbedOracle::new(1);
        let mut session = ServeSession::with_log(engine(&oracle), &meta(), &path).unwrap();
        let mut sink = VecSink::default();
        for op in ops_script() {
            session.apply(&op, &mut sink).unwrap();
        }
        let report = session.finish();
        let events = sink.events.iter().map(SimEvent::to_jsonl).collect();
        (path, format!("{report:?}"), events)
    }

    #[test]
    fn auto_compaction_bounds_the_journal_and_restart_round_trips() {
        let (full_path, full_report, _) = run_full("ac-ref");
        let _ = std::fs::remove_file(full_path);

        let path = temp_path("ac");
        let oracle = TestbedOracle::new(1);
        let limit = 600u64;
        {
            let mut session = ServeSession::with_log(engine(&oracle), &meta(), &path).unwrap();
            session.set_auto_compact(Some(limit));
            let mut sink = NullSink;
            for op in ops_script() {
                session.apply(&op, &mut sink).unwrap();
                // Post-op the journal is back under the threshold: any
                // overflow was event lines, which compaction drops (the
                // retained ops + header + marker fit well below it here).
                let bytes = session.log_bytes().unwrap();
                assert!(bytes <= limit, "journal grew to {bytes} bytes");
            }
            // The long advance alone emits more than `limit` bytes of
            // events, so compaction must have fired at least once.
            drop(session); // simulate a kill: no finish(), buffers flush on drop
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("\"type\":\"compacted\""),
            "auto-compaction never fired:\n{text}"
        );

        // Restart round-trip: recovery from the auto-compacted journal
        // reaches the exact state of an uninterrupted session.
        let mut sink = VecSink::default();
        let recovery = recover(&path, engine(&oracle), &mut sink).unwrap();
        assert!(!recovery.stats.torn_tail);
        assert_eq!(recovery.stats.ops_replayed, ops_script().len());
        let report = recovery.session.finish();
        assert_eq!(format!("{report:?}"), full_report);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn killed_session_recovers_to_the_uninterrupted_state() {
        let (full_path, full_report, full_events) = run_full("full");
        let full_log = std::fs::read_to_string(&full_path).unwrap();

        // "Crash" a second session: apply only the first 3 ops, drop the
        // session without finishing, then tear the final line in half.
        let crash_path = temp_path("crash");
        let oracle = TestbedOracle::new(1);
        {
            let mut session =
                ServeSession::with_log(engine(&oracle), &meta(), &crash_path).unwrap();
            let mut sink = NullSink;
            for op in ops_script().into_iter().take(3) {
                session.apply(&op, &mut sink).unwrap();
            }
            // Dropped here: no finish(), simulating a kill.
        }
        let mut bytes = std::fs::read(&crash_path).unwrap();
        bytes.truncate(bytes.len() - 17);
        std::fs::write(&crash_path, &bytes).unwrap();

        // Recover and drive the remaining ops.
        let mut sink = VecSink::default();
        let recovery = recover(&crash_path, engine(&oracle), &mut sink).unwrap();
        assert!(recovery.stats.torn_tail);
        assert_eq!(recovery.stats.ops_replayed, 3);
        let mut session = recovery.session;
        for op in ops_script().into_iter().skip(3) {
            session.apply(&op, &mut sink).unwrap();
        }
        let report = session.finish();

        // Byte-identical journal, identical report, identical stream.
        assert_eq!(std::fs::read_to_string(&crash_path).unwrap(), full_log);
        assert_eq!(format!("{report:?}"), full_report);
        let replayed: Vec<String> = sink.events.iter().map(SimEvent::to_jsonl).collect();
        assert_eq!(replayed, full_events);
        std::fs::remove_file(&full_path).ok();
        std::fs::remove_file(&crash_path).ok();
    }

    #[test]
    fn compaction_bounds_the_log_and_survives_recovery() {
        let path = temp_path("compact");
        let oracle = TestbedOracle::new(1);
        let mut session = ServeSession::with_log(engine(&oracle), &meta(), &path).unwrap();
        let mut sink = NullSink;
        let script = ops_script();
        for op in &script[..3] {
            session.apply(op, &mut sink).unwrap();
        }
        let before = std::fs::read_to_string(&path).unwrap().lines().count();
        let ServeReply::Compacted { events_dropped } =
            session.apply(&ServeOp::Snapshot, &mut sink).unwrap()
        else {
            panic!("snapshot replies compacted");
        };
        assert!(events_dropped > 0);
        let after = std::fs::read_to_string(&path).unwrap().lines().count();
        assert!(after < before, "compaction shrank {before} -> {after}");
        for op in &script[3..] {
            session.apply(op, &mut sink).unwrap();
        }
        let full_report = format!("{:?}", session.finish());

        // Recovery replays the ops and verifies the post-marker events.
        let recovery = recover(&path, engine(&oracle), &mut NullSink).unwrap();
        assert_eq!(recovery.stats.ops_replayed, script.len());
        assert!(recovery.stats.events_verified < recovery.stats.events_replayed);
        assert_eq!(format!("{:?}", recovery.session.finish()), full_report);
        std::fs::remove_file(&path).ok();
    }

    /// A compaction whose tmp write fails (a directory sits at the tmp
    /// path) leaves the journal byte for byte and its counters as they
    /// were, so the next compaction reports every event line it removes.
    #[test]
    fn failed_compaction_leaves_the_journal_and_its_counts_intact() {
        let path = temp_path("compact-fail");
        let tmp = path.with_extension("tmp");
        std::fs::create_dir_all(&tmp).unwrap();
        let oracle = TestbedOracle::new(1);
        let mut session = ServeSession::with_log(engine(&oracle), &meta(), &path).unwrap();
        let mut sink = NullSink;
        let script = ops_script();
        for op in &script[..3] {
            session.apply(op, &mut sink).unwrap();
        }
        let before = std::fs::read(&path).unwrap();
        let err = session.apply(&ServeOp::Snapshot, &mut sink).unwrap_err();
        assert!(err.starts_with("compacting serve log"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), before);
        for op in &script[3..] {
            session.apply(op, &mut sink).unwrap();
        }
        std::fs::remove_dir(&tmp).unwrap();
        // Every line but the header and the journalled ops is an event.
        let lines = std::fs::read_to_string(&path).unwrap().lines().count();
        let events = (lines - 1 - script.len()) as u64;
        let ServeReply::Compacted { events_dropped } =
            session.apply(&ServeOp::Snapshot, &mut sink).unwrap()
        else {
            panic!("snapshot replies compacted");
        };
        assert_eq!(events_dropped, events);
        let full_report = format!("{:?}", session.finish());
        let recovery = recover(&path, engine(&oracle), &mut NullSink).unwrap();
        assert_eq!(format!("{:?}", recovery.session.finish()), full_report);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn submit_rejects_a_zero_batch() {
        let line =
            "{\"type\":\"submit\",\"job\":3,\"model\":\"roberta-355m\",\"gpus\":4,\"batch\":0}";
        let ServeOp::Submit(op) = ServeOp::parse(line).unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(op.resolve().unwrap_err(), "job 3: batch must be at least 1");
    }

    #[test]
    fn recovery_rejects_mismatched_scheduler_and_corrupt_logs() {
        let (path, _, _) = run_full("reject");
        let oracle = TestbedOracle::new(1);
        // Wrong scheduler in the engine.
        let text = std::fs::read_to_string(&path).unwrap();
        let swapped = text.replace("\"scheduler\":\"fifo-test\"", "\"scheduler\":\"other\"");
        std::fs::write(&path, &swapped).unwrap();
        let err = recover(&path, engine(&oracle), &mut NullSink)
            .err()
            .unwrap();
        assert!(err.contains("written by scheduler 'other'"), "{err}");
        // A tampered event line (divergence) is caught, not silently kept.
        let tampered: String = text
            .lines()
            .map(|l| {
                if l.contains("\"type\":\"job_submitted\"") && l.contains("\"job\":3") {
                    l.replace("\"job\":3", "\"job\":33")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        std::fs::write(&path, format!("{tampered}\n")).unwrap();
        let err = recover(&path, engine(&oracle), &mut NullSink)
            .err()
            .unwrap();
        assert!(err.contains("diverges from deterministic replay"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
