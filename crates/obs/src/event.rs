//! The event vocabulary and its JSONL form: [`SimEvent`], the schema
//! header, and the tolerant event-log reader.

use crate::json::{EventParseError, JsonObject, JsonWriter};
use std::fmt;
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// What kind of placement decision a [`SimEvent::DecisionApplied`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// A queued job was granted resources for the first time.
    Launch,
    /// A running job was preempted back to the queue.
    Preempt,
}

impl DecisionKind {
    /// Stable wire label used in the JSONL encoding.
    pub fn label(&self) -> &'static str {
        match self {
            DecisionKind::Launch => "launch",
            DecisionKind::Preempt => "preempt",
        }
    }
}

/// One typed simulation event.
///
/// The engine emits exactly one event per state transition, in
/// deterministic order; sinks observe the same sequence the engine's own
/// report fold sees.
///
/// The label fields (`plan`, `model`, `tenant`, `class`) are shared
/// `Arc<str>`s, so an emitter can give every event one allocation per
/// distinct label and a fold can keep it with a refcount bump. Free-form
/// text (`reason`, `old_params`, `new_params`) stays an owned `String`.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// A job arrived and entered the queue.
    JobSubmitted {
        /// Simulation time, s.
        at: f64,
        /// Job id.
        job: u64,
        /// Owning tenant name (empty for the default tenant).
        tenant: Arc<str>,
        /// Scheduling class label (`guaranteed` / `best-effort`).
        class: Arc<str>,
        /// Model type name.
        model: Arc<str>,
        /// GPUs requested by the user.
        gpus: u32,
        /// CPUs requested by the user.
        cpus: u32,
        /// Host memory requested by the user, GB.
        mem_gb: f64,
        /// User-chosen execution-plan label.
        plan: Arc<str>,
    },
    /// A scheduling round ran over a non-empty job snapshot.
    RoundStarted {
        /// Simulation time, s.
        at: f64,
        /// 1-based round number (shared with [`SimEvent::TickSkipped`]).
        round: u64,
        /// Unfinished jobs visible to the policy this round.
        active_jobs: u64,
    },
    /// A launch or preemption took effect.
    DecisionApplied {
        /// Simulation time, s.
        at: f64,
        /// Job id.
        job: u64,
        /// Launch or preempt.
        kind: DecisionKind,
        /// GPUs granted (launch) or released (preempt).
        gpus: u32,
        /// Execution-plan label granted (launch) or vacated (preempt).
        plan: Arc<str>,
        /// Measured throughput in samples/s (0 for preemptions).
        throughput: f64,
    },
    /// A running job moved to a new allocation and/or execution plan.
    Reconfigured {
        /// Simulation time, s.
        at: f64,
        /// Job id.
        job: u64,
        /// GPUs granted after the change.
        gpus: u32,
        /// New execution-plan label.
        plan: Arc<str>,
        /// Checkpoint-resume delay charged, s.
        delay: f64,
    },
    /// An assignment could not take effect (overcommit or testbed OOM).
    LaunchFailed {
        /// Simulation time, s.
        at: f64,
        /// Job id.
        job: u64,
        /// Why the launch failed.
        reason: String,
    },
    /// A job completed; carries the full per-job accounting record.
    JobFinished {
        /// Completion time, s.
        at: f64,
        /// Job id.
        job: u64,
        /// Owning tenant name (empty for the default tenant).
        tenant: Arc<str>,
        /// Scheduling class label (`guaranteed` / `best-effort`).
        class: Arc<str>,
        /// Model type name.
        model: Arc<str>,
        /// Submission time, s.
        submit_time: f64,
        /// First launch time, s (absent if the job never ran).
        first_start: Option<f64>,
        /// Checkpoint-resume cycles after the first launch.
        reconfig_count: u32,
        /// Seconds spent in checkpoint-resume windows.
        reconfig_time: f64,
        /// GPU-seconds lost to checkpoint-resume windows.
        reconfig_gpu_seconds: f64,
        /// GPU-seconds consumed while holding resources.
        gpu_seconds: f64,
        /// Seconds spent holding resources.
        runtime: f64,
        /// Mini-batches completed.
        target_batches: u64,
        /// Throughput of the user-requested configuration, samples/s.
        baseline_throughput: Option<f64>,
        /// Average achieved throughput, samples/s.
        avg_throughput: f64,
    },
    /// A scheduling round fired with no unfinished jobs to consider.
    TickSkipped {
        /// Simulation time, s.
        at: f64,
        /// 1-based round number (shared with [`SimEvent::RoundStarted`]).
        round: u64,
    },
    /// A node failed; its capacity is gone until recovery (schema v2).
    NodeFailed {
        /// Simulation time, s.
        at: f64,
        /// Failed node index.
        node: u64,
    },
    /// A failed node came back, fully free (schema v2).
    NodeRecovered {
        /// Simulation time, s.
        at: f64,
        /// Recovered node index.
        node: u64,
    },
    /// A running job was evicted because a node under it failed (schema
    /// v2). The job re-enters the queue; progress survives via its
    /// checkpoint.
    JobPreemptedByFault {
        /// Simulation time, s.
        at: f64,
        /// Job id.
        job: u64,
        /// The failed node that triggered the eviction.
        node: u64,
        /// GPUs the job held when evicted.
        gpus: u32,
        /// Execution-plan label the job was running when evicted.
        plan: Arc<str>,
    },
    /// A fault-evicted job relaunched; emitted immediately before the
    /// matching [`SimEvent::Reconfigured`] (schema v2).
    JobRestarted {
        /// Simulation time, s.
        at: f64,
        /// Job id.
        job: u64,
        /// GPUs granted by the relaunch.
        gpus: u32,
        /// Execution-plan label of the relaunch (may differ from the plan
        /// at eviction when the policy re-plans for the shrunken cluster).
        plan: Arc<str>,
        /// Extra restart delay charged on top of checkpoint-resume, s.
        penalty: f64,
    },
    /// A job was cancelled by its owner before completing (schema v4).
    /// Cancelled jobs leave the simulation without a
    /// [`SimEvent::JobFinished`] record: they count neither as finished
    /// nor as unfinished in the report fold.
    JobCancelled {
        /// Simulation time, s.
        at: f64,
        /// Job id.
        job: u64,
        /// GPUs released (0 if the job was queued).
        gpus: u32,
        /// Execution-plan label vacated (empty if the job was queued).
        plan: Arc<str>,
    },
    /// Incremental-planning statistics for one scheduling round (schema
    /// v3). Emitted right after the policy returns, before decisions are
    /// applied, and only when the engine is configured to surface them
    /// (`emit_round_planned`) **and** the policy tracks dirty sets —
    /// existing streams stay byte-identical by default.
    RoundPlanned {
        /// Simulation time, s.
        at: f64,
        /// 1-based round number (shared with [`SimEvent::RoundStarted`]).
        round: u64,
        /// Jobs whose planning inputs changed and were re-searched.
        dirty: u64,
        /// Jobs whose prior assignment was provably still optimal-feasible.
        clean: u64,
        /// Clean running jobs whose allocation/plan were emitted verbatim
        /// without invoking the plan search.
        reused: u64,
        /// Jobs actually visited by a plan search this round (dirty jobs
        /// plus any clean jobs whose skip certificate was voided
        /// mid-round). Absent in pre-delta streams; parses as 0.
        searched: u64,
        /// Fingerprint comparisons performed while classifying this round.
        /// Delta-fed quiet rounds keep this at O(changed) instead of
        /// O(jobs); absent in pre-delta streams, parses as 0.
        classified: u64,
    },
    /// An online refitter materially changed a model's throughput
    /// parameters from live observations (schema v5). Emitted by the
    /// engine only when a refit hook is attached (`--refit`), so default
    /// streams stay byte-identical to v4. The registry version bump that
    /// accompanies this event dirties every cached plan, so the next
    /// [`SimEvent::RoundPlanned`] re-plans the affected jobs.
    ModelRefit {
        /// Simulation time, s.
        at: f64,
        /// Zoo model name whose parameters were refit.
        model: Arc<str>,
        /// Maximum relative envelope shift between old and new predictions
        /// over the observation window (the material-change statistic).
        shift: f64,
        /// The 7 fittable parameters before the refit, comma-joined in
        /// `PerfParams::to_vec` order ([`params_to_str`]).
        old_params: String,
        /// The 7 fittable parameters after the refit, same encoding.
        new_params: String,
    },
}

/// Encodes a 7-parameter vector as a comma-joined string using Rust's
/// shortest round-trip `f64` formatting — the wire form of the
/// `old_params` / `new_params` fields of [`SimEvent::ModelRefit`].
pub fn params_to_str(params: &[f64; 7]) -> String {
    let mut out = String::with_capacity(64);
    for (i, v) in params.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        use fmt::Write as _;
        let _ = write!(out, "{v}");
    }
    out
}

/// Decodes a [`params_to_str`] string back into the 7-parameter vector,
/// bit-exactly.
///
/// # Errors
///
/// Wrong arity or unparseable components.
pub fn params_from_str(s: &str) -> Result<[f64; 7], EventParseError> {
    let mut out = [0.0f64; 7];
    let mut n = 0usize;
    for tok in s.split(',') {
        if n >= 7 {
            return Err(EventParseError::new("param vector has more than 7 entries"));
        }
        out[n] = tok
            .parse::<f64>()
            .map_err(|_| EventParseError::new(format!("bad param component {tok:?}")))?;
        n += 1;
    }
    if n != 7 {
        return Err(EventParseError::new(format!(
            "param vector has {n} entries, expected 7"
        )));
    }
    Ok(out)
}

impl SimEvent {
    /// The simulation time the event occurred at, seconds.
    pub fn at(&self) -> f64 {
        match self {
            SimEvent::JobSubmitted { at, .. }
            | SimEvent::RoundStarted { at, .. }
            | SimEvent::DecisionApplied { at, .. }
            | SimEvent::Reconfigured { at, .. }
            | SimEvent::LaunchFailed { at, .. }
            | SimEvent::JobFinished { at, .. }
            | SimEvent::TickSkipped { at, .. }
            | SimEvent::NodeFailed { at, .. }
            | SimEvent::NodeRecovered { at, .. }
            | SimEvent::JobPreemptedByFault { at, .. }
            | SimEvent::JobRestarted { at, .. }
            | SimEvent::JobCancelled { at, .. }
            | SimEvent::RoundPlanned { at, .. }
            | SimEvent::ModelRefit { at, .. } => *at,
        }
    }

    /// Stable wire label of the event's variant (the JSONL `type` field).
    pub fn kind(&self) -> &'static str {
        match self {
            SimEvent::JobSubmitted { .. } => "job_submitted",
            SimEvent::RoundStarted { .. } => "round_started",
            SimEvent::DecisionApplied { .. } => "decision_applied",
            SimEvent::Reconfigured { .. } => "reconfigured",
            SimEvent::LaunchFailed { .. } => "launch_failed",
            SimEvent::JobFinished { .. } => "job_finished",
            SimEvent::TickSkipped { .. } => "tick_skipped",
            SimEvent::NodeFailed { .. } => "node_failed",
            SimEvent::NodeRecovered { .. } => "node_recovered",
            SimEvent::JobPreemptedByFault { .. } => "job_preempted_by_fault",
            SimEvent::JobRestarted { .. } => "job_restarted",
            SimEvent::JobCancelled { .. } => "job_cancelled",
            SimEvent::RoundPlanned { .. } => "round_planned",
            SimEvent::ModelRefit { .. } => "model_refit",
        }
    }

    /// Serializes the event as one flat JSON object (no trailing newline).
    ///
    /// Floats use Rust's shortest round-trip formatting, so parsing the
    /// line back with [`SimEvent::from_jsonl`] reproduces the value
    /// bit-exactly.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(128);
        self.write_jsonl(&mut out);
        out
    }

    /// Appends the [`SimEvent::to_jsonl`] line to `out` (no trailing
    /// newline), so a sink rendering many events can reuse one buffer.
    pub fn write_jsonl(&self, out: &mut String) {
        let mut w = JsonWriter::appending(std::mem::take(out), self.kind());
        match self {
            SimEvent::JobSubmitted {
                at,
                job,
                tenant,
                class,
                model,
                gpus,
                cpus,
                mem_gb,
                plan,
            } => {
                w.num("at", *at);
                w.uint("job", *job);
                w.str("tenant", tenant);
                w.str("class", class);
                w.str("model", model);
                w.uint("gpus", u64::from(*gpus));
                w.uint("cpus", u64::from(*cpus));
                w.num("mem_gb", *mem_gb);
                w.str("plan", plan);
            }
            SimEvent::RoundStarted {
                at,
                round,
                active_jobs,
            } => {
                w.num("at", *at);
                w.uint("round", *round);
                w.uint("active_jobs", *active_jobs);
            }
            SimEvent::DecisionApplied {
                at,
                job,
                kind,
                gpus,
                plan,
                throughput,
            } => {
                w.num("at", *at);
                w.uint("job", *job);
                w.str("kind", kind.label());
                w.uint("gpus", u64::from(*gpus));
                w.str("plan", plan);
                w.num("throughput", *throughput);
            }
            SimEvent::Reconfigured {
                at,
                job,
                gpus,
                plan,
                delay,
            } => {
                w.num("at", *at);
                w.uint("job", *job);
                w.uint("gpus", u64::from(*gpus));
                w.str("plan", plan);
                w.num("delay", *delay);
            }
            SimEvent::LaunchFailed { at, job, reason } => {
                w.num("at", *at);
                w.uint("job", *job);
                w.str("reason", reason);
            }
            SimEvent::JobFinished {
                at,
                job,
                tenant,
                class,
                model,
                submit_time,
                first_start,
                reconfig_count,
                reconfig_time,
                reconfig_gpu_seconds,
                gpu_seconds,
                runtime,
                target_batches,
                baseline_throughput,
                avg_throughput,
            } => {
                w.num("at", *at);
                w.uint("job", *job);
                w.str("tenant", tenant);
                w.str("class", class);
                w.str("model", model);
                w.num("submit_time", *submit_time);
                w.opt_num("first_start", *first_start);
                w.uint("reconfig_count", u64::from(*reconfig_count));
                w.num("reconfig_time", *reconfig_time);
                w.num("reconfig_gpu_seconds", *reconfig_gpu_seconds);
                w.num("gpu_seconds", *gpu_seconds);
                w.num("runtime", *runtime);
                w.uint("target_batches", *target_batches);
                w.opt_num("baseline_throughput", *baseline_throughput);
                w.num("avg_throughput", *avg_throughput);
            }
            SimEvent::TickSkipped { at, round } => {
                w.num("at", *at);
                w.uint("round", *round);
            }
            SimEvent::NodeFailed { at, node } | SimEvent::NodeRecovered { at, node } => {
                w.num("at", *at);
                w.uint("node", *node);
            }
            SimEvent::JobPreemptedByFault {
                at,
                job,
                node,
                gpus,
                plan,
            } => {
                w.num("at", *at);
                w.uint("job", *job);
                w.uint("node", *node);
                w.uint("gpus", u64::from(*gpus));
                w.str("plan", plan);
            }
            SimEvent::JobRestarted {
                at,
                job,
                gpus,
                plan,
                penalty,
            } => {
                w.num("at", *at);
                w.uint("job", *job);
                w.uint("gpus", u64::from(*gpus));
                w.str("plan", plan);
                w.num("penalty", *penalty);
            }
            SimEvent::JobCancelled {
                at,
                job,
                gpus,
                plan,
            } => {
                w.num("at", *at);
                w.uint("job", *job);
                w.uint("gpus", u64::from(*gpus));
                w.str("plan", plan);
            }
            SimEvent::RoundPlanned {
                at,
                round,
                dirty,
                clean,
                reused,
                searched,
                classified,
            } => {
                w.num("at", *at);
                w.uint("round", *round);
                w.uint("dirty", *dirty);
                w.uint("clean", *clean);
                w.uint("reused", *reused);
                w.uint("searched", *searched);
                w.uint("classified", *classified);
            }
            SimEvent::ModelRefit {
                at,
                model,
                shift,
                old_params,
                new_params,
            } => {
                w.num("at", *at);
                w.str("model", model);
                w.num("shift", *shift);
                w.str("old_params", old_params);
                w.str("new_params", new_params);
            }
        }
        *out = w.finish();
    }

    /// Parses one JSONL line produced by [`SimEvent::to_jsonl`].
    pub fn from_jsonl(line: &str) -> Result<SimEvent, EventParseError> {
        SimEvent::from_object(&JsonObject::parse(line)?)
    }

    /// Whether `ty` is a `type` label this crate's event taxonomy knows.
    /// Serve/session logs interleave event lines with non-event records;
    /// [`parse_log_line`] uses this to route lines without re-parsing.
    pub fn known_type(ty: &str) -> bool {
        matches!(
            ty,
            "job_submitted"
                | "round_started"
                | "decision_applied"
                | "reconfigured"
                | "launch_failed"
                | "job_finished"
                | "tick_skipped"
                | "node_failed"
                | "node_recovered"
                | "job_preempted_by_fault"
                | "job_restarted"
                | "job_cancelled"
                | "round_planned"
                | "model_refit"
        )
    }

    fn from_object(f: &JsonObject) -> Result<SimEvent, EventParseError> {
        let ev = match f.str("type")? {
            "job_submitted" => SimEvent::JobSubmitted {
                at: f.num("at")?,
                job: f.uint("job")?,
                tenant: Arc::from(f.str("tenant")?),
                class: Arc::from(f.str("class")?),
                model: Arc::from(f.str("model")?),
                gpus: f.uint32("gpus")?,
                cpus: f.uint32("cpus")?,
                mem_gb: f.num("mem_gb")?,
                plan: Arc::from(f.str("plan")?),
            },
            "round_started" => SimEvent::RoundStarted {
                at: f.num("at")?,
                round: f.uint("round")?,
                active_jobs: f.uint("active_jobs")?,
            },
            "decision_applied" => SimEvent::DecisionApplied {
                at: f.num("at")?,
                job: f.uint("job")?,
                kind: match f.str("kind")? {
                    "launch" => DecisionKind::Launch,
                    "preempt" => DecisionKind::Preempt,
                    other => {
                        return Err(EventParseError::new(format!(
                            "unknown decision kind {other:?}"
                        )))
                    }
                },
                gpus: f.uint32("gpus")?,
                plan: Arc::from(f.str("plan")?),
                throughput: f.num("throughput")?,
            },
            "reconfigured" => SimEvent::Reconfigured {
                at: f.num("at")?,
                job: f.uint("job")?,
                gpus: f.uint32("gpus")?,
                plan: Arc::from(f.str("plan")?),
                delay: f.num("delay")?,
            },
            "launch_failed" => SimEvent::LaunchFailed {
                at: f.num("at")?,
                job: f.uint("job")?,
                reason: f.str("reason")?.to_string(),
            },
            "job_finished" => SimEvent::JobFinished {
                at: f.num("at")?,
                job: f.uint("job")?,
                tenant: Arc::from(f.str("tenant")?),
                class: Arc::from(f.str("class")?),
                model: Arc::from(f.str("model")?),
                submit_time: f.num("submit_time")?,
                first_start: f.opt_num("first_start")?,
                reconfig_count: f.uint32("reconfig_count")?,
                reconfig_time: f.num("reconfig_time")?,
                reconfig_gpu_seconds: f.num("reconfig_gpu_seconds")?,
                gpu_seconds: f.num("gpu_seconds")?,
                runtime: f.num("runtime")?,
                target_batches: f.uint("target_batches")?,
                baseline_throughput: f.opt_num("baseline_throughput")?,
                avg_throughput: f.num("avg_throughput")?,
            },
            "tick_skipped" => SimEvent::TickSkipped {
                at: f.num("at")?,
                round: f.uint("round")?,
            },
            "node_failed" => SimEvent::NodeFailed {
                at: f.num("at")?,
                node: f.uint("node")?,
            },
            "node_recovered" => SimEvent::NodeRecovered {
                at: f.num("at")?,
                node: f.uint("node")?,
            },
            "job_preempted_by_fault" => SimEvent::JobPreemptedByFault {
                at: f.num("at")?,
                job: f.uint("job")?,
                node: f.uint("node")?,
                gpus: f.uint32("gpus")?,
                plan: Arc::from(f.str("plan")?),
            },
            "job_restarted" => SimEvent::JobRestarted {
                at: f.num("at")?,
                job: f.uint("job")?,
                gpus: f.uint32("gpus")?,
                plan: Arc::from(f.str("plan")?),
                penalty: f.num("penalty")?,
            },
            "job_cancelled" => SimEvent::JobCancelled {
                at: f.num("at")?,
                job: f.uint("job")?,
                gpus: f.uint32("gpus")?,
                plan: Arc::from(f.str("plan")?),
            },
            "round_planned" => SimEvent::RoundPlanned {
                at: f.num("at")?,
                round: f.uint("round")?,
                dirty: f.uint("dirty")?,
                clean: f.uint("clean")?,
                reused: f.uint("reused")?,
                // Added after v3 shipped: older streams omit them, and a
                // missing counter means "not measured", i.e. zero.
                searched: f.uint_or(0, "searched")?,
                classified: f.uint_or(0, "classified")?,
            },
            "model_refit" => SimEvent::ModelRefit {
                at: f.num("at")?,
                model: Arc::from(f.str("model")?),
                shift: f.num("shift")?,
                old_params: f.str("old_params")?.to_string(),
                new_params: f.str("new_params")?.to_string(),
            },
            other => {
                return Err(EventParseError::new(format!(
                    "unknown event type {other:?}"
                )))
            }
        };
        Ok(ev)
    }
}

/// Version of the JSONL event schema emitted by the stream sinks.
///
/// History: **1** — the original seven-variant taxonomy (no header line);
/// **2** — adds the fault variants ([`SimEvent::NodeFailed`],
/// [`SimEvent::NodeRecovered`], [`SimEvent::JobPreemptedByFault`],
/// [`SimEvent::JobRestarted`]) and the `{"type":"schema",...}` header line;
/// **3** — adds [`SimEvent::RoundPlanned`], the per-round incremental
/// planning statistics (off by default; streams without it parse
/// unchanged); **4** — adds [`SimEvent::JobCancelled`], emitted when a
/// serve-session owner withdraws a job (batch simulations never emit it,
/// so their streams are byte-identical to v3); **5** — adds
/// [`SimEvent::ModelRefit`], emitted only when an online refit hook is
/// attached to the engine (`--refit`), so default streams differ from v4
/// solely in this header line.
pub const SCHEMA_VERSION: u32 = 5;

/// The one-line schema header [`JsonlSink`](crate::JsonlSink) writes
/// before the first event (no trailing newline).
pub fn schema_header_line() -> String {
    let mut w = JsonWriter::new("schema");
    w.uint("version", u64::from(SCHEMA_VERSION));
    w.finish()
}

// ---------------------------------------------------------------------------
// Event-log files: streaming reader over sink-produced (or serve-session)
// JSONL, schema-header aware and tolerant of interleaved non-event records.
// ---------------------------------------------------------------------------

/// One classified line of an event-log file.
#[derive(Debug, Clone, PartialEq)]
pub enum LogLine {
    /// The `{"type":"schema","version":N}` header.
    Schema(u32),
    /// A simulation event.
    Event(SimEvent),
    /// A record whose `type` is not in the event taxonomy (serve-session
    /// ops, compaction markers, future extensions) — carried as a parsed
    /// object rather than an error so logs stay forward-readable.
    Other(JsonObject),
}

/// An error while reading an event log: carries the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventLogError {
    /// 1-based line the error occurred on.
    pub line: u64,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for EventLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event log line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for EventLogError {}

/// Classifies one line of a sink-produced or serve-session stream as the
/// schema header, a [`SimEvent`], or a [`LogLine::Other`] record.
///
/// Unknown *fields* are tolerated — lookups go by key, so a newer writer
/// adding fields still parses — and a record whose `type` is not in the
/// event taxonomy is `Other`, not an error. A line that is not a flat JSON
/// object, or a known event missing a field, is an error.
pub fn parse_log_line(line: &str) -> Result<LogLine, EventParseError> {
    let obj = JsonObject::parse(line)?;
    let ty = obj.ty()?;
    if ty == "schema" {
        let version = u32::try_from(obj.uint("version")?)
            .map_err(|_| EventParseError::bare("schema version overflows u32"))?;
        return Ok(LogLine::Schema(version));
    }
    if SimEvent::known_type(ty) {
        return SimEvent::from_object(&obj).map(LogLine::Event);
    }
    Ok(LogLine::Other(obj))
}

/// A fully-read event log, with a crash-tolerance flag and the text of
/// every retained line.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLog {
    /// Every parsed line, in file order.
    pub lines: Vec<LogLine>,
    /// Whether the final line was torn (unparseable) and dropped — the
    /// signature of a process killed mid-append.
    pub torn_tail: bool,
    /// The file's text up to the torn line: the whole file when
    /// `torn_tail` is false.
    pub text: String,
    /// Where each of `lines` sits in `text`, without its `\n` or `\r\n`.
    pub spans: Vec<Range<usize>>,
}

impl EventLog {
    /// The raw text of `lines[i]`, as it appears in the file.
    pub fn raw(&self, i: usize) -> &str {
        &self.text[self.spans[i].clone()]
    }
}

/// Reads a whole event log, forgiving a torn *final* line: a process
/// killed mid-append leaves a partial last line, which recovery must
/// treat as "never written". Any malformed line before the end is still
/// an error.
///
/// Every non-empty line goes through [`parse_log_line`], so mixed logs
/// (serve sessions, annotated streams) remain readable; its errors carry
/// the line number. Lines end at `\n`, with a `\r` before it dropped; a
/// line that is not UTF-8 is an error like a malformed one.
pub fn read_event_log_tolerant(
    path: impl AsRef<Path>,
) -> io::Result<Result<EventLog, EventLogError>> {
    let mut bytes = std::fs::read(path)?;
    let mut lines = Vec::new();
    let mut spans = Vec::new();
    // The first bad line and where it starts; forgiven if nothing follows.
    let mut deferred: Option<(EventLogError, usize)> = None;
    let mut line_no = 0u64;
    let mut start = 0;
    while start < bytes.len() {
        let (mut end, next) = match bytes[start..].iter().position(|&b| b == b'\n') {
            Some(len) => (start + len, start + len + 1),
            None => (bytes.len(), bytes.len()),
        };
        if next > end && end > start && bytes[end - 1] == b'\r' {
            end -= 1;
        }
        line_no += 1;
        let item = match std::str::from_utf8(&bytes[start..end]) {
            Ok(line) if line.trim().is_empty() => {
                start = next;
                continue;
            }
            Ok(line) => parse_log_line(line).map_err(|e| EventLogError {
                line: line_no,
                message: e.to_string(),
            }),
            Err(_) => Err(EventLogError {
                line: line_no,
                message: "read error: stream did not contain valid UTF-8".into(),
            }),
        };
        match item {
            Ok(line) => {
                if let Some((e, _)) = deferred.take() {
                    // The bad line was not the last one after all.
                    return Ok(Err(e));
                }
                lines.push(line);
                spans.push(start..end);
            }
            Err(e) => {
                if let Some((prior, _)) = deferred.take() {
                    return Ok(Err(prior));
                }
                deferred = Some((e, start));
            }
        }
        start = next;
    }
    let torn_at = deferred.map(|(_, at)| at);
    if let Some(at) = torn_at {
        bytes.truncate(at);
    }
    let text =
        String::from_utf8(bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(Ok(EventLog {
        lines,
        torn_tail: torn_at.is_some(),
        text,
        spans,
    }))
}
