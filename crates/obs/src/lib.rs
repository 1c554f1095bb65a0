//! # rubick-obs
//!
//! The **event spine** of the Rubick reproduction: a typed vocabulary of
//! simulation events ([`SimEvent`]) plus pluggable consumers
//! ([`EventSink`]).
//!
//! Every state transition inside the simulation engine emits exactly one
//! event; everything downstream — the [`SimReport`]-style summaries, the
//! decision audit trail, JSONL logs, fault metrics — is a *fold* over
//! this stream, so metrics have a single source of truth.
//!
//! Design constraints:
//!
//! * **Primitives only.** Events carry `f64` times, `u64` job ids and plain
//!   strings, never simulator types, so this crate sits below `rubick-sim`
//!   with no dependency cycle.
//! * **Deterministic.** Events never contain wall-clock time; host-side
//!   round latencies travel through the separate
//!   [`EventSink::on_round_latency`] hook so JSONL logs of a deterministic
//!   run are byte-identical across machines and thread counts.
//! * **Lossless JSONL.** [`SimEvent::to_jsonl`] prints floats with Rust's
//!   shortest round-trip formatting and [`SimEvent::from_jsonl`] parses the
//!   raw token back, so `serialize ∘ parse` is the identity on the values
//!   the engine produces.
//! * **One JSON codec.** [`JsonWriter`] encodes and [`JsonObject`] decodes
//!   every flat JSON line the workspace writes or reads — events, serve
//!   journal and reply lines, sweep rows — so no other crate formats JSON
//!   by hand.
//!
//! `SimReport` here refers to `rubick_sim::metrics::SimReport`, the fold
//! implemented by `rubick_sim::report::ReportSink` on top of this crate.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::ops::Range;
use std::path::Path;

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
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// A job arrived and entered the queue.
    JobSubmitted {
        /// Simulation time, s.
        at: f64,
        /// Job id.
        job: u64,
        /// Owning tenant name (empty for the default tenant).
        tenant: String,
        /// Scheduling class label (`guaranteed` / `best-effort`).
        class: String,
        /// Model type name.
        model: String,
        /// GPUs requested by the user.
        gpus: u32,
        /// CPUs requested by the user.
        cpus: u32,
        /// Host memory requested by the user, GB.
        mem_gb: f64,
        /// User-chosen execution-plan label.
        plan: String,
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
        plan: String,
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
        plan: String,
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
        tenant: String,
        /// Scheduling class label (`guaranteed` / `best-effort`).
        class: String,
        /// Model type name.
        model: String,
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
        plan: String,
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
        plan: String,
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
        plan: String,
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
        /// plus any clean jobs whose quiet-skip certificate was voided
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
        model: String,
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
        let f = Fields::parse(line)?;
        SimEvent::from_fields(&f)
    }

    /// Whether `ty` is a `type` label this crate's event taxonomy knows.
    /// Serve/session logs interleave event lines with non-event records;
    /// [`read_event_log_tolerant`] uses this to route lines without
    /// re-parsing.
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

    fn from_fields(f: &Fields) -> Result<SimEvent, EventParseError> {
        let ev = match f.str("type")? {
            "job_submitted" => SimEvent::JobSubmitted {
                at: f.num("at")?,
                job: f.uint("job")?,
                tenant: f.str("tenant")?.to_string(),
                class: f.str("class")?.to_string(),
                model: f.str("model")?.to_string(),
                gpus: f.uint32("gpus")?,
                cpus: f.uint32("cpus")?,
                mem_gb: f.num("mem_gb")?,
                plan: f.str("plan")?.to_string(),
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
                plan: f.str("plan")?.to_string(),
                throughput: f.num("throughput")?,
            },
            "reconfigured" => SimEvent::Reconfigured {
                at: f.num("at")?,
                job: f.uint("job")?,
                gpus: f.uint32("gpus")?,
                plan: f.str("plan")?.to_string(),
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
                tenant: f.str("tenant")?.to_string(),
                class: f.str("class")?.to_string(),
                model: f.str("model")?.to_string(),
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
                plan: f.str("plan")?.to_string(),
            },
            "job_restarted" => SimEvent::JobRestarted {
                at: f.num("at")?,
                job: f.uint("job")?,
                gpus: f.uint32("gpus")?,
                plan: f.str("plan")?.to_string(),
                penalty: f.num("penalty")?,
            },
            "job_cancelled" => SimEvent::JobCancelled {
                at: f.num("at")?,
                job: f.uint("job")?,
                gpus: f.uint32("gpus")?,
                plan: f.str("plan")?.to_string(),
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
                model: f.str("model")?.to_string(),
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

/// The one-line schema header [`JsonlSink`] writes before the first
/// event (no trailing newline).
pub fn schema_header_line() -> String {
    let mut w = JsonWriter::new("schema");
    w.uint("version", u64::from(SCHEMA_VERSION));
    w.finish()
}

/// One parsed line of a sink-produced JSONL stream: either the schema
/// header or an event.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonlLine {
    /// The `{"type":"schema","version":N}` header line.
    Schema(u32),
    /// An ordinary event line.
    Event(SimEvent),
}

/// Parses one line of a sink-produced stream, accepting both the schema
/// header and event lines. Use this (rather than [`SimEvent::from_jsonl`])
/// when reading files written by [`JsonlSink`].
///
/// Like [`SimEvent::from_jsonl`], unknown *fields* are tolerated — lookups
/// go by key, so a newer writer adding fields still parses — while unknown
/// event *types* are an error.
pub fn parse_jsonl_line(line: &str) -> Result<JsonlLine, EventParseError> {
    let f = Fields::parse(line)?;
    if f.str("type")? == "schema" {
        let version = u32::try_from(f.uint("version")?)
            .map_err(|_| EventParseError::new("schema version overflows u32"))?;
        return Ok(JsonlLine::Schema(version));
    }
    SimEvent::from_fields(&f).map(JsonlLine::Event)
}

// ---------------------------------------------------------------------------
// Event-log files: streaming reader over sink-produced (or serve-session)
// JSONL, schema-header aware and tolerant of interleaved non-event records.
// ---------------------------------------------------------------------------

/// One parsed flat JSON object with tolerant, by-key accessors.
///
/// This is the public face of the crate's internal JSON decoder: records
/// that are *not* simulation events (serve-session ops, sweep JSONL rows,
/// compaction markers) parse into a `JsonObject` so callers can read their
/// fields without writing another JSON parser. Unknown fields are simply
/// never looked up; missing fields error (or default, via the `*_or`
/// accessors) at lookup time.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonObject {
    fields: Fields,
}

impl JsonObject {
    /// Parses one line holding a flat JSON object (string / number / null
    /// values only).
    pub fn parse(line: &str) -> Result<JsonObject, EventParseError> {
        Ok(JsonObject {
            fields: Fields::parse(line)?,
        })
    }

    /// The `type` field, present on every record this workspace writes.
    pub fn ty(&self) -> Result<&str, EventParseError> {
        self.fields.str("type")
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &str) -> bool {
        self.fields.contains(key)
    }

    /// A required string field.
    pub fn str(&self, key: &str) -> Result<&str, EventParseError> {
        self.fields.str(key)
    }

    /// A required finite numeric field.
    pub fn num(&self, key: &str) -> Result<f64, EventParseError> {
        self.fields.num(key)
    }

    /// A required unsigned-integer field.
    pub fn uint(&self, key: &str) -> Result<u64, EventParseError> {
        self.fields.uint(key)
    }

    /// A required unsigned-integer field that must fit in `u32`.
    pub fn uint32(&self, key: &str) -> Result<u32, EventParseError> {
        self.fields.uint32(key)
    }

    /// A finite-numeric-or-null field (`null` reads as `None`).
    pub fn opt_num(&self, key: &str) -> Result<Option<f64>, EventParseError> {
        self.fields.opt_num(key)
    }

    /// A string field that may be absent.
    pub fn opt_str(&self, key: &str) -> Result<Option<&str>, EventParseError> {
        if self.contains(key) {
            self.fields.str(key).map(Some)
        } else {
            Ok(None)
        }
    }

    /// An unsigned-integer field defaulting when absent (present-but-bad
    /// still errors).
    pub fn uint_or(&self, default: u64, key: &str) -> Result<u64, EventParseError> {
        self.fields.uint_or(default, key)
    }

    /// A numeric field defaulting when absent (present-but-bad still
    /// errors).
    pub fn num_or(&self, default: f64, key: &str) -> Result<f64, EventParseError> {
        if self.contains(key) {
            self.fields.num(key)
        } else {
            Ok(default)
        }
    }
}

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

/// Classifies one non-blank line of an event log.
fn classify(line: &str, line_no: u64) -> Result<LogLine, EventLogError> {
    let err = |e: EventParseError| EventLogError {
        line: line_no,
        message: e.to_string(),
    };
    let obj = JsonObject::parse(line).map_err(err)?;
    let ty = obj.ty().map_err(err)?;
    if ty == "schema" {
        let version =
            u32::try_from(obj.uint("version").map_err(err)?).map_err(|_| EventLogError {
                line: line_no,
                message: "schema version overflows u32".into(),
            })?;
        return Ok(LogLine::Schema(version));
    }
    if SimEvent::known_type(ty) {
        return SimEvent::from_fields(&obj.fields)
            .map(LogLine::Event)
            .map_err(err);
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
/// Every non-empty line is classified as schema header, [`SimEvent`], or
/// [`LogLine::Other`]; unknown *fields* inside known records are
/// tolerated, and unknown record *types* surface as `Other` rather than an
/// error so mixed logs (serve sessions, annotated streams) remain
/// readable. Lines end at `\n`, with a `\r` before it dropped; a line that
/// is not UTF-8 is an error like a malformed one.
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
            Ok(line) => classify(line, line_no),
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

/// Error produced when a JSONL line cannot be parsed back into a
/// [`SimEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventParseError {
    message: String,
}

impl EventParseError {
    fn new(message: impl Into<String>) -> Self {
        EventParseError {
            message: message.into(),
        }
    }

    /// What is wrong with the line, without the `invalid event line:`
    /// prefix that [`Display`](fmt::Display) adds. Readers of lines that
    /// are not events (protocol ops) word their own errors with it.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for EventParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid event line: {}", self.message)
    }
}

impl std::error::Error for EventParseError {}

// ---------------------------------------------------------------------------
// JSON encoding / decoding (flat objects only; no external dependency).
// ---------------------------------------------------------------------------

/// Builds one flat JSON object on one line: the encoder behind every
/// record this workspace writes (events, serve journal and replies, sweep
/// rows), so they all escape strings and print numbers the same way.
///
/// Fields appear in call order. Strings escape `"`, `\`, `\n`, `\r` and
/// `\t` by name and other control characters as `\u00XX`; floats print as
/// Rust's shortest round-trip form, non-finite ones as `null`.
///
/// ```
/// use rubick_obs::{JsonObject, JsonWriter};
///
/// let mut w = JsonWriter::new("ok");
/// w.str("op", "submit");
/// w.uint("job", 7);
/// let line = w.finish();
/// assert_eq!(line, r#"{"type":"ok","op":"submit","job":7}"#);
/// assert_eq!(JsonObject::parse(&line).unwrap().uint("job").unwrap(), 7);
/// ```
pub struct JsonWriter {
    out: String,
}

impl JsonWriter {
    /// An object whose first field is `"type":ty`.
    pub fn new(ty: &str) -> Self {
        JsonWriter::appending(String::with_capacity(128), ty)
    }

    /// An object with no leading `type` field.
    pub fn untyped() -> Self {
        JsonWriter::open(String::with_capacity(128))
    }

    /// Starts an object at the end of `out`, which [`JsonWriter::finish`]
    /// hands back with the object appended.
    fn open(mut out: String) -> Self {
        out.push('{');
        JsonWriter { out }
    }

    /// [`JsonWriter::new`], appending to `out`.
    fn appending(out: String, ty: &str) -> Self {
        let mut w = JsonWriter::open(out);
        w.str("type", ty);
        w
    }

    fn key(&mut self, k: &str) {
        if !self.out.ends_with('{') {
            self.out.push(',');
        }
        push_json_str(&mut self.out, k);
        self.out.push(':');
    }

    /// A string field.
    pub fn str(&mut self, k: &str, v: &str) {
        self.key(k);
        push_json_str(&mut self.out, v);
    }

    /// A numeric field (`null` when `v` is not finite).
    pub fn num(&mut self, k: &str, v: f64) {
        self.key(k);
        push_json_f64(&mut self.out, v);
    }

    /// A numeric-or-null field.
    pub fn opt_num(&mut self, k: &str, v: Option<f64>) {
        self.key(k);
        match v {
            Some(v) => push_json_f64(&mut self.out, v),
            None => self.out.push_str("null"),
        }
    }

    /// An unsigned-integer field.
    pub fn uint(&mut self, k: &str, v: u64) {
        self.key(k);
        push_u64(&mut self.out, v);
    }

    /// A `true`/`false` field.
    pub fn bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// A field whose value is an already-formatted JSON token, such as a
    /// fixed-precision number from `format!("{:.3}", x)` or `null`. The
    /// caller guarantees the token is valid JSON.
    pub fn raw(&mut self, k: &str, token: &str) {
        self.key(k);
        self.out.push_str(token);
    }

    /// Closes the object and returns the line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// Pushes `s` as a JSON string. The text before the first byte that needs
/// an escape (a quote, a backslash or a control character; all ASCII, so
/// never inside a multi-byte character) is copied whole.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    let plain = s
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
        .unwrap_or(s.len());
    out.push_str(&s[..plain]);
    for c in s[plain..].chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Pushes the decimal digits of `v`, as `{v}` prints them.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// `{}` on `f64` is Rust's shortest string that round-trips to the same
/// bits, which keeps the log both compact and lossless. Non-finite values
/// never occur in simulation output (times and throughputs are finite), but
/// encode them as `null` rather than emitting invalid JSON.
///
/// An integral value below 1e15 in magnitude (so exactly an `i64`) prints
/// under `{}` as its integer digits with no fraction or exponent, so it
/// takes the integer path; `-0.0` (which prints `-0`) and everything else
/// go through `{}`.
fn push_json_f64(out: &mut String, v: f64) {
    if v.abs() < 1e15 && v.trunc() == v && (v != 0.0 || v.is_sign_positive()) {
        if v < 0.0 {
            out.push('-');
        }
        push_u64(out, v.abs() as u64);
    } else if v.is_finite() {
        use fmt::Write as _;
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A parsed scalar, borrowed from its [`Fields`] buffer: the raw number
/// token is kept as text so integers larger than 2^53 survive the trip
/// untruncated.
#[derive(Debug, Clone, Copy, PartialEq)]
enum JsonValue<'a> {
    Null,
    Num(&'a str),
    Str(&'a str),
}

/// A byte range of [`Fields::buf`].
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
}

/// A [`JsonValue`] as a span of the owning buffer.
#[derive(Debug, Clone, Copy)]
enum Value {
    Null,
    Num(Span),
    Str(Span),
}

/// One `"key":value` pair.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: Span,
    value: Value,
}

/// One parsed flat object: a copy of the trimmed line, followed by the
/// unescaped text of any string that held an escape, plus the pairs in
/// line order as spans of that buffer. A string without escapes is a span
/// of the line itself. Lookups scan from the back, so a repeated key reads
/// as its last value.
#[derive(Clone)]
struct Fields {
    buf: String,
    entries: Vec<Entry>,
}

impl Fields {
    fn parse(line: &str) -> Result<Fields, EventParseError> {
        let src = line.trim();
        let mut p = Parser {
            src,
            pos: 0,
            fields: Fields {
                buf: String::with_capacity(src.len()),
                entries: Vec::with_capacity(16),
            },
        };
        p.fields.buf.push_str(src);
        p.object()?;
        if !p.rest().trim().is_empty() {
            return Err(EventParseError::new("trailing data after object"));
        }
        Ok(p.fields)
    }

    fn text(&self, span: Span) -> &str {
        &self.buf[span.start..span.end]
    }

    fn value(&self, entry: &Entry) -> JsonValue<'_> {
        match entry.value {
            Value::Null => JsonValue::Null,
            Value::Num(span) => JsonValue::Num(self.text(span)),
            Value::Str(span) => JsonValue::Str(self.text(span)),
        }
    }

    fn find(&self, key: &str) -> Option<&Entry> {
        self.entries.iter().rev().find(|e| self.text(e.key) == key)
    }

    fn contains(&self, key: &str) -> bool {
        self.find(key).is_some()
    }

    /// The pairs as a last-wins map: what equality and `Debug` see.
    fn map(&self) -> BTreeMap<&str, JsonValue<'_>> {
        self.entries
            .iter()
            .map(|e| (self.text(e.key), self.value(e)))
            .collect()
    }

    fn get(&self, key: &str) -> Result<JsonValue<'_>, EventParseError> {
        self.find(key)
            .map(|e| self.value(e))
            .ok_or_else(|| EventParseError::new(format!("missing field {key:?}")))
    }

    fn str(&self, key: &str) -> Result<&str, EventParseError> {
        match self.get(key)? {
            JsonValue::Str(s) => Ok(s),
            _ => Err(EventParseError::new(format!(
                "field {key:?} is not a string"
            ))),
        }
    }

    /// A finite number: a token that overflows `f64` (`1e999`) is an
    /// error, since the writer could only print it back as `null`.
    fn num(&self, key: &str) -> Result<f64, EventParseError> {
        match self.get(key)? {
            JsonValue::Num(raw) => match raw.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(v),
                Ok(_) => Err(EventParseError::new(format!(
                    "field {key:?}: number {raw:?} is not finite"
                ))),
                Err(_) => Err(EventParseError::new(format!(
                    "field {key:?}: bad number {raw:?}"
                ))),
            },
            _ => Err(EventParseError::new(format!(
                "field {key:?} is not a number"
            ))),
        }
    }

    fn opt_num(&self, key: &str) -> Result<Option<f64>, EventParseError> {
        match self.get(key)? {
            JsonValue::Null => Ok(None),
            JsonValue::Num(_) => Ok(Some(self.num(key)?)),
            _ => Err(EventParseError::new(format!(
                "field {key:?} is not a number or null"
            ))),
        }
    }

    fn uint(&self, key: &str) -> Result<u64, EventParseError> {
        match self.get(key)? {
            JsonValue::Num(raw) => raw
                .parse::<u64>()
                .map_err(|_| EventParseError::new(format!("field {key:?}: bad integer {raw:?}"))),
            _ => Err(EventParseError::new(format!(
                "field {key:?} is not a number"
            ))),
        }
    }

    fn uint32(&self, key: &str) -> Result<u32, EventParseError> {
        u32::try_from(self.uint(key)?)
            .map_err(|_| EventParseError::new(format!("field {key:?} overflows u32")))
    }

    /// Like [`Fields::uint`], but a *missing* key yields `default` instead
    /// of an error — for counters added to an event after its schema
    /// version shipped. A present-but-malformed value still errors.
    fn uint_or(&self, default: u64, key: &str) -> Result<u64, EventParseError> {
        if self.contains(key) {
            self.uint(key)
        } else {
            Ok(default)
        }
    }
}

impl PartialEq for Fields {
    fn eq(&self, other: &Fields) -> bool {
        self.map() == other.map()
    }
}

impl fmt::Debug for Fields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fields").field("map", &self.map()).finish()
    }
}

/// A minimal parser for the flat JSON objects this crate emits: one object
/// per line, scalar values only (string, number, null). It reads `src`
/// (which `fields.buf` starts as a copy of, so offsets agree) and records
/// each pair into `fields`.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
    fields: Fields,
}

impl Parser<'_> {
    fn rest(&self) -> &str {
        &self.src[self.pos..]
    }

    fn skip_ws(&mut self) {
        self.pos = self.src.len() - self.rest().trim_start().len();
    }

    fn eat(&mut self, c: u8) -> Result<(), EventParseError> {
        self.skip_ws();
        if self.rest().as_bytes().first() == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(EventParseError::new(format!(
                "expected {:?} at {:?}",
                char::from(c),
                truncate(self.rest())
            )))
        }
    }

    fn object(&mut self) -> Result<(), EventParseError> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.rest().starts_with('}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            let value = self.value()?;
            self.fields.entries.push(Entry { key, value });
            self.skip_ws();
            if self.rest().starts_with(',') {
                self.pos += 1;
            } else {
                return self.eat(b'}');
            }
        }
    }

    fn value(&mut self) -> Result<Value, EventParseError> {
        self.skip_ws();
        if self.rest().starts_with('"') {
            return Ok(Value::Str(self.string()?));
        }
        if self.rest().starts_with("null") {
            self.pos += 4;
            return Ok(Value::Null);
        }
        let len = self
            .rest()
            .bytes()
            .position(|b| !matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            .unwrap_or(self.rest().len());
        if len == 0 {
            return Err(EventParseError::new(format!(
                "expected scalar at {:?}",
                truncate(self.rest())
            )));
        }
        let start = self.pos;
        self.pos += len;
        Ok(Value::Num(Span {
            start,
            end: self.pos,
        }))
    }

    /// A string: a span of the line when it holds no escape, else the
    /// unescaped text appended to the buffer.
    fn string(&mut self) -> Result<Span, EventParseError> {
        self.eat(b'"')?;
        let start = self.pos;
        match self.rest().bytes().position(|b| b == b'"' || b == b'\\') {
            Some(len) if self.rest().as_bytes()[len] == b'"' => {
                self.pos += len + 1;
                Ok(Span {
                    start,
                    end: start + len,
                })
            }
            Some(len) => {
                let buf = &mut self.fields.buf;
                let unescaped = buf.len();
                buf.push_str(&self.src[start..start + len]);
                self.pos += len;
                self.unescape()?;
                Ok(Span {
                    start: unescaped,
                    end: self.fields.buf.len(),
                })
            }
            None => Err(EventParseError::new("unterminated string")),
        }
    }

    /// Decodes the rest of a string from its first escape up to and past
    /// its closing quote, appending the text to the buffer.
    fn unescape(&mut self) -> Result<(), EventParseError> {
        let src = self.src;
        let rest = &src[self.pos..];
        let out = &mut self.fields.buf;
        let mut chars = rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(());
                }
                '\\' => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((j, 'u')) => {
                        let hex = rest
                            .get(j + 1..j + 5)
                            .ok_or_else(|| EventParseError::new("truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| EventParseError::new("bad \\u escape"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| EventParseError::new("bad \\u code point"))?,
                        );
                        // Skip the four hex digits just consumed.
                        for _ in 0..4 {
                            chars.next();
                        }
                    }
                    _ => return Err(EventParseError::new("bad escape sequence")),
                },
                c => out.push(c),
            }
        }
        Err(EventParseError::new("unterminated string"))
    }
}

fn truncate(s: &str) -> &str {
    let end = s.char_indices().nth(24).map(|(i, _)| i).unwrap_or(s.len());
    &s[..end]
}

// ---------------------------------------------------------------------------
// Sinks.
// ---------------------------------------------------------------------------

/// A consumer of the simulation event stream.
///
/// The engine calls [`EventSink::on_event`] once per state transition, in
/// deterministic order; implementations must not reorder or drop events if
/// they intend to reconstruct engine state. Host-side wall-clock
/// measurements arrive through [`EventSink::on_round_latency`] and are
/// deliberately kept out of the event stream so event logs stay
/// deterministic.
pub trait EventSink {
    /// Observes one event. Called synchronously from the engine loop.
    fn on_event(&mut self, event: &SimEvent);

    /// Observes the wall-clock latency of one scheduling round, in
    /// nanoseconds. Non-deterministic by nature; default is to ignore it.
    fn on_round_latency(&mut self, nanos: u64) {
        let _ = nanos;
    }

    /// Flushes any buffered output. The engine never calls this; owners of
    /// I/O-backed sinks should call it once the run completes.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A sink that discards everything: the default for `Engine::run`, and the
/// baseline the event-overhead bench compares against.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn on_event(&mut self, _event: &SimEvent) {}
}

/// A sink that buffers every event in memory, mainly for tests and
/// replay-style analysis.
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    /// The observed events, in emission order.
    pub events: Vec<SimEvent>,
}

impl EventSink for VecSink {
    fn on_event(&mut self, event: &SimEvent) {
        self.events.push(event.clone());
    }
}

/// A sink that streams events as JSON Lines to any writer.
///
/// The first event is preceded by the one-line schema header
/// (see [`SCHEMA_VERSION`]); parse sink output with [`parse_jsonl_line`].
/// I/O errors are sticky: the first error is remembered and reported by
/// [`EventSink::flush`] (writes after an error become no-ops), so a broken
/// pipe halfway through a run cannot pass silently.
pub struct JsonlSink<W: Write> {
    writer: BufWriter<W>,
    written: u64,
    header_pending: bool,
    error: Option<io::Error>,
    /// The line being written, reused across events.
    line: String,
}

impl JsonlSink<File> {
    /// Creates (truncating) the file at `path` and streams events into it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink<File>> {
        Ok(JsonlSink::new(File::create(path)?))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer (buffered internally).
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink {
            writer: BufWriter::new(writer),
            written: 0,
            header_pending: true,
            error: None,
            line: String::with_capacity(256),
        }
    }

    /// Number of event lines successfully handed to the writer (the schema
    /// header is not counted).
    pub fn events_written(&self) -> u64 {
        self.written
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn on_event(&mut self, event: &SimEvent) {
        if self.error.is_some() {
            return;
        }
        if self.header_pending {
            let mut header = schema_header_line();
            header.push('\n');
            if let Err(e) = self.writer.write_all(header.as_bytes()) {
                self.error = Some(e);
                return;
            }
            self.header_pending = false;
        }
        self.line.clear();
        event.write_jsonl(&mut self.line);
        self.line.push('\n');
        match self.writer.write_all(self.line.as_bytes()) {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()
    }
}

/// A sink that folds the fault-related events into degraded-mode metrics:
/// node downtime, fault evictions and restarts, goodput lost to faults,
/// and mean time-to-reschedule.
///
/// "Goodput lost" charges, per fault-evicted job, the GPUs it held times
/// the gap between eviction and relaunch (failed relaunch attempts extend
/// the gap), plus the restart penalty window times the GPUs of the
/// relaunch. Streams without fault events fold to all-zero metrics.
#[derive(Debug, Default, Clone)]
pub struct FaultMetricsSink {
    /// Node failures observed.
    pub node_failures: u64,
    /// Node recoveries observed.
    pub node_recoveries: u64,
    /// Total node downtime across closed down→up intervals, seconds.
    pub node_downtime_secs: f64,
    /// Jobs evicted by node failures.
    pub fault_evictions: u64,
    /// Fault-evicted jobs successfully relaunched.
    pub restarts: u64,
    /// Total restart-penalty delay charged, seconds.
    pub restart_penalty_secs: f64,
    /// GPU-seconds of goodput lost to faults (see type docs).
    pub goodput_lost_gpu_seconds: f64,
    resched_wait_secs: f64,
    pending: BTreeMap<u64, (f64, u32)>,
    down_since: BTreeMap<u64, f64>,
}

impl FaultMetricsSink {
    /// A zeroed fold.
    pub fn new() -> Self {
        FaultMetricsSink::default()
    }

    /// Mean seconds between a fault eviction and the matching relaunch
    /// (0 when nothing restarted).
    pub fn mean_time_to_reschedule(&self) -> f64 {
        if self.restarts == 0 {
            0.0
        } else {
            self.resched_wait_secs / self.restarts as f64
        }
    }

    /// Nodes that failed and had not recovered when the stream ended.
    pub fn nodes_still_down(&self) -> u64 {
        self.down_since.len() as u64
    }

    /// Fault-evicted jobs not yet relaunched when the stream ended.
    pub fn jobs_awaiting_restart(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Whether any fault event was observed at all.
    pub fn any_faults(&self) -> bool {
        self.node_failures + self.node_recoveries + self.fault_evictions + self.restarts > 0
    }

    /// Renders the metrics as one stable `key=value` line.
    pub fn summary(&self) -> String {
        format!(
            "node_failures={} node_recoveries={} node_downtime_s={:.1} \
             fault_evictions={} restarts={} mean_resched_s={:.1} \
             restart_penalty_s={:.1} goodput_lost_gpu_h={:.3}",
            self.node_failures,
            self.node_recoveries,
            self.node_downtime_secs,
            self.fault_evictions,
            self.restarts,
            self.mean_time_to_reschedule(),
            self.restart_penalty_secs,
            self.goodput_lost_gpu_seconds / 3600.0,
        )
    }
}

impl EventSink for FaultMetricsSink {
    fn on_event(&mut self, event: &SimEvent) {
        match event {
            SimEvent::NodeFailed { at, node } => {
                self.node_failures += 1;
                self.down_since.entry(*node).or_insert(*at);
            }
            SimEvent::NodeRecovered { at, node } => {
                self.node_recoveries += 1;
                if let Some(t0) = self.down_since.remove(node) {
                    self.node_downtime_secs += (at - t0).max(0.0);
                }
            }
            SimEvent::JobPreemptedByFault { at, job, gpus, .. } => {
                self.fault_evictions += 1;
                self.pending.insert(*job, (*at, *gpus));
            }
            SimEvent::JobRestarted {
                at,
                job,
                gpus,
                penalty,
                ..
            } => {
                self.restarts += 1;
                self.restart_penalty_secs += penalty;
                self.goodput_lost_gpu_seconds += penalty * f64::from(*gpus);
                if let Some((t0, old_gpus)) = self.pending.remove(job) {
                    let wait = (at - t0).max(0.0);
                    self.resched_wait_secs += wait;
                    self.goodput_lost_gpu_seconds += wait * f64::from(old_gpus);
                }
            }
            _ => {}
        }
    }
}

/// Tracks one job's coarse phase inside [`ProgressSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProgressPhase {
    Queued,
    Running,
}

/// A live progress line folded from the event stream.
///
/// Counts jobs running / queued / finished (plus cancellations) and the
/// current simulation time, re-rendering one carriage-return-terminated
/// line on every scheduling-round event — cheap enough to leave on for
/// interactive runs. The output writer is injected (the CLI passes
/// stderr; tests pass a `Vec<u8>`), keeping this crate free of direct
/// terminal I/O. Call [`ProgressSink::finish`] after the run to terminate
/// the line with a newline.
pub struct ProgressSink<W: Write> {
    out: W,
    jobs: BTreeMap<u64, ProgressPhase>,
    finished: u64,
    cancelled: u64,
    sim_time: f64,
    last_len: usize,
    error: Option<io::Error>,
}

impl<W: Write> ProgressSink<W> {
    /// Wraps a writer; every round event re-renders the progress line.
    pub fn new(out: W) -> ProgressSink<W> {
        ProgressSink {
            out,
            jobs: BTreeMap::new(),
            finished: 0,
            cancelled: 0,
            sim_time: 0.0,
            last_len: 0,
            error: None,
        }
    }

    /// Jobs currently holding resources.
    pub fn running(&self) -> u64 {
        self.jobs
            .values()
            .filter(|p| **p == ProgressPhase::Running)
            .count() as u64
    }

    /// Jobs waiting in the queue.
    pub fn queued(&self) -> u64 {
        self.jobs
            .values()
            .filter(|p| **p == ProgressPhase::Queued)
            .count() as u64
    }

    /// Jobs completed so far.
    pub fn finished(&self) -> u64 {
        self.finished
    }

    /// The rendered progress line (without the leading carriage return).
    fn line(&self) -> String {
        let mut line = format!(
            "[sim t={:.0}s] running={} queued={} finished={}",
            self.sim_time,
            self.running(),
            self.queued(),
            self.finished,
        );
        if self.cancelled > 0 {
            use fmt::Write as _;
            let _ = write!(line, " cancelled={}", self.cancelled);
        }
        line
    }

    fn render(&mut self) {
        if self.error.is_some() {
            return;
        }
        let line = self.line();
        // Pad with spaces so a shrinking line fully overwrites the prior
        // one before the cursor returns.
        let pad = self.last_len.saturating_sub(line.len());
        self.last_len = line.len();
        let mut buf = String::with_capacity(line.len() + pad + 1);
        buf.push('\r');
        buf.push_str(&line);
        for _ in 0..pad {
            buf.push(' ');
        }
        if let Err(e) = self
            .out
            .write_all(buf.as_bytes())
            .and_then(|()| self.out.flush())
        {
            self.error = Some(e);
        }
    }

    /// Terminates the progress line with a newline (call once, after the
    /// run). Reports the first sticky write error, if any.
    pub fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        if self.last_len > 0 {
            self.out.write_all(b"\n")?;
            self.out.flush()?;
        }
        Ok(())
    }
}

impl<W: Write> EventSink for ProgressSink<W> {
    fn on_event(&mut self, event: &SimEvent) {
        self.sim_time = event.at();
        match event {
            SimEvent::JobSubmitted { job, .. } => {
                self.jobs.insert(*job, ProgressPhase::Queued);
            }
            SimEvent::DecisionApplied { job, kind, .. } => {
                let phase = match kind {
                    DecisionKind::Launch => ProgressPhase::Running,
                    DecisionKind::Preempt => ProgressPhase::Queued,
                };
                self.jobs.insert(*job, phase);
            }
            // A reconfiguration implies the job holds resources — this is
            // also how fault-evicted jobs re-enter the running set (the
            // relaunch emits `job_restarted` + `reconfigured`, not a
            // launch decision).
            SimEvent::Reconfigured { job, .. } => {
                self.jobs.insert(*job, ProgressPhase::Running);
            }
            SimEvent::JobPreemptedByFault { job, .. } => {
                self.jobs.insert(*job, ProgressPhase::Queued);
            }
            SimEvent::JobFinished { job, .. } => {
                self.jobs.remove(job);
                self.finished += 1;
            }
            SimEvent::JobCancelled { job, .. } => {
                self.jobs.remove(job);
                self.cancelled += 1;
            }
            SimEvent::RoundStarted { .. } | SimEvent::TickSkipped { .. } => {
                self.render();
            }
            _ => {}
        }
    }
}

/// Fans one event stream out to any number of sinks, in order — for runs
/// that combine, say, a JSONL log, a progress line, and a utilization
/// timeline, or a caller's sink with the harness's fault metrics.
#[derive(Default)]
pub struct FanoutSink<'a> {
    sinks: Vec<&'a mut dyn EventSink>,
}

impl<'a> FanoutSink<'a> {
    /// An empty fan-out (events are dropped until sinks are added).
    pub fn new() -> FanoutSink<'a> {
        FanoutSink { sinks: Vec::new() }
    }

    /// Adds a sink; every subsequent event reaches it after the sinks
    /// added before it.
    pub fn push(&mut self, sink: &'a mut dyn EventSink) {
        self.sinks.push(sink);
    }

    /// Number of attached sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether no sink is attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl EventSink for FanoutSink<'_> {
    fn on_event(&mut self, event: &SimEvent) {
        for sink in &mut self.sinks {
            sink.on_event(event);
        }
    }

    fn on_round_latency(&mut self, nanos: u64) {
        for sink in &mut self.sinks {
            sink.on_round_latency(nanos);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        for sink in &mut self.sinks {
            sink.flush()?;
        }
        Ok(())
    }
}

/// A sink that folds the stream into a per-round cluster GPU-utilization
/// timeline, written as JSON Lines (`run --util-timeline <path>`).
///
/// One line is emitted per scheduling tick ([`SimEvent::RoundStarted`] or
/// [`SimEvent::TickSkipped`]) describing the cluster *entering* that
/// round — i.e. the state produced by the previous round's decisions,
/// advanced through any finishes/faults since:
///
/// ```text
/// {"type":"util","at":600,"round":1,"busy_gpus":12,"total_gpus":16,"up_gpus":16,"nodes_down":0,"util":0.75}
/// ```
///
/// `util` is `busy_gpus / total_gpus` against the full (fault-free)
/// capacity, so draining nodes show up as lost utilization; `up_gpus`
/// (capacity net of down nodes) and `nodes_down` let a consumer separate
/// fault-induced dips from scheduler idleness. I/O errors are sticky and
/// reported by [`EventSink::flush`], like [`JsonlSink`].
pub struct UtilTimelineSink<W: Write> {
    out: BufWriter<W>,
    total_gpus: u64,
    gpus_per_node: u32,
    busy: BTreeMap<u64, u32>,
    down_nodes: BTreeMap<u64, ()>,
    lines: u64,
    error: Option<io::Error>,
}

impl UtilTimelineSink<File> {
    /// Creates (truncating) the timeline file at `path` for a cluster of
    /// `nodes` nodes with `gpus_per_node` GPUs each.
    pub fn create(
        path: impl AsRef<Path>,
        nodes: u64,
        gpus_per_node: u32,
    ) -> io::Result<UtilTimelineSink<File>> {
        Ok(UtilTimelineSink::new(
            File::create(path)?,
            nodes,
            gpus_per_node,
        ))
    }
}

impl<W: Write> UtilTimelineSink<W> {
    /// Wraps an arbitrary writer (buffered internally).
    pub fn new(writer: W, nodes: u64, gpus_per_node: u32) -> UtilTimelineSink<W> {
        UtilTimelineSink {
            out: BufWriter::new(writer),
            total_gpus: nodes * u64::from(gpus_per_node),
            gpus_per_node,
            busy: BTreeMap::new(),
            down_nodes: BTreeMap::new(),
            lines: 0,
            error: None,
        }
    }

    /// GPUs currently held by running jobs.
    pub fn busy_gpus(&self) -> u64 {
        self.busy.values().map(|g| u64::from(*g)).sum()
    }

    /// Timeline lines successfully handed to the writer.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    fn emit_point(&mut self, at: f64, round: u64) {
        if self.error.is_some() {
            return;
        }
        let busy = self.busy_gpus();
        let down = self.down_nodes.len() as u64;
        let up = self
            .total_gpus
            .saturating_sub(down * u64::from(self.gpus_per_node));
        let util = if self.total_gpus == 0 {
            0.0
        } else {
            busy as f64 / self.total_gpus as f64
        };
        let mut w = JsonWriter::new("util");
        w.num("at", at);
        w.uint("round", round);
        w.uint("busy_gpus", busy);
        w.uint("total_gpus", self.total_gpus);
        w.uint("up_gpus", up);
        w.uint("nodes_down", down);
        w.num("util", util);
        let mut line = w.finish();
        line.push('\n');
        match self.out.write_all(line.as_bytes()) {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

impl<W: Write> EventSink for UtilTimelineSink<W> {
    fn on_event(&mut self, event: &SimEvent) {
        match event {
            SimEvent::DecisionApplied {
                job, kind, gpus, ..
            } => match kind {
                DecisionKind::Launch => {
                    self.busy.insert(*job, *gpus);
                }
                DecisionKind::Preempt => {
                    self.busy.remove(job);
                }
            },
            // Covers both reshapes of running jobs and fault relaunches
            // (which emit `job_restarted` + `reconfigured`).
            SimEvent::Reconfigured { job, gpus, .. } => {
                self.busy.insert(*job, *gpus);
            }
            SimEvent::JobPreemptedByFault { job, .. } => {
                self.busy.remove(job);
            }
            SimEvent::JobFinished { job, .. } | SimEvent::JobCancelled { job, .. } => {
                self.busy.remove(job);
            }
            SimEvent::NodeFailed { node, .. } => {
                self.down_nodes.insert(*node, ());
            }
            SimEvent::NodeRecovered { node, .. } => {
                self.down_nodes.remove(node);
            }
            SimEvent::RoundStarted { at, round, .. } | SimEvent::TickSkipped { at, round } => {
                self.emit_point(*at, *round);
            }
            _ => {}
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<SimEvent> {
        vec![
            SimEvent::JobSubmitted {
                at: 0.0,
                job: 1,
                tenant: "team-\"a\"".into(),
                class: "guaranteed".into(),
                model: "gpt2".into(),
                gpus: 8,
                cpus: 32,
                mem_gb: 200.5,
                plan: "DP(8)".into(),
            },
            SimEvent::RoundStarted {
                at: 0.0,
                round: 1,
                active_jobs: 1,
            },
            SimEvent::DecisionApplied {
                at: 0.0,
                job: 1,
                kind: DecisionKind::Launch,
                gpus: 8,
                plan: "DP(8)".into(),
                throughput: 123.456789012345,
            },
            SimEvent::Reconfigured {
                at: 600.0,
                job: 1,
                gpus: 4,
                plan: "TP(4)\nnext".into(),
                delay: 31.4159,
            },
            SimEvent::LaunchFailed {
                at: 600.0,
                job: 2,
                reason: "node 0 overcommitted: \\ backslash".into(),
            },
            SimEvent::DecisionApplied {
                at: 900.0,
                job: 1,
                kind: DecisionKind::Preempt,
                gpus: 4,
                plan: "TP(4)".into(),
                throughput: 0.0,
            },
            SimEvent::JobFinished {
                at: 1234.5678901234567,
                job: 1,
                tenant: String::new(),
                class: "best-effort".into(),
                model: "resnet50".into(),
                submit_time: 0.1,
                first_start: Some(2.5),
                reconfig_count: 3,
                reconfig_time: 93.0,
                reconfig_gpu_seconds: 372.0,
                gpu_seconds: 1e6,
                runtime: 0.3333333333333333,
                target_batches: 10_000,
                baseline_throughput: None,
                avg_throughput: 7.25,
            },
            SimEvent::TickSkipped {
                at: 3600.0,
                round: 2,
            },
            SimEvent::ModelRefit {
                at: 4200.0,
                model: "llama-7b".into(),
                shift: 0.23456789,
                old_params: params_to_str(&[1.5, 4.0, 0.01, 0.5, 2.0, 3.0, 0.02]),
                new_params: params_to_str(&[1.25, 3.5, 0.015, 0.45, 2.5, 2.75, 0.018]),
            },
        ]
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        for ev in sample_events() {
            let line = ev.to_jsonl();
            let back = SimEvent::from_jsonl(&line).unwrap();
            assert_eq!(ev, back, "line: {line}");
            // Serialization is a fixed point: re-encoding the parsed event
            // yields the same bytes.
            assert_eq!(back.to_jsonl(), line);
        }
    }

    #[test]
    fn floats_survive_shortest_round_trip() {
        let ev = SimEvent::TickSkipped {
            at: f64::from_bits(0x3FD5_5555_5555_5555), // 1/3
            round: u64::MAX,
        };
        let back = SimEvent::from_jsonl(&ev.to_jsonl()).unwrap();
        assert_eq!(ev, back);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(SimEvent::from_jsonl("").is_err());
        assert!(SimEvent::from_jsonl("{}").is_err());
        assert!(SimEvent::from_jsonl("{\"type\":\"nope\"}").is_err());
        assert!(SimEvent::from_jsonl("{\"type\":\"tick_skipped\"}").is_err());
        assert!(
            SimEvent::from_jsonl("{\"type\":\"tick_skipped\",\"at\":1,\"round\":2} x").is_err()
        );
        assert!(
            SimEvent::from_jsonl("{\"type\":\"tick_skipped\",\"at\":\"x\",\"round\":2}").is_err()
        );
    }

    #[test]
    fn jsonl_sink_writes_header_then_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        for ev in sample_events() {
            sink.on_event(&ev);
        }
        sink.flush().unwrap();
        assert_eq!(sink.events_written(), sample_events().len() as u64);
        let bytes = sink.writer.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            parse_jsonl_line(lines.next().unwrap()).unwrap(),
            JsonlLine::Schema(SCHEMA_VERSION)
        );
        let parsed: Vec<SimEvent> = lines
            .map(|l| match parse_jsonl_line(l).unwrap() {
                JsonlLine::Event(ev) => ev,
                JsonlLine::Schema(v) => panic!("unexpected second header v{v}"),
            })
            .collect();
        assert_eq!(parsed, sample_events());
    }

    #[test]
    fn empty_jsonl_sink_writes_nothing() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.flush().unwrap();
        assert!(sink.writer.into_inner().unwrap().is_empty());
    }

    #[test]
    fn parser_tolerates_unknown_fields() {
        // A newer writer may add fields; lookups go by key, so parsing
        // must ignore the extras — for both events and the header.
        let line = "{\"type\":\"tick_skipped\",\"at\":1.5,\"round\":2,\"new_field\":\"x\"}";
        assert_eq!(
            SimEvent::from_jsonl(line).unwrap(),
            SimEvent::TickSkipped { at: 1.5, round: 2 }
        );
        let header = "{\"type\":\"schema\",\"version\":2,\"generator\":\"future\"}";
        assert_eq!(parse_jsonl_line(header).unwrap(), JsonlLine::Schema(2));
        // Unknown event *types* are still an error.
        assert!(parse_jsonl_line("{\"type\":\"wormhole\",\"at\":0}").is_err());
    }

    #[test]
    fn fault_events_round_trip() {
        let events = vec![
            SimEvent::NodeFailed { at: 10.0, node: 3 },
            SimEvent::NodeRecovered { at: 20.0, node: 3 },
            SimEvent::JobPreemptedByFault {
                at: 10.0,
                job: 7,
                node: 3,
                gpus: 8,
                plan: "DP(8)".into(),
            },
            SimEvent::JobRestarted {
                at: 15.5,
                job: 7,
                gpus: 4,
                plan: "TP(4)".into(),
                penalty: 120.0,
            },
        ];
        for ev in events {
            let line = ev.to_jsonl();
            assert_eq!(SimEvent::from_jsonl(&line).unwrap(), ev, "line: {line}");
            assert_eq!(parse_jsonl_line(&line).unwrap(), JsonlLine::Event(ev));
        }
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        use std::sync::{Arc, Mutex};
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let shared = Shared(Arc::new(Mutex::new(Vec::new())));
        {
            let mut sink = JsonlSink::new(shared.clone());
            sink.on_event(&SimEvent::TickSkipped { at: 1.0, round: 1 });
            // No flush: drop must deliver the buffered lines.
        }
        let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "header + one event, got: {text:?}");
        assert_eq!(
            parse_jsonl_line(lines[0]).unwrap(),
            JsonlLine::Schema(SCHEMA_VERSION)
        );
    }

    #[test]
    fn jsonl_sink_reports_write_errors_on_flush() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Broken);
        for _ in 0..5000 {
            sink.on_event(&SimEvent::TickSkipped { at: 0.0, round: 1 });
        }
        assert!(sink.flush().is_err(), "error must surface at flush");
    }

    #[test]
    fn fault_metrics_fold_accounts_downtime_and_goodput() {
        let mut sink = FaultMetricsSink::new();
        sink.on_event(&SimEvent::NodeFailed { at: 100.0, node: 0 });
        sink.on_event(&SimEvent::JobPreemptedByFault {
            at: 100.0,
            job: 1,
            node: 0,
            gpus: 8,
            plan: "DP(8)".into(),
        });
        sink.on_event(&SimEvent::JobRestarted {
            at: 160.0,
            job: 1,
            gpus: 4,
            plan: "TP(4)".into(),
            penalty: 30.0,
        });
        sink.on_event(&SimEvent::NodeRecovered { at: 400.0, node: 0 });
        assert!(sink.any_faults());
        assert_eq!(sink.node_failures, 1);
        assert_eq!(sink.node_recoveries, 1);
        assert!((sink.node_downtime_secs - 300.0).abs() < 1e-9);
        assert_eq!(sink.fault_evictions, 1);
        assert_eq!(sink.restarts, 1);
        assert!((sink.mean_time_to_reschedule() - 60.0).abs() < 1e-9);
        // 8 GPUs idle for 60 s + 30 s penalty on the new 4 GPUs.
        assert!((sink.goodput_lost_gpu_seconds - (8.0 * 60.0 + 30.0 * 4.0)).abs() < 1e-9);
        assert_eq!(sink.nodes_still_down(), 0);
        assert_eq!(sink.jobs_awaiting_restart(), 0);
        assert!(sink.summary().contains("fault_evictions=1"));
        // A fault-free stream folds to silence.
        let mut clean = FaultMetricsSink::new();
        for ev in sample_events() {
            clean.on_event(&ev);
        }
        assert!(!clean.any_faults());
    }

    #[test]
    fn round_planned_round_trips_and_counts() {
        let ev = SimEvent::RoundPlanned {
            at: 600.0,
            round: 3,
            dirty: 2,
            clean: 40,
            reused: 30,
            searched: 12,
            classified: 5,
        };
        let line = ev.to_jsonl();
        assert_eq!(SimEvent::from_jsonl(&line).unwrap(), ev, "line: {line}");
        assert_eq!(
            parse_jsonl_line(&line).unwrap(),
            JsonlLine::Event(ev.clone())
        );
        assert_eq!(ev.kind(), "round_planned");
        assert_eq!(ev.at(), 600.0);
    }

    #[test]
    fn round_planned_parses_pre_delta_streams() {
        // Streams written before the searched/classified counters existed
        // carry five fields; missing counters read back as zero, while a
        // malformed present value still errors.
        let old = r#"{"type":"round_planned","at":600,"round":3,"dirty":2,"clean":40,"reused":30}"#;
        let ev = SimEvent::from_jsonl(old).unwrap();
        assert_eq!(
            ev,
            SimEvent::RoundPlanned {
                at: 600.0,
                round: 3,
                dirty: 2,
                clean: 40,
                reused: 30,
                searched: 0,
                classified: 0,
            }
        );
        let bad = r#"{"type":"round_planned","at":600,"round":3,"dirty":2,"clean":40,"reused":30,"searched":"nope"}"#;
        assert!(SimEvent::from_jsonl(bad).is_err());
    }

    #[test]
    fn job_cancelled_round_trips_and_counts() {
        let ev = SimEvent::JobCancelled {
            at: 42.5,
            job: 7,
            gpus: 8,
            plan: "DP(8)".into(),
        };
        let line = ev.to_jsonl();
        assert_eq!(SimEvent::from_jsonl(&line).unwrap(), ev, "line: {line}");
        assert_eq!(
            parse_jsonl_line(&line).unwrap(),
            JsonlLine::Event(ev.clone())
        );
        assert_eq!(ev.kind(), "job_cancelled");
        assert!(SimEvent::known_type("job_cancelled"));
        assert!(!SimEvent::known_type("schema"));
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rubick-obs-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn read_event_log_classifies_lines() {
        let path = temp_path("classify.jsonl");
        let mut text = String::new();
        text.push_str(&schema_header_line());
        text.push('\n');
        for ev in sample_events() {
            text.push_str(&ev.to_jsonl());
            text.push('\n');
        }
        text.push_str("{\"type\":\"submit_op\",\"job\":9,\"at\":1.5}\r\n");
        text.push('\n'); // blank lines are skipped
        std::fs::write(&path, &text).unwrap();

        let log = read_event_log_tolerant(&path).unwrap().unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(!log.torn_tail);
        assert_eq!(log.text, text);
        let lines = log.lines.clone();
        assert_eq!(lines.len(), sample_events().len() + 2);
        assert_eq!(log.raw(0), schema_header_line());
        assert_eq!(log.raw(1), sample_events()[0].to_jsonl());
        assert_eq!(
            log.raw(lines.len() - 1),
            "{\"type\":\"submit_op\",\"job\":9,\"at\":1.5}",
            "the raw text drops the CRLF"
        );
        assert_eq!(lines[0], LogLine::Schema(SCHEMA_VERSION));
        for (i, ev) in sample_events().into_iter().enumerate() {
            assert_eq!(lines[1 + i], LogLine::Event(ev));
        }
        match lines.last().unwrap() {
            LogLine::Other(obj) => {
                assert_eq!(obj.ty().unwrap(), "submit_op");
                assert_eq!(obj.uint("job").unwrap(), 9);
                assert_eq!(obj.num("at").unwrap(), 1.5);
                assert!(obj.contains("at"));
                assert!(!obj.contains("missing"));
                assert_eq!(obj.uint_or(3, "missing").unwrap(), 3);
                assert_eq!(obj.num_or(2.5, "missing").unwrap(), 2.5);
                assert_eq!(obj.opt_str("missing").unwrap(), None);
            }
            other => panic!("expected Other, got {other:?}"),
        }
    }

    #[test]
    fn tolerant_read_forgives_only_a_torn_tail() {
        let path = temp_path("torn.jsonl");
        let ev = SimEvent::TickSkipped { at: 1.0, round: 1 };
        // A log whose final line was cut mid-write.
        let mut text = String::new();
        text.push_str(&schema_header_line());
        text.push('\n');
        text.push_str(&ev.to_jsonl());
        text.push('\n');
        let whole = text.clone();
        text.push_str("{\"type\":\"tick_skip"); // torn
        std::fs::write(&path, &text).unwrap();
        let log = read_event_log_tolerant(&path).unwrap().unwrap();
        assert!(log.torn_tail);
        assert_eq!(log.text, whole, "the torn line is not kept");
        assert_eq!(
            log.lines,
            vec![LogLine::Schema(SCHEMA_VERSION), LogLine::Event(ev.clone())]
        );
        // A malformed line *before* the end is a real error.
        let mut bad = String::new();
        bad.push_str("{\"type\":\"tick_skip\n");
        bad.push_str(&ev.to_jsonl());
        bad.push('\n');
        std::fs::write(&path, &bad).unwrap();
        let err = read_event_log_tolerant(&path).unwrap().unwrap_err();
        assert_eq!(err.line, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn progress_sink_tracks_phases_and_renders() {
        let mut sink = ProgressSink::new(Vec::new());
        sink.on_event(&SimEvent::JobSubmitted {
            at: 0.0,
            job: 1,
            tenant: String::new(),
            class: "guaranteed".into(),
            model: "gpt2".into(),
            gpus: 4,
            cpus: 16,
            mem_gb: 100.0,
            plan: "DP(4)".into(),
        });
        assert_eq!((sink.running(), sink.queued()), (0, 1));
        sink.on_event(&SimEvent::RoundStarted {
            at: 0.0,
            round: 1,
            active_jobs: 1,
        });
        sink.on_event(&SimEvent::DecisionApplied {
            at: 0.0,
            job: 1,
            kind: DecisionKind::Launch,
            gpus: 4,
            plan: "DP(4)".into(),
            throughput: 10.0,
        });
        assert_eq!((sink.running(), sink.queued()), (1, 0));
        sink.on_event(&SimEvent::JobPreemptedByFault {
            at: 5.0,
            job: 1,
            node: 0,
            gpus: 4,
            plan: "DP(4)".into(),
        });
        assert_eq!((sink.running(), sink.queued()), (0, 1));
        sink.on_event(&SimEvent::Reconfigured {
            at: 6.0,
            job: 1,
            gpus: 2,
            plan: "DP(2)".into(),
            delay: 15.0,
        });
        assert_eq!((sink.running(), sink.queued()), (1, 0));
        sink.on_event(&SimEvent::JobFinished {
            at: 100.0,
            job: 1,
            tenant: String::new(),
            class: "guaranteed".into(),
            model: "gpt2".into(),
            submit_time: 0.0,
            first_start: Some(0.0),
            reconfig_count: 1,
            reconfig_time: 15.0,
            reconfig_gpu_seconds: 30.0,
            gpu_seconds: 350.0,
            runtime: 100.0,
            target_batches: 100,
            baseline_throughput: Some(10.0),
            avg_throughput: 9.0,
        });
        sink.on_event(&SimEvent::TickSkipped {
            at: 100.0,
            round: 2,
        });
        assert_eq!(sink.finished(), 1);
        sink.finish().unwrap();
        let text = String::from_utf8(sink.out).unwrap();
        assert!(text.contains("\r[sim t=0s] running=0 queued=1 finished=0"));
        assert!(text.contains("\r[sim t=100s] running=0 queued=0 finished=1"));
        assert!(text.ends_with('\n'));
    }

    /// Records what a sink sees: events and round latencies.
    #[derive(Default)]
    struct Recorder {
        events: Vec<SimEvent>,
        latencies: Vec<u64>,
    }

    impl EventSink for Recorder {
        fn on_event(&mut self, event: &SimEvent) {
            self.events.push(event.clone());
        }

        fn on_round_latency(&mut self, nanos: u64) {
            self.latencies.push(nanos);
        }
    }

    #[test]
    fn fanout_sink_of_two_feeds_both() {
        let mut a = Recorder::default();
        let mut b = VecSink::default();
        {
            let mut fan = FanoutSink::new();
            fan.push(&mut a);
            fan.push(&mut b);
            for ev in sample_events() {
                fan.on_event(&ev);
            }
            fan.on_round_latency(10);
            fan.flush().unwrap();
        }
        assert_eq!(a.events, sample_events());
        assert_eq!(a.latencies, [10]);
        assert_eq!(b.events, sample_events());
    }

    #[test]
    fn fanout_sink_feeds_all_in_order() {
        let mut a = Recorder::default();
        let mut b = VecSink::default();
        let mut c = VecSink::default();
        {
            let mut fan = FanoutSink::new();
            assert!(fan.is_empty());
            fan.push(&mut a);
            fan.push(&mut b);
            fan.push(&mut c);
            assert_eq!(fan.len(), 3);
            for ev in sample_events() {
                fan.on_event(&ev);
            }
            fan.on_round_latency(10);
            fan.flush().unwrap();
        }
        assert_eq!(a.events, sample_events());
        assert_eq!(a.latencies, [10]);
        assert_eq!(b.events, sample_events());
        assert_eq!(c.events, b.events);
    }

    #[test]
    fn params_codec_round_trips_bit_exactly() {
        let params = [
            1.5,
            4.0,
            f64::from_bits(0x3FD5_5555_5555_5555), // 1/3
            0.45,
            2.5,
            1e-12,
            0.0,
        ];
        let s = params_to_str(&params);
        let back = params_from_str(&s).unwrap();
        for i in 0..7 {
            assert_eq!(params[i].to_bits(), back[i].to_bits(), "component {i}");
        }
        assert!(params_from_str("1,2,3").is_err());
        assert!(params_from_str("1,2,3,4,5,6,7,8").is_err());
        assert!(params_from_str("1,2,3,4,5,six,7").is_err());
    }

    #[test]
    fn model_refit_round_trips() {
        let ev = SimEvent::ModelRefit {
            at: 1.0,
            model: "gpt2".into(),
            shift: 0.2,
            old_params: "1,1,1,1,1,1,1".into(),
            new_params: "2,2,2,2,2,2,2".into(),
        };
        let line = ev.to_jsonl();
        assert_eq!(SimEvent::from_jsonl(&line).unwrap(), ev, "line: {line}");
        assert_eq!(ev.kind(), "model_refit");
        assert!(SimEvent::known_type("model_refit"));
    }

    #[test]
    fn util_timeline_tracks_busy_gpus_per_round() {
        let mut sink = UtilTimelineSink::new(Vec::new(), 2, 8);
        let events = vec![
            SimEvent::RoundStarted {
                at: 0.0,
                round: 1,
                active_jobs: 1,
            },
            SimEvent::DecisionApplied {
                at: 0.0,
                job: 1,
                kind: DecisionKind::Launch,
                gpus: 8,
                plan: "DP(8)".into(),
                throughput: 10.0,
            },
            SimEvent::RoundStarted {
                at: 600.0,
                round: 2,
                active_jobs: 2,
            },
            SimEvent::Reconfigured {
                at: 600.0,
                job: 1,
                gpus: 4,
                plan: "DP(4)".into(),
                delay: 30.0,
            },
            SimEvent::NodeFailed { at: 700.0, node: 1 },
            SimEvent::RoundStarted {
                at: 1200.0,
                round: 3,
                active_jobs: 2,
            },
            SimEvent::JobFinished {
                at: 1500.0,
                job: 1,
                tenant: String::new(),
                class: "best-effort".into(),
                model: "gpt2".into(),
                submit_time: 0.0,
                first_start: Some(0.0),
                reconfig_count: 1,
                reconfig_time: 30.0,
                reconfig_gpu_seconds: 120.0,
                gpu_seconds: 9000.0,
                runtime: 1500.0,
                target_batches: 100,
                baseline_throughput: None,
                avg_throughput: 10.0,
            },
            SimEvent::TickSkipped {
                at: 1800.0,
                round: 4,
            },
        ];
        for ev in &events {
            sink.on_event(ev);
        }
        sink.flush().unwrap();
        assert_eq!(sink.lines_written(), 4);
        assert_eq!(sink.busy_gpus(), 0);
        let bytes = sink.out.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // Round 1: nothing running yet (decisions land after the round
        // event), full capacity up.
        assert_eq!(
            lines[0],
            "{\"type\":\"util\",\"at\":0,\"round\":1,\"busy_gpus\":0,\
             \"total_gpus\":16,\"up_gpus\":16,\"nodes_down\":0,\"util\":0}"
        );
        // Round 2: job 1 holds 8 GPUs from the launch.
        assert!(lines[1].contains("\"busy_gpus\":8"));
        assert!(lines[1].contains("\"util\":0.5"));
        // Round 3: reshape to 4 GPUs took effect and a node went down.
        assert!(lines[2].contains("\"busy_gpus\":4"));
        assert!(lines[2].contains("\"up_gpus\":8"));
        assert!(lines[2].contains("\"nodes_down\":1"));
        assert!(lines[2].contains("\"util\":0.25"));
        // Round 4 (skipped tick): the finish released everything.
        assert!(lines[3].contains("\"busy_gpus\":0"));
        assert!(lines[3].contains("\"round\":4"));
    }
}
