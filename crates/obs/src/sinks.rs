//! Consumers of the event stream.

use crate::event::{schema_header_line, DecisionKind, SimEvent};
use crate::json::JsonWriter;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

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
/// (see [`SCHEMA_VERSION`](crate::SCHEMA_VERSION)); read sink output back
/// line by line with [`parse_log_line`](crate::parse_log_line), or as a
/// whole file with [`read_event_log_tolerant`](crate::read_event_log_tolerant).
/// I/O errors are sticky: the first error is remembered and reported by
/// [`EventSink::flush`] (writes after an error become no-ops), so a broken
/// pipe halfway through a run cannot pass silently.
pub struct JsonlSink<W: Write> {
    pub(crate) writer: BufWriter<W>,
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
    pub(crate) out: W,
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
    pub(crate) out: BufWriter<W>,
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
