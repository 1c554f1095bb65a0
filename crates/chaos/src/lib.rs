//! # rubick-chaos
//!
//! Deterministic fault injection for the Rubick simulator: node failures
//! and recoveries, per-node straggler slowdowns, probabilistic job-launch
//! failures, and checkpoint-restart penalties.
//!
//! The crate compiles a [`ChaosConfig`] — either rate knobs or an explicit
//! scripted scenario — into a [`FaultPlan`]: a fully materialized, sorted
//! timeline of node fault arrivals plus pure lookup functions for
//! stragglers and launch failures. The simulation engine consumes the plan
//! as data; nothing here draws randomness at simulation time, so the same
//! seed and config always produce the same faults regardless of scheduler,
//! thread count, or host.
//!
//! Determinism contract:
//!
//! * Node fault streams are seeded per node (`seed`, node id), so adding a
//!   node never perturbs another node's failures.
//! * Launch-failure decisions are a pure hash of `(seed, job, attempt)` —
//!   no shared RNG state that scheduling order could advance differently.
//! * Straggler assignment is drawn once at compile time.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;

/// A scripted fault directive from a scenario file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScriptedFault {
    /// Node `node` fails at simulation time `at` (seconds).
    Fail {
        /// Node index.
        node: usize,
        /// Simulation time, seconds.
        at: f64,
    },
    /// Node `node` recovers at simulation time `at` (seconds).
    Recover {
        /// Node index.
        node: usize,
        /// Simulation time, seconds.
        at: f64,
    },
    /// Node `node` is a straggler: oracle throughput of any job touching
    /// it is multiplied by `factor` (in `(0, 1]`).
    Straggle {
        /// Node index.
        node: usize,
        /// Throughput multiplier, `(0, 1]`.
        factor: f64,
    },
}

impl ScriptedFault {
    /// The range check of the directive's value.
    fn check(&self) -> Result<(), String> {
        match *self {
            ScriptedFault::Fail { at, .. } | ScriptedFault::Recover { at, .. } => {
                Range::NonNeg.check("scripted fault time", at)
            }
            ScriptedFault::Straggle { factor, .. } => {
                Range::Factor.check("straggle factor", factor)
            }
        }
    }
}

/// The valid range of a knob or directive value.
#[derive(Debug, Clone, Copy)]
enum Range {
    /// Finite and `>= 0`.
    NonNeg,
    /// In `[0, 1]`.
    Unit,
    /// In `(0, 1]`.
    Factor,
}

impl Range {
    /// `Ok` when `v` is in range, else a message naming `name`.
    fn check(self, name: &str, v: f64) -> Result<(), String> {
        let (ok, want) = match self {
            Range::NonNeg => (v.is_finite() && v >= 0.0, "finite and >= 0"),
            Range::Unit => ((0.0..=1.0).contains(&v), "in [0, 1]"),
            Range::Factor => (v > 0.0 && v <= 1.0, "in (0, 1]"),
        };
        if ok {
            Ok(())
        } else {
            Err(format!("{name} must be {want}, got {v}"))
        }
    }
}

/// Knobs controlling fault generation.
///
/// All rates default to zero, so `ChaosConfig::default()` compiles to a
/// no-op [`FaultPlan`]. Scenario files (see [`ChaosConfig::parse`]) can set
/// any knob and/or script explicit faults; when any `fail`/`recover`
/// directive is scripted, random failure generation is disabled and the
/// script is the complete failure timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed for all fault randomness.
    pub seed: u64,
    /// Expected failures per node per hour (Poisson arrivals).
    pub node_failure_rate_per_hour: f64,
    /// Mean repair time, seconds; actual repairs are uniform in
    /// `[0.5, 1.5) ×` this value.
    pub node_repair_secs: f64,
    /// Fraction of nodes independently marked stragglers at compile time.
    pub straggler_frac: f64,
    /// Throughput multiplier applied on straggler nodes, `(0, 1]`.
    pub straggler_slowdown: f64,
    /// Probability each individual launch attempt fails transiently.
    pub launch_failure_prob: f64,
    /// Extra delay (seconds) charged when a fault-evicted job restarts, on
    /// top of the normal checkpoint-resume cost.
    pub restart_penalty_secs: f64,
    /// Explicit scripted faults (scenario mode).
    pub scripted: Vec<ScriptedFault>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            node_failure_rate_per_hour: 0.0,
            node_repair_secs: 1800.0,
            straggler_frac: 0.0,
            straggler_slowdown: 0.5,
            launch_failure_prob: 0.0,
            restart_penalty_secs: 90.0,
            scripted: Vec::new(),
        }
    }
}

/// Errors from parsing a chaos config or compiling a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosError {
    /// A scenario-file line could not be parsed.
    Parse {
        /// 1-based line number in the config text.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A scripted directive referenced a node outside the cluster.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// Number of nodes in the cluster.
        nodes: usize,
    },
    /// A knob value was outside its valid range.
    Invalid(String),
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::Parse { line, message } => {
                write!(f, "chaos config line {line}: {message}")
            }
            ChaosError::NodeOutOfRange { node, nodes } => {
                write!(f, "scripted fault names node {node}, cluster has {nodes}")
            }
            ChaosError::Invalid(msg) => write!(f, "invalid chaos config: {msg}"),
        }
    }
}

impl std::error::Error for ChaosError {}

impl ChaosConfig {
    /// Parses the textual scenario format.
    ///
    /// One directive per line; `#` starts a comment. Knobs are
    /// `key value` pairs (`seed`, `node-failure-rate-per-hour`,
    /// `node-repair-secs`, `straggler-frac`, `straggler-slowdown`,
    /// `launch-failure-prob`, `restart-penalty-secs`); scripted faults are
    /// `fail <node> <at-secs>`, `recover <node> <at-secs>` and
    /// `straggle <node> <factor>`.
    ///
    /// ```
    /// let cfg = rubick_chaos::ChaosConfig::parse(
    ///     "seed 7\nlaunch-failure-prob 0.05\nfail 0 1800\nrecover 0 9000\n",
    /// )
    /// .unwrap();
    /// assert_eq!(cfg.seed, 7);
    /// assert_eq!(cfg.scripted.len(), 2);
    /// ```
    pub fn parse(text: &str) -> Result<ChaosConfig, ChaosError> {
        let mut cfg = ChaosConfig::default();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let err = |message: String| ChaosError::Parse { line, message };
            let body = raw.split('#').next().unwrap_or("").trim();
            if body.is_empty() {
                continue;
            }
            let mut tok = body.split_whitespace();
            let key = tok.next().expect("non-empty line has a first token");
            let args: Vec<&str> = tok.collect();
            let one = |args: &[&str]| -> Result<f64, ChaosError> {
                if args.len() != 1 {
                    return Err(err(format!("{key} takes one value, got {}", args.len())));
                }
                args[0]
                    .parse::<f64>()
                    .map_err(|_| err(format!("{key}: bad number {:?}", args[0])))
            };
            let two = |args: &[&str]| -> Result<(usize, f64), ChaosError> {
                if args.len() != 2 {
                    return Err(err(format!(
                        "{key} takes <node> <value>, got {}",
                        args.len()
                    )));
                }
                let node = args[0]
                    .parse::<usize>()
                    .map_err(|_| err(format!("{key}: bad node index {:?}", args[0])))?;
                let v = args[1]
                    .parse::<f64>()
                    .map_err(|_| err(format!("{key}: bad number {:?}", args[1])))?;
                Ok((node, v))
            };
            match key {
                "seed" => {
                    if args.len() != 1 {
                        return Err(err("seed takes one value".into()));
                    }
                    cfg.seed = args[0]
                        .parse::<u64>()
                        .map_err(|_| err(format!("seed: bad integer {:?}", args[0])))?;
                }
                "fail" | "recover" | "straggle" => {
                    let (node, v) = two(&args)?;
                    let fault = match key {
                        "fail" => ScriptedFault::Fail { node, at: v },
                        "recover" => ScriptedFault::Recover { node, at: v },
                        _ => ScriptedFault::Straggle { node, factor: v },
                    };
                    fault.check().map_err(err)?;
                    cfg.scripted.push(fault);
                }
                knob => {
                    let slot = match knob {
                        "node-failure-rate-per-hour" => &mut cfg.node_failure_rate_per_hour,
                        "node-repair-secs" => &mut cfg.node_repair_secs,
                        "straggler-frac" => &mut cfg.straggler_frac,
                        "straggler-slowdown" => &mut cfg.straggler_slowdown,
                        "launch-failure-prob" => &mut cfg.launch_failure_prob,
                        "restart-penalty-secs" => &mut cfg.restart_penalty_secs,
                        other => return Err(err(format!("unknown directive {other:?}"))),
                    };
                    *slot = one(&args)?;
                    let (name, range, v) = cfg
                        .knobs()
                        .into_iter()
                        .find(|(name, ..)| *name == knob)
                        .expect("every parsed knob is listed");
                    range.check(name, v).map_err(err)?;
                }
            }
        }
        Ok(cfg)
    }

    /// Each rate knob's scenario-file name, valid range and value.
    fn knobs(&self) -> [(&'static str, Range, f64); 6] {
        [
            (
                "node-failure-rate-per-hour",
                Range::NonNeg,
                self.node_failure_rate_per_hour,
            ),
            ("node-repair-secs", Range::NonNeg, self.node_repair_secs),
            ("straggler-frac", Range::Unit, self.straggler_frac),
            ("straggler-slowdown", Range::Factor, self.straggler_slowdown),
            ("launch-failure-prob", Range::Unit, self.launch_failure_prob),
            (
                "restart-penalty-secs",
                Range::NonNeg,
                self.restart_penalty_secs,
            ),
        ]
    }

    /// Range-checks every knob and scripted directive of a config built in
    /// code ([`ChaosConfig::parse`] checks each line as it reads it).
    fn validate(&self) -> Result<(), ChaosError> {
        for (name, range, v) in self.knobs() {
            range.check(name, v).map_err(ChaosError::Invalid)?;
        }
        for s in &self.scripted {
            s.check().map_err(ChaosError::Invalid)?;
        }
        Ok(())
    }

    /// Whether explicit `fail`/`recover` directives were scripted; if so,
    /// random failure generation is disabled at compile time.
    pub fn has_scripted_failures(&self) -> bool {
        self.scripted.iter().any(|s| {
            matches!(
                s,
                ScriptedFault::Fail { .. } | ScriptedFault::Recover { .. }
            )
        })
    }
}

/// Whether a [`FaultEvent`] takes a node down or brings it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// The node fails; running jobs on it are evicted.
    Down,
    /// The node recovers, fully free.
    Up,
}

/// One node fault arrival in the compiled timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulation time, seconds.
    pub at: f64,
    /// Node index.
    pub node: usize,
    /// Down or up.
    pub kind: FaultKind,
}

/// A compiled, fully deterministic fault schedule.
///
/// Compile once per simulation from a [`ChaosConfig`]; the engine then
/// consumes the [`FaultPlan::timeline`] as ordinary queued events and
/// queries [`FaultPlan::slowdown`] / [`FaultPlan::launch_fails`] as pure
/// functions.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    launch_failure_prob: f64,
    restart_penalty_secs: f64,
    slowdown: BTreeMap<usize, f64>,
    timeline: Vec<FaultEvent>,
}

/// splitmix64-style finalizer: a well-mixed pure function of its input.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combines the master seed, a stream salt and an index into one stream
/// seed, so every (node, purpose) pair gets an independent RNG.
fn stream_seed(seed: u64, salt: u64, index: u64) -> u64 {
    mix64(seed ^ mix64(salt) ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// The most node fault events a compiled timeline may hold: far above any
/// committed config (the smoke sweep's 0.3 failures per node-hour on 8
/// nodes compile to about 14k over 120 days), far below exhausting memory.
const MAX_FAULT_EVENTS: usize = 1_000_000;

const SALT_FAILURES: u64 = 0xFA11;
const SALT_STRAGGLERS: u64 = 0x51_0C;
const SALT_LAUNCH: u64 = 0x1AC4;

impl FaultPlan {
    /// Compiles `config` for a cluster of `nodes` nodes over `[0, horizon)`
    /// seconds of simulation time.
    ///
    /// # Errors
    ///
    /// Rejects invalid knob values, scripted directives naming nodes
    /// outside the cluster, and random failures that would compile to more
    /// than a million fault events.
    pub fn compile(
        config: &ChaosConfig,
        nodes: usize,
        horizon: f64,
    ) -> Result<FaultPlan, ChaosError> {
        config.validate()?;
        if !horizon.is_finite() || horizon < 0.0 {
            return Err(ChaosError::Invalid(format!(
                "horizon must be finite and >= 0, got {horizon}"
            )));
        }
        for s in &config.scripted {
            let node = match *s {
                ScriptedFault::Fail { node, .. }
                | ScriptedFault::Recover { node, .. }
                | ScriptedFault::Straggle { node, .. } => node,
            };
            if node >= nodes {
                return Err(ChaosError::NodeOutOfRange { node, nodes });
            }
        }

        // Stragglers: drawn once per node from an independent stream, then
        // overridden by any scripted `straggle` directive.
        let mut slowdown: BTreeMap<usize, f64> = BTreeMap::new();
        if config.straggler_frac > 0.0 {
            for node in 0..nodes {
                let mut rng =
                    SmallRng::seed_from_u64(stream_seed(config.seed, SALT_STRAGGLERS, node as u64));
                if rng.random::<f64>() < config.straggler_frac {
                    slowdown.insert(node, config.straggler_slowdown);
                }
            }
        }
        for s in &config.scripted {
            if let ScriptedFault::Straggle { node, factor } = *s {
                slowdown.insert(node, factor);
            }
        }

        // Failure timeline: the script verbatim, or per-node Poisson
        // arrivals with uniform-jittered repairs.
        let mut timeline: Vec<FaultEvent> = Vec::new();
        if config.has_scripted_failures() {
            for s in &config.scripted {
                match *s {
                    ScriptedFault::Fail { node, at } if at < horizon => {
                        timeline.push(FaultEvent {
                            at,
                            node,
                            kind: FaultKind::Down,
                        });
                    }
                    ScriptedFault::Recover { node, at } if at < horizon => {
                        timeline.push(FaultEvent {
                            at,
                            node,
                            kind: FaultKind::Up,
                        });
                    }
                    _ => {}
                }
            }
        } else if config.node_failure_rate_per_hour > 0.0 {
            let lambda = config.node_failure_rate_per_hour / 3600.0;
            let mut push = |event: FaultEvent| {
                if timeline.len() == MAX_FAULT_EVENTS {
                    return Err(ChaosError::Invalid(format!(
                        "node-failure-rate-per-hour {} with node-repair-secs {} on {nodes} \
                         nodes over {horizon} s compiles to more than {MAX_FAULT_EVENTS} \
                         fault events; lower the rate or raise the repair time",
                        config.node_failure_rate_per_hour, config.node_repair_secs
                    )));
                }
                timeline.push(event);
                Ok(())
            };
            for node in 0..nodes {
                let mut rng =
                    SmallRng::seed_from_u64(stream_seed(config.seed, SALT_FAILURES, node as u64));
                let mut t = 0.0;
                loop {
                    // Exponential inter-arrival: -ln(1-u)/λ, with ln_1p for
                    // accuracy near u = 0.
                    let u: f64 = rng.random();
                    t += -(-u).ln_1p() / lambda;
                    if t >= horizon {
                        break;
                    }
                    push(FaultEvent {
                        at: t,
                        node,
                        kind: FaultKind::Down,
                    })?;
                    let repair = config.node_repair_secs * (0.5 + rng.random::<f64>());
                    t += repair.max(1.0);
                    if t >= horizon {
                        break; // Stays down for the rest of the run.
                    }
                    push(FaultEvent {
                        at: t,
                        node,
                        kind: FaultKind::Up,
                    })?;
                }
            }
        }
        // Stable order: time, then node, then Down before Up — identical
        // regardless of script order or node iteration.
        timeline.sort_by(|a, b| {
            a.at.total_cmp(&b.at)
                .then(a.node.cmp(&b.node))
                .then(a.kind.cmp(&b.kind))
        });

        Ok(FaultPlan {
            seed: config.seed,
            launch_failure_prob: config.launch_failure_prob,
            restart_penalty_secs: config.restart_penalty_secs,
            slowdown,
            timeline,
        })
    }

    /// A plan that injects nothing (what `ChaosConfig::default()` compiles
    /// to).
    pub fn noop() -> FaultPlan {
        FaultPlan {
            seed: 0,
            launch_failure_prob: 0.0,
            restart_penalty_secs: 0.0,
            slowdown: BTreeMap::new(),
            timeline: Vec::new(),
        }
    }

    /// Whether the plan can never perturb a simulation.
    pub fn is_noop(&self) -> bool {
        self.timeline.is_empty() && self.slowdown.is_empty() && self.launch_failure_prob <= 0.0
    }

    /// The sorted node fault arrivals.
    pub fn timeline(&self) -> &[FaultEvent] {
        &self.timeline
    }

    /// Throughput multiplier for jobs with GPUs on `node` (1.0 = healthy).
    pub fn slowdown(&self, node: usize) -> f64 {
        self.slowdown.get(&node).copied().unwrap_or(1.0)
    }

    /// The straggler map: node → throughput multiplier.
    pub fn stragglers(&self) -> &BTreeMap<usize, f64> {
        &self.slowdown
    }

    /// Whether launch attempt number `attempt` (0-based, counted per job
    /// across the whole run) of `job` fails transiently.
    ///
    /// A pure hash of `(seed, job, attempt)` — no RNG state — so the
    /// decision is independent of scheduling order and thread count.
    pub fn launch_fails(&self, job: u64, attempt: u64) -> bool {
        if self.launch_failure_prob <= 0.0 {
            return false;
        }
        let h = mix64(stream_seed(self.seed, SALT_LAUNCH, job) ^ mix64(attempt));
        ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < self.launch_failure_prob
    }

    /// Extra restart delay charged when a fault-evicted job relaunches,
    /// seconds.
    pub fn restart_penalty_secs(&self) -> f64 {
        self.restart_penalty_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> ChaosConfig {
        ChaosConfig::parse(
            "# scripted outage\n\
             seed 7\n\
             launch-failure-prob 0.05\n\
             restart-penalty-secs 120\n\
             fail 0 1800\n\
             recover 0 9000\n\
             straggle 1 0.6\n",
        )
        .unwrap()
    }

    #[test]
    fn parse_reads_knobs_and_directives() {
        let cfg = scenario();
        assert_eq!(cfg.seed, 7);
        assert!((cfg.launch_failure_prob - 0.05).abs() < 1e-12);
        assert!((cfg.restart_penalty_secs - 120.0).abs() < 1e-12);
        assert_eq!(cfg.scripted.len(), 3);
        assert!(cfg.has_scripted_failures());
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        let err = ChaosConfig::parse("seed 1\nwat 2\n").unwrap_err();
        assert!(matches!(err, ChaosError::Parse { line: 2, .. }), "{err}");
        assert!(ChaosConfig::parse("fail 0\n").is_err());
        assert!(ChaosConfig::parse("seed x\n").is_err());
        assert!(ChaosConfig::parse("launch-failure-prob 1.5\n").is_err());
        assert!(ChaosConfig::parse("straggle 0 0\n").is_err());
        // Out-of-range knobs and directive values name their line too.
        let err = ChaosConfig::parse("seed 7\nnode-failure-rate-per-hour inf\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "chaos config line 2: node-failure-rate-per-hour must be finite and >= 0, got inf"
        );
        let err = ChaosConfig::parse("seed 7\n\nfail 0 100\nstraggle 1 1.5\n").unwrap_err();
        assert!(matches!(err, ChaosError::Parse { line: 4, .. }), "{err}");
        // Configs built in code still go through `validate`.
        let cfg = ChaosConfig {
            straggler_slowdown: 0.0,
            ..ChaosConfig::default()
        };
        let err = FaultPlan::compile(&cfg, 1, 1.0).unwrap_err();
        assert!(matches!(err, ChaosError::Invalid(_)), "{err}");
    }

    #[test]
    fn scripted_plan_is_the_script_sorted() {
        let plan = FaultPlan::compile(&scenario(), 8, 86_400.0).unwrap();
        assert_eq!(
            plan.timeline(),
            &[
                FaultEvent {
                    at: 1800.0,
                    node: 0,
                    kind: FaultKind::Down
                },
                FaultEvent {
                    at: 9000.0,
                    node: 0,
                    kind: FaultKind::Up
                },
            ]
        );
        assert!((plan.slowdown(1) - 0.6).abs() < 1e-12);
        assert!((plan.slowdown(0) - 1.0).abs() < 1e-12);
        assert!((plan.restart_penalty_secs() - 120.0).abs() < 1e-12);
        assert!(!plan.is_noop());
    }

    #[test]
    fn scripted_node_out_of_range_is_rejected() {
        let err = FaultPlan::compile(&scenario(), 1, 86_400.0).unwrap_err();
        assert!(
            matches!(err, ChaosError::NodeOutOfRange { node: 1, nodes: 1 }),
            "{err}"
        );
    }

    #[test]
    fn default_config_compiles_to_noop() {
        let plan = FaultPlan::compile(&ChaosConfig::default(), 8, 1e9).unwrap();
        assert!(plan.is_noop());
        assert!(FaultPlan::noop().is_noop());
        assert!(!plan.launch_fails(3, 0));
        assert!((plan.slowdown(5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compile_is_deterministic_per_seed() {
        let cfg = ChaosConfig {
            seed: 42,
            node_failure_rate_per_hour: 0.05,
            straggler_frac: 0.3,
            launch_failure_prob: 0.1,
            ..ChaosConfig::default()
        };
        let a = FaultPlan::compile(&cfg, 8, 7.0 * 24.0 * 3600.0).unwrap();
        let b = FaultPlan::compile(&cfg, 8, 7.0 * 24.0 * 3600.0).unwrap();
        assert_eq!(a, b);
        let c =
            FaultPlan::compile(&ChaosConfig { seed: 43, ..cfg }, 8, 7.0 * 24.0 * 3600.0).unwrap();
        assert_ne!(a, c, "different seeds must yield different plans");
    }

    #[test]
    fn adding_nodes_preserves_existing_streams() {
        let cfg = ChaosConfig {
            seed: 11,
            node_failure_rate_per_hour: 0.05,
            ..ChaosConfig::default()
        };
        let horizon = 7.0 * 24.0 * 3600.0;
        let small = FaultPlan::compile(&cfg, 4, horizon).unwrap();
        let big = FaultPlan::compile(&cfg, 8, horizon).unwrap();
        let small_only: Vec<_> = big
            .timeline()
            .iter()
            .copied()
            .filter(|e| e.node < 4)
            .collect();
        assert_eq!(small.timeline(), small_only.as_slice());
    }

    #[test]
    fn random_timeline_alternates_per_node_and_stays_in_horizon() {
        let cfg = ChaosConfig {
            seed: 5,
            node_failure_rate_per_hour: 0.2,
            node_repair_secs: 600.0,
            ..ChaosConfig::default()
        };
        let horizon = 3.0 * 24.0 * 3600.0;
        let plan = FaultPlan::compile(&cfg, 8, horizon).unwrap();
        assert!(!plan.timeline().is_empty(), "0.2/h over 3 days must fire");
        for node in 0..8 {
            let mut expect = FaultKind::Down;
            for ev in plan.timeline().iter().filter(|e| e.node == node) {
                assert!(ev.at >= 0.0 && ev.at < horizon);
                assert_eq!(ev.kind, expect, "node {node} stream must alternate");
                expect = if expect == FaultKind::Down {
                    FaultKind::Up
                } else {
                    FaultKind::Down
                };
            }
        }
        // Timeline is globally sorted.
        assert!(plan.timeline().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn a_timeline_beyond_the_event_bound_is_rejected() {
        // One failure per node-second and one-second repairs: about one
        // event per node per second, so 1.2 million on two nodes.
        let flood = ChaosConfig {
            node_failure_rate_per_hour: 3600.0,
            node_repair_secs: 0.0,
            ..ChaosConfig::default()
        };
        let err = FaultPlan::compile(&flood, 2, 6e5).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid chaos config: node-failure-rate-per-hour 3600 with node-repair-secs 0 \
             on 2 nodes over 600000 s compiles to more than 1000000 fault events; lower the \
             rate or raise the repair time"
        );
        assert!(FaultPlan::compile(&flood, 2, 3e5).unwrap().timeline().len() > 500_000);
    }

    #[test]
    fn launch_failures_match_configured_probability() {
        let cfg = ChaosConfig {
            seed: 3,
            launch_failure_prob: 0.2,
            ..ChaosConfig::default()
        };
        let plan = FaultPlan::compile(&cfg, 8, 1e6).unwrap();
        let trials = 20_000u64;
        let fails = (0..trials)
            .filter(|&i| plan.launch_fails(i / 10, i % 10))
            .count();
        let rate = fails as f64 / trials as f64;
        assert!((rate - 0.2).abs() < 0.02, "observed failure rate {rate}");
        // Pure function: same inputs, same answer.
        assert_eq!(plan.launch_fails(17, 2), plan.launch_fails(17, 2));
    }

    #[test]
    fn straggler_fraction_is_roughly_honored() {
        let cfg = ChaosConfig {
            seed: 9,
            straggler_frac: 0.25,
            straggler_slowdown: 0.4,
            ..ChaosConfig::default()
        };
        let plan = FaultPlan::compile(&cfg, 400, 1e6).unwrap();
        let n = plan.stragglers().len();
        assert!((60..=140).contains(&n), "{n} stragglers of 400 at 25%");
        for (&node, &f) in plan.stragglers() {
            assert!((f - 0.4).abs() < 1e-12);
            assert!((plan.slowdown(node) - 0.4).abs() < 1e-12);
        }
    }
}
