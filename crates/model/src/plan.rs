//! Execution plans for reconfigurable DL training.
//!
//! A plan combines (paper §3): Megatron-style **3D parallelism** (DP × TP ×
//! PP sizes), the **ZeRO series** (ZeRO-DP a.k.a. ZeRO-2, ZeRO-Offload), and
//! the memory-saving techniques **gradient accumulation** (GA) and
//! **gradient checkpointing** (GC). [`enumerate_plans`] lists every plan that
//! is structurally valid *and* memory-feasible for a model on a given GPU
//! count — the search space the Rubick scheduler walks when it builds
//! resource sensitivity curves.

use crate::env::ClusterEnv;
use crate::error::ModelError;
use crate::memory::MemoryEstimator;
use crate::placement::Placement;
use crate::resources::NodeShape;
use crate::spec::ModelSpec;
use std::fmt;

/// The 3D-parallelism degrees: `d·t·p` GPUs total (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    /// Data-parallel size `d` (number of model replicas).
    pub dp: u32,
    /// Tensor-parallel size `t` (number of model partitions per layer).
    pub tp: u32,
    /// Pipeline-parallel size `p` (number of pipeline stages).
    pub pp: u32,
}

impl Parallelism {
    /// Creates a parallelism configuration; all degrees must be ≥ 1.
    ///
    /// # Panics
    ///
    /// Panics if any degree is zero.
    pub fn new(dp: u32, tp: u32, pp: u32) -> Self {
        assert!(
            dp >= 1 && tp >= 1 && pp >= 1,
            "parallel degrees must be >= 1"
        );
        Parallelism { dp, tp, pp }
    }

    /// Pure data parallelism of degree `d`.
    pub fn data(d: u32) -> Self {
        Parallelism::new(d, 1, 1)
    }

    /// Total GPUs consumed: `d·t·p`.
    pub fn gpus(&self) -> u32 {
        self.dp * self.tp * self.pp
    }

    /// Whether any model-parallel dimension is active.
    pub fn is_model_parallel(&self) -> bool {
        self.tp > 1 || self.pp > 1
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DP{}×TP{}×PP{}", self.dp, self.tp, self.pp)
    }
}

/// Memory strategy layered on top of data parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryMode {
    /// Vanilla: every replica holds full model states.
    Plain,
    /// ZeRO-DP (ZeRO-2): optimizer states and gradients sliced across the
    /// `d` replicas. The paper's default ZeRO variant.
    Zero2,
    /// ZeRO-3: weights sliced as well — minimum per-GPU memory in the DP
    /// family, at ~1.5× the gradient-synchronization traffic (parameters
    /// are all-gathered on demand). An extension beyond the paper's default
    /// ("there are several ZeRO-DP variants, and we refer to ZeRO-2").
    Zero3,
    /// ZeRO-Offload: states live in host memory, parameter update on CPUs.
    ZeroOffload,
}

impl MemoryMode {
    /// Whether this mode requires pure DP (`t = p = 1`).
    pub fn requires_pure_dp(&self) -> bool {
        !matches!(self, MemoryMode::Plain)
    }
}

impl fmt::Display for MemoryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryMode::Plain => write!(f, "plain"),
            MemoryMode::Zero2 => write!(f, "ZeRO-DP"),
            MemoryMode::Zero3 => write!(f, "ZeRO-3"),
            MemoryMode::ZeroOffload => write!(f, "ZeRO-Offload"),
        }
    }
}

/// A complete execution plan for one training job.
///
/// Invariants (enforced by [`ExecutionPlan::validate`]):
/// * ZeRO modes require `t = p = 1` (they are DP-based);
/// * GA (`ga_steps > 1`) is only used without PP — with PP the micro-batch
///   count `micro_batches` plays that role;
/// * the per-device micro-batch must contain at least one sample, i.e.
///   `d·a ≤ b` and `d·m ≤ b`.
///
/// ```
/// use rubick_model::{ExecutionPlan, ModelSpec};
/// let plan = ExecutionPlan::zero_dp(8).with_ga(2);
/// let spec = ModelSpec::gpt2_xl();
/// assert!(plan.validate(&spec, 16).is_ok());
/// assert_eq!(plan.label(), "ZeRO-DP8+GA2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecutionPlan {
    /// 3D-parallel degrees.
    pub parallel: Parallelism,
    /// Memory strategy (ZeRO series).
    pub memory: MemoryMode,
    /// Gradient-accumulation steps `a` (1 = off).
    pub ga_steps: u32,
    /// Pipeline micro-batch count `m` (1 when `pp == 1`).
    pub micro_batches: u32,
    /// Gradient checkpointing (activation recomputation).
    pub gc: bool,
}

impl ExecutionPlan {
    /// Pure data parallelism of degree `d`.
    pub fn dp(d: u32) -> Self {
        ExecutionPlan {
            parallel: Parallelism::data(d),
            memory: MemoryMode::Plain,
            ga_steps: 1,
            micro_batches: 1,
            gc: false,
        }
    }

    /// ZeRO-DP (ZeRO-2) of degree `d`.
    pub fn zero_dp(d: u32) -> Self {
        ExecutionPlan {
            memory: MemoryMode::Zero2,
            ..ExecutionPlan::dp(d)
        }
    }

    /// ZeRO-3 of degree `d` (weights partitioned too).
    pub fn zero3(d: u32) -> Self {
        ExecutionPlan {
            memory: MemoryMode::Zero3,
            ..ExecutionPlan::dp(d)
        }
    }

    /// ZeRO-Offload of degree `d`.
    pub fn zero_offload(d: u32) -> Self {
        ExecutionPlan {
            memory: MemoryMode::ZeroOffload,
            ..ExecutionPlan::dp(d)
        }
    }

    /// Megatron-style 3D parallelism with `m` pipeline micro-batches.
    pub fn three_d(d: u32, t: u32, p: u32, m: u32) -> Self {
        ExecutionPlan {
            parallel: Parallelism::new(d, t, p),
            memory: MemoryMode::Plain,
            ga_steps: 1,
            micro_batches: if p > 1 { m.max(1) } else { 1 },
            gc: false,
        }
    }

    /// Returns a copy with gradient accumulation of `a` steps.
    pub fn with_ga(mut self, a: u32) -> Self {
        self.ga_steps = a.max(1);
        self
    }

    /// Returns a copy with gradient checkpointing enabled.
    pub fn with_gc(mut self) -> Self {
        self.gc = true;
        self
    }

    /// Total GPUs this plan runs on.
    pub fn gpus(&self) -> u32 {
        self.parallel.gpus()
    }

    /// Checks every structural invariant against a model and global batch.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidPlan`] describing the first violated
    /// constraint.
    pub fn validate(&self, spec: &ModelSpec, global_batch: u32) -> Result<(), ModelError> {
        let Some(violation) = self.violation(spec, global_batch) else {
            return Ok(());
        };
        let Parallelism { tp, pp, .. } = self.parallel;
        let reason = match violation {
            Violation::ZeroDegree => "parallel degrees must be >= 1".into(),
            Violation::ZeroNeedsPureDp => format!(
                "{} requires pure DP but plan is {}",
                self.memory, self.parallel
            ),
            Violation::PpOverLayers => format!(
                "pp={} exceeds layer count {} of {}",
                pp, spec.layers, spec.name
            ),
            Violation::TpSplitsHidden => {
                format!("tp={} does not divide hidden size {}", tp, spec.hidden)
            }
            Violation::ZeroSteps => "ga_steps and micro_batches must be >= 1".into(),
            Violation::GaUnderPp => {
                "gradient accumulation is folded into micro-batches under PP".into()
            }
            Violation::MicroWithoutPp => "micro_batches > 1 requires pp > 1".into(),
            Violation::BatchSplit { splits } => format!(
                "global batch {} does not split evenly into {} device micro-batches",
                global_batch, splits
            ),
        };
        Err(ModelError::InvalidPlan { reason })
    }

    /// The first structural invariant the plan violates against a model
    /// and global batch, if any: the rule [`validate`](Self::validate)
    /// words, checked without formatting a message.
    #[inline]
    fn violation(&self, spec: &ModelSpec, global_batch: u32) -> Option<Violation> {
        let Parallelism { dp, tp, pp } = self.parallel;
        if dp == 0 || tp == 0 || pp == 0 {
            return Some(Violation::ZeroDegree);
        }
        if self.memory.requires_pure_dp() && self.parallel.is_model_parallel() {
            return Some(Violation::ZeroNeedsPureDp);
        }
        if pp > spec.layers {
            return Some(Violation::PpOverLayers);
        }
        if tp > 1 && !spec.hidden.is_multiple_of(tp) {
            return Some(Violation::TpSplitsHidden);
        }
        if self.ga_steps == 0 || self.micro_batches == 0 {
            return Some(Violation::ZeroSteps);
        }
        if pp > 1 && self.ga_steps > 1 {
            return Some(Violation::GaUnderPp);
        }
        if pp == 1 && self.micro_batches > 1 {
            return Some(Violation::MicroWithoutPp);
        }
        // Frameworks require the global batch to split evenly into
        // per-device micro-batches (`b = micro · a · d` in DeepSpeed terms).
        // This is why only a few GPU counts are valid in the paper's Fig. 6.
        let splits = dp.saturating_mul(if pp > 1 {
            self.micro_batches
        } else {
            self.ga_steps
        });
        if splits > global_batch || !global_batch.is_multiple_of(splits) {
            return Some(Violation::BatchSplit { splits });
        }
        None
    }

    /// A coarse categorization of the plan, matching the paper's figure
    /// legends.
    pub fn kind(&self) -> PlanKind {
        let Parallelism { tp, pp, .. } = self.parallel;
        match self.memory {
            MemoryMode::Zero2 => PlanKind::ZeroDp,
            MemoryMode::Zero3 => PlanKind::Zero3,
            MemoryMode::ZeroOffload => PlanKind::ZeroOffload,
            MemoryMode::Plain => {
                if tp > 1 && pp > 1 {
                    PlanKind::ThreeD
                } else if tp > 1 {
                    PlanKind::TensorParallel
                } else if pp > 1 {
                    PlanKind::Pipeline
                } else {
                    PlanKind::DataParallel
                }
            }
        }
    }

    /// A compact human-readable label, e.g. `"TP4+DP2+GC"` or
    /// `"ZeRO-Offload+GA2"`: the plan's [`Display`](fmt::Display) text.
    pub fn label(&self) -> String {
        let mut label = String::with_capacity(24);
        fmt::Write::write_fmt(&mut label, format_args!("{self}"))
            .expect("writing to a String cannot fail");
        label
    }
}

impl fmt::Display for ExecutionPlan {
    /// The parts of the plan joined by `+`: its parallelism (or ZeRO mode
    /// and DP degree), then GA steps, PP micro-batches and GC when used.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Parallelism { dp, tp, pp } = self.parallel;
        match self.memory {
            MemoryMode::Zero2 => write!(f, "ZeRO-DP{dp}")?,
            MemoryMode::Zero3 => write!(f, "ZeRO-3x{dp}")?,
            MemoryMode::ZeroOffload => write!(f, "ZeRO-Offload{dp}")?,
            MemoryMode::Plain => {
                let mut sep = "";
                if tp > 1 {
                    write!(f, "TP{tp}")?;
                    sep = "+";
                }
                if pp > 1 {
                    write!(f, "{sep}PP{pp}")?;
                    sep = "+";
                }
                if dp > 1 || sep.is_empty() {
                    write!(f, "{sep}DP{dp}")?;
                }
            }
        }
        if self.ga_steps > 1 {
            write!(f, "+GA{}", self.ga_steps)?;
        }
        if pp > 1 && self.micro_batches > 1 {
            write!(f, "+m{}", self.micro_batches)?;
        }
        if self.gc {
            f.write_str("+GC")?;
        }
        Ok(())
    }
}

/// The structural invariant a plan violates, as
/// [`ExecutionPlan::validate`] words it.
#[derive(Debug, Clone, Copy)]
enum Violation {
    ZeroDegree,
    ZeroNeedsPureDp,
    PpOverLayers,
    TpSplitsHidden,
    ZeroSteps,
    GaUnderPp,
    MicroWithoutPp,
    /// The batch does not split into `splits` device micro-batches.
    BatchSplit {
        splits: u32,
    },
}

/// Coarse plan category (the series names in the paper's figures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// Pure data parallelism (optionally with GA/GC).
    DataParallel,
    /// ZeRO-DP (ZeRO-2).
    ZeroDp,
    /// ZeRO-3 (weights partitioned too).
    Zero3,
    /// ZeRO-Offload.
    ZeroOffload,
    /// Tensor parallelism (possibly with DP).
    TensorParallel,
    /// Pipeline parallelism (possibly with DP).
    Pipeline,
    /// Full 3D parallelism (TP and PP both active).
    ThreeD,
}

impl fmt::Display for PlanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanKind::DataParallel => write!(f, "DP"),
            PlanKind::ZeroDp => write!(f, "ZeRO-DP"),
            PlanKind::Zero3 => write!(f, "ZeRO-3"),
            PlanKind::ZeroOffload => write!(f, "ZeRO-Offload"),
            PlanKind::TensorParallel => write!(f, "TP"),
            PlanKind::Pipeline => write!(f, "PP"),
            PlanKind::ThreeD => write!(f, "3D"),
        }
    }
}

/// Maximum TP candidates: 1 plus powers of two up to a 64-GPU node.
const MAX_TP: usize = 8;
/// Pure-DP gradient-accumulation candidates.
const DP_GAS: [u32; 4] = [1, 2, 4, 8];
/// TP-family gradient-accumulation candidates.
const TP_GAS: [u32; 3] = [1, 2, 4];
/// Pure-DP memory-mode candidates, in enumeration order.
const DP_MEMS: [MemoryMode; 4] = [
    MemoryMode::Plain,
    MemoryMode::Zero2,
    MemoryMode::Zero3,
    MemoryMode::ZeroOffload,
];

/// Per-`(t, p)` inner enumeration state of [`PlanEnumerator`].
#[derive(Debug, Clone, Copy)]
enum Inner {
    /// The `(t, p)` cell has not been entered yet.
    Fresh,
    /// Pure DP family: memory mode × GA × GC counters.
    PureDp { mem: u8, ga: u8, gc: u8 },
    /// TP (+DP) family: GA × GC counters.
    Tp { ga: u8, gc: u8 },
    /// Pipeline / 3D family: fixed micro-batch candidates × GC counters.
    Pp {
        ms: [u32; 4],
        m_len: u8,
        mi: u8,
        gc: u8,
    },
}

/// Allocation-free lazy enumeration of feasible execution plans.
///
/// Yields exactly the plans (and exactly the order) of
/// [`enumerate_plans`], but one at a time: candidates are generated from a
/// small counter state machine and filtered through
/// [`ExecutionPlan::validate`] + [`MemoryEstimator::check_feasible`] against
/// the packed placement, with no intermediate `Vec`. The only allocation is
/// the packed [`Placement`] built once at construction.
///
/// ```
/// use rubick_model::prelude::*;
/// let spec = ModelSpec::roberta_large();
/// let (shape, env) = (NodeShape::a800(), ClusterEnv::a800());
/// let lazy: Vec<_> = PlanEnumerator::new(&spec, 2, 64, &shape, &env).collect();
/// assert_eq!(lazy, enumerate_plans(&spec, 2, 64, &shape, &env));
/// ```
#[must_use = "iterators are lazy and do nothing unless consumed"]
#[derive(Debug, Clone)]
pub struct PlanEnumerator<'a> {
    spec: &'a ModelSpec,
    gpus: u32,
    global_batch: u32,
    env: &'a ClusterEnv,
    placement: Placement,
    estimator: MemoryEstimator,
    /// Candidate TP degrees (1 plus valid powers of two), fixed-size.
    tps: [u32; MAX_TP],
    tp_len: u8,
    /// Index into `tps` of the TP degree currently being expanded.
    ti: u8,
    /// Pipeline degree currently being expanded (`1..=gpus/t`).
    pp: u32,
    inner: Inner,
}

impl<'a> PlanEnumerator<'a> {
    /// Starts a lazy enumeration for `spec` on exactly `gpus` GPUs.
    pub fn new(
        spec: &'a ModelSpec,
        gpus: u32,
        global_batch: u32,
        shape: &NodeShape,
        env: &'a ClusterEnv,
    ) -> Self {
        // Candidate TP degrees: powers of two up to a node's width that
        // divide the hidden size.
        let mut tps = [0u32; MAX_TP];
        let mut tp_len = 0u8;
        if gpus > 0 {
            tps[0] = 1;
            tp_len = 1;
            let mut t = 2u32;
            while t <= shape.gpus && t <= gpus {
                if spec.hidden.is_multiple_of(t) {
                    tps[tp_len as usize] = t;
                    tp_len += 1;
                }
                t *= 2;
            }
        }
        PlanEnumerator {
            spec,
            gpus,
            global_batch,
            env,
            placement: Placement::packed(gpus, shape),
            estimator: MemoryEstimator::new(shape.gpu_mem_gb),
            tps,
            tp_len,
            ti: 0,
            pp: 1,
            inner: Inner::Fresh,
        }
    }

    /// Advances to the next `(t, p)` cell.
    fn next_cell(&mut self, exhausted_tp: bool) {
        if exhausted_tp {
            self.ti += 1;
            self.pp = 1;
        } else {
            self.pp += 1;
        }
        self.inner = Inner::Fresh;
    }

    /// The next structurally-plausible candidate, before the
    /// validate + feasibility gate. Mirrors the nested loops of the naive
    /// enumeration exactly (same candidates, same order).
    fn next_candidate(&mut self) -> Option<ExecutionPlan> {
        loop {
            if self.ti >= self.tp_len {
                return None;
            }
            let t = self.tps[self.ti as usize];
            if !self.gpus.is_multiple_of(t) {
                self.next_cell(true);
                continue;
            }
            let rest = self.gpus / t;
            if self.pp > rest {
                self.next_cell(true);
                continue;
            }
            let p = self.pp;
            if !rest.is_multiple_of(p) || p > self.spec.layers {
                self.next_cell(false);
                continue;
            }
            let d = rest / p;
            if d > self.global_batch {
                self.next_cell(false);
                continue;
            }
            if let Inner::Fresh = self.inner {
                self.inner = if t == 1 && p == 1 {
                    Inner::PureDp {
                        mem: 0,
                        ga: 0,
                        gc: 0,
                    }
                } else if p == 1 {
                    Inner::Tp { ga: 0, gc: 0 }
                } else {
                    // Pipeline / 3D: micro-batch counts around the stage
                    // count (1F1B wants m >= p to fill the pipeline),
                    // sorted and deduplicated in place.
                    let max_m = self.global_batch / d;
                    let mut ms = [0u32; 4];
                    let mut m_len = 0u8;
                    for m in [p, 2 * p, 4 * p, max_m] {
                        if m >= 1 && m <= max_m {
                            ms[m_len as usize] = m;
                            m_len += 1;
                        }
                    }
                    ms[..m_len as usize].sort_unstable();
                    let mut uniq = 0u8;
                    for i in 0..m_len as usize {
                        if uniq == 0 || ms[uniq as usize - 1] != ms[i] {
                            ms[uniq as usize] = ms[i];
                            uniq += 1;
                        }
                    }
                    Inner::Pp {
                        ms,
                        m_len: uniq,
                        mi: 0,
                        gc: 0,
                    }
                };
            }
            let base = Parallelism::new(d, t, p);
            match &mut self.inner {
                Inner::Fresh => unreachable!("inner state initialized above"),
                Inner::PureDp { mem, ga, gc } => {
                    if *mem as usize >= DP_MEMS.len() {
                        self.next_cell(false);
                        continue;
                    }
                    let memory = DP_MEMS[*mem as usize];
                    // ZeRO-3 at d == 1 degenerates to plain DP.
                    if memory == MemoryMode::Zero3 && d == 1 {
                        *mem += 1;
                        *ga = 0;
                        *gc = 0;
                        continue;
                    }
                    if *ga as usize >= DP_GAS.len() {
                        *mem += 1;
                        *ga = 0;
                        *gc = 0;
                        continue;
                    }
                    let ga_steps = DP_GAS[*ga as usize];
                    if d.saturating_mul(ga_steps) > self.global_batch {
                        *ga += 1;
                        *gc = 0;
                        continue;
                    }
                    if *gc >= 2 {
                        *ga += 1;
                        *gc = 0;
                        continue;
                    }
                    let plan = ExecutionPlan {
                        parallel: base,
                        memory,
                        ga_steps,
                        micro_batches: 1,
                        gc: *gc == 1,
                    };
                    *gc += 1;
                    return Some(plan);
                }
                Inner::Tp { ga, gc } => {
                    if *ga as usize >= TP_GAS.len() {
                        self.next_cell(false);
                        continue;
                    }
                    let ga_steps = TP_GAS[*ga as usize];
                    if d.saturating_mul(ga_steps) > self.global_batch {
                        *ga += 1;
                        *gc = 0;
                        continue;
                    }
                    if *gc >= 2 {
                        *ga += 1;
                        *gc = 0;
                        continue;
                    }
                    let plan = ExecutionPlan {
                        parallel: base,
                        memory: MemoryMode::Plain,
                        ga_steps,
                        micro_batches: 1,
                        gc: *gc == 1,
                    };
                    *gc += 1;
                    return Some(plan);
                }
                Inner::Pp { ms, m_len, mi, gc } => {
                    if mi >= m_len {
                        self.next_cell(false);
                        continue;
                    }
                    if *gc >= 2 {
                        *mi += 1;
                        *gc = 0;
                        continue;
                    }
                    let plan = ExecutionPlan {
                        parallel: base,
                        memory: MemoryMode::Plain,
                        ga_steps: 1,
                        micro_batches: ms[*mi as usize],
                        gc: *gc == 1,
                    };
                    *gc += 1;
                    return Some(plan);
                }
            }
        }
    }
}

impl Iterator for PlanEnumerator<'_> {
    type Item = ExecutionPlan;

    fn next(&mut self) -> Option<ExecutionPlan> {
        while let Some(plan) = self.next_candidate() {
            if plan.violation(self.spec, self.global_batch).is_none()
                && self
                    .estimator
                    .check_feasible(
                        self.spec,
                        &plan,
                        &self.placement,
                        self.global_batch,
                        self.env,
                    )
                    .is_ok()
            {
                return Some(plan);
            }
        }
        None
    }
}

/// Enumerates every structurally valid, memory-feasible execution plan for
/// `spec` on exactly `gpus` GPUs with the given global batch size.
///
/// The feasibility check assumes a *packed* placement
/// ([`Placement::packed`]): GPUs fill nodes of `shape` in order and the job
/// receives a node-proportional share of CPUs and host memory. The
/// scheduler re-checks feasibility against the real placement it finds.
///
/// Returned plans are deduplicated; ordering is deterministic. This is the
/// collecting wrapper around the lazy [`PlanEnumerator`]; hot paths that
/// call it repeatedly at the same point should go through
/// [`crate::planset::PlanSetCache`] instead.
///
/// ```
/// use rubick_model::prelude::*;
/// let spec = ModelSpec::roberta_large();
/// let plans = enumerate_plans(&spec, 2, 64, &NodeShape::a800(), &ClusterEnv::a800());
/// // Small model on 2 GPUs: DP, ZeRO variants, GA/GC combinations and TP2.
/// assert!(plans.iter().any(|p| p.kind() == PlanKind::DataParallel));
/// assert!(plans.iter().any(|p| p.kind() == PlanKind::ZeroDp));
/// ```
pub fn enumerate_plans(
    spec: &ModelSpec,
    gpus: u32,
    global_batch: u32,
    shape: &NodeShape,
    env: &ClusterEnv,
) -> Vec<ExecutionPlan> {
    PlanEnumerator::new(spec, gpus, global_batch, shape, env).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a800() -> (NodeShape, ClusterEnv) {
        (NodeShape::a800(), ClusterEnv::a800())
    }

    #[test]
    fn parallelism_gpu_product() {
        assert_eq!(Parallelism::new(2, 4, 2).gpus(), 16);
        assert_eq!(Parallelism::data(8).gpus(), 8);
    }

    #[test]
    fn zero_requires_pure_dp() {
        let spec = ModelSpec::gpt2_xl();
        let mut plan = ExecutionPlan::zero_dp(2);
        plan.parallel = Parallelism::new(2, 2, 1);
        assert!(plan.validate(&spec, 16).is_err());
    }

    #[test]
    fn ga_cannot_exceed_batch() {
        let spec = ModelSpec::gpt2_xl();
        let plan = ExecutionPlan::dp(8).with_ga(4); // 8*4 = 32 > 16
        assert!(plan.validate(&spec, 16).is_err());
        let plan = ExecutionPlan::dp(4).with_ga(4); // 16 = 16 ok
        assert!(plan.validate(&spec, 16).is_ok());
    }

    #[test]
    fn pp_cannot_exceed_layers() {
        let spec = ModelSpec::vit_base(); // 12 layers
        let plan = ExecutionPlan::three_d(1, 1, 16, 16);
        assert!(plan.validate(&spec, 64).is_err());
    }

    #[test]
    fn labels_match_paper_vocabulary() {
        assert_eq!(ExecutionPlan::dp(4).label(), "DP4");
        assert_eq!(ExecutionPlan::dp(4).with_ga(2).label(), "DP4+GA2");
        assert_eq!(ExecutionPlan::zero_dp(8).label(), "ZeRO-DP8");
        assert_eq!(
            ExecutionPlan::zero_offload(1).with_gc().label(),
            "ZeRO-Offload1+GC"
        );
        assert_eq!(ExecutionPlan::three_d(4, 4, 2, 8).label(), "TP4+PP2+DP4+m8");
    }

    /// The label formula before it wrote into one `String`: each part
    /// formatted on its own, then joined with `+`.
    fn joined_label(plan: &ExecutionPlan) -> String {
        let Parallelism { dp, tp, pp } = plan.parallel;
        let mut parts: Vec<String> = Vec::new();
        match plan.memory {
            MemoryMode::Zero2 => parts.push(format!("ZeRO-DP{dp}")),
            MemoryMode::Zero3 => parts.push(format!("ZeRO-3x{dp}")),
            MemoryMode::ZeroOffload => parts.push(format!("ZeRO-Offload{dp}")),
            MemoryMode::Plain => {
                if tp > 1 {
                    parts.push(format!("TP{tp}"));
                }
                if pp > 1 {
                    parts.push(format!("PP{pp}"));
                }
                if dp > 1 || parts.is_empty() {
                    parts.push(format!("DP{dp}"));
                }
            }
        }
        if plan.ga_steps > 1 {
            parts.push(format!("GA{}", plan.ga_steps));
        }
        if plan.parallel.pp > 1 && plan.micro_batches > 1 {
            parts.push(format!("m{}", plan.micro_batches));
        }
        if plan.gc {
            parts.push("GC".into());
        }
        parts.join("+")
    }

    /// Every plan the zoo enumerates at 1–64 GPUs, at each model's default
    /// batch and at 64, keeps its joined-parts label byte for byte.
    #[test]
    fn labels_match_the_joined_parts_formula_over_the_zoo() {
        let (shape, env) = a800();
        let mut plans = 0;
        for spec in ModelSpec::zoo() {
            for batch in [spec.default_batch, 64] {
                for gpus in 1..=64 {
                    for plan in enumerate_plans(&spec, gpus, batch, &shape, &env) {
                        assert_eq!(plan.label(), joined_label(&plan), "{plan:?}");
                        assert_eq!(plan.to_string(), joined_label(&plan), "{plan:?}");
                        plans += 1;
                    }
                }
            }
        }
        assert!(plans > 1000, "only {plans} plans");
    }

    /// The plan rule as it read before its messages moved out of the
    /// check: the first violated constraint, formatted.
    fn formatted_rule(
        plan: &ExecutionPlan,
        spec: &ModelSpec,
        global_batch: u32,
    ) -> Result<(), String> {
        let Parallelism { dp, tp, pp } = plan.parallel;
        if dp == 0 || tp == 0 || pp == 0 {
            return Err("parallel degrees must be >= 1".into());
        }
        if plan.memory.requires_pure_dp() && plan.parallel.is_model_parallel() {
            return Err(format!(
                "{} requires pure DP but plan is {}",
                plan.memory, plan.parallel
            ));
        }
        if pp > spec.layers {
            return Err(format!(
                "pp={} exceeds layer count {} of {}",
                pp, spec.layers, spec.name
            ));
        }
        if tp > 1 && !spec.hidden.is_multiple_of(tp) {
            return Err(format!(
                "tp={} does not divide hidden size {}",
                tp, spec.hidden
            ));
        }
        if plan.ga_steps == 0 || plan.micro_batches == 0 {
            return Err("ga_steps and micro_batches must be >= 1".into());
        }
        if pp > 1 && plan.ga_steps > 1 {
            return Err("gradient accumulation is folded into micro-batches under PP".into());
        }
        if pp == 1 && plan.micro_batches > 1 {
            return Err("micro_batches > 1 requires pp > 1".into());
        }
        let splits = dp.saturating_mul(if pp > 1 {
            plan.micro_batches
        } else {
            plan.ga_steps
        });
        if splits > global_batch || !global_batch.is_multiple_of(splits) {
            return Err(format!(
                "global batch {} does not split evenly into {} device micro-batches",
                global_batch, splits
            ));
        }
        Ok(())
    }

    /// `validate`'s verdict and text match the formatted rule on one plan
    /// that breaks each constraint and on every candidate the enumerator
    /// considers for the zoo at 1–64 GPUs, and the enumerated plans are
    /// exactly the candidates that pass the formatted rule and the
    /// memory check.
    #[test]
    fn plan_rule_keeps_its_texts_and_the_enumerated_plans() {
        let reason = |plan: &ExecutionPlan, spec: &ModelSpec, batch| {
            plan.validate(spec, batch).map_err(|e| match e {
                ModelError::InvalidPlan { reason } => reason,
                other => panic!("unexpected error {other}"),
            })
        };
        let gpt2 = ModelSpec::gpt2_xl();
        let mut no_dp = ExecutionPlan::dp(1);
        no_dp.parallel.dp = 0;
        let mut zero_tp = ExecutionPlan::zero_dp(2);
        zero_tp.parallel = Parallelism::new(2, 2, 1);
        let mut no_steps = ExecutionPlan::dp(2);
        no_steps.ga_steps = 0;
        let mut ga_pp = ExecutionPlan::three_d(1, 1, 2, 2);
        ga_pp.ga_steps = 2;
        let mut micro = ExecutionPlan::dp(2);
        micro.micro_batches = 2;
        let broken = [
            no_dp,
            zero_tp,
            ExecutionPlan::three_d(1, 1, 128, 128),
            ExecutionPlan::three_d(1, 3, 1, 1),
            no_steps,
            ga_pp,
            micro,
            ExecutionPlan::dp(3),
            ExecutionPlan::dp(32),
            ExecutionPlan::dp(4).with_ga(8),
        ];
        for plan in &broken {
            let got = reason(plan, &gpt2, 16);
            assert!(got.is_err(), "{plan:?}");
            assert_eq!(got, formatted_rule(plan, &gpt2, 16), "{plan:?}");
        }
        let (shape, env) = a800();
        let estimator = MemoryEstimator::new(shape.gpu_mem_gb);
        let mut rejected = 0;
        for spec in ModelSpec::zoo() {
            for batch in [spec.default_batch, 24, 64] {
                for gpus in 1..=64 {
                    let mut walk = PlanEnumerator::new(&spec, gpus, batch, &shape, &env);
                    let placement = Placement::packed(gpus, &shape);
                    let mut kept = Vec::new();
                    while let Some(plan) = walk.next_candidate() {
                        let rule = formatted_rule(&plan, &spec, batch);
                        assert_eq!(reason(&plan, &spec, batch), rule, "{plan:?}");
                        rejected += usize::from(rule.is_err());
                        if rule.is_ok()
                            && estimator
                                .check_feasible(&spec, &plan, &placement, batch, &env)
                                .is_ok()
                        {
                            kept.push(plan);
                        }
                    }
                    assert_eq!(enumerate_plans(&spec, gpus, batch, &shape, &env), kept);
                }
            }
        }
        assert!(rejected > 100, "only {rejected} rejected candidates");
    }

    #[test]
    fn kinds_partition_plans() {
        assert_eq!(ExecutionPlan::dp(1).kind(), PlanKind::DataParallel);
        assert_eq!(ExecutionPlan::zero_dp(2).kind(), PlanKind::ZeroDp);
        assert_eq!(ExecutionPlan::zero_offload(1).kind(), PlanKind::ZeroOffload);
        assert_eq!(
            ExecutionPlan::three_d(1, 4, 1, 1).kind(),
            PlanKind::TensorParallel
        );
        assert_eq!(
            ExecutionPlan::three_d(1, 1, 4, 4).kind(),
            PlanKind::Pipeline
        );
        assert_eq!(ExecutionPlan::three_d(2, 2, 2, 4).kind(), PlanKind::ThreeD);
    }

    #[test]
    fn enumeration_covers_dp_and_zero_for_small_model() {
        let (shape, env) = a800();
        let spec = ModelSpec::roberta_large();
        let plans = enumerate_plans(&spec, 4, 64, &shape, &env);
        assert!(plans.iter().any(|p| p.kind() == PlanKind::DataParallel));
        assert!(plans.iter().any(|p| p.kind() == PlanKind::ZeroDp));
        assert!(plans.iter().any(|p| p.kind() == PlanKind::ZeroOffload));
        assert!(plans.iter().any(|p| p.kind() == PlanKind::TensorParallel));
    }

    #[test]
    fn enumeration_products_match_gpu_count() {
        let (shape, env) = a800();
        let spec = ModelSpec::t5_1b();
        for g in [1u32, 2, 4, 8, 16] {
            for plan in enumerate_plans(&spec, g, 32, &shape, &env) {
                assert_eq!(plan.gpus(), g, "plan {plan} does not use {g} GPUs");
            }
        }
    }

    #[test]
    fn enumeration_empty_for_zero_gpus() {
        let (shape, env) = a800();
        assert!(enumerate_plans(&ModelSpec::vit_base(), 0, 64, &shape, &env).is_empty());
    }

    #[test]
    fn large_model_on_one_gpu_needs_offload() {
        let (shape, env) = a800();
        let spec = ModelSpec::llama2_7b();
        let plans = enumerate_plans(&spec, 1, 32, &shape, &env);
        assert!(!plans.is_empty(), "ZeRO-Offload should make 1 GPU feasible");
        assert!(
            plans.iter().all(|p| p.kind() == PlanKind::ZeroOffload),
            "7B model states cannot fit one 80 GiB GPU without offload: {plans:?}"
        );
    }

    #[test]
    fn thirty_b_model_infeasible_on_few_gpus() {
        let (shape, env) = a800();
        let spec = ModelSpec::llama_30b();
        // Table 2 predicts LLaMA-30B only on [12-64] GPUs.
        assert!(enumerate_plans(&spec, 1, 64, &shape, &env).is_empty());
        assert!(enumerate_plans(&spec, 2, 64, &shape, &env).is_empty());
        assert!(!enumerate_plans(&spec, 16, 64, &shape, &env).is_empty());
    }
}
