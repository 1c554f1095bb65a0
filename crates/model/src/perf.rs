//! The seven-parameter iteration-time model (paper §4).
//!
//! `T_iter = T_cc + T_oo + k_const` (Eq. 1), where `T_cc` combines forward,
//! backward and communication (§4.1) and `T_oo` combines optimizer and
//! offloading (§4.2). Overlap between stages is modelled by the p-norm
//! [`f_overlap`] borrowed from Pollux: `(x^k + y^k)^(1/k)` equals `x + y` at
//! `k = 1` and tends to `max(x, y)` as `k → ∞`.
//!
//! Each fittable parameter is a `k_*` field of [`PerfParams`]; everything
//! else is a model constant ([`ModelSpec`]), a job constant (plan, batch),
//! or an environment constant ([`ClusterEnv`]) — exactly Table 1.

use crate::env::ClusterEnv;
use crate::error::ModelError;
use crate::memory::MemoryEstimator;
use crate::placement::{CommTopology, Placement};
use crate::plan::{ExecutionPlan, MemoryMode};
use crate::planset::PlanSetCache;
use crate::resources::NodeShape;
use crate::spec::ModelSpec;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Communication volumes of one training iteration, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct CommVolumes {
    /// Data-parallel gradient synchronization volume.
    pub dp_bytes: f64,
    /// Tensor-parallel activation exchange volume.
    pub tp_bytes: f64,
    /// Pipeline-parallel stage transfer volume.
    pub pp_bytes: f64,
    /// GPU ↔ host offload volume (ZeRO-Offload only).
    pub pcie_bytes: f64,
}

impl CommVolumes {
    /// Total network (DP + TP + PP) bytes per iteration.
    pub fn network_bytes(&self) -> f64 {
        self.dp_bytes + self.tp_bytes + self.pp_bytes
    }
}

/// The parts of Eq. 1 fixed by the job, placement and environment — every
/// term that does not depend on the seven fitted parameters.
///
/// Built by [`PerfParams::iter_terms`] and consumed by
/// [`PerfParams::iter_time_from`]; [`PerfParams::iter_time`] is the
/// composition of the two, so there is one formula.
#[derive(Debug, Clone, Copy)]
pub struct IterTerms {
    /// Forward time of one pass (one GA step, or the pipeline schedule).
    t_fwd: f64,
    /// DP gradient-synchronization time.
    t_comm_dp: f64,
    /// TP activation-exchange time.
    t_comm_tp: f64,
    /// PP stage-transfer time.
    t_comm_pp: f64,
    /// GPU ↔ host offload time (ZeRO-Offload only, else 0).
    t_off: f64,
    /// Parameter count in billions.
    params_b: f64,
    /// Optimizer partition divisor: `d·c` under ZeRO-Offload, `d` for
    /// ZeRO-2/3, `t·p` otherwise.
    opt_div: f64,
    /// Gradient-accumulation steps.
    ga_steps: u32,
    /// Gradient checkpointing enabled.
    gc: bool,
    /// The plan runs ZeRO-Offload.
    offload: bool,
}

impl IterTerms {
    /// The fitted parameters Eq. 1 may read on these terms: bit `j` stands
    /// for parameter `j` in [`PerfParams::to_vec`] order. A clear bit is a
    /// guarantee — changing that parameter leaves
    /// [`iter_time_from`](PerfParams::iter_time_from) bit-identical — while
    /// a set bit may be conservative.
    ///
    /// `k_bwd` and `k_const` are always read. Only a ZeRO-Offload plan reads
    /// `k_opt_off`, `k_off` and `k_swap`, and only another plan reads
    /// `k_opt`. `k_sync` (non-offload) and `k_off` (offload) weigh an
    /// overlap with the DP sync, which [`f_overlap`] short-circuits when
    /// `t_comm_dp <= 0`. A fit's finite-difference Jacobian skips every
    /// column outside the mask.
    pub fn read_mask(&self) -> u8 {
        const K_BWD: u8 = 1 << 0;
        const K_SYNC: u8 = 1 << 1;
        const K_OPT: u8 = 1 << 2;
        const K_OPT_OFF: u8 = 1 << 3;
        const K_OFF: u8 = 1 << 4;
        const K_SWAP: u8 = 1 << 5;
        const K_CONST: u8 = 1 << 6;
        // A NaN time does not short-circuit `f_overlap` either.
        let syncs = self.t_comm_dp > 0.0 || self.t_comm_dp.is_nan();
        let mut mask = K_BWD | K_CONST;
        if self.offload {
            mask |= K_OPT_OFF | K_SWAP;
            if syncs {
                mask |= K_OFF;
            }
        } else {
            mask |= K_OPT;
            if syncs {
                mask |= K_SYNC;
            }
        }
        mask
    }
}

/// Computes the per-iteration communication volumes of a plan (paper §4.1).
///
/// * DP (ring all-reduce): `V_dp = P · 2(d−1) / (d·t·p)` — the rule also
///   applies to the ZeRO series;
/// * TP: `V_tp = 4·2·(t−1)·b·s·h·l / (d·t)` elements;
/// * PP (1F1B): `V_pp = 2·p·b·s·h / (d·t)` elements;
/// * PCIe (ZeRO-Offload): `P / d` per data-parallel GPU.
///
/// Element counts are converted to bytes at fp16 (2 bytes).
pub fn volumes(spec: &ModelSpec, plan: &ExecutionPlan, global_batch: u32) -> CommVolumes {
    let d = plan.parallel.dp as f64;
    let t = plan.parallel.tp as f64;
    let p = plan.parallel.pp as f64;
    let b = global_batch as f64;
    let s = spec.seq_len as f64;
    let h = spec.hidden as f64;
    let l = spec.layers as f64;
    let p_bytes = spec.param_bytes();
    const BYTES_PER_ELEM: f64 = 2.0;

    let dp_bytes = if plan.parallel.dp > 1 {
        // ZeRO-3 all-gathers parameters in the forward and backward passes
        // on top of the gradient reduce-scatter: ~1.5x the ring-allreduce
        // traffic of plain DP / ZeRO-2.
        let factor = if plan.memory == MemoryMode::Zero3 {
            3.0
        } else {
            2.0
        };
        p_bytes * factor * (d - 1.0) / (d * t * p)
    } else {
        0.0
    };
    let tp_bytes = if plan.parallel.tp > 1 {
        4.0 * 2.0 * (t - 1.0) * b * s * h * l / (d * t) * BYTES_PER_ELEM
    } else {
        0.0
    };
    let pp_bytes = if plan.parallel.pp > 1 {
        2.0 * p * b * s * h / (d * t) * BYTES_PER_ELEM
    } else {
        0.0
    };
    let pcie_bytes = if plan.memory == MemoryMode::ZeroOffload {
        p_bytes / d
    } else {
        0.0
    };
    CommVolumes {
        dp_bytes,
        tp_bytes,
        pp_bytes,
        pcie_bytes,
    }
}

/// The p-norm overlap function `f_overlap^k(x, y) = (x^k + y^k)^(1/k)`.
///
/// Properties (exercised by property tests):
/// * `f(1, x, y) = x + y` (no overlap),
/// * `f(k, x, y) → max(x, y)` as `k → ∞` (perfect overlap),
/// * monotonically non-increasing in `k`, bounded by `[max(x,y), x+y]`.
///
/// `k` is clamped to `[1, 64]`; zero operands short-circuit.
pub fn f_overlap(k: f64, x: f64, y: f64) -> f64 {
    if x <= 0.0 {
        return y.max(0.0);
    }
    if y <= 0.0 {
        return x;
    }
    let k = k.clamp(1.0, 64.0);
    // Compute in a numerically stable way: factor out the larger operand.
    let (hi, lo) = if x >= y { (x, y) } else { (y, x) };
    hi * (1.0 + (lo / hi).powf(k)).powf(1.0 / k)
}

/// The seven fittable parameters of the performance model (Table 1), plus
/// the profiled effective GPU throughput that anchors `T_fwd`.
///
/// The paper obtains `T_fwd` from framework profilers and scales it
/// linearly with per-GPU batch and tensor-shard size; we represent the same
/// information as `gpu_flops` — the sustained FLOP/s one GPU achieves on
/// this model — so `T_fwd` is derived from [`ModelSpec::fwd_flops_per_sample`].
///
/// ```
/// use rubick_model::prelude::*;
/// let spec = ModelSpec::gpt2_xl();
/// let params = PerfParams::default();
/// let plan = ExecutionPlan::zero_dp(8);
/// let placement = Placement::single_node(8, 96, 1600.0);
/// let t = params.iter_time(&spec, &plan, 16, &placement, &ClusterEnv::a800());
/// assert!(t > 0.0 && t.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfParams {
    /// Backward/forward compute ratio: `T_bwd = k_bwd · T_fwd`.
    pub k_bwd: f64,
    /// Overlap exponent for backward-pass / DP-sync overlap.
    pub k_sync: f64,
    /// GPU optimizer time per billion parameters (3D / ZeRO-DP).
    pub k_opt: f64,
    /// CPU optimizer efficiency for ZeRO-Offload
    /// (`T_opt = k_opt_off · P / (d·c)`).
    pub k_opt_off: f64,
    /// Overlap exponent for DP-sync / offload overlap (ZeRO-Offload).
    pub k_off: f64,
    /// Overlap exponent for optimizer / swap overlap (ZeRO-Offload).
    pub k_swap: f64,
    /// Constant per-iteration overhead, seconds.
    pub k_const: f64,
    /// Profiled sustained per-GPU throughput, FLOP/s.
    pub gpu_flops: f64,
}

impl Default for PerfParams {
    /// Plausible A800 defaults; real deployments fit these from profiled
    /// samples (see [`crate::fit`]).
    fn default() -> Self {
        PerfParams {
            k_bwd: 2.0,
            k_sync: 2.0,
            k_opt: 0.02,
            k_opt_off: 1.0,
            k_off: 2.0,
            k_swap: 2.0,
            k_const: 0.01,
            gpu_flops: 1.2e14,
        }
    }
}

impl PerfParams {
    /// The fittable parameters as a fixed-size vector
    /// `[k_bwd, k_sync, k_opt, k_opt_off, k_off, k_swap, k_const]`,
    /// the order of Table 1.
    pub fn to_vec(&self) -> [f64; 7] {
        [
            self.k_bwd,
            self.k_sync,
            self.k_opt,
            self.k_opt_off,
            self.k_off,
            self.k_swap,
            self.k_const,
        ]
    }

    /// Reconstructs parameters from the vector form, keeping `gpu_flops`.
    pub fn from_vec(v: &[f64; 7], gpu_flops: f64) -> Self {
        PerfParams {
            k_bwd: v[0],
            k_sync: v[1],
            k_opt: v[2],
            k_opt_off: v[3],
            k_off: v[4],
            k_swap: v[5],
            k_const: v[6],
            gpu_flops,
        }
    }

    /// Forward-pass time of one *pass* (one GA step, or the `(m+p−1)`-step
    /// pipeline schedule under PP), in seconds.
    fn t_fwd(&self, spec: &ModelSpec, plan: &ExecutionPlan, global_batch: u32) -> f64 {
        let d = plan.parallel.dp as f64;
        let t = plan.parallel.tp as f64;
        let p = plan.parallel.pp as f64;
        let b = global_batch as f64;
        let flops = spec.fwd_flops_per_sample();
        if plan.parallel.pp > 1 {
            let m = plan.micro_batches as f64;
            // One micro-batch through one stage holding l/p layers:
            let t_stage = flops * (b / (d * m)) / (t * p) / self.gpu_flops;
            // 1F1B: fill (p−1) bubbles plus m micro-batches serially.
            t_stage * (m + p - 1.0)
        } else {
            let a = plan.ga_steps as f64;
            flops * (b / (d * a)) / t / self.gpu_flops
        }
    }

    /// Predicts the end-to-end iteration time `T_iter` in seconds (Eq. 1).
    ///
    /// This is the *structural* prediction only; it does not check memory
    /// feasibility (see [`ThroughputModel::iter_time`] for the checked
    /// variant). It is exactly
    /// [`iter_time_from`](PerfParams::iter_time_from) applied to
    /// [`iter_terms`](PerfParams::iter_terms).
    pub fn iter_time(
        &self,
        spec: &ModelSpec,
        plan: &ExecutionPlan,
        global_batch: u32,
        placement: &Placement,
        env: &ClusterEnv,
    ) -> f64 {
        self.iter_time_from(&self.iter_terms(spec, plan, global_batch, placement, env))
    }

    /// The terms of Eq. 1 that do not depend on the seven fitted
    /// parameters: `T_fwd` (anchored by this set's `gpu_flops`), the
    /// communication and offload times, and the optimizer divisors.
    ///
    /// A fit holds `gpu_flops` fixed, so it computes these once per data
    /// point and evaluates each candidate with
    /// [`iter_time_from`](PerfParams::iter_time_from).
    ///
    /// Of `placement` this reads only what [`CommTopology::derive`] reads
    /// and, for ZeRO-Offload plans, `cpus` (the `d·c` divisor); never
    /// `host_mem_gb`. The best-plan memo ([`BestPlanMemo`]) relies on this.
    ///
    /// Both halves are forced inline so [`iter_time`](PerfParams::iter_time)
    /// — the plan search's hot call — stays one straight-line function
    /// instead of two calls passing the terms through memory.
    #[inline(always)]
    pub fn iter_terms(
        &self,
        spec: &ModelSpec,
        plan: &ExecutionPlan,
        global_batch: u32,
        placement: &Placement,
        env: &ClusterEnv,
    ) -> IterTerms {
        let topo = CommTopology::derive(&plan.parallel, placement, env);
        let vol = volumes(spec, plan, global_batch);
        let gb = 1.0e9;
        let d = plan.parallel.dp as f64;
        let offload = plan.memory == MemoryMode::ZeroOffload;
        let (opt_div, t_off) = if offload {
            let c = placement.cpus.max(1) as f64;
            (d * c, vol.pcie_bytes / (env.b_pcie * gb))
        } else {
            // 3D parallelism partitions parameters by t·p; the ZeRO
            // variants by d.
            let x = match plan.memory {
                MemoryMode::Zero2 | MemoryMode::Zero3 => d,
                _ => (plan.parallel.tp * plan.parallel.pp) as f64,
            };
            (x, 0.0)
        };
        IterTerms {
            t_fwd: self.t_fwd(spec, plan, global_batch),
            t_comm_dp: vol.dp_bytes / (topo.b_dp * gb),
            t_comm_tp: vol.tp_bytes / (topo.b_tp * gb),
            t_comm_pp: vol.pp_bytes / (topo.b_pp * gb),
            t_off,
            params_b: spec.params_b(),
            opt_div,
            ga_steps: plan.ga_steps,
            gc: plan.gc,
            offload,
        }
    }

    /// Eq. 1 over precomputed [`IterTerms`]: combines them with this
    /// set's seven fitted parameters as
    /// [`t_cc`](PerfParams::t_cc)` + `[`t_oo`](PerfParams::t_oo)` + k_const`.
    #[inline(always)]
    pub fn iter_time_from(&self, terms: &IterTerms) -> f64 {
        self.t_cc(terms) + self.t_oo(terms) + self.k_const
    }

    /// `T_cc` of Eq. 1: forward, backward and communication (§4.1). Reads
    /// only `k_bwd` and `k_sync` of the fitted parameters.
    #[inline(always)]
    pub fn t_cc(&self, terms: &IterTerms) -> f64 {
        let IterTerms {
            t_fwd,
            t_comm_dp,
            t_comm_tp,
            t_comm_pp,
            ga_steps,
            gc,
            offload,
            ..
        } = *terms;
        // GC adds one forward-pass worth of recomputation to the backward pass.
        let t_bwd = self.k_bwd * t_fwd + if gc { t_fwd } else { 0.0 };
        if offload {
            // DP sync is overlapped with offloading inside T_oo instead.
            let a = ga_steps as f64;
            a * t_fwd + a * t_bwd + t_comm_tp + t_comm_pp
        } else if ga_steps > 1 {
            let a = ga_steps as f64;
            a * t_fwd
                + (a - 1.0) * t_bwd
                + f_overlap(self.k_sync, t_bwd, t_comm_dp)
                + t_comm_tp
                + t_comm_pp
        } else {
            t_fwd + f_overlap(self.k_sync, t_bwd, t_comm_dp) + t_comm_tp + t_comm_pp
        }
    }

    /// `T_oo` of Eq. 1: optimizer and offloading (§4.2). Reads only
    /// `k_opt`, `k_opt_off`, `k_off` and `k_swap` of the fitted parameters.
    #[inline(always)]
    pub fn t_oo(&self, terms: &IterTerms) -> f64 {
        let IterTerms {
            t_comm_dp,
            t_off,
            params_b,
            opt_div,
            offload,
            ..
        } = *terms;
        if offload {
            let t_opt = self.k_opt_off * params_b / opt_div;
            f_overlap(self.k_off, t_comm_dp, t_off) + f_overlap(self.k_swap, t_opt, t_off)
        } else {
            self.k_opt * params_b / opt_div
        }
    }

    /// Predicted throughput in samples/second: `b / T_iter`.
    pub fn throughput(
        &self,
        spec: &ModelSpec,
        plan: &ExecutionPlan,
        global_batch: u32,
        placement: &Placement,
        env: &ClusterEnv,
    ) -> f64 {
        global_batch as f64 / self.iter_time(spec, plan, global_batch, placement, env)
    }
}

/// A fitted performance model for one model type, bundled with the cluster
/// environment and node shape so it can answer scheduler queries
/// ("best plan on `g` GPUs?", "throughput of this placement?") directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputModel {
    /// The model type this performance model describes.
    pub spec: ModelSpec,
    /// Fitted parameters.
    pub params: PerfParams,
    /// Cluster environment constants.
    pub env: ClusterEnv,
    /// Node hardware shape (for plan enumeration and memory checks).
    pub shape: NodeShape,
}

impl ThroughputModel {
    /// Bundles a fitted parameter set with its context.
    pub fn new(spec: ModelSpec, params: PerfParams, env: ClusterEnv, shape: NodeShape) -> Self {
        ThroughputModel {
            spec,
            params,
            env,
            shape,
        }
    }

    /// Memory-checked iteration time.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidPlan`] or [`ModelError::OutOfMemory`]
    /// when the plan cannot run on the placement.
    pub fn iter_time(
        &self,
        plan: &ExecutionPlan,
        global_batch: u32,
        placement: &Placement,
    ) -> Result<f64, ModelError> {
        plan.validate(&self.spec, global_batch)?;
        MemoryEstimator::new(self.shape.gpu_mem_gb).check_feasible(
            &self.spec,
            plan,
            placement,
            global_batch,
            &self.env,
        )?;
        Ok(self
            .params
            .iter_time(&self.spec, plan, global_batch, placement, &self.env))
    }

    /// Memory-checked throughput in samples/second.
    ///
    /// # Errors
    ///
    /// Same as [`ThroughputModel::iter_time`].
    pub fn throughput(
        &self,
        plan: &ExecutionPlan,
        global_batch: u32,
        placement: &Placement,
    ) -> Result<f64, ModelError> {
        Ok(global_batch as f64 / self.iter_time(plan, global_batch, placement)?)
    }

    /// Unchecked iteration time: the raw model prediction with no plan
    /// validation or memory feasibility check.
    ///
    /// Contract: only meaningful for plans that already passed
    /// [`ExecutionPlan::validate`] and
    /// [`MemoryEstimator::check_feasible`] for this `(spec, shape,
    /// global_batch)` — e.g. plans out of [`PlanSetCache::plans`]. External
    /// callers with unvetted plans must use the checked
    /// [`iter_time`](ThroughputModel::iter_time).
    pub fn iter_time_unchecked(
        &self,
        plan: &ExecutionPlan,
        global_batch: u32,
        placement: &Placement,
    ) -> f64 {
        self.params
            .iter_time(&self.spec, plan, global_batch, placement, &self.env)
    }

    /// Unchecked throughput in samples/second: `b / T_iter` with no
    /// validation. Same contract as
    /// [`iter_time_unchecked`](ThroughputModel::iter_time_unchecked).
    pub fn throughput_unchecked(
        &self,
        plan: &ExecutionPlan,
        global_batch: u32,
        placement: &Placement,
    ) -> f64 {
        global_batch as f64 / self.iter_time_unchecked(plan, global_batch, placement)
    }

    /// Searches all feasible plans on this placement and returns the best
    /// `(plan, throughput)` — `GetBestPlan` of Algorithm 1.
    ///
    /// Returns `None` when no plan fits (e.g. LLaMA-30B on 1 GPU).
    ///
    /// Uses the process-wide [`PlanSetCache`], so repeated calls at the same
    /// `(model, gpus, batch)` point enumerate once and score plans through
    /// the unchecked fast path.
    pub fn best_plan(
        &self,
        global_batch: u32,
        placement: &Placement,
    ) -> Option<(ExecutionPlan, f64)> {
        self.best_plan_in(PlanSetCache::global(), global_batch, placement)
    }

    /// [`best_plan`](ThroughputModel::best_plan) against an explicit cache
    /// (tests and benches use private caches to control warm-up).
    ///
    /// Every cached plan already passed validate + feasibility against the
    /// *packed* placement for this GPU count. Validation and the GPU-memory
    /// check are placement-independent, so the only condition to re-check is
    /// host memory — and only when this placement has *less* host memory
    /// than the packed share the enumeration assumed. This reproduces the
    /// checked filtering of `throughput` exactly, without re-running it per
    /// plan.
    ///
    /// Of the `Placement` this reads only `total_gpus()` (the plan set),
    /// `host_mem_gb` (only below the packed share) and what scoring reads
    /// through [`PerfParams::iter_terms`]. [`BestPlanMemo`] keys on exactly
    /// these fields.
    pub fn best_plan_in(
        &self,
        cache: &PlanSetCache,
        global_batch: u32,
        placement: &Placement,
    ) -> Option<(ExecutionPlan, f64)> {
        let gpus = placement.total_gpus();
        if gpus == 0 {
            return None;
        }
        let plans = cache.plans(&self.spec, gpus, global_batch, &self.shape, &self.env);
        self.scan_plans(&plans, global_batch, placement)
            .map(|(i, tput)| (plans[i], tput))
    }

    /// The strict-max scan behind [`best_plan_in`](ThroughputModel::best_plan_in)
    /// and the debug check of every [`BestPlanMemo`] miss: the index of the
    /// best plan in `plans` (the cached set for `placement.total_gpus()`)
    /// and its throughput.
    fn scan_plans(
        &self,
        plans: &[ExecutionPlan],
        global_batch: u32,
        placement: &Placement,
    ) -> Option<(usize, f64)> {
        let mut best = NO_BEST;
        self.score_plans(
            plans,
            0..plans.len() as u32,
            global_batch,
            placement,
            |i, _, tput| keep_max(&mut best, i, tput),
        );
        (best.0 != NO_PLAN).then_some((best.0 as usize, best.1))
    }

    /// Scores `plans[i]` on `placement` for each `i` of `indices`, in
    /// order, and passes `(i, plan, throughput)` to `visit`. `plans` is the
    /// cached set for `placement.total_gpus()`, so the one check left is
    /// host memory: below the packed share, a plan whose host demand
    /// exceeds `placement.host_mem_gb` is skipped.
    #[inline(always)]
    fn score_plans(
        &self,
        plans: &[ExecutionPlan],
        indices: impl IntoIterator<Item = u32>,
        global_batch: u32,
        placement: &Placement,
        mut visit: impl FnMut(u32, &ExecutionPlan, f64),
    ) {
        let packed_host = self.shape.packed_host_mem_gb(placement.total_gpus());
        let recheck_host = placement.host_mem_gb < packed_host;
        let estimator = MemoryEstimator::new(self.shape.gpu_mem_gb);
        for i in indices {
            let plan = &plans[i as usize];
            if recheck_host && estimator.host_mem_gb(&self.spec, plan) > placement.host_mem_gb {
                continue;
            }
            visit(
                i,
                plan,
                self.throughput_unchecked(plan, global_batch, placement),
            );
        }
    }
}

/// Whether two fits score every plan alike: the fitted parameters
/// compared bit for bit, the spec, environment and node shape with `==`.
fn same_fit(a: &ThroughputModel, b: &ThroughputModel) -> bool {
    let bits = |p: &PerfParams| (p.to_vec().map(f64::to_bits), p.gpu_flops.to_bits());
    bits(&a.params) == bits(&b.params) && a.spec == b.spec && a.env == b.env && a.shape == b.shape
}

/// Entry cap of a [`BestPlanMemo`]: reaching it empties and frees every
/// table but keeps the rows. One paper-scale Rubick simulation (406 jobs,
/// 64 GPUs) stores about 1.7k. The cap does not bound the rows: a row
/// (its fit and an empty table list) and its index slot stay for every
/// distinct `(model, batch)` the memo has seen.
const MEMO_MAX_ENTRIES: usize = 1 << 16;

/// The part of a placement that [`ThroughputModel::best_plan_in`] can
/// see, given the plan set it scores. Two placements of one class get the
/// same best plan with the same throughput bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlacementClass {
    /// `min_gpus_on_node().max(1)` when the placement spans nodes, else 0:
    /// [`CommTopology::derive`] reads nothing else of the GPU layout.
    min_per_node: u32,
    /// `cpus` when the plan set holds a ZeRO-Offload plan (the only
    /// optimizer term that reads it), else 0.
    cpus: u32,
    /// When `host_mem_gb` is below the packed share, how many of the
    /// set's distinct host-memory demands exceed it, else 0. The recheck
    /// drops exactly the plans whose demand exceeds `host_mem_gb`; those
    /// demands are a suffix of the sorted distinct ones, so the count
    /// names the dropped plans.
    host_short: u32,
}

impl PlacementClass {
    /// Whether the two classes differ at most in `cpus`, so every plan
    /// that ignores `cpus` scores alike on both and the host recheck
    /// drops the same plans.
    fn same_but_cpus(&self, other: &PlacementClass) -> bool {
        (self.min_per_node, self.host_short) == (other.min_per_node, other.host_short)
    }
}

/// The plan index a [`ClassTable`] stores when no plan fits.
const NO_PLAN: u32 = u32::MAX;

/// A best plan: its index into a plan set and its throughput, or
/// [`NO_BEST`] when no plan fits.
type Best = (u32, f64);

/// The [`Best`] of an empty scan.
const NO_BEST: Best = (NO_PLAN, 0.0);

/// Folds plan `i` scoring `tput` into `best` the way a strict-`>` scan in
/// plan order does: the first plan scored is kept until a later one
/// scores strictly higher.
#[inline(always)]
fn keep_max(best: &mut Best, i: u32, tput: f64) {
    if best.0 == NO_PLAN || tput > best.1 {
        *best = (i, tput);
    }
}

/// The best of two disjoint parts of one plan set, each found by a
/// strict-`>` scan in plan order. The higher throughput wins; on a tie
/// the lower plan index wins, which is what one scan over the whole set
/// returns. Exact only when neither throughput is NaN.
fn merge_best(a: Best, b: Best) -> Best {
    if b.0 == NO_PLAN {
        return a;
    }
    if a.0 == NO_PLAN {
        return b;
    }
    if a.1 > b.1 || (a.1 == b.1 && a.0 < b.0) {
        a
    } else {
        b
    }
}

/// One placement class of a [`ClassTable`] and its answers.
#[derive(Debug, Clone, Copy)]
struct ClassEntry {
    class: PlacementClass,
    /// The best plan of the whole set.
    best: Best,
    /// The best plan among those that ignore `cpus` (every plan outside
    /// [`ClassTable::offload`]). A class that differs only in `cpus`
    /// shares it.
    fixed: Best,
}

/// One `(model, batch, gpus)` point of a [`BestPlanMemo`]: the cached plan
/// set and the best plan per placement class, as an index into it (or
/// [`NO_PLAN`]) with its throughput.
#[derive(Debug)]
struct ClassTable {
    plans: Arc<[ExecutionPlan]>,
    /// The indices of the ZeRO-Offload plans in `plans`, ascending: the
    /// only plans whose score reads `cpus`.
    offload: Box<[u32]>,
    packed_host_mem_gb: f64,
    /// The distinct host-memory demands of `plans`, ascending. A NaN
    /// demand never exceeds a placement's host memory, so it is left out.
    host_demands: Box<[f64]>,
    /// The classes seen so far. A table holds a few classes, so a linear
    /// scan beats hashing one.
    classes: Vec<ClassEntry>,
}

impl ClassTable {
    fn new(model: &ThroughputModel, gpus: u32, plans: Arc<[ExecutionPlan]>) -> Self {
        let estimator = MemoryEstimator::new(model.shape.gpu_mem_gb);
        let mut host_demands: Vec<f64> = plans
            .iter()
            .map(|p| estimator.host_mem_gb(&model.spec, p))
            .filter(|d| !d.is_nan())
            .collect();
        host_demands.sort_by(f64::total_cmp);
        host_demands.dedup();
        ClassTable {
            offload: (0..plans.len() as u32)
                .filter(|&i| plans[i as usize].memory == MemoryMode::ZeroOffload)
                .collect(),
            packed_host_mem_gb: model.shape.packed_host_mem_gb(gpus),
            host_demands: host_demands.into(),
            classes: Vec::new(),
            plans,
        }
    }

    fn plan_at(&self, (index, tput): Best) -> Option<(ExecutionPlan, f64)> {
        (index != NO_PLAN).then(|| (self.plans[index as usize], tput))
    }

    fn entry(&self, class: PlacementClass) -> Option<Best> {
        self.classes
            .iter()
            .find(|e| e.class == class)
            .map(|e| e.best)
    }

    fn class_of(&self, placement: &Placement) -> PlacementClass {
        PlacementClass {
            min_per_node: if placement.spans_nodes() {
                placement.min_gpus_on_node().max(1)
            } else {
                0
            },
            cpus: if self.offload.is_empty() {
                0
            } else {
                placement.cpus
            },
            host_short: if placement.host_mem_gb < self.packed_host_mem_gb {
                // `host` is not NaN here and the demands hold no NaN, so
                // the demands above it are exactly the sorted suffix.
                let host = placement.host_mem_gb;
                let fitting = self.host_demands.partition_point(|&d| d <= host);
                (self.host_demands.len() - fitting) as u32
            } else {
                0
            },
        }
    }

    /// Answers `placement`, whose class this table has not stored, and
    /// stores the class. A class that differs from a stored one only in
    /// `cpus` takes the split path ([`split_miss`](ClassTable::split_miss));
    /// any other miss scans the whole set once for both bests.
    fn miss(&mut self, model: &ThroughputModel, global_batch: u32, placement: &Placement) -> Best {
        let class = self.class_of(placement);
        let entry = self
            .split_miss(model, class, global_batch, placement)
            .unwrap_or_else(|| {
                let (mut best, mut fixed) = (NO_BEST, NO_BEST);
                let all = 0..self.plans.len() as u32;
                model.score_plans(
                    &self.plans,
                    all,
                    global_batch,
                    placement,
                    |i, plan, tput| {
                        keep_max(&mut best, i, tput);
                        if plan.memory != MemoryMode::ZeroOffload {
                            keep_max(&mut fixed, i, tput);
                        }
                    },
                );
                ClassEntry { class, best, fixed }
            });
        self.classes.push(entry);
        entry.best
    }

    /// The miss of a class that differs from a stored one only in `cpus`:
    /// the stored class's best among the plans that ignore `cpus` still
    /// holds, so only the offload plans are scored and the two bests
    /// merged. `None` when no such class is stored, or when the reused
    /// best or an offload score is NaN and the merge would be inexact.
    fn split_miss(
        &self,
        model: &ThroughputModel,
        class: PlacementClass,
        global_batch: u32,
        placement: &Placement,
    ) -> Option<ClassEntry> {
        let fixed = self
            .classes
            .iter()
            .find(|e| e.class.same_but_cpus(&class))?
            .fixed;
        if fixed.1.is_nan() {
            return None;
        }
        let (mut offload, mut nan) = (NO_BEST, false);
        let indices = self.offload.iter().copied();
        model.score_plans(
            &self.plans,
            indices,
            global_batch,
            placement,
            |i, _, tput| {
                nan |= tput.is_nan();
                keep_max(&mut offload, i, tput);
            },
        );
        (!nan).then(|| ClassEntry {
            class,
            best: merge_best(fixed, offload),
            fixed,
        })
    }
}

/// A handle to one `(model, batch)` row of a [`BestPlanMemo`], resolved
/// by [`BestPlanMemo::row`]. It names its row until a different fit of
/// the model resets the row; the memo's own entry cap empties the row's
/// tables but keeps the row. A handle from before a reset still answers
/// correctly: the memo sees its old generation and resolves the row
/// again, paying the hashed lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoRow {
    slot: usize,
    /// The row's reset count when resolved.
    generation: u64,
}

/// One `(model, batch)` row of a [`BestPlanMemo`].
#[derive(Debug)]
struct Row {
    /// The fit every table of the row was scored under.
    fit: ThroughputModel,
    /// How many times a different fit reset the row.
    generation: u64,
    /// `gpus → table`.
    tables: Vec<Option<ClassTable>>,
}

impl Row {
    /// Placement classes stored across the row's tables.
    fn entries(&self) -> usize {
        self.tables.iter().flatten().map(|t| t.classes.len()).sum()
    }
}

/// A memo of [`ThroughputModel::best_plan_in`] keyed by placement class.
///
/// The best plan on a placement is a pure function of `(model, batch,
/// gpus)` plus a [`PlacementClass`]: whether and how thinly the GPUs span
/// nodes, the CPU count when an offload plan is in the set, and, below the
/// packed host-memory share, which plans' host demands the placement
/// cannot meet. A scheduler asks for the same few classes over and over,
/// so the memo answers repeats without re-scoring the plan set. A class
/// that differs from a stored one only in `cpus` re-scores only the
/// ZeRO-Offload plans, the only ones that read `cpus`.
///
/// The memo holds one row per `(model, batch)`, indexed by GPU count.
/// [`row`](BestPlanMemo::row) resolves a row by model *name* — the one
/// hashed lookup — and [`best_plan_at`](BestPlanMemo::best_plan_at)
/// answers through that handle with two array indexes and a scan of the
/// table's few classes. Each row remembers the fit it was scored under:
/// when `row` is handed a different fit of the model (a registry refit),
/// it empties that row alone, and handles resolved before answer through
/// a fresh lookup. In debug builds every miss and every hit is
/// recomputed and compared bit for bit.
///
/// ```
/// use rubick_model::prelude::*;
/// let model = ThroughputModel::new(
///     ModelSpec::gpt2_xl(),
///     PerfParams::default(),
///     ClusterEnv::a800(),
///     NodeShape::a800(),
/// );
/// let cache = PlanSetCache::new();
/// let mut memo = BestPlanMemo::new();
/// let placement = Placement::spread(16, 8, 192, 3200.0);
/// let miss = memo.best_plan(&model, &cache, 16, &placement);
/// // Another layout of the same class is a hit.
/// let hit = memo.best_plan(&model, &cache, 16, &Placement::spread(16, 8, 192, 3300.0));
/// assert_eq!(miss, hit);
/// assert_eq!(miss, model.best_plan_in(&cache, 16, &placement));
/// // A resolved row answers the same without looking the model up.
/// let row = memo.row(&model, 16);
/// assert_eq!(memo.best_plan_at(row, &model, &cache, 16, &placement), miss);
/// assert_eq!(memo.len(), 1);
/// ```
#[must_use = "a memo that is never queried does nothing"]
#[derive(Debug)]
pub struct BestPlanMemo {
    /// `model name → [(batch, slot)]`, read only by [`row`](BestPlanMemo::row).
    index: HashMap<String, Vec<(u32, usize)>>,
    /// `slot → row`.
    rows: Vec<Row>,
    /// Placement classes stored across all tables.
    entries: usize,
    /// Entry count at which the tables are emptied: [`MEMO_MAX_ENTRIES`]
    /// outside unit tests.
    max_entries: usize,
}

impl Default for BestPlanMemo {
    fn default() -> Self {
        BestPlanMemo {
            index: HashMap::new(),
            rows: Vec::new(),
            entries: 0,
            max_entries: MEMO_MAX_ENTRIES,
        }
    }
}

impl BestPlanMemo {
    /// An empty memo.
    pub fn new() -> Self {
        BestPlanMemo::default()
    }

    /// An empty memo whose tables empty at `max_entries` entries.
    #[cfg(test)]
    fn with_max_entries(max_entries: usize) -> Self {
        BestPlanMemo {
            max_entries,
            ..BestPlanMemo::default()
        }
    }

    /// Number of memoized placement classes.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// The row of `(model, global_batch)`, created empty on first sight.
    /// Resolving a row stores no entry, and resolving it again under the
    /// same fit returns the same handle. Under a different fit of the
    /// model (compared by [`same_fit`]) the row's tables are emptied and
    /// its generation moves, so handles resolved before resolve again.
    pub fn row(&mut self, model: &ThroughputModel, global_batch: u32) -> MemoRow {
        let name = &model.spec.name;
        let found = self
            .index
            .get(name)
            .and_then(|rows| rows.iter().find(|&&(b, _)| b == global_batch));
        let Some(&(_, slot)) = found else {
            let slot = self.rows.len();
            self.rows.push(Row {
                fit: model.clone(),
                generation: 0,
                tables: Vec::new(),
            });
            self.index
                .entry(name.clone())
                .or_default()
                .push((global_batch, slot));
            return MemoRow {
                slot,
                generation: 0,
            };
        };
        let row = &mut self.rows[slot];
        if !same_fit(&row.fit, model) {
            self.entries -= row.entries();
            row.tables.clear();
            row.fit = model.clone();
            row.generation += 1;
        }
        MemoRow {
            slot,
            generation: row.generation,
        }
    }

    /// [`model.best_plan_in(cache, global_batch, placement)`](ThroughputModel::best_plan_in),
    /// answered from the memo when this placement's class was seen before.
    /// Resolves the row on every call; a caller that asks repeatedly for
    /// one job resolves it once and uses [`best_plan_at`](BestPlanMemo::best_plan_at).
    pub fn best_plan(
        &mut self,
        model: &ThroughputModel,
        cache: &PlanSetCache,
        global_batch: u32,
        placement: &Placement,
    ) -> Option<(ExecutionPlan, f64)> {
        let row = self.row(model, global_batch);
        self.best_plan_at(row, model, cache, global_batch, placement)
    }

    /// [`best_plan`](BestPlanMemo::best_plan) through a `row` that
    /// [`row(model, global_batch)`](BestPlanMemo::row) resolved. Hashes
    /// nothing unless a different fit reset the row since, in which case
    /// the row is resolved again. `model` must be the fit the handle was
    /// last resolved with.
    pub fn best_plan_at(
        &mut self,
        mut row: MemoRow,
        model: &ThroughputModel,
        cache: &PlanSetCache,
        global_batch: u32,
        placement: &Placement,
    ) -> Option<(ExecutionPlan, f64)> {
        if row.generation != self.rows[row.slot].generation {
            row = self.row(model, global_batch);
        }
        debug_assert!(
            self.index
                .get(&model.spec.name)
                .is_some_and(|rows| rows.contains(&(global_batch, row.slot)))
                && same_fit(&self.rows[row.slot].fit, model),
            "memo row {row:?} is not ({}, batch {global_batch}) under this fit",
            model.spec.name
        );
        let gpus = placement.total_gpus();
        if gpus == 0 {
            return None;
        }
        let slot = gpus as usize;
        if let Some(Some(table)) = self.rows[row.slot].tables.get(slot) {
            if let Some(entry) = table.entry(table.class_of(placement)) {
                let hit = table.plan_at(entry);
                #[cfg(debug_assertions)]
                {
                    let fresh = model.best_plan_in(cache, global_batch, placement);
                    assert_eq!(
                        hit.map(|(p, t)| (p, t.to_bits())),
                        fresh.map(|(p, t)| (p, t.to_bits())),
                        "best-plan memo hit diverges for {} at {placement}",
                        model.spec.name
                    );
                }
                return hit;
            }
        }
        if self.entries >= self.max_entries {
            // Free the tables, not the rows: handles stay valid.
            self.rows.iter_mut().for_each(|r| r.tables = Vec::new());
            self.entries = 0;
        }
        let tables = &mut self.rows[row.slot].tables;
        if tables.len() <= slot {
            tables.resize_with(slot + 1, || None);
        }
        let table = tables[slot].get_or_insert_with(|| {
            let plans = cache.plans(&model.spec, gpus, global_batch, &model.shape, &model.env);
            ClassTable::new(model, gpus, plans)
        });
        let best = table.miss(model, global_batch, placement);
        #[cfg(debug_assertions)]
        {
            let scanned = model.scan_plans(&table.plans, global_batch, placement);
            assert_eq!(
                (best.0 != NO_PLAN).then_some((best.0 as usize, best.1.to_bits())),
                scanned.map(|(i, t)| (i, t.to_bits())),
                "best-plan memo miss diverges for {} at {placement}",
                model.spec.name
            );
        }
        self.entries += 1;
        table.plan_at(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> (ModelSpec, PerfParams, ClusterEnv) {
        (
            ModelSpec::gpt2_xl(),
            PerfParams::default(),
            ClusterEnv::a800(),
        )
    }

    #[test]
    fn overlap_function_bounds() {
        for &(x, y) in &[(1.0, 2.0), (0.5, 0.5), (3.0, 0.1)] {
            let sum = f_overlap(1.0, x, y);
            assert!((sum - (x + y)).abs() < 1e-9, "k=1 is exact sum");
            let near_max = f_overlap(64.0, x, y);
            assert!(near_max >= x.max(y) - 1e-9);
            assert!(near_max <= x.max(y) * 1.05);
            let mid = f_overlap(2.0, x, y);
            assert!(mid <= sum && mid >= x.max(y));
        }
    }

    #[test]
    fn overlap_zero_operands() {
        assert_eq!(f_overlap(2.0, 0.0, 3.0), 3.0);
        assert_eq!(f_overlap(2.0, 3.0, 0.0), 3.0);
        assert_eq!(f_overlap(2.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn dp_volume_zero_for_single_replica() {
        let (spec, _, _) = ctx();
        let v = volumes(&spec, &ExecutionPlan::dp(1), 16);
        assert_eq!(v.dp_bytes, 0.0);
        assert_eq!(v.tp_bytes, 0.0);
        assert_eq!(v.pp_bytes, 0.0);
    }

    #[test]
    fn dp_volume_grows_with_replicas() {
        let (spec, _, _) = ctx();
        let v2 = volumes(&spec, &ExecutionPlan::dp(2), 16).dp_bytes;
        let v8 = volumes(&spec, &ExecutionPlan::dp(8), 16).dp_bytes;
        assert!(v8 > v2);
        // 2(d-1)/d approaches 2P: v8 = P*2*7/8
        assert!((v8 - spec.param_bytes() * 1.75).abs() / v8 < 1e-9);
    }

    #[test]
    fn offload_has_pcie_volume() {
        let (spec, _, _) = ctx();
        let v = volumes(&spec, &ExecutionPlan::zero_offload(2), 16);
        assert!((v.pcie_bytes - spec.param_bytes() / 2.0).abs() < 1.0);
        let v = volumes(&spec, &ExecutionPlan::zero_dp(2), 16);
        assert_eq!(v.pcie_bytes, 0.0);
    }

    #[test]
    fn more_gpus_faster_dp() {
        let (spec, params, env) = ctx();
        let p1 = Placement::single_node(1, 12, 200.0);
        let p8 = Placement::single_node(8, 96, 1600.0);
        let t1 = params.iter_time(&spec, &ExecutionPlan::dp(1), 16, &p1, &env);
        let t8 = params.iter_time(&spec, &ExecutionPlan::dp(8), 16, &p8, &env);
        assert!(t8 < t1, "8-GPU DP should beat 1 GPU: {t8} vs {t1}");
    }

    #[test]
    fn gc_slows_down_iteration() {
        let (spec, params, env) = ctx();
        let p = Placement::single_node(4, 48, 800.0);
        let plain = params.iter_time(&spec, &ExecutionPlan::dp(4), 16, &p, &env);
        let gc = params.iter_time(&spec, &ExecutionPlan::dp(4).with_gc(), 16, &p, &env);
        assert!(gc > plain);
    }

    #[test]
    fn zero_dp_beats_plain_dp_on_large_model_many_gpus() {
        // ZeRO-DP partitions optimizer work across d GPUs; with the same
        // communication volume, its T_opt shrinks -> faster than plain DP.
        let (spec, params, env) = ctx();
        let p = Placement::single_node(8, 96, 1600.0);
        let dp = params.iter_time(&spec, &ExecutionPlan::dp(8), 16, &p, &env);
        let zero = params.iter_time(&spec, &ExecutionPlan::zero_dp(8), 16, &p, &env);
        assert!(zero < dp, "ZeRO-DP {zero} should beat DP {dp}");
    }

    #[test]
    fn offload_speeds_up_with_more_cpus() {
        // Fig. 7's final stage: doubling CPUs accelerates ZeRO-Offload.
        let (spec, params, env) = ctx();
        let few = Placement::single_node(1, 6, 400.0);
        let many = Placement::single_node(1, 48, 400.0);
        let plan = ExecutionPlan::zero_offload(1);
        let t_few = params.iter_time(&spec, &plan, 16, &few, &env);
        let t_many = params.iter_time(&spec, &plan, 16, &many, &env);
        assert!(t_many < t_few);
    }

    #[test]
    fn cross_node_dp_slower_than_single_node() {
        let (spec, params, env) = ctx();
        let single = Placement::single_node(8, 96, 1600.0);
        let spread = Placement::spread(8, 4, 96, 1600.0);
        let plan = ExecutionPlan::dp(8);
        let t_single = params.iter_time(&spec, &plan, 16, &single, &env);
        let t_spread = params.iter_time(&spec, &plan, 16, &spread, &env);
        assert!(t_spread > t_single);
    }

    #[test]
    fn best_plan_exists_for_gpt2_8gpu() {
        let (spec, params, env) = ctx();
        let model = ThroughputModel::new(spec, params, env, NodeShape::a800());
        let placement = Placement::single_node(8, 96, 1600.0);
        let (plan, tput) = model.best_plan(16, &placement).expect("feasible");
        assert!(tput > 0.0);
        assert_eq!(plan.gpus(), 8);
    }

    #[test]
    fn best_plan_none_for_30b_on_one_gpu() {
        let params = PerfParams::default();
        let model = ThroughputModel::new(
            ModelSpec::llama_30b(),
            params,
            ClusterEnv::a800(),
            NodeShape::a800(),
        );
        let placement = Placement::single_node(1, 12, 200.0);
        assert!(model.best_plan(64, &placement).is_none());
    }

    fn memo_model(spec: ModelSpec) -> ThroughputModel {
        ThroughputModel::new(
            spec,
            PerfParams::default(),
            ClusterEnv::a800(),
            NodeShape::a800(),
        )
    }

    fn bits(r: Option<(ExecutionPlan, f64)>) -> Option<(ExecutionPlan, u64)> {
        r.map(|(p, t)| (p, t.to_bits()))
    }

    #[test]
    fn memo_row_is_idempotent() {
        let model = memo_model(ModelSpec::gpt2_xl());
        let cache = PlanSetCache::new();
        let mut memo = BestPlanMemo::new();
        let row = memo.row(&model, 16);
        assert_eq!(memo.row(&model, 16), row);
        assert_eq!(memo.len(), 0, "resolving a row stores no entry");
        let placement = Placement::single_node(8, 96, 1600.0);
        memo.best_plan_at(row, &model, &cache, 16, &placement);
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.row(&model, 16), row);
        assert_eq!(memo.len(), 1);
        assert_ne!(memo.row(&model, 32), row, "another batch is another row");
    }

    #[test]
    fn memo_rows_survive_the_entry_cap() {
        let cache = PlanSetCache::new();
        let gpt = memo_model(ModelSpec::gpt2_xl());
        let llama = memo_model(ModelSpec::llama2_7b());
        let mut memo = BestPlanMemo::with_max_entries(3);
        let rows = [memo.row(&gpt, 16), memo.row(&llama, 16)];
        let models = [&gpt, &llama];
        let placements: Vec<Placement> = [1u32, 2, 4, 8]
            .iter()
            .map(|&g| Placement::single_node(g, 12 * g, 200.0 * g as f64))
            .collect();
        // Eight misses against a cap of three: the tables empty twice.
        for placement in &placements {
            for (&row, model) in rows.iter().zip(models) {
                let memoized = bits(memo.best_plan_at(row, model, &cache, 16, placement));
                let scanned = bits(model.best_plan_in(&cache, 16, placement));
                assert_eq!(memoized, scanned, "{} at {placement}", model.spec.name);
                assert!(memo.len() <= 3);
            }
        }
        assert_eq!(memo.row(&gpt, 16), rows[0], "the cap keeps the rows");
        assert_eq!(memo.row(&llama, 16), rows[1]);
        // A hit after the cap emptied the tables answers like the scan too.
        let last = placements.last().expect("placements");
        let hit = bits(memo.best_plan_at(rows[1], &llama, &cache, 16, last));
        assert_eq!(hit, bits(llama.best_plan_in(&cache, 16, last)));
    }

    #[test]
    fn merge_best_matches_one_strict_scan() {
        // A tie takes the lower index, from either side.
        assert_eq!(merge_best((3, 2.0), (1, 2.0)), (1, 2.0));
        assert_eq!(merge_best((1, 2.0), (3, 2.0)), (1, 2.0));
        // Otherwise the higher throughput wins, whatever its index.
        assert_eq!(merge_best((5, 3.0), (1, 2.0)), (5, 3.0));
        assert_eq!(merge_best((0, 1.0), (7, 4.0)), (7, 4.0));
        // One side empty: the other stands. Both empty: no plan.
        assert_eq!(merge_best(NO_BEST, (4, 1.0)), (4, 1.0));
        assert_eq!(merge_best((2, 1.0), NO_BEST), (2, 1.0));
        assert_eq!(merge_best(NO_BEST, NO_BEST).0, NO_PLAN);
        // Every split of every four-plan score vector over three values
        // (ties included) merges to what one scan over all plans returns.
        let scan = |scores: &[f64], keep: &dyn Fn(u32) -> bool| {
            let mut best = NO_BEST;
            for (i, &tput) in scores.iter().enumerate() {
                if keep(i as u32) {
                    keep_max(&mut best, i as u32, tput);
                }
            }
            best
        };
        let mut checked = 0;
        for code in 0..3u32.pow(4) {
            let scores: Vec<f64> = (0..4).map(|k| (code / 3u32.pow(k) % 3) as f64).collect();
            let whole = scan(&scores, &|_| true);
            for mask in 0..1u32 << 4 {
                let fixed = scan(&scores, &|i| mask & (1 << i) == 0);
                let offload = scan(&scores, &|i| mask & (1 << i) != 0);
                assert_eq!(
                    merge_best(fixed, offload),
                    whole,
                    "{scores:?}, mask {mask:04b}"
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 81 * 16);
    }

    #[test]
    fn memo_split_misses_score_only_offload_plans() {
        let cache = PlanSetCache::new();
        let mut model = memo_model(ModelSpec::gpt2_xl());
        // Weights under which offload wins some CPU counts and loses others.
        (model.params.k_opt, model.params.k_opt_off) = (0.5, 5.0);
        let mut memo = BestPlanMemo::new();
        let row = memo.row(&model, 16);
        let mut winners = [0; 2];
        for layout in [vec![8u32], vec![4, 4]] {
            let gpus: u32 = layout.iter().sum();
            for cpus in (1..=97).step_by(4) {
                let placement = Placement {
                    gpus_per_node: layout.clone(),
                    cpus,
                    host_mem_gb: model.shape.packed_host_mem_gb(gpus),
                };
                let memoized = bits(memo.best_plan_at(row, &model, &cache, 16, &placement));
                assert_eq!(memoized, bits(model.best_plan_in(&cache, 16, &placement)));
                let table = memo.rows[row.slot].tables[gpus as usize]
                    .as_ref()
                    .expect("table stored");
                assert!(!table.offload.is_empty(), "no offload plan in the set");
                let entry = *table.classes.last().expect("class stored");
                // The stored split matches a scan of the non-offload plans.
                let mut fixed = NO_BEST;
                let all = 0..table.plans.len() as u32;
                model.score_plans(&table.plans, all, 16, &placement, |i, plan, tput| {
                    if plan.memory != MemoryMode::ZeroOffload {
                        keep_max(&mut fixed, i, tput);
                    }
                });
                assert_eq!(entry.fixed.0, fixed.0);
                assert_eq!(entry.fixed.1.to_bits(), fixed.1.to_bits());
                // The split path, taken from the first CPU count's class,
                // answers like the scan.
                let class = table.class_of(&placement);
                let via_split = table
                    .split_miss(&model, class, 16, &placement)
                    .expect("a class of these GPUs is stored");
                assert_eq!(via_split.best.0, entry.best.0, "{placement}");
                assert_eq!(via_split.best.1.to_bits(), entry.best.1.to_bits());
                winners[usize::from(table.offload.contains(&entry.best.0))] += 1;
            }
        }
        assert!(winners[0] > 0 && winners[1] > 0, "winners {winners:?}");
    }

    #[test]
    fn memo_refit_resets_only_the_refitted_row() {
        let cache = PlanSetCache::new();
        let gpt = memo_model(ModelSpec::gpt2_xl());
        let llama = memo_model(ModelSpec::llama2_7b());
        let mut memo = BestPlanMemo::new();
        let (stale, kept) = (memo.row(&gpt, 16), memo.row(&llama, 16));
        let placements: Vec<Placement> = [1u32, 2, 4, 8]
            .iter()
            .map(|&g| Placement::single_node(g, 12 * g, 200.0 * g as f64))
            .chain([Placement::spread(16, 8, 192, 3200.0)])
            .collect();
        for placement in &placements {
            memo.best_plan_at(stale, &gpt, &cache, 16, placement);
            memo.best_plan_at(kept, &llama, &cache, 16, placement);
        }
        let gpt_entries = memo.rows[stale.slot].entries();
        assert_eq!(gpt_entries, placements.len());
        let before = memo.len();

        // The refit: the same spec with other fitted weights.
        let mut gpt2 = gpt.clone();
        gpt2.params.k_opt *= 1.5;
        gpt2.params.k_bwd *= 1.1;
        let fresh = memo.row(&gpt2, 16);
        assert_ne!(fresh, stale, "a refit moves the row's generation");
        assert_eq!(memo.len(), before - gpt_entries, "only gpt's entries go");
        assert_eq!(memo.row(&llama, 16), kept, "llama's row is untouched");
        assert_eq!(
            memo.row(&gpt2, 16),
            fresh,
            "the same fit again keeps the row"
        );

        let mut moved = 0;
        for placement in &placements {
            let answer = bits(memo.best_plan_at(fresh, &gpt2, &cache, 16, placement));
            let scanned = bits(gpt2.best_plan_in(&cache, 16, placement));
            assert_eq!(answer, scanned, "refitted row at {placement}");
            moved += usize::from(answer != bits(gpt.best_plan_in(&cache, 16, placement)));
            // A handle from before the refit resolves again and hits.
            let via_stale = bits(memo.best_plan_at(stale, &gpt2, &cache, 16, placement));
            assert_eq!(via_stale, scanned, "stale handle at {placement}");
        }
        assert!(moved > 0, "the refit changes no answer");
        let after = memo.len();
        for placement in &placements {
            let answer = bits(memo.best_plan_at(kept, &llama, &cache, 16, placement));
            assert_eq!(answer, bits(llama.best_plan_in(&cache, 16, placement)));
        }
        assert_eq!(memo.len(), after, "llama's kept entries still hit");
        assert_eq!(after, before, "the refitted row refilled once");
    }

    #[test]
    fn params_vec_roundtrip() {
        let p = PerfParams::default();
        let v = p.to_vec();
        let q = PerfParams::from_vec(&v, p.gpu_flops);
        assert_eq!(p, q);
    }

    #[test]
    fn throughput_is_batch_over_iter_time() {
        let (spec, params, env) = ctx();
        let p = Placement::single_node(4, 48, 800.0);
        let plan = ExecutionPlan::dp(4);
        let t = params.iter_time(&spec, &plan, 16, &p, &env);
        let tput = params.throughput(&spec, &plan, 16, &p, &env);
        assert!((tput - 16.0 / t).abs() < 1e-9);
    }
}
