//! GPU/host memory, CPU and bandwidth demand estimation.
//!
//! Stands in for the memory estimators of DeepSpeed/Megatron that the real
//! Rubick implementation calls (paper §6: "Rubick relies on the inherent
//! capability of DeepSpeed and Megatron to estimate the memory
//! consumption"). Two jobs here:
//!
//! 1. **Feasibility** — can this plan run on this placement without GPU or
//!    host OOM? Drives plan enumeration, `minRes` search and `AllocMem`.
//! 2. **Demand accounting** — the per-plan multi-resource footprint of
//!    Fig. 2 (GPU, CPU, memory, bandwidth).
//!
//! The arithmetic follows the standard mixed-precision Adam accounting of
//! the ZeRO paper: 2 bytes fp16 weights + 2 bytes fp16 gradients + 12 bytes
//! fp32 optimizer states per parameter.

use crate::error::ModelError;
use crate::perf::volumes;
use crate::placement::Placement;
use crate::plan::{ExecutionPlan, MemoryMode};
use crate::resources::Resources;
use crate::spec::ModelSpec;

/// fp16 weight bytes per parameter.
const W16: f64 = 2.0;
/// fp16 gradient bytes per parameter.
const G16: f64 = 2.0;
/// fp32 optimizer-state bytes per parameter (master weights + Adam moments).
const OPT32: f64 = 12.0;
/// Activation bytes per (token × hidden) without checkpointing
/// (the classic ≈34·s·b·h transformer estimate, fp16).
const ACT_FULL: f64 = 34.0;
/// Activation bytes per (token × hidden) with gradient checkpointing: only
/// layer-boundary tensors are retained.
const ACT_CKPT: f64 = 2.0;
/// Fixed CUDA context / workspace overhead per GPU, GiB.
const FIXED_OVERHEAD_GB: f64 = 1.5;
/// Fragmentation / allocator slack multiplier.
const SLACK: f64 = 1.08;
/// Host-side data-loading buffer per GPU, GiB.
const HOST_PER_GPU_GB: f64 = 2.0;
/// Host-side base footprint per job, GiB.
const HOST_BASE_GB: f64 = 4.0;
/// Data-loading CPU cores per GPU.
const CPUS_PER_GPU: u32 = 2;
/// Fraction of model states that 3D parallelism cannot partition
/// (embeddings, layer norms, the final LM head replicated across stages).
const NONPARTITIONABLE: f64 = 0.05;
/// Extra CPU cores per GPU demanded by ZeRO-Offload parameter updates.
const OFFLOAD_CPUS_PER_GPU: u32 = 8;

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// The full multi-resource footprint of one (model, plan, batch)
/// combination — what Fig. 2 plots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceDemand {
    /// GPUs the plan runs on.
    pub gpus: u32,
    /// CPU cores the plan wants for full speed.
    pub cpus: u32,
    /// Device memory per GPU, GiB.
    pub gpu_mem_gb: f64,
    /// Host memory for the whole job, GiB.
    pub host_mem_gb: f64,
    /// Network traffic per iteration, bytes (DP + TP + PP).
    pub net_bytes_per_iter: f64,
    /// PCIe traffic per iteration, bytes (ZeRO-Offload).
    pub pcie_bytes_per_iter: f64,
}

impl ResourceDemand {
    /// The schedulable `(gpus, cpus, mem)` part of the demand.
    pub fn resources(&self) -> Resources {
        Resources::new(self.gpus, self.cpus, self.host_mem_gb)
    }
}

/// Estimates memory/CPU demands and checks plan feasibility.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryEstimator {
    /// Device memory capacity per GPU, GiB (80 for A800).
    pub gpu_mem_cap_gb: f64,
}

impl MemoryEstimator {
    /// Creates an estimator for GPUs with the given device memory.
    pub fn new(gpu_mem_cap_gb: f64) -> Self {
        MemoryEstimator { gpu_mem_cap_gb }
    }

    /// Per-GPU device memory demand in GiB.
    ///
    /// Model states:
    /// * plain 3D: `16·P/(t·p)` (DP replicates);
    /// * ZeRO-2: `2·P` fp16 weights replicated + `14·P/d` partitioned
    ///   gradients/optimizer states;
    /// * ZeRO-Offload: `2·P` fp16 weights + a small transfer buffer —
    ///   gradients and optimizer states live in host memory.
    ///
    /// Activations: `≈34·s·b_dev·h/t` bytes per resident layer (fp16), where
    /// `b_dev` is the micro-batch a device processes at once; GC shrinks the
    /// per-layer factor to the layer-boundary tensors plus one full layer of
    /// recomputation workspace. Under PP/1F1B the first stage keeps
    /// `min(m, p)` micro-batches in flight.
    pub fn gpu_mem_gb(&self, spec: &ModelSpec, plan: &ExecutionPlan, global_batch: u32) -> f64 {
        let d = plan.parallel.dp as f64;
        let t = plan.parallel.tp as f64;
        let p = plan.parallel.pp as f64;
        let b = global_batch as f64;
        let s = spec.seq_len as f64;
        let h = spec.hidden as f64;
        let l = spec.layers as f64;
        let pcount = spec.params;

        let states = match plan.memory {
            // TP/PP cannot partition everything: embeddings and norms are
            // replicated, which is what pushes e.g. LLaMA-30B's minimum GPU
            // count to ~12 (Table 2 predicts it on [12-64] GPUs).
            MemoryMode::Plain => {
                (W16 + G16 + OPT32)
                    * pcount
                    * (NONPARTITIONABLE + (1.0 - NONPARTITIONABLE) / (t * p))
            }
            MemoryMode::Zero2 => W16 * pcount + (G16 + OPT32) * pcount / d,
            // ZeRO-3 partitions everything, keeping only a working buffer
            // of gathered parameters resident per layer group.
            MemoryMode::Zero3 => {
                (W16 + G16 + OPT32) * pcount / d + 2.0 * W16 * pcount / (spec.layers as f64)
            }
            // Peak device memory under ZeRO-Offload: fp16 weights plus the
            // full fp16 gradient buffer produced by the backward pass before
            // it is offloaded. This reproduces Table 2's feasibility
            // pattern: offload works for 7B on a single 80 GiB GPU but is
            // "/" (OOM) for LLaMA-30B at any GPU count.
            MemoryMode::ZeroOffload => (W16 + G16) * pcount,
        };

        let (b_dev, in_flight) = if plan.parallel.pp > 1 {
            let m = plan.micro_batches as f64;
            (b / (d * m), m.min(p))
        } else {
            (b / (d * plan.ga_steps as f64), 1.0)
        };
        let layers_on_gpu = (l / p).ceil();
        let act_per_layer = s * b_dev * h / t;
        let activations = if plan.gc {
            ACT_CKPT * act_per_layer * layers_on_gpu * in_flight + ACT_FULL * act_per_layer
        } else {
            ACT_FULL * act_per_layer * layers_on_gpu * in_flight
        };

        ((states + activations) * SLACK) / GIB + FIXED_OVERHEAD_GB
    }

    /// Total host-memory demand of the job in GiB.
    ///
    /// ZeRO-Offload moves fp16 gradients and fp32 optimizer states to the
    /// host: `14·P` bytes in total across all ranks.
    pub fn host_mem_gb(&self, spec: &ModelSpec, plan: &ExecutionPlan) -> f64 {
        let gpus = plan.gpus() as f64;
        let base = HOST_BASE_GB + HOST_PER_GPU_GB * gpus;
        match plan.memory {
            MemoryMode::ZeroOffload => base + (G16 + OPT32) * spec.params * SLACK / GIB,
            _ => base,
        }
    }

    /// CPU cores the plan wants for full speed: data loading plus, under
    /// ZeRO-Offload, CPU parameter-update workers.
    pub fn cpu_demand(&self, plan: &ExecutionPlan) -> u32 {
        let gpus = plan.gpus();
        let base = CPUS_PER_GPU * gpus + 1;
        match plan.memory {
            MemoryMode::ZeroOffload => base + OFFLOAD_CPUS_PER_GPU * gpus,
            _ => base,
        }
    }

    /// The full multi-resource footprint (Fig. 2).
    pub fn demand(
        &self,
        spec: &ModelSpec,
        plan: &ExecutionPlan,
        global_batch: u32,
    ) -> ResourceDemand {
        let vol = volumes(spec, plan, global_batch);
        ResourceDemand {
            gpus: plan.gpus(),
            cpus: self.cpu_demand(plan),
            gpu_mem_gb: self.gpu_mem_gb(spec, plan, global_batch),
            host_mem_gb: self.host_mem_gb(spec, plan),
            net_bytes_per_iter: vol.network_bytes(),
            pcie_bytes_per_iter: vol.pcie_bytes,
        }
    }

    /// Checks that the plan fits in device and host memory on `placement`.
    ///
    /// CPU shortage is *not* a failure — it degrades performance (captured
    /// by the model's `T_opt` term) rather than crashing the job.
    ///
    /// # Errors
    ///
    /// [`ModelError::OutOfMemory`] when the per-GPU estimate exceeds the
    /// device capacity or the host demand exceeds the placement's host
    /// memory.
    pub fn check_feasible(
        &self,
        spec: &ModelSpec,
        plan: &ExecutionPlan,
        placement: &Placement,
        global_batch: u32,
        _env: &crate::env::ClusterEnv,
    ) -> Result<(), ModelError> {
        let need_gpu = self.gpu_mem_gb(spec, plan, global_batch);
        if need_gpu > self.gpu_mem_cap_gb {
            return Err(ModelError::OutOfMemory {
                needed_gb: need_gpu,
                available_gb: self.gpu_mem_cap_gb,
            });
        }
        let need_host = self.host_mem_gb(spec, plan);
        if need_host > placement.host_mem_gb {
            return Err(ModelError::OutOfMemory {
                needed_gb: need_host,
                available_gb: placement.host_mem_gb,
            });
        }
        Ok(())
    }
}

impl Default for MemoryEstimator {
    /// A800: 80 GiB per GPU.
    fn default() -> Self {
        MemoryEstimator::new(80.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ClusterEnv;

    fn est() -> MemoryEstimator {
        MemoryEstimator::default()
    }

    #[test]
    fn plain_dp_replicates_states() {
        let spec = ModelSpec::gpt2_xl();
        let m1 = est().gpu_mem_gb(&spec, &ExecutionPlan::dp(1), 16);
        let m8 = est().gpu_mem_gb(&spec, &ExecutionPlan::dp(8), 16);
        // States identical; activations shrink with d, so m8 < m1 but by
        // less than the full state size.
        assert!(m8 < m1);
        let states_gb = 16.0 * spec.params / GIB;
        assert!(m8 > states_gb, "replicated states dominate");
    }

    #[test]
    fn zero2_partitions_optimizer_states() {
        let spec = ModelSpec::gpt2_xl();
        let plain = est().gpu_mem_gb(&spec, &ExecutionPlan::dp(8), 16);
        let zero = est().gpu_mem_gb(&spec, &ExecutionPlan::zero_dp(8), 16);
        assert!(zero < plain);
    }

    #[test]
    fn offload_uses_least_gpu_most_host() {
        let spec = ModelSpec::gpt2_xl();
        let zero2 = est().gpu_mem_gb(&spec, &ExecutionPlan::zero_dp(1), 16);
        let off = est().gpu_mem_gb(&spec, &ExecutionPlan::zero_offload(1), 16);
        assert!(off < zero2);
        let host_plain = est().host_mem_gb(&spec, &ExecutionPlan::dp(1));
        let host_off = est().host_mem_gb(&spec, &ExecutionPlan::zero_offload(1));
        assert!(host_off > host_plain + 10.0);
    }

    #[test]
    fn gc_reduces_activation_memory() {
        let spec = ModelSpec::llama2_7b();
        let plain = est().gpu_mem_gb(&spec, &ExecutionPlan::three_d(1, 8, 1, 1), 32);
        let gc = est().gpu_mem_gb(&spec, &ExecutionPlan::three_d(1, 8, 1, 1).with_gc(), 32);
        assert!(gc < plain);
    }

    #[test]
    fn tp_partitions_both_states_and_activations() {
        let spec = ModelSpec::llama2_7b();
        let t1 = est().gpu_mem_gb(&spec, &ExecutionPlan::three_d(1, 1, 1, 1), 32);
        let t8 = est().gpu_mem_gb(&spec, &ExecutionPlan::three_d(1, 8, 1, 1), 32);
        assert!(
            t8 < t1 / 4.0,
            "TP8 should cut memory by roughly 8x: {t1} -> {t8}"
        );
    }

    #[test]
    fn ga_reduces_activation_memory() {
        let spec = ModelSpec::roberta_large();
        let a1 = est().gpu_mem_gb(&spec, &ExecutionPlan::dp(1), 64);
        let a8 = est().gpu_mem_gb(&spec, &ExecutionPlan::dp(1).with_ga(8), 64);
        assert!(a8 < a1);
    }

    #[test]
    fn offload_demands_more_cpus() {
        let e = est();
        assert!(
            e.cpu_demand(&ExecutionPlan::zero_offload(1)) > e.cpu_demand(&ExecutionPlan::dp(1))
        );
    }

    #[test]
    fn infeasible_when_host_memory_limited() {
        // Fig. 3b's final stage: 10 GiB host memory kills ZeRO-Offload.
        let spec = ModelSpec::t5_1b();
        let plan = ExecutionPlan::zero_offload(1);
        let tight = Placement::single_node(1, 12, 10.0);
        let roomy = Placement::single_node(1, 12, 200.0);
        let env = ClusterEnv::a800();
        assert!(est()
            .check_feasible(&spec, &plan, &tight, 32, &env)
            .is_err());
        assert!(est().check_feasible(&spec, &plan, &roomy, 32, &env).is_ok());
    }

    #[test]
    fn demand_reports_network_volume() {
        let spec = ModelSpec::gpt2_xl();
        let d = est().demand(&spec, &ExecutionPlan::zero_dp(8), 16);
        assert!(d.net_bytes_per_iter > 0.0);
        assert_eq!(d.pcie_bytes_per_iter, 0.0);
        let d = est().demand(&spec, &ExecutionPlan::zero_offload(2), 16);
        assert!(d.pcie_bytes_per_iter > 0.0);
    }
}
