//! Job placements and communication topology.
//!
//! The performance model needs to know which bandwidth each class of
//! communication sees (paper §4.1: "we basically use the bottleneck
//! bandwidth of the GPUs involved"): TP traffic usually stays inside a node
//! (NVLink, `B_intra`) while DP/PP traffic crosses nodes (`B_inter`) as soon
//! as the job is distributed. [`Placement`] records where a job's GPUs sit
//! plus its CPU/host-memory allocation; [`CommTopology`] derives the three
//! effective bandwidths.

use crate::env::ClusterEnv;
use crate::plan::Parallelism;
use crate::resources::{NodeShape, Resources};
use std::fmt;

/// Where a job's resources live.
///
/// Only GPU *counts per node* matter for performance (which node is
/// irrelevant); CPUs and host memory are tracked as job-level totals because
/// they only affect the optimizer/offload terms.
///
/// ```
/// use rubick_model::Placement;
/// let p = Placement::spread(16, 8, 32, 400.0);
/// assert_eq!(p.gpus_per_node, vec![8, 8]);
/// assert!(p.spans_nodes());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// GPUs used on each involved node (all entries positive).
    pub gpus_per_node: Vec<u32>,
    /// Total CPU cores allocated to the job.
    pub cpus: u32,
    /// Total host memory allocated to the job, GiB.
    pub host_mem_gb: f64,
}

impl Placement {
    /// All GPUs on one node.
    pub fn single_node(gpus: u32, cpus: u32, host_mem_gb: f64) -> Self {
        Placement {
            gpus_per_node: if gpus > 0 { vec![gpus] } else { vec![] },
            cpus,
            host_mem_gb,
        }
    }

    /// `gpus` GPUs spread over nodes of `per_node` GPUs each (last node may
    /// hold fewer).
    pub fn spread(gpus: u32, per_node: u32, cpus: u32, host_mem_gb: f64) -> Self {
        assert!(per_node > 0, "per_node must be positive");
        let mut v = Vec::new();
        let mut left = gpus;
        while left > 0 {
            let take = left.min(per_node);
            v.push(take);
            left -= take;
        }
        Placement {
            gpus_per_node: v,
            cpus,
            host_mem_gb,
        }
    }

    /// Packs `gpus` GPUs onto as few nodes of the given shape as possible and
    /// allocates a node-proportional share of CPUs and host memory.
    ///
    /// This is the "default placement" plan enumeration assumes before the
    /// scheduler has chosen real nodes.
    pub fn packed(gpus: u32, shape: &NodeShape) -> Self {
        let mut placement = Placement::single_node(0, 0, 0.0);
        placement.set_packed(gpus, shape);
        placement
    }

    /// Overwrites this placement with [`Placement::packed`]`(gpus, shape)`,
    /// reusing the per-node buffer, so a curve build that walks every GPU
    /// amount allocates it once instead of once per amount.
    pub fn set_packed(&mut self, gpus: u32, shape: &NodeShape) {
        assert!(shape.gpus > 0, "a node shape needs GPUs");
        let (full, rest) = (gpus / shape.gpus, gpus % shape.gpus);
        self.gpus_per_node.clear();
        self.gpus_per_node
            .extend(std::iter::repeat_n(shape.gpus, full as usize));
        if rest > 0 {
            self.gpus_per_node.push(rest);
        }
        self.cpus = (shape.cpus as f64 * gpus as f64 / shape.gpus as f64).round() as u32;
        // Must stay bit-identical to `NodeShape::packed_host_mem_gb`,
        // which replays this share for the unchecked best-plan path.
        self.host_mem_gb = shape.packed_host_mem_gb(gpus);
    }

    /// Total GPUs across all nodes.
    pub fn total_gpus(&self) -> u32 {
        self.gpus_per_node.iter().sum()
    }

    /// Whether the job occupies more than one node.
    pub fn spans_nodes(&self) -> bool {
        self.gpus_per_node.len() > 1
    }

    /// The smallest per-node GPU count among used nodes (0 if unplaced).
    pub fn min_gpus_on_node(&self) -> u32 {
        self.gpus_per_node.iter().copied().min().unwrap_or(0)
    }

    /// The job-level resource totals of this placement.
    pub fn resources(&self) -> Resources {
        Resources::new(self.total_gpus(), self.cpus, self.host_mem_gb)
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nodes: Vec<String> = self.gpus_per_node.iter().map(|g| g.to_string()).collect();
        write!(
            f,
            "[{}]g/{}c/{:.0}GiB",
            nodes.join("+"),
            self.cpus,
            self.host_mem_gb
        )
    }
}

/// The effective bandwidth seen by each communication class of a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommTopology {
    /// Bandwidth for DP gradient synchronization, GB/s.
    pub b_dp: f64,
    /// Bandwidth for TP activations, GB/s.
    pub b_tp: f64,
    /// Bandwidth for PP stage transfers, GB/s.
    pub b_pp: f64,
}

impl CommTopology {
    /// Derives the bottleneck bandwidths for a plan on a placement.
    ///
    /// Rules (paper §4.1):
    /// * single-node jobs use `B_intra` for everything;
    /// * TP is placed within nodes whenever `t` fits on the smallest used
    ///   node, so it keeps `B_intra`; otherwise it degrades to `B_inter`;
    /// * DP and PP cross nodes as soon as the job spans nodes.
    ///
    /// Of the placement this reads only `spans_nodes()` and, when it
    /// spans, whether `t ≤ min_gpus_on_node().max(1)` — never which
    /// nodes, the other per-node counts, nor the smallest node's count
    /// beyond that comparison. The best-plan memo
    /// ([`BestPlanMemo`](crate::perf::BestPlanMemo)) relies on this: it
    /// keys a spanning placement by how many of its plan set's TP degrees
    /// fit on the smallest node.
    pub fn derive(parallel: &Parallelism, placement: &Placement, env: &ClusterEnv) -> Self {
        if !placement.spans_nodes() {
            return CommTopology {
                b_dp: env.b_intra,
                b_tp: env.b_intra,
                b_pp: env.b_intra,
            };
        }
        let tp_fits_in_node = parallel.tp <= placement.min_gpus_on_node().max(1);
        CommTopology {
            b_dp: env.b_inter,
            b_tp: if tp_fits_in_node {
                env.b_intra
            } else {
                env.b_inter
            },
            b_pp: env.b_inter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_fills_nodes() {
        let p = Placement::spread(10, 8, 16, 100.0);
        assert_eq!(p.gpus_per_node, vec![8, 2]);
        assert_eq!(p.total_gpus(), 10);
    }

    #[test]
    fn packed_allocates_proportionally() {
        let shape = NodeShape::a800();
        let p = Placement::packed(4, &shape);
        assert_eq!(p.gpus_per_node, vec![4]);
        assert_eq!(p.cpus, 48); // half a 96-CPU node
        assert!((p.host_mem_gb - 800.0).abs() < 1e-9);
    }

    #[test]
    fn set_packed_matches_packed_on_a_reused_buffer() {
        let odd = NodeShape {
            gpus: 6,
            cpus: 70,
            mem_gb: 1000.0,
            gpu_mem_gb: 40.0,
        };
        for shape in [NodeShape::a800(), odd] {
            let amounts: Vec<u32> = (0..=4 * shape.gpus).collect();
            // Up, then down, so every amount is also written over a larger
            // placement's buffer.
            let mut buf = Placement::packed(4 * shape.gpus, &shape);
            for &g in amounts.iter().chain(amounts.iter().rev()) {
                buf.set_packed(g, &shape);
                let fresh = Placement::packed(g, &shape);
                assert_eq!(buf, fresh, "{g} GPUs on {shape:?}");
                assert_eq!(buf.host_mem_gb.to_bits(), fresh.host_mem_gb.to_bits());
                // The node layout `spread` builds, with the proportional
                // CPU and host-memory share.
                let cpus = (shape.cpus as f64 * g as f64 / shape.gpus as f64).round() as u32;
                let spread = Placement::spread(g, shape.gpus, cpus, shape.packed_host_mem_gb(g));
                assert_eq!(buf, spread, "{g} GPUs on {shape:?}");
            }
        }
    }

    #[test]
    fn single_node_topology_all_intra() {
        let env = ClusterEnv::a800();
        let par = Parallelism::new(2, 2, 1);
        let pl = Placement::single_node(4, 16, 100.0);
        let topo = CommTopology::derive(&par, &pl, &env);
        assert_eq!(topo.b_dp, env.b_intra);
        assert_eq!(topo.b_tp, env.b_intra);
        assert_eq!(topo.b_pp, env.b_intra);
    }

    #[test]
    fn multi_node_tp_stays_intra_if_it_fits() {
        let env = ClusterEnv::a800();
        let par = Parallelism::new(2, 4, 2);
        let pl = Placement::spread(16, 8, 32, 200.0);
        let topo = CommTopology::derive(&par, &pl, &env);
        assert_eq!(topo.b_tp, env.b_intra);
        assert_eq!(topo.b_dp, env.b_inter);
        assert_eq!(topo.b_pp, env.b_inter);
    }

    #[test]
    fn multi_node_tp_degrades_when_wider_than_node() {
        let env = ClusterEnv::a800();
        let par = Parallelism::new(1, 16, 1);
        let pl = Placement::spread(16, 8, 32, 200.0);
        let topo = CommTopology::derive(&par, &pl, &env);
        assert_eq!(topo.b_tp, env.b_inter);
    }

    #[test]
    fn zero_gpus_single_node_is_empty() {
        let p = Placement::single_node(0, 0, 0.0);
        assert_eq!(p.total_gpus(), 0);
        assert!(!p.spans_nodes());
        assert_eq!(p.min_gpus_on_node(), 0);
    }
}
