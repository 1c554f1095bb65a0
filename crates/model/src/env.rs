//! Cluster environment constants.
//!
//! The performance model needs three bandwidths (Table 1, "Environment"):
//! `B_intra` (NVLink within a node), `B_inter` (RDMA between nodes) and
//! `B_pcie` (GPU↔host). They are measured offline on the real cluster; here
//! they default to the paper's testbed values.

/// Environment constants measured once per cluster (paper §4.1, Table 1).
///
/// All bandwidths are in GB/s (10⁹ bytes per second).
///
/// ```
/// use rubick_model::ClusterEnv;
/// let env = ClusterEnv::a800();
/// assert!(env.b_intra > env.b_inter);
/// assert!(env.b_inter > env.b_pcie);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterEnv {
    /// Intra-node (NVLink) bandwidth, GB/s.
    pub b_intra: f64,
    /// Inter-node (RDMA) bandwidth, GB/s.
    pub b_inter: f64,
    /// GPU ↔ host (PCIe) bandwidth, GB/s, used by ZeRO-Offload.
    pub b_pcie: f64,
}

impl ClusterEnv {
    /// The paper's testbed: 400 GB/s NVLink, 100 GB/s RDMA, ~20 GB/s PCIe.
    pub fn a800() -> Self {
        ClusterEnv {
            b_intra: 400.0,
            b_inter: 100.0,
            b_pcie: 20.0,
        }
    }

    /// A commodity cloud environment: PCIe-attached GPUs, 25 Gb/s Ethernet.
    ///
    /// Useful for exploring how Rubick's decisions change when inter-node
    /// bandwidth is scarce (plans shift away from DP/PP across nodes).
    pub fn commodity() -> Self {
        ClusterEnv {
            b_intra: 64.0,
            b_inter: 3.0,
            b_pcie: 12.0,
        }
    }
}

impl Default for ClusterEnv {
    fn default() -> Self {
        ClusterEnv::a800()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a800_ordering() {
        let e = ClusterEnv::a800();
        assert!(e.b_intra > e.b_inter && e.b_inter > e.b_pcie);
    }

    #[test]
    fn default_is_a800() {
        assert_eq!(ClusterEnv::default(), ClusterEnv::a800());
    }
}
