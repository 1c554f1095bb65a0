//! Multi-resource vectors and node shapes.
//!
//! Rubick schedules three first-class resource types per job — GPUs, CPUs
//! and host memory — while bandwidth is an environment property (see
//! [`crate::env::ClusterEnv`]). [`Resources`] is the small arithmetic vector
//! used everywhere: job requests, node free capacity, allocations, and the
//! `minRes` SLA demand of Algorithm 1.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A multi-resource amount: GPUs, CPUs and host memory.
///
/// Comparison helpers are componentwise: [`Resources::dominates`] answers
/// "is every dimension at least as large", which is the partial order the
/// scheduler uses for admission (`j.res >= j.minRes` in Algorithm 1).
///
/// ```
/// use rubick_model::Resources;
/// let req = Resources::new(8, 16, 100.0);
/// let have = Resources::new(8, 32, 200.0);
/// assert!(have.dominates(&req));
/// assert!(!req.dominates(&have));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Resources {
    /// Number of GPUs.
    pub gpus: u32,
    /// Number of (v)CPU cores.
    pub cpus: u32,
    /// Host memory in GiB.
    pub mem_gb: f64,
}

impl Resources {
    /// Creates a new resource vector.
    ///
    /// ```
    /// use rubick_model::Resources;
    /// let r = Resources::new(4, 8, 64.0);
    /// assert_eq!(r.gpus, 4);
    /// ```
    pub fn new(gpus: u32, cpus: u32, mem_gb: f64) -> Self {
        Resources { gpus, cpus, mem_gb }
    }

    /// The all-zero vector (the minimum demand of a best-effort job).
    pub fn zero() -> Self {
        Resources::default()
    }

    /// Returns `true` if every dimension is zero.
    pub fn is_zero(&self) -> bool {
        self.gpus == 0 && self.cpus == 0 && self.mem_gb <= f64::EPSILON
    }

    /// Returns `true` if every dimension of `self` is `>=` that of `other`.
    pub fn dominates(&self, other: &Resources) -> bool {
        self.gpus >= other.gpus && self.cpus >= other.cpus && self.mem_gb >= other.mem_gb - 1e-9
    }

    /// Returns `true` if any dimension is strictly positive.
    pub fn any_positive(&self) -> bool {
        !self.is_zero()
    }

    /// Componentwise saturating subtraction.
    ///
    /// ```
    /// use rubick_model::Resources;
    /// let a = Resources::new(2, 4, 10.0);
    /// let b = Resources::new(4, 1, 20.0);
    /// let d = a.saturating_sub(&b);
    /// assert_eq!(d, Resources::new(0, 3, 0.0));
    /// ```
    pub fn saturating_sub(&self, other: &Resources) -> Resources {
        Resources {
            gpus: self.gpus.saturating_sub(other.gpus),
            cpus: self.cpus.saturating_sub(other.cpus),
            mem_gb: (self.mem_gb - other.mem_gb).max(0.0),
        }
    }

    /// Componentwise minimum.
    pub fn min(&self, other: &Resources) -> Resources {
        Resources {
            gpus: self.gpus.min(other.gpus),
            cpus: self.cpus.min(other.cpus),
            mem_gb: self.mem_gb.min(other.mem_gb),
        }
    }

    /// Componentwise maximum.
    pub fn max(&self, other: &Resources) -> Resources {
        Resources {
            gpus: self.gpus.max(other.gpus),
            cpus: self.cpus.max(other.cpus),
            mem_gb: self.mem_gb.max(other.mem_gb),
        }
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, rhs: Resources) -> Resources {
        Resources {
            gpus: self.gpus + rhs.gpus,
            cpus: self.cpus + rhs.cpus,
            mem_gb: self.mem_gb + rhs.mem_gb,
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        *self = *self + rhs;
    }
}

impl Sub for Resources {
    type Output = Resources;
    /// Componentwise saturating subtraction (never goes negative).
    fn sub(self, rhs: Resources) -> Resources {
        self.saturating_sub(&rhs)
    }
}

impl SubAssign for Resources {
    fn sub_assign(&mut self, rhs: Resources) {
        *self = *self - rhs;
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}g/{}c/{:.0}GiB", self.gpus, self.cpus, self.mem_gb)
    }
}

/// The hardware shape of a single server in the cluster.
///
/// The paper's testbed nodes are 8× A800-80GB with 96 vCPUs and 1600 GiB of
/// host memory ([`NodeShape::a800`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeShape {
    /// GPUs per node.
    pub gpus: u32,
    /// vCPU cores per node.
    pub cpus: u32,
    /// Host memory per node, GiB.
    pub mem_gb: f64,
    /// GPU device memory, GiB per GPU.
    pub gpu_mem_gb: f64,
}

impl NodeShape {
    /// The paper's A800 server shape: 8 GPUs × 80 GiB, 96 vCPUs, 1600 GiB.
    pub fn a800() -> Self {
        NodeShape {
            gpus: 8,
            cpus: 96,
            mem_gb: 1600.0,
            gpu_mem_gb: 80.0,
        }
    }

    /// A small 4-GPU development node, useful in tests.
    pub fn small() -> Self {
        NodeShape {
            gpus: 4,
            cpus: 32,
            mem_gb: 256.0,
            gpu_mem_gb: 40.0,
        }
    }

    /// The total schedulable resources of one node.
    pub fn capacity(&self) -> Resources {
        Resources::new(self.gpus, self.cpus, self.mem_gb)
    }

    /// Host memory (GiB) of the node-proportional share a packed placement
    /// of `gpus` GPUs receives.
    ///
    /// This is the exact expression `Placement::packed` evaluates, so
    /// feasibility decisions made against the packed placement can be
    /// reproduced bit-for-bit without rebuilding it (see
    /// `ThroughputModel::best_plan`).
    pub fn packed_host_mem_gb(&self, gpus: u32) -> f64 {
        self.mem_gb * gpus as f64 / self.gpus as f64
    }
}

impl Default for NodeShape {
    fn default() -> Self {
        NodeShape::a800()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = Resources::new(4, 8, 100.0);
        let b = Resources::new(2, 4, 50.0);
        assert_eq!(a + b - b, a);
    }

    #[test]
    fn dominates_is_reflexive_and_antisymmetric_on_distinct() {
        let a = Resources::new(4, 8, 100.0);
        let b = Resources::new(4, 9, 100.0);
        assert!(a.dominates(&a));
        assert!(b.dominates(&a));
        assert!(!a.dominates(&b));
    }

    #[test]
    fn saturating_sub_never_negative() {
        let a = Resources::new(1, 1, 1.0);
        let b = Resources::new(5, 5, 5.0);
        let d = a.saturating_sub(&b);
        assert!(d.is_zero());
    }

    #[test]
    fn zero_is_zero() {
        assert!(Resources::zero().is_zero());
        assert!(!Resources::new(0, 0, 0.5).is_zero());
    }

    #[test]
    fn node_capacity_matches_fields() {
        let n = NodeShape::a800();
        let c = n.capacity();
        assert_eq!(c.gpus, 8);
        assert_eq!(c.cpus, 96);
        assert!((c.mem_gb - 1600.0).abs() < 1e-9);
    }

    #[test]
    fn min_max_are_componentwise() {
        let a = Resources::new(1, 10, 5.0);
        let b = Resources::new(2, 3, 7.0);
        assert_eq!(a.min(&b), Resources::new(1, 3, 5.0));
        assert_eq!(a.max(&b), Resources::new(2, 10, 7.0));
    }

    #[test]
    fn display_compact() {
        let s = Resources::new(8, 16, 100.0).to_string();
        assert_eq!(s, "8g/16c/100GiB");
    }
}
