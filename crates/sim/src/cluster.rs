//! Cluster topology and multi-resource accounting.
//!
//! A [`Cluster`] is a set of homogeneous [`Node`]s (the paper's testbed: 8
//! servers × 8 A800). Jobs hold [`Allocation`]s — per-node resource grants —
//! which convert to the [`Placement`] the performance model consumes.

use rubick_model::{NodeShape, Placement, Resources};
use std::fmt;

/// One server in the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Node index within the cluster.
    pub id: usize,
    /// Hardware shape (identical across the cluster).
    pub shape: NodeShape,
    /// Currently unallocated resources.
    pub free: Resources,
    /// Whether the node is healthy. Failed nodes (fault injection) keep
    /// their accounting but accept no allocations and contribute nothing
    /// to schedulable capacity.
    pub up: bool,
}

impl Node {
    /// A fresh, fully free node.
    pub fn new(id: usize, shape: NodeShape) -> Self {
        Node {
            id,
            shape,
            free: shape.capacity(),
            up: true,
        }
    }

    /// Resources currently in use on this node.
    pub fn used(&self) -> Resources {
        self.shape.capacity().saturating_sub(&self.free)
    }

    /// Hardware capacity a scheduler may plan with: the full shape when
    /// the node is up, nothing while it is down.
    pub fn schedulable_capacity(&self) -> Resources {
        if self.up {
            self.shape.capacity()
        } else {
            Resources::zero()
        }
    }
}

/// A per-node resource grant held by one job.
///
/// The node set and per-node amounts determine both placement quality
/// (single-node vs. distributed) and the bandwidths the job's communication
/// sees.
#[derive(Debug, PartialEq, Default)]
pub struct Allocation {
    /// `(node id, resources granted on that node)`, node ids unique.
    pub per_node: Vec<(usize, Resources)>,
}

impl Clone for Allocation {
    fn clone(&self) -> Self {
        Allocation {
            per_node: self.per_node.clone(),
        }
    }

    /// Copies `source` into this allocation's buffer, so refilling a kept
    /// allocation does not allocate once its buffer is large enough.
    fn clone_from(&mut self, source: &Self) {
        self.per_node.clone_from(&source.per_node);
    }
}

impl Allocation {
    /// An empty allocation (a queued job).
    pub fn empty() -> Self {
        Allocation::default()
    }

    /// Creates an allocation on a single node.
    pub fn on_node(node: usize, res: Resources) -> Self {
        Allocation {
            per_node: vec![(node, res)],
        }
    }

    /// Whether the allocation grants nothing.
    pub fn is_empty(&self) -> bool {
        self.per_node.iter().all(|(_, r)| r.is_zero())
    }

    /// Job-level resource totals.
    pub fn total(&self) -> Resources {
        self.per_node
            .iter()
            .fold(Resources::zero(), |acc, (_, r)| acc + *r)
    }

    /// Total GPUs granted.
    pub fn gpus(&self) -> u32 {
        self.total().gpus
    }

    /// Converts to the performance model's [`Placement`] view.
    ///
    /// Nodes contributing zero GPUs are dropped from the GPU layout (they
    /// still contribute CPUs/memory to the totals).
    pub fn to_placement(&self) -> Placement {
        let total = self.total();
        Placement {
            gpus_per_node: self
                .per_node
                .iter()
                .filter(|(_, r)| r.gpus > 0)
                .map(|(_, r)| r.gpus)
                .collect(),
            cpus: total.cpus,
            host_mem_gb: total.mem_gb,
        }
    }

    /// The grant on `node`, if the allocation holds an entry there.
    #[inline]
    pub fn node(&self, node: usize) -> Option<&Resources> {
        self.per_node
            .iter()
            .find_map(|(n, r)| (*n == node).then_some(r))
    }

    /// The grant on `node`, mutably, if the allocation holds an entry
    /// there.
    #[inline]
    pub fn node_mut(&mut self, node: usize) -> Option<&mut Resources> {
        self.per_node
            .iter_mut()
            .find_map(|(n, r)| (*n == node).then_some(r))
    }

    /// Adds `res` to the grant on `node`, appending an entry for a node
    /// the allocation does not hold yet.
    pub fn add(&mut self, node: usize, res: Resources) {
        match self.node_mut(node) {
            Some(mine) => *mine += res,
            None => self.per_node.push((node, res)),
        }
    }
}

impl fmt::Display for Allocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.per_node.is_empty() {
            return write!(f, "(none)");
        }
        let parts: Vec<String> = self
            .per_node
            .iter()
            .map(|(n, r)| format!("n{n}:{r}"))
            .collect();
        write!(f, "{}", parts.join(" "))
    }
}

/// Errors from cluster accounting.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// An allocation referenced a node id outside the cluster.
    UnknownNode(usize),
    /// An allocation referenced a failed node.
    NodeDown(usize),
    /// An allocation exceeded a node's free resources.
    Overcommit {
        /// The offending node.
        node: usize,
        /// What was requested on that node.
        requested: Resources,
        /// What was actually free.
        free: Resources,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnknownNode(n) => write!(f, "unknown node id {n}"),
            ClusterError::NodeDown(n) => write!(f, "node {n} is down"),
            ClusterError::Overcommit {
                node,
                requested,
                free,
            } => write!(
                f,
                "node {node} overcommitted: requested {requested}, free {free}"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// A homogeneous GPU cluster with strict resource accounting.
///
/// ```
/// use rubick_sim::cluster::{Allocation, Cluster};
/// use rubick_model::{NodeShape, Resources};
///
/// let mut cluster = Cluster::new(8, NodeShape::a800()); // the paper's 64-GPU testbed
/// assert_eq!(cluster.total_capacity().gpus, 64);
/// let alloc = Allocation::on_node(0, Resources::new(8, 32, 200.0));
/// cluster.allocate(&alloc).unwrap();
/// assert_eq!(cluster.free_total().gpus, 56);
/// cluster.release(&alloc);
/// assert_eq!(cluster.free_total().gpus, 64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    nodes: Vec<Node>,
    shape: NodeShape,
}

impl Cluster {
    /// Creates a cluster of `n` identical nodes.
    pub fn new(n: usize, shape: NodeShape) -> Self {
        Cluster {
            nodes: (0..n).map(|i| Node::new(i, shape)).collect(),
            shape,
        }
    }

    /// The paper's testbed: 8 nodes × 8 A800.
    pub fn a800_testbed() -> Self {
        Cluster::new(8, NodeShape::a800())
    }

    /// The common node hardware shape.
    pub fn shape(&self) -> NodeShape {
        self.shape
    }

    /// Read access to the nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Aggregate hardware capacity.
    pub fn total_capacity(&self) -> Resources {
        self.nodes
            .iter()
            .fold(Resources::zero(), |acc, n| acc + n.shape.capacity())
    }

    /// Aggregate hardware capacity a scheduler may plan with: down nodes
    /// contribute nothing. Equals [`Cluster::total_capacity`] while every
    /// node is healthy.
    pub fn schedulable_capacity(&self) -> Resources {
        self.nodes
            .iter()
            .fold(Resources::zero(), |acc, n| acc + n.schedulable_capacity())
    }

    /// Aggregate free resources on healthy nodes (a down node's resources
    /// are not usable, so they do not count as free).
    pub fn free_total(&self) -> Resources {
        self.nodes
            .iter()
            .filter(|n| n.up)
            .fold(Resources::zero(), |acc, n| acc + n.free)
    }

    /// Whether node `node` is healthy.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_is_up(&self, node: usize) -> bool {
        self.nodes[node].up
    }

    /// Marks a node failed (`up = false`) or recovered (`up = true`).
    /// Accounting is untouched: the engine releases evicted jobs'
    /// allocations separately, so a recovered node resumes with whatever
    /// `free` the ledger says.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_node_up(&mut self, node: usize, up: bool) {
        self.nodes[node].up = up;
    }

    /// Free resources on one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn free_on(&self, node: usize) -> Resources {
        self.nodes[node].free
    }

    /// Checks whether an allocation would fit without applying it.
    pub fn fits(&self, alloc: &Allocation) -> Result<(), ClusterError> {
        for (node, res) in &alloc.per_node {
            let n = self
                .nodes
                .get(*node)
                .ok_or(ClusterError::UnknownNode(*node))?;
            if !n.up && !res.is_zero() {
                return Err(ClusterError::NodeDown(*node));
            }
            if !n.free.dominates(res) {
                return Err(ClusterError::Overcommit {
                    node: *node,
                    requested: *res,
                    free: n.free,
                });
            }
        }
        Ok(())
    }

    /// Applies an allocation, decrementing node free resources.
    ///
    /// # Errors
    ///
    /// Fails atomically (no partial application) when the allocation does
    /// not fit.
    pub fn allocate(&mut self, alloc: &Allocation) -> Result<(), ClusterError> {
        self.fits(alloc)?;
        for (node, res) in &alloc.per_node {
            self.nodes[*node].free -= *res;
        }
        Ok(())
    }

    /// Releases a previously applied allocation.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if releasing would exceed node capacity,
    /// which indicates release of an allocation that was never applied.
    pub fn release(&mut self, alloc: &Allocation) {
        for (node, res) in &alloc.per_node {
            let n = &mut self.nodes[*node];
            n.free += *res;
            debug_assert!(
                n.shape.capacity().dominates(&n.free),
                "released more than allocated on node {node}"
            );
            // Clamp in release builds to keep accounting sane.
            n.free = n.free.min(&n.shape.capacity());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster() -> Cluster {
        Cluster::new(2, NodeShape::a800())
    }

    #[test]
    fn capacity_sums_nodes() {
        let c = small_cluster();
        let cap = c.total_capacity();
        assert_eq!(cap.gpus, 16);
        assert_eq!(cap.cpus, 192);
    }

    #[test]
    fn allocate_release_roundtrip() {
        let mut c = small_cluster();
        let a = Allocation {
            per_node: vec![
                (0, Resources::new(4, 16, 100.0)),
                (1, Resources::new(2, 8, 50.0)),
            ],
        };
        c.allocate(&a).unwrap();
        assert_eq!(c.free_on(0).gpus, 4);
        assert_eq!(c.free_on(1).gpus, 6);
        c.release(&a);
        assert_eq!(c.free_total(), c.total_capacity());
    }

    #[test]
    fn overcommit_rejected_atomically() {
        let mut c = small_cluster();
        let a = Allocation {
            per_node: vec![
                (0, Resources::new(4, 16, 100.0)),
                (1, Resources::new(9, 8, 50.0)), // too many GPUs
            ],
        };
        assert!(matches!(
            c.allocate(&a),
            Err(ClusterError::Overcommit { node: 1, .. })
        ));
        // Nothing applied.
        assert_eq!(c.free_total(), c.total_capacity());
    }

    #[test]
    fn unknown_node_rejected() {
        let mut c = small_cluster();
        let a = Allocation::on_node(7, Resources::new(1, 1, 1.0));
        assert_eq!(c.allocate(&a), Err(ClusterError::UnknownNode(7)));
    }

    #[test]
    fn allocation_to_placement_drops_gpuless_nodes() {
        let a = Allocation {
            per_node: vec![
                (0, Resources::new(4, 16, 100.0)),
                (1, Resources::new(0, 8, 50.0)), // CPU-only grant
            ],
        };
        let p = a.to_placement();
        assert_eq!(p.gpus_per_node, vec![4]);
        assert_eq!(p.cpus, 24);
        assert!((p.host_mem_gb - 150.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_per_node() {
        let mut a = Allocation::on_node(0, Resources::new(1, 4, 10.0));
        a.add(0, Resources::new(2, 4, 10.0));
        a.add(1, Resources::new(1, 1, 1.0));
        assert_eq!(a.total().gpus, 4);
        assert_eq!(a.per_node.len(), 2);
    }

    #[test]
    fn down_node_rejects_allocations_and_drops_capacity() {
        let mut c = small_cluster();
        c.set_node_up(0, false);
        assert!(!c.node_is_up(0));
        let a = Allocation::on_node(0, Resources::new(1, 1, 1.0));
        assert_eq!(c.allocate(&a), Err(ClusterError::NodeDown(0)));
        assert_eq!(c.schedulable_capacity().gpus, 8);
        assert_eq!(c.free_total().gpus, 8);
        // Zero grants on a down node are harmless (an empty allocation).
        assert!(c.fits(&Allocation::on_node(0, Resources::zero())).is_ok());
        c.set_node_up(0, true);
        assert_eq!(c.schedulable_capacity(), c.total_capacity());
        c.allocate(&a).unwrap();
    }

    #[test]
    fn empty_allocation_is_empty() {
        assert!(Allocation::empty().is_empty());
        assert!(Allocation::on_node(0, Resources::zero()).is_empty());
        assert!(!Allocation::on_node(0, Resources::new(1, 0, 0.0)).is_empty());
    }
}
