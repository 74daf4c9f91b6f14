//! Cluster topology: node identities, roles, devices and fault state.

use crate::{Device, NetError, NetResult};
use std::collections::HashSet;
use std::fmt;

/// Identifier of a node in the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The job a node performs, mirroring the paper's cluster definition files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Parameter-server replica.
    Server,
    /// Gradient-computing worker.
    Worker,
}

/// Static description of a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeInfo {
    /// The node's identifier.
    pub id: NodeId,
    /// Server or worker.
    pub role: Role,
    /// Compute device class.
    pub device: Device,
    /// Multiplier on the node's computation time (1.0 = nominal, >1 = straggler).
    pub straggler_factor: f64,
}

/// A simulated cluster: the node inventory plus dynamic fault state.
///
/// This plays the role of the paper's *Controller* cluster definition (§3.2):
/// which machines exist, which are servers and which are workers, and — for
/// experiments — which of them are currently crashed or partitioned.
#[derive(Debug, Clone, Default)]
pub struct Cluster {
    nodes: Vec<NodeInfo>,
    crashed: HashSet<NodeId>,
    partitions: HashSet<(NodeId, NodeId)>,
}

impl Cluster {
    /// Starts building a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// All nodes, in registration order.
    pub fn nodes(&self) -> &[NodeInfo] {
        &self.nodes
    }

    /// Ids of all server nodes.
    pub fn servers(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.role == Role::Server)
            .map(|n| n.id)
            .collect()
    }

    /// Ids of all worker nodes.
    pub fn workers(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.role == Role::Worker)
            .map(|n| n.id)
            .collect()
    }

    /// Looks up a node's static description.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownNode`] if the id is not registered.
    pub fn info(&self, id: NodeId) -> NetResult<NodeInfo> {
        self.nodes
            .iter()
            .find(|n| n.id == id)
            .copied()
            .ok_or(NetError::UnknownNode(id))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Marks a node as crashed; it no longer replies to any pull.
    pub fn crash(&mut self, id: NodeId) {
        self.crashed.insert(id);
    }

    /// Restores a crashed node.
    pub fn recover(&mut self, id: NodeId) {
        self.crashed.remove(&id);
    }

    /// Whether the node is currently crashed.
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.crashed.contains(&id)
    }

    /// Cuts the bidirectional link between two nodes.
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        self.partitions.insert(ordered(a, b));
    }

    /// Heals a previously cut link.
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        self.partitions.remove(&ordered(a, b));
    }

    /// Whether `to` can currently answer a request from `from`.
    pub fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        !self.crashed.contains(&to)
            && !self.crashed.contains(&from)
            && !self.partitions.contains(&ordered(from, to))
    }

    /// Sets a node's straggler factor (values > 1 slow it down).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownNode`] if the id is not registered.
    pub fn set_straggler(&mut self, id: NodeId, factor: f64) -> NetResult<()> {
        let node = self
            .nodes
            .iter_mut()
            .find(|n| n.id == id)
            .ok_or(NetError::UnknownNode(id))?;
        node.straggler_factor = factor.max(0.0);
        Ok(())
    }

    /// Live (non-crashed) peers of `from` among `candidates`.
    pub fn reachable_peers(&self, from: NodeId, candidates: &[NodeId]) -> Vec<NodeId> {
        candidates
            .iter()
            .copied()
            .filter(|&c| c != from && self.reachable(from, c))
            .collect()
    }
}

fn ordered(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Builder for [`Cluster`] topologies.
#[derive(Debug, Clone, Default)]
pub struct ClusterBuilder {
    nodes: Vec<NodeInfo>,
    next_id: u32,
}

impl ClusterBuilder {
    /// Adds `count` server replicas running on `device`.
    pub fn servers(mut self, count: usize, device: Device) -> Self {
        for _ in 0..count {
            self.push(Role::Server, device);
        }
        self
    }

    /// Adds `count` workers running on `device`.
    pub fn workers(mut self, count: usize, device: Device) -> Self {
        for _ in 0..count {
            self.push(Role::Worker, device);
        }
        self
    }

    /// Adds a single node with an explicit role and device.
    pub fn node(mut self, role: Role, device: Device) -> Self {
        self.push(role, device);
        self
    }

    fn push(&mut self, role: Role, device: Device) {
        self.nodes.push(NodeInfo {
            id: NodeId(self.next_id),
            role,
            device,
            straggler_factor: 1.0,
        });
        self.next_id += 1;
    }

    /// Finalises the cluster.
    pub fn build(self) -> Cluster {
        Cluster {
            nodes: self.nodes,
            crashed: HashSet::new(),
            partitions: HashSet::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Cluster {
        Cluster::builder()
            .servers(3, Device::Cpu)
            .workers(5, Device::Gpu)
            .build()
    }

    #[test]
    fn builder_assigns_sequential_ids_and_roles() {
        let c = cluster();
        assert_eq!(c.len(), 8);
        assert_eq!(c.servers().len(), 3);
        assert_eq!(c.workers().len(), 5);
        assert_eq!(c.nodes()[0].id, NodeId(0));
        assert_eq!(c.nodes()[7].id, NodeId(7));
        assert_eq!(c.info(NodeId(4)).unwrap().role, Role::Worker);
        assert!(c.info(NodeId(99)).is_err());
    }

    #[test]
    fn crash_and_recover_toggle_reachability() {
        let mut c = cluster();
        let w = c.workers()[0];
        let s = c.servers()[0];
        assert!(c.reachable(s, w));
        c.crash(w);
        assert!(c.is_crashed(w));
        assert!(!c.reachable(s, w));
        assert!(!c.reachable(w, s), "a crashed node cannot send either");
        c.recover(w);
        assert!(c.reachable(s, w));
    }

    #[test]
    fn partitions_are_bidirectional_and_healable() {
        let mut c = cluster();
        let a = NodeId(0);
        let b = NodeId(5);
        c.partition(a, b);
        assert!(!c.reachable(a, b));
        assert!(!c.reachable(b, a));
        assert!(c.reachable(a, NodeId(6)));
        c.heal(b, a);
        assert!(c.reachable(a, b));
    }

    #[test]
    fn straggler_factor_is_persisted_and_clamped() {
        let mut c = cluster();
        let w = c.workers()[1];
        c.set_straggler(w, 3.0).unwrap();
        assert_eq!(c.info(w).unwrap().straggler_factor, 3.0);
        c.set_straggler(w, -1.0).unwrap();
        assert_eq!(c.info(w).unwrap().straggler_factor, 0.0);
        assert!(c.set_straggler(NodeId(42), 1.0).is_err());
    }

    #[test]
    fn reachable_peers_excludes_self_and_crashed() {
        let mut c = cluster();
        let workers = c.workers();
        c.crash(workers[2]);
        let peers = c.reachable_peers(workers[0], &workers);
        assert!(!peers.contains(&workers[0]));
        assert!(!peers.contains(&workers[2]));
        assert_eq!(peers.len(), 3);
    }

    #[test]
    fn empty_cluster_is_empty() {
        let c = Cluster::builder().build();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
    }
}
