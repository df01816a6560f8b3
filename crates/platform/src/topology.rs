//! Node, socket and core descriptions.

/// Identifier of a socket on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SocketId(pub usize);

impl SocketId {
    /// The other socket of a dual-socket node.
    pub fn peer(self) -> SocketId {
        SocketId(1 - self.0)
    }
}

/// Identifier of a physical core, unique node-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub usize);

/// One CPU socket with its locally attached memory.
#[derive(Debug, Clone)]
pub struct Socket {
    /// Socket identifier.
    pub id: SocketId,
    /// Physical cores on this socket.
    pub cores: Vec<CoreId>,
    /// Locally attached DRAM capacity, bytes.
    pub dram_bytes: u64,
    /// Locally attached PMEM capacity, bytes (0 if none).
    pub pmem_bytes: u64,
}

/// A server node: the unit the paper schedules workflow components onto.
#[derive(Debug, Clone)]
pub struct Node {
    /// Sockets in id order.
    pub sockets: Vec<Socket>,
}

impl Node {
    /// The paper's testbed shape: two sockets, 28 physical cores each,
    /// 192 GB DRAM and 6 × 512 GB PMEM per socket.
    pub fn paper_testbed() -> Node {
        Node::dual_socket(28, 192 * 1_000_000_000, 6 * 512 * 1_000_000_000)
    }

    /// A dual-socket node with `cores_per_socket` cores and the given
    /// per-socket DRAM/PMEM capacities.
    pub fn dual_socket(cores_per_socket: usize, dram_bytes: u64, pmem_bytes: u64) -> Node {
        assert!(cores_per_socket > 0);
        let mut sockets = Vec::with_capacity(2);
        for s in 0..2 {
            sockets.push(Socket {
                id: SocketId(s),
                cores: (0..cores_per_socket)
                    .map(|c| CoreId(s * cores_per_socket + c))
                    .collect(),
                dram_bytes,
                pmem_bytes,
            });
        }
        Node { sockets }
    }

    /// The socket with the given id.
    pub fn socket(&self, id: SocketId) -> &Socket {
        &self.sockets[id.0]
    }

    /// Cores per socket (assumes a homogeneous node).
    pub fn cores_per_socket(&self) -> usize {
        self.sockets[0].cores.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let n = Node::paper_testbed();
        assert_eq!(n.sockets.len(), 2);
        assert_eq!(n.sockets.iter().map(|s| s.cores.len()).sum::<usize>(), 56);
        assert_eq!(n.cores_per_socket(), 28);
        assert_eq!(n.socket(SocketId(1)).pmem_bytes, 6 * 512 * 1_000_000_000);
    }

    #[test]
    fn core_ids_are_node_unique() {
        let n = Node::dual_socket(4, 1, 1);
        let mut all: Vec<usize> = n
            .sockets
            .iter()
            .flat_map(|s| s.cores.iter().map(|c| c.0))
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn peer_socket() {
        assert_eq!(SocketId(0).peer(), SocketId(1));
        assert_eq!(SocketId(1).peer(), SocketId(0));
    }
}
