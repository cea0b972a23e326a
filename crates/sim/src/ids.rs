//! Identifier newtypes shared across the workspace.
//!
//! Using distinct newtypes for node, packet and flow identifiers prevents the
//! accidental mixing of identifier spaces (for example routing a packet to a
//! packet id instead of a node id), which the type system then rejects.

use std::fmt;

/// Identifier of a simulation node (vehicle, road-side unit or bus ferry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

/// Identifier of a packet, unique within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PacketId(pub u64);

/// Identifier of an application traffic flow (source/destination pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FlowId(pub u32);

/// Monotonically increasing sequence number (AODV/DSDV style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqNo(pub u64);

impl NodeId {
    /// Returns the raw index value.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl PacketId {
    /// Returns the raw value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl SeqNo {
    /// Returns the incremented sequence number, leaving `self` untouched.
    #[must_use]
    pub fn next(self) -> SeqNo {
        SeqNo(self.0 + 1)
    }

    /// Whether `self` is fresher (strictly greater) than `other`.
    #[must_use]
    pub fn is_fresher_than(self, other: SeqNo) -> bool {
        self.0 > other.0
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl fmt::Display for SeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A small allocator handing out unique [`PacketId`]s.
#[derive(Debug, Default, Clone)]
pub struct PacketIdAllocator {
    next: u64,
}

impl PacketIdAllocator {
    /// Creates an allocator starting at id 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a fresh, never-before-returned packet id.
    pub fn allocate(&mut self) -> PacketId {
        let id = PacketId(self.next);
        self.next += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        let n = NodeId(7);
        assert_eq!(n.to_string(), "n7");
        assert_eq!(n.index(), 7);
        assert_eq!(NodeId::from(7u32), n);
        assert_eq!(NodeId::from(7usize), n);
    }

    #[test]
    fn seqno_freshness() {
        let a = SeqNo(1);
        let b = a.next();
        assert!(b.is_fresher_than(a));
        assert!(!a.is_fresher_than(b));
        assert!(!a.is_fresher_than(a));
    }

    #[test]
    fn packet_allocator_is_unique_and_monotone() {
        let mut alloc = PacketIdAllocator::new();
        let ids: Vec<_> = (0..100).map(|_| alloc.allocate()).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.value(), i as u64);
        }
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert_eq!(PacketId(3).to_string(), "p3");
        assert_eq!(FlowId(2).to_string(), "f2");
        assert_eq!(SeqNo(9).to_string(), "#9");
    }
}
