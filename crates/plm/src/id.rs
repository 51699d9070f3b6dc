//! Compact node identifiers.
//!
//! Tree links are the dominant space cost of a path-copying structure, so
//! node references are 4-byte indices into the arena rather than 8-byte
//! pointers. [`OptNodeId`] reserves `u32::MAX` as the nil sentinel so an
//! optional link is still 4 bytes (no `Option` tag word).

use core::fmt;

/// Index of an occupied slot in an [`crate::Arena`]. Always refers to a node
/// (never nil).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw index value. Stable for the lifetime of the allocation.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An optional [`NodeId`] in 4 bytes: `u32::MAX` encodes nil ("empty tree").
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptNodeId(u32);

impl OptNodeId {
    /// The nil reference (empty subtree / no version data).
    pub const NONE: OptNodeId = OptNodeId(u32::MAX);

    /// Wrap a concrete node id.
    #[inline]
    pub fn some(id: NodeId) -> Self {
        OptNodeId(id.0)
    }

    /// True if this is the nil sentinel.
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == u32::MAX
    }

    /// True if this refers to a node.
    #[inline]
    pub fn is_some(self) -> bool {
        self.0 != u32::MAX
    }

    /// Convert to a std `Option`.
    #[inline]
    pub fn get(self) -> Option<NodeId> {
        if self.is_none() {
            None
        } else {
            Some(NodeId(self.0))
        }
    }

    /// Unwrap, panicking on nil.
    #[inline]
    #[track_caller]
    pub fn unwrap(self) -> NodeId {
        assert!(self.is_some(), "OptNodeId::unwrap on nil");
        NodeId(self.0)
    }

    /// Raw 4-byte encoding (`u32::MAX` = nil). Round-trips through
    /// [`OptNodeId::from_raw`]. This is what the version-maintenance layer
    /// stores as its `u64` data token.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Decode a raw value produced by [`OptNodeId::raw`].
    #[inline]
    pub fn from_raw(raw: u32) -> Self {
        OptNodeId(raw)
    }
}

impl Default for OptNodeId {
    #[inline]
    fn default() -> Self {
        OptNodeId::NONE
    }
}

impl From<NodeId> for OptNodeId {
    #[inline]
    fn from(id: NodeId) -> Self {
        OptNodeId::some(id)
    }
}

impl From<Option<NodeId>> for OptNodeId {
    #[inline]
    fn from(id: Option<NodeId>) -> Self {
        match id {
            Some(id) => OptNodeId::some(id),
            None => OptNodeId::NONE,
        }
    }
}

impl fmt::Debug for OptNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.get() {
            Some(id) => write!(f, "{id:?}"),
            None => write!(f, "nil"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_roundtrip() {
        let id = NodeId(7);
        let o = OptNodeId::some(id);
        assert!(o.is_some());
        assert_eq!(o.get(), Some(id));
        assert_eq!(o.unwrap(), id);
        assert_eq!(OptNodeId::from_raw(o.raw()), o);
    }

    #[test]
    fn none_is_nil() {
        assert!(OptNodeId::NONE.is_none());
        assert_eq!(OptNodeId::NONE.get(), None);
        assert_eq!(OptNodeId::default(), OptNodeId::NONE);
        assert_eq!(OptNodeId::from_raw(u32::MAX), OptNodeId::NONE);
    }

    #[test]
    fn from_option() {
        assert_eq!(OptNodeId::from(None), OptNodeId::NONE);
        assert_eq!(OptNodeId::from(Some(NodeId(3))).unwrap(), NodeId(3));
    }

    #[test]
    fn sizes_stay_compact() {
        assert_eq!(core::mem::size_of::<NodeId>(), 4);
        assert_eq!(core::mem::size_of::<OptNodeId>(), 4);
    }

    #[test]
    #[should_panic]
    fn unwrap_nil_panics() {
        OptNodeId::NONE.unwrap();
    }

    #[test]
    fn debug_formatting() {
        assert_eq!(format!("{:?}", NodeId(5)), "n5");
        assert_eq!(format!("{:?}", OptNodeId::NONE), "nil");
        assert_eq!(format!("{:?}", OptNodeId::some(NodeId(5))), "n5");
    }
}
