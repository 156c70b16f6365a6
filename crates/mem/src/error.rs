//! Error types for the memory substrate.

use std::error::Error;
use std::fmt;

use crate::types::{NodeId, Pfn};

/// Why a page allocation failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocError {
    /// The target node has no free page (or is below the watermark the
    /// caller required).
    NoMemory {
        /// The node the allocation targeted.
        node: NodeId,
    },
    /// The node id does not exist in this machine.
    InvalidNode {
        /// The offending node id.
        node: NodeId,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::NoMemory { node } => write!(f, "out of memory on {node}"),
            AllocError::InvalidNode { node } => write!(f, "no such memory node: {node}"),
        }
    }
}

impl Error for AllocError {}

/// Why a page migration failed.
///
/// The paper's vmstat extension tracks each promotion failure reason
/// separately (§5.5); [`crate::VmEvent`] mirrors that.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MigrateError {
    /// The destination node could not supply a free page.
    DstNoMemory {
        /// The destination node.
        node: NodeId,
    },
    /// The frame is not currently allocated, so there is nothing to move.
    NotAllocated {
        /// The frame in question.
        pfn: Pfn,
    },
    /// The frame is already isolated by another operation (reference count
    /// abnormal, in kernel terms).
    Busy {
        /// The frame in question.
        pfn: Pfn,
    },
    /// Source and destination node are the same; migration is meaningless.
    SameNode {
        /// The node in question.
        node: NodeId,
    },
    /// The page is unevictable (mlocked) and may not be moved.
    Unevictable {
        /// The frame in question.
        pfn: Pfn,
    },
    /// The frame is a compound (huge) page's tail; callers must migrate
    /// the whole compound through its head with
    /// [`crate::Memory::migrate_page`] or split it first.
    CompoundPage {
        /// The frame in question.
        pfn: Pfn,
    },
}

impl fmt::Display for MigrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrateError::DstNoMemory { node } => {
                write!(f, "migration destination {node} is out of memory")
            }
            MigrateError::NotAllocated { pfn } => write!(f, "{pfn} is not allocated"),
            MigrateError::Busy { pfn } => write!(f, "{pfn} is busy (isolated elsewhere)"),
            MigrateError::SameNode { node } => {
                write!(f, "source and destination are both {node}")
            }
            MigrateError::Unevictable { pfn } => write!(f, "{pfn} is unevictable"),
            MigrateError::CompoundPage { pfn } => {
                write!(f, "{pfn} is part of a compound page")
            }
        }
    }
}

impl Error for MigrateError {}

/// Why a swap operation failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SwapError {
    /// The swap device has no free slot left.
    Full,
    /// The referenced swap slot does not hold a page.
    BadSlot,
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapError::Full => f.write_str("swap device is full"),
            SwapError::BadSlot => f.write_str("swap slot is empty or invalid"),
        }
    }
}

impl Error for SwapError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_without_punctuation() {
        let msgs = [
            AllocError::NoMemory { node: NodeId(1) }.to_string(),
            AllocError::InvalidNode { node: NodeId(9) }.to_string(),
            MigrateError::DstNoMemory { node: NodeId(1) }.to_string(),
            MigrateError::NotAllocated { pfn: Pfn(3) }.to_string(),
            MigrateError::Busy { pfn: Pfn(3) }.to_string(),
            MigrateError::SameNode { node: NodeId(0) }.to_string(),
            MigrateError::Unevictable { pfn: Pfn(3) }.to_string(),
            MigrateError::CompoundPage { pfn: Pfn(3) }.to_string(),
            SwapError::Full.to_string(),
            SwapError::BadSlot.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(!m.ends_with('.'), "no trailing period: {m}");
            assert!(m.chars().next().unwrap().is_lowercase(), "lowercase: {m}");
        }
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<AllocError>();
        assert_err::<MigrateError>();
        assert_err::<SwapError>();
    }
}
