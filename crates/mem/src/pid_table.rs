//! Per-process state keyed by [`Pid`].
//!
//! Every simulated access looks up its process before its page, so this
//! lookup sits on the hottest path of the simulator. A run has one or two
//! processes, so a vector kept sorted by pid and searched by bisection beats
//! hashing. It is sorted rather than pid-indexed because a pid can be any
//! `u32` (trace files choose their own), and a pid-indexed table would
//! allocate a slot for every pid below the largest. Sorted storage also makes
//! iteration order deterministic without a sort.

use crate::types::Pid;

/// A map from [`Pid`] to `T`, stored as a vector sorted by pid.
///
/// # Examples
///
/// ```
/// use tiered_mem::{Pid, PidTable};
///
/// let mut t = PidTable::new();
/// t.insert(Pid(7), "b");
/// t.insert(Pid(3), "a");
/// assert_eq!(t.get(Pid(7)), Some(&"b"));
/// let pids: Vec<Pid> = t.iter().map(|(pid, _)| pid).collect();
/// assert_eq!(pids, [Pid(3), Pid(7)]);
/// ```
#[derive(Clone, Debug)]
pub struct PidTable<T> {
    entries: Vec<(Pid, T)>,
}

impl<T> Default for PidTable<T> {
    fn default() -> PidTable<T> {
        PidTable::new()
    }
}

impl<T> PidTable<T> {
    /// Creates an empty table (no allocation).
    pub const fn new() -> PidTable<T> {
        PidTable {
            entries: Vec::new(),
        }
    }

    #[inline]
    fn find(&self, pid: Pid) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&pid, |&(p, _)| p)
    }

    /// Sets the value for `pid`, returning the value it replaces.
    pub fn insert(&mut self, pid: Pid, value: T) -> Option<T> {
        match self.find(pid) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (pid, value));
                None
            }
        }
    }

    /// The value for `pid`, if any.
    #[inline]
    pub fn get(&self, pid: Pid) -> Option<&T> {
        self.find(pid).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable access to the value for `pid`, if any.
    #[inline]
    pub(crate) fn get_mut(&mut self, pid: Pid) -> Option<&mut T> {
        self.find(pid).ok().map(|i| &mut self.entries[i].1)
    }

    /// Removes `pid`, returning its value if it had one.
    pub(crate) fn remove(&mut self, pid: Pid) -> Option<T> {
        self.find(pid).ok().map(|i| self.entries.remove(i).1)
    }

    /// Every entry, in ascending pid order.
    pub fn iter(&self) -> impl Iterator<Item = (Pid, &T)> {
        self.entries.iter().map(|(pid, v)| (*pid, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterates_in_ascending_pid_order() {
        let mut t = PidTable::new();
        for p in [u32::MAX, 9, 4, 2, 0] {
            assert_eq!(t.insert(Pid(p), p), None);
        }
        let got: Vec<(Pid, u32)> = t.iter().map(|(pid, &v)| (pid, v)).collect();
        assert_eq!(
            got,
            [
                (Pid(0), 0),
                (Pid(2), 2),
                (Pid(4), 4),
                (Pid(9), 9),
                (Pid(u32::MAX), u32::MAX)
            ]
        );
    }

    #[test]
    fn duplicate_insert_replaces_the_value() {
        let mut t = PidTable::new();
        assert_eq!(t.insert(Pid(5), "old"), None);
        assert_eq!(t.insert(Pid(5), "new"), Some("old"));
        assert_eq!(t.get(Pid(5)), Some(&"new"));
        assert_eq!(t.iter().count(), 1);
    }

    #[test]
    fn remove_takes_only_that_pid() {
        let mut t = PidTable::new();
        for p in [1, 2, 3] {
            t.insert(Pid(p), p * 10);
        }
        assert_eq!(t.remove(Pid(2)), Some(20));
        assert_eq!(t.remove(Pid(2)), None);
        assert_eq!(t.get(Pid(2)), None);
        *t.get_mut(Pid(3)).unwrap() += 1;
        let got: Vec<(Pid, u32)> = t.iter().map(|(pid, &v)| (pid, v)).collect();
        assert_eq!(got, [(Pid(1), 10), (Pid(3), 31)]);
    }

    #[test]
    fn misses_return_none() {
        let mut t: PidTable<u8> = PidTable::new();
        assert_eq!(t.get(Pid(0)), None);
        assert_eq!(t.get_mut(Pid(0)), None);
        assert_eq!(t.remove(Pid(0)), None);
        t.insert(Pid(4), 1);
        for miss in [0, 3, 5, u32::MAX] {
            assert_eq!(t.get(Pid(miss)), None);
        }
    }
}
