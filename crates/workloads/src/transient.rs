//! Short-lived allocation churn: request-processing pages that are
//! allocated, touched a few times, and freed within a minute.
//!
//! The paper leans on this behaviour twice: newly allocated pages are
//! "often related to request processing and, therefore, both short-lived
//! and hot" (§5.2 — why local allocation headroom matters), and Data
//! Warehouse's anon pages are mostly newly allocated rather than re-used
//! (§3.7).

use std::collections::VecDeque;

use tiered_mem::{Pid, Vpn};
use tiered_sim::WorkloadEvent;

/// A pool of short-lived pages cycling through a dedicated VPN range.
///
/// # Examples
///
/// ```
/// use tiered_mem::Pid;
/// use tiered_sim::WorkloadEvent;
/// use tiered_workloads::TransientPool;
///
/// let mut pool = TransientPool::new(1 << 32, 1024, 1_000_000);
/// let vpn = pool.allocate(0).expect("pool has room");
/// assert_eq!(pool.live_count(), 1);
/// let mut events = Vec::new();
/// pool.drain_expired_into(2_000_000, Pid(1), &mut events);
/// assert_eq!(events, vec![WorkloadEvent::Free { pid: Pid(1), vpn }]);
/// assert_eq!(pool.live_count(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct TransientPool {
    base_vpn: u64,
    range: u64,
    lifetime_ns: u64,
    /// Offset of the next VPN to hand out, cycling through `[0, range)`.
    next: u64,
    live: VecDeque<(Vpn, u64)>,
}

impl TransientPool {
    /// Creates a pool cycling through `range` VPNs starting at `base_vpn`,
    /// freeing each page `lifetime_ns` after allocation.
    ///
    /// # Panics
    ///
    /// Panics if `range` or `lifetime_ns` is zero.
    pub fn new(base_vpn: u64, range: u64, lifetime_ns: u64) -> TransientPool {
        assert!(range > 0, "transient range must be positive");
        assert!(lifetime_ns > 0, "lifetime must be positive");
        TransientPool {
            base_vpn,
            range,
            lifetime_ns,
            next: 0,
            live: VecDeque::new(),
        }
    }

    /// Number of pages currently live.
    #[inline]
    pub fn live_count(&self) -> u64 {
        self.live.len() as u64
    }

    /// Allocates a fresh page at `now_ns`, scheduling its free.
    ///
    /// Returns `None` when every VPN in the range is still live — the pool
    /// is *self-limiting*: once saturated, new allocations proceed only as
    /// old pages expire, so the steady-state churn rate is
    /// `range / lifetime` pages per unit time regardless of how fast the
    /// workload runs.
    #[inline]
    pub fn allocate(&mut self, now_ns: u64) -> Option<Vpn> {
        if self.live_count() >= self.range {
            return None;
        }
        let vpn = Vpn(self.base_vpn + self.next);
        self.next += 1;
        if self.next == self.range {
            self.next = 0;
        }
        self.live.push_back((vpn, now_ns + self.lifetime_ns));
        Some(vpn)
    }

    /// A random live page, if any (re-touching in-flight request state).
    #[inline]
    pub(crate) fn peek_live(&self, salt: u64) -> Option<Vpn> {
        if self.live.is_empty() {
            return None;
        }
        let i = (salt as usize) % self.live.len();
        Some(self.live[i].0)
    }

    /// Removes every page whose lifetime expired by `now_ns`, appending a
    /// [`WorkloadEvent::Free`] for each (owned by `pid`) to `events`, in
    /// expiry order.
    #[inline]
    pub fn drain_expired_into(&mut self, now_ns: u64, pid: Pid, events: &mut Vec<WorkloadEvent>) {
        while let Some(&(vpn, deadline)) = self.live.front() {
            if deadline > now_ns {
                break;
            }
            self.live.pop_front();
            events.push(WorkloadEvent::Free { pid, vpn });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pages `drain_expired_into` frees at `now_ns`.
    fn expired(pool: &mut TransientPool, now_ns: u64) -> Vec<Vpn> {
        let mut events = Vec::new();
        pool.drain_expired_into(now_ns, Pid(1), &mut events);
        events
            .into_iter()
            .map(|e| match e {
                WorkloadEvent::Free { pid, vpn } => {
                    assert_eq!(pid, Pid(1));
                    vpn
                }
                WorkloadEvent::Access(a) => panic!("expiry produced an access: {a:?}"),
            })
            .collect()
    }

    #[test]
    fn allocations_are_distinct_while_live() {
        let mut pool = TransientPool::new(0, 100, 1000);
        let a = pool.allocate(0).unwrap();
        let b = pool.allocate(0).unwrap();
        assert_ne!(a, b);
        assert_eq!(pool.live_count(), 2);
    }

    #[test]
    fn expiry_is_fifo_and_respects_deadlines() {
        let mut pool = TransientPool::new(0, 100, 1000);
        let a = pool.allocate(0).unwrap(); // expires at 1000
        let b = pool.allocate(500).unwrap(); // expires at 1500
        assert!(expired(&mut pool, 999).is_empty());
        assert_eq!(expired(&mut pool, 1000), vec![a]);
        assert_eq!(expired(&mut pool, 10_000), vec![b]);
        assert_eq!(pool.live_count(), 0);
    }

    #[test]
    fn vpns_recycle_after_expiry() {
        let mut pool = TransientPool::new(50, 2, 10);
        let a = pool.allocate(0).unwrap();
        let b = pool.allocate(0).unwrap();
        expired(&mut pool, 100);
        let c = pool.allocate(100).unwrap();
        assert_eq!(c, a); // wrapped around
        assert_ne!(c, b);
    }

    #[test]
    fn saturated_pool_declines_until_expiry() {
        let mut pool = TransientPool::new(0, 2, 100);
        assert!(pool.allocate(0).is_some());
        assert!(pool.allocate(0).is_some());
        assert_eq!(pool.allocate(0), None);
        expired(&mut pool, 100);
        assert!(pool.allocate(100).is_some());
    }

    #[test]
    fn drain_appends_after_existing_events() {
        let mut pool = TransientPool::new(0, 8, 10);
        let a = pool.allocate(0).unwrap();
        let b = pool.allocate(5).unwrap();
        let first = WorkloadEvent::Free {
            pid: Pid(9),
            vpn: Vpn(77),
        };
        let mut events = vec![first];
        pool.drain_expired_into(20, Pid(2), &mut events);
        assert_eq!(
            events,
            vec![
                first,
                WorkloadEvent::Free {
                    pid: Pid(2),
                    vpn: a
                },
                WorkloadEvent::Free {
                    pid: Pid(2),
                    vpn: b
                },
            ]
        );
    }

    #[test]
    fn peek_live_returns_member() {
        let mut pool = TransientPool::new(0, 16, 1000);
        assert_eq!(pool.peek_live(3), None);
        let a = pool.allocate(0).unwrap();
        let b = pool.allocate(0).unwrap();
        for salt in 0..10 {
            let v = pool.peek_live(salt).unwrap();
            assert!(v == a || v == b);
        }
    }
}
