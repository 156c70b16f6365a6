//! Access streams: the interface between workload generators and the
//! system runner.

use tiered_mem::{PageType, Pid, Vpn};

use crate::rng::SimRng;

/// Load vs. store, mirroring the PEBS events Chameleon samples
/// (`MEM_LOAD_RETIRED.L3_MISS` for loads, TLB store misses for stores).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// A demand load.
    Load,
    /// A demand store.
    Store,
}

/// One memory access issued by a workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Access {
    /// The accessing process.
    pub pid: Pid,
    /// The virtual page touched.
    pub vpn: Vpn,
    /// Load or store.
    pub kind: AccessKind,
    /// The page type to materialise on a first-touch fault.
    pub page_type: PageType,
}

/// One event produced by a workload generator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkloadEvent {
    /// Touch a page (faulting it in if needed).
    Access(Access),
    /// Free a page (process-driven deallocation, e.g. short-lived request
    /// state or discarded intermediate data).
    Free {
        /// Owning process.
        pid: Pid,
        /// Virtual page to release.
        vpn: Vpn,
    },
}

/// One application-level operation: a CPU burst plus the memory accesses
/// performed during it.
///
/// Throughput is defined as completed ops per simulated second; every
/// access latency adds to the op's duration, which is how page placement
/// feeds back into application performance.
#[derive(Clone, Debug)]
pub struct Op {
    /// Pure CPU time of the op, excluding memory stalls.
    pub cpu_ns: u64,
    /// Events performed during the op, in order.
    pub events: Vec<WorkloadEvent>,
}

impl Op {
    /// An op with no memory events (pure compute).
    pub fn compute(cpu_ns: u64) -> Op {
        Op {
            cpu_ns,
            events: Vec::new(),
        }
    }

    /// Number of page accesses in this op.
    pub fn access_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, WorkloadEvent::Access(_)))
            .count()
    }
}

/// A workload generator: the synthetic stand-in for the paper's production
/// services.
///
/// Implementations are deterministic functions of `(now_ns, rng)`; the
/// runner drives them op by op.
pub trait Workload {
    /// Human-readable workload name (e.g. `"web"`, `"cache1"`).
    fn name(&self) -> &str;

    /// The process this workload runs as.
    fn pid(&self) -> Pid;

    /// Produces the next operation.
    fn next_op(&mut self, now_ns: u64, rng: &mut SimRng) -> Op;

    /// Appends the next operation's events to `events` and returns its
    /// CPU time: the same op, and the same RNG draws, as
    /// [`Workload::next_op`].
    ///
    /// The run loop calls this with one buffer it clears between ops, so
    /// a generator that implements it natively allocates nothing per op.
    /// Implementations only append; events already in the buffer stay
    /// untouched. The default delegates to `next_op` and moves its
    /// events over.
    fn next_op_into(
        &mut self,
        now_ns: u64,
        rng: &mut SimRng,
        events: &mut Vec<WorkloadEvent>,
    ) -> u64 {
        let mut op = self.next_op(now_ns, rng);
        events.append(&mut op.events);
        op.cpu_ns
    }

    /// Approximate total working-set size in pages (used to size
    /// machines for ratio configurations such as 2:1 and 1:4).
    fn working_set_pages(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_access_count_ignores_frees() {
        let a = Access {
            pid: Pid(1),
            vpn: Vpn(0),
            kind: AccessKind::Load,
            page_type: PageType::Anon,
        };
        let op = Op {
            cpu_ns: 100,
            events: vec![
                WorkloadEvent::Access(a),
                WorkloadEvent::Free {
                    pid: Pid(1),
                    vpn: Vpn(3),
                },
                WorkloadEvent::Access(a),
            ],
        };
        assert_eq!(op.access_count(), 2);
    }

    #[test]
    fn compute_op_is_empty() {
        let op = Op::compute(500);
        assert_eq!(op.cpu_ns, 500);
        assert_eq!(op.access_count(), 0);
        assert!(op.events.is_empty());
    }
}
