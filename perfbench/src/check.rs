//! The correctness gate every repetition passes through, and the digest of
//! its simulated output.

use std::fmt::Write as _;

use tiered_mem::{VmEvent, VmStat};

use crate::workloads::Run;

/// The simulated output of one finished run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Ops completed, all workloads.
    pub ops: u64,
    /// Page accesses, all workloads.
    pub accesses: u64,
    /// Steady-state (second half) simulated ops/s, summed over workloads.
    pub throughput: f64,
    /// Steady-state share of accesses served by CPU-attached nodes; the
    /// access-weighted mean of the workloads' shares when co-located.
    pub local_traffic: f64,
    /// p99 simulated op latency, ns (log2-bucketed, worst workload).
    pub op_latency_p99_ns: u64,
    /// Total simulated memory stall over total simulated op time.
    pub mem_stall_frac: f64,
    /// Final vmstat counters.
    pub vmstat: VmStat,
    /// Hash of every simulated quantity above plus the clock and the
    /// migration matrix: equal digests mean equal simulations.
    pub digest: u64,
}

/// Checks the machine and the run's accounting after `duration_ns` of
/// simulated time and reduces the run to its [`Outcome`].
///
/// `Memory::validate` panics on a broken invariant; the caller counts the
/// panic as a failed run.
pub fn check(run: &Run, duration_ns: u64) -> Result<Outcome, String> {
    let memory = run.memory();
    memory.validate();
    let vmstat = memory.vmstat().clone();
    let migrated: u64 = memory.migration_matrix().iter().sum();
    let success = vmstat.get(VmEvent::PgMigrateSuccess);
    if migrated != success {
        return Err(format!(
            "migration matrix sums to {migrated}, pgmigrate_success is {success}"
        ));
    }
    let half = duration_ns / 2;
    let mut digest = Fnv::default();
    let (mut ops, mut accesses, mut op_ns, mut mem_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut throughput, mut local_weighted, mut p99) = (0.0, 0.0, 0u64);
    for (i, lane) in run.lanes().into_iter().enumerate() {
        if lane.accesses != lane.local_accesses + lane.cxl_accesses {
            return Err(format!(
                "workload {i}: {} accesses but {} local + {} cxl",
                lane.accesses, lane.local_accesses, lane.cxl_accesses
            ));
        }
        if lane.ops_completed == 0 || lane.accesses == 0 {
            return Err(format!("workload {i} completed no work"));
        }
        ops += lane.ops_completed;
        accesses += lane.accesses;
        op_ns += lane.total_op_ns;
        mem_ns += lane.total_mem_ns;
        throughput += lane.steady_throughput(half, u64::MAX);
        local_weighted += lane.steady_local_traffic(half, u64::MAX) * lane.accesses as f64;
        p99 = p99.max(lane.p99_op_latency_ns());
        for v in [
            lane.ops_completed,
            lane.accesses,
            lane.local_accesses,
            lane.cxl_accesses,
            lane.total_op_ns,
            lane.total_mem_ns,
        ] {
            digest.add(v);
        }
    }
    digest.add(run.now_ns());
    for (_, v) in vmstat.iter() {
        digest.add(v);
    }
    for &v in memory.migration_matrix() {
        digest.add(v);
    }
    Ok(Outcome {
        ops,
        accesses,
        throughput,
        local_traffic: local_weighted / accesses as f64,
        op_latency_p99_ns: p99,
        mem_stall_frac: mem_ns as f64 / op_ns.max(1) as f64,
        vmstat,
        digest: digest.0,
    })
}

impl Outcome {
    /// The digest as printed in reports.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest)
    }

    /// The vmstat counters as `name=value` pairs, non-zero ones only.
    pub fn vmstat_line(&self) -> String {
        let mut out = String::new();
        for (event, v) in self.vmstat.iter().filter(|&(_, v)| v > 0) {
            let _ = write!(out, " {}={v}", event.name());
        }
        out
    }
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}
