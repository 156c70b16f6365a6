//! The experiment harness: runs (workload × machine × policy) cells and
//! reduces them to the quantities the paper's figures report.
//!
//! Cells are described by [`CellSpec`] — a plain, thread-shareable value
//! — so figure and sweep grids can be enumerated first and executed by
//! any driver (sequentially, or fanned out over a worker pool). Each spec
//! owns its workload profile, [`MachineSpec`], policy choice, duration
//! and seed: running a spec touches no shared mutable state, which is
//! what makes parallel execution bit-identical to sequential execution,
//! and two equal specs produce equal results, which is what lets a driver
//! run each distinct cell once.

use tiered_mem::{Memory, NodeId, VmEvent, VmStat};
use tiered_workloads::WorkloadProfile;

use crate::configs::MachineSpec;
use crate::metrics::RunMetrics;
use crate::policy::{
    AutoTiering, InMemorySwap, LinuxDefault, NumaBalancing, PlacementPolicy, Tpp, TppConfig,
    UnsupportedConfig,
};
use crate::system::System;

/// A buildable policy selection (policies themselves are not `Clone`, so
/// sweeps carry this factory instead).
#[derive(Clone, PartialEq, Debug)]
pub enum PolicyChoice {
    /// Default Linux kernel behaviour.
    Linux,
    /// Default NUMA balancing.
    NumaBalancing,
    /// The AutoTiering baseline.
    AutoTiering,
    /// TPP with paper-default settings.
    Tpp,
    /// TPP with explicit knobs (ablations, page-type-aware allocation).
    TppCustom(TppConfig),
    /// zswap/zram-style in-memory swapping (extra baseline, paper §7).
    InMemorySwap,
}

impl PolicyChoice {
    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn PlacementPolicy> {
        match self {
            PolicyChoice::Linux => Box::new(LinuxDefault::new()),
            PolicyChoice::NumaBalancing => Box::new(NumaBalancing::new()),
            PolicyChoice::AutoTiering => Box::new(AutoTiering::new()),
            PolicyChoice::Tpp => Box::new(Tpp::new()),
            PolicyChoice::TppCustom(cfg) => Box::new(Tpp::with_config(*cfg)),
            PolicyChoice::InMemorySwap => Box::new(InMemorySwap::new()),
        }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyChoice::Linux => "linux",
            PolicyChoice::NumaBalancing => "numa_balancing",
            PolicyChoice::AutoTiering => "autotiering",
            PolicyChoice::Tpp => "tpp",
            PolicyChoice::TppCustom(_) => "tpp*",
            PolicyChoice::InMemorySwap => "inmem_swap",
        }
    }
}

/// A self-contained description of one experiment cell.
///
/// Every field is plain data, so a spec is `Send + Sync`, a batch of
/// specs can be shared across a thread scope, and two specs that describe
/// the same run compare equal. Every run builds a fresh machine from
/// [`CellSpec::machine`] on the thread that runs it.
#[derive(Clone, PartialEq, Debug)]
pub struct CellSpec {
    /// Workload to run.
    pub profile: WorkloadProfile,
    /// Machine to run it on.
    pub machine: MachineSpec,
    /// Policy selection.
    pub choice: PolicyChoice,
    /// Simulated run duration, ns.
    pub duration_ns: u64,
    /// RNG seed.
    pub seed: u64,
}

impl CellSpec {
    /// Describes a cell: `profile` on `machine` under `choice` for
    /// `duration_ns` simulated time.
    pub fn new(
        profile: WorkloadProfile,
        machine: MachineSpec,
        choice: PolicyChoice,
        duration_ns: u64,
        seed: u64,
    ) -> CellSpec {
        CellSpec {
            profile,
            machine,
            choice,
            duration_ns,
            seed,
        }
    }

    /// Builds the ready-to-run, untraced system for this cell.
    ///
    /// # Errors
    ///
    /// [`UnsupportedConfig`] if the policy rejects the machine.
    pub fn build_system(&self) -> Result<System, UnsupportedConfig> {
        System::new(
            self.machine.build(),
            self.choice.build(),
            Box::new(self.profile.build()),
            self.seed,
        )
    }

    /// Runs the cell to completion and reduces it (see [`run_cell`]).
    ///
    /// # Errors
    ///
    /// [`UnsupportedConfig`] if the policy rejects the machine.
    pub fn run(&self) -> Result<ExperimentResult, UnsupportedConfig> {
        run_cell(
            &self.profile,
            self.machine.build(),
            &self.choice,
            self.duration_ns,
            self.seed,
        )
    }
}

/// The reduced outcome of one experiment cell.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Policy label.
    pub policy: String,
    /// Workload name.
    pub workload: String,
    /// Steady-state throughput, ops/s (second half of the run).
    pub throughput: f64,
    /// Steady-state fraction of accesses served locally.
    pub local_traffic: f64,
    /// Fraction of resident anon pages on the local node at run end.
    pub anon_resident_local: f64,
    /// Fraction of resident file pages on the local node at run end.
    pub file_resident_local: f64,
    /// Mean access latency over the run, ns.
    pub avg_latency_ns: f64,
    /// Final vmstat counters.
    pub vmstat: VmStat,
    /// Full time series for figure rendering.
    pub metrics: RunMetrics,
    /// Simulated run duration, ns.
    pub duration_ns: u64,
    /// Number of memory nodes in the machine.
    pub node_count: usize,
    /// Successful page migrations by direction, row-major
    /// `[from * node_count + to]` (the src→dst matrix telemetry keeps
    /// per machine).
    pub migration_matrix: Vec<u64>,
}

impl ExperimentResult {
    /// Throughput of this run relative to `baseline` (1.0 = equal).
    pub fn relative_throughput(&self, baseline: &ExperimentResult) -> f64 {
        if baseline.throughput == 0.0 {
            0.0
        } else {
            self.throughput / baseline.throughput
        }
    }

    /// Total pages demoted during the run.
    pub fn demoted(&self) -> u64 {
        self.vmstat.demoted_total()
    }

    /// Total pages promoted during the run.
    pub fn promoted(&self) -> u64 {
        self.vmstat.promoted_total()
    }

    /// Pages written to swap during the run.
    pub fn swap_outs(&self) -> u64 {
        self.vmstat.get(VmEvent::PswpOut)
    }

    /// Successful migrations from `from` to `to` during the run.
    pub fn migrations_between(&self, from: NodeId, to: NodeId) -> u64 {
        self.migration_matrix[from.index() * self.node_count + to.index()]
    }
}

/// Runs one cell: `profile` on `memory` under `choice` for `duration_ns`
/// simulated time. Steady-state quantities are measured over the second
/// half of the run.
///
/// # Errors
///
/// [`UnsupportedConfig`] if the policy rejects the machine.
pub fn run_cell(
    profile: &WorkloadProfile,
    memory: Memory,
    choice: &PolicyChoice,
    duration_ns: u64,
    seed: u64,
) -> Result<ExperimentResult, UnsupportedConfig> {
    let workload = profile.build();
    let mut system = System::new(memory, choice.build(), Box::new(workload), seed)?;
    system.run(duration_ns);
    Ok(reduce(system, choice.label(), &profile.name, duration_ns))
}

/// Reduces a finished system run to an [`ExperimentResult`].
pub fn reduce(system: System, policy: &str, workload: &str, duration_ns: u64) -> ExperimentResult {
    let half = duration_ns / 2;
    let metrics = system.metrics().clone();
    let memory = system.memory();
    let (mut anon_local, mut file_local) = (0u64, 0u64);
    let (mut anon_total, mut file_total) = (0u64, 0u64);
    for i in 0..memory.node_count() {
        let node = NodeId(i as u8);
        let (a, f) = memory.node_usage(node);
        anon_total += a;
        file_total += f;
        if !memory.node(node).is_cpu_less() {
            anon_local += a;
            file_local += f;
        }
    }
    ExperimentResult {
        policy: policy.to_string(),
        workload: workload.to_string(),
        throughput: metrics.steady_throughput(half, u64::MAX),
        local_traffic: metrics.steady_local_traffic(half, u64::MAX),
        anon_resident_local: tiered_sim::fraction(anon_local, anon_total),
        file_resident_local: tiered_sim::fraction(file_local, file_total),
        avg_latency_ns: metrics.avg_access_latency_ns(),
        vmstat: memory.vmstat().clone(),
        node_count: memory.node_count(),
        migration_matrix: memory.migration_matrix().to_vec(),
        metrics,
        duration_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use tiered_sim::SEC;

    #[test]
    fn cells_run_and_reduce() {
        let profile = tiered_workloads::uniform(2_000);
        let memory = configs::two_to_one(2_500);
        let r = run_cell(&profile, memory, &PolicyChoice::Tpp, 2 * SEC, 1).unwrap();
        assert_eq!(r.policy, "tpp");
        assert_eq!(r.workload, "uniform");
        assert!(r.throughput > 0.0);
        assert!((0.0..=1.0).contains(&r.local_traffic));
        assert!((0.0..=1.0).contains(&r.anon_resident_local));
        assert!(r.avg_latency_ns >= 100.0);
        // The src→dst migration matrix is carried over from the machine
        // and agrees with the scalar counter.
        assert_eq!(r.node_count, 2);
        assert_eq!(r.migration_matrix.len(), 4);
        assert_eq!(
            r.migration_matrix.iter().sum::<u64>(),
            r.vmstat.get(tiered_mem::VmEvent::PgMigrateSuccess)
        );
        assert_eq!(
            r.migrations_between(NodeId(0), NodeId(1)),
            r.migration_matrix[1]
        );
    }

    #[test]
    fn cell_spec_is_send_sync_and_matches_run_cell() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CellSpec>();

        let spec = CellSpec::new(
            tiered_workloads::uniform(2_000),
            MachineSpec::new(configs::Shape::Ratio(2, 1), 2_500),
            PolicyChoice::Tpp,
            2 * SEC,
            1,
        );
        let via_spec = spec.run().unwrap();
        let direct = run_cell(
            &tiered_workloads::uniform(2_000),
            configs::two_to_one(2_500),
            &PolicyChoice::Tpp,
            2 * SEC,
            1,
        )
        .unwrap();
        assert_eq!(via_spec.throughput, direct.throughput);
        assert_eq!(via_spec.local_traffic, direct.local_traffic);
        assert_eq!(via_spec.vmstat, direct.vmstat);
    }

    #[test]
    fn autotiering_rejects_one_to_four() {
        let profile = tiered_workloads::uniform(2_000);
        let memory = configs::one_to_four(2_500);
        let err = run_cell(&profile, memory, &PolicyChoice::AutoTiering, SEC, 1).unwrap_err();
        assert_eq!(err.policy, "autotiering");
    }

    #[test]
    fn relative_throughput_math() {
        let profile = tiered_workloads::uniform(1_000);
        let memory = configs::all_local(1_000);
        let a = run_cell(&profile, memory.clone(), &PolicyChoice::Linux, SEC, 1).unwrap();
        let rel = a.relative_throughput(&a);
        assert!((rel - 1.0).abs() < 1e-12);
    }

    #[test]
    fn policy_choice_labels_and_builders_agree() {
        for choice in [
            PolicyChoice::Linux,
            PolicyChoice::NumaBalancing,
            PolicyChoice::AutoTiering,
            PolicyChoice::Tpp,
            PolicyChoice::InMemorySwap,
        ] {
            let built = choice.build();
            assert_eq!(built.name(), choice.label());
        }
    }
}
