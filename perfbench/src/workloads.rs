//! The four benchmark workloads. Each is a full simulated run built from
//! the public `tpp`, `tiered_mem` and `tiered_workloads` APIs; the seed is
//! the only input the benchmark chooses.

use tiered_mem::{Memory, NodeKind, ThpMode};
use tiered_sim::{Workload as SimWorkload, SEC};
use tpp::policy::{AutoTiering, LinuxDefault, PlacementPolicy, Tpp, UnsupportedConfig};
use tpp::{configs, MultiSystem, RunMetrics, System};

use crate::trace::Tracer;

/// Working-set size of every workload, in pages (the `repro` standard
/// scale).
pub const WS_PAGES: u64 = 24_000;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `kv_store` on an all-local machine under default Linux, THP never:
    /// the pure access path, with idle daemons.
    LocalSteady,
    /// `cache1` on the 1:4 machine under TPP, THP never: the paper's
    /// memory-expansion stress case (Fig 16).
    TppExpand,
    /// `fragmenter` on a 2:1 machine with THP always under TPP: allocator
    /// churn, fault-time THP, khugepaged/kcompactd and split-on-demote.
    ThpChurn,
    /// `cache1` + `data_warehouse` sharing one 2:1 machine under
    /// AutoTiering, THP never: the co-located runner.
    Colocated,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::LocalSteady,
        Workload::TppExpand,
        Workload::ThpChurn,
        Workload::Colocated,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LocalSteady => "local_steady",
            Workload::TppExpand => "tpp_expand",
            Workload::ThpChurn => "thp_churn",
            Workload::Colocated => "colocated",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated length of one repetition. Chosen so that one repetition
    /// takes one to three host seconds on a 2-CPU x86-64 VM, long enough
    /// for each workload's warm-up to finish inside the first half (the
    /// steady-state window).
    pub fn sim_duration_ns(self) -> u64 {
        match self {
            Workload::LocalSteady => 60 * SEC,
            Workload::TppExpand => 240 * SEC,
            Workload::ThpChurn => 30 * SEC,
            Workload::Colocated => 40 * SEC,
        }
    }

    /// Whether the simulated results have a paper reference. Only
    /// `tpp_expand` is the paper's own configuration.
    pub fn validated(self) -> bool {
        self == Workload::TppExpand
    }

    /// Builds the ready-to-run system. With a tracer, every workload and
    /// the policy are wrapped in its timing decorators.
    pub fn build(self, seed: u64, tracer: Option<&Tracer>) -> Result<Run, UnsupportedConfig> {
        let wrap_policy = |p: Box<dyn PlacementPolicy>| match tracer {
            Some(t) => t.wrap_policy(p),
            None => p,
        };
        let wrap_workload = |w: Box<dyn SimWorkload>| match tracer {
            Some(t) => t.wrap_workload(w),
            None => w,
        };
        let single = |profile: tiered_workloads::WorkloadProfile,
                      memory: Memory,
                      policy: Box<dyn PlacementPolicy>| {
            System::new(
                memory,
                wrap_policy(policy),
                wrap_workload(Box::new(profile.build())),
                seed,
            )
            .map(|s| Run::Single(Box::new(s)))
        };
        match self {
            Workload::LocalSteady => {
                let profile = tiered_workloads::kv_store(WS_PAGES);
                let memory = configs::all_local(profile.working_set_pages());
                single(profile, memory, Box::new(LinuxDefault::new()))
            }
            Workload::TppExpand => {
                let profile = tiered_workloads::cache1(WS_PAGES);
                let memory = configs::one_to_four(profile.working_set_pages());
                single(profile, memory, Box::new(Tpp::new()))
            }
            Workload::ThpChurn => {
                let profile = tiered_workloads::fragmenter(WS_PAGES);
                let memory = two_to_one_thp_always(profile.working_set_pages());
                single(profile, memory, Box::new(Tpp::new()))
            }
            Workload::Colocated => {
                let cache = tiered_workloads::cache1(WS_PAGES / 2);
                let warehouse = tiered_workloads::data_warehouse(WS_PAGES / 2);
                let memory =
                    configs::two_to_one(cache.working_set_pages() + warehouse.working_set_pages());
                MultiSystem::new(
                    memory,
                    wrap_policy(Box::new(AutoTiering::new())),
                    vec![
                        wrap_workload(Box::new(cache.build())),
                        wrap_workload(Box::new(warehouse.build())),
                    ],
                    seed,
                )
                .map(|m| Run::Multi(Box::new(m)))
            }
        }
    }
}

/// The all-local `cache1` run that `tpp_expand`'s simulated throughput is
/// compared against (the paper's Fig 16 baseline).
pub fn all_local_cache1(seed: u64) -> System {
    let profile = tiered_workloads::cache1(WS_PAGES);
    let memory = configs::all_local(profile.working_set_pages());
    System::new(
        memory,
        Box::new(LinuxDefault::new()),
        Box::new(profile.build()),
        seed,
    )
    .expect("default Linux runs on every machine")
}

/// `configs::two_to_one` with transparent huge pages always on.
fn two_to_one_thp_always(ws_pages: u64) -> Memory {
    let total = ws_pages * 105 / 100;
    let local = total * 2 / 3;
    let mut builder = Memory::builder();
    builder
        .node(NodeKind::LocalDram, local.max(64))
        .node(NodeKind::Cxl, (total - local).max(64))
        .swap_pages(ws_pages * 4)
        .thp_mode(ThpMode::Always);
    builder.build()
}

/// A built system of either runner.
pub enum Run {
    /// One workload on `core::system`.
    Single(Box<System>),
    /// Several workloads on `core::multi`.
    Multi(Box<MultiSystem>),
}

impl Run {
    /// Runs for `duration_ns` of simulated time.
    pub fn run(&mut self, duration_ns: u64) {
        match self {
            Run::Single(s) => s.run(duration_ns),
            Run::Multi(m) => m.run(duration_ns),
        }
    }

    /// The machine.
    pub fn memory(&self) -> &Memory {
        match self {
            Run::Single(s) => s.memory(),
            Run::Multi(m) => m.memory(),
        }
    }

    /// Simulated time reached.
    pub fn now_ns(&self) -> u64 {
        match self {
            Run::Single(s) => s.now_ns(),
            Run::Multi(m) => m.now_ns(),
        }
    }

    /// Each workload's metrics, in construction order.
    pub fn lanes(&self) -> Vec<&RunMetrics> {
        match self {
            Run::Single(s) => vec![s.metrics()],
            Run::Multi(m) => (0..m.lane_count()).map(|i| m.lane_metrics(i)).collect(),
        }
    }
}
