//! Cross-product invariant matrix: every policy (and TPP with
//! page-type-aware allocation) under every THP mode, on every topology
//! preset, with one workload and with two co-located ones.
//!
//! Each cell runs in daemon-tick-sized chunks with `Memory::validate()`
//! after every chunk, and ends with three identities:
//!
//! * the src→dst migration matrix sums to `pgmigrate_success`;
//! * counters replayed from the trace equal vmstat for every traced
//!   counter;
//! * every `PromoteSuccess` and `Demote` is recorded right after the
//!   `Migrate` of the same page between the same nodes;
//! * no promotion fails as `Busy`: hint faults reach only compound heads
//!   and base pages, so a promotion can only fail for want of memory
//!   (a compound head promoted with `migrate_page` would fail here).
//!
//! Cells the policy rejects through `validate_config` are skipped and
//! counted. The working set and duration are small so the whole matrix
//! fits a debug `cargo test`; the cross-product itself is never reduced.

use tiered_mem::telemetry::{replay_counters, TraceRecord, TRACED_COUNTERS};
use tiered_mem::{Memory, ThpMode, TraceEvent, VmEvent};
use tiered_sim::{Workload, MS};
use tpp::experiment::PolicyChoice;
use tpp::policy::TppConfig;
use tpp::{configs, System};

/// Working set of the whole cell, split evenly between co-located lanes.
const WS_PAGES: u64 = 4_096;
/// Simulated time per cell.
const DURATION_NS: u64 = 6_000 * MS;
/// One daemon tick: the run chunk between `validate()` calls.
const CHUNK_NS: u64 = 50 * MS;
const MODES: [ThpMode; 3] = [ThpMode::Never, ThpMode::Madvise, ThpMode::Always];
const MACHINES: [&str; 4] = ["two_to_one", "2s2c", "pooled", "3tier"];

/// The named machine, rebuilt from its preset's topology with `mode`.
fn machine(name: &str, mode: ThpMode) -> Memory {
    let preset = match name {
        "two_to_one" => configs::two_to_one(WS_PAGES),
        other => configs::topology_preset(other, WS_PAGES),
    };
    Memory::builder()
        .topology(preset.topology().clone())
        .swap_pages(WS_PAGES * 4)
        .thp_mode(mode)
        .build()
}

fn workloads(lanes: usize) -> Vec<Box<dyn Workload>> {
    if lanes == 1 {
        vec![Box::new(tiered_workloads::cache1(WS_PAGES).build())]
    } else {
        vec![
            Box::new(tiered_workloads::cache1(WS_PAGES / 2).build()),
            Box::new(tiered_workloads::data_warehouse(WS_PAGES / 2).build()),
        ]
    }
}

/// Checks that the record before every `PromoteSuccess` or `Demote` is
/// the `Migrate` that moved it.
fn check_pairing(records: &[TraceRecord], cell: &str) {
    for (i, r) in records.iter().enumerate() {
        let (page, from, to) = match r.event {
            TraceEvent::PromoteSuccess { page, from, to, .. }
            | TraceEvent::Demote { page, from, to, .. } => (page, from, to),
            _ => continue,
        };
        let migrated = i > 0
            && matches!(records[i - 1].event, TraceEvent::Migrate { page: p, from: f, to: t }
                if p == page && f == from && t == to);
        assert!(migrated, "{cell}: {:?} without its Migrate", r.event);
    }
}

/// Runs one cell; returns `false` if the policy rejected the machine.
fn run_cell(choice: &PolicyChoice, name: &str, mode: ThpMode, lanes: usize) -> bool {
    let cell = format!("{} {name} {mode} {lanes} lane(s)", choice.label());
    let Ok(mut system) =
        System::colocated(machine(name, mode), choice.build(), workloads(lanes), 5)
    else {
        return false;
    };
    system.enable_trace();
    let mut replayed = vec![0u64; TRACED_COUNTERS.len()];
    let mut elapsed = 0;
    while elapsed < DURATION_NS {
        system.run(CHUNK_NS);
        elapsed += CHUNK_NS;
        system.memory().validate();
        let records = system.take_trace();
        check_pairing(&records, &cell);
        let vm = replay_counters(&records);
        for (total, &event) in replayed.iter_mut().zip(TRACED_COUNTERS) {
            *total += vm.get(event);
        }
    }
    let memory = system.memory();
    let vm = memory.vmstat();
    assert_eq!(
        memory.migration_matrix().iter().sum::<u64>(),
        vm.get(VmEvent::PgMigrateSuccess),
        "{cell}: migration matrix does not sum to pgmigrate_success"
    );
    assert_eq!(
        vm.get(VmEvent::PgPromoteFailBusy),
        0,
        "{cell}: busy promotion"
    );
    // Sampler wiring: linux and inmem_swap install no hint PTEs; TPP and
    // AutoTiering sample CXL nodes only, so no hint fault lands locally.
    let unsampled = match choice {
        PolicyChoice::Linux | PolicyChoice::InMemorySwap => Some(VmEvent::NumaHintFaults),
        PolicyChoice::Tpp | PolicyChoice::TppCustom(_) | PolicyChoice::AutoTiering => {
            Some(VmEvent::NumaHintFaultsLocal)
        }
        PolicyChoice::NumaBalancing => None,
    };
    if let Some(event) = unsampled {
        assert_eq!(vm.get(event), 0, "{cell}: {} is not zero", event.name());
    }
    for (&total, &event) in replayed.iter().zip(TRACED_COUNTERS) {
        assert_eq!(
            vm.get(event),
            total,
            "{cell}: counter {} disagrees with the trace",
            event.name()
        );
    }
    true
}

/// Runs every cell of `choice`'s slice of the matrix; returns how many
/// cells `validate_config` rejected.
fn run_policy(choice: PolicyChoice) -> usize {
    let mut skipped = 0;
    for name in MACHINES {
        for mode in MODES {
            for lanes in [1, 2] {
                if !run_cell(&choice, name, mode, lanes) {
                    skipped += 1;
                }
            }
        }
    }
    eprintln!(
        "matrix {}: {} cells run, {skipped} skipped by validate_config",
        choice.label(),
        MACHINES.len() * MODES.len() * 2 - skipped
    );
    skipped
}

#[test]
fn matrix_linux() {
    assert_eq!(run_policy(PolicyChoice::Linux), 0);
}

#[test]
fn matrix_numa_balancing() {
    assert_eq!(run_policy(PolicyChoice::NumaBalancing), 0);
}

#[test]
fn matrix_autotiering() {
    // AutoTiering rejects machines with more than 3× as much CXL as DRAM;
    // none of the four presets is that lopsided.
    assert_eq!(run_policy(PolicyChoice::AutoTiering), 0);
}

#[test]
fn matrix_tpp() {
    assert_eq!(run_policy(PolicyChoice::Tpp), 0);
}

#[test]
fn matrix_tpp_cache_to_cxl() {
    let config = TppConfig {
        cache_to_cxl: true,
        ..TppConfig::default()
    };
    assert_eq!(run_policy(PolicyChoice::TppCustom(config)), 0);
}

#[test]
fn matrix_inmem_swap() {
    assert_eq!(run_policy(PolicyChoice::InMemorySwap), 0);
}
