//! Property-style tests at the policy level: no sequence of workload
//! traffic, daemon activity, and machine shapes may ever violate the
//! substrate invariants, OOM a sanely-sized machine, or break
//! determinism — under *any* policy.
//!
//! Randomised cases are driven by a seeded [`SimRng`] loop (the crates
//! registry is unreachable, so no proptest): every case is a pure
//! function of the loop index and fully reproducible.

use tiered_sim::{SimRng, Workload, SEC};
use tpp::configs;
use tpp::experiment::PolicyChoice;
use tpp::policy::TppConfig;
use tpp::System;

fn pick_policy(rng: &mut SimRng) -> PolicyChoice {
    match rng.range(0..5) {
        0 => PolicyChoice::Linux,
        1 => PolicyChoice::NumaBalancing,
        2 => PolicyChoice::Tpp,
        3 => PolicyChoice::InMemorySwap,
        _ => PolicyChoice::TppCustom(TppConfig {
            decouple: rng.chance(0.5),
            active_lru_filter: rng.chance(0.5),
            cache_to_cxl: rng.chance(0.5),
        }),
    }
}

fn build_workload(which: u8, ws: u64) -> Box<dyn Workload> {
    let profile = match which % 5 {
        0 => tiered_workloads::uniform(ws),
        1 => tiered_workloads::web(ws),
        2 => tiered_workloads::cache1(ws),
        3 => tiered_workloads::cache2(ws),
        _ => tiered_workloads::data_warehouse(ws),
    };
    Box::new(profile.build())
}

fn workload_ws(which: u8, ws: u64) -> u64 {
    match which % 5 {
        0 => tiered_workloads::uniform(ws).working_set_pages(),
        1 => tiered_workloads::web(ws).working_set_pages(),
        2 => tiered_workloads::cache1(ws).working_set_pages(),
        3 => tiered_workloads::cache2(ws).working_set_pages(),
        _ => tiered_workloads::data_warehouse(ws).working_set_pages(),
    }
}

/// Any (policy × workload × ratio × seed) cell runs to completion with
/// all memory invariants intact.
#[test]
fn any_cell_preserves_invariants() {
    let mut rng = SimRng::seed(0x0A11_CE11);
    for case in 0..12u64 {
        let choice = pick_policy(&mut rng);
        let which = rng.range(0..5) as u8;
        let ratio_cxl = rng.range(1..5);
        let seed = rng.range(0..1000);
        let ws = 1_200;
        let total_ws = workload_ws(which, ws);
        let memory = configs::ratio(total_ws, 1, ratio_cxl);
        let system = System::new(memory, choice.build(), build_workload(which, ws), seed);
        let mut system = match system {
            Ok(s) => s,
            // AutoTiering-style rejections are legitimate outcomes.
            Err(_) => continue,
        };
        system.run(4 * SEC);
        system.memory().validate();
        assert!(
            system.metrics().ops_completed > 0,
            "case {case}: no ops completed"
        );
    }
}

/// Bit-level determinism holds for every policy and seed.
#[test]
fn any_cell_is_deterministic() {
    let mut rng = SimRng::seed(0x00D3_7E12);
    for case in 0..6u64 {
        let choice = pick_policy(&mut rng);
        let which = rng.range(0..5) as u8;
        let seed = rng.range(0..1000);
        let ws = 1_000;
        let total_ws = workload_ws(which, ws);
        let fingerprint = || {
            let memory = configs::two_to_one(total_ws);
            let mut system =
                System::new(memory, choice.build(), build_workload(which, ws), seed).unwrap();
            system.run(2 * SEC);
            (
                system.metrics().ops_completed,
                system.metrics().accesses,
                system.memory().vmstat().to_string(),
            )
        };
        assert_eq!(fingerprint(), fingerprint(), "case {case} diverged");
    }
}

/// The workload generators never emit accesses outside their declared
/// working set (VPN hygiene across all region/transient machinery).
#[test]
fn workloads_stay_inside_declared_footprint() {
    let mut meta = SimRng::seed(0xF007);
    for _case in 0..10u64 {
        let which = meta.range(0..5) as u8;
        let seed = meta.range(0..1000);
        let ws = 1_000;
        let mut workload = build_workload(which, ws);
        let declared = workload.working_set_pages();
        let mut rng = SimRng::seed(seed);
        let mut distinct = std::collections::HashSet::new();
        for i in 0..3000u64 {
            let op = workload.next_op(i * 2_000_000, &mut rng);
            for e in &op.events {
                if let tiered_sim::WorkloadEvent::Access(a) = e {
                    distinct.insert(a.vpn);
                }
            }
        }
        assert!(
            (distinct.len() as u64) <= declared,
            "workload {which}: {} distinct pages exceed declared {declared}",
            distinct.len()
        );
    }
}
