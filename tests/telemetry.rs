//! Telemetry integration: counter↔trace parity across every policy,
//! mid-run sink attachment, decision-reason coverage, and the §5.5
//! ping-pong diagnosis on a thrashing configuration.

use tiered_mem::telemetry::{replay_counters, RingSink, TRACED_COUNTERS};
use tiered_mem::{TraceEvent, VmEvent};
use tiered_sim::SEC;
use tpp::experiment::PolicyChoice;
use tpp::metrics::{decision_summary, ping_pong_report};
use tpp::{configs, System};

/// Runs `choice` on a pressured 2:1 machine with an unbounded ring
/// attached from the start; returns the ring and the finished system.
fn traced_run(choice: &PolicyChoice, duration_ns: u64) -> (RingSink, System) {
    let profile = tiered_workloads::cache1(4_000);
    let machine = configs::two_to_one(profile.working_set_pages());
    let mut system = System::new(machine, choice.build(), Box::new(profile.build()), 11).unwrap();
    let ring = RingSink::unbounded();
    system.set_event_sink(Box::new(ring.clone()));
    system.run(duration_ns);
    (ring, system)
}

const ALL_POLICIES: [PolicyChoice; 5] = [
    PolicyChoice::Linux,
    PolicyChoice::NumaBalancing,
    PolicyChoice::AutoTiering,
    PolicyChoice::Tpp,
    PolicyChoice::InMemorySwap,
];

#[test]
fn counters_equal_trace_event_counts_for_every_policy() {
    for choice in &ALL_POLICIES {
        let (ring, system) = traced_run(choice, 8 * SEC);
        let records = ring.snapshot();
        assert!(!records.is_empty(), "{}: empty trace", choice.label());
        let replayed = replay_counters(&records);
        let vm = system.memory().vmstat();
        for &event in TRACED_COUNTERS {
            assert_eq!(
                vm.get(event),
                replayed.get(event),
                "{}: counter {} disagrees with the trace",
                choice.label(),
                event.name()
            );
        }
    }
}

#[test]
fn counters_equal_trace_event_counts_for_colocated_lanes() {
    // Two processes share the machine, its daemons and its one trace:
    // every counted event of either lane must appear in the trace.
    let cache = tiered_workloads::cache1(2_000);
    let warehouse = tiered_workloads::data_warehouse(2_000);
    let ws = cache.working_set_pages() + warehouse.working_set_pages();
    for choice in &ALL_POLICIES {
        let mut system = System::colocated(
            configs::two_to_one(ws),
            choice.build(),
            vec![Box::new(cache.build()), Box::new(warehouse.build())],
            11,
        )
        .unwrap();
        let ring = RingSink::unbounded();
        system.set_event_sink(Box::new(ring.clone()));
        system.run(4 * SEC);
        let replayed = replay_counters(&ring.snapshot());
        let vm = system.memory().vmstat();
        for &event in TRACED_COUNTERS {
            assert_eq!(
                vm.get(event),
                replayed.get(event),
                "{}: counter {} disagrees with the trace",
                choice.label(),
                event.name()
            );
        }
    }
}

#[test]
fn counter_deltas_equal_event_counts_after_midrun_attach() {
    // Attaching the sink mid-run must make the *delta* of every traced
    // counter equal the ring's event counts: record() bumps both from
    // one call, so the trace covers exactly the attached window.
    let profile = tiered_workloads::cache1(4_000);
    let machine = configs::two_to_one(profile.working_set_pages());
    let mut system = System::new(
        machine,
        PolicyChoice::Tpp.build(),
        Box::new(profile.build()),
        11,
    )
    .unwrap();
    system.run(4 * SEC);
    let before = system.memory().vmstat().clone();
    let ring = RingSink::unbounded();
    system.set_event_sink(Box::new(ring.clone()));
    system.run(4 * SEC);
    let delta = system.memory().vmstat().delta_since(&before);
    let replayed = replay_counters(&ring.snapshot());
    for &event in TRACED_COUNTERS {
        assert_eq!(
            delta.get(event),
            replayed.get(event),
            "delta of {} disagrees with the attached-window trace",
            event.name()
        );
    }
}

#[test]
fn every_policy_emits_a_decision_reason_event() {
    for choice in &ALL_POLICIES {
        // In-memory swap only reasons on allocation stalls (its tick
        // reclaims silently into the pool), so give it a machine smaller
        // than the working set to force the stall path.
        let (ring, _) = if matches!(choice, PolicyChoice::InMemorySwap) {
            let profile = tiered_workloads::cache1(4_000);
            let machine = configs::two_to_one(2_500);
            let mut system =
                System::new(machine, choice.build(), Box::new(profile.build()), 11).unwrap();
            let ring = RingSink::unbounded();
            system.set_event_sink(Box::new(ring.clone()));
            system.run(8 * SEC);
            (ring, system)
        } else {
            traced_run(choice, 8 * SEC)
        };
        let records = ring.snapshot();
        let reasons = records
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    TraceEvent::Decision { .. }
                        | TraceEvent::PromoteFail { .. }
                        | TraceEvent::PromoteSkip { .. }
                )
            })
            .count();
        assert!(
            reasons > 0,
            "{}: no decision-reason events in a pressured run",
            choice.label()
        );
    }
}

#[test]
fn fallback_policies_attribute_decisions_to_themselves() {
    // The shared allocation path (fault_with_fallback) tags its decision
    // events with the calling policy's name, not a generic label.
    for choice in [
        PolicyChoice::Linux,
        PolicyChoice::Tpp,
        PolicyChoice::NumaBalancing,
    ] {
        let (ring, _) = traced_run(&choice, 8 * SEC);
        let summary = decision_summary(&ring.snapshot());
        assert!(
            summary
                .iter()
                .any(|s| s.policy == choice.label() && s.total() > 0),
            "{}: no decisions attributed to the policy (got: {:?})",
            choice.label(),
            summary.iter().map(|s| s.policy.clone()).collect::<Vec<_>>()
        );
    }
}

#[test]
fn ping_pong_report_reproduces_the_candidate_demoted_diagnosis() {
    // Paper §5.5: under memory pressure the pgpromote_candidate_demoted
    // counter reveals promotion/demotion ping-pong — promotion candidates
    // that the demotion daemon had just pushed to CXL. The 1:4 machine
    // (local holds ~20% of the working set) thrashes by construction.
    let profile = tiered_workloads::cache1(4_000);
    let machine = configs::one_to_four(profile.working_set_pages());
    let mut system = System::new(
        machine,
        PolicyChoice::Tpp.build(),
        Box::new(profile.build()),
        11,
    )
    .unwrap();
    let ring = RingSink::unbounded();
    system.set_event_sink(Box::new(ring.clone()));
    system.run(20 * SEC);
    let report = ping_pong_report(&ring.snapshot());
    let vm = system.memory().vmstat();
    // The trace-derived report agrees with the kernel-style counter...
    assert_eq!(
        report.candidates_recently_demoted,
        vm.get(VmEvent::PgPromoteCandidateDemoted)
    );
    assert_eq!(
        report.promote_candidates,
        vm.get(VmEvent::PgPromoteCandidate)
    );
    // ...and diagnoses actual churn: recently-demoted pages coming back
    // as promotion candidates, some completing full round trips.
    assert!(
        report.candidates_recently_demoted > 0,
        "no ping-pong candidates observed: {report:?}"
    );
    assert!(
        report.round_trips > 0,
        "no demote→promote round trips: {report:?}"
    );
    assert!(report.ping_pong_pages > 0);
}

#[test]
fn untraced_runs_are_numerically_identical_to_traced_ones() {
    let run = |traced: bool| {
        let profile = tiered_workloads::cache1(4_000);
        let machine = configs::two_to_one(profile.working_set_pages());
        let mut system = System::new(
            machine,
            PolicyChoice::Tpp.build(),
            Box::new(profile.build()),
            11,
        )
        .unwrap();
        if traced {
            system.set_event_sink(Box::new(RingSink::unbounded()));
        }
        system.run(6 * SEC);
        (
            system.metrics().ops_completed,
            system.metrics().accesses,
            system.now_ns(),
            system.memory().vmstat().to_string(),
        )
    };
    assert_eq!(
        run(false),
        run(true),
        "tracing must not perturb the simulation"
    );
}
