//! Reproducibility: every experiment is a pure function of its seed.

use tiered_mem::telemetry::write_jsonl;
use tiered_sim::SEC;
use tpp::configs::{self, MachineSpec, Shape};
use tpp::experiment::{reduce, run_cell, CellSpec, ExperimentResult, PolicyChoice};

fn fingerprint(seed: u64) -> (u64, u64, String) {
    let profile = tiered_workloads::cache1(3_000);
    let r = run_cell(
        &profile,
        configs::one_to_four(profile.working_set_pages()),
        &PolicyChoice::Tpp,
        20 * SEC,
        seed,
    )
    .unwrap();
    (
        r.metrics.ops_completed,
        r.metrics.accesses,
        r.vmstat.to_string(),
    )
}

#[test]
fn identical_seeds_reproduce_bit_for_bit() {
    let a = fingerprint(123);
    let b = fingerprint(123);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2, "vmstat counters must match exactly");
}

#[test]
fn different_seeds_diverge() {
    let a = fingerprint(1);
    let b = fingerprint(2);
    // Ops counts almost surely differ; if not, the full counter dump must.
    assert!(a != b, "different seeds produced identical runs");
}

/// The Cache1 1:4 TPP cell of `seed`.
fn cache1_cell(seed: u64) -> CellSpec {
    let profile = tiered_workloads::cache1(3_000);
    let machine = MachineSpec::new(Shape::Ratio(1, 4), profile.working_set_pages());
    CellSpec::new(profile, machine, PolicyChoice::Tpp, 10 * SEC, seed)
}

/// Runs `spec` traced; returns its JSONL trace and its reduced result.
fn run_traced(spec: &CellSpec) -> (Vec<u8>, ExperimentResult) {
    let mut system = spec.build_system().unwrap();
    system.enable_trace();
    system.run(spec.duration_ns);
    let mut jsonl = Vec::new();
    write_jsonl(&system.take_trace(), &mut jsonl).unwrap();
    let label = spec.choice.label();
    let result = reduce(system, label, &spec.profile.name, spec.duration_ns);
    (jsonl, result)
}

fn jsonl_trace(seed: u64) -> Vec<u8> {
    run_traced(&cache1_cell(seed)).0
}

#[test]
fn identical_seeds_produce_byte_identical_jsonl_traces() {
    let a = jsonl_trace(77);
    let b = jsonl_trace(77);
    assert!(!a.is_empty(), "trace must not be empty");
    assert_eq!(a, b, "same seed must reproduce the exact event stream");
    // And a different seed produces a different stream.
    assert_ne!(a, jsonl_trace(78));
}

#[test]
fn executor_at_four_jobs_matches_sequential_byte_for_byte() {
    // Four Cache1 1:4 cells under TPP (distinct seeds), each traced: run
    // the batch sequentially and on 4 executor workers, then require
    // byte-identical JSONL traces and identical reduced results.
    let seeds = [101u64, 102, 103, 104];
    let specs: Vec<_> = seeds.iter().map(|&s| cache1_cell(s)).collect();
    let seq: Vec<_> = specs.iter().map(run_traced).collect();
    let par = tpp_bench::executor::parallel_map(4, specs.len(), |i| run_traced(&specs[i]));

    for (i, &seed) in seeds.iter().enumerate() {
        let ((a, seq), (b, par)) = (&seq[i], &par[i]);
        assert!(!a.is_empty(), "trace for seed {seed} must not be empty");
        assert_eq!(a, b, "seed {seed}: executor trace diverged from sequential");
        assert_eq!(seq.policy, par.policy);
        assert_eq!(seq.throughput, par.throughput);
        assert_eq!(seq.local_traffic, par.local_traffic);
        assert_eq!(seq.avg_latency_ns, par.avg_latency_ns);
        assert_eq!(
            seq.vmstat, par.vmstat,
            "seed {seed}: vmstat counters diverged under the executor"
        );
    }
}

#[test]
fn thp_sweep_is_identical_at_any_job_count() {
    // The THP grid runs huge-page daemons (khugepaged/kcompactd) inside
    // every non-`never` cell; the table must still be a pure function of
    // the specs, independent of executor parallelism. Each side is its
    // own batch, so each really runs every cell.
    let scale = tpp_bench::Scale {
        ws_pages: 2_000,
        duration_ns: 15 * SEC,
        ..tpp_bench::Scale::quick()
    };
    let table = |jobs| {
        let plan = tpp_bench::sweeps::sweep_thp(&scale);
        let batch = tpp_bench::executor::run(std::slice::from_ref(&plan), jobs);
        // 2 baselines + 2 workloads x 2 policies x 3 modes, all distinct.
        assert_eq!((batch.jobs_run(), batch.jobs_reused()), (14, 0));
        batch.table(plan)
    };
    assert_eq!(
        table(1),
        table(4),
        "thp sweep rows diverged between jobs=1 and jobs=4"
    );
}

#[test]
fn policies_share_the_same_workload_stream_per_seed() {
    // Two different policies under the same seed must see the same op
    // structure (determinism of the workload generator, independent of
    // placement decisions feeding back into timing).
    let profile = tiered_workloads::uniform(2_000);
    let machine = || configs::all_local(profile.working_set_pages());
    let a = run_cell(&profile, machine(), &PolicyChoice::Linux, 10 * SEC, 5).unwrap();
    let b = run_cell(&profile, machine(), &PolicyChoice::Tpp, 10 * SEC, 5).unwrap();
    // On an uncontended all-local machine both policies make identical
    // placement decisions, so everything matches.
    assert_eq!(a.metrics.ops_completed, b.metrics.ops_completed);
    assert_eq!(a.metrics.accesses, b.metrics.accesses);
}

/// Runs `cache1 + data_warehouse` co-located on one 2:1 machine and
/// returns per-lane `(ops_completed, accesses)`, the vmstat dump, the
/// global clock and the migration matrix.
fn colocated_fingerprint(choice: &PolicyChoice) -> (Vec<(u64, u64)>, String, u64, Vec<u64>) {
    let cache = tiered_workloads::cache1(1_500);
    let warehouse = tiered_workloads::data_warehouse(1_500);
    let machine = configs::two_to_one(cache.working_set_pages() + warehouse.working_set_pages());
    let mut system = tpp::MultiSystem::new(
        machine,
        choice.build(),
        vec![Box::new(cache.build()), Box::new(warehouse.build())],
        42,
    )
    .unwrap();
    system.run(3 * SEC);
    let lanes = (0..system.lane_count())
        .map(|i| {
            let m = system.lane_metrics(i);
            (m.ops_completed, m.accesses)
        })
        .collect();
    (
        lanes,
        system.memory().vmstat().to_string(),
        system.now_ns(),
        system.memory().migration_matrix().to_vec(),
    )
}

/// A co-located run's output, pinned exactly: per-lane ops and
/// accesses, the non-zero vmstat counters, the global clock and the
/// src→dst migration matrix.
struct Golden {
    lanes: [(u64, u64); 2],
    vmstat: &'static str,
    now_ns: u64,
    matrix: [u64; 4],
}

#[test]
fn colocated_runs_match_golden_values() {
    let cases = [
        (
            PolicyChoice::Linux,
            Golden {
                lanes: [(81_481, 571_875), (62_065, 561_209)],
                vmstat: "pgfault 3468 pgalloc_local 2423 pgalloc_remote 1045 pgsteal 12 \
                         pgscan 1409 pswpout 12",
                now_ns: 3_000_017_320,
                matrix: [0, 0, 0, 0],
            },
        ),
        (
            PolicyChoice::Tpp,
            Golden {
                lanes: [(81_782, 573_982), (63_843, 577_211)],
                vmstat: "pgfault 3468 pgalloc_local 2423 pgalloc_remote 1045 pgscan 1612 \
                         pgactivate 2 pgdemote_file 204 numa_pte_updates 1917 \
                         numa_hint_faults 805 pgpromote_candidate 803 \
                         pgpromote_candidate_demoted 1 pgpromote_attempt 137 \
                         pgpromote_success_anon 136 pgpromote_success_file 1 \
                         pgpromote_fail_lowmem 666 pgpromote_skip_inactive 2 \
                         pgmigrate_success 341",
                now_ns: 3_000_018_040,
                matrix: [0, 204, 137, 0],
            },
        ),
        (
            PolicyChoice::AutoTiering,
            Golden {
                lanes: [(81_478, 571_854), (62_549, 565_565)],
                vmstat: "pgfault 3468 pgalloc_local 2423 pgalloc_remote 1045 pgscan 1423 \
                         pgdemote_file 24 numa_pte_updates 1916 numa_hint_faults 863 \
                         pgpromote_candidate 862 pgpromote_attempt 16 \
                         pgpromote_success_anon 16 pgpromote_fail_lowmem 846 \
                         pgmigrate_success 40",
                now_ns: 3_000_017_640,
                matrix: [0, 24, 16, 0],
            },
        ),
    ];
    for (choice, want) in cases {
        let (lanes, vmstat, now_ns, matrix) = colocated_fingerprint(&choice);
        let label = choice.label();
        assert_eq!(lanes, want.lanes, "{label}: per-lane (ops, accesses)");
        let nonzero: Vec<&str> = vmstat.lines().filter(|l| !l.ends_with(" 0")).collect();
        assert_eq!(nonzero.join(" "), want.vmstat, "{label}: vmstat");
        assert_eq!(now_ns, want.now_ns, "{label}: clock");
        assert_eq!(matrix, want.matrix, "{label}: migration matrix");
    }
}
