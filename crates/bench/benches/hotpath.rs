//! Micro-benchmarks for the per-access hot path: the three layers an
//! access flows through millions of times per simulated second —
//! workload rank sampling, region geometry + offset resolution, and the
//! system's access-resolution fast path — plus the two per-op layers
//! above them: one workload op's generation (into a fresh `Op`, and into
//! the reused buffer the run loop passes), and one whole op of a warmed
//! `System::run` (generation, resolution and daemon ticks) and the
//! once-per-second metrics sample that run takes.
//!
//! The `uniform` and single-region rows never switch regions. The
//! `cache1` rows draw anon or tmpfs at random on every access, the way
//! `tpp_expand` runs, so they see the cost of that alternation in
//! generation and in translation; `next_op_into_kv_store` (the
//! `local_steady` profile, 90/10 between its two regions) is their
//! control. Runs with `harness = false` on the in-tree
//! [`tpp_bench::microbench`] harness (no external deps).

use tpp_bench::microbench::{bench, bench_with_setup};

use tiered_mem::{PageLocation, PageType, Vpn};
use tiered_sim::{Access, AccessKind, SimRng, Workload, WorkloadEvent, SEC};
use tiered_workloads::{RegionSpec, WindowedRegion, WorkloadProfile, ZipfSampler};
use tpp::policy::Tpp;
use tpp::{configs, System};

/// Domain size for the sampler benches: the scale of a large region's
/// hot window, big enough that a CDF binary search would be ~20 probes.
const ZIPF_DOMAIN: u64 = 1_000_000;

fn bench_zipf_sample() {
    let zipf = ZipfSampler::new(ZIPF_DOMAIN, 0.8);
    let mut rng = SimRng::seed(42);
    bench("hotpath/zipf_sample", || {
        std::hint::black_box(zipf.sample(&mut rng));
    });
}

fn bench_region_sample() {
    let spec = RegionSpec::steady(0, ZIPF_DOMAIN, PageType::Anon, 0.3);
    let region = WindowedRegion::new(spec);
    let mut rng = SimRng::seed(43);
    // Advance time a little per draw so the geometry cache sees realistic
    // epoch churn (mostly hits, a miss whenever the dwell step rolls).
    let mut now = 0u64;
    bench("hotpath/region_sample", || {
        now += 1_000; // ~1 µs between accesses
        std::hint::black_box(region.sample(now, &mut rng));
    });
}

fn bench_execute_access_hot() {
    // A warmed-up system: every page of the working set mapped, so the
    // bench exercises the mapped-not-hinted fast path the run loop takes
    // for the overwhelming majority of accesses.
    let ws_pages = 20_000u64;
    let workload = tiered_workloads::uniform(ws_pages).build();
    let pid = workload.pid();
    let memory = configs::two_to_one(ws_pages + ws_pages / 2);
    let mut system = System::new(memory, Box::new(Tpp::new()), Box::new(workload), 44).unwrap();
    system.run(2 * SEC);
    let mapped: Vec<Vpn> = (0..ws_pages)
        .map(Vpn)
        .filter(|&v| {
            matches!(
                system.memory().space(pid).translate(v),
                Some(PageLocation::Mapped(_))
            )
        })
        .collect();
    assert!(
        mapped.len() as u64 > ws_pages / 4,
        "warm-up mapped only {} pages",
        mapped.len()
    );
    let now = system.now_ns();
    let mut i = 0usize;
    bench("hotpath/execute_access_hot", || {
        let access = Access {
            pid,
            vpn: mapped[i % mapped.len()],
            kind: AccessKind::Load,
            page_type: PageType::Anon,
        };
        i += 1;
        std::hint::black_box(system.resolve_access(now, &access));
    });
}

/// Working-set size of the per-op benches, in pages: the perfbench
/// `tpp_expand` scale.
const CACHE1_PAGES: u64 = 24_000;

fn bench_next_op_cache1() {
    // Steady-state op generation: past warm-up, with simulated time
    // advancing by each op's CPU time (the run loop adds memory stalls on
    // top, which only stretches the same schedule).
    let mut workload = tiered_workloads::cache1(CACHE1_PAGES).build();
    let mut rng = SimRng::seed(45);
    let mut now = 0u64;
    while workload.in_warmup() || now < 10 * SEC {
        now += workload.next_op(now, &mut rng).cpu_ns;
    }
    bench("hotpath/next_op_cache1", || {
        let op = workload.next_op(now, &mut rng);
        now += op.cpu_ns;
        std::hint::black_box(op);
    });
}

/// Times steady-state generation of `profile` the way the run loop drives
/// it: one event buffer, cleared and refilled for every op, from 10 s of
/// simulated time on (past warm-up).
fn bench_next_op_into(name: &str, profile: &WorkloadProfile) {
    let mut workload = profile.build();
    let mut rng = SimRng::seed(45);
    let mut now = 0u64;
    let mut events = Vec::new();
    while workload.in_warmup() || now < 10 * SEC {
        events.clear();
        now += workload.next_op_into(now, &mut rng, &mut events);
    }
    bench(name, || {
        events.clear();
        now += workload.next_op_into(now, &mut rng, &mut events);
        std::hint::black_box(&events);
    });
}

fn bench_next_op_into_cache1() {
    let profile = tiered_workloads::cache1(CACHE1_PAGES);
    bench_next_op_into("hotpath/next_op_into_cache1", &profile);
}

fn bench_next_op_into_kv_store() {
    // `local_steady`'s profile at the same scale: its region draw goes
    // 90/10, so the branch on it is mostly predicted.
    let profile = tiered_workloads::kv_store(CACHE1_PAGES);
    bench_next_op_into("hotpath/next_op_into_kv_store", &profile);
}

/// `tpp_expand`'s configuration (cache1 on the 1:4 machine under TPP),
/// run for 30 s of simulated time, past cache1's warm-up.
fn warmed_tpp_expand(profile: &WorkloadProfile) -> System {
    let memory = configs::one_to_four(profile.working_set_pages());
    let mut system =
        System::new(memory, Box::new(Tpp::new()), Box::new(profile.build()), 46).unwrap();
    system.run(30 * SEC);
    system
}

fn bench_execute_access_cache1() {
    // The warmed `tpp_expand` system resolving the accesses a second
    // cache1 workload draws past its warm-up, in draw order, so anon,
    // tmpfs and transient pages (three page-table spans) alternate as in
    // a run. Only accesses to pages the system has mapped are kept, so
    // the stream exercises the fast path, as `execute_access_hot` does.
    let profile = tiered_workloads::cache1(CACHE1_PAGES);
    let mut system = warmed_tpp_expand(&profile);
    let mut workload = profile.build();
    let mut rng = SimRng::seed(47);
    let mut now = 0u64;
    let mut events = Vec::new();
    while workload.in_warmup() || now < 30 * SEC {
        events.clear();
        now += workload.next_op_into(now, &mut rng, &mut events);
    }
    let space = system.memory().space(profile.pid);
    let mut stream: Vec<Access> = Vec::new();
    while stream.len() < 1 << 16 {
        events.clear();
        now += workload.next_op_into(now, &mut rng, &mut events);
        stream.extend(events.iter().filter_map(|e| match e {
            WorkloadEvent::Access(a)
                if matches!(space.translate(a.vpn), Some(PageLocation::Mapped(_))) =>
            {
                Some(*a)
            }
            _ => None,
        }));
    }
    let now = system.now_ns();
    let mut i = 0usize;
    bench("hotpath/execute_access_cache1", || {
        std::hint::black_box(system.resolve_access(now, &stream[i]));
        i += 1;
        if i == stream.len() {
            i = 0;
        }
    });
}

fn bench_system_run_op() {
    // `tpp_expand`'s configuration (cache1 on the 1:4 machine under TPP),
    // warmed past cache1's warm-up. Every op advances the clock by at
    // least 1 ns, so `run(1)` executes exactly one op, plus whatever
    // daemon ticks and metric samples fall due after it.
    let mut system = warmed_tpp_expand(&tiered_workloads::cache1(CACHE1_PAGES));
    bench("hotpath/system_run_op", || system.run(1));
}

fn bench_run_metrics_sample() {
    // One per-second metrics sample of the same warmed `tpp_expand`
    // system, each into a copy of its metrics so far. The copies are
    // dropped after the bench, off the clock.
    let system = warmed_tpp_expand(&tiered_workloads::cache1(CACHE1_PAGES));
    let now = system.now_ns();
    let mut used = Vec::new();
    bench_with_setup(
        "metrics/run_metrics_sample",
        || system.metrics().clone(),
        |mut metrics| {
            metrics.sample(now, system.memory());
            used.push(metrics);
        },
    );
}

fn main() {
    bench_zipf_sample();
    bench_region_sample();
    bench_execute_access_hot();
    bench_execute_access_cache1();
    bench_next_op_cache1();
    bench_next_op_into_cache1();
    bench_next_op_into_kv_store();
    bench_system_run_op();
    bench_run_metrics_sample();
}
