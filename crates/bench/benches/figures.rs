//! End-to-end figure benchmarks: wall-clock cost of regenerating each
//! evaluation experiment at quick scale. These double as smoke tests
//! that every figure's pipeline runs under `cargo bench`.

use tpp_bench::microbench::bench;

use tiered_sim::SEC;
use tpp::configs;
use tpp::experiment::{run_cell, PolicyChoice};

fn bench_cell(name: &str, choice: PolicyChoice) {
    let profile = tiered_workloads::cache1(3_000);
    let ws = profile.working_set_pages();
    bench(name, || {
        let r =
            run_cell(&profile, configs::one_to_four(ws), &choice, 10 * SEC, 1).expect("supported");
        std::hint::black_box(r.throughput);
    });
}

fn bench_eval_cells() {
    bench_cell("figures/cache1_1to4_linux_10s", PolicyChoice::Linux);
    bench_cell("figures/cache1_1to4_tpp_10s", PolicyChoice::Tpp);
    bench_cell(
        "figures/cache1_1to4_numabal_10s",
        PolicyChoice::NumaBalancing,
    );
}

fn bench_characterization() {
    use chameleon::{Chameleon, ChameleonConfig, CollectorConfig};
    use tpp::System;
    let profile = tiered_workloads::web(3_000);
    bench("figures/chameleon_profile_web_10s", || {
        let mut system = System::new(
            configs::all_local(profile.working_set_pages()),
            PolicyChoice::Linux.build(),
            Box::new(profile.build()),
            1,
        )
        .unwrap();
        let mut profiler = Chameleon::new(ChameleonConfig {
            collector: CollectorConfig {
                sample_period: 200,
                cores: 32,
                core_groups: 4,
                mini_interval_ns: SEC,
            },
            interval_ns: 5 * SEC,
            max_gap_intervals: 16,
        });
        system.run_observed(10 * SEC, |now, a| profiler.observe(now, a));
        std::hint::black_box(profiler.worker().tracked_pages());
    });
}

fn main() {
    bench_eval_cells();
    bench_characterization();
}
