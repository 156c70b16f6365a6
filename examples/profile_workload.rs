//! Characterize a workload with the Chameleon profiler (paper §3): page
//! temperature, anon-vs-file hotness, and the re-access-interval CDF.
//!
//! ```text
//! cargo run --release --example profile_workload [web|cache1|cache2|data_warehouse]
//! ```

use chameleon::{Chameleon, ChameleonConfig, CollectorConfig, TextReport};
use tiered_sim::{MINUTE, SEC};
use tpp::experiment::PolicyChoice;
use tpp::{configs, System};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "web".to_string());
    let ws = 12_000;
    let profile = match which.as_str() {
        "web" => tiered_workloads::web(ws),
        "cache1" => tiered_workloads::cache1(ws),
        "cache2" => tiered_workloads::cache2(ws),
        "data_warehouse" | "dw" => tiered_workloads::data_warehouse(ws),
        "kv_store" | "kv" => tiered_workloads::kv_store(ws),
        "batch_analytics" | "batch" => tiered_workloads::batch_analytics(ws),
        other => {
            eprintln!(
                "unknown workload {other}; use \
                 web|cache1|cache2|data_warehouse|kv_store|batch_analytics"
            );
            std::process::exit(2);
        }
    };

    // Run on a comfortable all-local machine, sampling 1-in-200 accesses
    // with 4-group duty cycling — Chameleon's production settings. One
    // profiler interval (15 s here) stands in for the paper's 1 minute.
    let interval = 15 * SEC;
    let mut profiler = Chameleon::new(ChameleonConfig {
        collector: CollectorConfig {
            sample_period: 200,
            cores: 32,
            core_groups: 4,
            mini_interval_ns: interval / 12,
        },
        interval_ns: interval,
        max_gap_intervals: 16,
    });

    let mut system = System::new(
        configs::all_local(profile.working_set_pages()),
        PolicyChoice::Linux.build(),
        Box::new(profile.build()),
        3,
    )
    .expect("all-local always runs");
    system.run_observed(3 * MINUTE, |now, a| profiler.observe(now, a));
    profiler.flush_interval(system.now_ns());

    println!("{}", TextReport::from_profiler(&which, &profiler));
    println!(
        "(1 profiler interval here stands in for the paper's 1 minute; \
         hot fractions are relative to sampler-tracked pages)"
    );
}
