//! Co-located services sharing one tiered machine: a latency-sensitive
//! cache and a batch Data Warehouse job compete for the local node, and
//! TPP arbitrates transparently — hot cache pages stay local while the
//! warehouse's cold bulk is demoted to CXL.
//!
//! ```text
//! cargo run --release --example colocation
//! ```

use tiered_sim::MINUTE;
use tpp::experiment::PolicyChoice;
use tpp::{configs, System};

fn run(choice: PolicyChoice) -> (f64, f64, f64) {
    let cache = tiered_workloads::cache1(8_000);
    let warehouse = tiered_workloads::data_warehouse(8_000);
    let total_ws = cache.working_set_pages() + warehouse.working_set_pages();
    let mut system = System::colocated(
        configs::two_to_one(total_ws),
        choice.build(),
        vec![Box::new(cache.build()), Box::new(warehouse.build())],
        21,
    )
    .expect("2:1 is supported by every policy");
    system.run(2 * MINUTE);
    let cache_tp = system.lane_metrics(0).steady_throughput(MINUTE, u64::MAX);
    let dw_tp = system.lane_metrics(1).steady_throughput(MINUTE, u64::MAX);
    let cache_local = system.lane_metrics(0).local_traffic_fraction();
    (cache_tp, dw_tp, cache_local)
}

fn main() {
    println!("cache1 + data_warehouse co-located on one 2:1 machine\n");
    println!(
        "{:<16} {:>16} {:>16} {:>20}",
        "policy", "cache1 ops/s", "warehouse ops/s", "cache1 local traffic"
    );
    let mut rows = Vec::new();
    for choice in [PolicyChoice::Linux, PolicyChoice::Tpp] {
        let label = choice.label();
        let (cache_tp, dw_tp, cache_local) = run(choice);
        println!(
            "{label:<16} {cache_tp:>16.0} {dw_tp:>16.0} {:>19.1}%",
            cache_local * 100.0
        );
        rows.push((label, cache_tp));
    }
    let gain = rows[1].1 / rows[0].1;
    println!(
        "\nTPP improves the latency-sensitive cache's throughput by {:.1}% while \
         both services share the same local DRAM.",
        (gain - 1.0) * 100.0
    );
}
