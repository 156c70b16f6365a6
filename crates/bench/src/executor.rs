//! The parallel experiment executor: fans independent work items over a
//! fixed pool of scoped worker threads with **zero third-party deps**.
//!
//! Experiment cells are embarrassingly parallel — each [`CellSpec`] owns
//! its own machine description, workload profile, RNG seed and clock, and
//! a running cell touches no shared mutable state. The executor therefore
//! only has to solve scheduling and ordering:
//!
//! * **Scheduling** — workers claim item indices from a shared
//!   [`AtomicUsize`] "ticket" counter, so a slow cell never stalls the
//!   cells behind it the way a static partition would.
//! * **Ordering** — each worker records `(index, result)` pairs and the
//!   results are reassembled into *input order* after the scope joins,
//!   so the output never depends on thread timing. Combined with
//!   per-cell state ownership this makes `--jobs N` output bit-identical
//!   to `--jobs 1`.
//!
//! [`parallel_map`] is the generic primitive; `run_cells` is the
//! cell-batch entry point of the figure drivers. Equal specs produce
//! equal results, so `run_cells` runs each distinct cell once: it
//! dedupes its batch and keeps every result in the [`CellCache`] that
//! [`Scale`] carries, so the targets of one `repro` run share it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use tpp::experiment::{CellSpec, ExperimentResult};
use tpp::policy::UnsupportedConfig;

use crate::scale::Scale;

/// Total simulated accesses executed by finished cells in this process
/// (all threads), for the aggregate ops/s line in timing reports.
static OPS_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Credits `n` simulated accesses to the process-wide counter.
pub(crate) fn add_ops(n: u64) {
    OPS_TOTAL.fetch_add(n, Ordering::Relaxed);
}

/// Simulated accesses completed so far (process-wide).
pub fn ops_total() -> u64 {
    OPS_TOTAL.load(Ordering::Relaxed)
}

/// Maps `f` over `0..n` with up to `jobs` worker threads and returns the
/// results in index order.
///
/// `jobs <= 1` (or `n <= 1`) short-circuits to a plain sequential loop on
/// the calling thread — exactly the single-threaded behaviour, with no
/// threads spawned at all. Otherwise `min(jobs, n)` scoped threads claim
/// indices from the shared ticket counter; each worker keeps its own
/// `(index, result)` list and the lists are merged back into input order
/// once the scope has joined every worker.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn parallel_map<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let workers = jobs.min(n);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (i, value) in handle.join().expect("executor worker panicked") {
                debug_assert!(slots[i].is_none(), "ticket counter issued {i} twice");
                slots[i] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed by exactly one worker"))
        .collect()
}

/// What running one cell yields.
pub type CellOutcome = Result<ExperimentResult, UnsupportedConfig>;

/// Every cell outcome computed so far, by spec, plus how many cells were
/// served from it instead of running.
#[derive(Debug, Default)]
pub struct CellCache {
    inner: Mutex<CacheState>,
}

#[derive(Debug, Default)]
struct CacheState {
    cells: Vec<(CellSpec, CellOutcome)>,
    reused: usize,
}

impl CacheState {
    fn get(&self, spec: &CellSpec) -> Option<&CellOutcome> {
        self.cells.iter().find(|(s, _)| s == spec).map(|(_, o)| o)
    }
}

impl CellCache {
    fn state(&self) -> MutexGuard<'_, CacheState> {
        self.inner
            .lock()
            .expect("no cell run panicked holding the cache")
    }

    /// Distinct cells run so far.
    pub fn cells_run(&self) -> usize {
        self.state().cells.len()
    }

    /// Requested cells answered by an earlier run of an equal spec.
    pub fn cells_reused(&self) -> usize {
        self.state().reused
    }
}

/// Runs a batch of cells on `scale.jobs` workers and returns their
/// outcomes in spec order (see [`parallel_map`] for the scheduling and
/// ordering model).
///
/// Each distinct cell runs once per `scale`: a spec equal to an earlier
/// one in the batch, or to one in `scale.cells`, takes that outcome.
/// Only the unseen cells go to the workers, and each one's simulated
/// access count is credited to the process-wide [`ops_total`] counter as
/// it finishes.
pub(crate) fn run_cells(scale: &Scale, specs: &[CellSpec]) -> Vec<CellOutcome> {
    let mut cache = scale.cells.state();
    let mut fresh: Vec<&CellSpec> = Vec::new();
    for spec in specs {
        if cache.get(spec).is_none() && !fresh.contains(&spec) {
            fresh.push(spec);
        }
    }
    let outcomes = parallel_map(scale.jobs, fresh.len(), |i| {
        let outcome = fresh[i].run();
        if let Ok(result) = &outcome {
            add_ops(result.metrics.accesses);
        }
        outcome
    });
    cache.reused += specs.len() - fresh.len();
    for (spec, outcome) in fresh.into_iter().zip(outcomes) {
        cache.cells.push((spec.clone(), outcome));
    }
    specs
        .iter()
        .map(|spec| {
            cache
                .get(spec)
                .expect("every spec ran or was cached")
                .clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_sim::SEC;
    use tpp::configs::{MachineSpec, Shape};
    use tpp::experiment::PolicyChoice;

    #[test]
    fn parallel_map_preserves_input_order() {
        for jobs in [1, 2, 4, 7] {
            let out = parallel_map(jobs, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        assert_eq!(parallel_map(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(4, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        assert_eq!(parallel_map(64, 3, |i| i), vec![0, 1, 2]);
    }

    fn demo_spec(choice: PolicyChoice) -> CellSpec {
        CellSpec::new(
            tiered_workloads::uniform(1_500),
            MachineSpec::new(Shape::Ratio(2, 1), 2_000),
            choice,
            2 * SEC,
            7,
        )
    }

    fn scale(jobs: usize) -> Scale {
        Scale {
            jobs,
            ..Scale::quick()
        }
    }

    #[test]
    fn run_cells_matches_sequential_execution() {
        let specs = [demo_spec(PolicyChoice::Linux), demo_spec(PolicyChoice::Tpp)];
        let sequential: Vec<_> = specs.iter().map(|s| s.run()).collect();
        let parallel = run_cells(&scale(4), &specs);
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            assert_eq!(s.policy, p.policy);
            assert_eq!(s.throughput, p.throughput);
            assert_eq!(s.local_traffic, p.local_traffic);
            assert_eq!(s.vmstat, p.vmstat);
        }
    }

    #[test]
    fn each_distinct_cell_runs_once_per_scale() {
        let scale = scale(2);
        let (linux, tpp) = (demo_spec(PolicyChoice::Linux), demo_spec(PolicyChoice::Tpp));
        let first = run_cells(&scale, &[tpp.clone(), linux, tpp.clone()]);
        assert_eq!(
            (scale.cells.cells_run(), scale.cells.cells_reused()),
            (2, 1)
        );
        let second = run_cells(&scale, &[tpp]);
        assert_eq!(
            (scale.cells.cells_run(), scale.cells.cells_reused()),
            (2, 2)
        );

        let vmstat = |outcome: &CellOutcome| outcome.as_ref().unwrap().vmstat.clone();
        assert_eq!(first[1].as_ref().unwrap().policy, "linux");
        assert_eq!(first[0].as_ref().unwrap().policy, "tpp");
        assert_eq!(vmstat(&first[0]), vmstat(&first[2]));
        assert_eq!(vmstat(&first[0]), vmstat(&second[0]));
        assert_eq!(
            first[0].as_ref().unwrap().throughput,
            second[0].as_ref().unwrap().throughput
        );
        // A fresh scale starts with an empty cache.
        assert_eq!(Scale::quick().cells.cells_run(), 0);
    }

    #[test]
    fn unsupported_outcomes_are_cached_too() {
        let scale = scale(1);
        let spec = CellSpec::new(
            tiered_workloads::uniform(1_500),
            MachineSpec::new(Shape::Ratio(1, 4), 2_000),
            PolicyChoice::AutoTiering,
            SEC,
            7,
        );
        let outcomes = run_cells(&scale, &[spec.clone(), spec]);
        assert!(outcomes.iter().all(|o| o.is_err()));
        assert_eq!(
            outcomes[0].as_ref().unwrap_err(),
            outcomes[1].as_ref().unwrap_err()
        );
        assert_eq!(
            (scale.cells.cells_run(), scale.cells.cells_reused()),
            (1, 1)
        );
    }

    #[test]
    fn ops_counter_accumulates() {
        let before = ops_total();
        add_ops(123);
        assert!(ops_total() >= before + 123);
    }
}
