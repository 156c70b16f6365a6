//! The one job queue of a `repro` run: every target is a [`Plan`] (the
//! jobs it needs plus a render closure over their outcomes), and [`run`]
//! runs the distinct jobs of all selected plans once, on a fixed pool of
//! scoped worker threads, with **zero third-party deps**.
//!
//! A [`Job`] is an experiment cell, a Chameleon characterization of one
//! profile, or a co-located run. Each owns its own machine description,
//! workload, RNG seed and clock, and a running job touches no shared
//! mutable state, so the executor only has to solve deduplication,
//! scheduling and ordering:
//!
//! * **Deduplication** — equal jobs produce equal outcomes, so [`run`]
//!   keeps the first of every set of equal jobs, in plan order, and
//!   every plan that asks for one reads the same outcome.
//! * **Scheduling** — workers claim job indices from a shared
//!   [`AtomicUsize`] "ticket" counter, so a slow job never stalls the
//!   jobs behind it the way a static partition would, and no target
//!   waits for its own jobs while another target's are still queued.
//! * **Ordering** — each worker records `(index, result)` pairs and the
//!   results are reassembled into *input order* after the scope joins;
//!   tables are rendered after every job finished, in target order. So
//!   no output depends on thread timing, and `--jobs N` output is
//!   bit-identical to `--jobs 1`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use tiered_workloads::WorkloadProfile;
use tpp::experiment::{CellSpec, ExperimentResult, PolicyChoice};
use tpp::policy::UnsupportedConfig;
use tpp::RunMetrics;

use crate::charfig::{self, Characterization};
use crate::scale::{Scale, Table};
use crate::sweeps;

/// Maps `f` over `0..n` with up to `jobs` worker threads and returns the
/// results in index order.
///
/// The calling thread is one of the workers and `min(jobs, n) - 1` scoped
/// threads are the others, so `jobs <= 1` runs `f` over `0..n` in order
/// on the calling thread, with no thread spawned at all. Every worker
/// claims indices from the shared ticket counter and keeps its own
/// `(index, result)` list; the lists are merged back into index order
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
    let next = AtomicUsize::new(0);
    let work = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return local;
            }
            local.push((i, f(i)));
        }
    };
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..jobs.min(n)).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for worker in others {
            done.extend(worker.join().expect("executor worker panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, value)| value).collect()
}

/// One unit of simulation work. Two equal jobs describe the same run.
#[derive(Clone, PartialEq, Debug)]
pub enum Job {
    /// One experiment cell.
    Cell(CellSpec),
    /// A Chameleon characterization of the profile on an all-local
    /// machine, at the scale's profiling interval and duration.
    Characterize(WorkloadProfile, Scale),
    /// Cache1 and Data Warehouse co-located on one 2:1 machine under the
    /// policy, for the scale's evaluation duration.
    Colocate(PolicyChoice, Scale),
}

impl Job {
    /// Runs the job on the calling thread.
    fn run(&self) -> Outcome {
        match self {
            Job::Cell(spec) => Outcome::Cell(spec.run()),
            Job::Characterize(profile, scale) => {
                Outcome::Characterization(charfig::characterize(profile, scale))
            }
            Job::Colocate(choice, scale) => Outcome::Lanes(sweeps::colocate(choice, scale)),
        }
    }

    /// A one-line name for the job's timing row.
    fn label(&self) -> String {
        match self {
            Job::Cell(spec) => {
                format!("{} {:?} {:?}", spec.profile.name, spec.choice, spec.machine)
            }
            Job::Characterize(profile, _) => format!("characterize {}", profile.name),
            Job::Colocate(choice, _) => format!("colocate {}", choice.label()),
        }
    }
}

/// What running one [`Job`] yields.
pub enum Outcome {
    /// A cell's result, or the policy's refusal of the machine.
    Cell(Result<ExperimentResult, UnsupportedConfig>),
    /// A characterization run's profiler and metrics.
    Characterization(Characterization),
    /// Each lane's workload name and metrics, in lane order.
    Lanes(Vec<(String, RunMetrics)>),
}

impl Outcome {
    /// The cell's result or refusal.
    ///
    /// # Panics
    ///
    /// Panics if this is not a cell's outcome.
    pub fn cell(&self) -> &Result<ExperimentResult, UnsupportedConfig> {
        let Outcome::Cell(outcome) = self else {
            panic!("not a cell outcome")
        };
        outcome
    }

    /// The result of a cell whose policy supports its machine.
    ///
    /// # Panics
    ///
    /// Panics if this is not a cell's outcome or the policy refused.
    pub fn result(&self) -> &ExperimentResult {
        self.cell()
            .as_ref()
            .expect("cell policy supports its machine")
    }

    /// Simulated accesses the job executed.
    pub fn accesses(&self) -> u64 {
        match self {
            Outcome::Cell(Ok(r)) => r.metrics.accesses,
            Outcome::Cell(Err(_)) => 0,
            Outcome::Characterization(c) => c.metrics.accesses,
            Outcome::Lanes(lanes) => lanes.iter().map(|(_, m)| m.accesses).sum(),
        }
    }
}

/// The render step of a [`Plan`]: its jobs' outcomes, in job order, to
/// its table.
type Render = Box<dyn FnOnce(&[&Outcome]) -> Table>;

/// What one target needs: its jobs, and how to turn their outcomes into
/// its table.
pub struct Plan {
    jobs: Vec<Job>,
    render: Render,
}

impl Plan {
    /// A plan over `jobs` whose table is `render` of their outcomes, in
    /// the order of `jobs`.
    pub fn new(jobs: Vec<Job>, render: impl FnOnce(&[&Outcome]) -> Table + 'static) -> Plan {
        Plan {
            jobs,
            render: Box::new(render),
        }
    }

    /// A plan over cells whose policies all support their machines;
    /// `render` gets their results in spec order.
    pub fn cells(
        specs: Vec<CellSpec>,
        render: impl FnOnce(&[&ExperimentResult]) -> Table + 'static,
    ) -> Plan {
        Plan::new(specs.into_iter().map(Job::Cell).collect(), |outcomes| {
            let results: Vec<&ExperimentResult> = outcomes.iter().map(|o| o.result()).collect();
            render(&results)
        })
    }
}

/// The distinct jobs of a set of plans, each run once, with its outcome
/// and host wall time.
pub struct Batch {
    jobs: Vec<Job>,
    outcomes: Vec<Outcome>,
    wall_s: Vec<f64>,
    reused: usize,
}

/// Runs the distinct jobs of `plans` on `workers` threads, in plan order
/// (see [`parallel_map`] for the scheduling and ordering model).
///
/// A job equal to an earlier one, in the same plan or an earlier plan,
/// does not run again: it is counted as reused and reads the earlier
/// job's outcome.
pub fn run(plans: &[Plan], workers: usize) -> Batch {
    let mut jobs: Vec<Job> = Vec::new();
    let mut requested = 0;
    for job in plans.iter().flat_map(|plan| &plan.jobs) {
        requested += 1;
        if !jobs.contains(job) {
            jobs.push(job.clone());
        }
    }
    let timed = parallel_map(workers, jobs.len(), |i| {
        let start = Instant::now();
        let outcome = jobs[i].run();
        (outcome, start.elapsed().as_secs_f64())
    });
    let (outcomes, wall_s) = timed.into_iter().unzip();
    Batch {
        reused: requested - jobs.len(),
        jobs,
        outcomes,
        wall_s,
    }
}

impl Batch {
    /// The outcomes of `plan`'s jobs, in its job order.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was not one of the plans this batch ran.
    pub fn outcomes(&self, plan: &Plan) -> Vec<&Outcome> {
        plan.jobs
            .iter()
            .map(|job| {
                let i = self
                    .jobs
                    .iter()
                    .position(|j| j == job)
                    .expect("plan was run in this batch");
                &self.outcomes[i]
            })
            .collect()
    }

    /// Renders `plan`'s table from its jobs' outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was not one of the plans this batch ran.
    pub fn table(&self, plan: Plan) -> Table {
        let outcomes = self.outcomes(&plan);
        (plan.render)(&outcomes)
    }

    /// Distinct jobs run.
    pub fn jobs_run(&self) -> usize {
        self.jobs.len()
    }

    /// Requested jobs answered by an equal job's outcome.
    pub fn jobs_reused(&self) -> usize {
        self.reused
    }

    /// Simulated accesses over every job run.
    pub fn accesses(&self) -> u64 {
        self.outcomes.iter().map(Outcome::accesses).sum()
    }

    /// Each job run, as its label and host wall time in seconds, in plan
    /// order.
    pub fn timings(&self) -> impl Iterator<Item = (String, f64)> + '_ {
        self.jobs
            .iter()
            .map(Job::label)
            .zip(self.wall_s.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_sim::SEC;
    use tpp::configs::{MachineSpec, Shape};

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

    /// A plan over `specs` whose table nobody reads.
    fn plan(specs: &[CellSpec]) -> Plan {
        let jobs = specs.iter().cloned().map(Job::Cell).collect();
        Plan::new(jobs, |_| Table::new("unused", &[""], Vec::new()))
    }

    #[test]
    fn run_matches_sequential_execution() {
        let specs = [demo_spec(PolicyChoice::Linux), demo_spec(PolicyChoice::Tpp)];
        let sequential: Vec<_> = specs.iter().map(|s| s.run()).collect();
        let plan = plan(&specs);
        let batch = run(std::slice::from_ref(&plan), 4);
        let parallel = batch.outcomes(&plan);
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            let (s, p) = (s.as_ref().unwrap(), p.result());
            assert_eq!(s.policy, p.policy);
            assert_eq!(s.throughput, p.throughput);
            assert_eq!(s.local_traffic, p.local_traffic);
            assert_eq!(s.vmstat, p.vmstat);
        }
        // The batch counts the accesses of every job it ran.
        let accesses: u64 = sequential
            .iter()
            .map(|s| s.as_ref().unwrap().metrics.accesses)
            .sum();
        assert_eq!(batch.accesses(), accesses);
        assert!(accesses > 0);
    }

    #[test]
    fn each_distinct_cell_runs_once_per_batch() {
        let (linux, tpp) = (demo_spec(PolicyChoice::Linux), demo_spec(PolicyChoice::Tpp));
        let first = plan(&[tpp.clone(), linux, tpp.clone()]);
        let counts = |b: &Batch| (b.jobs_run(), b.jobs_reused());
        assert_eq!(counts(&run(std::slice::from_ref(&first), 2)), (2, 1));
        let plans = [first, plan(&[tpp])];
        let batch = run(&plans, 2);
        assert_eq!(counts(&batch), (2, 2));

        let (first, second) = (batch.outcomes(&plans[0]), batch.outcomes(&plans[1]));
        let vmstat = |outcome: &Outcome| outcome.result().vmstat.clone();
        assert_eq!(first[1].result().policy, "linux");
        assert_eq!(first[0].result().policy, "tpp");
        assert_eq!(vmstat(first[0]), vmstat(first[2]));
        assert_eq!(vmstat(first[0]), vmstat(second[0]));
        assert_eq!(first[0].result().throughput, second[0].result().throughput);
        // A batch of no plans runs nothing.
        assert_eq!(counts(&run(&[], 2)), (0, 0));
    }

    #[test]
    fn unsupported_outcomes_are_reused_too() {
        let spec = CellSpec::new(
            tiered_workloads::uniform(1_500),
            MachineSpec::new(Shape::Ratio(1, 4), 2_000),
            PolicyChoice::AutoTiering,
            SEC,
            7,
        );
        let plan = plan(&[spec.clone(), spec]);
        let batch = run(std::slice::from_ref(&plan), 1);
        let outcomes = batch.outcomes(&plan);
        assert!(outcomes.iter().all(|o| o.cell().is_err()));
        assert_eq!(
            outcomes[0].cell().as_ref().unwrap_err(),
            outcomes[1].cell().as_ref().unwrap_err()
        );
        assert_eq!((batch.jobs_run(), batch.jobs_reused()), (1, 1));
    }
}
