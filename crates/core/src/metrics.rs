//! Run metrics: the measurements behind every evaluation figure —
//! throughput, per-node traffic split, residency by page type, and
//! promotion/demotion rates derived from vmstat deltas — plus the
//! trace-derived diagnostics (§5.5 ping-pong report, per-policy decision
//! summaries) and machine-readable CSV/JSON exports.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;

use tiered_mem::telemetry::TraceRecord;
use tiered_mem::{Memory, NodeId, PageKey, TraceEvent, VmEvent, VmStat};
use tiered_sim::{fraction, rate_per_sec, LogHistogram, TimeSeries, SEC};

/// Everything measured during a [`crate::System`] run.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// Application operations completed.
    pub ops_completed: u64,
    /// Total wall time of completed ops (CPU + memory stalls), ns.
    pub total_op_ns: u64,
    /// Total memory-stall time, ns.
    pub total_mem_ns: u64,
    /// Total page accesses.
    pub accesses: u64,
    /// Accesses served by CPU-attached nodes.
    pub local_accesses: u64,
    /// Accesses served by CXL nodes.
    pub cxl_accesses: u64,
    /// Anon accesses served locally / in total.
    pub anon_local_accesses: u64,
    /// Total anon accesses.
    pub anon_accesses: u64,
    /// Sum of access latencies, ns (for average access latency).
    pub access_latency_ns: u64,

    /// Throughput per sample window (ops/s).
    pub throughput: TimeSeries,
    /// Fraction of accesses served locally per window.
    pub local_traffic: TimeSeries,
    /// Promotion rate per window (pages/s).
    pub promotion_rate: TimeSeries,
    /// Demotion rate per window (pages/s).
    pub demotion_rate: TimeSeries,
    /// Local allocation rate per window (pages/s).
    pub alloc_local_rate: TimeSeries,
    /// Reclaim (steal) rate per window (pages/s).
    pub reclaim_rate: TimeSeries,
    /// Swap-out rate per window (pages/s).
    pub swap_out_rate: TimeSeries,
    /// Anon pages resident on the first local node per window.
    pub local_anon_pages: TimeSeries,
    /// File pages resident on the first local node per window.
    pub local_file_pages: TimeSeries,
    /// Free pages on the first local node per window.
    pub local_free_pages: TimeSeries,
    /// Anon pages resident per node per window, indexed by `NodeId`.
    pub node_anon_pages: Vec<TimeSeries>,
    /// File pages resident per node per window, indexed by `NodeId`.
    pub node_file_pages: Vec<TimeSeries>,
    /// Free pages per node per window, indexed by `NodeId`.
    pub node_free_pages: Vec<TimeSeries>,
    /// Distribution of op wall times (CPU + memory stalls), for tail
    /// latency (p99) reporting.
    pub op_latency: LogHistogram,

    last_vmstat: VmStat,
    last_sample_ns: u64,
    window_ops: u64,
    window_accesses: u64,
    window_local: u64,
}

impl RunMetrics {
    /// Creates a zeroed metrics recorder.
    pub fn new() -> RunMetrics {
        RunMetrics {
            ops_completed: 0,
            total_op_ns: 0,
            total_mem_ns: 0,
            accesses: 0,
            local_accesses: 0,
            cxl_accesses: 0,
            anon_local_accesses: 0,
            anon_accesses: 0,
            access_latency_ns: 0,
            throughput: TimeSeries::new("throughput_ops_s"),
            local_traffic: TimeSeries::new("local_traffic_frac"),
            promotion_rate: TimeSeries::new("promotion_pages_s"),
            demotion_rate: TimeSeries::new("demotion_pages_s"),
            alloc_local_rate: TimeSeries::new("alloc_local_pages_s"),
            reclaim_rate: TimeSeries::new("reclaim_pages_s"),
            swap_out_rate: TimeSeries::new("swap_out_pages_s"),
            local_anon_pages: TimeSeries::new("local_anon_pages"),
            local_file_pages: TimeSeries::new("local_file_pages"),
            local_free_pages: TimeSeries::new("local_free_pages"),
            node_anon_pages: Vec::new(),
            node_file_pages: Vec::new(),
            node_free_pages: Vec::new(),
            op_latency: LogHistogram::new(),
            last_vmstat: VmStat::new(),
            last_sample_ns: 0,
            window_ops: 0,
            window_accesses: 0,
            window_local: 0,
        }
    }

    /// Records one completed op.
    #[inline]
    pub fn note_op(&mut self, op_ns: u64, mem_ns: u64) {
        self.ops_completed += 1;
        self.window_ops += 1;
        self.total_op_ns += op_ns;
        self.total_mem_ns += mem_ns;
        self.op_latency.record(op_ns);
    }

    /// Records one access served by a local (`is_local`) or CXL node.
    ///
    /// Branch-free: `is_anon` is a coin flip per access in mixed
    /// workloads, so every counter adds its predicate as 0 or 1.
    #[inline]
    pub fn note_access(&mut self, is_local: bool, is_anon: bool, latency_ns: u64) {
        self.accesses += 1;
        self.window_accesses += 1;
        self.access_latency_ns += latency_ns;
        self.local_accesses += is_local as u64;
        self.window_local += is_local as u64;
        self.cxl_accesses += !is_local as u64;
        self.anon_accesses += is_anon as u64;
        self.anon_local_accesses += (is_anon & is_local) as u64;
    }

    /// Takes a sample at `now_ns`: window rates plus memory-state gauges.
    pub fn sample(&mut self, now_ns: u64, memory: &Memory) {
        let interval = now_ns.saturating_sub(self.last_sample_ns).max(1);
        let vm = memory.vmstat().clone();
        let d = vm.delta_since(&self.last_vmstat);
        self.throughput
            .record(now_ns, rate_per_sec(self.window_ops, interval));
        self.local_traffic
            .record(now_ns, fraction(self.window_local, self.window_accesses));
        self.promotion_rate
            .record(now_ns, rate_per_sec(d.promoted_total(), interval));
        self.demotion_rate
            .record(now_ns, rate_per_sec(d.demoted_total(), interval));
        self.alloc_local_rate
            .record(now_ns, rate_per_sec(d.get(VmEvent::PgAllocLocal), interval));
        self.reclaim_rate
            .record(now_ns, rate_per_sec(d.get(VmEvent::PgSteal), interval));
        self.swap_out_rate
            .record(now_ns, rate_per_sec(d.get(VmEvent::PswpOut), interval));
        let local = memory
            .local_nodes()
            .first()
            .copied()
            .unwrap_or(NodeId::LOCAL);
        let (anon, file) = memory.node_usage(local);
        self.local_anon_pages.record(now_ns, anon as f64);
        self.local_file_pages.record(now_ns, file as f64);
        self.local_free_pages
            .record(now_ns, memory.free_pages(local) as f64);
        for i in self.node_anon_pages.len()..memory.node_count() {
            self.node_anon_pages
                .push(TimeSeries::new(format!("node{i}_anon_pages")));
            self.node_file_pages
                .push(TimeSeries::new(format!("node{i}_file_pages")));
            self.node_free_pages
                .push(TimeSeries::new(format!("node{i}_free_pages")));
        }
        for i in 0..memory.node_count() {
            let node = NodeId(i as u8);
            let (anon, file) = memory.node_usage(node);
            self.node_anon_pages[i].record(now_ns, anon as f64);
            self.node_file_pages[i].record(now_ns, file as f64);
            self.node_free_pages[i].record(now_ns, memory.free_pages(node) as f64);
        }
        self.last_vmstat = vm;
        self.last_sample_ns = now_ns;
        self.window_ops = 0;
        self.window_accesses = 0;
        self.window_local = 0;
    }

    /// Fraction of all accesses served locally over the whole run.
    pub fn local_traffic_fraction(&self) -> f64 {
        fraction(self.local_accesses, self.accesses)
    }

    /// Fraction of anon accesses served locally over the whole run.
    pub fn anon_local_fraction(&self) -> f64 {
        fraction(self.anon_local_accesses, self.anon_accesses)
    }

    /// Mean access latency over the whole run, ns.
    pub fn avg_access_latency_ns(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.access_latency_ns as f64 / self.accesses as f64
        }
    }

    /// Mean throughput (ops/s) between `start_ns` and `end_ns` — used to
    /// measure the steady-state window, excluding warm-up.
    pub fn steady_throughput(&self, start_ns: u64, end_ns: u64) -> f64 {
        self.throughput
            .mean_between(start_ns, end_ns)
            .unwrap_or(0.0)
    }

    /// Mean local-traffic fraction between `start_ns` and `end_ns`.
    pub fn steady_local_traffic(&self, start_ns: u64, end_ns: u64) -> f64 {
        self.local_traffic
            .mean_between(start_ns, end_ns)
            .unwrap_or(0.0)
    }

    /// Approximate p99 op latency in nanoseconds.
    pub fn p99_op_latency_ns(&self) -> u64 {
        self.op_latency.percentile(0.99)
    }

    /// Convenience: sample window aligned to seconds.
    pub fn sample_period_ns() -> u64 {
        SEC
    }

    /// Every recorded time series, fixed ones first, then the per-node
    /// gauges in `NodeId` order.
    pub fn series(&self) -> Vec<&TimeSeries> {
        let mut out: Vec<&TimeSeries> = vec![
            &self.throughput,
            &self.local_traffic,
            &self.promotion_rate,
            &self.demotion_rate,
            &self.alloc_local_rate,
            &self.reclaim_rate,
            &self.swap_out_rate,
            &self.local_anon_pages,
            &self.local_file_pages,
            &self.local_free_pages,
        ];
        for i in 0..self.node_anon_pages.len() {
            out.push(&self.node_anon_pages[i]);
            out.push(&self.node_file_pages[i]);
            out.push(&self.node_free_pages[i]);
        }
        out
    }

    /// All time series as one wide CSV (`time_s` column plus one column
    /// per series; cells are empty where a series has no point at that
    /// timestamp).
    pub fn series_csv(&self) -> String {
        timeseries_csv(&self.series())
    }

    /// Run-level scalars as one flat JSON object (hand-rolled: the build
    /// environment is registry-less, so no serde).
    pub fn summary_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"ops_completed\":{},\"accesses\":{},\"total_op_ns\":{},\"total_mem_ns\":{}",
            self.ops_completed, self.accesses, self.total_op_ns, self.total_mem_ns
        );
        let _ = write!(
            s,
            ",\"local_accesses\":{},\"cxl_accesses\":{},\"anon_accesses\":{},\"anon_local_accesses\":{}",
            self.local_accesses, self.cxl_accesses, self.anon_accesses, self.anon_local_accesses
        );
        let _ = write!(
            s,
            ",\"local_traffic_fraction\":{:.6},\"anon_local_fraction\":{:.6},\"avg_access_latency_ns\":{:.3}",
            self.local_traffic_fraction(),
            self.anon_local_fraction(),
            self.avg_access_latency_ns()
        );
        let _ = write!(s, ",\"p99_op_latency_ns\":{}", self.p99_op_latency_ns());
        s.push('}');
        s
    }

    /// Writes the machine-readable exports for one run into `dir`:
    /// `<label>_series.csv`, `<label>_summary.json` and
    /// `<label>_op_latency.json`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (directory creation, writes).
    pub fn write_exports(&self, dir: &Path, label: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{label}_series.csv")), self.series_csv())?;
        let mut summary = self.summary_json();
        summary.push('\n');
        std::fs::write(dir.join(format!("{label}_summary.json")), summary)?;
        let mut hist = histogram_json(&self.op_latency);
        hist.push('\n');
        std::fs::write(dir.join(format!("{label}_op_latency.json")), hist)?;
        Ok(())
    }
}

impl Default for RunMetrics {
    fn default() -> RunMetrics {
        RunMetrics::new()
    }
}

/// Renders several time series as one wide CSV, merged on timestamp.
///
/// The first column is `time_s` (seconds of simulated time); every series
/// contributes one column, with empty cells where it has no point.
pub fn timeseries_csv(series: &[&TimeSeries]) -> String {
    let mut times: Vec<u64> = Vec::new();
    for s in series {
        for &(t, _) in s.points() {
            times.push(t);
        }
    }
    times.sort_unstable();
    times.dedup();
    let mut out = String::from("time_s");
    for s in series {
        out.push(',');
        out.push_str(s.name());
    }
    out.push('\n');
    for t in times {
        let _ = write!(out, "{:.3}", t as f64 / SEC as f64);
        for s in series {
            out.push(',');
            if let Some(&(_, v)) = s.points().iter().find(|&&(st, _)| st == t) {
                let _ = write!(out, "{v:.6}");
            }
        }
        out.push('\n');
    }
    out
}

/// Renders a [`LogHistogram`] as a flat JSON object of count, mean, max
/// and the standard percentiles.
pub fn histogram_json(h: &LogHistogram) -> String {
    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"count\":{},\"mean\":{:.3},\"max\":{}",
        h.count(),
        h.mean(),
        h.max()
    );
    for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)] {
        let _ = write!(s, ",\"{label}\":{}", h.percentile(q));
    }
    s.push('}');
    s
}

/// Renders a full vmstat as one flat CSV (counter name, value) — the
/// machine-readable twin of `VmStat`'s `Display` table.
pub fn vmstat_csv(vm: &VmStat) -> String {
    let mut out = String::from("counter,value\n");
    for (event, value) in vm.iter() {
        let _ = writeln!(out, "{},{}", event.name(), value);
    }
    out
}

/// The §5.5 ping-pong diagnosis, derived from a trace rather than from
/// counters alone: which promotion traffic is churn (pages promoted that
/// had already been demoted once) and how many pages round-trip.
#[derive(Clone, Debug, Default)]
pub struct PingPongReport {
    /// Promotion successes in the trace.
    pub promotions: u64,
    /// Demotions in the trace.
    pub demotions: u64,
    /// Promotion candidates observed (active CXL pages hint-faulted).
    pub promote_candidates: u64,
    /// Candidates that had previously been demoted — the paper's
    /// `pgpromote_candidate_demoted` counter, here with page identity.
    pub candidates_recently_demoted: u64,
    /// Distinct pages that completed at least one demote→promote cycle.
    pub ping_pong_pages: usize,
    /// Total demote→promote round trips.
    pub round_trips: u64,
}

impl PingPongReport {
    /// Fraction of promotion candidates that were previously demoted.
    pub fn candidate_demoted_fraction(&self) -> f64 {
        fraction(self.candidates_recently_demoted, self.promote_candidates)
    }

    /// The §5.5 diagnosis: a meaningful share of promotion traffic is
    /// pages the demotion daemon just pushed out.
    pub fn is_thrashing(&self) -> bool {
        self.round_trips > 0 && self.candidate_demoted_fraction() > 0.05
    }

    /// Flat JSON rendering for run exports.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"promotions\":{},\"demotions\":{},\"promote_candidates\":{},\"candidates_recently_demoted\":{},\"ping_pong_pages\":{},\"round_trips\":{},\"candidate_demoted_fraction\":{:.6},\"thrashing\":{}",
            self.promotions,
            self.demotions,
            self.promote_candidates,
            self.candidates_recently_demoted,
            self.ping_pong_pages,
            self.round_trips,
            self.candidate_demoted_fraction(),
            self.is_thrashing()
        );
        s.push('}');
        s
    }
}

/// Builds the ping-pong report from a run's trace records.
pub fn ping_pong_report(records: &[TraceRecord]) -> PingPongReport {
    let mut report = PingPongReport::default();
    let mut demoted: HashSet<PageKey> = HashSet::new();
    let mut ping_pong: HashSet<PageKey> = HashSet::new();
    for r in records {
        match r.event {
            TraceEvent::Demote { page, .. } => {
                report.demotions += 1;
                demoted.insert(page);
            }
            TraceEvent::PromoteCandidate {
                demoted: was_demoted,
                ..
            } => {
                report.promote_candidates += 1;
                if was_demoted {
                    report.candidates_recently_demoted += 1;
                }
            }
            TraceEvent::PromoteSuccess { page, .. } => {
                report.promotions += 1;
                if demoted.remove(&page) {
                    report.round_trips += 1;
                    ping_pong.insert(page);
                }
            }
            _ => {}
        }
    }
    report.ping_pong_pages = ping_pong.len();
    report
}

/// Decision-reason tallies for one policy, aggregated from the trace's
/// `decision` events.
#[derive(Clone, Debug)]
pub struct PolicyDecisionSummary {
    /// The policy that emitted the decisions.
    pub policy: String,
    /// Reason string → number of occurrences.
    pub reasons: BTreeMap<String, u64>,
}

impl PolicyDecisionSummary {
    /// Total decisions across all reasons.
    pub fn total(&self) -> u64 {
        self.reasons.values().sum()
    }
}

/// Aggregates every `decision` event in a trace per policy, in policy
/// name order.
pub fn decision_summary(records: &[TraceRecord]) -> Vec<PolicyDecisionSummary> {
    let mut by_policy: BTreeMap<&str, BTreeMap<String, u64>> = BTreeMap::new();
    for r in records {
        if let TraceEvent::Decision { policy, reason, .. } = r.event {
            *by_policy
                .entry(policy)
                .or_default()
                .entry(reason.to_string())
                .or_insert(0) += 1;
        }
    }
    by_policy
        .into_iter()
        .map(|(policy, reasons)| PolicyDecisionSummary {
            policy: policy.to_string(),
            reasons,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_mem::{NodeKind, PageType, Pid, Vpn};

    #[test]
    fn access_accounting() {
        let mut m = RunMetrics::new();
        m.note_access(true, true, 100);
        m.note_access(false, true, 185);
        m.note_access(true, false, 100);
        assert_eq!(m.accesses, 3);
        m.note_op(1_000, 100);
        m.note_op(100_000, 90_000);
        assert!(m.p99_op_latency_ns() >= 100_000);
        assert!((m.local_traffic_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.anon_local_fraction(), 0.5);
        assert!((m.avg_access_latency_ns() - 128.33).abs() < 0.01);
    }

    #[test]
    fn note_access_counts_every_locality_and_type_combination() {
        // Combination k is noted k + 1 times, so every counter's total
        // names the combinations that reached it.
        let mut m = RunMetrics::new();
        let combos = [(true, true), (true, false), (false, true), (false, false)];
        for (k, (is_local, is_anon)) in combos.into_iter().enumerate() {
            for _ in 0..=k {
                m.note_access(is_local, is_anon, 10);
            }
        }
        assert_eq!((m.accesses, m.window_accesses), (10, 10));
        assert_eq!(m.access_latency_ns, 100);
        assert_eq!((m.local_accesses, m.window_local), (1 + 2, 1 + 2));
        assert_eq!(m.cxl_accesses, 3 + 4);
        assert_eq!(m.anon_accesses, 1 + 3);
        assert_eq!(m.anon_local_accesses, 1);
    }

    #[test]
    fn sampling_computes_window_rates() {
        let mut metrics = RunMetrics::new();
        let mut mem = Memory::builder().node(NodeKind::LocalDram, 32).build();
        mem.create_process(Pid(1));
        metrics.sample(0, &mem);
        for _ in 0..10 {
            metrics.note_op(1000, 100);
        }
        mem.alloc_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        metrics.sample(SEC, &mem);
        // 10 ops in 1 s window.
        assert_eq!(*metrics.throughput.values().last().unwrap(), 10.0);
        assert_eq!(*metrics.alloc_local_rate.values().last().unwrap(), 1.0);
        assert_eq!(*metrics.local_anon_pages.values().last().unwrap(), 1.0);
        // Window counters reset.
        metrics.sample(2 * SEC, &mem);
        assert_eq!(*metrics.throughput.values().last().unwrap(), 0.0);
    }

    #[test]
    fn per_node_gauges_track_every_node() {
        let mut metrics = RunMetrics::new();
        let mut mem = Memory::builder()
            .node(NodeKind::LocalDram, 32)
            .node(NodeKind::Cxl, 64)
            .build();
        mem.create_process(Pid(1));
        mem.alloc_and_map(NodeId(1), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        metrics.sample(SEC, &mem);
        assert_eq!(metrics.node_anon_pages.len(), 2);
        assert_eq!(*metrics.node_anon_pages[1].values().last().unwrap(), 1.0);
        assert_eq!(*metrics.node_anon_pages[0].values().last().unwrap(), 0.0);
        assert_eq!(*metrics.node_free_pages[0].values().last().unwrap(), 32.0);
        assert_eq!(*metrics.node_free_pages[1].values().last().unwrap(), 63.0);
        // Legacy first-local-node series still tracks node 0.
        assert_eq!(*metrics.local_free_pages.values().last().unwrap(), 32.0);
    }

    #[test]
    fn series_csv_is_wide_and_merged() {
        let mut metrics = RunMetrics::new();
        let mem = Memory::builder().node(NodeKind::LocalDram, 32).build();
        metrics.note_op(1000, 100);
        metrics.sample(SEC, &mem);
        let csv = metrics.series_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("time_s,throughput_ops_s,"));
        assert!(header.contains("node0_free_pages"));
        let row = lines.next().unwrap();
        assert!(row.starts_with("1.000,"), "row: {row}");
        assert_eq!(row.split(',').count(), header.split(',').count());
    }

    #[test]
    fn summary_and_histogram_json_are_flat_objects() {
        let mut metrics = RunMetrics::new();
        metrics.note_access(true, true, 100);
        metrics.note_op(1_000, 100);
        let json = metrics.summary_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"ops_completed\":1"));
        let hist = histogram_json(&metrics.op_latency);
        assert!(hist.contains("\"count\":1"));
        assert!(hist.contains("\"p99\":"));
    }

    #[test]
    fn ping_pong_report_finds_round_trips() {
        use tiered_mem::PageType;
        let page = PageKey::new(Pid(1), Vpn(7));
        let other = PageKey::new(Pid(1), Vpn(8));
        let ev = |event| TraceRecord { ts_ns: 0, event };
        let records = vec![
            ev(TraceEvent::Demote {
                page,
                from: NodeId(0),
                to: NodeId(1),
                page_type: PageType::Anon,
            }),
            ev(TraceEvent::PromoteCandidate {
                page,
                demoted: true,
            }),
            ev(TraceEvent::PromoteSuccess {
                page,
                from: NodeId(1),
                to: NodeId(0),
                page_type: PageType::Anon,
            }),
            ev(TraceEvent::PromoteCandidate {
                page: other,
                demoted: false,
            }),
            ev(TraceEvent::PromoteSuccess {
                page: other,
                from: NodeId(1),
                to: NodeId(0),
                page_type: PageType::Anon,
            }),
        ];
        let report = ping_pong_report(&records);
        assert_eq!(report.demotions, 1);
        assert_eq!(report.promotions, 2);
        assert_eq!(report.promote_candidates, 2);
        assert_eq!(report.candidates_recently_demoted, 1);
        assert_eq!(report.round_trips, 1);
        assert_eq!(report.ping_pong_pages, 1);
        assert!(report.is_thrashing());
        assert!(report.to_json().contains("\"round_trips\":1"));
    }

    #[test]
    fn decision_summary_groups_by_policy_and_reason() {
        let ev = |policy, reason| TraceRecord {
            ts_ns: 0,
            event: TraceEvent::Decision {
                policy,
                reason,
                page: None,
            },
        };
        let records = vec![
            ev("tpp", "a"),
            ev("tpp", "a"),
            ev("tpp", "b"),
            ev("linux", "c"),
        ];
        let summary = decision_summary(&records);
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].policy, "linux");
        assert_eq!(summary[1].policy, "tpp");
        assert_eq!(summary[1].reasons["a"], 2);
        assert_eq!(summary[1].total(), 3);
    }

    #[test]
    fn vmstat_csv_lists_every_counter() {
        let mut vm = VmStat::new();
        vm.count(VmEvent::PgFault);
        let csv = vmstat_csv(&vm);
        assert!(csv.starts_with("counter,value\n"));
        assert!(csv.contains("pgfault,1\n"));
        assert_eq!(csv.lines().count(), 1 + VmEvent::ALL.len());
    }

    #[test]
    fn steady_window_means() {
        let mut metrics = RunMetrics::new();
        let mem = Memory::builder().node(NodeKind::LocalDram, 32).build();
        for i in 1..=4u64 {
            for _ in 0..(i * 10) {
                metrics.note_op(100, 10);
            }
            metrics.sample(i * SEC, &mem);
        }
        // Windows hold 10, 20, 30, 40 ops/s; steady over the last two.
        assert_eq!(metrics.steady_throughput(2 * SEC + 1, 5 * SEC), 35.0);
    }
}
