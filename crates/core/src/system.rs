//! The system runner: drives one workload, or several co-located ones,
//! over one machine under one placement policy, interleaving application
//! ops with daemon ticks and accounting every nanosecond of memory stall
//! back into application throughput.
//!
//! TPP's mechanisms (shared watermarks, one demotion daemon, promotion
//! into the shared local node) all operate machine-wide, so co-located
//! workloads go through exactly the access path a lone workload does.
//! Each workload runs in its own lane, a virtual CPU with its own clock;
//! the run loop always advances the lane that is furthest behind, so the
//! interleaving is deterministic and fair. A single workload is the
//! one-lane case.

use std::ops::{Deref, DerefMut};

use tiered_mem::{
    Memory, NodeList, PageFlags, PageKey, PageLocation, Pfn, TraceEvent, TraceRecord,
};
use tiered_sim::{Access, AccessKind, LatencyModel, Periodic, SimRng, Workload, WorkloadEvent};

use crate::metrics::RunMetrics;
use crate::policy::{PlacementPolicy, PolicyCtx, UnsupportedConfig};

/// One workload and its execution state.
struct Lane {
    workload: Box<dyn Workload>,
    /// This lane's virtual-CPU clock.
    clock_ns: u64,
    metrics: RunMetrics,
}

/// A complete simulated system: machine + policy + one or more workloads.
///
/// # Examples
///
/// ```
/// use tiered_sim::SEC;
/// use tpp::{configs, policy::Tpp, System};
///
/// let workload = tiered_workloads::uniform(2_000).build();
/// let memory = configs::two_to_one(2_500);
/// let mut system = System::new(memory, Box::new(Tpp::new()), Box::new(workload), 42)?;
/// system.run(3 * SEC);
/// assert!(system.metrics().ops_completed > 0);
///
/// // Two services sharing one machine.
/// let a = tiered_workloads::cache1(2_000).build();
/// let b = tiered_workloads::data_warehouse(2_000).build();
/// let memory = configs::two_to_one(6_000);
/// let mut system =
///     System::colocated(memory, Box::new(Tpp::new()), vec![Box::new(a), Box::new(b)], 7)?;
/// system.run(2 * SEC);
/// assert_eq!(system.lane_count(), 2);
/// # Ok::<(), tpp::policy::UnsupportedConfig>(())
/// ```
pub struct System {
    memory: Memory,
    policy: Box<dyn PlacementPolicy>,
    lanes: Vec<Lane>,
    latency: LatencyModel,
    rng: SimRng,
    daemon_timer: Periodic,
    sample_timer: Periodic,
    /// Per-node access latency, indexed by `NodeId` — node latencies are
    /// fixed at machine-build time, so the access path reads this array
    /// instead of chasing `memory.node(node)` per access. Sized like each
    /// lane's node access table, so one bounds check covers both.
    node_latency_ns: [u64; NodeList::CAPACITY],
    /// The event buffer every op is generated into, cleared between ops
    /// and kept across runs, so steady-state ops allocate nothing.
    op_events: Vec<WorkloadEvent>,
}

impl System {
    /// Assembles a system, validating the policy against the machine and
    /// registering the workload's process.
    ///
    /// # Errors
    ///
    /// [`UnsupportedConfig`] if the policy refuses the machine (e.g.
    /// AutoTiering on a 1:4 split).
    pub fn new(
        memory: Memory,
        policy: Box<dyn PlacementPolicy>,
        workload: Box<dyn Workload>,
        seed: u64,
    ) -> Result<System, UnsupportedConfig> {
        System::colocated(memory, policy, vec![workload], seed)
    }

    /// Assembles a system whose workloads share the machine, one lane
    /// each, in the given order.
    ///
    /// # Errors
    ///
    /// [`UnsupportedConfig`] if the policy rejects the machine.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty or two workloads share a pid.
    pub fn colocated(
        memory: Memory,
        policy: Box<dyn PlacementPolicy>,
        workloads: Vec<Box<dyn Workload>>,
        seed: u64,
    ) -> Result<System, UnsupportedConfig> {
        assert!(!workloads.is_empty(), "at least one workload required");
        policy.validate_config(&memory)?;
        let mut memory = memory;
        for w in &workloads {
            memory.create_process(w.pid());
        }
        // Topology ids are dense and in index order (the builder asserts
        // it), so this array indexes directly by `NodeId`.
        let mut node_latency_ns = [0; NodeList::CAPACITY];
        for id in memory.topology().ids() {
            node_latency_ns[id.index()] = memory.node(id).latency_ns();
        }
        let lanes = workloads
            .into_iter()
            .map(|workload| Lane {
                workload,
                clock_ns: 0,
                metrics: RunMetrics::new(),
            })
            .collect();
        let daemon_timer = Periodic::new(policy.tick_period_ns());
        Ok(System {
            memory,
            policy,
            lanes,
            latency: LatencyModel::datacenter(),
            rng: SimRng::seed(seed),
            daemon_timer,
            sample_timer: Periodic::new(RunMetrics::sample_period_ns()),
            node_latency_ns,
            op_events: Vec::new(),
        })
    }

    /// Turns tracing on: every counted memory event is also kept as a
    /// timestamped trace record ([`Memory::enable_trace`]). Traced runs
    /// are bit-identical to untraced ones.
    pub fn enable_trace(&mut self) {
        self.memory.enable_trace();
    }

    /// Hands out the trace records kept so far ([`Memory::take_trace`]).
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.memory.take_trace()
    }

    /// The machine state.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Collected metrics of the first (for [`System::new`], the only)
    /// workload.
    pub fn metrics(&self) -> &RunMetrics {
        &self.lanes[0].metrics
    }

    /// Number of workloads sharing the machine.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Metrics of lane `i` (same order as construction).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn lane_metrics(&self, i: usize) -> &RunMetrics {
        &self.lanes[i].metrics
    }

    /// Name of the workload in lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn lane_name(&self, i: usize) -> &str {
        self.lanes[i].workload.name()
    }

    /// Current simulated time: the furthest-behind lane's clock (every
    /// lane has fully executed up to this instant).
    pub fn now_ns(&self) -> u64 {
        self.lanes.iter().map(|l| l.clock_ns).min().unwrap_or(0)
    }

    /// Runs every lane for `duration_ns` of simulated time.
    pub fn run(&mut self, duration_ns: u64) {
        self.run_observed(duration_ns, |_, _| {});
    }

    /// Runs every lane for `duration_ns`, calling `observe(now, access)`
    /// after each access resolves, with the start time of the op that
    /// issued it (e.g. to feed a Chameleon profiler). Every lane's access
    /// totals are settled when it returns.
    pub fn run_observed(&mut self, duration_ns: u64, mut observe: impl FnMut(u64, &Access)) {
        let end: Vec<u64> = self
            .lanes
            .iter()
            .map(|l| l.clock_ns + duration_ns)
            .collect();
        // Taken out of `self` for the loop: resolving an event needs
        // `self` mutably while the buffer is borrowed.
        let mut events = std::mem::take(&mut self.op_events);
        // Progress the lane that is furthest behind; stop when every lane
        // reached its end.
        while let Some(i) = self
            .lanes
            .iter()
            .enumerate()
            .filter(|(i, l)| l.clock_ns < end[*i])
            .min_by_key(|(i, l)| (l.clock_ns, *i))
            .map(|(i, _)| i)
        {
            let now = self.lanes[i].clock_ns;
            self.memory.set_trace_now(now);
            events.clear();
            let cpu_ns = self.lanes[i]
                .workload
                .next_op_into(now, &mut self.rng, &mut events);
            let mut mem_ns = 0u64;
            for event in &events {
                match *event {
                    WorkloadEvent::Access(access) => {
                        mem_ns += self.execute_access(i, now, &access);
                        observe(now, &access);
                    }
                    WorkloadEvent::Free { pid, vpn } => {
                        self.memory.release(pid, vpn);
                    }
                }
            }
            // A zero-cost op still moves its lane forward by 1 ns; the
            // metrics record its true cost.
            let op_ns = cpu_ns + mem_ns;
            let lane = &mut self.lanes[i];
            lane.clock_ns += op_ns.max(1);
            lane.metrics.note_op(op_ns, mem_ns);
            // Daemons and sampling follow the global (min) clock.
            let now = self.now_ns();
            self.memory.set_trace_now(now);
            // Daemon wakeups (capped catch-up after long ops).
            let fires = self.daemon_timer.fire(now).min(4);
            for _ in 0..fires {
                let mut ctx = PolicyCtx {
                    memory: &mut self.memory,
                    latency: &self.latency,
                    now_ns: now,
                };
                self.policy.tick(&mut ctx);
            }
            if self.sample_timer.fire(now) > 0 {
                for lane in &mut self.lanes {
                    lane.metrics.sample(now, &self.memory);
                }
            }
        }
        self.op_events = events;
        for lane in &mut self.lanes {
            lane.metrics.settle(&self.memory);
        }
    }

    /// Resolves one access of the first lane exactly as the run loop
    /// would (for benchmarking the resolution hot path in isolation).
    /// Returns the latency charged to the op. The lane's access totals
    /// count it once they next settle (the next sample or run).
    pub fn resolve_access(&mut self, now_ns: u64, access: &Access) -> u64 {
        self.execute_access(0, now_ns, access)
    }

    /// Resolves one access of lane `lane`: fault if unmapped/swapped,
    /// hint-fault handling, reference bookkeeping. Returns the latency
    /// charged to the op.
    ///
    /// The overwhelmingly common case — page mapped, no hint PTE — is a
    /// branch-light fast path straight to [`System::touch_and_charge`].
    /// Everything else (faults, hint faults) falls through to
    /// [`System::execute_access_slow`], which stays out of line so the
    /// run loop this is inlined into keeps only the fast path.
    #[inline(always)]
    fn execute_access(&mut self, lane: usize, now: u64, access: &Access) -> u64 {
        if let Some(PageLocation::Mapped(pfn)) = self.memory.space(access.pid).translate(access.vpn)
        {
            let flags = self.memory.frames().frame(pfn).flags();
            if !flags.contains(PageFlags::HINTED) {
                return self.touch_and_charge(lane, now, access, pfn);
            }
        }
        self.execute_access_slow(lane, now, access)
    }

    /// The uncommon cases: page fault (first touch or swap-in) and NUMA
    /// hint faults, both of which need a [`PolicyCtx`].
    #[inline(never)]
    fn execute_access_slow(&mut self, lane: usize, now: u64, access: &Access) -> u64 {
        let mut cost = 0u64;
        let mut pfn = match self.memory.space(access.pid).translate(access.vpn) {
            Some(PageLocation::Mapped(pfn)) => pfn,
            _ => {
                let mut ctx = PolicyCtx {
                    memory: &mut self.memory,
                    latency: &self.latency,
                    now_ns: now,
                };
                let out =
                    self.policy
                        .handle_fault(&mut ctx, access.pid, access.vpn, access.page_type);
                cost += out.cost_ns;
                out.pfn
            }
        };
        let frame = self.memory.frames_mut().frame_mut(pfn);
        if frame.flags().contains(PageFlags::HINTED) {
            frame.flags_mut().remove(PageFlags::HINTED);
            let node = frame.node();
            self.memory.record(TraceEvent::HintFault {
                page: PageKey::new(access.pid, access.vpn),
                node,
            });
            cost += self.latency.hint_fault_ns;
            let mut ctx = PolicyCtx {
                memory: &mut self.memory,
                latency: &self.latency,
                now_ns: now,
            };
            cost += self.policy.on_hint_fault(&mut ctx, pfn);
            // The policy may have migrated the page.
            pfn = match self.memory.space(access.pid).translate(access.vpn) {
                Some(PageLocation::Mapped(p)) => p,
                other => panic!("page vanished during hint fault: {other:?}"),
            };
        }
        cost + self.touch_and_charge(lane, now, access, pfn)
    }

    /// Records an access to the resident page `pfn`: marks it referenced
    /// (and dirty for a store) and charges `lane`'s metrics. Returns the
    /// stall charged to the op.
    ///
    /// Always inlined, so the fast path's frame lookup is shared with its
    /// `HINTED` check instead of being repeated behind a call.
    #[inline(always)]
    fn touch_and_charge(&mut self, lane: usize, now: u64, access: &Access, pfn: Pfn) -> u64 {
        let mark = if access.kind == AccessKind::Store {
            PageFlags::REFERENCED | PageFlags::DIRTY
        } else {
            PageFlags::REFERENCED
        };
        let frame = self.memory.frames_mut().frame_mut(pfn);
        frame.flags_mut().insert(mark);
        frame.touch_hotness();
        frame.set_last_access_ns(now);
        let node = frame.node();
        // A touch anywhere in a compound page keeps the whole unit warm:
        // only the head has LRU standing, so tail accesses forward their
        // marks to it (the kernel's `page_referenced` collects young bits
        // over every PTE of a THP).
        if frame.flags().contains(PageFlags::TAIL) {
            let head = self.memory.compound_head(pfn);
            let head_frame = self.memory.frames_mut().frame_mut(head);
            head_frame.flags_mut().insert(mark);
            head_frame.touch_hotness();
            head_frame.set_last_access_ns(now);
        }
        self.lanes[lane]
            .metrics
            .note_access(node, access.page_type.is_anon());
        // One workload access stands for a bundle of LLC misses (see
        // `LatencyModel::access_bundle`); metrics record the per-miss
        // latency, the op is charged the whole stall.
        self.node_latency_ns[node.index()] * self.latency.access_bundle
    }
}

/// The former co-location runner's constructor, kept so existing callers
/// compile: a [`System`] built by [`System::colocated`].
pub struct MultiSystem(System);

impl MultiSystem {
    /// Forwards to [`System::colocated`].
    ///
    /// # Errors
    ///
    /// [`UnsupportedConfig`] if the policy rejects the machine.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty or two workloads share a pid.
    pub fn new(
        memory: Memory,
        policy: Box<dyn PlacementPolicy>,
        workloads: Vec<Box<dyn Workload>>,
        seed: u64,
    ) -> Result<MultiSystem, UnsupportedConfig> {
        System::colocated(memory, policy, workloads, seed).map(MultiSystem)
    }
}

impl Deref for MultiSystem {
    type Target = System;

    fn deref(&self) -> &System {
        &self.0
    }
}

impl DerefMut for MultiSystem {
    fn deref_mut(&mut self) -> &mut System {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use crate::policy::{LinuxDefault, Tpp};
    use tiered_mem::{NodeId, NodeKind, PageType, Pid, ThpMode, Vpn, HUGE_PAGE_FRAMES};
    use tiered_sim::{Op, MS, SEC};

    fn quick_system(policy: Box<dyn PlacementPolicy>) -> System {
        let workload = tiered_workloads::uniform(2_000).build();
        let memory = configs::two_to_one(2_500);
        System::new(memory, policy, Box::new(workload), 7).unwrap()
    }

    #[test]
    fn run_completes_ops_and_advances_time() {
        let mut s = quick_system(Box::new(LinuxDefault::new()));
        s.run(2 * SEC);
        assert!(s.now_ns() >= 2 * SEC);
        assert!(s.metrics().ops_completed > 1000);
        assert!(s.metrics().accesses > 1000);
        s.memory().validate();
    }

    #[test]
    fn metrics_sampled_once_per_second() {
        let mut s = quick_system(Box::new(LinuxDefault::new()));
        s.run(3 * SEC);
        assert!((3..=4).contains(&s.metrics().throughput.points().len()));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut s = quick_system(Box::new(Tpp::new()));
            s.run(SEC);
            (s.metrics().ops_completed, s.metrics().accesses, s.now_ns())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn working_set_materialises_on_the_machine() {
        let mut s = quick_system(Box::new(LinuxDefault::new()));
        s.run(2 * SEC);
        let used: u64 = (0..s.memory().node_count())
            .map(|i| s.memory().frames().used_pages(NodeId(i as u8)))
            .sum();
        assert!(used > 500, "only {used} pages materialised");
    }

    #[test]
    fn observer_sees_every_access() {
        let mut s = quick_system(Box::new(LinuxDefault::new()));
        let mut seen = 0u64;
        s.run_observed(SEC, |_, _| seen += 1);
        assert_eq!(seen, s.metrics().accesses);
    }

    #[test]
    fn access_counters_partition_a_mixed_tpp_run() {
        // cache1 mixes anon and tmpfs (file) pages at random per access,
        // and on a 1:4 machine part of its traffic is served from CXL.
        let workload = tiered_workloads::cache1(2_000).build();
        let memory = configs::one_to_four(2_000);
        let mut s = System::new(memory, Box::new(Tpp::new()), Box::new(workload), 7).unwrap();
        s.run(2 * SEC);
        let m = s.metrics();
        assert!(m.cxl_accesses > 0, "no CXL traffic");
        assert!(
            m.anon_accesses > 0 && m.anon_accesses < m.accesses,
            "no type mix"
        );
        assert_eq!(m.local_accesses + m.cxl_accesses, m.accesses);
        assert!(m.anon_local_accesses <= m.anon_accesses.min(m.local_accesses));
    }

    fn two_lane_system(policy: Box<dyn PlacementPolicy>) -> System {
        let a = tiered_workloads::cache1(1_500).build();
        let b = tiered_workloads::data_warehouse(1_500).build();
        let ws = 1_500 * 2 + 1_500; // regions + churn headroom
        System::colocated(
            configs::two_to_one(ws),
            policy,
            vec![Box::new(a), Box::new(b)],
            3,
        )
        .unwrap()
    }

    #[test]
    fn lanes_progress_together() {
        let mut s = two_lane_system(Box::new(LinuxDefault::new()));
        s.run(3 * SEC);
        assert!(s.now_ns() >= 3 * SEC);
        for i in 0..s.lane_count() {
            assert!(
                s.lane_metrics(i).ops_completed > 100,
                "lane {i} ({}) starved",
                s.lane_name(i)
            );
        }
        s.memory().validate();
    }

    #[test]
    fn shared_machine_keeps_per_process_isolation() {
        let mut s = two_lane_system(Box::new(Tpp::new()));
        s.run(2 * SEC);
        // Both processes have pages resident and no cross-owner mappings
        // (validate checks the rmap bijection).
        let m = s.memory();
        for pid in m.pids() {
            assert!(m.space(pid).resident_pages() > 0, "{pid} has no memory");
        }
        m.validate();
    }

    #[test]
    fn deterministic_interleave() {
        let run = || {
            let mut s = two_lane_system(Box::new(Tpp::new()));
            s.run(SEC);
            (
                s.lane_metrics(0).ops_completed,
                s.lane_metrics(1).ops_completed,
                s.memory().vmstat().to_string(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn observing_a_colocated_run_sees_every_lane_in_order_and_changes_nothing() {
        let mut observed = two_lane_system(Box::new(Tpp::new()));
        let mut seen = 0u64;
        let mut last_ns = std::collections::BTreeMap::new();
        observed.run_observed(SEC, |now, access| {
            seen += 1;
            let last = last_ns.entry(access.pid).or_insert(0);
            assert!(now >= *last, "{} went back in time", access.pid);
            *last = now;
        });
        let lanes = 0..observed.lane_count();
        let accesses: u64 = lanes
            .clone()
            .map(|i| observed.lane_metrics(i).accesses)
            .sum();
        assert_eq!(seen, accesses);
        assert_eq!(last_ns.len(), 2, "a lane went unobserved");

        let mut plain = two_lane_system(Box::new(Tpp::new()));
        plain.run(SEC);
        assert_eq!(
            observed.memory().vmstat().to_string(),
            plain.memory().vmstat().to_string()
        );
        for i in lanes {
            assert_eq!(
                format!("{:?}", observed.lane_metrics(i)),
                format!("{:?}", plain.lane_metrics(i))
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one workload")]
    fn empty_lane_list_rejected() {
        let _ = System::colocated(
            configs::all_local(1_000),
            Box::new(LinuxDefault::new()),
            vec![],
            1,
        );
    }

    /// Touches only tail pages (VPNs 1..=3) of its first 512-page window,
    /// so any warmth the compound head gets is forwarded from its tails.
    struct TailToucher;

    impl Workload for TailToucher {
        fn name(&self) -> &str {
            "tail_toucher"
        }
        fn pid(&self) -> Pid {
            Pid(99)
        }
        fn next_op(&mut self, _now_ns: u64, _rng: &mut SimRng) -> Op {
            let touch = |vpn| {
                WorkloadEvent::Access(Access {
                    pid: Pid(99),
                    vpn: Vpn(vpn),
                    kind: AccessKind::Load,
                    page_type: PageType::Anon,
                })
            };
            Op {
                cpu_ns: 1_000,
                events: (1..=3).map(touch).collect(),
            }
        }
        fn working_set_pages(&self) -> u64 {
            HUGE_PAGE_FRAMES
        }
    }

    #[test]
    fn colocated_tail_touches_warm_the_compound_head() {
        let mut machine = Memory::builder();
        machine
            .node(NodeKind::LocalDram, 4_096)
            .node(NodeKind::Cxl, 2_048)
            .swap_pages(4_096)
            .thp_mode(ThpMode::Always);
        let other = tiered_workloads::uniform(1_000).build();
        let mut s = System::colocated(
            machine.build(),
            Box::new(LinuxDefault::new()),
            vec![Box::new(other), Box::new(TailToucher)],
            5,
        )
        .unwrap();
        s.run(100 * MS);
        let m = s.memory();
        let tail_pfn = match m.space(Pid(99)).translate(Vpn(1)) {
            Some(PageLocation::Mapped(pfn)) => pfn,
            other => panic!("tail not mapped: {other:?}"),
        };
        let tail = m.frames().frame(tail_pfn);
        assert!(tail.flags().contains(PageFlags::TAIL), "no compound page");
        let head = m.frames().frame(m.compound_head(tail_pfn));
        assert!(head.flags().contains(PageFlags::REFERENCED));
        assert!(head.hotness() > 0, "head hotness never rose");
        assert_eq!(head.last_access_ns(), tail.last_access_ns());
        m.validate();
    }
}
