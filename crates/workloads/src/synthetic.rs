//! The generic synthetic workload: warm-up phase + windowed regions +
//! short-lived allocation churn, assembled from a [`WorkloadProfile`].

use tiered_mem::{PageType, Pid, Vpn};
use tiered_sim::{Access, AccessKind, Op, SimRng, Workload, WorkloadEvent};

use crate::region::{RegionSpec, WindowedRegion};
use crate::transient::TransientPool;

/// Sequential materialisation of regions at start-up (e.g. Web loading VM
/// binaries and bytecode into the page cache, paper §3.5/§6.2.1).
#[derive(Clone, PartialEq, Debug)]
pub struct WarmupSpec {
    /// Indices into the profile's region list, warmed in order.
    pub region_indices: Vec<usize>,
    /// Pages touched per warm-up op.
    pub pages_per_op: u32,
    /// CPU time per warm-up op.
    pub cpu_ns_per_op: u64,
    /// When `true`, regions warm proportionally in lock-step (each op
    /// advances whichever region is least-complete) instead of strictly
    /// in list order — services that populate their cache and working
    /// heap together.
    pub interleave: bool,
}

/// Short-lived allocation behaviour (request churn).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TransientSpec {
    /// Expected fresh allocations per steady-state op (may be fractional).
    pub allocs_per_op: f64,
    /// Accesses to each fresh page right after allocation.
    pub touches_per_page: u32,
    /// Page lifetime before the workload frees it.
    pub lifetime_ns: u64,
    /// Size of the recycled VPN range.
    pub range_pages: u64,
}

/// Complete parameterisation of a synthetic workload.
#[derive(Clone, PartialEq, Debug)]
pub struct WorkloadProfile {
    /// Workload name (shows up in reports).
    pub name: String,
    /// Process id the workload runs as.
    pub pid: Pid,
    /// The long-lived regions.
    pub regions: Vec<RegionSpec>,
    /// Per-region access weights (same length as `regions`).
    pub region_weights: Vec<f64>,
    /// Page accesses per steady-state op.
    pub accesses_per_op: u32,
    /// CPU time per steady-state op (excluding memory stalls).
    pub cpu_ns_per_op: u64,
    /// Optional warm-up phase.
    pub warmup: Option<WarmupSpec>,
    /// Optional short-lived churn.
    pub transient: Option<TransientSpec>,
}

impl WorkloadProfile {
    /// Total working-set footprint in pages: long-lived regions plus the
    /// transient churn range. Machines must be sized against *this*, not
    /// just the region sum.
    pub fn working_set_pages(&self) -> u64 {
        let regions: u64 = self.regions.iter().map(|r| r.pages).sum();
        regions + self.transient.map_or(0, |t| t.range_pages)
    }

    /// Instantiates the runnable workload.
    ///
    /// # Panics
    ///
    /// Panics if weights and regions disagree in length, or any warm-up
    /// index is out of range.
    pub fn build(&self) -> SyntheticWorkload {
        assert_eq!(
            self.regions.len(),
            self.region_weights.len(),
            "one weight per region required"
        );
        if let Some(w) = &self.warmup {
            for &i in &w.region_indices {
                assert!(i < self.regions.len(), "warm-up region {i} out of range");
            }
        }
        let regions: Vec<WindowedRegion> = self
            .regions
            .iter()
            .cloned()
            .map(WindowedRegion::new)
            .collect();
        let pool = self
            .transient
            .map(|t| TransientPool::new(TRANSIENT_BASE_VPN, t.range_pages, t.lifetime_ns));
        let materialize_cursors = vec![0u64; regions.len()];
        SyntheticWorkload {
            profile: self.clone(),
            weight_total: self.region_weights.iter().sum(),
            regions,
            pool,
            warmup_pos: self.warmup.as_ref().map(|_| (0, 0)),
            materialize_cursors,
            materialized: false,
            alloc_carry: 0.0,
            op_seq: 0,
        }
    }
}

/// Base VPN of the transient churn range (disjoint from all regions).
pub const TRANSIENT_BASE_VPN: u64 = 3 << 32;

/// A runnable synthetic workload (see [`WorkloadProfile`]).
#[derive(Clone, Debug)]
pub struct SyntheticWorkload {
    profile: WorkloadProfile,
    /// `profile.region_weights.iter().sum()`, hoisted out of every draw.
    weight_total: f64,
    regions: Vec<WindowedRegion>,
    pool: Option<TransientPool>,
    /// `(warm-up list position, page offset within that region)`;
    /// `None` once warm-up finished (or was never configured).
    warmup_pos: Option<(usize, u64)>,
    /// Per-region materialisation cursor: regions represent *allocated*
    /// memory, so every allocated page is touched at least once shortly
    /// after it comes into existence (the paper's workloads consume
    /// 95–98% of system capacity). Growth regions materialise
    /// progressively as they grow.
    materialize_cursors: Vec<u64>,
    /// Whether every cursor reached its region's full size: nothing is
    /// left to materialise, so steady ops skip the per-region check.
    materialized: bool,
    /// Fractional-allocation accumulator for `allocs_per_op`.
    alloc_carry: f64,
    op_seq: u64,
}

impl SyntheticWorkload {
    /// Whether the workload is still in its warm-up phase.
    pub fn in_warmup(&self) -> bool {
        self.warmup_pos.is_some()
    }

    /// The regions, for inspection by tests and reports.
    pub fn regions(&self) -> &[WindowedRegion] {
        &self.regions
    }

    /// Live short-lived pages right now.
    pub fn transient_live(&self) -> u64 {
        self.pool.as_ref().map_or(0, |p| p.live_count())
    }

    /// One warm-up op: appends its events, returns its CPU time.
    fn warmup_op(&mut self, events: &mut Vec<WorkloadEvent>) -> u64 {
        // Moved out and back rather than cloned: the spec owns a Vec, and
        // the warm-up helpers need `self` mutably.
        let warmup = self
            .profile
            .warmup
            .take()
            .expect("in warm-up without a spec");
        if warmup.interleave {
            self.warmup_op_interleaved(&warmup, events);
        } else {
            self.warmup_op_sequential(&warmup, events);
        }
        let cpu_ns = warmup.cpu_ns_per_op;
        self.profile.warmup = Some(warmup);
        cpu_ns
    }

    /// Warms the regions strictly in list order.
    fn warmup_op_sequential(&mut self, warmup: &WarmupSpec, events: &mut Vec<WorkloadEvent>) {
        let (mut list_pos, mut offset) = self.warmup_pos.expect("warm-up cursor missing");
        for _ in 0..warmup.pages_per_op {
            let region_idx = warmup.region_indices[list_pos];
            let spec = self.regions[region_idx].spec();
            events.push(WorkloadEvent::Access(Access {
                pid: self.profile.pid,
                vpn: Vpn(spec.base_vpn + offset),
                kind: AccessKind::Load,
                page_type: spec.page_type,
            }));
            offset += 1;
            if offset >= spec.pages {
                offset = 0;
                list_pos += 1;
                if list_pos >= warmup.region_indices.len() {
                    self.warmup_pos = None;
                    for &r in &warmup.region_indices {
                        self.materialize_cursors[r] = self.regions[r].spec().pages;
                    }
                    return;
                }
            }
        }
        self.warmup_pos = Some((list_pos, offset));
    }

    /// Proportional warm-up: each page goes to the least-complete region,
    /// so all warmed regions finish together. Uses the materialisation
    /// cursors directly as progress markers.
    fn warmup_op_interleaved(&mut self, warmup: &WarmupSpec, events: &mut Vec<WorkloadEvent>) {
        for _ in 0..warmup.pages_per_op {
            // Pick the least-complete region by progress fraction.
            let mut best: Option<(usize, f64)> = None;
            for &r in &warmup.region_indices {
                let pages = self.regions[r].spec().pages;
                let cursor = self.materialize_cursors[r];
                if cursor >= pages {
                    continue;
                }
                let frac = cursor as f64 / pages as f64;
                if best.is_none_or(|(_, bf)| frac < bf) {
                    best = Some((r, frac));
                }
            }
            let Some((r, _)) = best else {
                self.warmup_pos = None;
                return;
            };
            let spec = self.regions[r].spec();
            events.push(WorkloadEvent::Access(Access {
                pid: self.profile.pid,
                vpn: Vpn(spec.base_vpn + self.materialize_cursors[r]),
                kind: AccessKind::Load,
                page_type: spec.page_type,
            }));
            self.materialize_cursors[r] += 1;
        }
    }

    /// Materialises newly allocated region pages (first-touch faults):
    /// allocated memory is touched at least once, so working sets occupy
    /// real capacity even where the hot window rarely visits.
    fn materialize(&mut self, now_ns: u64, events: &mut Vec<WorkloadEvent>) {
        let mut done = true;
        for (region, cursor) in self.regions.iter().zip(&mut self.materialize_cursors) {
            let allocated = region.allocated_pages(now_ns);
            let mut burst = 0;
            while *cursor < allocated && burst < 16 {
                events.push(WorkloadEvent::Access(Access {
                    pid: self.profile.pid,
                    vpn: Vpn(region.spec().base_vpn + *cursor),
                    kind: AccessKind::Store,
                    page_type: region.spec().page_type,
                }));
                *cursor += 1;
                burst += 1;
            }
            done &= *cursor >= region.spec().pages;
        }
        self.materialized = done;
    }
}

impl Workload for SyntheticWorkload {
    fn name(&self) -> &str {
        &self.profile.name
    }

    fn pid(&self) -> Pid {
        self.profile.pid
    }

    fn next_op(&mut self, now_ns: u64, rng: &mut SimRng) -> Op {
        let capacity = match &self.profile.warmup {
            Some(w) if self.in_warmup() => w.pages_per_op as usize,
            _ => self.profile.accesses_per_op as usize + 4,
        };
        let mut events = Vec::with_capacity(capacity);
        let cpu_ns = self.next_op_into(now_ns, rng, &mut events);
        Op { cpu_ns, events }
    }

    fn next_op_into(
        &mut self,
        now_ns: u64,
        rng: &mut SimRng,
        events: &mut Vec<WorkloadEvent>,
    ) -> u64 {
        if self.warmup_pos.is_some() {
            return self.warmup_op(events);
        }
        self.op_seq += 1;
        if !self.materialized {
            self.materialize(now_ns, events);
        }
        let pid = self.profile.pid;
        // Steady-state region traffic.
        for _ in 0..self.profile.accesses_per_op {
            let i = rng.weighted_index_summed(&self.profile.region_weights, self.weight_total);
            let region = &self.regions[i];
            let (vpn, kind) = region.sample(now_ns, rng);
            events.push(WorkloadEvent::Access(Access {
                pid,
                vpn,
                kind,
                page_type: region.spec().page_type,
            }));
        }
        // Short-lived churn: expire old pages, allocate fresh ones.
        if let (Some(pool), Some(spec)) = (self.pool.as_mut(), self.profile.transient) {
            pool.drain_expired_into(now_ns, pid, events);
            self.alloc_carry += spec.allocs_per_op;
            while self.alloc_carry >= 1.0 {
                self.alloc_carry -= 1.0;
                let Some(vpn) = pool.allocate(now_ns) else {
                    break;
                };
                for _ in 0..spec.touches_per_page {
                    events.push(WorkloadEvent::Access(Access {
                        pid,
                        vpn,
                        kind: AccessKind::Store,
                        page_type: PageType::Anon,
                    }));
                }
            }
            // Occasionally re-touch a live transient page (they are hot).
            if let Some(vpn) = pool.peek_live(self.op_seq) {
                events.push(WorkloadEvent::Access(Access {
                    pid,
                    vpn,
                    kind: AccessKind::Load,
                    page_type: PageType::Anon,
                }));
            }
        }
        self.profile.cpu_ns_per_op
    }

    fn working_set_pages(&self) -> u64 {
        self.profile.working_set_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_sim::{MS, SEC};

    fn tiny_profile(warmup: bool, transient: bool) -> WorkloadProfile {
        WorkloadProfile {
            name: "tiny".into(),
            pid: Pid(7),
            regions: vec![
                RegionSpec::steady(0, 100, PageType::Anon, 0.3),
                RegionSpec::steady(1 << 32, 200, PageType::File, 0.2),
            ],
            region_weights: vec![0.7, 0.3],
            accesses_per_op: 4,
            cpu_ns_per_op: 10_000,
            warmup: warmup.then(|| WarmupSpec {
                region_indices: vec![1],
                pages_per_op: 64,
                cpu_ns_per_op: 5_000,
                interleave: false,
            }),
            transient: transient.then_some(TransientSpec {
                allocs_per_op: 0.5,
                touches_per_page: 2,
                lifetime_ns: 10 * MS,
                range_pages: 50,
            }),
        }
    }

    #[test]
    fn warmup_touches_every_page_once_then_ends() {
        let mut w = tiny_profile(true, false).build();
        let mut rng = SimRng::seed(1);
        assert!(w.in_warmup());
        let mut touched = Vec::new();
        while w.in_warmup() {
            let op = w.next_op(0, &mut rng);
            for e in &op.events {
                if let WorkloadEvent::Access(a) = e {
                    assert_eq!(a.page_type, PageType::File);
                    touched.push(a.vpn);
                }
            }
        }
        assert_eq!(touched.len(), 200);
        // Sequential, each page exactly once.
        for (i, vpn) in touched.iter().enumerate() {
            assert_eq!(vpn.0, (1 << 32) + i as u64);
        }
        // Steady state afterwards: 4 window accesses plus a
        // materialisation burst for the anon region (it was not warmed).
        let op = w.next_op(SEC, &mut rng);
        assert_eq!(op.cpu_ns, 10_000);
        assert_eq!(op.access_count(), 4 + 16);
        // Materialisation finishes after a few ops and steady ops settle
        // at the configured access count.
        for _ in 0..16 {
            w.next_op(SEC, &mut rng);
        }
        let op = w.next_op(SEC, &mut rng);
        assert_eq!(op.access_count(), 4);
    }

    #[test]
    fn steady_ops_respect_region_weights_roughly() {
        let mut w = tiny_profile(false, false).build();
        let mut rng = SimRng::seed(2);
        let mut anon = 0u32;
        let mut file = 0u32;
        for i in 0..2000 {
            let op = w.next_op(i * MS, &mut rng);
            for e in &op.events {
                if let WorkloadEvent::Access(a) = e {
                    match a.page_type {
                        PageType::Anon => anon += 1,
                        _ => file += 1,
                    }
                }
            }
        }
        let frac = anon as f64 / (anon + file) as f64;
        assert!((0.65..0.75).contains(&frac), "anon frac {frac}");
    }

    #[test]
    fn transient_pages_churn_and_free() {
        let mut w = tiny_profile(false, true).build();
        let mut rng = SimRng::seed(3);
        let mut frees = 0u32;
        let mut transient_accesses = 0u32;
        for i in 0..400 {
            let op = w.next_op(i * MS, &mut rng);
            for e in &op.events {
                match e {
                    WorkloadEvent::Free { vpn, .. } => {
                        assert!(vpn.0 >= TRANSIENT_BASE_VPN);
                        frees += 1;
                    }
                    WorkloadEvent::Access(a) if a.vpn.0 >= TRANSIENT_BASE_VPN => {
                        transient_accesses += 1;
                    }
                    _ => {}
                }
            }
        }
        assert!(frees > 50, "only {frees} frees");
        assert!(transient_accesses > 100);
        // Pool stays bounded by its range.
        assert!(w.transient_live() <= 50);
    }

    #[test]
    fn working_set_hint_counts_regions_and_churn_range() {
        let w = tiny_profile(false, true).build();
        assert_eq!(w.working_set_pages(), 100 + 200 + 50);
        let w2 = tiny_profile(false, false).build();
        assert_eq!(w2.working_set_pages(), 300);
    }

    #[test]
    #[should_panic(expected = "one weight per region")]
    fn mismatched_weights_rejected() {
        let mut p = tiny_profile(false, false);
        p.region_weights.pop();
        p.build();
    }
}
