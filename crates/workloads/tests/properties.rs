//! Property-style tests for the workload generators, driven by seeded
//! [`SimRng`] loops (no external proptest dependency).

use tiered_mem::{PageType, Pid, Vpn};
use tiered_sim::{AccessKind, SimRng, WeightedIndex, Workload, WorkloadEvent, SEC};
use tiered_workloads::{RegionSpec, TransientPool, WindowedRegion, WorkloadProfile, ZipfSampler};

/// Region samples never escape the region bounds, at any time, for
/// arbitrary window geometry (including frontier and tail modes).
#[test]
fn region_samples_stay_in_bounds() {
    let mut meta = SimRng::seed(0x4E61);
    for case in 0..64u64 {
        let pages = meta.range(8..5_000);
        let window_frac = 0.01 + meta.f64() * 0.99;
        let step = meta.range(1..500);
        let zipf = meta.f64() * 1.5;
        let frontier = meta.f64() * 0.9;
        let tail = meta.f64() * 0.05;
        let t = meta.range(0..100_000_000_000);
        let seed = meta.range(0..1_000);
        let spec = RegionSpec {
            base_vpn: 1_000_000,
            pages,
            page_type: PageType::Anon,
            window_frac,
            dwell_ns: 10 * SEC,
            step_pages: step,
            zipf_skew: zipf,
            store_frac: 0.3,
            growth: None,
            frontier_weight: frontier,
            frontier_frac: 0.1,
            tail_weight: tail,
        };
        let region = WindowedRegion::new(spec);
        let mut rng = SimRng::seed(seed);
        for _ in 0..200 {
            let (vpn, _) = region.sample(t, &mut rng);
            assert!(
                region.contains(vpn),
                "case {case}: {vpn} escaped the region"
            );
        }
    }
}

/// The transient pool never holds more live pages than its range and
/// never double-allocates a live VPN.
#[test]
fn transient_pool_is_always_consistent() {
    let mut meta = SimRng::seed(0x7261);
    for case in 0..64u64 {
        let range = meta.range(1..64);
        let lifetime = meta.range(1..1_000);
        let steps = meta.range(1..200);
        let mut pool = TransientPool::new(0, range, lifetime);
        let mut now = 0u64;
        let mut live = std::collections::HashSet::new();
        let mut events = Vec::new();
        for _ in 0..steps {
            now += meta.range(0..100);
            let try_alloc = meta.chance(0.5);
            events.clear();
            pool.drain_expired_into(now, Pid(1), &mut events);
            for e in &events {
                let WorkloadEvent::Free { vpn, .. } = *e else {
                    panic!("case {case}: expiry produced {e:?}");
                };
                assert!(live.remove(&vpn), "case {case}: expired {vpn} was not live");
            }
            if try_alloc {
                if let Some(vpn) = pool.allocate(now) {
                    assert!(live.insert(vpn), "case {case}: double allocation of {vpn}");
                }
            }
            assert!(pool.live_count() <= range);
            assert_eq!(pool.live_count() as usize, live.len());
        }
    }
}

/// The Zipf sampler's empirical mass is non-increasing in rank bands:
/// lower ranks get at least as much traffic as higher bands.
#[test]
fn zipf_band_mass_decreases() {
    let mut meta = SimRng::seed(0x5A1F);
    for case in 0..16u64 {
        let seed = meta.range(0..500);
        let skew = 0.4 + meta.f64();
        let zipf = ZipfSampler::new(256, skew);
        let mut rng = SimRng::seed(seed);
        let mut counts = [0u32; 4]; // bands of 64 ranks
        for _ in 0..20_000 {
            counts[(zipf.sample(&mut rng) / 64) as usize] += 1;
        }
        assert!(counts[0] >= counts[1], "case {case} skew {skew}");
        assert!(counts[1] >= counts[2].saturating_sub(150)); // noise slack
        assert!(counts[0] > counts[3]);
    }
}

/// Every built-in profile generates ops forever without panicking and
/// respects its declared access budget per op (materialisation bursts
/// and churn included).
#[test]
fn profiles_generate_bounded_ops() {
    for which in 0u8..7 {
        for seed in [0u64, 17, 61] {
            let ws = 800;
            let profile = match which {
                0 => tiered_workloads::web(ws),
                1 => tiered_workloads::cache1(ws),
                2 => tiered_workloads::cache2(ws),
                3 => tiered_workloads::data_warehouse(ws),
                4 => tiered_workloads::kv_store(ws),
                5 => tiered_workloads::batch_analytics(ws),
                _ => tiered_workloads::uniform(ws),
            };
            let per_op_cap = profile.accesses_per_op as usize
                + 16 * profile.regions.len() // materialisation bursts
                + 8 // churn touches + retouch
                + profile.transient.map_or(0, |t| {
                    t.touches_per_page as usize * (t.allocs_per_op.ceil() as usize + 1)
                });
            let mut w = profile.build();
            let mut rng = SimRng::seed(seed);
            for i in 0..500u64 {
                let was_warmup = w.in_warmup();
                let op = w.next_op(i * 20_000_000, &mut rng);
                if !was_warmup {
                    assert!(
                        op.access_count() <= per_op_cap,
                        "profile {which} seed {seed}: op with {} accesses exceeds cap {per_op_cap}",
                        op.access_count()
                    );
                }
                for e in &op.events {
                    if let WorkloadEvent::Access(a) = e {
                        assert_eq!(a.pid, w.pid());
                    }
                }
            }
        }
    }
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn add_event(&mut self, e: &WorkloadEvent) {
        match *e {
            WorkloadEvent::Access(a) => {
                self.add(0);
                self.add(u64::from(a.pid.0));
                self.add(a.vpn.0);
                self.add(matches!(a.kind, AccessKind::Store) as u64);
                self.add(match a.page_type {
                    PageType::Anon => 0,
                    PageType::File => 1,
                    PageType::Tmpfs => 2,
                });
            }
            WorkloadEvent::Free { pid, vpn } => {
                self.add(1);
                self.add(u64::from(pid.0));
                self.add(vpn.0);
            }
        }
    }
}

/// Every profile in `profiles.rs`, by name.
fn all_profiles(ws_pages: u64) -> Vec<WorkloadProfile> {
    vec![
        tiered_workloads::web(ws_pages),
        tiered_workloads::cache1(ws_pages),
        tiered_workloads::cache2(ws_pages),
        tiered_workloads::data_warehouse(ws_pages),
        tiered_workloads::kv_store(ws_pages),
        tiered_workloads::batch_analytics(ws_pages),
        tiered_workloads::thp_friendly(ws_pages),
        tiered_workloads::fragmenter(ws_pages),
        tiered_workloads::uniform(ws_pages),
    ]
}

/// Simulated time between consecutive ops on top of each op's own CPU
/// time, standing in for memory stalls: 20k ops then span ~60 s, which
/// covers warm-up, Web's 12 s growth surge, two dwell steps and several
/// transient lifetimes.
const PINNED_STALL_NS: u64 = 3_000_000;

/// FNV digest of `ops` ops of `profile` (events and `cpu_ns`) plus the
/// RNG's next draw afterwards, generated the way the run loop generates
/// them: `next_op_into` on one reused buffer.
fn event_stream_digest(profile: &WorkloadProfile, ops: u32) -> u64 {
    let mut w = profile.build();
    let mut rng = SimRng::seed(0xD16E57);
    let mut fnv = Fnv::new();
    let mut now = 0u64;
    let mut events = Vec::new();
    for _ in 0..ops {
        events.clear();
        let cpu_ns = w.next_op_into(now, &mut rng, &mut events);
        fnv.add(cpu_ns);
        fnv.add(events.len() as u64);
        for e in &events {
            fnv.add_event(e);
        }
        now += cpu_ns + PINNED_STALL_NS;
    }
    fnv.add(rng.u64());
    fnv.0
}

/// The exact event stream of every profile is pinned: a generator
/// optimisation must not move a single event or RNG draw.
#[test]
fn profile_event_streams_are_pinned() {
    const PINNED: [(&str, u64); 9] = [
        ("web", 0x668e6763305eb419),
        ("cache1", 0xf01a77c4c83d61f2),
        ("cache2", 0x6aa489fc22744b5e),
        ("data_warehouse", 0x6b36c2ee6575c64e),
        ("kv_store", 0xf59c328abe0d904a),
        ("batch_analytics", 0x964072cd0e3d4e86),
        ("thp_friendly", 0xe6d91a76c6a52457),
        ("fragmenter", 0xc88785eb049863eb),
        ("uniform", 0x2fdd9a5c6de93f09),
    ];
    let actual: Vec<(String, u64)> = all_profiles(3_000)
        .iter()
        .map(|p| (p.name.clone(), event_stream_digest(p, 20_000)))
        .collect();
    let expected: Vec<(String, u64)> = PINNED.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(
        actual,
        expected,
        "event streams moved; actual digests:\n{}",
        actual
            .iter()
            .map(|(n, d)| format!("        (\"{n}\", {d:#018x}),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// `next_op_into` appends exactly `next_op`'s events after whatever the
/// buffer already holds, returns the same CPU time and leaves the RNG at
/// the same stream position.
#[test]
fn next_op_into_appends_what_next_op_returns() {
    let sentinel = WorkloadEvent::Free {
        pid: Pid(99),
        vpn: Vpn(0xDEAD),
    };
    for profile in all_profiles(3_000) {
        let mut by_op = profile.build();
        let mut by_into = profile.build();
        let mut rng_op = SimRng::seed(0x1A70);
        let mut rng_into = SimRng::seed(0x1A70);
        // Carried over from op to op: earlier ops' events must survive.
        let mut events = vec![sentinel];
        let mut now = 0u64;
        for i in 0..5_000 {
            let op = by_op.next_op(now, &mut rng_op);
            let before = events.len();
            let cpu_ns = by_into.next_op_into(now, &mut rng_into, &mut events);
            assert_eq!(cpu_ns, op.cpu_ns, "{} op {i}", profile.name);
            assert_eq!(&events[before..], &op.events[..], "{} op {i}", profile.name);
            assert_eq!(events[0], sentinel, "{} op {i}", profile.name);
            if events.len() > 4_096 {
                events.truncate(1);
            }
            now += cpu_ns + PINNED_STALL_NS;
        }
        assert_eq!(rng_op.u64(), rng_into.u64(), "{}", profile.name);
    }
}

/// `2^53`: the number of distinct draws `SimRng::f64` scales to `[0, 1)`.
const TWO_POW_53: u64 = 1 << 53;

/// The `f64` that `SimRng::f64` makes of the 53-bit draw `u`.
fn unit(u: u64) -> f64 {
    u as f64 * (1.0 / TWO_POW_53 as f64)
}

/// The region a draw of `u` picks under the float formula: scale by the
/// weights' sum, then subtract weights until one exceeds the rest.
fn float_region(u: u64, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut x = unit(u) * total;
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// Asserts that the monotone predicate `at` first holds at the integer
/// threshold `t`: false at `t − 1`, true at `t` and `t + 1` (each where it
/// is a 53-bit draw).
fn assert_threshold(t: u64, at: impl Fn(u64) -> bool, what: &str) {
    assert!(t <= TWO_POW_53, "{what}: threshold {t} above 2^53");
    if t > 0 {
        assert!(!at(t - 1), "{what}: holds at T-1 = {}", t - 1);
    }
    for u in [t, t + 1] {
        if u < TWO_POW_53 {
            assert!(at(u), "{what}: fails at {u} (T = {t})");
        }
    }
}

/// Every probability a profile's regions draw with, named.
fn profile_probabilities(profile: &WorkloadProfile) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (r, spec) in profile.regions.iter().enumerate() {
        for (what, p) in [
            ("tail", spec.tail_weight),
            ("frontier", spec.frontier_weight),
            ("store", spec.store_frac),
        ] {
            out.push((format!("{} region {r} {what}", profile.name), p));
        }
    }
    out
}

/// Integer thresholds decide every draw exactly as the float formulas:
/// each region boundary of every profile is the first 53-bit draw the
/// float region choice puts at or past that region, each coin's
/// `chance_bound` the first draw `unit(u) < p` rejects, and a seeded
/// sweep of draws agrees with both float formulas and with
/// `SimRng::chance`.
#[test]
fn integer_thresholds_match_the_float_draws() {
    let mut sweep = SimRng::seed(0x7E5);
    for profile in all_profiles(3_000) {
        let weights = &profile.region_weights;
        let choice = WeightedIndex::new(weights);
        let bounds = choice.bounds();
        assert_eq!(bounds.len(), weights.len() - 1, "{}", profile.name);
        for (k, &t) in bounds.iter().enumerate() {
            let what = format!("{} region boundary {}", profile.name, k + 1);
            assert_threshold(t, |u| float_region(u, weights) > k, &what);
        }
        let probabilities = profile_probabilities(&profile);
        for (what, p) in &probabilities {
            assert_threshold(SimRng::chance_bound(*p), |u| unit(u) >= *p, what);
        }
        for _ in 0..20_000 {
            let rng = sweep.clone();
            let u = sweep.u53();
            let by_bounds = bounds.iter().filter(|&&t| u >= t).count();
            assert_eq!(
                by_bounds,
                float_region(u, weights),
                "{} u={u}",
                profile.name
            );
            assert_eq!(
                choice.sample(&mut rng.clone()),
                by_bounds,
                "{} u={u}",
                profile.name
            );
            for (what, p) in &probabilities {
                let t = SimRng::chance_bound(*p);
                assert_eq!(u < t, unit(u) < *p, "{what} u={u}");
                assert_eq!(rng.clone().chance(*p), u < t, "{what} u={u}");
            }
        }
    }
}
