//! Property-style tests for the memory substrate: arbitrary operation
//! sequences must never break the cross-structure invariants that
//! `Memory::validate` checks (frame accounting, LRU partition, page-table
//! ↔ rmap bijection, swap-slot consistency).
//!
//! `tiered-mem` is dependency-free, so randomised sequences come from a
//! local SplitMix64 generator instead of proptest; every case is a pure
//! function of its seed.

use std::collections::{BTreeMap, BTreeSet};

use tiered_mem::{
    AddressSpace, LruKind, Memory, NodeId, NodeKind, PageFlags, PageLocation, PageType, Pfn, Pid,
    SwapSlot, ThpMode, Vpn, HUGE_PAGE_FRAMES,
};

/// Minimal deterministic generator for test sequences (SplitMix64).
struct TestRng(u64);

impl TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One step of a random workload against the substrate.
#[derive(Clone, Debug)]
enum Op {
    Map { node: u8, vpn: u64, ptype: u8 },
    Release { vpn: u64 },
    Migrate { vpn: u64, dst: u8 },
    SwapOut { vpn: u64 },
    SwapIn { vpn: u64, node: u8 },
    Activate { vpn: u64 },
    Deactivate { vpn: u64 },
    Rotate { vpn: u64 },
    DropFile { vpn: u64 },
}

fn random_op(rng: &mut TestRng) -> Op {
    let vpn = rng.below(32);
    match rng.below(9) {
        0 => Op::Map {
            node: rng.below(2) as u8,
            vpn,
            ptype: rng.below(3) as u8,
        },
        1 => Op::Release { vpn },
        2 => Op::Migrate {
            vpn,
            dst: rng.below(2) as u8,
        },
        3 => Op::SwapOut { vpn },
        4 => Op::SwapIn {
            vpn,
            node: rng.below(2) as u8,
        },
        5 => Op::Activate { vpn },
        6 => Op::Deactivate { vpn },
        7 => Op::Rotate { vpn },
        _ => Op::DropFile { vpn },
    }
}

fn random_ops(seed: u64, max_len: u64) -> Vec<Op> {
    let mut rng = TestRng(seed);
    let len = 1 + rng.below(max_len);
    (0..len).map(|_| random_op(&mut rng)).collect()
}

fn ptype_of(code: u8) -> PageType {
    match code % 3 {
        0 => PageType::Anon,
        1 => PageType::File,
        _ => PageType::Tmpfs,
    }
}

fn small_memory() -> Memory {
    Memory::builder()
        .node(NodeKind::LocalDram, 24)
        .node(NodeKind::Cxl, 24)
        .swap_pages(64)
        .build()
}

fn mapped_pfn(m: &Memory, pid: Pid, vpn: Vpn) -> Option<Pfn> {
    m.space(pid).translate(vpn).and_then(|l| l.pfn())
}

fn apply(m: &mut Memory, pid: Pid, op: &Op) {
    match *op {
        Op::Map { node, vpn, ptype } => {
            let vpn = Vpn(vpn);
            if m.space(pid).translate(vpn).is_none() {
                let _ = m.alloc_and_map(NodeId(node), pid, vpn, ptype_of(ptype));
            }
        }
        Op::Release { vpn } => {
            m.release(pid, Vpn(vpn));
        }
        Op::Migrate { vpn, dst } => {
            if let Some(pfn) = mapped_pfn(m, pid, Vpn(vpn)) {
                let _ = m.migrate_page(pfn, NodeId(dst));
            }
        }
        Op::SwapOut { vpn } => {
            if let Some(pfn) = mapped_pfn(m, pid, Vpn(vpn)) {
                let _ = m.swap_out(pfn);
            }
        }
        Op::SwapIn { vpn, node } => {
            let vpn = Vpn(vpn);
            if let Some(PageLocation::Swapped(_)) = m.space(pid).translate(vpn) {
                // Page type must match the LRU class later; anon is fine as
                // the simulator re-types on swap-in like a fresh mapping.
                let _ = m.swap_in(pid, vpn, NodeId(node), PageType::Anon);
            }
        }
        Op::Activate { vpn } => {
            if let Some(pfn) = mapped_pfn(m, pid, Vpn(vpn)) {
                m.activate_page(pfn);
            }
        }
        Op::Deactivate { vpn } => {
            if let Some(pfn) = mapped_pfn(m, pid, Vpn(vpn)) {
                m.deactivate_page(pfn);
            }
        }
        Op::Rotate { vpn } => {
            if let Some(pfn) = mapped_pfn(m, pid, Vpn(vpn)) {
                m.rotate_page(pfn);
            }
        }
        Op::DropFile { vpn } => {
            if let Some(pfn) = mapped_pfn(m, pid, Vpn(vpn)) {
                if m.frames().frame(pfn).page_type().is_file_backed() {
                    m.drop_file_page(pfn);
                }
            }
        }
    }
}

/// Any op sequence leaves all substrate invariants intact.
#[test]
fn random_ops_preserve_invariants() {
    for seed in 0..128u64 {
        let ops = random_ops(seed, 199);
        let mut m = small_memory();
        let pid = Pid(1);
        m.create_process(pid);
        for op in &ops {
            apply(&mut m, pid, op);
            m.validate();
        }
    }
}

/// Free + used always equals capacity regardless of op order, and the
/// swap device never leaks slots after process destruction.
#[test]
fn teardown_releases_all_resources() {
    for seed in 1000..1064u64 {
        let ops = random_ops(seed, 149);
        let mut m = small_memory();
        let pid = Pid(1);
        m.create_process(pid);
        for op in &ops {
            apply(&mut m, pid, op);
        }
        m.destroy_process(pid);
        assert_eq!(m.free_pages(NodeId(0)), 24, "seed {seed}");
        assert_eq!(m.free_pages(NodeId(1)), 24, "seed {seed}");
        assert_eq!(m.swap().used_slots(), 0, "seed {seed}");
    }
}

/// Migration never changes what a process observes: the (vpn → type)
/// view is identical before and after a migration pass.
#[test]
fn migration_is_transparent_to_the_process() {
    for seed in 2000..2032u64 {
        let mut rng = TestRng(seed);
        let count = 1 + rng.below(23);
        let vpns: BTreeSet<u64> = (0..count).map(|_| rng.below(64)).collect();
        let mut m = small_memory();
        let pid = Pid(1);
        m.create_process(pid);
        let mut view = Vec::new();
        for (i, &v) in vpns.iter().enumerate() {
            let ptype = ptype_of(i as u8);
            if m.alloc_and_map(NodeId(0), pid, Vpn(v), ptype).is_ok() {
                view.push((Vpn(v), ptype));
            }
        }
        // Migrate everything we can to the CXL node.
        for &(vpn, _) in &view {
            if let Some(pfn) = mapped_pfn(&m, pid, vpn) {
                let _ = m.migrate_page(pfn, NodeId(1));
            }
        }
        for &(vpn, ptype) in &view {
            let pfn = mapped_pfn(&m, pid, vpn).expect("mapping lost in migration");
            assert_eq!(m.frames().frame(pfn).page_type(), ptype);
            assert_eq!(m.frames().frame(pfn).owner().unwrap().vpn, vpn);
        }
        m.validate();
    }
}

/// LRU lists form a partition of each node's allocated pages: every
/// allocated frame is on exactly one list, with the class matching its
/// page type.
#[test]
fn lru_is_a_partition() {
    for seed in 3000..3064u64 {
        let ops = random_ops(seed, 149);
        let mut m = small_memory();
        let pid = Pid(1);
        m.create_process(pid);
        for op in &ops {
            apply(&mut m, pid, op);
        }
        for node in [NodeId(0), NodeId(1)] {
            let mut counted = 0u64;
            for kind in LruKind::ALL {
                for pfn in m.node(node).lru.collect(m.frames(), kind) {
                    let f = m.frames().frame(pfn);
                    assert!(f.is_allocated());
                    assert_eq!(f.page_type().is_anon(), kind.is_anon());
                    counted += 1;
                }
            }
            assert_eq!(
                counted,
                m.frames().used_pages(node),
                "seed {seed} node {node:?}"
            );
        }
    }
}

/// The page table agrees with a `BTreeMap` model through any mix of map,
/// re-map, swap-out and unmap: `translate` on every VPN the run touches,
/// `iter` entry by entry in ascending order, and both ordered walks, the
/// window walk with the distinct aligned bases and the rank walk from `r`
/// with `sorted[r..]`. VPNs sit on window edges (511/512) around the anon
/// (0) and file (`1 << 32`) bases, a far base (`3 << 32`), and the bases
/// of spans 5 and 6, whose keys share a span slot with the anon and file
/// spans.
#[test]
fn occupancy_index_walks_match_sorted_keys() {
    const BASES: [u64; 5] = [0, 1 << 32, 3 << 32, 5 << 21, 6 << 21];
    const OFFSETS: [u64; 9] = [0, 1, 63, 64, 510, 511, 512, 513, 1023];
    for seed in 4000..4048u64 {
        let mut rng = TestRng(seed);
        let mut space = AddressSpace::new(Pid(1));
        let mut model: BTreeMap<u64, PageLocation> = BTreeMap::new();
        let mut touched: BTreeSet<u64> = BTreeSet::new();
        for step in 0..300u64 {
            let vpn =
                BASES[rng.below(BASES.len() as u64) as usize] + OFFSETS[rng.below(9) as usize];
            touched.insert(vpn);
            match rng.below(4) {
                0 => {
                    let loc = PageLocation::Mapped(Pfn(step as u32));
                    assert_eq!(
                        space.map(Vpn(vpn), Pfn(step as u32)),
                        model.insert(vpn, loc)
                    );
                }
                1 => {
                    // Re-map a key that is already present: the walks
                    // must not change.
                    if !model.is_empty() {
                        let nth = rng.below(model.len() as u64) as usize;
                        let vpn = *model.keys().nth(nth).unwrap();
                        let loc = PageLocation::Mapped(Pfn(step as u32));
                        let prev = space.map(Vpn(vpn), Pfn(step as u32));
                        assert_eq!(prev, model.insert(vpn, loc));
                        assert!(prev.is_some());
                    }
                }
                2 => {
                    let loc = PageLocation::Swapped(SwapSlot(step));
                    assert_eq!(
                        space.set_swapped(Vpn(vpn), SwapSlot(step)),
                        model.insert(vpn, loc)
                    );
                }
                _ => {
                    assert_eq!(space.unmap(Vpn(vpn)), model.remove(&vpn));
                }
            }
            for &v in &touched {
                assert_eq!(
                    space.translate(Vpn(v)),
                    model.get(&v).copied(),
                    "seed {seed} vpn {v}"
                );
            }
            assert!(
                space.iter().eq(model.iter().map(|(&v, &l)| (Vpn(v), l))),
                "seed {seed}: iter diverges from the model"
            );
            let sorted: Vec<Vpn> = model.keys().map(|&v| Vpn(v)).collect();
            let mut windows: Vec<Vpn> = sorted
                .iter()
                .map(|v| Vpn(v.0 - v.0 % HUGE_PAGE_FRAMES))
                .collect();
            windows.dedup();
            assert_eq!(space.total_pages(), sorted.len() as u64, "seed {seed}");
            assert_eq!(space.window_count(), windows.len(), "seed {seed}");
            assert_eq!(
                space.window_bases().collect::<Vec<_>>(),
                windows,
                "seed {seed}"
            );
            let r = rng.below(sorted.len() as u64 + 1) as usize;
            assert_eq!(
                space.vpns_from_rank(r).collect::<Vec<_>>(),
                sorted[r..],
                "seed {seed} rank {r}"
            );
        }
    }
}

// ---- compound-page fuzzer ------------------------------------------------

/// Pages per node on the fuzzer's THP machine: two order-9 blocks each.
const FUZZ_NODE_PAGES: u64 = 2 * HUGE_PAGE_FRAMES;
/// Aligned 512-page windows each fuzzed process maps into.
const FUZZ_WINDOWS: u64 = 2;
const FUZZ_PIDS: [Pid; 2] = [Pid(1), Pid(7)];
const FUZZ_STEPS: u64 = 10_000;

/// 64-bit FNV-1a, folded one `u64` at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn thp_memory() -> Memory {
    Memory::builder()
        .node(NodeKind::LocalDram, FUZZ_NODE_PAGES)
        .node(NodeKind::Cxl, FUZZ_NODE_PAGES)
        .swap_pages(FUZZ_NODE_PAGES)
        .thp_mode(ThpMode::Always)
        .build()
}

/// Hashes every frame's owner, type, flags, hotness, order and last
/// access, each LRU list in order, every process' page table, the vmstat
/// counters and the migration matrix. Folded in after every step.
fn state_digest(m: &Memory, h: &mut Fnv) {
    let frames = m.frames();
    for node in 0..m.node_count() {
        for pfn in frames.pfn_range(NodeId(node as u8)) {
            let f = frames.frame(Pfn(pfn));
            match f.owner() {
                Some(key) => {
                    h.word(key.pid.0 as u64);
                    h.word(key.vpn.0);
                    h.word(f.page_type() as u64);
                    h.word(f.hotness() as u64);
                    h.word(f.last_access_ns());
                }
                None => h.word(u64::MAX),
            }
            h.word(f.flags().bits() as u64);
            h.word(f.order() as u64);
        }
        for kind in LruKind::ALL {
            for pfn in m.node(NodeId(node as u8)).lru.collect(frames, kind) {
                h.word(pfn.0 as u64);
            }
            h.word(u64::MAX);
        }
    }
    for pid in m.pids() {
        h.word(pid.0 as u64);
        for (vpn, loc) in m.space(pid).iter() {
            h.word(vpn.0);
            match loc {
                PageLocation::Mapped(pfn) => h.word(pfn.0 as u64),
                PageLocation::Swapped(slot) => h.word(slot.0 | 1 << 63),
            }
        }
    }
    for (_, n) in m.vmstat().iter() {
        h.word(n);
    }
    for &n in m.migration_matrix() {
        h.word(n);
    }
    h.word(m.swap().used_slots());
}

/// One random operation against the compound-page API; the outcome
/// (success value or error) is folded into `h`. Only calls that respect
/// each entry point's documented preconditions are issued.
fn fuzz_step(m: &mut Memory, rng: &mut TestRng, step: u64, h: &mut Fnv) {
    let pid = FUZZ_PIDS[rng.below(FUZZ_PIDS.len() as u64) as usize];
    let base = Vpn(rng.below(FUZZ_WINDOWS) * HUGE_PAGE_FRAMES);
    let window = (0..HUGE_PAGE_FRAMES).map(move |i| Vpn(base.0 + i));
    let vpn = Vpn(base.0 + rng.below(HUGE_PAGE_FRAMES));
    let node = NodeId(rng.below(2) as u8);
    let op = rng.below(33);
    h.word(op);
    let pfn = mapped_pfn(m, pid, vpn);
    let compound = pfn.is_some_and(|p| {
        m.frames()
            .frame(p)
            .flags()
            .intersects(PageFlags::HEAD | PageFlags::TAIL)
    });
    match (op, pfn) {
        (0..=2, None) if m.space(pid).translate(vpn).is_none() => {
            let ptype = ptype_of(rng.below(4).saturating_sub(1) as u8);
            h.text(&format!("{:?}", m.alloc_and_map(node, pid, vpn, ptype)));
        }
        (3..=5, _) => {
            if window.clone().all(|v| m.space(pid).translate(v).is_none()) {
                let r = m.alloc_huge_and_map(node, pid, base, PageType::Anon);
                h.text(&format!("{r:?}"));
            }
        }
        (6, _) if rng.below(3) == 0 => {
            // Unmap the window, then populate it page by page on one node
            // (khugepaged's raw input).
            for v in window.clone() {
                m.release(pid, v);
            }
            for v in window {
                if m.alloc_and_map(node, pid, v, PageType::Anon).is_err() {
                    break;
                }
            }
        }
        (7 | 8, Some(pfn)) if compound => {
            let head = m.compound_head(pfn);
            h.word(m.split_huge_page(head));
        }
        (9..=11, _) => {
            if let Some(at) = m.collapse_candidate(pid, base) {
                // Mostly where khugepaged would assemble it, sometimes on
                // the other node.
                let to = if rng.below(4) == 0 { node } else { at };
                h.text(&format!("{:?}", m.collapse_range(pid, base, to)));
            }
        }
        (12..=15, Some(pfn)) => {
            // Mostly the compound's head, sometimes the member itself (a
            // tail is rejected); node 2 does not exist (the
            // invalid-destination path).
            let pfn = if compound && rng.below(4) != 0 {
                m.compound_head(pfn)
            } else {
                pfn
            };
            let dst = if rng.below(8) == 0 { NodeId(2) } else { node };
            h.text(&format!("{:?}", m.migrate_page(pfn, dst)));
        }
        (16..=18, Some(src)) => {
            let f = m.frames().frame(src);
            let movable = f.lru_kind().is_some()
                && !f.flags().intersects(
                    PageFlags::HEAD
                        | PageFlags::TAIL
                        | PageFlags::ISOLATED
                        | PageFlags::UNEVICTABLE,
                );
            let range = m.frames().pfn_range(f.node());
            let dst = Pfn(range.start + rng.below((range.end - range.start) as u64) as u32);
            if movable && m.frames_mut().reserve_page(dst) {
                m.compact_relocate(src, dst);
                h.word(dst.0 as u64);
            }
        }
        (19 | 20, Some(pfn)) => h.text(&format!("{:?}", m.swap_out(pfn))),
        (21 | 22, None) => {
            if let Some(PageLocation::Swapped(_)) = m.space(pid).translate(vpn) {
                h.text(&format!("{:?}", m.swap_in(pid, vpn, node, PageType::Anon)));
            }
        }
        (23, Some(pfn)) if m.frames().frame(pfn).page_type().is_file_backed() => {
            m.drop_file_page(pfn);
        }
        (24, _) => h.word(m.release(pid, vpn) as u64),
        (25 | 32, _) => {
            for v in window {
                h.word(m.release(pid, v) as u64);
            }
        }
        (26, Some(pfn)) => {
            let f = m.frames_mut().frame_mut(pfn);
            f.flags_mut().insert(PageFlags::REFERENCED);
            f.touch_hotness();
            f.set_last_access_ns(step + 1);
        }
        (27, Some(pfn)) => {
            // State the policies leave on a page: dirtied, hint-sampled,
            // demoted.
            let flag =
                [PageFlags::DIRTY, PageFlags::HINTED, PageFlags::DEMOTED][rng.below(3) as usize];
            m.frames_mut().frame_mut(pfn).flags_mut().insert(flag);
        }
        (28, Some(pfn)) => {
            // Another path holds the page isolated (the `Busy` path).
            let pfn = if compound { m.compound_head(pfn) } else { pfn };
            let f = m.frames_mut().frame_mut(pfn).flags_mut();
            f.set(PageFlags::ISOLATED, !f.contains(PageFlags::ISOLATED));
        }
        (29, Some(pfn)) if !compound => {
            // mlock on a base page; compound members are never pinned.
            let f = m.frames_mut().frame_mut(pfn).flags_mut();
            f.set(PageFlags::UNEVICTABLE, !f.contains(PageFlags::UNEVICTABLE));
        }
        (30, Some(pfn)) => {
            if rng.below(2) == 0 {
                m.activate_page(pfn);
            } else {
                m.deactivate_page(pfn);
            }
        }
        (31, _) if rng.below(50) == 0 => {
            m.destroy_process(pid);
            m.create_process(pid);
        }
        _ => h.word(u64::MAX),
    }
}

fn fuzz_digest(seed: u64) -> u64 {
    let mut rng = TestRng(seed);
    let mut m = thp_memory();
    for pid in FUZZ_PIDS {
        m.create_process(pid);
    }
    let mut h = Fnv::new();
    for step in 0..FUZZ_STEPS {
        fuzz_step(&mut m, &mut rng, step, &mut h);
        m.validate();
        state_digest(&m, &mut h);
    }
    h.0
}

/// Random compound-page operations (fault-time THP, split, collapse,
/// whole-unit and base-page migration, compaction, swap, file drop,
/// release, isolation and pinning) keep every substrate invariant after
/// each step, and each seed ends in a pinned state. The digests were
/// recorded before the substrate's frame-move paths were merged, so any
/// change to what those paths do — including on failure paths the
/// experiments never reach — moves a digest.
#[test]
fn compound_page_fuzzer_is_coherent_and_pinned() {
    let pinned: [(u64, u64); 8] = [
        (1, 0x4954_2a44_dcb5_57a9),
        (2, 0x0639_7f8b_5eb1_af97),
        (3, 0x6e44_ddee_fc6f_4671),
        (4, 0xd0d9_9600_fc12_2d5e),
        (5, 0x5b6d_5611_bf0b_e047),
        (6, 0x05ad_ecab_b059_1f1f),
        (7, 0xc53d_2e9c_58f3_2f73),
        (8, 0x9bd3_e999_0f3d_1f10),
    ];
    for (seed, want) in pinned {
        let got = fuzz_digest(seed);
        assert_eq!(got, want, "seed {seed}: digest {got:#018x}");
    }
}
