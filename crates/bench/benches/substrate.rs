//! Micro-benchmarks for the memory substrate: the operations every
//! simulated second is made of. Runs with `harness = false` on the
//! in-tree [`tpp_bench::microbench`] harness (no external deps).

use tpp_bench::microbench::{bench, bench_with_setup};

use tiered_mem::{
    AddressSpace, LruKind, Memory, NodeId, NodeKind, PageType, Pfn, Pid, ThpMode, Vpn,
    HUGE_PAGE_FRAMES,
};

fn machine(local: u64, cxl: u64) -> Memory {
    Memory::builder()
        .node(NodeKind::LocalDram, local)
        .node(NodeKind::Cxl, cxl)
        .swap_pages(local + cxl)
        .build()
}

fn populated(pages: u64) -> (Memory, Vec<Pfn>) {
    let mut m = machine(pages + 64, pages + 64);
    m.create_process(Pid(1));
    let pfns = (0..pages)
        .map(|i| {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Anon)
                .unwrap()
        })
        .collect();
    (m, pfns)
}

fn bench_alloc_free() {
    let mut m = machine(4096, 4096);
    m.create_process(Pid(1));
    let mut vpn = 0u64;
    bench("substrate/alloc_and_map+release", || {
        let v = Vpn(vpn % 2048);
        vpn += 1;
        let pfn = m
            .alloc_and_map(NodeId(0), Pid(1), v, PageType::Anon)
            .unwrap();
        std::hint::black_box(pfn);
        m.release(Pid(1), v);
    });
}

fn bench_lru_rotate() {
    {
        let (mut m, pfns) = populated(4096);
        let mut i = 0usize;
        bench("substrate/lru_move_to_front", || {
            m.rotate_page(pfns[i % pfns.len()]);
            i += 1;
        });
    }
    {
        let (mut m, pfns) = populated(4096);
        let mut i = 0usize;
        bench("substrate/lru_activate_deactivate", || {
            let pfn = pfns[i % pfns.len()];
            m.deactivate_page(pfn);
            m.activate_page(pfn);
            i += 1;
        });
    }
}

fn bench_migration() {
    let (mut m, _) = populated(1024);
    let mut i = 0usize;
    bench("substrate/migrate_page_round_trip", || {
        let pfn = m
            .space(Pid(1))
            .translate(Vpn((i % 1024) as u64))
            .unwrap()
            .pfn()
            .unwrap();
        let moved = m.migrate_page(pfn, NodeId(1)).unwrap();
        let back = m.migrate_page(moved, NodeId(0)).unwrap();
        std::hint::black_box(back);
        i += 1;
    });
}

fn thp_machine() -> Memory {
    Memory::builder()
        .node(NodeKind::LocalDram, 4 * HUGE_PAGE_FRAMES)
        .node(NodeKind::Cxl, 4 * HUGE_PAGE_FRAMES)
        .thp_mode(ThpMode::Always)
        .build()
}

/// A 512-page compound moved whole to the other node and back.
fn bench_compound_migration() {
    let mut m = thp_machine();
    m.create_process(Pid(1));
    let mut head = m
        .alloc_huge_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
        .unwrap();
    bench("substrate/migrate_compound_round_trip", || {
        let moved = m.migrate_page(head, NodeId(1)).unwrap();
        head = m.migrate_page(moved, NodeId(0)).unwrap();
        std::hint::black_box(head);
    });
}

/// One compaction step: reserve a free frame, then relocate a base page
/// into it. The page alternates between two frames of a half-full
/// THP node.
fn bench_compact_relocate() {
    let mut m = thp_machine();
    m.create_process(Pid(1));
    for i in 0..2 * HUGE_PAGE_FRAMES {
        m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Anon)
            .unwrap();
    }
    let (mut at, mut spare) = (Pfn(100), Pfn(1500));
    bench("substrate/compact_relocate", || {
        assert!(m.frames_mut().reserve_page(spare));
        m.compact_relocate(at, spare);
        std::mem::swap(&mut at, &mut spare);
    });
}

fn bench_swap() {
    let (mut m, _) = populated(1024);
    let mut i = 0usize;
    bench("substrate/swap_out_in_round_trip", || {
        let v = Vpn((i % 1024) as u64);
        let pfn = m.space(Pid(1)).translate(v).unwrap().pfn().unwrap();
        m.swap_out(pfn).unwrap();
        let back = m.swap_in(Pid(1), v, NodeId(0), PageType::Anon).unwrap();
        std::hint::black_box(back);
        i += 1;
    });
}

fn bench_tail_window() {
    let (m, _) = populated(8192);
    bench("substrate/lru_tail_window_64", || {
        let w = m
            .node(NodeId(0))
            .lru
            .tail_window(m.frames(), LruKind::AnonActive, 64);
        std::hint::black_box(w.len());
    });
    let mut scratch: Vec<Pfn> = Vec::new();
    bench("substrate/lru_tail_window_64_scratch_reuse", || {
        m.node(NodeId(0))
            .lru
            .tail_window_into(m.frames(), LruKind::AnonActive, 64, &mut scratch);
        std::hint::black_box(scratch.len());
    });
}

/// Pages mapped into the translation benches' address space: large
/// enough that the table outgrows every CPU cache level.
const XLATE_PAGES: u64 = 1_000_000;

/// A tiny deterministic LCG (numerical-recipes constants) so the access
/// sequence is pseudo-random without any external dependency.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn xlate_space() -> AddressSpace {
    let mut space = AddressSpace::new(Pid(1));
    for i in 0..XLATE_PAGES {
        space.map(Vpn(i), Pfn(i as u32));
    }
    space
}

fn bench_translate() {
    let space = xlate_space();
    // Last-translation cache hit: the same VPN back to back.
    bench("substrate/translate_1m_cached_same_vpn", || {
        std::hint::black_box(space.translate(Vpn(123_456)));
    });
    // Table hit: pseudo-random mapped VPNs (defeats the one-entry cache).
    let mut state = 1u64;
    bench("substrate/translate_1m_hit_random", || {
        let vpn = Vpn(lcg(&mut state) % XLATE_PAGES);
        std::hint::black_box(space.translate(vpn));
    });
    // Miss: VPNs that were never mapped.
    let mut state = 2u64;
    bench("substrate/translate_1m_miss_random", || {
        let vpn = Vpn(XLATE_PAGES + lcg(&mut state) % XLATE_PAGES);
        std::hint::black_box(space.translate(vpn));
    });
    // Swapped: a resident/swapped mix, hitting the swapped half.
    let mut swapped = xlate_space();
    for i in 0..XLATE_PAGES / 2 {
        swapped.set_swapped(Vpn(i * 2), tiered_mem::SwapSlot(i));
    }
    let mut state = 3u64;
    bench("substrate/translate_1m_swapped_random", || {
        let vpn = Vpn((lcg(&mut state) % (XLATE_PAGES / 2)) * 2);
        std::hint::black_box(swapped.translate(vpn));
    });
}

/// The `std::collections::HashMap` the open-addressed table replaced,
/// under the same 1M-page random-lookup load — the baseline for the
/// page-table speedup claim.
fn bench_hashmap_baseline() {
    let mut map: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for i in 0..XLATE_PAGES {
        map.insert(i, i);
    }
    let mut state = 1u64;
    bench("substrate/hashmap_1m_hit_random_baseline", || {
        let vpn = lcg(&mut state) % XLATE_PAGES;
        std::hint::black_box(map.get(&vpn));
    });
    let mut state = 2u64;
    bench("substrate/hashmap_1m_miss_random_baseline", || {
        let vpn = XLATE_PAGES + lcg(&mut state) % XLATE_PAGES;
        std::hint::black_box(map.get(&vpn));
    });
}

fn bench_validate() {
    let (m, _) = populated(8192);
    bench_with_setup("substrate/full_validate_8k_pages", || (), |_| m.validate());
}

fn main() {
    bench_alloc_free();
    bench_lru_rotate();
    bench_migration();
    bench_compound_migration();
    bench_compact_relocate();
    bench_swap();
    bench_tail_window();
    bench_translate();
    bench_hashmap_baseline();
    bench_validate();
}
