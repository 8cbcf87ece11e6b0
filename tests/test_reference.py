"""Differential check of the engine against a naive reference translator.

reference_run models the same hierarchy with plain lists and the
closed-form region mapping: frame = base_ppn + page index, for either page
size. It shares no code with the engine, the TLBs or the walker, so a
change to any of them that moves a PA, a path, a cycle or a counter shows
up here. The cases cover what the default grid never produces: several
regions mixing 4KB and 64KB pages in one Simulation (so both entry kinds
share L2 sets), upper-half canonical VAs, and L1, L2 and walk-cache sizes
down to one entry. Replacement is LRU throughout. A region in slot 0 maps
from frame 0, which the TLBs must treat as a hit like any other frame; the
test checks that each path meets frame 0 at both page sizes. Some
measurement phases touch only pages the warm-up left in the L1, which the
engine applies in bulk; the final L1 order is checked too.
"""

import random
from dataclasses import asdict

from napotsim.engine import L1_HIT, L2_HIT, WALK, LatencyModel, Simulation
from napotsim.pagetable import RegionSpec
from napotsim.sv39 import PageSize
from napotsim.workloads import AccessTrace

# 64KB-aligned bases at least 1MB apart, so regions of up to 128 pages
# never overlap; they span several level-2 and level-1 tables in both
# halves of the canonical address space
SLOTS = (
    0x4000_0000,
    0x4010_0000,
    0x4020_0000,
    0x1_0000_0000,
    0x3F_FFF0_0000,
    0xFFFF_FFC0_0000_0000,
    0xFFFF_FFC0_4000_0000,
    0xFFFF_FFFF_FFF0_0000,
)
COUNTERS = (
    "accesses", "l1_hits", "l1_misses", "l2_hits", "l2_misses",
    "walks", "walk_memory_reads", "total_cycles",
)


def reference_run(regions, phases, l1_entries, l2_entries, ways, ptw_entries,
                  latency):
    """Translate every access of every phase; LRU lists, oldest first.

    Returns the (pa, path, cycles) of each access, one counter dict per
    phase and the final L1 as (vpn, frame) pairs. State carries across
    phases; counters do not.
    """
    sets = l2_entries // ways
    l1 = []  # (vpn, frame)
    l2 = [[] for _ in range(sets)]  # (vpn or group tag, napot?, frame base)
    ptw = []  # (level, vpn prefix) of cached non-leaf entries
    outcomes = []
    counters = []
    for addresses in phases:
        count = dict.fromkeys(COUNTERS, 0)
        for va in addresses:
            vpn = (va >> 12) & ((1 << 27) - 1)
            region = next(r for r in regions if r.base_va <= va < r.end_va)
            frame = region.base_ppn + ((va - region.base_va) >> 12)
            napot = region.page_size == PageSize.PAGE_64K
            cycles = latency.l1_hit_cycles
            count["accesses"] += 1
            hit = [e for e in l1 if e[0] == vpn]
            if hit:
                l1.remove(hit[0])
                l1.append(hit[0])
                count["l1_hits"] += 1
                assert hit[0][1] == frame
                path = L1_HIT
            else:
                count["l1_misses"] += 1
                cycles += latency.l2_lookup_cycles
                ways_list = l2[(vpn // 16) % sets]
                hit = [e for e in ways_list if e[:2] == (vpn, False)]
                hit = hit or [e for e in ways_list if e[:2] == (vpn // 16, True)]
                if hit:
                    ways_list.remove(hit[0])
                    ways_list.append(hit[0])
                    count["l2_hits"] += 1
                    path = L2_HIT
                else:
                    count["l2_misses"] += 1
                    count["walks"] += 1
                    if (1, vpn >> 9) in ptw:
                        reads, fetched = 1, []
                        ptw.remove((1, vpn >> 9))
                        ptw.append((1, vpn >> 9))
                    elif (2, vpn >> 18) in ptw:
                        reads, fetched = 2, [(1, vpn >> 9)]
                        ptw.remove((2, vpn >> 18))
                        ptw.append((2, vpn >> 18))
                    else:
                        reads, fetched = 3, [(2, vpn >> 18), (1, vpn >> 9)]
                    for key in fetched:
                        ptw.append(key)
                        if len(ptw) > ptw_entries:
                            ptw.pop(0)
                    count["walk_memory_reads"] += reads
                    cycles += reads * latency.mem_read_cycles
                    tag = vpn // 16 if napot else vpn
                    entry = (tag, napot, frame - (vpn % 16 if napot else 0))
                    if len(ways_list) == ways:
                        ways_list.pop(0)
                    ways_list.append(entry)
                    path = WALK
                l1.append((vpn, frame))
                if len(l1) > l1_entries:
                    l1.pop(0)
            count["total_cycles"] += cycles
            outcomes.append(((frame << 12) | (va & 0xFFF), path, cycles))
        counters.append(count)
    return outcomes, counters, l1


def random_case(rng):
    """Two to four regions, at least one of each page size, and a trace."""
    slots = rng.sample(range(len(SLOTS)), rng.randint(2, 4))
    regions = []
    for n, slot in enumerate(slots):
        napot = n == 0 or (n > 1 and rng.random() < 0.5)
        size = PageSize.PAGE_64K if napot else PageSize.PAGE_4K
        pages = 16 * rng.randint(1, 8) if napot else rng.randint(1, 128)
        # frames slot * 0x1000 onward: a region in slot 0 maps from frame 0
        base_ppn = slot * 0x1000
        regions.append(RegionSpec(SLOTS[slot], pages << 12, size, base_ppn))
    pages = [r.base_va + (p << 12) for r in regions for p in range(r.num_pages)]
    hot = rng.sample(pages, min(len(pages), rng.randint(1, 40)))
    # keep frame 0 hot, so that every path meets it
    hot += [r.base_va for r in regions if r.base_ppn == 0]

    def draw(n):
        return [
            rng.choice(hot if rng.random() < 0.6 else pages) | rng.randrange(4096)
            for _ in range(n)
        ]

    ways = rng.choice((1, 2, 4))
    geometry = dict(
        l1_entries=rng.choice((1, 2, 3, 32)),
        l2_entries=ways * rng.choice((1, 2, 4, 16)),
        ways=ways,
        ptw_entries=rng.choice((1, 2, 8)),
        latency=LatencyModel(
            rng.randint(0, 3), rng.randint(0, 5), rng.randint(0, 40)
        ),
    )
    warmup = draw(rng.randint(0, 300))
    if warmup and rng.random() < 0.3:
        # only pages the warm-up leaves in the L1, so every access hits
        l1 = {vpn for vpn, _ in reference_run(regions, (warmup,), **geometry)[2]}
        resident = [va for va in pages if (va >> 12) & ((1 << 27) - 1) in l1]
        measurement = [
            rng.choice(resident) | rng.randrange(4096)
            for _ in range(rng.randint(1, 600))
        ]
        return regions, (warmup, measurement), geometry
    return regions, (warmup, draw(rng.randint(1, 600))), geometry


def make_sim(regions, geometry):
    return Simulation(
        regions,
        ways=geometry["ways"],
        l2_entries=geometry["l2_entries"],
        l1_entries=geometry["l1_entries"],
        ptw_cache_entries=geometry["ptw_entries"],
        latency=geometry["latency"],
    )


def test_engine_matches_reference_translator():
    rng = random.Random(2406)
    frame0 = set()  # (path, page size) of accesses that reached frame 0
    all_hit = 0  # trials whose measurement phase is 2+ accesses, all L1 hits
    for trial in range(60):
        regions, phases, geometry = random_case(rng)
        outcomes, counters, l1 = reference_run(regions, phases, **geometry)
        measured = counters[1]
        all_hit += measured["l1_hits"] == measured["accesses"] >= 2
        for region in regions:
            if region.base_ppn == 0:
                frame0.update(
                    (path, region.page_size)
                    for pa, path, _ in outcomes if pa >> 12 == 0
                )
        stepped = make_sim(regions, geometry)
        got = []
        for phase, addresses in zip(("warmup", "measurement"), phases):
            stepped.phase = phase
            for va in addresses:
                out = stepped.translate(va)
                got.append((out.pa, out.path, out.cycles_charged))
        for i, (want, have) in enumerate(zip(outcomes, got)):
            assert have == want, f"trial {trial}, access {i}"
        looped = make_sim(regions, geometry)
        stats = looped.run_trace(AccessTrace(*phases))
        for name, want in zip(("warmup", "measurement"), counters):
            assert asdict(stats.phase(name)) == want, f"trial {trial}, {name}"
            assert asdict(stepped.stats.phase(name)) == want, f"trial {trial}"
        for sim in (stepped, looped):
            assert list(sim.l1.entries.items()) == l1, f"trial {trial}"
    assert all_hit >= 10
    assert frame0 == {
        (path, size) for path in (L1_HIT, L2_HIT, WALK) for size in PageSize.ALL
    }
