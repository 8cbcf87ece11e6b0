"""Differential check of the engine against a naive reference translator.

reference_run models the same hierarchy with plain lists and the
closed-form region mapping: frame = base_ppn + page index, for either page
size. It shares no code with the engine, the TLBs or the walker, so a
change to any of them that moves a PA, a path, a cycle or a counter shows
up here. The cases cover what the default grid never produces: several
regions mixing 4KB and 64KB pages in one Simulation (so both entry kinds
share L2 sets), upper-half canonical VAs, and L1, L2 and walk-cache sizes
down to one entry. The L1 and the walk cache are LRU; the L2 is LRU or
random, and for random the reference replays the L2's randrange draws
from its own random.Random(seed). Some trials empty the walk cache between
the phases, as flush_ptw_between_phases asks run_trace to. A region in
slot 0 maps from frame 0, which the TLBs must treat as a hit like any other
frame; the test checks that each path meets frame 0 at both page sizes.
Some measurement phases touch only pages the warm-up left in the L1, which
the engine applies in bulk. The final order of the L1, of each L2 set and
of the walk cache is checked too. The reference tags its TLB entries by the
page number va >> 12, as the engine does, and keys its walk cache by the
27-bit VPN, as walk does.

Some trials flip one bit in 38..63 of one access, which takes it out of the
canonical range; among them, bit 40 of one access of an otherwise
all-L1-hit measurement phase. Both translate() and run_trace must then
raise CanonicalityError naming that VA, in the state the accesses before it
left, with the counters of those accesses and no others.
"""

import random
from dataclasses import asdict

from napotsim.engine import L1_HIT, L2_HIT, WALK, LatencyModel, Simulation
from napotsim.errors import CanonicalityError
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
                  latency, replacement, seed, flush_ptw):
    """Translate every access of every phase; lists run oldest first.

    Returns the (pa, path, cycles) of each access, one counter dict per
    phase, and the final state: the L1 as (page, frame) pairs, the occupied
    L2 sets in L2Tlb.dump()'s form and the walk-cache keys. State carries
    across phases, except the walk cache when flush_ptw is set; counters
    do not.
    """
    sets = l2_entries // ways
    rng = random.Random(seed)
    l1 = []  # (page, frame)
    l2 = [[] for _ in range(sets)]  # (page or group tag, napot?, frame base)
    ptw = []  # (level, vpn prefix) of cached non-leaf entries
    outcomes = []
    counters = []
    for addresses in phases:
        if flush_ptw and counters:
            ptw.clear()
        count = dict.fromkeys(COUNTERS, 0)
        for va in addresses:
            page = va >> 12
            vpn = page & ((1 << 27) - 1)  # the walk cache's keys drop 63:39
            region = next(r for r in regions if r.base_va <= va < r.end_va)
            frame = region.base_ppn + ((va - region.base_va) >> 12)
            napot = region.page_size == PageSize.PAGE_64K
            cycles = latency.l1_hit_cycles
            count["accesses"] += 1
            hit = [e for e in l1 if e[0] == page]
            if hit:
                l1.remove(hit[0])
                l1.append(hit[0])
                count["l1_hits"] += 1
                assert hit[0][1] == frame
                path = L1_HIT
            else:
                count["l1_misses"] += 1
                cycles += latency.l2_lookup_cycles
                ways_list = l2[(page // 16) % sets]
                hit = [e for e in ways_list if e[:2] == (page, False)]
                hit = hit or [e for e in ways_list if e[:2] == (page // 16, True)]
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
                    tag = page // 16 if napot else page
                    entry = (tag, napot, frame - (page % 16 if napot else 0))
                    if len(ways_list) == ways:
                        random_victim = replacement == "random"
                        ways_list.pop(rng.randrange(ways) if random_victim else 0)
                    ways_list.append(entry)
                    path = WALK
                l1.append((page, frame))
                if len(l1) > l1_entries:
                    l1.pop(0)
            count["total_cycles"] += cycles
            outcomes.append(((frame << 12) | (va & 0xFFF), path, cycles))
        counters.append(count)
    # a NAPOT entry holds its leaf's PPN: the group base with the 0b1000 mark
    l2_dump = {
        index: [(tag, base | 0b1000 if napot else base, napot)
                for tag, napot, base in ways_list]
        for index, ways_list in enumerate(l2) if ways_list
    }
    ptw_keys = [(prefix << 2) | level for level, prefix in ptw]
    return outcomes, counters, (l1, l2_dump, ptw_keys)


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
        replacement=rng.choice(("lru", "random")),
        seed=rng.randrange(1 << 16),
        latency=LatencyModel(
            rng.randint(0, 3), rng.randint(0, 5), rng.randint(0, 40)
        ),
        flush_ptw=rng.random() < 0.5,
    )
    warmup = draw(rng.randint(0, 300))
    if warmup and rng.random() < 0.3:
        # only pages the warm-up leaves in the L1, so every access hits
        l1 = {page for page, _ in reference_run(regions, (warmup,), **geometry)[2][0]}
        resident = [va for va in pages if va >> 12 in l1]
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
        replacement=geometry["replacement"],
        seed=geometry["seed"],
        flush_ptw_between_phases=geometry["flush_ptw"],
    )


def flip_one_access(rng, phases, resident):
    """Flip a bit in 38..63 of one access, or return None for a clean trial.

    Returns the phases with that access flipped, and its phase, index and
    bit. A resident measurement phase gets bit 40 more often: the flipped
    VA's VPN bits stay those of a page in the L1.
    """
    if resident and rng.random() < 0.5:
        where, bit = 1, 40
    elif rng.random() < 0.2:
        where, bit = rng.choice([n for n, ph in enumerate(phases) if ph]), None
    else:
        return None
    index = rng.randrange(len(phases[where]))
    if bit is None:
        bit = rng.randint(38, 63)
    flipped = [list(ph) for ph in phases]
    flipped[where][index] ^= 1 << bit
    return flipped, where, index, bit


def test_engine_matches_reference_translator():
    rng = random.Random(2406)
    frame0 = set()  # (path, page size) of accesses that reached frame 0
    all_hit = 0  # trials whose measurement phase is 2+ accesses, all L1 hits
    random_evicted = 0  # random-policy trials that evicted from the L2
    flushed = 0  # flushing trials whose warm-up left the walk cache non-empty
    non_canonical = 0  # trials with one access flipped out of the canonical range
    resident_flip = 0  # ... by bit 40, inside an all-L1-hit measurement phase
    zero = dict.fromkeys(COUNTERS, 0)
    for trial in range(100):
        regions, phases, geometry = random_case(rng)
        outcomes, counters, state = reference_run(regions, phases, **geometry)
        measured = counters[1]
        resident = measured["l1_hits"] == measured["accesses"] >= 2
        flip = flip_one_access(rng, phases, resident)
        if flip:
            phases, where, index, bit = flip
            non_canonical += 1
            resident_flip += resident and where == 1 and bit == 40
            # the engine stops at the flipped access, in the state and with
            # the counters the ones before it leave
            before = (*phases[:where], phases[where][:index])
            outcomes, counters, state = reference_run(regions, before, **geometry)
            error = f"va {phases[where][index]:#x} is not a canonical sv39 address"
        else:
            all_hit += resident
            # every walk inserts a new L2 entry, and only an eviction drops one
            inserted = sum(count["walks"] for count in counters)
            random_evicted += (geometry["replacement"] == "random"
                               and inserted > sum(map(len, state[1].values())))
            if geometry["flush_ptw"]:
                flushed += bool(
                    reference_run(regions, phases[:1], **geometry)[2][2]
                )
            for region in regions:
                if region.base_ppn == 0:
                    frame0.update(
                        (path, region.page_size)
                        for pa, path, _ in outcomes if pa >> 12 == 0
                    )
            error = None
        stepped = make_sim(regions, geometry)
        got = []
        raised = None
        for phase, addresses in zip(("warmup", "measurement"), phases):
            stepped.phase = phase
            if phase == "measurement" and geometry["flush_ptw"]:
                stepped.ptw_cache.clear()  # translate() never flushes
            try:
                for va in addresses:
                    out = stepped.translate(va)
                    got.append((out.pa, out.path, out.cycles_charged))
            except CanonicalityError as exc:
                raised = str(exc)
                break
        assert raised == error, f"trial {trial}"
        for i, (want, have) in enumerate(zip(outcomes, got)):
            assert have == want, f"trial {trial}, access {i}"
        assert len(got) == len(outcomes), f"trial {trial}"
        looped = make_sim(regions, geometry)
        try:
            looped.run_trace(AccessTrace(*phases))
            raised = None
        except CanonicalityError as exc:
            raised = str(exc)
        assert raised == error, f"trial {trial}"
        for n, name in enumerate(("warmup", "measurement")):
            want = counters[n] if n < len(counters) else zero
            assert asdict(stepped.stats.phase(name)) == want, f"trial {trial}"
            assert looped.stats.phase(name) == stepped.stats.phase(name), (
                f"trial {trial}, {name}"
            )
        l1, l2, ptw = state
        for sim in (stepped, looped):
            assert list(sim.l1.entries.items()) == l1, f"trial {trial}"
            assert sim.l2.dump() == l2, f"trial {trial}"
            assert list(sim.ptw_cache.entries) == ptw, f"trial {trial}"
    assert all_hit >= 10
    assert random_evicted >= 20
    assert flushed >= 15
    assert non_canonical >= 20
    assert resident_flip >= 10
    assert frame0 == {
        (path, size) for path in (L1_HIT, L2_HIT, WALK) for size in PageSize.ALL
    }
