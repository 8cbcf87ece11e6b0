"""Differential check of the engine against a naive reference translator.

reference_run models the same hierarchy with plain lists and the
closed-form region mapping: frame = base_ppn + page index, for either page
size. It shares no code with the engine, the TLBs or the walker, so a
change to any of them that moves a PA, a path, a cycle or a counter shows
up here. The reference tags its TLB entries by the page number va >> 12,
as the engine does, and keys its walk cache by the 27-bit VPN, as walk
does. The L1 and the walk cache are LRU; the L2 is LRU or random, and for
random the reference replays the L2's randrange draws from its own
random.Random(seed). About half the trials empty the walk cache between
the phases, as flush_ptw_between_phases asks run_trace to.

random_case draws two shapes of case, neither of which the default grid
produces; check_trials runs one shape's cases against reference_run. This
module's test runs 100 mixed cases, and test_phases runs 300 compact ones:

- Mixed: two to four regions, at least one of each page size, in one
  Simulation, so both entry kinds share L2 sets; upper-half canonical VAs;
  L1, L2 and walk-cache sizes down to one entry. A region in slot 0 maps
  from frame 0, which the TLBs must treat as a hit like any other frame.
  Some measurement phases touch only pages the warm-up left in the L1,
  which the engine applies in bulk.
- Compact: one region of either page size at BASE_VA, up to 16 ways and
  1024 L2 entries, odd L1 sizes, and a measurement phase that is a
  CyclicPhase, the form gen_trace gives a linear phase. Its period is a
  range of whole pages or a list in random order with repeats and offsets;
  its length is 0, under one period, or between or at multiples of it. The
  warm-up is the period, its pages shuffled among others and ending on its
  first, a few pages ending on its first, or empty. Most cases warmed by
  their period have the bulk L1 step's shape: a period the L1 holds and a
  length past one period.

Every trial translates its accesses one at a time with translate(), and
runs them through run_trace with the measurement phase in each of its
forms: a mixed case's list, or a compact case's five, which are a list,
the CyclicPhase, a uint64 memoryview, a RandomPhase of that memoryview
over the period (the form gen_trace gives a random phase) and one over the
whole region. The bulk L1 step tests the pages of its support, which is a
compact phase's period and any other phase itself; for every phase it
then scans back from the phase's end until it has seen each of them or
reached the start: within the last period of a CyclicPhase, a few
periods' worth of a RandomPhase's draws, and up to the last touch of the
list's or memoryview's earliest-touched page. No L1 holds the whole
region, so that last form runs the per-access loop. Each run must give the
reference's PAs, paths and cycles (translate() only), both phases'
counters, and the final order of the L1, of each L2 set and of the walk
cache. Simulated memory counts its frame fetches, which must equal both
phases' walk_memory_reads.

Some mixed trials flip one bit in 38..63 of one access, which takes it out
of the canonical range; among them, bit 40 of one access of an otherwise
all-L1-hit measurement phase. Both translate() and run_trace must then
raise CanonicalityError naming that VA, in the state the accesses before it
left, with the counters of those accesses and no others.

Floors on what the trials reach; each prints its count when it fails.
Here, over the mixed cases: all_hit >= 10 (a measurement phase of 2+ accesses, all L1 hits),
random_evicted >= 20 (random replacement evicted from the L2),
flushed >= 15 (a flush emptied a non-empty walk cache), non_canonical >= 20
(a flipped access), resident_flip >= 10 (bit 40 inside an all-L1-hit
phase) and frame0 (each path meets frame 0 at both page sizes). In
test_phases, over the compact cases: bulk >= 30 (a phase past one period,
all L1 hits: the bulk L1 step's scan of the last period), random_bulk
>= 45 (a non-empty phase whose period the warm-up left in the L1, so that
its RandomPhase takes the bulk step) and partial_warmup >= 60 (a phase
whose first page the warm-up left resident, but which misses too).
"""

import random
from collections import Counter
from dataclasses import asdict

import numpy as np

from napotsim.engine import (
    L1_HIT, L2_HIT, WALK, CyclicPhase, LatencyModel, RandomPhase, Simulation,
)
from napotsim.errors import CanonicalityError
from napotsim.pagetable import RegionSpec
from napotsim.sv39 import PageSize
from napotsim.workloads import AccessTrace
from ptes import CountingMem

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
# the compact cases' one region
BASE_VA = 0x4000_0000
BASE_PPN = 0x10_0000
REGION_PAGES = 128
REGION = range(BASE_VA, BASE_VA + (REGION_PAGES << 12), 1 << 12)
MIXED_TRIALS = 100
COUNTERS = (
    "accesses", "l1_hits", "l1_misses", "l2_hits", "l2_misses",
    "walks", "walk_memory_reads", "total_cycles",
)


def reference_run(regions, phases, l1_entries, l2_entries, ways, ptw_cache_entries,
                  latency, replacement, seed, flush_ptw_between_phases):
    """Translate every access of every phase; lists run oldest first.

    Returns the (pa, path, cycles) of each access, one counter dict per
    phase, and the final state: the L1 as (page, frame) pairs, the occupied
    L2 sets in L2Tlb.dump()'s form and the walk-cache keys. State carries
    across phases, except the walk cache when flush_ptw_between_phases is
    set; counters do not.
    """
    sets = l2_entries // ways
    rng = random.Random(seed)
    l1 = []  # (page, frame)
    l2 = [[] for _ in range(sets)]  # (page or group tag, napot?, frame base)
    ptw = []  # (level, vpn prefix) of cached non-leaf entries
    outcomes = []
    counters = []
    for addresses in phases:
        if flush_ptw_between_phases and counters:
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
                        if len(ptw) > ptw_cache_entries:
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


def draw_geometry(rng, ways, l2_sets, l1_sizes, ptw_sizes):
    """Structure sizes from the choices given, then the rest at random."""
    return dict(
        l1_entries=rng.choice(l1_sizes),
        l2_entries=ways * rng.choice(l2_sets),
        ways=ways,
        ptw_cache_entries=rng.choice(ptw_sizes),
        replacement=rng.choice(("lru", "random")),
        seed=rng.randrange(1 << 16),
        latency=LatencyModel(
            rng.randint(0, 3), rng.randint(0, 5), rng.randint(0, 40)
        ),
        flush_ptw_between_phases=rng.random() < 0.5,
    )


def random_case(rng, compact=False):
    """Regions, a warm-up and a measurement phase, and a geometry.

    A mixed case maps two to four regions, at least one of each page size,
    and draws both phases from their pages. A compact case maps one region
    and measures a CyclicPhase; most of those its period warms have the
    bulk L1 step's shape.
    """
    if compact:
        page_size = rng.choice(PageSize.ALL)
        regions = [RegionSpec(BASE_VA, REGION_PAGES << 12, page_size, BASE_PPN)]
        pages = list(REGION)
        ways = rng.choice((1, 2, 4, 16))
        geometry = draw_geometry(
            rng, ways, (1, 2, 8, 64), (1, 3, 5, 7, 32, 33), (1, 3, 8)
        )
        shape = rng.choice(("period", "shuffled", "first-only", "empty"))
        # mostly the bulk L1 step's shape: a period the L1 holds, warmed by
        # itself and measured past one period
        bulk = shape == "period" and rng.random() < 0.7
        if bulk:
            size = rng.randint(1, geometry["l1_entries"])
        else:
            size = rng.randint(
                1, geometry["l1_entries"] + 2 if rng.random() < 0.5 else 80)
        start = rng.randrange(REGION_PAGES - size + 1)
        if rng.random() < 0.7:
            # gen_trace's form: the period is a range of whole pages
            period = range(pages[start], pages[start] + (size << 12), 4096)
        else:
            # any list: random order, repeated pages, offsets inside a page
            period = [rng.choice(pages[start:start + size]) | rng.randrange(4096)
                      for _ in range(size)]
        if shape == "period":
            warmup = period
        elif shape == "shuffled":
            # the period's pages among others, in any order, ending on its first
            warmup = list(period) + rng.sample(pages, rng.randint(0, 4))
            rng.shuffle(warmup)
            warmup.append(period[0])
        elif shape == "first-only":
            # the phase's first page is resident, some of its others are not
            warmup = rng.sample(pages, rng.randint(0, 6)) + [period[0]]
        else:
            warmup = []
        n = len(period)
        if bulk:
            length = n + rng.randint(1, 4 * n)
        else:
            length = rng.choice(
                (0, rng.randrange(n), n, n * rng.randint(1, 4) + rng.randrange(n),
                 n * rng.randint(2, 5))
            )
        return regions, (warmup, CyclicPhase(period, length)), geometry
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
    geometry = draw_geometry(rng, ways, (1, 2, 4, 16), (1, 2, 3, 32), (1, 2, 8))
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
    """A Simulation of the geometry whose memory counts its frame fetches."""
    sim = Simulation(regions, **geometry)
    sim.mem = CountingMem(sim.mem)
    return sim


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


def check_trials(seed, trials, compact):
    """Check trials random cases of one shape against reference_run.

    Returns a Counter of the trials each floor counts, by the floor's name,
    and the (path, page size) of the accesses that reached frame 0.
    """
    rng = random.Random(seed)
    seen = Counter()
    frame0 = set()
    zero = dict.fromkeys(COUNTERS, 0)
    for trial in range(trials):
        regions, phases, geometry = random_case(rng, compact)
        outcomes, counters, state = reference_run(regions, phases, **geometry)
        measured = counters[1]
        resident = measured["l1_hits"] == measured["accesses"] >= 2
        flip = None if compact else flip_one_access(rng, phases, resident)
        if flip:
            phases, where, index, bit = flip
            seen["non_canonical"] += 1
            seen["resident_flip"] += resident and where == 1 and bit == 40
            # the engine stops at the flipped access, in the state and with
            # the counters the ones before it leave
            before = (*phases[:where], phases[where][:index])
            outcomes, counters, state = reference_run(regions, before, **geometry)
            error = f"va {phases[where][index]:#x} is not a canonical sv39 address"
        else:
            seen["all_hit"] += resident
            # every walk inserts a new L2 entry, and only an eviction drops one
            inserted = sum(count["walks"] for count in counters)
            seen["random_evicted"] += (
                geometry["replacement"] == "random"
                and inserted > sum(map(len, state[1].values())))
            if geometry["flush_ptw_between_phases"]:
                seen["flushed"] += bool(
                    reference_run(regions, phases[:1], **geometry)[2][2]
                )
            for region in regions:
                if region.base_ppn == 0:
                    frame0.update(
                        (path, region.page_size)
                        for pa, path, _ in outcomes if pa >> 12 == 0
                    )
            if compact:
                period = phases[1].period
                seen["bulk"] += (
                    measured["l1_hits"] == measured["accesses"] > len(period))
                # a RandomPhase over the period takes the bulk step when the
                # warm-up leaves every page of the period in the L1
                l1 = reference_run(regions, phases[:1], **geometry)[2][0]
                seen["random_bulk"] += bool(measured["accesses"]) and (
                    {va >> 12 for va in period} <= {page for page, _ in l1})
                seen["partial_warmup"] += (
                    0 < measured["l1_hits"] < measured["accesses"]
                    and phases[0][-1:] == [period[0]])
            error = None
        stepped = make_sim(regions, geometry)
        got = []
        raised = None
        for phase, addresses in zip(("warmup", "measurement"), phases):
            stepped.phase = phase
            if phase == "measurement" and geometry["flush_ptw_between_phases"]:
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
        runs = {"translate": stepped}
        forms = {"list": phases[1]}
        if compact:
            addresses = list(phases[1])
            draws = np.array(addresses, dtype=np.uint64).data.toreadonly()
            forms = {
                "list": addresses,
                "CyclicPhase": phases[1],
                "memoryview": draws,
                "RandomPhase": RandomPhase(phases[1].period, draws),
                # never resident, since the region outgrows every L1 drawn
                "RandomPhase over the region": RandomPhase(REGION, draws),
            }
        for form, measurement in forms.items():
            looped = runs[form] = make_sim(regions, geometry)
            try:
                looped.run_trace(AccessTrace(phases[0], measurement))
                raised = None
            except CanonicalityError as exc:
                raised = str(exc)
            assert raised == error, f"trial {trial}, {form}"
        l1, l2, ptw = state
        for form, sim in runs.items():
            where = f"trial {trial}, {form}"
            for n, name in enumerate(("warmup", "measurement")):
                want = counters[n] if n < len(counters) else zero
                assert asdict(sim.stats.phase(name)) == want, f"{where}, {name}"
            reads = sum(count["walk_memory_reads"] for count in counters)
            assert sim.mem.reads == reads, where
            assert list(sim.l1.entries.items()) == l1, where
            assert sim.l2.dump() == l2, where
            assert list(sim.ptw_cache.entries) == ptw, where
    return seen, frame0


def test_engine_matches_reference_translator():
    seen, frame0 = check_trials(2406, MIXED_TRIALS, compact=False)
    assert seen["all_hit"] >= 10, seen["all_hit"]
    assert seen["random_evicted"] >= 20, seen["random_evicted"]
    assert seen["flushed"] >= 15, seen["flushed"]
    assert seen["non_canonical"] >= 20, seen["non_canonical"]
    assert seen["resident_flip"] >= 10, seen["resident_flip"]
    assert frame0 == {
        (path, size) for path in (L1_HIT, L2_HIT, WALK) for size in PageSize.ALL
    }, frame0
