"""The compact phase forms gen_trace hands the engine.

A linear measured phase is a CyclicPhase, its period and a length; a random
one is the memoryview of a uint64 numpy array. Each must read as the list
of the same addresses, and run_trace over it must give that list's counters
and final state: the L1 order, l2.dump() and the walk-cache order. The
cases reach the bulk L1 step (a period no longer than the L1), which scans
the last period of a CyclicPhase and all of a memoryview, a warm-up whose
first page is resident while others are not, lengths of 0, below one period
and between multiples of it, odd L1 sizes, both page sizes and random L2
replacement. Some periods are lists in random order with repeats, so one
period of them stands for any access list in memoryview form.
"""

import random

import numpy as np
import pytest

from napotsim.engine import CyclicPhase, Simulation
from napotsim.pagetable import RegionSpec
from napotsim.sv39 import PageSize
from napotsim.workloads import AccessTrace

BASE_VA = 0x4000_0000
BASE_PPN = 0x10_0000
KB4 = 4 << 10
REGION_PAGES = 128


def test_cyclic_phase_reads_as_its_list():
    period = range(BASE_VA, BASE_VA + 5 * KB4, KB4)
    for length in (0, 1, 3, 5, 7, 10, 12):
        phase = CyclicPhase(period, length)
        want = [period[i % 5] for i in range(length)]
        assert len(phase) == length
        assert list(phase) == want
        assert list(reversed(phase)) == want[::-1]
        for index in range(-length, length):
            assert phase[index] == want[index]
        for index in (length, -length - 1, length + 5):
            with pytest.raises(IndexError):
                phase[index]
        with pytest.raises(TypeError):
            phase[1:]


def test_cyclic_phase_ends():
    phase = CyclicPhase(range(BASE_VA, BASE_VA + 3 * KB4, KB4), 1_000_000)
    assert (phase[0], phase[-1]) == (BASE_VA, BASE_VA)  # 1_000_000 % 3 == 1
    assert phase[-2] == BASE_VA + 2 * KB4
    assert next(reversed(phase)) == BASE_VA


def test_cyclic_phase_rejects_an_empty_period_and_a_negative_length():
    assert list(CyclicPhase([], 0)) == []
    assert list(reversed(CyclicPhase(range(0), 0))) == []
    with pytest.raises(ValueError, match="non-empty period"):
        CyclicPhase([], 1)
    with pytest.raises(ValueError, match="length must be non-negative"):
        CyclicPhase([BASE_VA], -1)


def final_state(regions, geometry, warmup, measurement):
    sim = Simulation(regions, **geometry)
    stats = sim.run_trace(AccessTrace(warmup, measurement))
    return (
        stats,
        list(sim.l1.entries.items()),
        sim.l2.dump(),
        list(sim.ptw_cache.entries),
    )


def random_case(rng):
    """A region, a geometry, a warm-up, a period and a phase length."""
    page_size = rng.choice(PageSize.ALL)
    regions = [RegionSpec(BASE_VA, REGION_PAGES * KB4, page_size, BASE_PPN)]
    pages = [BASE_VA + p * KB4 for p in range(REGION_PAGES)]
    ways = rng.choice((1, 2, 4, 16))
    geometry = dict(
        ways=ways,
        l2_entries=ways * rng.choice((1, 2, 8, 64)),
        l1_entries=rng.choice((1, 3, 5, 7, 32, 33)),
        ptw_cache_entries=rng.choice((1, 3, 8)),
        replacement=rng.choice(("lru", "random")),
        seed=rng.randrange(1 << 16),
    )
    size = rng.randint(1, geometry["l1_entries"] + 2 if rng.random() < 0.5 else 80)
    start = rng.randrange(REGION_PAGES - size + 1)
    if rng.random() < 0.7:
        # gen_trace's form: the period is a range of whole pages
        period = range(pages[start], pages[start] + size * KB4, KB4)
    else:
        # any list: random order, repeated pages, offsets inside a page
        period = [rng.choice(pages[start:start + size]) | rng.randrange(KB4)
                  for _ in range(size)]
    shape = rng.choice(("period", "shuffled", "first-only", "empty"))
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
    length = rng.choice(
        (0, rng.randrange(n), n, n * rng.randint(1, 4) + rng.randrange(n),
         n * rng.randint(2, 5))
    )
    return regions, geometry, warmup, period, length


def test_compact_phases_run_as_their_lists():
    rng = random.Random(1616)
    bulk = partial_warmup = 0
    for case in range(300):
        regions, geometry, warmup, period, length = random_case(rng)
        phase = CyclicPhase(period, length)
        addresses = list(phase)
        want = final_state(regions, geometry, warmup, addresses)
        assert final_state(regions, geometry, warmup, phase) == want, case
        view = np.array(addresses, dtype=np.uint64).data
        assert final_state(regions, geometry, warmup, view) == want, case
        measured = want[0].measurement
        bulk += measured.l1_hits == measured.accesses > len(period)
        partial_warmup += (
            bool(length) and 0 < measured.l1_hits < measured.accesses
            and warmup[-1:] == [period[0]]
        )
    # the cyclic bulk step, and a resident first page over missing others
    assert bulk >= 30
    assert partial_warmup >= 60

