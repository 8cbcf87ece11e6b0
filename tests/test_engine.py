"""Translation pipeline accounting: paths, cycles, phases, invariants, and
the CyclicPhase and RandomPhase forms of a phase.

The cycle oracle is the additive model computed by hand: every access pays
the L1 probe, an L1 miss adds the L2 lookup charge, and a walk adds the
memory-read charge once per read the walk performed. A cold walk therefore
costs 1 + 3 + 3*30 = 94 cycles at the default latencies.
"""

import os
import random
import re
import subprocess
import sys
from collections import OrderedDict
from collections.abc import Sequence
from copy import deepcopy
from dataclasses import replace
from pathlib import Path

import pytest

import napotsim
from napotsim.engine import (
    L1_HIT,
    L2_HIT,
    MEASUREMENT,
    WALK,
    WARMUP,
    CyclicPhase,
    LatencyModel,
    PhaseStats,
    RandomPhase,
    Simulation,
    SimStats,
)
from napotsim.errors import CanonicalityError, InvariantError, UnmappedAccessError
from napotsim.pagetable import RegionSpec
from napotsim.sv39 import PageSize
from napotsim.workloads import AccessTrace
from ptes import CountingMem

BASE_VA = 0x4000_0000
BASE_PPN = 0x10_0000
KB4 = 4 << 10
KB64 = 64 << 10


def sim_4k(length=1 << 20, **kwargs):
    return Simulation([RegionSpec(BASE_VA, length, PageSize.PAGE_4K, BASE_PPN)], **kwargs)


def sim_64k(length=1 << 20, **kwargs):
    return Simulation([RegionSpec(BASE_VA, length, PageSize.PAGE_64K, BASE_PPN)], **kwargs)


def expected_cycles(stats, latency=LatencyModel()):
    return (
        stats.accesses * latency.l1_hit_cycles
        + stats.l1_misses * latency.l2_lookup_cycles
        + stats.walk_memory_reads * latency.mem_read_cycles
    )


def test_cold_walk_costs_94_cycles():
    sim = sim_4k()
    out = sim.translate(BASE_VA)
    assert out.path == WALK
    assert out.cycles_charged == 94
    assert out.pa == BASE_PPN << 12


def test_l1_hit_costs_1_cycle():
    sim = sim_4k()
    sim.translate(BASE_VA)
    out = sim.translate(BASE_VA + 8)
    assert out.path == L1_HIT
    assert out.cycles_charged == 1
    assert out.pa == (BASE_PPN << 12) | 8


def test_l1_hit_refreshes_lru():
    # a hit makes page 0 the newest, so the insert of page 9 evicts page 1,
    # the true oldest
    sim = sim_4k(l1_entries=4)
    for page in range(4):
        sim.translate(BASE_VA + page * KB4)
    assert sim.translate(BASE_VA).path == L1_HIT
    sim.translate(BASE_VA + 9 * KB4)
    assert list(sim.l1.entries) == [vpn(BASE_VA + p * KB4) for p in (2, 3, 0, 9)]


def test_l2_hit_costs_4_cycles():
    # second page of a warm NAPOT group: misses L1, hits the group entry
    sim = sim_64k()
    sim.translate(BASE_VA)
    out = sim.translate(BASE_VA + KB4)
    assert out.path == L2_HIT
    assert out.cycles_charged == 4
    assert out.pa == (BASE_PPN + 1) << 12


def test_napot_walk_reaches_right_frame():
    sim = sim_64k()
    out = sim.translate(BASE_VA + 5 * KB4 + 0x123)
    assert out.path == WALK
    assert out.pa == ((BASE_PPN + 5) << 12) | 0x123


def test_custom_latency_model():
    latency = LatencyModel(l1_hit_cycles=2, l2_lookup_cycles=5, mem_read_cycles=7)
    sim = sim_4k(latency=latency)
    assert sim.translate(BASE_VA).cycles_charged == 2 + 5 + 3 * 7
    assert sim.translate(BASE_VA).cycles_charged == 2


def test_latency_model_rejects_negative():
    with pytest.raises(ValueError):
        LatencyModel(l1_hit_cycles=-1)


def test_unmapped_access_raises():
    sim = sim_4k(length=KB4)
    with pytest.raises(UnmappedAccessError):
        sim.translate(BASE_VA + KB4)
    # a faulting access moves no counter
    assert sim.stats == SimStats()
    with pytest.raises(UnmappedAccessError):
        sim.run_trace(AccessTrace([], [BASE_VA + KB4]))
    assert sim.stats == SimStats()
    # a walk before the fault is counted; the faulting walk's reads are not
    sim = sim_4k(length=KB4)
    with pytest.raises(UnmappedAccessError):
        sim.run_trace(AccessTrace([], [BASE_VA, BASE_VA + KB4]))
    assert sim.stats.measurement == PhaseStats(
        accesses=1, l1_misses=1, l2_misses=1, walks=1, walk_memory_reads=3,
        total_cycles=1 + 3 + 3 * 30,
    )


def test_non_canonical_access_raises():
    sim = sim_4k()
    with pytest.raises(CanonicalityError):
        sim.translate(1 << 40)
    assert sim.stats == SimStats()
    with pytest.raises(CanonicalityError):
        sim.run_trace(AccessTrace([], [1 << 40]))


class ProbeCountingDict(OrderedDict):
    """An L1 entry map that counts the per-access loop's probes."""

    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)


def warm_l1(pages):
    """A simulation whose 4-entry L1 holds pages 0..pages-1, oldest first."""
    sim = sim_4k(l1_entries=4)
    sim.run_trace(AccessTrace([BASE_VA + p * KB4 for p in range(pages)], []))
    sim.l1.entries = ProbeCountingDict(sim.l1.entries)
    return sim


def vpn(va):
    return va >> 12


def test_resident_phase_is_all_hits_in_last_touch_order():
    # L1 = a b c d, oldest first; the phase c a c hits three times and
    # leaves b and d, untouched, ahead of a and c in last-touch order
    a, b, c, d = (BASE_VA + p * KB4 for p in range(4))
    sim = warm_l1(4)
    before = replace(sim.stats.warmup)
    stats = sim.run_trace(AccessTrace([], [c, a + 8, c + 0x10]))
    assert list(sim.l1.entries) == [vpn(b), vpn(d), vpn(a), vpn(c)]
    assert stats.measurement == PhaseStats(accesses=3, l1_hits=3, total_cycles=3)
    assert stats.warmup == before
    # applied in bulk: the per-access loop never probed the L1
    assert sim.l1.entries.probes == 0


def test_resident_list_phase_scans_back_to_a_page_touched_only_at_its_start():
    # L1 = a b c d; the phase a (c b)*500 is its own support: the bulk step
    # scans it back from the end in doubling blocks until it reaches a at
    # the start, then leaves d, untouched, ahead of a, c and b
    a, b, c, d = (BASE_VA + p * KB4 for p in range(4))
    sim = warm_l1(4)
    stats = sim.run_trace(AccessTrace([], [a] + [c, b] * 500))
    assert stats.measurement == PhaseStats(
        accesses=1001, l1_hits=1001, total_cycles=1001)
    assert list(sim.l1.entries) == [vpn(d), vpn(a), vpn(c), vpn(b)]
    assert sim.l1.entries.probes == 0


def test_phase_that_opens_with_a_hit_and_later_walks():
    # L1 = a b c d; the phase a e a: e misses L1 and L2 and walks through
    # the warm walk cache (1 read), evicting b, the least recent
    a, b, c, d, e = (BASE_VA + p * KB4 for p in range(5))
    sim = warm_l1(4)
    stats = sim.run_trace(AccessTrace([], [a, e, a]))
    assert stats.measurement == PhaseStats(
        accesses=3, l1_hits=2, l1_misses=1, l2_misses=1, walks=1,
        walk_memory_reads=1, total_cycles=3 + 3 + 30,
    )
    assert list(sim.l1.entries) == [vpn(c), vpn(d), vpn(e), vpn(a)]
    assert sim.l1.entries.probes == 3


def test_resident_phase_with_a_non_canonical_va_raises():
    # bit 40 falls outside the 27-bit VPN, so this VA's VPN is a's, which
    # is resident; but the TLBs are keyed by VA bits 63:12, so it misses
    # both and walk's canonicality check stops it; the hit on a before it is
    # counted, as translate() would count it, and nothing after it is
    a, b = BASE_VA, BASE_VA + KB4
    sim = warm_l1(2)
    before = deepcopy(sim.stats)
    with pytest.raises(CanonicalityError, match=f"va {a | 1 << 40:#x}"):
        sim.run_trace(AccessTrace([], [a, a | 1 << 40, b]))
    assert sim.stats.warmup == before.warmup
    assert sim.stats.measurement == PhaseStats(accesses=1, l1_hits=1, total_cycles=1)
    assert list(sim.l1.entries) == [vpn(b), vpn(a)]


class CountingDraws(Sequence):
    """A RandomPhase's draws that count the items read from them."""

    def __init__(self, items):
        self.items = items
        self.reads = 0

    def __len__(self):
        return len(self.items)

    def __getitem__(self, index):
        item = self.items[index]
        self.reads += 1
        return item


def test_resident_random_phase_reads_only_its_last_draws():
    # 50,000 draws over 32 pages the warm-up left in the 32-entry L1: past
    # the first-access gate, the bulk step reads back from the end, in
    # blocks of 32, 64, 128 and so on, only until it has seen all 32 pages
    # (about 130 draws on average)
    rng = random.Random(21)
    period = range(BASE_VA, BASE_VA + 32 * KB4, KB4)
    items = [rng.choice(period) for _ in range(50_000)]
    sim = sim_4k()
    sim.run_trace(AccessTrace(period, []))
    sim.l1.entries = ProbeCountingDict(sim.l1.entries)
    draws = CountingDraws(items)
    stats = sim.run_trace(AccessTrace([], RandomPhase(period, draws)))
    assert draws.reads <= 1000, draws.reads
    assert sim.l1.entries.probes == 0
    assert stats.measurement == PhaseStats(
        accesses=50_000, l1_hits=50_000, total_cycles=50_000)
    by_last_touch = dict.fromkeys(vpn(va) for va in reversed(items))
    assert list(sim.l1.entries) == list(by_last_touch)[::-1]


def test_random_phase_whose_period_misses_runs_the_per_access_loop():
    # the first draw's page is resident, but page 4 of the period is not:
    # the bulk step stops there without reading a draw, and the loop reads
    # each draw once and probes the L1 for each, though all of them hit
    a, b, c, d = (BASE_VA + p * KB4 for p in range(4))
    sim = warm_l1(4)
    draws = CountingDraws([a, c, b, a, d])
    period = range(BASE_VA, BASE_VA + 8 * KB4, KB4)
    stats = sim.run_trace(AccessTrace([], RandomPhase(period, draws)))
    assert draws.reads == 1 + 5  # the first-access gate, then the loop
    assert sim.l1.entries.probes == 5
    assert stats.measurement == PhaseStats(accesses=5, l1_hits=5, total_cycles=5)
    assert list(sim.l1.entries) == [vpn(c), vpn(b), vpn(a), vpn(d)]


def test_random_phase_reads_as_its_draws():
    period = range(BASE_VA, BASE_VA + 4 * KB4, KB4)
    draws = [BASE_VA + 2 * KB4, BASE_VA, BASE_VA + 3 * KB4]
    phase = RandomPhase(period, draws)
    assert len(phase) == 3
    assert list(phase) == draws
    assert list(reversed(phase)) == draws[::-1]
    assert (phase[0], phase[-1]) == (draws[0], draws[-1])
    assert list(RandomPhase(range(0), [])) == []
    with pytest.raises(ValueError, match="non-empty period"):
        RandomPhase(range(0), draws)


def test_empty_trace_runs():
    sim = sim_4k()
    stats = sim.run_trace(AccessTrace([], []))
    assert stats.warmup.accesses == 0
    assert stats.measurement.accesses == 0
    assert stats.measurement.total_cycles == 0
    # on a warm L1, empty phases move neither a counter nor the LRU order
    sim = warm_l1(4)
    order = list(sim.l1.entries)
    before = deepcopy(sim.stats)
    sim.run_trace(AccessTrace([], []))
    assert list(sim.l1.entries) == order
    assert sim.stats == before


def test_single_page_trace_counts():
    sim = sim_4k()
    stats = sim.run_trace(AccessTrace([], [BASE_VA] * 10))
    m = stats.measurement
    assert m.accesses == 10
    assert m.walks == 1 and m.l2_hits == 0 and m.l1_hits == 9
    assert m.walk_memory_reads == 3
    assert m.total_cycles == 94 + 9


def test_phase_counters_are_separate():
    sim = sim_4k()
    trace = AccessTrace([BASE_VA, BASE_VA + KB4], [BASE_VA] * 5)
    stats = sim.run_trace(trace)
    assert stats.warmup.accesses == 2
    assert stats.warmup.walks == 2
    assert stats.measurement.accesses == 5
    # warm state carried over: the measured page never walks again
    assert stats.measurement.walks == 0
    assert stats.measurement.l1_hits == 5


def test_phase_counters_freeze_after_their_phase():
    sim = sim_4k()
    stats = sim.run_trace(AccessTrace([BASE_VA], [BASE_VA + KB4] * 3))
    frozen = replace(stats.warmup)
    sim.phase = MEASUREMENT
    sim.translate(BASE_VA + 2 * KB4)
    assert stats.warmup == frozen


def test_translate_respects_phase_attribute():
    sim = sim_4k()
    sim.phase = WARMUP
    sim.translate(BASE_VA)
    assert sim.stats.warmup.accesses == 1
    assert sim.stats.measurement.accesses == 0
    sim.phase = "bogus"
    with pytest.raises(ValueError, match="unknown phase 'bogus'"):
        sim.translate(BASE_VA)


def test_stats_invariants_on_random_traces():
    rng = random.Random(73)
    for trial in range(10):
        pages = rng.choice((16, 64, 256))
        sim = sim_4k(length=pages << 12, ways=rng.choice((4, 16)))
        sim.mem = CountingMem(sim.mem)
        warmup = [BASE_VA + (p << 12) for p in range(pages)]
        measurement = [
            BASE_VA + (rng.randrange(pages) << 12) for _ in range(2000)
        ]
        stats = sim.run_trace(AccessTrace(warmup, measurement))
        for phase in (stats.warmup, stats.measurement):
            phase.check(sim.hierarchy.latency)
            assert phase.total_cycles == expected_cycles(phase)
        assert sim.mem.reads == (
            stats.warmup.walk_memory_reads + stats.measurement.walk_memory_reads
        )


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


def test_deterministic_across_runs():
    rng = random.Random(79)
    measurement = [BASE_VA + (rng.randrange(512) << 12) for _ in range(4000)]
    trace = AccessTrace([BASE_VA + (p << 12) for p in range(512)], measurement)
    a = sim_4k(length=512 << 12, ways=4, replacement="random", seed=9)
    b = sim_4k(length=512 << 12, ways=4, replacement="random", seed=9)
    assert a.run_trace(trace) == b.run_trace(trace)


def test_walks_per_chunk_are_16x_cheaper_with_napot():
    # one cold linear pass over 256KB: 64 walks with 4KB pages, 4 with 64KB
    pages = 64
    warmup = [BASE_VA + (p << 12) for p in range(pages)]
    a = sim_4k(length=pages << 12)
    b = sim_64k(length=pages << 12)
    a.run_trace(AccessTrace(warmup, []))
    b.run_trace(AccessTrace(warmup, []))
    assert a.stats.warmup.walks == 64
    assert b.stats.warmup.walks == 4
    assert a.stats.warmup.walks == 16 * b.stats.warmup.walks


def test_flush_ptw_between_phases():
    pages = 2
    warmup = [BASE_VA]
    measurement = [BASE_VA + KB4]
    keep = sim_4k(length=pages << 12)
    keep.run_trace(AccessTrace(warmup, measurement))
    assert keep.stats.measurement.walk_memory_reads == 1
    drop = sim_4k(length=pages << 12, flush_ptw_between_phases=True)
    drop.run_trace(AccessTrace(warmup, measurement))
    assert drop.stats.measurement.walk_memory_reads == 3


def test_l1_refill_from_napot_entry_is_4k():
    # after a walk of page 0, page 1 refills L1 from the NAPOT entry;
    # hitting page 1 again is then a plain L1 hit with its own frame
    sim = sim_64k()
    sim.translate(BASE_VA)
    sim.translate(BASE_VA + KB4)
    out = sim.translate(BASE_VA + KB4 + 4)
    assert out.path == L1_HIT
    assert out.pa == ((BASE_PPN + 1) << 12) | 4


def test_l2_flush_forces_walk_but_keeps_counters_consistent():
    sim = sim_4k()
    sim.translate(BASE_VA)
    sim.l1.clear()
    sim.l2.clear()
    out = sim.translate(BASE_VA)
    assert out.path == WALK
    # the second walk rides the PTW cache: only the leaf read
    assert out.cycles_charged == 1 + 3 + 30
    sim.stats.measurement.check(sim.hierarchy.latency)


def test_phase_check_names_the_broken_identity():
    latency = LatencyModel()
    good = PhaseStats(accesses=2, l1_hits=1, l1_misses=1, l2_misses=1,
                      walks=1, walk_memory_reads=3, total_cycles=2 + 3 + 90)
    good.check(latency)
    broken = {
        "l1_hits + l1_misses == accesses": replace(good, accesses=3),
        "l2_hits + l2_misses == l1_misses": replace(good, l2_hits=1),
        "walks == l2_misses": replace(good, walks=0),
        "total_cycles ==": replace(good, total_cycles=94),
    }
    for identity, stats in broken.items():
        with pytest.raises(InvariantError, match=re.escape(identity)):
            stats.check(latency)
    # the cycle identity follows the run's latency model, not the default
    with pytest.raises(InvariantError, match="total_cycles"):
        good.check(LatencyModel(mem_read_cycles=31))


def test_phase_check_survives_python_O():
    # assert statements vanish under -O; the explicit raise must not
    src = str(Path(napotsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "from napotsim import CanonicalityError, InvariantError, LatencyModel,"
        " PageSize, PhaseStats, RegionSpec, Simulation\n"
        "try:\n"
        "    PhaseStats(accesses=1).check(LatencyModel())\n"
        "except InvariantError as exc:\n"
        "    print('raised', exc)\n"
        "sim = Simulation([RegionSpec(0x40000000, 4096, PageSize.PAGE_4K, 1)])\n"
        "try:\n"
        "    sim.translate(1 << 40)\n"
        "except CanonicalityError as exc:\n"
        "    print('raised', exc)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.splitlines() == [
        "raised l1_hits + l1_misses == accesses broken: 0 != 1",
        "raised va 0x10000000000 is not a canonical sv39 address",
    ]
