"""Per-access translation pipeline with cycle and hit/miss accounting.

Every access charges l1_hit_cycles; an L1 miss adds l2_lookup_cycles for
the L2 probe whether it hits or not; an L2 miss walks the tables and adds
mem_read_cycles per memory read the walk performs. Counters are kept per
phase so warm-up accesses never pollute the measured numbers, while TLB
and walk-cache state carries across the phase boundary.

Both TLBs are keyed by va >> PAGE_SHIFT, and only VAs walk found canonical
fill them: a non-canonical access misses both, and walk raises on it.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import cycle, islice

from .errors import InvariantError, UnmappedAccessError
from .pagetable import PTW_CACHE_ENTRIES, PtwCache, build_page_tables, walk
from .sv39 import OFFSET_MASK, PAGE_SHIFT
from .tlb import L1Dtlb, L2Tlb

WARMUP = "warmup"
MEASUREMENT = "measurement"
PHASES = (WARMUP, MEASUREMENT)

L1_HIT = "l1_hit"
L2_HIT = "l2_hit"
WALK = "walk"


@dataclass(frozen=True)
class CyclicPhase(Sequence):
    """A read-only phase of length addresses: period repeated cyclically.

    It holds only the period and the length, and iterates in C through
    islice(cycle(period)). An item is taken by int index only: there is no
    slicing, and reversed() is Sequence's, one index at a time. The length
    is not called count, which would hide Sequence.count.
    """

    period: Sequence
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("length must be non-negative")
        if self.length and not self.period:
            raise ValueError("a non-empty cyclic phase needs a non-empty period")

    def __len__(self):
        return self.length

    def __getitem__(self, index):
        return self.period[range(self.length)[index] % len(self.period)]

    def __iter__(self):
        return islice(cycle(self.period), self.length)


@dataclass(frozen=True)
class RandomPhase(Sequence):
    """A read-only phase of draws, each an address on a page of period.

    period holds the addresses the draws are taken from, such as
    gen_trace's warm-up range. The bulk L1 step tests its pages in place of
    the draws', so a draw off them would be miscounted; nothing checks
    that, since it would read every draw. draws holds the addresses, for
    example a read-only uint64 memoryview. Length, items, iteration and
    reversed() all pass straight to it, so a loop over the phase runs in
    the draws' own C iterator.
    """

    period: Sequence
    draws: Sequence

    def __post_init__(self):
        if len(self.draws) and not self.period:
            raise ValueError("a non-empty random phase needs a non-empty period")

    def __len__(self):
        return len(self.draws)

    def __getitem__(self, index):
        return self.draws[index]

    def __iter__(self):
        return iter(self.draws)

    def __reversed__(self):
        return reversed(self.draws)


@dataclass(frozen=True)
class LatencyModel:
    l1_hit_cycles: int = 1
    l2_lookup_cycles: int = 3
    mem_read_cycles: int = 30

    def __post_init__(self):
        for name in ("l1_hit_cycles", "l2_lookup_cycles", "mem_read_cycles"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass
class PhaseStats:
    accesses: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    walks: int = 0
    walk_memory_reads: int = 0
    total_cycles: int = 0

    def check(self, latency):
        """Raise InvariantError unless every access is exactly one of L1 hit,
        L2 hit, or walk and total_cycles is what latency charges for them."""
        cycles = (
            self.accesses * latency.l1_hit_cycles
            + self.l1_misses * latency.l2_lookup_cycles
            + self.walk_memory_reads * latency.mem_read_cycles
        )
        identities = (
            ("l1_hits + l1_misses == accesses",
             self.l1_hits + self.l1_misses, self.accesses),
            ("l2_hits + l2_misses == l1_misses",
             self.l2_hits + self.l2_misses, self.l1_misses),
            ("walks == l2_misses", self.walks, self.l2_misses),
            ("total_cycles == accesses*l1_hit + l1_misses*l2_lookup"
             " + walk_memory_reads*mem_read", self.total_cycles, cycles),
        )
        for identity, got, want in identities:
            if got != want:
                raise InvariantError(f"{identity} broken: {got} != {want}")


@dataclass
class SimStats:
    warmup: PhaseStats = field(default_factory=PhaseStats)
    measurement: PhaseStats = field(default_factory=PhaseStats)

    def phase(self, name):
        if name not in PHASES:
            raise ValueError(f"unknown phase {name!r}")
        return getattr(self, name)

    def check(self, latency):
        self.warmup.check(latency)
        self.measurement.check(latency)


@dataclass(frozen=True)
class TranslationOutcome:
    pa: int
    path: str
    cycles_charged: int


@dataclass(frozen=True)
class Hierarchy:
    """The settings of one TLB hierarchy and its walker, and the one place
    their defaults are written: the TLBs take each setting from their caller."""

    ways: int = 4
    l2_entries: int = 1024
    replacement: str = "lru"
    seed: int = 0
    l1_entries: int = 32
    ptw_cache_entries: int = PTW_CACHE_ENTRIES
    latency: LatencyModel = LatencyModel()
    flush_ptw_between_phases: bool = False


class Simulation:
    """One TLB hierarchy plus walker over one fixed set of mapped regions;
    keyword changes override fields of the hierarchy."""

    def __init__(self, regions, hierarchy=Hierarchy(), **changes):
        self.hierarchy = h = replace(hierarchy, **changes)
        self.mem, self.root_ppn = build_page_tables(regions)
        self.l1 = L1Dtlb(h.l1_entries)
        self.l2 = L2Tlb(h.l2_entries, h.ways, h.replacement, h.seed)
        self.ptw_cache = PtwCache(h.ptw_cache_entries)
        self.stats = SimStats()
        self.phase = MEASUREMENT

    def translate(self, va):
        """Translate one access, updating the current phase's counters.

        The access runs through the same pipeline as run_trace; the path is
        read off the counter that moved. A faulting access raises and leaves
        the counters untouched.
        """
        stats = self.stats.phase(self.phase)
        l1_hits = stats.l1_hits
        l2_hits = stats.l2_hits
        cycles = stats.total_cycles
        self._run_phase((va,), stats)
        if stats.l1_hits != l1_hits:
            path = L1_HIT
        elif stats.l2_hits != l2_hits:
            path = L2_HIT
        else:
            path = WALK
        # every path leaves the page at the L1's MRU end
        ppn = self.l1.entries[va >> PAGE_SHIFT]
        return TranslationOutcome(
            (ppn << PAGE_SHIFT) | (va & OFFSET_MASK),
            path,
            stats.total_cycles - cycles,
        )

    def run_trace(self, trace):
        """Run the warm-up then measurement accesses; returns the stats.

        Equivalent to calling translate() per address, up to one that
        raises, but batched for speed: the counters keep the accesses before
        it. Cached translations survive into the measurement phase.
        """
        self.phase = WARMUP
        self._run_phase(trace.warmup, self.stats.warmup)
        if self.hierarchy.flush_ptw_between_phases:
            self.ptw_cache.clear()
        self.phase = MEASUREMENT
        self._run_phase(trace.measurement, self.stats.measurement)
        self.stats.check(self.hierarchy.latency)
        return self.stats

    def _run_phase(self, addresses, stats):
        l1_entries = self.l1.entries
        total = len(addresses)
        l1_hits = l2_hits = walks = walk_reads = 0
        # An LRU hit reorders the L1 but never evicts. So if every page of a
        # phase's support (a CyclicPhase's or RandomPhase's period, any other
        # phase itself) is in the L1 when the phase starts, the phase is n
        # hits, and it leaves the pages it touched in last-touch order after
        # the untouched ones. The first access is tested alone, so that most
        # phases that miss skip the rest. The support is deduplicated in C,
        # latest first, then tested page by page up to the first miss. The
        # last-touch order then comes from one scan back from the phase's
        # end, which stops at its start or once it has seen every support
        # page: for n support pages, within one period of a cyclic phase,
        # and after about n*ln(n) draws of a uniform random one. It reads
        # doubling blocks from n on, each deduplicated in C.
        if total and addresses[0] >> PAGE_SHIFT in l1_entries:
            support = addresses
            if isinstance(addresses, (CyclicPhase, RandomPhase)):
                support = addresses.period
            pages = {}
            for va in dict.fromkeys(reversed(support)):
                page = va >> PAGE_SHIFT
                if page not in l1_entries:
                    break
                pages[page] = None
            else:
                latest_first = reversed(addresses)
                by_last_touch = {}
                block = len(pages)
                while len(by_last_touch) < len(pages):
                    vas = dict.fromkeys(islice(latest_first, block))
                    if not vas:
                        break
                    for va in vas:
                        by_last_touch.setdefault(va >> PAGE_SHIFT)
                    block *= 2
                for page in reversed(by_last_touch):
                    l1_entries.move_to_end(page)
                l1_hits = total
        try:
            if l1_hits != total:
                # the per-access reference path; names are bound locally because
                # an attribute lookup per access is a large share of an L1 hit
                l1_get = l1_entries.get
                l1_move = l1_entries.move_to_end
                l1_insert = self.l1.insert
                l2_lookup = self.l2.lookup
                l2_insert = self.l2.insert
                root_ppn = self.root_ppn
                mem = self.mem
                ptw_cache = self.ptw_cache
                for va in addresses:
                    page = va >> PAGE_SHIFT
                    if l1_get(page) is not None:
                        l1_move(page)
                        l1_hits += 1
                        continue
                    ppn = l2_lookup(page)
                    if ppn is not None:
                        l2_hits += 1
                        l1_insert(page, ppn)
                        continue
                    result = walk(root_ppn, mem, ptw_cache, va)
                    if result.faulted:
                        raise UnmappedAccessError(f"no mapping behind va {va:#x}")
                    walks += 1
                    walk_reads += result.memory_reads
                    l1_insert(page, l2_insert(page, result.pte))
        finally:
            done = l1_hits + l2_hits + walks
            l1_misses = done - l1_hits
            latency = self.hierarchy.latency
            stats.accesses += done
            stats.l1_hits += l1_hits
            stats.l1_misses += l1_misses
            stats.l2_hits += l2_hits
            stats.l2_misses += l1_misses - l2_hits
            stats.walks += walks
            stats.walk_memory_reads += walk_reads
            stats.total_cycles += (
                done * latency.l1_hit_cycles
                + l1_misses * latency.l2_lookup_cycles
                + walk_reads * latency.mem_read_cycles
            )
