"""The L1 DTLB, the LRU cache it shares with the walk cache, and the
set-associative L2 TLB that collocates 4KB and 64KB entries.

The L2 set index drops the low 4 VPN bits before taking the set bits, so the
16 pages of a 64KB group all land in one set and the same indexing works for
both page sizes. Each entry carries an N bit: an N=1 entry matches on VPN
bits 26:4 alone and yields its PPN with the low nibble replaced by the VA's
NAPOT offset, so one entry covers the whole 64KB group.

A set is made by its first insert, in a dict keyed by set index, so an L2
costs memory only for the sets its entries reach; a lookup makes no set.
Inside a set, entries live in an OrderedDict from oldest to newest, each
mapping a key to the entry's PPN. Keys put the two entry kinds in disjoint
namespaces: vpn << 1 for a 4KB entry, (vpn >> 4) << 1 | 1 for a NAPOT entry.
The engine keys both TLBs by va >> 12, unmasked: for a canonical VA the set
index is the VPN's, and the tag of an upper-half entry keeps VA bits 63:12.
"""

import random
from collections import OrderedDict

from .sv39 import (
    NAPOT_OFFSET_MASK,
    NAPOT_SHIFT,
    PAGE_SHIFT,
    PPN_MASK,
    PTE_N,
    PTE_PPN_SHIFT,
    PTE_RWX,
    PTE_V,
    check_napot_shape,
)

L1_ENTRIES = 32
L2_ENTRIES = 1024
REPLACEMENT_POLICIES = ("lru", "random")
# what L2Tlb.lookup reads from a set no insert has made; never written
NO_ENTRIES = OrderedDict()


class L2Tlb:
    def __init__(self, entries=L2_ENTRIES, ways=4, replacement="lru", seed=0):
        if ways < 1:
            raise ValueError(f"ways must be at least 1, not {ways}")
        if entries <= 0 or entries % ways:
            raise ValueError(f"{entries} entries do not divide into {ways} ways")
        sets = entries // ways
        if sets & (sets - 1):
            raise ValueError(f"set count {sets} is not a power of two")
        if replacement not in REPLACEMENT_POLICIES:
            raise ValueError(f"unknown replacement policy {replacement!r}")
        self.ways = ways
        self.sets = sets
        self.set_mask = sets - 1
        self.replacement = replacement
        self._rng = random.Random(seed)
        self._sets = {}

    def lookup(self, vpn):
        """Return the final 4KB ppn on hit, None on miss (frame 0 is a hit).

        Tries an exact 4KB entry first, then the NAPOT entry for the VPN's
        group. insert() guarantees a NAPOT entry's PPN carries the 0b1000
        nibble, so replacing that nibble with the NAPOT offset is exactly
        the 64KB translation rule. A set no insert has made reads as empty,
        and the lookup leaves it unmade.
        """
        entries = self._sets.get((vpn >> NAPOT_SHIFT) & self.set_mask, NO_ENTRIES)
        key = vpn << 1
        ppn = entries.get(key)
        if ppn is not None:
            entries.move_to_end(key)
            return ppn
        key = ((vpn >> NAPOT_SHIFT) << 1) | 1
        ppn = entries.get(key)
        if ppn is not None:
            entries.move_to_end(key)
            return (ppn & ~NAPOT_OFFSET_MASK) | (vpn & NAPOT_OFFSET_MASK)
        return None

    def insert(self, vpn, pte):
        """Install the raw leaf PTE for vpn, evicting per policy if the set is full.

        Returns the final 4KB ppn for vpn, the same one lookup() would
        return for it. Reinstalling a resident translation refreshes it
        in place instead of consuming another way.
        """
        if not pte & PTE_V or not pte & PTE_RWX:
            raise ValueError("L2 entries must come from valid level-0 leaves")
        entry_ppn = (pte >> PTE_PPN_SHIFT) & PPN_MASK
        if pte & PTE_N:
            check_napot_shape(pte)
            key = ((vpn >> NAPOT_SHIFT) << 1) | 1
            ppn = (entry_ppn & ~NAPOT_OFFSET_MASK) | (vpn & NAPOT_OFFSET_MASK)
        else:
            key = vpn << 1
            ppn = entry_ppn
        index = (vpn >> NAPOT_SHIFT) & self.set_mask
        entries = self._sets.get(index)
        if entries is None:
            entries = self._sets[index] = OrderedDict()
        if key in entries:
            entries.move_to_end(key)
        elif len(entries) >= self.ways:
            if self.replacement == "lru":
                entries.popitem(last=False)
            else:
                victim = list(entries)[self._rng.randrange(len(entries))]
                del entries[victim]
        entries[key] = entry_ppn
        return ppn

    def flush(self, va):
        """Invalidate the whole set va indexes, regardless of page size."""
        self._sets.pop((va >> (PAGE_SHIFT + NAPOT_SHIFT)) & self.set_mask, None)

    def clear(self):
        self._sets.clear()

    def __len__(self):
        return sum(len(entries) for entries in self._sets.values())

    def dump(self):
        """Occupied sets as {index: [(tag, ppn, napot), ...]}, LRU first.

        The tag is the inserted vpn of a 4KB entry, vpn >> 4 of a NAPOT one.
        """
        return {
            index: [(key >> 1, ppn, bool(key & 1)) for key, ppn in entries.items()]
            for index, entries in sorted(self._sets.items())
        }


class LruCache:
    """Fully associative true-LRU map; entries runs from oldest to newest."""

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.entries = OrderedDict()

    def insert(self, key, value):
        """Store key as the newest entry; a new key evicts the oldest if full."""
        entries = self.entries
        if key in entries:
            entries.move_to_end(key)
        elif len(entries) >= self.capacity:
            entries.popitem(last=False)
        entries[key] = value

    def clear(self):
        self.entries.clear()

    def __len__(self):
        return len(self.entries)


class L1Dtlb(LruCache):
    """Small fully associative DTLB: exact 4KB pages only, true LRU.

    entries maps each page va >> 12 to its PPN; the engine probes it inline."""

    def __init__(self, capacity=L1_ENTRIES):
        super().__init__(capacity)
