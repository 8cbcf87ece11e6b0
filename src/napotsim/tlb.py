"""L1 DTLB and the set-associative L2 TLB that collocates 4KB and 64KB entries.

The L2 set index drops the low 4 VPN bits before taking the set bits, so the
16 pages of a 64KB group all land in one set and the same indexing works for
both page sizes. Each entry carries an N bit: an N=1 entry matches on VPN
bits 26:4 alone and yields its PPN with the low nibble replaced by the VA's
NAPOT offset, so one entry covers the whole 64KB group.

Inside a set, entries live in an OrderedDict from oldest to newest, each
mapping a key to the entry's PPN. Keys put the two entry kinds in disjoint
namespaces: vpn << 1 for a 4KB entry, (vpn >> 4) << 1 | 1 for a NAPOT entry.
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
    VPN_MASK,
    check_napot_shape,
)

L1_ENTRIES = 32
L2_ENTRIES = 1024
REPLACEMENT_POLICIES = ("lru", "random")


def l2_index(vpn, sets):
    """Set index shared by both page sizes: drop the NAPOT bits, then mod."""
    return (vpn >> NAPOT_SHIFT) % sets


class L2Tlb:
    def __init__(self, entries=L2_ENTRIES, ways=4, replacement="lru", seed=0):
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
        self._sets = [OrderedDict() for _ in range(sets)]

    def lookup(self, vpn):
        """Return the final 4KB ppn on hit, None on miss (frame 0 is a hit).

        Tries an exact 4KB entry first, then the NAPOT entry for the VPN's
        group. insert() guarantees a NAPOT entry's PPN carries the 0b1000
        nibble, so replacing that nibble with the NAPOT offset is exactly
        the 64KB translation rule.
        """
        entries = self._sets[(vpn >> NAPOT_SHIFT) & self.set_mask]
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
        entries = self._sets[(vpn >> NAPOT_SHIFT) & self.set_mask]
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
        vpn = (va >> PAGE_SHIFT) & VPN_MASK
        self._sets[(vpn >> NAPOT_SHIFT) & self.set_mask].clear()

    def flush_all(self):
        for entries in self._sets:
            entries.clear()

    def occupancy(self):
        return sum(len(entries) for entries in self._sets)

    def dump(self):
        """Occupied sets as {index: [(tag, ppn, napot), ...]}, LRU first.

        The tag is the VPN of a 4KB entry and VPN bits 26:4 of a NAPOT one.
        """
        out = {}
        for index, entries in enumerate(self._sets):
            if entries:
                out[index] = [
                    (key >> 1, ppn, bool(key & 1)) for key, ppn in entries.items()
                ]
        return out


class L1Dtlb:
    """Small fully associative DTLB: exact 4KB VPNs only, true LRU."""

    def __init__(self, capacity=L1_ENTRIES):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        # vpn -> ppn, oldest first; engine hot loop reads this
        self.entries = OrderedDict()

    def lookup(self, vpn):
        hit = self.entries.get(vpn)
        if hit is not None:
            self.entries.move_to_end(vpn)
        return hit

    def insert(self, vpn, ppn):
        entries = self.entries
        if vpn in entries:
            entries.move_to_end(vpn)
        elif len(entries) >= self.capacity:
            entries.popitem(last=False)
        entries[vpn] = ppn

    def flush_all(self):
        self.entries.clear()

    def __len__(self):
        return len(self.entries)
