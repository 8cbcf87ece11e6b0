"""Synthetic sv39 page tables in simulated physical memory, plus the walker.

Simulated memory is a dict from the frame number of each table to that
table's 512 raw PTE words, one array('Q') per frame; a frame not in the
dict reads as all zeros. table_frames decides which frame holds each table
of the three-level radix tree for a list of mapped regions, and
build_page_tables writes the tree's raw PTE words there. 4KB regions get
one level-0 leaf per page; 64KB regions get 16 identical NAPOT leaves per
group, since every slot of a group must carry the marked entry. Each 2MB
slot's leaves are computed as one numpy run and written into its table in
one step. walk traverses the tree through a small LRU cache of non-leaf
PTEs and reports how many memory reads it cost.
"""

from array import array
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, RegionOverlapError, SuperpageError
from .sv39 import (
    LEVEL_BITS,
    LEVEL_MASK,
    NAPOT_OFFSET_MASK,
    NAPOT_PPN_PATTERN,
    PAGE_BYTES,
    PAGE_SHIFT,
    PPN_MASK,
    PTE_N,
    PTE_PPN_SHIFT,
    PTE_R,
    PTE_RWX,
    PTE_V,
    PTE_W,
    VPN_MASK,
    PageSize,
    check_canonical,
    check_napot_shape,
    decode_pte,  # noqa: F401  re-exported; napotbench's tracer wraps it here
)
from .tlb import LruCache

PTW_CACHE_ENTRIES = 8
# what walk reads from a frame that memory does not hold
EMPTY_FRAME = (0,) * (LEVEL_MASK + 1)


@dataclass(frozen=True)
class RegionSpec:
    """A contiguous mapping: length bytes at base_va onto frames at base_ppn."""

    base_va: int
    length: int
    page_size: int
    base_ppn: int

    def __post_init__(self):
        if self.page_size not in PageSize.ALL:
            raise ValueError(f"unsupported page size {self.page_size}")
        check_canonical(self.base_va)
        if self.base_va % self.page_size:
            raise AlignmentError(
                f"base va {self.base_va:#x} not aligned to {self.page_size}"
            )
        if self.length <= 0 or self.length % self.page_size:
            raise AlignmentError(
                f"length {self.length:#x} not a positive multiple of {self.page_size}"
            )
        last_ppn = self.base_ppn + self.num_pages - 1
        if self.base_ppn < 0 or last_ppn > PPN_MASK:
            raise ValueError(
                f"frames {self.base_ppn:#x}..{last_ppn:#x} leave the 44-bit PPN range"
            )
        if self.page_size == PageSize.PAGE_64K and self.base_ppn & NAPOT_OFFSET_MASK:
            raise AlignmentError(
                f"base ppn {self.base_ppn:#x} not aligned to a 16-frame group"
            )
        # both ends canonical puts the region in one half: reaching the
        # other half takes over 2**52 frames, past the range checked above
        check_canonical(self.base_va + self.length - 1)

    @property
    def end_va(self):
        return self.base_va + self.length

    @property
    def num_pages(self):
        return self.length >> PAGE_SHIFT


def validate_regions(regions):
    ordered = sorted(regions, key=lambda r: r.base_va)
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.base_va < prev.end_va:
            raise RegionOverlapError(
                f"regions at {prev.base_va:#x} and {cur.base_va:#x} overlap"
            )
    return ordered


class PtwCache(LruCache):
    """Fully associative LRU cache of raw non-leaf PTEs under int keys.

    walk keys the pointer found at level L by (VPN >> 9*L) << 2 | L, so
    the VPN prefixes of the two levels never collide."""

    # the one component default left: napotbench's paths probe calls PtwCache()
    def __init__(self, capacity=PTW_CACHE_ENTRIES):
        super().__init__(capacity)

    def get(self, key):
        pte = self.entries.get(key)
        if pte is not None:
            self.entries.move_to_end(key)
        return pte

    def put(self, key, pte):
        if not pte & PTE_V or pte & PTE_RWX:
            raise ValueError("only valid non-leaf PTEs belong in the walk cache")
        self.insert(key, pte)


def table_frames(regions):
    """The page-table layout for the regions: (root, tables).

    tables maps each pointer's walk-cache key, (vpn >> 9*L) << 2 | L, to the
    frame of the table it points to. The root sits right above the regions'
    own frames, and the tables follow it over the distinct 2MB slots in VA
    order, each 1GB slot's table before its first level-0 table.

    A frame past the 44-bit PPN range raises ValueError: a pointer PTE
    cannot hold it.
    """
    root = max((r.base_ppn + r.num_pages for r in regions), default=0)
    slots = set()
    for r in regions:
        low = (r.base_va >> PAGE_SHIFT) & VPN_MASK
        high = ((r.end_va - 1) >> PAGE_SHIFT) & VPN_MASK
        slots.update(range(low >> LEVEL_BITS, (high >> LEVEL_BITS) + 1))
    tables = {}
    for slot in sorted(slots):
        for key in (((slot >> LEVEL_BITS) << 2) | 2, (slot << 2) | 1):
            tables.setdefault(key, root + 1 + len(tables))
    if root + len(tables) > PPN_MASK:
        raise ValueError(
            f"page-table frame {max(root, PPN_MASK + 1):#x} "
            "is past the 44-bit PPN range"
        )
    return root, tables


def build_page_tables(regions):
    """Construct the radix tree for the regions; returns (memory, root frame).

    memory maps the root and each frame table_frames(regions) gives a table
    to that table's 512 words, zeroed before the pointers go in. Each 2MB
    slot's leaf words are then computed in numpy from its frame numbers and
    written with one slice assignment, in page order; one slot at a time,
    so the build holds no more than one slot's words besides the tables.
    Leaves are R+W.
    """
    regions = validate_regions(regions)
    root, tables = table_frames(regions)
    mem = {frame: array("Q", bytes(PAGE_BYTES)) for frame in (root, *tables.values())}
    for key, frame in tables.items():
        # a level-2 pointer sits in the root, a level-1 one in its 1GB
        # slot's table; either way at the low 9 bits of its VPN prefix
        prefix, level = key >> 2, key & 3
        parent = root if level == 2 else tables[((prefix >> LEVEL_BITS) << 2) | 2]
        mem[parent][prefix & LEVEL_MASK] = (frame << PTE_PPN_SHIFT) | PTE_V
    for region in regions:
        base_vpn = (region.base_va >> PAGE_SHIFT) & VPN_MASK
        base_ppn = region.base_ppn
        napot = region.page_size == PageSize.PAGE_64K
        leaf_flags = PTE_V | PTE_R | PTE_W | (PTE_N if napot else 0)
        i = 0
        while i < region.num_pages:
            vpn = base_vpn + i
            # pages i..end-1 share vpn's 2MB slot and so its level-0 table
            end = min(region.num_pages, i + LEVEL_MASK + 1 - (vpn & LEVEL_MASK))
            words = np.arange(base_ppn + i, base_ppn + end, dtype=np.uint64)
            if napot:
                # a slot holds whole groups (64KB divides 2MB), and all 16
                # slots of a group carry the same marked leaf; the mask is
                # taken inside the PPN range, since numpy refuses -16
                # (~NAPOT_OFFSET_MASK alone) as a uint64 operand
                words &= PPN_MASK & ~NAPOT_OFFSET_MASK
                words |= NAPOT_PPN_PATTERN
            words <<= PTE_PPN_SHIFT
            words |= leaf_flags
            first = vpn & LEVEL_MASK
            table = mem[tables[((vpn >> LEVEL_BITS) << 2) | 1]]
            table[first:first + end - i] = array("Q", words.tobytes())
            i = end
    return mem, root


@dataclass
class WalkResult:
    pte: int
    memory_reads: int
    cache_hits: int
    faulted: bool


def walk(root_ppn, mem, cache, va):
    """Resolve va down to its raw level-0 leaf PTE.

    Probes the walk cache deepest-first: a cached level-1 entry leaves only
    the leaf fetch (1 read), a cached level-2 entry skips the root (2 reads),
    a cold walk costs 3. Non-leaf PTEs fetched from memory are cached.
    Returns a faulted result on any invalid entry along the path.
    """
    check_canonical(va)
    vpn = (va >> PAGE_SHIFT) & VPN_MASK
    table, level, cache_hits = root_ppn, 2, 0
    for cached in (1, 2):
        pte = cache.get(((vpn >> (9 * cached)) << 2) | cached)
        if pte is not None:
            table, level, cache_hits = (pte >> PTE_PPN_SHIFT) & PPN_MASK, cached - 1, 1
            break
    reads = 0
    while True:
        shift = 9 * level
        pte = mem.get(table, EMPTY_FRAME)[(vpn >> shift) & LEVEL_MASK]
        reads += 1
        if pte & PTE_N:
            check_napot_shape(pte, level)
        if level == 0 or not pte & PTE_V:
            # only a valid leaf maps va; a level-0 pointer has nowhere to go
            faulted = not (pte & PTE_V and pte & PTE_RWX)
            return WalkResult(pte, reads, cache_hits, faulted)
        if pte & PTE_RWX:
            size = "2MB" if level == 1 else "1GB"
            raise SuperpageError(f"{size} leaf on the path of va {va:#x}")
        cache.put(((vpn >> shift) << 2) | level, pte)
        table = (pte >> PTE_PPN_SHIFT) & PPN_MASK
        level -= 1
