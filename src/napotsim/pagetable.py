"""Synthetic sv39 page tables in simulated physical memory, plus the walker.

build_page_tables lays out a three-level radix tree for a list of mapped
regions. 4KB regions get one level-0 leaf per page; 64KB regions get 16
identical NAPOT leaves per group, since every slot of a group must carry
the marked entry. walk traverses the tree through a small LRU cache of
non-leaf PTEs and reports how many memory reads the traversal cost.
"""

from collections import OrderedDict
from dataclasses import dataclass

from .errors import (
    AlignmentError,
    CanonicalityError,
    RegionOverlapError,
    SuperpageError,
)
from .sv39 import (
    LEVEL_MASK,
    NAPOT_OFFSET_MASK,
    NAPOT_PPN_PATTERN,
    PAGE_SHIFT,
    PPN_MASK,
    VPN_MASK,
    PageSize,
    check_canonical,
    decode_pte,
    encode_pte,
    leaf_pte,
    table_pte,
)

PTW_CACHE_ENTRIES = 8


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
        # the region must not cross into non-canonical space
        end = self.base_va + self.length - 1
        check_canonical(end)
        if (end >> 38) != (self.base_va >> 38):
            raise CanonicalityError("region crosses the canonical address hole")

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


class SimPhysMem:
    """Sparse word-addressed memory; unwritten words read as zero."""

    def __init__(self):
        self._words = {}
        self.read_count = 0

    def read64(self, pa):
        self.read_count += 1
        return self._words.get(pa, 0)

    def write64(self, pa, value):
        self._words[pa] = value & 0xFFFFFFFFFFFFFFFF

    def peek(self, pa):
        """Read without touching read_count; for inspection only."""
        return self._words.get(pa, 0)

    def __len__(self):
        return len(self._words)


class PtwCache:
    """Fully associative LRU cache of non-leaf PTEs, keyed (level, VPN prefix)."""

    def __init__(self, capacity=PTW_CACHE_ENTRIES):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries = OrderedDict()

    def get(self, level, prefix):
        key = (level, prefix)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, level, prefix, pte):
        if not pte.valid or pte.is_leaf:
            raise ValueError("only valid non-leaf PTEs belong in the walk cache")
        key = (level, prefix)
        if key in self._entries:
            self._entries[key] = pte
            self._entries.move_to_end(key)
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[key] = pte

    def flush(self):
        self._entries.clear()

    def __len__(self):
        return len(self._entries)


def build_page_tables(regions, first_table_frame=None):
    """Construct the radix tree for the regions; returns (memory, root frame).

    Table frames are allocated from first_table_frame upward; by default
    that is the first frame above every region's backing frames, so tables
    never collide with mapped data. A table frame past the 44-bit PPN range
    raises ValueError, since encode_pte would wrap it onto a low frame.
    """
    ordered = validate_regions(regions)
    if first_table_frame is None:
        first_table_frame = max(
            (r.base_ppn + r.num_pages for r in ordered), default=0
        )
    mem = SimPhysMem()
    next_frame = first_table_frame

    def alloc():
        nonlocal next_frame
        frame = next_frame
        if frame > PPN_MASK:
            raise ValueError(
                f"page-table frame {frame:#x} is past the 44-bit PPN range"
            )
        next_frame += 1
        return frame

    root = alloc()
    l1_frames = {}
    l0_frames = {}
    for region in ordered:
        base_vpn = (region.base_va >> PAGE_SHIFT) & VPN_MASK
        napot = region.page_size == PageSize.PAGE_64K
        for i in range(region.num_pages):
            vpn = base_vpn + i
            vpn2 = vpn >> 18
            vpn1 = (vpn >> 9) & LEVEL_MASK
            l1f = l1_frames.get(vpn2)
            if l1f is None:
                l1f = alloc()
                l1_frames[vpn2] = l1f
                mem.write64(
                    (root << PAGE_SHIFT) | (vpn2 << 3),
                    encode_pte(table_pte(l1f, 2)),
                )
            l0f = l0_frames.get((vpn2, vpn1))
            if l0f is None:
                l0f = alloc()
                l0_frames[(vpn2, vpn1)] = l0f
                mem.write64(
                    (l1f << PAGE_SHIFT) | (vpn1 << 3),
                    encode_pte(table_pte(l0f, 1)),
                )
            if napot:
                # all 16 slots of the group carry the same marked leaf
                ppn = (region.base_ppn + (i & ~NAPOT_OFFSET_MASK)) | NAPOT_PPN_PATTERN
            else:
                ppn = region.base_ppn + i
            mem.write64(
                (l0f << PAGE_SHIFT) | ((vpn & LEVEL_MASK) << 3),
                encode_pte(leaf_pte(ppn, n_bit=napot)),
            )
    return mem, root


@dataclass
class WalkResult:
    pte: object
    memory_reads: int
    cache_hits: int
    faulted: bool


def walk(root_ppn, mem, cache, va):
    """Resolve va down to its level-0 leaf PTE.

    Probes the walk cache deepest-first: a cached level-1 entry leaves only
    the leaf fetch (1 read), a cached level-2 entry skips the root (2 reads),
    a cold walk costs 3. Non-leaf PTEs fetched from memory are cached.
    Returns a faulted result on any invalid entry along the path.
    """
    check_canonical(va)
    vpn = (va >> PAGE_SHIFT) & VPN_MASK
    reads = 0
    cache_hits = 0
    pte1 = cache.get(1, vpn >> 9)
    if pte1 is not None:
        cache_hits += 1
    else:
        pte2 = cache.get(2, vpn >> 18)
        if pte2 is not None:
            cache_hits += 1
        else:
            raw = mem.read64((root_ppn << PAGE_SHIFT) | ((vpn >> 18) << 3))
            reads += 1
            pte2 = decode_pte(raw, level=2)
            if not pte2.valid:
                return WalkResult(pte2, reads, cache_hits, True)
            if pte2.is_leaf:
                raise SuperpageError(f"1GB leaf on the path of va {va:#x}")
            cache.put(2, vpn >> 18, pte2)
        raw = mem.read64((pte2.ppn << PAGE_SHIFT) | (((vpn >> 9) & LEVEL_MASK) << 3))
        reads += 1
        pte1 = decode_pte(raw, level=1)
        if not pte1.valid:
            return WalkResult(pte1, reads, cache_hits, True)
        if pte1.is_leaf:
            raise SuperpageError(f"2MB leaf on the path of va {va:#x}")
        cache.put(1, vpn >> 9, pte1)
    raw = mem.read64((pte1.ppn << PAGE_SHIFT) | ((vpn & LEVEL_MASK) << 3))
    reads += 1
    leaf = decode_pte(raw, level=0)
    if not leaf.valid or not leaf.is_leaf:
        # a pointer PTE at level 0 has nowhere to go; treat as unmapped
        return WalkResult(leaf, reads, cache_hits, True)
    return WalkResult(leaf, reads, cache_hits, False)
