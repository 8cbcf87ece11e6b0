"""Page-table construction and walker checks.

Two oracles drive these tests. The tree-shape oracle predicts how many
table pages a region list needs (root + one level-1 table per distinct
GB slice + one level-0 table per distinct 2MB slice), using division
arithmetic on byte addresses rather than the builder's shifts. The
translation oracle is the closed form frame = base_ppn + (va - base_va) /
4096, which holds for both page sizes because a NAPOT group maps 16
contiguous frames in order.
"""

import random

import pytest

from napotsim.errors import (
    AlignmentError,
    CanonicalityError,
    MalformedNapotError,
    RegionOverlapError,
    SuperpageError,
)
from napotsim.pagetable import (
    PtwCache,
    RegionSpec,
    build_page_tables,
    table_frames,
    validate_regions,
    walk,
)
from napotsim.sv39 import PPN_MASK, PageSize, decode_pte, napot_translate
from ptes import N, R, W, leaf, napot_leaf, pointer

GB = 1 << 30
MB2 = 2 << 20
KB4 = 4 << 10
KB64 = 64 << 10


def expected_table_pages(regions):
    """Tree-shape oracle: root + level-1 tables + level-0 tables."""
    gb_slices = set()
    mb2_slices = set()
    for r in regions:
        for va in range(r.base_va, r.base_va + r.length, KB4):
            gb_slices.add(va // GB)
            mb2_slices.add(va // MB2)
    return 1 + len(gb_slices) + len(mb2_slices)


def expected_frame(region, va):
    return region.base_ppn + (va - region.base_va) // KB4


class CountingMem(dict):
    """Simulated memory that counts the reads the walker makes."""

    reads = 0

    def get(self, addr, default=None):
        self.reads += 1
        return super().get(addr, default)


def count_table_pages(mem, root):
    """Structural reader: count reachable table frames."""
    frames = {root}
    for slot2 in range(512):
        raw2 = mem.get((root << 12) | (slot2 << 3), 0)
        if not raw2 & 1:
            continue
        pte2 = decode_pte(raw2, level=2)
        frames.add(pte2.ppn)
        for slot1 in range(512):
            raw1 = mem.get((pte2.ppn << 12) | (slot1 << 3), 0)
            if not raw1 & 1:
                continue
            pte1 = decode_pte(raw1, level=1)
            frames.add(pte1.ppn)
    return len(frames)


def read_leaf(mem, root, va):
    """Follow the tree by hand down to the raw leaf."""
    vpn = (va >> 12) & ((1 << 27) - 1)
    raw = mem.get((root << 12) | ((vpn >> 18) << 3), 0)
    pte2 = decode_pte(raw, level=2)
    raw = mem.get((pte2.ppn << 12) | (((vpn >> 9) & 511) << 3), 0)
    pte1 = decode_pte(raw, level=1)
    raw = mem.get((pte1.ppn << 12) | ((vpn & 511) << 3), 0)
    return decode_pte(raw, level=0)


def test_region_spec_validation():
    RegionSpec(0x4000_0000, KB4, PageSize.PAGE_4K, 0x1000)
    with pytest.raises(AlignmentError):
        RegionSpec(0x4000_0800, KB4, PageSize.PAGE_4K, 0x1000)
    with pytest.raises(AlignmentError):
        RegionSpec(0x4000_1000, KB64, PageSize.PAGE_64K, 0x1000)  # va not 64K aligned
    with pytest.raises(AlignmentError):
        RegionSpec(0x4000_0000, KB64, PageSize.PAGE_64K, 0x1001)  # ppn not group aligned
    with pytest.raises(AlignmentError):
        RegionSpec(0x4000_0000, KB4 * 3 // 2, PageSize.PAGE_4K, 0x1000)
    with pytest.raises(AlignmentError):
        RegionSpec(0x4000_0000, 0, PageSize.PAGE_4K, 0x1000)
    with pytest.raises(CanonicalityError):
        RegionSpec(1 << 40, KB4, PageSize.PAGE_4K, 0x1000)
    with pytest.raises(CanonicalityError):
        # runs off the end of the canonical low half
        RegionSpec(0x3F_FFFF_F000, KB4 * 2, PageSize.PAGE_4K, 0x1000)
    with pytest.raises(CanonicalityError, match="va 0x7fbfffffff "):
        # ends deep in the hole, 255GB past the low half
        RegionSpec(0x3F_C000_0000, 1 << 38, PageSize.PAGE_4K, 0)
    with pytest.raises(ValueError, match="PPN range"):
        # both ends canonical, in opposite halves: the frames run out first
        RegionSpec(0, 0xFFFF_FFC0_0000_1000, PageSize.PAGE_4K, 0)
    with pytest.raises(ValueError):
        RegionSpec(0x4000_0000, KB4, 8192, 0x1000)
    RegionSpec(0x4000_0000, KB4, PageSize.PAGE_4K, PPN_MASK)
    with pytest.raises(ValueError, match="PPN range"):
        # the second frame would wrap to 0 in the leaf's 44-bit PPN field
        RegionSpec(0x4000_0000, KB4 * 2, PageSize.PAGE_4K, PPN_MASK)


def test_region_overlap_detection():
    a = RegionSpec(0x4000_0000, 2 * KB4, PageSize.PAGE_4K, 0x1000)
    b = RegionSpec(0x4000_1000, KB4, PageSize.PAGE_4K, 0x8000)
    c = RegionSpec(0x4000_2000, KB4, PageSize.PAGE_4K, 0x8000)
    with pytest.raises(RegionOverlapError):
        validate_regions([a, b])
    assert validate_regions([c, a]) == [a, c]


def test_build_single_4k_region():
    region = RegionSpec(0, KB4, PageSize.PAGE_4K, 0x1000)
    mem, root = build_page_tables([region])
    assert count_table_pages(mem, root) == expected_table_pages([region]) == 3
    # root above the leaf's frame, then the 1GB slot's table and the 2MB one
    assert table_frames([region]) == (0x1001, {0b10: 0x1002, 0b01: 0x1003})
    assert len(mem) == 3  # two pointers and one leaf
    leaf = read_leaf(mem, root, 0)
    assert leaf.valid and leaf.is_leaf and not leaf.n_bit
    assert leaf.ppn == 0x1000


def test_build_writes_spec_layout():
    # every word the builder writes equals the one tests/ptes.py builds from
    # the spec's bit positions; tables sit above the highest region frame
    # (root 0x2010, level-1 0x2011, level-0 0x2012), and va bits 38:30 are 1
    regions = [
        RegionSpec(0x4000_0000, 2 * KB4, PageSize.PAGE_4K, 0x1000),
        RegionSpec(0x4001_0000, KB64, PageSize.PAGE_64K, 0x2000),
    ]
    mem, root = build_page_tables(regions)
    assert root == 0x2010
    expected = {
        (0x2010 << 12) | (1 << 3): pointer(0x2011),
        0x2011 << 12: pointer(0x2012),
        0x2012 << 12: leaf(0x1000),
        (0x2012 << 12) | (1 << 3): leaf(0x1001),
    }
    for k in range(16):
        expected[(0x2012 << 12) | ((16 + k) << 3)] = napot_leaf(0x2000)
    assert mem == expected


@pytest.mark.parametrize("page_size", PageSize.ALL)
def test_build_region_across_three_level0_tables(page_size):
    # from 3 groups below a 2MB boundary, through the next 2MB slot, to 3
    # groups into the one after: three level-0 tables, each partly or fully
    # filled, all under one level-1 table
    base_va = GB + MB2 - 3 * KB64
    region = RegionSpec(base_va, MB2 + 6 * KB64, page_size, 0x10000)
    mem, root = build_page_tables([region])
    pages = region.length // KB4
    assert root == 0x10000 + pages
    expected = {(root << 12) | (1 << 3): pointer(root + 1)}
    for slot in range(3):
        expected[((root + 1) << 12) | (slot << 3)] = pointer(root + 2 + slot)
    for page in range(pages):
        va = base_va + page * KB4
        table = root + 2 + (va - GB) // MB2
        index = (va % MB2) // KB4
        if page_size == PageSize.PAGE_64K:
            word = napot_leaf(0x10000 + page - page % 16)
        else:
            word = leaf(0x10000 + page)
        expected[(table << 12) | (index << 3)] = word
    assert len(mem) == 1 + 3 + pages
    assert mem == expected


def test_build_64k_region_fills_group():
    region = RegionSpec(0, KB64, PageSize.PAGE_64K, 0x2000)
    mem, root = build_page_tables([region])
    leaves = [read_leaf(mem, root, page << 12) for page in range(16)]
    # every slot of the group carries the identical marked entry
    assert all(leaf == leaves[0] for leaf in leaves)
    assert leaves[0].n_bit
    assert leaves[0].ppn == 0x2008
    for page in range(16):
        assert napot_translate(leaves[0].ppn, page) == 0x2000 + page


def test_build_shape_spans_levels():
    # 4MB crosses two 2MB slices; a second region sits in another GB slice
    regions = [
        RegionSpec(0x4000_0000, 4 << 20, PageSize.PAGE_4K, 0x10000),
        RegionSpec(0x8000_0000, KB64, PageSize.PAGE_64K, 0x20000),
    ]
    mem, root = build_page_tables(regions)
    assert count_table_pages(mem, root) == expected_table_pages(regions)
    _, tables = table_frames(regions)
    assert 1 + len(tables) == expected_table_pages(regions)


def test_build_empty_region_list():
    mem, root = build_page_tables([])
    assert count_table_pages(mem, root) == 1
    result = walk(root, mem, PtwCache(), 0x1000)
    assert result.faulted and result.memory_reads == 1


def random_regions(rng):
    """Up to five disjoint regions of either page size, in shuffled order,
    from a low-half or an upper-half start."""
    regions = []
    va = rng.choice((0, 0x4000_0000, 0xFFFF_FFC0_0000_0000))
    ppn = 0x1000
    for _ in range(rng.randint(1, 5)):
        page = rng.choice(PageSize.ALL)
        gap = rng.choice((0, page, MB2, GB, rng.randrange(1 << 24)))
        va = -(-(va + gap) // page) * page
        length = page * rng.randint(1, 600)
        ppn = -(-ppn // 16) * 16
        regions.append(RegionSpec(va, length, page, ppn))
        va += length
        ppn += length // KB4
    rng.shuffle(regions)
    return regions


BUILDS = [
    [],
    [RegionSpec(0, KB4, PageSize.PAGE_4K, 0x1000)],
    [RegionSpec(0, KB64, PageSize.PAGE_64K, 0x2000)],
    [
        RegionSpec(0x4000_0000, 2 * KB4, PageSize.PAGE_4K, 0x1000),
        RegionSpec(0x4001_0000, KB64, PageSize.PAGE_64K, 0x2000),
    ],
    [
        RegionSpec(0x4000_0000, 4 << 20, PageSize.PAGE_4K, 0x10000),
        RegionSpec(0x8000_0000, KB64, PageSize.PAGE_64K, 0x20000),
    ],
    [
        RegionSpec(0x4000_0000, 1 << 20, PageSize.PAGE_4K, 0x10000),
        RegionSpec(0x5000_0000, 1 << 20, PageSize.PAGE_64K, 0x20000),
    ],
    [
        RegionSpec(5 << 30, KB4, PageSize.PAGE_4K, 0x1000),
        RegionSpec(5 << 21, KB4, PageSize.PAGE_4K, 0x2000),
    ],
] + [
    [RegionSpec(GB + MB2 - 3 * KB64, MB2 + 6 * KB64, page, 0x10000)]
    for page in PageSize.ALL
] + [random_regions(random.Random(seed)) for seed in range(40)]


@pytest.mark.parametrize("regions", BUILDS)
def test_build_puts_each_table_where_table_frames_says(regions):
    # one pointer word names each table frame, in the slot its key gives
    # under its parent: the root for a 1GB slot's table, that table for a
    # 2MB slot's one
    root, tables = table_frames(regions)
    mem, built_root = build_page_tables(regions)
    assert built_root == root
    pointers = [word for word in mem.values() if word & 0b1111 == 1]
    assert sorted(word >> 10 for word in pointers) == sorted(tables.values())
    for key, frame in tables.items():
        prefix, level = key // 4, key % 4
        parent = root if level == 2 else tables[prefix // 512 * 4 + 2]
        assert mem[parent * 4096 + prefix % 512 * 8] == pointer(frame)


def test_build_rejects_overlap():
    regions = [
        RegionSpec(0x4000_0000, 2 * KB4, PageSize.PAGE_4K, 0x1000),
        RegionSpec(0x4000_1000, KB4, PageSize.PAGE_4K, 0x8000),
    ]
    with pytest.raises(RegionOverlapError):
        build_page_tables(regions)


def test_build_rejects_table_frames_past_ppn_range():
    # the region ends on the last frame, so the root table would be 1 << 44
    region = RegionSpec(0x4000_0000, KB64, PageSize.PAGE_64K, PPN_MASK - 15)
    with pytest.raises(ValueError, match="frame 0x100000000000"):
        build_page_tables([region])
    with pytest.raises(ValueError, match="frame 0x100000000000"):
        table_frames([region])


def test_tables_allocated_above_region_frames():
    region = RegionSpec(0x4000_0000, 8 * KB4, PageSize.PAGE_4K, 0x1000)
    mem, root = build_page_tables([region])
    assert root == 0x1000 + 8
    leaf = read_leaf(mem, root, 0x4000_0000)
    assert leaf.ppn == 0x1000


def test_walk_read_counts():
    region = RegionSpec(0x4000_0000, 4 << 20, PageSize.PAGE_4K, 0x10000)
    mem, root = build_page_tables([region])
    mem = CountingMem(mem)
    cache = PtwCache()
    va = 0x4000_0000

    result = walk(root, mem, cache, va)
    assert not result.faulted
    assert result.memory_reads == 3 and result.cache_hits == 0

    # same 2MB slice: level-1 entry cached, only the leaf read remains
    result = walk(root, mem, cache, va + KB4)
    assert result.memory_reads == 1 and result.cache_hits == 1

    # different 2MB slice, same GB slice: level-2 entry cached
    result = walk(root, mem, cache, va + MB2)
    assert result.memory_reads == 2 and result.cache_hits == 1

    assert mem.reads == 6


def test_walk_translates_correctly():
    rng = random.Random(41)
    regions = [
        RegionSpec(0x4000_0000, 1 << 20, PageSize.PAGE_4K, 0x10000),
        RegionSpec(0x5000_0000, 1 << 20, PageSize.PAGE_64K, 0x20000),
    ]
    mem, root = build_page_tables(regions)
    cache = PtwCache()
    for _ in range(300):
        region = rng.choice(regions)
        va = region.base_va + rng.randrange(region.length)
        result = walk(root, mem, cache, va & ~0xFFF)
        assert not result.faulted
        leaf = decode_pte(result.pte)
        if leaf.n_bit:
            frame = napot_translate(leaf.ppn, (va >> 12) & 0xF)
        else:
            frame = leaf.ppn
        assert frame == expected_frame(region, va & ~0xFFF)


def test_walk_faults_outside_regions():
    region = RegionSpec(0x4000_0000, KB4, PageSize.PAGE_4K, 0x1000)
    mem, root = build_page_tables([region])
    cache = PtwCache()
    assert not walk(root, mem, cache, 0x4000_0000).faulted
    # missing leaf in the now-cached 2MB slice: one read, then the fault
    result = walk(root, mem, cache, 0x4000_1000)
    assert result.faulted and result.memory_reads == 1 and result.cache_hits == 1
    # untouched GB slice: faults at the root
    result = walk(root, mem, PtwCache(), 0x20_0000_0000)
    assert result.faulted and result.memory_reads == 1 and result.cache_hits == 0


# pointers to the level-1 table in frame 2 and the level-0 table in frame 3
TO_L1, TO_L0 = pointer(2), pointer(3)


@pytest.mark.parametrize(
    "words, outcome",
    [
        ([0], (True, 1)),
        ([leaf(0x40000)], (SuperpageError, "1GB leaf")),
        ([TO_L1 | N], (MalformedNapotError, "non-leaf or level-2 entry")),
        ([leaf(0x18, napot=True)], (MalformedNapotError, "non-leaf or level-2 entry")),
        ([TO_L1, leaf(0x200)], (SuperpageError, "2MB leaf")),
        ([TO_L1, TO_L0 | N], (MalformedNapotError, "non-leaf or level-1 entry")),
        ([TO_L1, 0], (True, 2)),
        ([TO_L1, TO_L0, pointer(4)], (True, 3)),
        ([TO_L1, TO_L0, pointer(0x18) | N], (MalformedNapotError, "non-leaf")),
        ([TO_L1, TO_L0, leaf(0x17, napot=True)], (MalformedNapotError, "lacks the 64KB")),
        ([TO_L1, TO_L0, N | (0x18 << 10) | R | W], (True, 3)),
        ([TO_L1, TO_L0, leaf(0x1234)], (False, 3)),
        ([TO_L1, TO_L0, napot_leaf(0x10)], (False, 3)),
        ([TO_L1, TO_L0, leaf(0x55, perms=0b010)], (False, 3)),
    ],
    ids=[
        "invalid-root", "1gb-leaf", "n-on-l2-pointer", "n-on-l2-leaf",
        "2mb-leaf", "n-on-l1-pointer", "invalid-l1", "pointer-at-l0",
        "n-pointer-at-l0", "n-leaf-bad-nibble", "invalid-n-leaf", "4kb-leaf",
        "napot-leaf", "w-only-leaf",
    ],
)
def test_walk_on_hand_written_tree(words, outcome):
    # root in frame 1, level-1 table in frame 2, level-0 table in frame 3;
    # va 0 uses slot 0 of each
    mem = {frame << 12: word for frame, word in enumerate(words, start=1)}
    first, second = outcome
    if isinstance(first, type):
        with pytest.raises(first, match=second):
            walk(1, mem, PtwCache(), 0)
    else:
        result = walk(1, mem, PtwCache(), 0)
        assert (result.faulted, result.memory_reads) == outcome


def test_walk_rejects_non_canonical():
    mem, root = build_page_tables([])
    with pytest.raises(CanonicalityError):
        walk(root, mem, PtwCache(), 1 << 40)


def test_walk_flush_restores_cold_cost():
    region = RegionSpec(0x4000_0000, 4 * KB4, PageSize.PAGE_4K, 0x1000)
    mem, root = build_page_tables([region])
    cache = PtwCache()
    assert walk(root, mem, cache, 0x4000_0000).memory_reads == 3
    assert walk(root, mem, cache, 0x4000_1000).memory_reads == 1
    cache.clear()
    assert walk(root, mem, cache, 0x4000_2000).memory_reads == 3
    cache.clear()
    cache.clear()  # idempotent
    assert len(cache) == 0


def test_ptw_cache_capacity_and_lru():
    cache = PtwCache(capacity=8)
    pte = pointer(0x99)
    for key in range(9):
        cache.put(key, pte)
    assert len(cache) == 8
    assert cache.get(0) is None  # oldest went first
    assert cache.get(1) == pte
    # key 1 is now most recent; adding one more evicts key 2
    cache.put(100, pte)
    assert cache.get(2) is None
    assert cache.get(1) is not None
    # re-putting a resident key into the full cache refreshes it in place
    cache.put(3, pointer(0x98))
    assert list(cache.entries) == [4, 5, 6, 7, 8, 100, 1, 3]
    assert cache.entries[3] == pointer(0x98)


def test_ptw_cache_rejects_leaves():
    cache = PtwCache()
    with pytest.raises(ValueError):
        cache.put(0, 0)
    with pytest.raises(ValueError):
        cache.put(0, leaf(0x10))


def test_ptw_cache_levels_do_not_collide():
    # the level-2 VPN prefix of one va equals the level-1 prefix of the other
    regions = [
        RegionSpec(5 << 30, KB4, PageSize.PAGE_4K, 0x1000),
        RegionSpec(5 << 21, KB4, PageSize.PAGE_4K, 0x2000),
    ]
    mem, root = build_page_tables(regions)
    for first, second in ((regions[0], regions[1]), (regions[1], regions[0])):
        cache = PtwCache()
        walk(root, mem, cache, first.base_va)
        result = walk(root, mem, cache, second.base_va)
        assert result.memory_reads == 3 and result.cache_hits == 0
        assert decode_pte(result.pte).ppn == second.base_ppn


def test_walk_deterministic():
    region = RegionSpec(0x4000_0000, 1 << 20, PageSize.PAGE_4K, 0x10000)
    mem, root = build_page_tables([region])
    rng = random.Random(43)
    vas = [0x4000_0000 + (rng.randrange(256) << 12) for _ in range(200)]
    first = [
        (decode_pte(r.pte).ppn, r.memory_reads, r.cache_hits)
        for cache in [PtwCache()]
        for r in (walk(root, mem, cache, va) for va in vas)
    ]
    second = [
        (decode_pte(r.pte).ppn, r.memory_reads, r.cache_hits)
        for cache in [PtwCache()]
        for r in (walk(root, mem, cache, va) for va in vas)
    ]
    assert first == second
