"""L1/L2 TLB behavior: indexing, dual-size matching, replacement, flush.

The indexing oracle recomputes the set index as (vpn // 16) mod sets with
division instead of shifts, and the index tests read the set an entry
landed in from the L2's own dump(). NAPOT hit results are checked against
the explicit 16-entry frame table an entry stands for.
"""

import inspect
import random
import tracemalloc

import pytest

from napotsim.errors import MalformedNapotError
from napotsim.tlb import L1Dtlb, L2Tlb
from ptes import leaf, napot_leaf, pointer


def index_oracle(vpn, sets):
    return (vpn // 16) % sets


def occupied_set(vpn, sets, pte):
    """The set index an empty 4-way L2 of `sets` sets files vpn's entry under."""
    tlb = L2Tlb(sets * 4, 4, "lru", 0)
    tlb.insert(vpn, pte)
    (index,) = tlb.dump()
    return index


def test_l2_index_known_values():
    assert occupied_set(0, 256, leaf(0x100)) == 0
    assert occupied_set(0x12345, 256, leaf(0x100)) == 0x34
    assert occupied_set(0x12345, 64, leaf(0x100)) == 0x34 % 64
    # the 16 pages of one group share an index; the next group moves on
    assert [occupied_set(vpn, 64, leaf(0x100)) for vpn in range(17)] == [0] * 16 + [1]


def test_l2_index_matches_oracle():
    rng = random.Random(3)
    for _ in range(500):
        vpn = rng.getrandbits(27)
        for sets in (64, 256):
            for pte in (leaf(0x100), napot_leaf(0x100)):
                assert occupied_set(vpn, sets, pte) == index_oracle(vpn, sets)


def test_l2_index_group_invariance():
    rng = random.Random(5)
    for _ in range(200):
        group = rng.getrandbits(23) << 4
        indices = {occupied_set(group | k, 256, leaf(0x100)) for k in range(16)}
        indices |= {occupied_set(group | k, 256, napot_leaf(0x100)) for k in range(16)}
        assert len(indices) == 1


def test_l2_geometry_validation():
    L2Tlb(1024, 4, "lru", 0)
    L2Tlb(1024, 16, "lru", 0)
    with pytest.raises(ValueError):
        L2Tlb(1024, 3, "lru", 0)
    with pytest.raises(ValueError, match="ways must be at least 1"):
        L2Tlb(1024, 0, "lru", 0)
    with pytest.raises(ValueError):
        L2Tlb(0, 4, "lru", 0)
    with pytest.raises(ValueError):
        L2Tlb(96, 2, "lru", 0)  # 48 sets, not a power of two
    with pytest.raises(ValueError):
        L2Tlb(1024, 4, "fifo", 0)


def test_l2_miss_on_empty():
    tlb = L2Tlb(1024, 4, "lru", 0)
    assert tlb.lookup(0x1234) is None
    assert [tlb.lookup(vpn) for vpn in range(0, 4096, 5)] == [None] * 820
    tlb.flush(0x5678 << 12)
    assert len(tlb) == 0
    assert tlb.dump() == {}
    tlb = L2Tlb(1024, 4, "lru", 0)
    tlb.insert(0x20, leaf(0x100))  # set 2
    assert tlb.lookup(0x30) is None  # set 3
    tlb.insert(0x10, leaf(0x200))  # set 1, touched last but listed first
    dump = tlb.dump()
    assert dump == {1: [(0x10, 0x200, False)], 2: [(0x20, 0x100, False)]}
    assert list(dump) == [1, 2]


def test_l2_4k_entry_exact_match():
    tlb = L2Tlb(1024, 4, "lru", 0)
    assert tlb.insert(0x1230, leaf(0x200)) == 0x200
    assert tlb.lookup(0x1230) == 0x200
    # same group, different page: a 4KB entry does not cover neighbors
    assert tlb.lookup(0x1231) is None
    assert len(tlb) == 1


def test_l2_napot_entry_covers_group():
    tlb = L2Tlb(1024, 4, "lru", 0)
    # insert hands back the translation of the VPN it was given
    assert tlb.insert(0x1235, napot_leaf(0x80010)) == 0x80015
    frames = {k: 0x80010 + k for k in range(16)}
    for k in range(16):
        assert tlb.lookup(0x1230 | k) == frames[k]
    assert tlb.lookup(0x1240) is None  # next group
    assert len(tlb) == 1


def test_l2_4k_entry_wins_before_napot_probe():
    tlb = L2Tlb(1024, 4, "lru", 0)
    tlb.insert(0x1230, napot_leaf(0x80010))
    tlb.insert(0x1231, leaf(0x999))
    assert tlb.lookup(0x1231) == 0x999
    assert tlb.lookup(0x1232) == 0x80012


def test_l2_insert_rejects_bad_entries():
    tlb = L2Tlb(1024, 4, "lru", 0)
    with pytest.raises(MalformedNapotError):
        tlb.insert(0x1230, leaf(0x80011, napot=True))
    with pytest.raises(ValueError):
        tlb.insert(0x1230, pointer(0x10))


def test_l2_lru_eviction_within_set():
    tlb = L2Tlb(1024, 4, "lru", 0)  # 256 sets
    # five 4KB pages in five different groups, all landing in set 0
    vpns = [k * 16 * 256 for k in range(5)]
    for vpn in vpns:
        tlb.insert(vpn, leaf(0x100 + vpn))
    assert tlb.lookup(vpns[0]) is None
    for vpn in vpns[1:]:
        assert tlb.lookup(vpn) == 0x100 + vpn
    assert len(tlb) == 4


def test_l2_lookup_refreshes_lru():
    tlb = L2Tlb(1024, 4, "lru", 0)
    vpns = [k * 16 * 256 for k in range(4)]
    for vpn in vpns:
        tlb.insert(vpn, leaf(0x100 + vpn))
    assert tlb.lookup(vpns[0]) is not None  # oldest becomes most recent
    tlb.insert(5 * 16 * 256, leaf(0x900))
    assert tlb.lookup(vpns[0]) is not None
    assert tlb.lookup(vpns[1]) is None  # the true oldest was evicted


def test_l2_reinsert_refreshes_in_place():
    tlb = L2Tlb(1024, 4, "lru", 0)
    vpns = [k * 16 * 256 for k in range(4)]
    for vpn in vpns:
        tlb.insert(vpn, leaf(0x100 + vpn))
    tlb.insert(vpns[0], leaf(0x100 + vpns[0]))
    assert len(tlb) == 4
    tlb.insert(5 * 16 * 256, leaf(0x900))
    assert tlb.lookup(vpns[0]) is not None
    assert tlb.lookup(vpns[1]) is None


def test_l2_mixed_sizes_share_a_set():
    tlb = L2Tlb(1024, 4, "lru", 0)
    # one NAPOT group plus three 4KB pages from other groups, same set
    tlb.insert(0, napot_leaf(0x80010))
    for k in range(1, 4):
        tlb.insert(k * 16 * 256, leaf(0x100 + k))
    assert len(tlb) == 4
    tlb.insert(4 * 16 * 256, leaf(0x500))
    # the NAPOT entry was oldest and lost its whole 64KB of reach
    assert tlb.lookup(0) is None
    assert tlb.lookup(7) is None


def test_l2_flush_clears_whole_set():
    tlb = L2Tlb(1024, 4, "lru", 0)
    tlb.insert(0x0, leaf(0x100))
    tlb.insert(16 * 256, leaf(0x200))  # same set, next index wrap
    tlb.insert(16, leaf(0x300))  # set 1
    tlb.flush(0x0)  # va 0 indexes set 0
    assert tlb.lookup(0x0) is None
    assert tlb.lookup(16 * 256) is None
    assert tlb.lookup(16) == 0x300


def test_l2_flush_uses_va_not_vpn():
    tlb = L2Tlb(1024, 4, "lru", 0)
    tlb.insert(0x10, leaf(0x100))  # vpn 16 -> set 1
    tlb.flush(0x10 << 12)
    assert tlb.lookup(0x10) is None


def test_l2_flush_all():
    # four groups per set, one per way, fill all 256 sets of a 4-way L2
    vpns = [(way * 256 + index) * 16 for way in range(4) for index in range(256)]
    tlb = L2Tlb(1024, 4, "lru", 0)
    for k, vpn in enumerate(vpns):
        tlb.insert(vpn, leaf(0x100 + k))
    full = tlb.dump()
    assert len(tlb) == 1024 and len(full) == 256
    tlb.clear()
    assert len(tlb) == 0
    assert tlb.dump() == {}
    assert all(tlb.lookup(vpn) is None for vpn in vpns)
    tlb.clear()  # idempotent
    for k, vpn in enumerate(vpns):
        tlb.insert(vpn, leaf(0x100 + k))
    assert tlb.dump() == full


def test_l2_allocates_no_set_before_its_first_touch():
    # 65,536 sets, about 9 MB if each were built up front
    tracemalloc.start()
    try:
        L2Tlb(1 << 20, 16, "lru", 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_l2_lookup_misses_make_no_set():
    # one miss in each of 65,536 sets; a set made per miss holds about 12 MB
    tlb = L2Tlb(1 << 20, 16, "lru", 0)
    tracemalloc.start()
    try:
        assert all(tlb.lookup(vpn) is None for vpn in range(0, 1 << 20, 16))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 64 << 10, held
    assert len(tlb) == 0 and tlb.dump() == {}


def test_l2_sixteen_way_reach_with_4k_pages():
    # 1024 consecutive pages fill a 16-way L2 exactly: 64 groups over
    # 64 sets leaves 16 pages per set, one per way
    tlb = L2Tlb(1024, 16, "lru", 0)
    for vpn in range(1024):
        tlb.insert(vpn, leaf(0x1000 + vpn))
    assert len(tlb) == 1024
    for vpn in range(1024):
        assert tlb.lookup(vpn) == 0x1000 + vpn


def test_l2_sixteen_way_reach_with_napot_pages():
    # 1024 NAPOT groups likewise fill it: 16MB of reach
    tlb = L2Tlb(1024, 16, "lru", 0)
    for group in range(1024):
        tlb.insert(group * 16, napot_leaf(0x10000 + group * 16))
    assert len(tlb) == 1024
    for group in range(1024):
        vpn = group * 16 + (group % 16)
        assert tlb.lookup(vpn) == 0x10000 + vpn


def test_l2_four_way_conflict_ceiling():
    # 4-way, 4KB pages: pages 16 groups apart collide; the 17th page of a
    # linear run at stride 16*sets always misses after eviction
    tlb = L2Tlb(1024, 4, "lru", 0)
    stride = 16 * 256
    for vpn in range(0, 8 * stride, stride):
        tlb.insert(vpn, leaf(vpn))
    hits = sum(tlb.lookup(vpn) is not None for vpn in range(0, 8 * stride, stride))
    assert hits == 4


def test_l2_random_replacement_is_seeded():
    ops = [(k * 16 * 256, 0x100 + k) for k in range(32)]
    def run(seed):
        tlb = L2Tlb(1024, 4, "random", seed)
        for vpn, ppn in ops:
            tlb.insert(vpn, leaf(ppn))
        return tlb.dump()
    assert run(1) == run(1)
    assert run(1) != run(2)  # different victims somewhere in 28 evictions


def test_tlbs_take_every_setting_from_their_caller():
    # the defaults are written once, in engine.Hierarchy
    for cls in (L2Tlb, L1Dtlb):
        params = inspect.signature(cls).parameters.values()
        assert all(p.default is p.empty for p in params), cls


def test_l1_hit_and_miss():
    tlb = L1Dtlb(32)
    assert 5 not in tlb.entries
    tlb.insert(5, 0x50)
    assert tlb.entries[5] == 0x50
    assert 6 not in tlb.entries


def test_l1_lru_eviction():
    tlb = L1Dtlb(capacity=32)
    for vpn in range(33):
        tlb.insert(vpn, vpn)
    assert 0 not in tlb.entries
    assert tlb.entries[1] == 1
    assert len(tlb) == 32
    # inserting a resident key into the full L1 makes it the newest and
    # evicts nothing
    tlb.insert(5, 0x55)
    assert list(tlb.entries) == [*range(1, 5), *range(6, 33), 5]
    assert tlb.entries[5] == 0x55


def test_l1_flush_all():
    tlb = L1Dtlb(32)
    tlb.insert(1, 1)
    tlb.clear()
    assert 1 not in tlb.entries
    assert len(tlb) == 0
