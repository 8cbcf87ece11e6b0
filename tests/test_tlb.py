"""L1/L2 TLB behavior: indexing, dual-size matching, replacement, flush.

The indexing oracle recomputes the set index as (vpn // 16) mod sets with
division instead of shifts. NAPOT hit results are checked against the
explicit 16-entry frame table an entry stands for.
"""

import random

import pytest

from napotsim.errors import MalformedNapotError
from napotsim.sv39 import encode_pte, leaf_pte, napot_encode_ppn, table_pte
from napotsim.tlb import L1Dtlb, L2Tlb, l2_index


def index_oracle(vpn, sets):
    return (vpn // 16) % sets


def napot_pte(base_frame):
    return encode_pte(leaf_pte(napot_encode_ppn(base_frame), n_bit=True))


def test_l2_index_known_values():
    assert l2_index(0, 256) == 0
    assert l2_index(0x12345, 256) == 0x34
    assert l2_index(0x12345, 64) == 0x34 % 64
    # the 16 pages of one group share an index; the next group moves on
    assert [l2_index(vpn, 64) for vpn in range(17)] == [0] * 16 + [1]


def test_l2_index_matches_oracle():
    rng = random.Random(3)
    for _ in range(500):
        vpn = rng.getrandbits(27)
        for sets in (64, 256):
            assert l2_index(vpn, sets) == index_oracle(vpn, sets)


def test_l2_index_group_invariance():
    rng = random.Random(5)
    for _ in range(200):
        group = rng.getrandbits(23) << 4
        indices = {l2_index(group | k, 256) for k in range(16)}
        assert len(indices) == 1


def test_l2_geometry_validation():
    L2Tlb(1024, 4)
    L2Tlb(1024, 16)
    with pytest.raises(ValueError):
        L2Tlb(1024, 3)
    with pytest.raises(ValueError):
        L2Tlb(0, 4)
    with pytest.raises(ValueError):
        L2Tlb(96, 2)  # 48 sets, not a power of two
    with pytest.raises(ValueError):
        L2Tlb(1024, 4, replacement="fifo")


def test_l2_miss_on_empty():
    tlb = L2Tlb()
    assert tlb.lookup(0x1234) is None
    assert tlb.occupancy() == 0


def test_l2_4k_entry_exact_match():
    tlb = L2Tlb()
    assert tlb.insert(0x1230, encode_pte(leaf_pte(0x200))) == 0x200
    assert tlb.lookup(0x1230) == 0x200
    # same group, different page: a 4KB entry does not cover neighbors
    assert tlb.lookup(0x1231) is None
    assert tlb.occupancy() == 1


def test_l2_napot_entry_covers_group():
    tlb = L2Tlb()
    # insert hands back the translation of the VPN it was given
    assert tlb.insert(0x1235, napot_pte(0x80010)) == 0x80015
    frames = {k: 0x80010 + k for k in range(16)}
    for k in range(16):
        assert tlb.lookup(0x1230 | k) == frames[k]
    assert tlb.lookup(0x1240) is None  # next group
    assert tlb.occupancy() == 1


def test_l2_4k_entry_wins_before_napot_probe():
    tlb = L2Tlb()
    tlb.insert(0x1230, napot_pte(0x80010))
    tlb.insert(0x1231, encode_pte(leaf_pte(0x999)))
    assert tlb.lookup(0x1231) == 0x999
    assert tlb.lookup(0x1232) == 0x80012


def test_l2_insert_rejects_bad_entries():
    tlb = L2Tlb()
    with pytest.raises(MalformedNapotError):
        tlb.insert(0x1230, encode_pte(leaf_pte(0x80011, n_bit=True)))
    with pytest.raises(ValueError):
        tlb.insert(0x1230, encode_pte(table_pte(0x10, 1)))


def test_l2_lru_eviction_within_set():
    tlb = L2Tlb(1024, 4)  # 256 sets
    # five 4KB pages in five different groups, all landing in set 0
    vpns = [k * 16 * 256 for k in range(5)]
    for vpn in vpns:
        tlb.insert(vpn, encode_pte(leaf_pte(0x100 + vpn)))
    assert tlb.lookup(vpns[0]) is None
    for vpn in vpns[1:]:
        assert tlb.lookup(vpn) == 0x100 + vpn
    assert tlb.occupancy() == 4


def test_l2_lookup_refreshes_lru():
    tlb = L2Tlb(1024, 4)
    vpns = [k * 16 * 256 for k in range(4)]
    for vpn in vpns:
        tlb.insert(vpn, encode_pte(leaf_pte(0x100 + vpn)))
    assert tlb.lookup(vpns[0]) is not None  # oldest becomes most recent
    tlb.insert(5 * 16 * 256, encode_pte(leaf_pte(0x900)))
    assert tlb.lookup(vpns[0]) is not None
    assert tlb.lookup(vpns[1]) is None  # the true oldest was evicted


def test_l2_reinsert_refreshes_in_place():
    tlb = L2Tlb(1024, 4)
    vpns = [k * 16 * 256 for k in range(4)]
    for vpn in vpns:
        tlb.insert(vpn, encode_pte(leaf_pte(0x100 + vpn)))
    tlb.insert(vpns[0], encode_pte(leaf_pte(0x100 + vpns[0])))
    assert tlb.occupancy() == 4
    tlb.insert(5 * 16 * 256, encode_pte(leaf_pte(0x900)))
    assert tlb.lookup(vpns[0]) is not None
    assert tlb.lookup(vpns[1]) is None


def test_l2_mixed_sizes_share_a_set():
    tlb = L2Tlb(1024, 4)
    # one NAPOT group plus three 4KB pages from other groups, same set
    tlb.insert(0, napot_pte(0x80010))
    for k in range(1, 4):
        tlb.insert(k * 16 * 256, encode_pte(leaf_pte(0x100 + k)))
    assert tlb.occupancy() == 4
    tlb.insert(4 * 16 * 256, encode_pte(leaf_pte(0x500)))
    # the NAPOT entry was oldest and lost its whole 64KB of reach
    assert tlb.lookup(0) is None
    assert tlb.lookup(7) is None


def test_l2_flush_clears_whole_set():
    tlb = L2Tlb(1024, 4)
    tlb.insert(0x0, encode_pte(leaf_pte(0x100)))
    tlb.insert(16 * 256, encode_pte(leaf_pte(0x200)))  # same set, next index wrap
    tlb.insert(16, encode_pte(leaf_pte(0x300)))  # set 1
    tlb.flush(0x0)  # va 0 indexes set 0
    assert tlb.lookup(0x0) is None
    assert tlb.lookup(16 * 256) is None
    assert tlb.lookup(16) == 0x300


def test_l2_flush_uses_va_not_vpn():
    tlb = L2Tlb(1024, 4)
    tlb.insert(0x10, encode_pte(leaf_pte(0x100)))  # vpn 16 -> set 1
    tlb.flush(0x10 << 12)
    assert tlb.lookup(0x10) is None


def test_l2_flush_all():
    tlb = L2Tlb(1024, 4)
    for k in range(64):
        tlb.insert(k * 16, encode_pte(leaf_pte(0x100 + k)))
    tlb.flush_all()
    assert tlb.occupancy() == 0
    tlb.flush_all()  # idempotent


def test_l2_sixteen_way_reach_with_4k_pages():
    # 1024 consecutive pages fill a 16-way L2 exactly: 64 groups over
    # 64 sets leaves 16 pages per set, one per way
    tlb = L2Tlb(1024, 16)
    for vpn in range(1024):
        tlb.insert(vpn, encode_pte(leaf_pte(0x1000 + vpn)))
    assert tlb.occupancy() == 1024
    for vpn in range(1024):
        assert tlb.lookup(vpn) == 0x1000 + vpn


def test_l2_sixteen_way_reach_with_napot_pages():
    # 1024 NAPOT groups likewise fill it: 16MB of reach
    tlb = L2Tlb(1024, 16)
    for group in range(1024):
        tlb.insert(group * 16, napot_pte(0x10000 + group * 16))
    assert tlb.occupancy() == 1024
    for group in range(1024):
        vpn = group * 16 + (group % 16)
        assert tlb.lookup(vpn) == 0x10000 + vpn


def test_l2_four_way_conflict_ceiling():
    # 4-way, 4KB pages: pages 16 groups apart collide; the 17th page of a
    # linear run at stride 16*sets always misses after eviction
    tlb = L2Tlb(1024, 4)
    stride = 16 * 256
    for vpn in range(0, 8 * stride, stride):
        tlb.insert(vpn, encode_pte(leaf_pte(vpn)))
    hits = sum(tlb.lookup(vpn) is not None for vpn in range(0, 8 * stride, stride))
    assert hits == 4


def test_l2_random_replacement_is_seeded():
    ops = [(k * 16 * 256, 0x100 + k) for k in range(32)]
    def run(seed):
        tlb = L2Tlb(1024, 4, replacement="random", seed=seed)
        for vpn, ppn in ops:
            tlb.insert(vpn, encode_pte(leaf_pte(ppn)))
        return tlb.dump()
    assert run(1) == run(1)
    assert run(1) != run(2)  # different victims somewhere in 28 evictions


def test_l1_hit_and_miss():
    tlb = L1Dtlb()
    assert tlb.lookup(5) is None
    tlb.insert(5, 0x50)
    assert tlb.lookup(5) == 0x50
    assert tlb.lookup(6) is None


def test_l1_lru_eviction():
    tlb = L1Dtlb(capacity=32)
    for vpn in range(33):
        tlb.insert(vpn, vpn)
    assert tlb.lookup(0) is None
    assert tlb.lookup(1) == 1
    assert len(tlb) == 32


def test_l1_lookup_refreshes_lru():
    tlb = L1Dtlb(capacity=4)
    for vpn in range(4):
        tlb.insert(vpn, vpn)
    tlb.lookup(0)
    tlb.insert(9, 9)
    assert tlb.lookup(0) is not None
    assert tlb.lookup(1) is None


def test_l1_flush_all():
    tlb = L1Dtlb()
    tlb.insert(1, 1)
    tlb.flush_all()
    assert tlb.lookup(1) is None
    assert len(tlb) == 0
