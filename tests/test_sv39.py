"""Canonicality, NAPOT translation and PTE decoding checks.

The oracles here avoid the shift/mask arithmetic under test: PTE words are
built by tests/ptes.py from the spec's bit positions, and the 64KB NAPOT
translation is compared against an explicit table of the 16 page-to-frame
mappings a group represents.
"""

import random

import pytest

from napotsim.errors import CanonicalityError, MalformedNapotError
from napotsim.sv39 import (
    PageTableEntry,
    check_canonical,
    decode_pte,
    napot_translate,
)
from ptes import N, leaf, napot_leaf, pointer


def napot_frame_table(entry_ppn):
    """The 16 page-to-frame mappings one 64KB NAPOT entry stands for."""
    base = (entry_ppn // 16) * 16
    return {k: base + k for k in range(16)}


@pytest.mark.parametrize(
    "va",
    [1 << 38, 1 << 63, 0x8000_0000_0000_0000, 0x0000_4000_0000_0000, -1, 1 << 64],
)
def test_check_canonical_rejects_non_canonical(va):
    with pytest.raises(CanonicalityError):
        check_canonical(va)


def test_is_canonical_boundaries():
    # the hole's first and last addresses fail; the last low-half and the
    # first upper-half ones pass, as do both halves up to the top of the
    # 64-bit range
    with pytest.raises(CanonicalityError):
        check_canonical(0x40_0000_0000)
    with pytest.raises(CanonicalityError):
        check_canonical(0xFFFF_FFBF_FFFF_FFFF)
    for va in (0, 0x3F_FFFF_FFFF, 0xFFFF_FFC0_0000_0000, (1 << 64) - 1):
        check_canonical(va)


def test_napot_translate_known_values():
    table = napot_frame_table(0x80018)
    assert table[0] == 0x80010
    assert napot_translate(0x80018, 0) == 0x80010
    assert napot_translate(0x80018, 5) == 0x80015
    assert napot_translate(0x80018, 15) == 0x8001F


def test_napot_translate_matches_frame_table():
    rng = random.Random(11)
    for _ in range(200):
        base = (rng.getrandbits(40) >> 4) << 4
        entry_ppn = base | 0b1000
        table = napot_frame_table(entry_ppn)
        for offset in range(16):
            assert napot_translate(entry_ppn, offset) == table[offset]


def test_napot_translate_rejects_bad_pattern():
    for nibble in range(16):
        ppn = 0x1230 | nibble
        if nibble == 0b1000:
            napot_translate(ppn, 0)
        else:
            with pytest.raises(MalformedNapotError):
                napot_translate(ppn, 0)


def test_napot_translate_rejects_bad_offset():
    with pytest.raises(ValueError):
        napot_translate(0x18, 16)
    with pytest.raises(ValueError):
        napot_translate(0x18, -1)


def test_encode_decode_round_trip():
    rng = random.Random(23)
    for _ in range(300):
        kind = rng.randrange(3)
        if kind == 0:
            ppn = rng.getrandbits(44)
            perms = rng.getrandbits(2) | 0b100  # X set keeps it a leaf
            word = leaf(ppn, perms=perms)
            level = 0
            entry = PageTableEntry(True, bool(perms & 1), bool(perms & 2), True,
                                   ppn, False, level)
        elif kind == 1:
            base = rng.getrandbits(40) << 4
            word = napot_leaf(base)
            level = 0
            entry = PageTableEntry(True, True, True, False, base | 0b1000, True, level)
        else:
            ppn = rng.getrandbits(44)
            word = pointer(ppn)
            level = rng.choice((1, 2))
            entry = PageTableEntry(True, False, False, False, ppn, False, level)
        assert decode_pte(word, level=level) == entry


def test_decode_invalid_entry():
    entry = decode_pte(0)
    assert not entry.valid
    assert not entry.is_leaf
    # invalid entries decode even with a garbage N bit
    entry = decode_pte(N)
    assert not entry.valid
    assert entry.n_bit


def test_decode_rejects_malformed_napot():
    raw = leaf(0x80017, napot=True)
    with pytest.raises(MalformedNapotError):
        decode_pte(raw, level=0)
    # N on a non-leaf or above level 0 is also malformed
    raw = pointer(0x18) | N
    with pytest.raises(MalformedNapotError):
        decode_pte(raw, level=0)
    raw = leaf(0x18, napot=True, perms=0b001)
    with pytest.raises(MalformedNapotError):
        decode_pte(raw, level=1)


def test_is_leaf_and_perm_bits():
    assert not decode_pte(pointer(5), level=1).is_leaf
    assert decode_pte(leaf(5, perms=0b001)).is_leaf
    entry = decode_pte(leaf(5, perms=0b011))
    assert (entry.readable, entry.writable, entry.executable) == (True, True, False)
    entry = decode_pte(leaf(5, perms=0b100))
    assert (entry.readable, entry.writable, entry.executable) == (False, False, True)
