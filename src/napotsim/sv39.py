"""sv39 address constants and PTE rules, including the SVNAPOT 64KB form.

Addresses are plain ints. A virtual address is canonical when bits 63:39
replicate bit 38. The 27-bit VPN sits at bits 38:12 and splits into three
9-bit per-level indices. SVNAPOT marks a level-0 leaf (PTE bit 63) whose
PPN low nibble must be 0b1000; such an entry stands for an aligned group
of 16 contiguous 4KB frames and the low nibble of the translated PPN is
taken from the VA instead of the entry.
"""

from dataclasses import dataclass

from .errors import CanonicalityError, MalformedNapotError

PAGE_SHIFT = 12
PAGE_BYTES = 1 << PAGE_SHIFT
OFFSET_MASK = PAGE_BYTES - 1

VPN_BITS = 27
VPN_MASK = (1 << VPN_BITS) - 1
LEVEL_BITS = 9
LEVEL_MASK = (1 << LEVEL_BITS) - 1

PPN_BITS = 44
PPN_MASK = (1 << PPN_BITS) - 1

# 64KB NAPOT group: 2**4 base pages, marked by the 0b1000 PPN nibble.
NAPOT_SHIFT = 4
NAPOT_PAGES = 1 << NAPOT_SHIFT
NAPOT_OFFSET_MASK = NAPOT_PAGES - 1
NAPOT_PPN_PATTERN = 0b1000

PTE_V = 1 << 0
PTE_R = 1 << 1
PTE_W = 1 << 2
PTE_X = 1 << 3
# any of R/W/X marks a leaf; shifted down by one they are the perm bits
PTE_RWX = PTE_R | PTE_W | PTE_X
PTE_PPN_SHIFT = 10
PTE_N = 1 << 63

# bits 63:38 of a canonical address are all zero or all one
CANONICAL_HIGH = (1 << (64 - 38)) - 1


class PageSize:
    """The two page sizes the simulator maps: plain 4KB and NAPOT 64KB."""

    PAGE_4K = PAGE_BYTES
    PAGE_64K = PAGE_BYTES * NAPOT_PAGES

    ALL = (PAGE_4K, PAGE_64K)


def check_canonical(va):
    high = va >> 38
    if high != 0 and high != CANONICAL_HIGH:
        raise CanonicalityError(f"va {va:#x} is not a canonical sv39 address")


def napot_translate(entry_ppn, napot_offset):
    """Resolve the 4KB frame a 64KB NAPOT leaf maps for one of its 16 pages.

    The entry's upper PPN bits select the frame group; its low nibble is the
    fixed 0b1000 marker and gets replaced by the VA's NAPOT offset:
    frame = (entry_ppn >> 4) * 16 + napot_offset.
    """
    if entry_ppn & NAPOT_OFFSET_MASK != NAPOT_PPN_PATTERN:
        raise MalformedNapotError(
            f"ppn {entry_ppn:#x} low nibble is not the 64KB NAPOT pattern"
        )
    if napot_offset < 0 or napot_offset >= NAPOT_PAGES:
        raise ValueError(f"napot offset {napot_offset} out of range")
    return ((entry_ppn >> NAPOT_SHIFT) << NAPOT_SHIFT) | napot_offset


@dataclass
class PageTableEntry:
    valid: bool
    readable: bool
    writable: bool
    executable: bool
    ppn: int
    n_bit: bool
    level: int = 0

    @property
    def is_leaf(self):
        return self.readable or self.writable or self.executable


def check_napot_shape(raw, level=0):
    """Raise MalformedNapotError unless a valid N=1 PTE is a level-0 64KB leaf."""
    if raw & PTE_N and raw & PTE_V:
        if level != 0 or not raw & PTE_RWX:
            raise MalformedNapotError(
                f"N bit set on a non-leaf or level-{level} entry"
            )
        ppn = (raw >> PTE_PPN_SHIFT) & PPN_MASK
        if ppn & NAPOT_OFFSET_MASK != NAPOT_PPN_PATTERN:
            raise MalformedNapotError(
                f"N bit set but ppn {ppn:#x} lacks the 64KB pattern"
            )


def decode_pte(raw, level=0):
    """Decode a raw 64-bit PTE found at the given tree level, for inspection
    only: the simulator works on raw words. Raises what check_napot_shape
    raises; an invalid entry (V=0) decodes without further checks."""
    check_napot_shape(raw, level)
    return PageTableEntry(
        bool(raw & PTE_V),
        bool(raw & PTE_R),
        bool(raw & PTE_W),
        bool(raw & PTE_X),
        (raw >> PTE_PPN_SHIFT) & PPN_MASK,
        bool(raw & PTE_N),
        level,
    )
