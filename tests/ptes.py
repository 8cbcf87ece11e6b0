"""Raw sv39 PTE words for tests, written from the spec's bit positions.

V is bit 0, R/W/X are bits 1-3, the PPN is bits 53:10 and the SVNAPOT N
bit is bit 63. Nothing here reads napotsim's constants, so these words are
also an independent oracle of the layout the page-table builder writes.
"""

V = 1 << 0
R = 1 << 1
W = 1 << 2
X = 1 << 3
N = 1 << 63


def leaf(ppn, napot=False, perms=0b011):
    """A valid leaf; perms holds R/W/X as bits 0-2 (default R and W)."""
    return (N if napot else 0) | (ppn << 10) | (perms << 1) | V


def napot_leaf(base_frame):
    """A 64KB leaf over the aligned 16-frame group starting at base_frame."""
    assert base_frame % 16 == 0, f"frame {base_frame:#x} is not 64KB aligned"
    return leaf(base_frame + 0b1000, napot=True)


def pointer(ppn):
    """A valid pointer to the next-level table in frame ppn (R=W=X=0)."""
    return (ppn << 10) | V
