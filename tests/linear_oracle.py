"""Closed-form counters of a linear cell, sharing no code with the simulator.

A linear cell's measured phase is its warm-up pass repeated cyclically, and
every structure it meets is true LRU. By Mattson's stack argument, a key
reused cyclically over k keys hits an LRU structure of capacity c iff
k <= c (Mattson, Gecsei, Slutz & Traiger, "Evaluation Techniques for
Storage Hierarchies", IBM Systems Journal 1970). So every counter of a
linear row has a closed form. The rules hold for the default hierarchy
only: a 32-entry L1, a 1024-entry L2 indexed by 64KB group, an 8-entry
walk cache, LRU replacement, no walk-cache flush between the phases, a
1GB-aligned base_va and the default latency.
"""

L1_ENTRIES = 32
L2_ENTRIES = 1024
PTW_CACHE_ENTRIES = 8
PAGES_PER_GROUP = 16
PAGES_PER_SLOT = 512  # the 4KB pages one leaf table maps
# the default latency: an L1 probe, an L2 lookup, a memory read
L1_HIT_CYCLES, L2_LOOKUP_CYCLES, MEM_READ_CYCLES = 1, 3, 30


def ceil_div(a, b):
    return -(-a // b)


def count_pages(n, pages, every):
    """How many of the accesses i in [0, n) fall on a page i mod pages that
    is a multiple of every (a power of two, as pages is)."""
    full, rest = divmod(n, pages)
    return full * len(range(0, pages, every)) + len(range(0, rest, every))


def phase_counters(accesses, l2_hits, walks, reads, l1_hits=0):
    l1_misses = accesses - l1_hits
    return {
        "accesses": accesses,
        "l1_hits": l1_hits,
        "l1_misses": l1_misses,
        "l2_hits": l2_hits,
        "l2_misses": walks,
        "walks": walks,
        "walk_memory_reads": reads,
        "total_cycles": accesses * L1_HIT_CYCLES
        + l1_misses * L2_LOOKUP_CYCLES
        + reads * MEM_READ_CYCLES,
    }


def linear_counters(chunk_bytes, napot, ways, measured):
    """{phase: counters} of a linear cell; napot selects 64KB pages."""
    pages = chunk_bytes // 4096
    sets = L2_ENTRIES // ways
    groups = ceil_div(pages, PAGES_PER_GROUP)
    slots = ceil_div(pages, PAGES_PER_SLOT)
    # warm-up: every access misses the L1; a walk per 64KB group or per
    # page, the rest hit the entry that walk put in the L2. The first walk
    # reads the root, each 2MB slot's first walk its level-1 entry, and
    # every walk its leaf.
    walks = groups if napot else pages
    warmup = phase_counters(pages, pages - walks, walks, walks + slots + 1)
    if pages <= L1_ENTRIES:
        measurement = phase_counters(measured, 0, 0, 0, l1_hits=measured)
    else:
        # more than 32 pages cycle through the L1, so every access misses
        # it; the L2 set a page falls in holds this many keys of the cycle
        keys = ceil_div(groups, sets) * (1 if napot else PAGES_PER_GROUP)
        if keys <= ways:
            walks = reads = 0
        else:
            # a 64KB entry is walked at its group's first page and hit by
            # the other 15; a 4KB entry is walked on every access
            if napot:
                walks = count_pages(measured, pages, PAGES_PER_GROUP)
            else:
                walks = measured
            reads = walks
            # with 8 or more slots and the root's entry, the walk cache
            # misses each slot's first walk, which reads its level-1 entry
            if slots >= PTW_CACHE_ENTRIES:
                reads += count_pages(measured, pages, PAGES_PER_SLOT)
        measurement = phase_counters(measured, measured - walks, walks, reads)
    return {"warmup": warmup, "measurement": measurement}
