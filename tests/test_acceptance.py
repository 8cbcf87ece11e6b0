"""End-to-end acceptance checks over the default experiment grid.

Each test prints one PASS/FAIL line (run with -s to see them on success).
The grid fixture runs the full default sweep once, through a two-worker
pool; every grid check reads its rows. Check 10 pins the bytes of that
sweep's CSV by two sha256 digests, so no change can move a counter of the
product table unnoticed. Serial and pooled sweeps wrote the same bytes
when the digests were pinned; test_sweep and test_cli still compare the
two paths directly at small scale.

A change that means to alter the table is a bug fix and says so. It runs
the CLI on the default grid,

    napotsim run --jobs 2 --out grid.csv
    napotsim run --jobs 2 --include-warmup --out all.csv

names the bug it fixes, and replaces MEASUREMENT_SHA256 and ALL_ROWS_SHA256
below with the sha256 of grid.csv and all.csv.

Numbered checks:
 1. L1 reach: config 2 linear serves every measured access from L1 up to
    the 128KB mark (32 entries x 4KB).
 2. 16-way 4KB reach: config 2 sees zero measured L2 misses through 4MB
    (1024 entries) and misses at 8MB, linear and random.
 3. 64KB reach: config 4 random sees zero L2 misses through 64MB and
    misses at 128MB; the zero-miss boundary sits 16x past config 2's.
 4. 4-way thrashing: config 1 linear never hits L2 from 128KB up (16-page
    index groups overwhelm 4 ways under LRU wrap); through 4MB, where
    config 2 still has reach, its miss count is >= 100x config 2's, and
    past 128KB every measured access misses.
 5. Walk savings: the cold first pass over any chunk of 64KB or more takes
    exactly 16x fewer walks with 64KB pages than with 4KB pages.
 6. Cycle ordering: config 4 never costs more cycles than config 2 at the
    same grid point and costs strictly less past 4MB.
 7. Oracle equivalence: translated addresses match the closed-form region
    mapping on 10,000 random draws across page sizes and all three paths.
 8. NAPOT differential: one 64KB entry translates identically to 16
    discrete 4KB entries for 1,000 random frames, all offsets.
 9. Flush semantics: flushing a set empties exactly the 16-VPN group's set
    and leaves every other set untouched, over 1,000 random TLB states.
10. Determinism: the default sweep's CSV has the pinned sha256, both the
    measurement rows as napotsim run writes them and every row with the
    warm-up.
11. Linear closed form: every linear row, warm-up and measurement, equals
    the closed form of tests/linear_oracle.py, which shares no code with
    the simulator.
"""

import hashlib
import random

import pytest

from linear_oracle import linear_counters
from napotsim.engine import L1_HIT, L2_HIT, MEASUREMENT, WALK, Simulation
from napotsim.pagetable import RegionSpec
from napotsim.sv39 import PageSize
from napotsim.sweep import ExperimentConfig, emit_csv, run_sweep
from napotsim.tlb import L2Tlb
from ptes import leaf, napot_leaf

KB = 1 << 10
MB = 1 << 20

# sha256 of the default grid's CSV: the measurement rows, which is what
# napotsim run writes, and every row with the warm-up (--include-warmup)
MEASUREMENT_SHA256 = "fc30172a7b15a960af2fff3556b5390dfe4b22599bd14fedfbba95a3f97026b8"
ALL_ROWS_SHA256 = "810759288b45b15b26dc8cb31ef54d0436637254778172616f21cc5e5f302b0d"


@pytest.fixture(scope="module")
def grid():
    config = ExperimentConfig()
    rows = run_sweep(config, jobs=2)
    index = {(r.config_id, r.pattern, r.chunk_bytes, r.phase): r for r in rows}
    return config, rows, index


def report(num, name, problems):
    status = "FAIL" if problems else "PASS"
    print(f"ACCEPTANCE {num:02d} {name:<34s} {status}")
    assert not problems, problems


def measurement(index, cid, pattern, chunk):
    return index[(cid, pattern, chunk, "measurement")]


def warmup(index, cid, pattern, chunk):
    return index[(cid, pattern, chunk, "warmup")]


def test_01_l1_reach(grid):
    config, _, index = grid
    problems = []
    for chunk in config.chunk_sizes():
        if chunk > 128 * KB:
            continue
        row = measurement(index, 2, "linear", chunk)
        if row.l1_hits != row.accesses:
            problems.append(
                f"{chunk}: {row.l1_hits} L1 hits of {row.accesses} accesses"
            )
    report(1, "L1 covers chunks through 128KB", problems)


def test_02_16way_4k_reach(grid):
    config, _, index = grid
    problems = []
    for pattern in ("linear", "random"):
        for chunk in config.chunk_sizes():
            misses = measurement(index, 2, pattern, chunk).l2_misses
            if chunk <= 4 * MB and misses != 0:
                problems.append(f"{pattern} {chunk}: {misses} misses inside reach")
            if chunk == 8 * MB and misses == 0:
                problems.append(f"{pattern} 8MB: no misses past reach")
    report(2, "4KB entries reach 4MB, not 8MB", problems)


def test_03_64k_reach_is_16x(grid):
    config, _, index = grid
    problems = []
    for chunk in config.chunk_sizes():
        misses = measurement(index, 4, "random", chunk).l2_misses
        if chunk <= 64 * MB and misses != 0:
            problems.append(f"{chunk}: {misses} misses inside reach")
        if chunk == 128 * MB and misses == 0:
            problems.append("128MB: no misses past reach")

    def zero_miss_boundary(cid):
        return max(
            chunk
            for chunk in config.chunk_sizes()
            if measurement(index, cid, "random", chunk).l2_misses == 0
        )

    ratio = zero_miss_boundary(4) / zero_miss_boundary(2)
    if ratio != 16:
        problems.append(f"reach ratio {ratio} != 16")
    report(3, "64KB entries reach 64MB (16x)", problems)


def test_04_4way_thrashing_cliff(grid):
    config, _, index = grid
    problems = []
    for chunk in config.chunk_sizes():
        if chunk < 128 * KB:
            continue
        row = measurement(index, 1, "linear", chunk)
        if row.l2_hits != 0:
            problems.append(f"{chunk}: {row.l2_hits} L2 hits while thrashed")
        if chunk > 128 * KB and row.l2_misses != row.accesses:
            problems.append(f"{chunk}: {row.l2_misses} misses, expected all")
        # the 100x comparison is meaningful while config 2 still has
        # reach; past 4MB both configurations miss on every access
        if chunk <= 4 * MB:
            other = measurement(index, 2, "linear", chunk).l2_misses
            if row.l2_misses < 100 * other:
                problems.append(
                    f"{chunk}: {row.l2_misses} not >= 100x {other}"
                )
    report(4, "4-way config thrashes past 128KB", problems)


def test_05_walk_savings_16x(grid):
    config, _, index = grid
    problems = []
    for small, large in ((1, 3), (2, 4)):
        for chunk in config.chunk_sizes():
            if chunk < 64 * KB:
                continue
            walks_4k = warmup(index, small, "linear", chunk).walks
            walks_64k = warmup(index, large, "linear", chunk).walks
            if walks_4k != 16 * walks_64k:
                problems.append(
                    f"cfg {small}/{large} {chunk}: {walks_4k} vs {walks_64k}"
                )
            if walks_4k != chunk // 4096:
                problems.append(f"cfg {small} {chunk}: {walks_4k} cold walks")
    report(5, "cold pass walks 16x fewer at 64KB", problems)


def test_06_cycle_ordering(grid):
    config, _, index = grid
    problems = []
    for pattern in ("linear", "random"):
        for chunk in config.chunk_sizes():
            hi = measurement(index, 2, pattern, chunk).total_cycles
            lo = measurement(index, 4, pattern, chunk).total_cycles
            if lo > hi:
                problems.append(f"{pattern} {chunk}: {lo} > {hi}")
            if chunk > 4 * MB and lo >= hi:
                problems.append(f"{pattern} {chunk}: {lo} not < {hi}")
    report(6, "64KB config never costs more cycles", problems)


def test_07_oracle_equivalence():
    rng = random.Random(2024)
    problems = []
    paths = {L1_HIT: 0, L2_HIT: 0, WALK: 0}
    sizes_seen = set()
    draws = 0
    while draws < 10_000:
        # one random region set: disjoint mappings of both page sizes
        regions = []
        va = 0x4000_0000 + (rng.randrange(64) << 16)
        ppn = 0x10_0000
        for _ in range(rng.randrange(1, 4)):
            page_size = rng.choice((PageSize.PAGE_4K, PageSize.PAGE_64K))
            pages = rng.randrange(1, 5) * (page_size // 4096)
            regions.append(RegionSpec(va, pages << 12, page_size, ppn))
            sizes_seen.add(page_size)
            # keep the next slot 64KB/group aligned for either page size
            va = ((va + (pages << 12)) + 0xFFFF & ~0xFFFF) + (rng.randrange(2) << 16)
            ppn = (ppn + pages + 15) & ~0xF
        sim = Simulation(regions, ways=rng.choice((4, 16)))
        for _ in range(rng.randrange(100, 300)):
            if draws >= 10_000:
                break
            region = rng.choice(regions)
            offset = rng.randrange(region.length)
            target = region.base_va + offset
            expected = (region.base_ppn << 12) + offset
            out = sim.translate(target)
            paths[out.path] += 1
            draws += 1
            if out.pa != expected:
                problems.append(f"va {target:#x}: {out.pa:#x} != {expected:#x}")
                break
            if rng.random() < 0.02:
                sim.l1.clear()
    if sizes_seen != {PageSize.PAGE_4K, PageSize.PAGE_64K}:
        problems.append("both page sizes were not exercised")
    for path, count in paths.items():
        if count == 0:
            problems.append(f"path {path} never taken")
    report(7, "10k draws match the region oracle", problems)


def test_08_napot_differential():
    rng = random.Random(4096)
    problems = []
    napot_tlb = L2Tlb(1024, 16)
    discrete_tlb = L2Tlb(1024, 16)
    for _ in range(1000):
        base_frame = rng.getrandbits(40) & ~0xF
        group_vpn = rng.getrandbits(27) & ~0xF
        napot_tlb.clear()
        discrete_tlb.clear()
        napot_tlb.insert(group_vpn | rng.randrange(16), napot_leaf(base_frame))
        for k in range(16):
            discrete_tlb.insert(group_vpn | k, leaf(base_frame + k))
        for k in range(16):
            via_napot = napot_tlb.lookup(group_vpn | k)
            via_discrete = discrete_tlb.lookup(group_vpn | k)
            if via_napot != via_discrete or via_napot is None:
                problems.append(
                    f"group {group_vpn:#x} offset {k}: "
                    f"{via_napot} != {via_discrete}"
                )
        if problems:
            break
    report(8, "NAPOT entry == 16 discrete entries", problems)


def test_09_flush_semantics():
    rng = random.Random(64)
    problems = []
    for _ in range(1000):
        ways = rng.choice((4, 16))
        tlb = L2Tlb(1024, ways)
        for _ in range(rng.randrange(1, 200)):
            vpn = rng.getrandbits(27)
            if rng.random() < 0.3:
                tlb.insert(vpn, napot_leaf(rng.getrandbits(40) & ~0xF))
            else:
                tlb.insert(vpn, leaf(rng.getrandbits(44)))
        va = rng.getrandbits(38)
        vpn = va >> 12
        flushed_set = (vpn // 16) % tlb.sets  # the set index, by division
        before = tlb.dump()
        tlb.flush(va)
        group = vpn & ~0xF
        if any(tlb.lookup(group | k) is not None for k in range(16)):
            problems.append(f"va {va:#x}: group survived its flush")
            break
        after = tlb.dump()
        expected = {k: v for k, v in before.items() if k != flushed_set}
        if after != expected:
            problems.append(f"va {va:#x}: flush touched other sets")
            break
    report(9, "flush empties exactly one set", problems)


def test_10_determinism(grid, tmp_path):
    _, rows, _ = grid
    path = tmp_path / "grid.csv"
    problems = []
    for name, subset, want in (
        ("measurement rows", [r for r in rows if r.phase == MEASUREMENT],
         MEASUREMENT_SHA256),
        ("all rows", rows, ALL_ROWS_SHA256),
    ):
        emit_csv(subset, path)
        got = hashlib.sha256(path.read_bytes()).hexdigest()
        if got != want:
            problems.append(f"{name}: sha256 {got} != {want}")
    report(10, "default grid CSV has pinned bytes", problems)


def test_11_linear_closed_form(grid):
    config, rows, _ = grid
    by_id = {c.config_id: c for c in config.configs}
    problems = []
    checked = 0
    for row in rows:
        if row.pattern != "linear":
            continue
        tlb = by_id[row.config_id]
        want = linear_counters(
            row.chunk_bytes, tlb.page_size == PageSize.PAGE_64K, tlb.ways,
            config.measured_accesses,
        )[row.phase]
        got = {name: getattr(row, name) for name in want}
        if got != want:
            problems.append(f"cfg {row.config_id} {row.chunk_bytes} {row.phase}")
        checked += 1
    if checked != 136:
        problems.append(f"{checked} linear rows, expected 136")
    report(11, "linear rows match the closed form", problems)
