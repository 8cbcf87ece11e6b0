"""Trace generation: coverage, determinism, distribution, memory shape,
file round trip."""

import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from napotsim.errors import AlignmentError
from napotsim.sv39 import PageSize
from napotsim.workloads import (
    AccessTrace,
    WorkloadSpec,
    gen_trace,
    make_regions,
    read_trace,
    write_trace,
)

BASE = 0x4000_0000
KB4 = 4 << 10
KB64 = 64 << 10


def test_spec_validation():
    WorkloadSpec(KB4, "linear")
    WorkloadSpec(256 << 20, "random")
    with pytest.raises(ValueError):
        WorkloadSpec(KB4, "strided")
    with pytest.raises(ValueError):
        WorkloadSpec(KB4 * 3, "linear")  # not a power of two
    with pytest.raises(ValueError):
        WorkloadSpec(2 << 10, "linear")  # below 4KB
    with pytest.raises(ValueError):
        WorkloadSpec(512 << 20, "linear")  # above 256MB
    # the page size is RegionSpec's rule, met where make_regions builds one
    for page_size in (8192, 0):
        spec = WorkloadSpec(KB4, "linear", page_size=page_size)
        with pytest.raises(ValueError, match=f"unsupported page size {page_size}$"):
            make_regions(spec, BASE, 0x1000)
    for pattern in ("linear", "random"):
        with pytest.raises(ValueError, match="^seed must be non-negative"):
            WorkloadSpec(KB4, pattern, seed=-5)


def test_default_measured_accesses():
    assert WorkloadSpec(KB4, "linear").measured_accesses == 1_000_000


def test_linear_trace_layout():
    spec = WorkloadSpec(KB64, "linear", measured_accesses=40)
    trace = gen_trace(spec, BASE)
    assert list(trace.warmup) == [BASE + p * KB4 for p in range(16)]
    # measurement repeats the same pass cyclically
    assert trace.measurement[:16] == list(trace.warmup)
    assert trace.measurement[16:32] == list(trace.warmup)
    assert len(trace.measurement) == 40


def test_linear_default_length():
    trace = gen_trace(WorkloadSpec(KB64, "linear"), BASE)
    assert len(trace.measurement) == 1_000_000


def test_warmup_touches_every_page_once():
    for pattern in ("linear", "random"):
        spec = WorkloadSpec(1 << 20, pattern, measured_accesses=10)
        trace = gen_trace(spec, BASE)
        assert sorted(trace.warmup) == [BASE + p * KB4 for p in range(256)]
        assert len(set(trace.warmup)) == 256


def test_random_trace_bounds_and_alignment():
    rng = random.Random(83)
    for _ in range(10):
        chunk = KB4 << rng.randrange(10)
        spec = WorkloadSpec(chunk, "random", seed=rng.randrange(1000),
                            measured_accesses=500)
        trace = gen_trace(spec, BASE)
        assert len(trace.measurement) == 500
        for va in trace.measurement:
            assert BASE <= va < BASE + chunk
            assert va % KB4 == 0


def test_random_trace_seeded_reproducible():
    spec = WorkloadSpec(1 << 20, "random", seed=5, measured_accesses=1000)
    assert gen_trace(spec, BASE).measurement == gen_trace(spec, BASE).measurement
    other = WorkloadSpec(1 << 20, "random", seed=6, measured_accesses=1000)
    assert gen_trace(spec, BASE).measurement != gen_trace(other, BASE).measurement


def test_random_trace_single_page_chunk():
    spec = WorkloadSpec(KB4, "random", measured_accesses=50)
    trace = gen_trace(spec, BASE)
    assert trace.measurement == [BASE] * 50


def test_random_trace_is_roughly_uniform():
    # binomial bound: 1M draws over 256 pages, each page expects
    # 3906 +- 5 sigma with sigma = sqrt(n*p*(1-p)) ~ 62; the fixed seed
    # lands around 3 sigma, so this never flakes
    spec = WorkloadSpec(1 << 20, "random", seed=0)
    trace = gen_trace(spec, BASE)
    pages = (np.array(trace.measurement, dtype=np.uint64) - BASE) >> 12
    counts = np.bincount(pages.astype(np.int64), minlength=256)
    n, p = spec.measured_accesses, 1 / 256
    sigma = math.sqrt(n * p * (1 - p))
    assert counts.min() > n * p - 5 * sigma
    assert counts.max() < n * p + 5 * sigma
    assert counts.sum() == n


# (pattern, chunk, seed, accesses, base, first VA, last VA, digest); the
# digest is sha256 over the measured phase's hex VAs joined by newlines.
# These pin the Philox draw and the page-to-VA step: a change to either
# changes every random row of every CSV.
HIGH = 0xffff_ffc0_0000_0000
GOLDEN_TRACES = [
    ("random", 8 << 20, 0, 3000, BASE, 0x4011_5000, 0x4008_5000, "d328fe8f0f2f0d07"),
    ("random", 8 << 20, 7, 3000, BASE, 0x4022_6000, 0x4057_d000, "e8134fbb6b5644c7"),
    ("linear", 1 << 20, 0, 1000, BASE, 0x4000_0000, 0x400e_7000, "ecc77ad9c828930e"),
    ("random", KB4, 5, 100, BASE, 0x4000_0000, 0x4000_0000, "9bbc2bedadd58f15"),
    ("random", 8 << 20, 0, 3000, HIGH, HIGH + 0x11_5000, HIGH + 0x8_5000, "6e762bda907dae6e"),
    ("random", 8 << 20, 7, 3000, HIGH, HIGH + 0x22_6000, HIGH + 0x57_d000, "a6f0795d2a9a1d19"),
    ("linear", 1 << 20, 0, 1000, HIGH, HIGH, HIGH + 0xe_7000, "8b13e08bc8cf0c80"),
    ("random", KB4, 5, 100, HIGH, HIGH, HIGH, "d1ac0e51e848c368"),
]


@pytest.mark.parametrize(
    "pattern,chunk,seed,accesses,base,first,last,digest", GOLDEN_TRACES
)
def test_gen_trace_golden(pattern, chunk, seed, accesses, base, first, last, digest):
    spec = WorkloadSpec(chunk, pattern, seed=seed, measured_accesses=accesses)
    trace = gen_trace(spec, base)
    assert list(trace.warmup) == [base + p * KB4 for p in range(spec.num_pages)]
    m = trace.measurement
    assert (len(m), m[0], m[-1]) == (accesses, first, last)
    text = "\n".join(map(hex, m)).encode()
    assert hashlib.sha256(text).hexdigest()[:16] == digest


def test_trace_holds_one_int_per_page():
    for pattern in ("linear", "random"):
        spec = WorkloadSpec(1 << 20, pattern, seed=2, measured_accesses=5000)
        trace = gen_trace(spec, BASE)
        assert len({id(va) for va in trace.measurement}) <= spec.num_pages
        # the engine reads the phase's length, first access and reverse order
        warmup = trace.warmup
        assert len(warmup) == spec.num_pages
        assert (warmup[0], warmup[-1]) == (BASE, BASE + (1 << 20) - KB4)
        assert list(reversed(warmup)) == list(warmup)[::-1]


def test_random_trace_memory_bound():
    # a 256MB chunk has 65536 pages; one int per access held about 43 MB
    # after the build and peaked near 59 MB while it ran
    spec = WorkloadSpec(256 << 20, "random", seed=0)
    tracemalloc.start()
    try:
        trace = gen_trace(spec, BASE)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.measurement) == 1_000_000
    assert held < 16e6
    assert peak < 32e6


def test_gen_trace_dispatch_and_pattern_check():
    assert gen_trace(WorkloadSpec(KB4, "linear", measured_accesses=1), BASE).measurement == [BASE]


def test_make_regions_4k():
    spec = WorkloadSpec(128 << 10, "linear", PageSize.PAGE_4K)
    (region,) = make_regions(spec, BASE, 0x1000)
    assert region.length == 128 << 10
    assert region.page_size == PageSize.PAGE_4K
    assert region.num_pages == 32


def test_make_regions_64k():
    spec = WorkloadSpec(128 << 10, "linear", PageSize.PAGE_64K)
    (region,) = make_regions(spec, BASE, 0x1000)
    assert region.length == 128 << 10
    assert region.page_size == PageSize.PAGE_64K


def test_make_regions_rounds_small_chunks_up_to_one_64k_page():
    for chunk in (KB4, 8 << 10, 32 << 10):
        spec = WorkloadSpec(chunk, "linear", PageSize.PAGE_64K)
        (region,) = make_regions(spec, BASE, 0x1000)
        assert region.length == KB64


def test_make_regions_alignment_errors():
    spec = WorkloadSpec(KB64, "linear", PageSize.PAGE_64K)
    with pytest.raises(AlignmentError):
        make_regions(spec, BASE + KB4, 0x1000)
    with pytest.raises(AlignmentError):
        make_regions(spec, BASE, 0x1001)


def test_trace_file_round_trip(tmp_path):
    trace = AccessTrace([BASE, BASE + KB4], [BASE + 2 * KB4, BASE, BASE])
    path = tmp_path / "trace.txt"
    write_trace(trace, path)
    text = path.read_text()
    assert text == (
        "# phase: warmup\n"
        "0x40000000\n"
        "0x40001000\n"
        "# phase: measurement\n"
        "0x40002000\n"
        "0x40000000\n"
        "0x40000000\n"
    )
    back = read_trace(path)
    assert back.warmup == trace.warmup
    assert back.measurement == trace.measurement


def test_read_trace_rejects_stray_lines(tmp_path):
    path = tmp_path / "bad.txt"
    cases = (
        ("0x1000\n", r"line 1: address '0x1000' before any phase marker"),
        ("# note\n\n0x2000\n", r"line 3: address '0x2000' before any"),
        ("# phase: warmup\n0x1000\nzz\n", r"line 3: 'zz' is not a hex address"),
        ("# phase: warmup\n# phase: cooldown\n", r"line 2: unknown phase 'cooldown'"),
        ("# phase: warmup\n-0x1000\n",
         r"line 2: '-0x1000' is not a canonical sv39 address"),
        ("# phase: measurement\n0x10000000000000000\n",
         r"line 2: '0x10000000000000000' is not a canonical sv39 address"),
        # bit 38 set with bits 63:39 clear: inside 64 bits, outside sv39
        ("# phase: warmup\n0x1000\n0x4000000000\n",
         r"line 3: '0x4000000000' is not a canonical sv39 address"),
        # a line starting with the bytes ff fe, which are not UTF-8
        ("\udcff\udcfe0x1000\n",
         r"line 1: address '\\udcff\\udcfe0x1000' before any phase marker"),
        ("# phase: warmup\n\udcff\udcfe0x1000\n",
         r"line 2: '\\udcff\\udcfe0x1000' is not a hex address"),
    )
    for text, message in cases:
        path.write_text(text, errors="surrogateescape")
        with pytest.raises(ValueError, match=message):
            read_trace(path)


def test_traces_shared_across_page_sizes():
    # the trace depends on (pattern, chunk, seed) only, so hierarchies
    # backed by different page sizes see the same workload
    a = WorkloadSpec(1 << 20, "random", PageSize.PAGE_4K, seed=3,
                     measured_accesses=2000)
    b = WorkloadSpec(1 << 20, "random", PageSize.PAGE_64K, seed=3,
                     measured_accesses=2000)
    assert gen_trace(a, BASE).measurement == gen_trace(b, BASE).measurement
