"""Trace generation: coverage, determinism, distribution, file round trip."""

import math
import random

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
    with pytest.raises(ValueError):
        WorkloadSpec(KB4, "linear", page_size=8192)
    for pattern in ("linear", "random"):
        with pytest.raises(ValueError, match="^seed must be non-negative"):
            WorkloadSpec(KB4, pattern, seed=-5)


def test_default_measured_accesses():
    assert WorkloadSpec(KB4, "linear").measured_accesses == 1_000_000


def test_linear_trace_layout():
    spec = WorkloadSpec(KB64, "linear", measured_accesses=40)
    trace = gen_trace(spec, BASE)
    assert trace.warmup == [BASE + p * KB4 for p in range(16)]
    # measurement repeats the same pass cyclically
    assert trace.measurement[:16] == trace.warmup
    assert trace.measurement[16:32] == trace.warmup
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
    )
    for text, message in cases:
        path.write_text(text)
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
