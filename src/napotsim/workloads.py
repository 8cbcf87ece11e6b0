"""TLB-stress trace generation: linear and random walks over a chunk.

A workload touches a power-of-two chunk of memory at a 4KB stride. Every
trace starts with one linear warm-up pass over the chunk (each page touched
once) followed by the measured accesses: either the same pass repeated
cyclically (linear) or uniform page picks from a counter-based generator
(random), so a (seed, chunk) pair always reproduces the same trace.
"""

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .engine import PHASES
from .pagetable import RegionSpec
from .sv39 import PAGE_BYTES, PageSize, is_canonical

PATTERNS = ("linear", "random")
CHUNK_MIN_BYTES = 4 << 10
CHUNK_MAX_BYTES = 256 << 20
DEFAULT_MEASURED_ACCESSES = 1_000_000


@dataclass(frozen=True)
class WorkloadSpec:
    chunk_bytes: int
    pattern: str
    page_size: int = PageSize.PAGE_4K
    seed: int = 0
    measured_accesses: int = DEFAULT_MEASURED_ACCESSES

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        c = self.chunk_bytes
        if c < CHUNK_MIN_BYTES or c > CHUNK_MAX_BYTES or c & (c - 1):
            raise ValueError(
                f"chunk_bytes {c:#x} must be a power of two in "
                f"[{CHUNK_MIN_BYTES:#x}, {CHUNK_MAX_BYTES:#x}]"
            )
        if self.measured_accesses < 0:
            raise ValueError("measured_accesses must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def num_pages(self):
        return self.chunk_bytes // PAGE_BYTES


@dataclass
class AccessTrace:
    """The two phases of a trace, each a sequence of virtual addresses."""

    warmup: Sequence[int]
    measurement: Sequence[int]


def gen_trace(spec, base_va):
    """Warm-up pass over the chunk, then the measured accesses: the pass
    repeated cyclically (linear) or uniform page picks from a Philox stream
    (random).

    The warm-up is a range, and the measured phase is a list in which all
    accesses to one page share one int, so a trace holds at most one int
    object per page rather than one per access.
    """
    warmup = range(base_va, base_va + spec.chunk_bytes, PAGE_BYTES)
    if spec.pattern == "linear":
        measurement = list(
            itertools.islice(itertools.cycle(warmup), spec.measured_accesses)
        )
    else:
        rng = np.random.Generator(np.random.Philox(spec.seed))
        picks = rng.integers(0, spec.num_pages, size=spec.measured_accesses)
        measurement = np.array(warmup, dtype=object)[picks].tolist()
    return AccessTrace(warmup, measurement)


def make_regions(spec, base_va, base_ppn):
    """Backing region for a workload's chunk.

    The region length is the chunk rounded up to a whole page, so a chunk
    smaller than the 64KB page size still gets one full NAPOT group behind
    it; both are powers of two, so that is the larger of the two. RegionSpec
    checks the page size and the alignment and range of base_va and base_ppn.
    """
    length = max(spec.chunk_bytes, spec.page_size)
    return [RegionSpec(base_va, length, spec.page_size, base_ppn)]


def write_trace(trace, path):
    """Write a trace as hex addresses, one per line, with phase markers."""
    with open(path, "w") as f:
        for phase in PHASES:
            f.write(f"# phase: {phase}\n")
            for va in getattr(trace, phase):
                f.write(f"{va:#x}\n")


def read_trace(path):
    """Parse a file written by write_trace back into an AccessTrace.

    A malformed line, or a value that is not a canonical sv39 address,
    raises ValueError naming its line number and text. Bytes that are not
    UTF-8 are kept as escapes, so such a line fails like any other.
    """
    phases = {phase: [] for phase in PHASES}
    current = None
    with open(path, errors="surrogateescape") as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("# phase:"):
                name = line.split(":", 1)[1].strip()
                if name not in phases:
                    raise ValueError(f"line {number}: unknown phase {name!r}")
                current = phases[name]
                continue
            if line.startswith("#"):
                continue
            if current is None:
                raise ValueError(
                    f"line {number}: address {line!r} before any phase marker"
                )
            try:
                va = int(line, 16)
            except ValueError:
                raise ValueError(
                    f"line {number}: {line!r} is not a hex address"
                ) from None
            if not is_canonical(va):
                raise ValueError(
                    f"line {number}: {line!r} is not a canonical sv39 address"
                )
            current.append(va)
    return AccessTrace(**phases)
