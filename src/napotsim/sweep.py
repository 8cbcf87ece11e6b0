"""Experiment grid: run every (config, pattern, chunk size) cell, emit rows.

A cell runs one workload trace against one TLB configuration and yields two
result rows, warm-up and measurement. The default grid covers four
configurations over chunk sizes from 4KB to 256MB. All configurations at a
given (pattern, chunk) grid point see the identical trace: the trace seed
is derived from (sweep seed, pattern, chunk) only, so hierarchy variants
are compared on the same workload.
"""

import configparser
import itertools
import json
import math
from collections import namedtuple
from dataclasses import MISSING, astuple, dataclass, fields
from typing import NewType

import numpy as np

from .engine import (
    MEASUREMENT,
    PHASES,
    WARMUP,
    Hierarchy,
    LatencyModel,
    PhaseStats,
    Simulation,
)
from .errors import ConfigError, labelled
from .pagetable import PtwCache, table_frames
from .sv39 import PageSize, check_canonical
from .tlb import L1Dtlb, L2Tlb
from .workloads import (
    CHUNK_MAX_BYTES,
    CHUNK_MIN_BYTES,
    DEFAULT_MEASURED_ACCESSES,
    PATTERNS,
    WorkloadSpec,
    gen_trace,
    make_regions,
)

# one CSV row: the cell's key, then PhaseStats' counters in field order
ResultRow = namedtuple(
    "ResultRow",
    ("config_id", "pattern", "chunk_bytes", "phase")
    + tuple(f.name for f in fields(PhaseStats)),
)
CSV_HEADER = ",".join(ResultRow._fields)

DEFAULT_BASE_VA = 0x4000_0000
DEFAULT_BASE_PPN = 0x10_0000

# field types that pick their own INI parser: a byte count, and patterns
# joined with '+'
Size = NewType("Size", int)
Patterns = NewType("Patterns", tuple)


@dataclass(frozen=True)
class TlbConfig:
    """One L2 arrangement to sweep and the patterns to drive it with."""

    config_id: int
    ways: int
    page_size: Size
    patterns: Patterns = ("linear",)


DEFAULT_CONFIGS = (
    TlbConfig(1, 4, PageSize.PAGE_4K, ("linear",)),
    TlbConfig(2, 16, PageSize.PAGE_4K, ("linear", "random")),
    TlbConfig(3, 4, PageSize.PAGE_64K, ("linear",)),
    TlbConfig(4, 16, PageSize.PAGE_64K, ("linear", "random")),
)


@dataclass(frozen=True)
class ExperimentConfig:
    configs: tuple = DEFAULT_CONFIGS
    chunk_min_bytes: Size = CHUNK_MIN_BYTES
    chunk_max_bytes: Size = CHUNK_MAX_BYTES
    measured_accesses: int = DEFAULT_MEASURED_ACCESSES
    seed: int = Hierarchy.seed
    replacement: str = Hierarchy.replacement
    latency: LatencyModel = Hierarchy.latency
    l1_entries: int = Hierarchy.l1_entries
    l2_entries: int = Hierarchy.l2_entries
    ptw_cache_entries: int = Hierarchy.ptw_cache_entries
    flush_ptw_between_phases: bool = Hierarchy.flush_ptw_between_phases
    base_va: int = DEFAULT_BASE_VA
    base_ppn: int = DEFAULT_BASE_PPN
    include_warmup: bool = False
    out_path: str = "results.csv"

    def validate(self):
        """Check the config by building what the sweep builds; returns self.

        Only the rules no component owns live here. Every other rule is
        checked by the constructor that enforces it, in a `labelled` block
        that names the key, the config id when the rule involves a row
        (checked on the largest chunk), or both for l2_entries, which must
        suit each row's ways.
        """
        if not self.configs:
            raise ConfigError("no configurations to sweep")
        if self.chunk_min_bytes > self.chunk_max_bytes:
            raise ConfigError("chunk_min_bytes exceeds chunk_max_bytes")
        for key, build, args in (
            ("seed", cell_seed, (self.seed, PATTERNS[0], CHUNK_MIN_BYTES)),
            ("chunk_min_bytes", WorkloadSpec, (self.chunk_min_bytes, PATTERNS[0])),
            ("chunk_max_bytes", WorkloadSpec, (self.chunk_max_bytes, PATTERNS[0])),
            ("measured_accesses", WorkloadSpec,
             (CHUNK_MIN_BYTES, PATTERNS[0], PageSize.PAGE_4K, 0,
              self.measured_accesses)),
            ("replacement", L2Tlb, (1, 1, self.replacement, self.seed)),
            ("base_va", check_canonical, (self.base_va,)),
            ("l1_entries", L1Dtlb, (self.l1_entries,)),
            ("ptw_cache_entries", PtwCache, (self.ptw_cache_entries,)),
        ):
            with labelled(f"{key}:"):
                build(*args)
        seen = set()
        for cfg in self.configs:
            if cfg.config_id in seen:
                raise ConfigError(f"duplicate config id {cfg.config_id}")
            seen.add(cfg.config_id)
            with labelled(f"config {cfg.config_id}:"):
                # the paper's two arrangements; L2Tlb itself takes any ways
                if cfg.ways not in (4, 16):
                    raise ValueError(f"ways must be 4 or 16, got {cfg.ways}")
                if not cfg.patterns:
                    raise ValueError("no patterns")
                for pattern in cfg.patterns:
                    if cfg.patterns.count(pattern) > 1:
                        raise ValueError(f"pattern {pattern!r} listed twice")
                    spec = WorkloadSpec(self.chunk_max_bytes, pattern, cfg.page_size)
                # the largest chunk's region and tables cover every smaller one's
                table_frames(make_regions(spec, self.base_va, self.base_ppn))
            h = self.hierarchy(cfg)
            with labelled(f"l2_entries with config {cfg.config_id}'s {h.ways} ways:"):
                L2Tlb(h.l2_entries, h.ways, h.replacement, h.seed)
        return self

    def hierarchy(self, tlb):
        """The Hierarchy of [configs] row tlb, each field read from the row
        if it has it and from the sweep otherwise."""
        return Hierarchy(**{
            f.name: getattr(tlb if hasattr(tlb, f.name) else self, f.name)
            for f in fields(Hierarchy)
        })

    def chunk_sizes(self):
        sizes = []
        size = self.chunk_min_bytes
        while size <= self.chunk_max_bytes:
            sizes.append(size)
            size <<= 1
        return sizes

    def cells(self):
        """Every (config, pattern, chunk) triple the sweep will run."""
        out = []
        for cfg in self.configs:
            for pattern in cfg.patterns:
                for chunk in self.chunk_sizes():
                    out.append((cfg, pattern, chunk))
        return out


def cell_seed(seed, pattern, chunk_bytes):
    """Trace seed for a grid point; identical across TLB configurations."""
    entropy = (seed, PATTERNS.index(pattern), chunk_bytes.bit_length())
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _sort_key(row):
    return (row.config_id, row.pattern, row.chunk_bytes, row.phase != WARMUP)


def run_cell(config, tlb, pattern, chunk_bytes, trace):
    """Run one cell on its grid point's trace; returns its warm-up and
    measurement rows."""
    spec = WorkloadSpec(chunk_bytes, pattern, tlb.page_size)
    regions = make_regions(spec, config.base_va, config.base_ppn)
    stats = Simulation(regions, config.hierarchy(tlb)).run_trace(trace)
    return [
        ResultRow(tlb.config_id, pattern, chunk_bytes, phase,
                  *astuple(stats.phase(phase)))
        for phase in PHASES
    ]


def _run_point(config, pattern, chunk_bytes, tlbs):
    """Run every configuration of one (pattern, chunk) grid point on one trace."""
    spec = WorkloadSpec(
        chunk_bytes,
        pattern,
        seed=cell_seed(config.seed, pattern, chunk_bytes),
        measured_accesses=config.measured_accesses,
    )
    trace = gen_trace(spec, config.base_va)
    rows = []
    for tlb in tlbs:
        rows.extend(run_cell(config, tlb, pattern, chunk_bytes, trace))
    return rows


def run_sweep(config, jobs=1):
    """Run the whole grid; returns rows sorted by (config, pattern, chunk).

    Each (pattern, chunk) grid point is one task that generates its trace
    once and runs every configuration on it. jobs=1 runs the tasks in this
    process; more jobs spread them over a pool of at most one worker per
    task.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    config.validate()
    points = {}
    # largest chunks first, so a pool does not end on its longest tasks
    for tlb, pattern, chunk in sorted(config.cells(), key=lambda c: -c[2]):
        points.setdefault((pattern, chunk), []).append(tlb)
    patterns, chunks = zip(*points)
    args = (itertools.repeat(config), patterns, chunks, points.values())
    if jobs == 1:
        results = list(map(_run_point, *args))
    else:
        # imported here so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(points))) as pool:
            results = list(pool.map(_run_point, *args))
    rows = [row for point_rows in results for row in point_rows]
    rows.sort(key=_sort_key)
    return rows


def emit_csv(rows, path):
    """Write rows as CSV with the fixed column order; bytes are reproducible."""
    with open(path, "w", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for row in rows:
            f.write(",".join(map(str, row)) + "\n")


def emit_plotdata(rows, path):
    """Write measurement rows as per-(config, pattern) series keyed on
    log2 of the chunk size in KB, ready for external plotting."""
    series = {}
    for row in rows:
        if row.phase != MEASUREMENT:
            continue
        series.setdefault((row.config_id, row.pattern), []).append(row)
    doc = {"x_axis": "log2_chunk_kb", "series": []}
    for key in sorted(series):
        points = sorted(series[key], key=lambda r: r.chunk_bytes)
        doc["series"].append(
            {
                "config_id": key[0],
                "pattern": key[1],
                "x": [math.log2(p.chunk_bytes / 1024) for p in points],
                "chunk_bytes": [p.chunk_bytes for p in points],
                # every counter, named once by PhaseStats as in ResultRow
                **{c.name: [getattr(p, c.name) for p in points]
                   for c in fields(PhaseStats)},
            }
        )
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def parse_int(text):
    """Parse an int written as a Python literal: decimal, or 0x/0o/0b."""
    return int(text, 0)


def parse_size(text):
    """Parse a byte count: an int as parse_int reads it, or a K/M/G suffix."""
    s = str(text).strip().upper()
    if s.endswith("B"):
        s = s[:-1]
    multiplier = 1
    if s and s[-1] in "KMG":
        multiplier = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[s[-1]]
        s = s[:-1]
    try:
        return parse_int(s) * multiplier
    except ValueError:
        raise ConfigError(f"cannot parse size {text!r}") from None


def _parse_patterns(text):
    return tuple(p.strip() for p in text.split("+") if p.strip())


def _parse_bool(text):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


# a field's type picks its INI parser
_PARSERS = {bool: _parse_bool, int: parse_int, str: str.strip,
            Size: parse_size, Patterns: _parse_patterns}
# INI keys that differ from their dataclass field names
_KEYS = {"chunk_min_bytes": "chunk_min", "chunk_max_bytes": "chunk_max",
         "out_path": "out", "page_size": "page"}


def _read_fields(label, values, cls, **given):
    """Build dataclass cls from the fields in given plus those read from
    values, a map of INI key to text.

    Each field with a parser is read from the key named after it (or after
    _KEYS[field name]); a field with no default must be given. An error
    starts with label and names the key.
    """
    parsed = {_KEYS.get(f.name, f.name): f for f in fields(cls) if f.type in _PARSERS}
    unknown = set(values) - set(parsed)
    if unknown:
        raise ConfigError(f"{label} unknown keys {sorted(unknown)}")
    for key, f in parsed.items():
        if key in values:
            with labelled(f"{label} {key}:"):
                given[f.name] = _PARSERS[f.type](values[key])
        elif f.default is MISSING:
            raise ConfigError(f"{label} missing field {key!r}")
    with labelled(label):
        return cls(**given)


def _read_row(key, text):
    """A [configs] row: its key is the config id, its fields are name=value."""
    label = f"[configs] {key}:"
    values = {"config_id": key}
    with labelled(label):
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"cannot parse {part!r}: fields are name=value, "
                    "and patterns are joined with '+'"
                )
            name, _, value = part.partition("=")
            name = name.strip()
            if name in values:
                raise ValueError(f"field {name!r} given twice")
            values[name] = value.strip()
    return _read_fields(label, values, TlbConfig)


def load_config(path):
    """Load an experiment description from an INI file.

    Every key is optional; omitted ones keep the built-in defaults, so an
    empty file describes the default grid. Recognized sections: [sweep],
    [latency], and [configs] with one `id = ways=..., page=..., patterns=...`
    row per configuration, where patterns defaults to linear. Values are
    read verbatim (no % interpolation); integers take decimal or 0x hex, and
    sizes, page included, also a K/M/G suffix. A parse error names its
    section and key.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as f:
            parser.read_file(f)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot read {str(path)!r}: {exc}") from None
    sections = {name: parser[name] for name in parser.sections()}
    unknown = set(sections) - {"sweep", "latency", "configs"}
    if unknown:
        raise ConfigError(f"unknown sections {sorted(unknown)}")
    given = {"latency": _read_fields("[latency]", sections.get("latency", {}),
                                     LatencyModel)}
    if "configs" in sections:
        given["configs"] = tuple(_read_row(*row) for row in sections["configs"].items())
    sweep = sections.get("sweep", {})
    return _read_fields("[sweep]", sweep, ExperimentConfig, **given).validate()
