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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .engine import MEASUREMENT, PHASES, WARMUP, LatencyModel, PhaseStats, Simulation
from .errors import ConfigError
from .pagetable import PTW_CACHE_ENTRIES, PtwCache, table_frames
from .sv39 import PageSize, check_canonical
from .tlb import L1_ENTRIES, L2_ENTRIES, L1Dtlb, L2Tlb
from .workloads import (
    CHUNK_MAX_BYTES,
    CHUNK_MIN_BYTES,
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

_PAGE_NAMES = {"4K": PageSize.PAGE_4K, "64K": PageSize.PAGE_64K}


@dataclass(frozen=True)
class TlbConfig:
    """One L2 arrangement to sweep and the patterns to drive it with."""

    config_id: int
    ways: int
    page_size: int
    patterns: tuple


DEFAULT_CONFIGS = (
    TlbConfig(1, 4, PageSize.PAGE_4K, ("linear",)),
    TlbConfig(2, 16, PageSize.PAGE_4K, ("linear", "random")),
    TlbConfig(3, 4, PageSize.PAGE_64K, ("linear",)),
    TlbConfig(4, 16, PageSize.PAGE_64K, ("linear", "random")),
)


@dataclass(frozen=True)
class ExperimentConfig:
    configs: tuple = DEFAULT_CONFIGS
    chunk_min_bytes: int = CHUNK_MIN_BYTES
    chunk_max_bytes: int = CHUNK_MAX_BYTES
    measured_accesses: int = 1_000_000
    seed: int = 0
    replacement: str = "lru"
    latency: LatencyModel = field(default_factory=LatencyModel)
    l1_entries: int = L1_ENTRIES
    l2_entries: int = L2_ENTRIES
    ptw_cache_entries: int = PTW_CACHE_ENTRIES
    flush_ptw_between_phases: bool = False
    base_va: int = DEFAULT_BASE_VA
    base_ppn: int = DEFAULT_BASE_PPN
    include_warmup: bool = False
    out_path: str = "results.csv"

    def validate(self):
        """Check the config by building what the sweep builds; returns self.

        Only the rules no component owns live here. Every other rule is
        checked by the constructor that enforces it; its ValueError becomes
        a ConfigError naming the key, or the config id when the rule
        involves a row, which is checked on the largest chunk.
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
            ("replacement", L2Tlb, (1, 1, self.replacement)),
            # positive and a power of two, as any 4- or 16-way L2 needs
            ("l2_entries", L2Tlb, (self.l2_entries, 1)),
            ("base_va", check_canonical, (self.base_va,)),
            ("l1_entries", L1Dtlb, (self.l1_entries,)),
            ("ptw_cache_entries", PtwCache, (self.ptw_cache_entries,)),
        ):
            try:
                build(*args)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
        seen = set()
        for cfg in self.configs:
            if cfg.config_id in seen:
                raise ConfigError(f"duplicate config id {cfg.config_id}")
            seen.add(cfg.config_id)
            # the paper's two arrangements; L2Tlb itself takes any ways
            if cfg.ways not in (4, 16):
                raise ConfigError(
                    f"config {cfg.config_id}: ways must be 4 or 16, got {cfg.ways}"
                )
            if not cfg.patterns:
                raise ConfigError(f"config {cfg.config_id}: no patterns")
            try:
                L2Tlb(self.l2_entries, cfg.ways, self.replacement)
                for pattern in cfg.patterns:
                    if cfg.patterns.count(pattern) > 1:
                        raise ValueError(f"pattern {pattern!r} listed twice")
                    spec = WorkloadSpec(self.chunk_max_bytes, pattern, cfg.page_size)
                # the largest chunk's region and tables cover every smaller one's
                table_frames(make_regions(spec, self.base_va, self.base_ppn))
            except ValueError as exc:
                raise ConfigError(f"config {cfg.config_id}: {exc}") from None
        return self

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
    sim = Simulation(
        regions,
        ways=tlb.ways,
        l2_entries=config.l2_entries,
        replacement=config.replacement,
        seed=config.seed,
        l1_entries=config.l1_entries,
        ptw_cache_entries=config.ptw_cache_entries,
        latency=config.latency,
        flush_ptw_between_phases=config.flush_ptw_between_phases,
    )
    stats = sim.run_trace(trace)
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
                "l1_misses": [p.l1_misses for p in points],
                "l2_hits": [p.l2_hits for p in points],
                "l2_misses": [p.l2_misses for p in points],
                "walks": [p.walks for p in points],
                "total_cycles": [p.total_cycles for p in points],
            }
        )
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def parse_size(text):
    """Parse a byte count: plain int (decimal or 0x hex) or K/M/G suffix."""
    s = str(text).strip().upper()
    if s.endswith("B"):
        s = s[:-1]
    multiplier = 1
    if s and s[-1] in "KMG":
        multiplier = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[s[-1]]
        s = s[:-1]
    try:
        return int(s, 0) * multiplier
    except ValueError:
        raise ConfigError(f"cannot parse size {text!r}") from None


def _parse_patterns(text):
    parts = [p.strip() for p in text.replace("+", ",").split(",") if p.strip()]
    return tuple(parts)


def _parse_config_row(key, text):
    try:
        config_id = int(key)
    except ValueError:
        raise ValueError("config id is not an int") from None
    values = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"cannot parse {part!r}")
        name, _, value = part.partition("=")
        values[name.strip()] = value.strip()
    unknown = set(values) - {"ways", "page", "patterns"}
    if unknown:
        raise ValueError(f"unknown fields {sorted(unknown)}")
    try:
        ways = int(values["ways"])
        page_name = values["page"].upper()
        patterns = _parse_patterns(values.get("patterns", "linear"))
    except KeyError as missing:
        raise ValueError(f"missing field {missing}") from None
    if page_name not in _PAGE_NAMES:
        raise ValueError(f"unknown page size {page_name!r}")
    return TlbConfig(config_id, ways, _PAGE_NAMES[page_name], patterns)


def _parse_bool(text):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


# a scalar field's type picks its INI parser
_PARSERS = {bool: _parse_bool, int: lambda text: int(text, 0), str: str.strip}
# INI keys that differ from their ExperimentConfig field names
_SWEEP_KEYS = {"chunk_min_bytes": "chunk_min", "chunk_max_bytes": "chunk_max",
               "out_path": "out"}


def _read_section(section, cls, keys):
    """Keyword arguments for dataclass cls from an INI section.

    Each scalar field of cls is read from the key named after it (or after
    keys[field name]). Its type picks the parser; *_bytes fields take sizes.
    """
    updates = {}
    known = set()
    for f in fields(cls):
        parse = parse_size if f.name.endswith("_bytes") else _PARSERS.get(f.type)
        if parse is None:
            continue
        key = keys.get(f.name, f.name)
        known.add(key)
        if key in section:
            try:
                updates[f.name] = parse(section[key])
            except ValueError as exc:
                raise ConfigError(f"[{section.name}] {key}: {exc}") from None
    unknown = set(section) - known
    if unknown:
        raise ConfigError(f"[{section.name}] unknown keys {sorted(unknown)}")
    return updates


def load_config(path):
    """Load an experiment description from an INI file.

    Every key is optional; omitted ones keep the built-in defaults, so an
    empty file describes the default grid. Recognized sections: [sweep],
    [latency], and [configs] with one `id = ways=..., page=..., patterns=...`
    row per configuration. A parse error names its section and key.
    """
    parser = configparser.ConfigParser()
    try:
        with open(path) as f:
            parser.read_file(f)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot read {str(path)!r}: {exc}") from None
    unknown = set(parser.sections()) - {"sweep", "latency", "configs"}
    if unknown:
        raise ConfigError(f"unknown sections {sorted(unknown)}")
    config = ExperimentConfig()
    if parser.has_section("sweep"):
        updates = _read_section(parser["sweep"], ExperimentConfig, _SWEEP_KEYS)
        config = replace(config, **updates)
    if parser.has_section("latency"):
        cycles = _read_section(parser["latency"], LatencyModel, {})
        try:
            config = replace(config, latency=replace(config.latency, **cycles))
        except ValueError as exc:
            raise ConfigError(f"[latency] {exc}") from None
    if parser.has_section("configs"):
        rows = []
        for key, value in parser["configs"].items():
            try:
                rows.append(_parse_config_row(key, value))
            except ValueError as exc:
                raise ConfigError(f"[configs] {key}: {exc}") from None
        config = replace(config, configs=tuple(rows))
    return config.validate()
