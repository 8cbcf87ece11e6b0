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
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .engine import MEASUREMENT, WARMUP, LatencyModel, Simulation
from .errors import ConfigError
from .sv39 import NAPOT_OFFSET_MASK, PAGE_BYTES, PPN_MASK, PageSize, is_canonical
from .tlb import L1_ENTRIES, L2_ENTRIES, REPLACEMENT_POLICIES
from .workloads import (
    CHUNK_MAX_BYTES,
    CHUNK_MIN_BYTES,
    PATTERNS,
    WorkloadSpec,
    gen_trace,
    make_regions,
)

CSV_COLUMNS = (
    "config_id",
    "pattern",
    "chunk_bytes",
    "phase",
    "accesses",
    "l1_hits",
    "l1_misses",
    "l2_hits",
    "l2_misses",
    "walks",
    "walk_memory_reads",
    "total_cycles",
)
CSV_HEADER = ",".join(CSV_COLUMNS)

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
    ptw_cache_entries: int = 8
    flush_ptw_between_phases: bool = False
    base_va: int = DEFAULT_BASE_VA
    base_ppn: int = DEFAULT_BASE_PPN
    include_warmup: bool = False
    out_path: str = "results.csv"

    def validate(self):
        if not self.configs:
            raise ConfigError("no configurations to sweep")
        seen = set()
        for cfg in self.configs:
            if cfg.config_id in seen:
                raise ConfigError(f"duplicate config id {cfg.config_id}")
            seen.add(cfg.config_id)
            if cfg.ways not in (4, 16):
                raise ConfigError(
                    f"config {cfg.config_id}: ways must be 4 or 16, got {cfg.ways}"
                )
            if cfg.page_size not in PageSize.ALL:
                raise ConfigError(
                    f"config {cfg.config_id}: bad page size {cfg.page_size}"
                )
            if not cfg.patterns:
                raise ConfigError(f"config {cfg.config_id}: no patterns")
            for pattern in cfg.patterns:
                if pattern not in PATTERNS:
                    raise ConfigError(
                        f"config {cfg.config_id}: unknown pattern {pattern!r}"
                    )
            if self.l2_entries <= 0 or self.l2_entries % cfg.ways:
                raise ConfigError(
                    f"config {cfg.config_id}: {self.l2_entries} entries do not "
                    f"divide into {cfg.ways} ways"
                )
            sets = self.l2_entries // cfg.ways
            if sets & (sets - 1):
                raise ConfigError(
                    f"config {cfg.config_id}: set count {sets} not a power of two"
                )
        for bound in (self.chunk_min_bytes, self.chunk_max_bytes):
            if (
                bound < CHUNK_MIN_BYTES
                or bound > CHUNK_MAX_BYTES
                or bound & (bound - 1)
            ):
                raise ConfigError(
                    f"chunk bound {bound:#x} must be a power of two in "
                    f"[{CHUNK_MIN_BYTES:#x}, {CHUNK_MAX_BYTES:#x}]"
                )
        if self.chunk_min_bytes > self.chunk_max_bytes:
            raise ConfigError("chunk_min_bytes exceeds chunk_max_bytes")
        if self.measured_accesses < 0:
            raise ConfigError("measured_accesses must be non-negative")
        if self.replacement not in REPLACEMENT_POLICIES:
            raise ConfigError(f"unknown replacement policy {self.replacement!r}")
        if self.l1_entries < 1 or self.ptw_cache_entries < 1:
            raise ConfigError("structure sizes must be positive")
        if self.base_va % PageSize.PAGE_64K:
            raise ConfigError("base_va must be 64KB aligned")
        if self.base_ppn & NAPOT_OFFSET_MASK:
            raise ConfigError("base_ppn must be aligned to a 16-frame group")
        end = self.base_va + self.chunk_max_bytes - 1
        if not (is_canonical(self.base_va) and is_canonical(end)) or (
            (self.base_va >> 38) != (end >> 38)
        ):
            raise ConfigError("swept range leaves canonical address space")
        if self.base_ppn + self.chunk_max_bytes // PAGE_BYTES > PPN_MASK:
            raise ConfigError("swept range leaves physical address space")
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


@dataclass(frozen=True)
class ResultRow:
    config_id: int
    pattern: str
    chunk_bytes: int
    phase: str
    accesses: int
    l1_hits: int
    l1_misses: int
    l2_hits: int
    l2_misses: int
    walks: int
    walk_memory_reads: int
    total_cycles: int

    @classmethod
    def from_stats(cls, config_id, pattern, chunk_bytes, phase, stats):
        return cls(
            config_id,
            pattern,
            chunk_bytes,
            phase,
            stats.accesses,
            stats.l1_hits,
            stats.l1_misses,
            stats.l2_hits,
            stats.l2_misses,
            stats.walks,
            stats.walk_memory_reads,
            stats.total_cycles,
        )

    def to_csv(self):
        return ",".join(
            str(getattr(self, column)) for column in CSV_COLUMNS
        )


def _sort_key(row):
    return (row.config_id, row.pattern, row.chunk_bytes, row.phase != WARMUP)


def run_cell(config, tlb, pattern, chunk_bytes, trace=None):
    """Run one cell; returns its warm-up and measurement rows."""
    spec = WorkloadSpec(
        chunk_bytes,
        pattern,
        tlb.page_size,
        seed=cell_seed(config.seed, pattern, chunk_bytes),
        measured_accesses=config.measured_accesses,
    )
    if trace is None:
        trace = gen_trace(spec, config.base_va)
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
        ResultRow.from_stats(
            tlb.config_id, pattern, chunk_bytes, WARMUP, stats.warmup
        ),
        ResultRow.from_stats(
            tlb.config_id, pattern, chunk_bytes, MEASUREMENT, stats.measurement
        ),
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
        rows.extend(run_cell(config, tlb, pattern, chunk_bytes, trace=trace))
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
            f.write(row.to_csv() + "\n")


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


def _parse_config_row(config_id, text):
    fields = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"config {config_id}: cannot parse {part!r}")
        key, _, value = part.partition("=")
        fields[key.strip()] = value.strip()
    unknown = set(fields) - {"ways", "page", "patterns"}
    if unknown:
        raise ConfigError(f"config {config_id}: unknown fields {sorted(unknown)}")
    try:
        ways = int(fields["ways"])
        page_name = fields["page"].upper()
        patterns = _parse_patterns(fields.get("patterns", "linear"))
    except KeyError as missing:
        raise ConfigError(f"config {config_id}: missing field {missing}") from None
    if page_name not in _PAGE_NAMES:
        raise ConfigError(f"config {config_id}: unknown page size {page_name!r}")
    return TlbConfig(config_id, ways, _PAGE_NAMES[page_name], patterns)


def load_config(path):
    """Load an experiment description from an INI file.

    Every key is optional; omitted ones keep the built-in defaults, so an
    empty file describes the default grid. Recognized sections: [sweep],
    [latency], and [configs] with one `id = ways=..., page=..., patterns=...`
    row per configuration.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file {path!r} does not exist")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path!r}: {exc}") from None
    known = {"sweep", "latency", "configs"}
    unknown = set(parser.sections()) - known
    if unknown:
        raise ConfigError(f"unknown sections {sorted(unknown)}")
    config = ExperimentConfig()
    try:
        if parser.has_section("sweep"):
            sweep = parser["sweep"]
            allowed = {
                "chunk_min", "chunk_max", "measured_accesses", "seed",
                "replacement", "l1_entries", "l2_entries", "ptw_cache_entries",
                "include_warmup", "flush_ptw_between_phases", "base_va",
                "base_ppn", "out",
            }
            unknown = set(sweep) - allowed
            if unknown:
                raise ConfigError(f"unknown sweep keys {sorted(unknown)}")
            updates = {}
            if "chunk_min" in sweep:
                updates["chunk_min_bytes"] = parse_size(sweep["chunk_min"])
            if "chunk_max" in sweep:
                updates["chunk_max_bytes"] = parse_size(sweep["chunk_max"])
            for key in ("measured_accesses", "seed", "l1_entries", "l2_entries",
                        "ptw_cache_entries"):
                if key in sweep:
                    updates[key] = int(sweep[key], 0)
            if "replacement" in sweep:
                updates["replacement"] = sweep["replacement"].strip()
            for key in ("include_warmup", "flush_ptw_between_phases"):
                if key in sweep:
                    updates[key] = sweep.getboolean(key)
            if "base_va" in sweep:
                updates["base_va"] = int(sweep["base_va"], 0)
            if "base_ppn" in sweep:
                updates["base_ppn"] = int(sweep["base_ppn"], 0)
            if "out" in sweep:
                updates["out_path"] = sweep["out"].strip()
            config = replace(config, **updates)
        if parser.has_section("latency"):
            latency = parser["latency"]
            cycles = {}
            for key in ("l1_hit_cycles", "l2_lookup_cycles", "mem_read_cycles"):
                if key in latency:
                    cycles[key] = int(latency[key], 0)
            unknown = set(latency) - {
                "l1_hit_cycles", "l2_lookup_cycles", "mem_read_cycles",
            }
            if unknown:
                raise ConfigError(f"unknown latency keys {sorted(unknown)}")
            config = replace(config, latency=replace(config.latency, **cycles))
        if parser.has_section("configs"):
            rows = []
            for key, value in parser["configs"].items():
                try:
                    config_id = int(key)
                except ValueError:
                    raise ConfigError(f"config id {key!r} is not an int") from None
                rows.append(_parse_config_row(config_id, value))
            config = replace(config, configs=tuple(rows))
    except ValueError as exc:
        raise ConfigError(f"bad value in {path!r}: {exc}") from None
    return config.validate()
