"""Sweep grid mechanics: config parsing, row layout, determinism."""

import json
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

from napotsim import sweep
from napotsim.engine import LatencyModel
from napotsim.errors import ConfigError
from napotsim.sv39 import PPN_MASK, PageSize
from napotsim.sweep import (
    CSV_HEADER,
    DEFAULT_CONFIGS,
    ExperimentConfig,
    TlbConfig,
    cell_seed,
    emit_csv,
    emit_plotdata,
    load_config,
    parse_size,
    run_cell,
    run_sweep,
)
from napotsim.workloads import WorkloadSpec, gen_trace

KB4 = 4 << 10
KB64 = 64 << 10


def small_config(**kwargs):
    """A grid small enough for unit tests: 2 configs, 3 chunk sizes."""
    defaults = dict(
        configs=(
            TlbConfig(1, 4, PageSize.PAGE_4K, ("linear",)),
            TlbConfig(2, 16, PageSize.PAGE_4K, ("linear", "random")),
        ),
        chunk_min_bytes=KB4,
        chunk_max_bytes=16 << 10,
        measured_accesses=200,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_default_config_is_valid():
    config = ExperimentConfig()
    config.validate()
    assert config.configs == DEFAULT_CONFIGS
    assert len(config.chunk_sizes()) == 17
    assert config.chunk_sizes()[0] == KB4
    assert config.chunk_sizes()[-1] == 256 << 20
    # 4 linear runs + 2 random runs over 17 sizes
    assert len(config.cells()) == 102


def test_default_grid_shape():
    by_id = {cfg.config_id: cfg for cfg in DEFAULT_CONFIGS}
    assert by_id[1].ways == 4 and by_id[1].page_size == PageSize.PAGE_4K
    assert by_id[2].ways == 16 and by_id[2].page_size == PageSize.PAGE_4K
    assert by_id[3].ways == 4 and by_id[3].page_size == PageSize.PAGE_64K
    assert by_id[4].ways == 16 and by_id[4].page_size == PageSize.PAGE_64K
    assert by_id[1].patterns == ("linear",)
    assert by_id[2].patterns == ("linear", "random")
    assert by_id[3].patterns == ("linear",)
    assert by_id[4].patterns == ("linear", "random")


# (overrides, message the ConfigError starts with); a [sweep] key no config
# affects is named alone, never blamed on a config
REJECTED = [
    (dict(configs=()), "no configurations"),
    (dict(configs=(TlbConfig(1, 4, PageSize.PAGE_4K, ("linear",)),) * 2),
     "duplicate config id 1"),
    (dict(configs=(TlbConfig(1, 3, PageSize.PAGE_4K, ("linear",)),)),
     "config 1: ways"),
    (dict(configs=(TlbConfig(1, 8, PageSize.PAGE_4K, ("linear",)),)),
     "config 1: ways"),
    (dict(configs=(TlbConfig(1, 4, 8192, ("linear",)),)),
     "config 1: unsupported page size"),
    (dict(configs=(TlbConfig(1, 4, PageSize.PAGE_4K, ()),)), "config 1: no patterns"),
    (dict(configs=(TlbConfig(1, 4, PageSize.PAGE_4K, ("zigzag",)),)),
     "config 1: unknown pattern"),
    (dict(chunk_min_bytes=3 << 10), "chunk_min_bytes: chunk_bytes 0xc00"),
    (dict(chunk_min_bytes=64 << 10, chunk_max_bytes=4 << 10),
     "chunk_min_bytes exceeds"),
    (dict(measured_accesses=-1), "measured_accesses: "),
    (dict(replacement="mru"), "replacement: unknown replacement policy 'mru'"),
    (dict(l1_entries=0), "l1_entries: "),
    (dict(base_va=0x1000), "config 3: base va 0x1000 not aligned"),
    (dict(base_ppn=0x3), "config 3: base ppn 0x3 not aligned"),
    # 256MB would cross the canonical hole
    (dict(base_va=0x3F_F800_0000), "config 1: va 0x4007ffffff"),
    (dict(seed=-1), "seed: "),
    # a 64KB-page grid whose second group runs past PPN_MASK
    (dict(
        configs=(TlbConfig(1, 4, PageSize.PAGE_64K, ("linear",)),),
        chunk_max_bytes=128 << 10,
        base_ppn=PPN_MASK - 15,
    ), "config 1: frames 0xffffffffff0..0x10000000000f"),
    (dict(chunk_max_bytes=512 << 20), "chunk_max_bytes: "),
    (dict(l2_entries=0), "l2_entries: "),
    (dict(l2_entries=1000), "l2_entries: set count 1000"),
    (dict(base_va=1 << 40), "base_va: va 0x10000000000 is not a canonical"),
    # the region fits, but its page tables would start past PPN_MASK
    (dict(
        configs=(TlbConfig(1, 4, PageSize.PAGE_64K, ("linear",)),),
        chunk_max_bytes=KB4,
        base_ppn=PPN_MASK - 15,
    ), "config 1: page-table frame 0x100000000000"),
    (dict(configs=(TlbConfig(1, 4, PageSize.PAGE_4K, ("linear", "linear")),)),
     "config 1: pattern 'linear' listed twice"),
]


@pytest.mark.parametrize(
    "kwargs, message", REJECTED, ids=[f"kwargs{i}" for i in range(len(REJECTED))]
)
def test_config_validation_rejects(kwargs, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        replace(ExperimentConfig(), **kwargs).validate()


def test_4k_only_grid_needs_only_4k_alignment():
    # 64KB alignment of base_va and base_ppn is asked only of 64KB configs
    config = small_config(base_va=0x1000, base_ppn=0x3).validate()
    trace = gen_trace(WorkloadSpec(KB4, "linear", measured_accesses=200),
                      config.base_va)
    rows = run_cell(config, config.configs[0], "linear", KB4, trace)
    assert rows[1].l1_hits == 200
    with pytest.raises(ConfigError, match="not aligned"):
        replace(config, configs=DEFAULT_CONFIGS).validate()


def test_cell_seed_depends_on_pattern_and_chunk_only():
    assert cell_seed(0, "linear", KB4) == cell_seed(0, "linear", KB4)
    assert cell_seed(0, "linear", KB4) != cell_seed(0, "random", KB4)
    assert cell_seed(0, "linear", KB4) != cell_seed(0, "linear", 8 << 10)
    assert cell_seed(0, "linear", KB4) != cell_seed(1, "linear", KB4)


def test_run_cell_emits_both_phases():
    config = small_config()
    trace = gen_trace(WorkloadSpec(KB4, "linear", measured_accesses=200),
                      config.base_va)
    rows = run_cell(config, config.configs[0], "linear", KB4, trace)
    assert [row.phase for row in rows] == ["warmup", "measurement"]
    assert rows[0].accesses == 1  # one warm-up touch of the single page
    assert rows[1].accesses == 200
    assert rows[1].l1_hits == 200  # one page always hits after warm-up
    for row in rows:
        assert row.config_id == 1
        assert row.pattern == "linear"
        assert row.chunk_bytes == KB4


def test_run_sweep_row_layout():
    config = small_config()
    rows = run_sweep(config)
    # (1 linear + 2 patterns for config 2) * 3 sizes * 2 phases
    assert len(rows) == 3 * 3 * 2
    keys = [(r.config_id, r.pattern, r.chunk_bytes, r.phase) for r in rows]
    assert keys == sorted(
        keys, key=lambda k: (k[0], k[1], k[2], k[3] != "warmup")
    )
    assert len(set(keys)) == len(keys)


def test_run_sweep_deterministic_bytes(tmp_path):
    config = small_config()
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    emit_csv(run_sweep(config), a)
    emit_csv(run_sweep(config), b)
    assert a.read_bytes() == b.read_bytes()


def test_run_sweep_parallel_matches_serial():
    config = small_config()
    assert run_sweep(config, jobs=2) == run_sweep(config, jobs=1)


def test_run_sweep_pool_capped_at_grid_points(monkeypatch):
    # a fork pool starts every worker it is asked for, so the sweep must
    # not ask for more than it has (pattern, chunk) tasks; the fake pool
    # runs the tasks in this process and starts none
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", InProcessPool)
    config = small_config()
    rows = run_sweep(config, jobs=5000)
    # 2 patterns x 3 chunk sizes
    assert asked == [6]
    assert rows == run_sweep(config, jobs=1)


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text() == CSV_HEADER + "\n"
    assert CSV_HEADER == (
        "config_id,pattern,chunk_bytes,phase,accesses,l1_hits,l1_misses,"
        "l2_hits,l2_misses,walks,walk_memory_reads,total_cycles"
    )


def test_emit_csv_rows(tmp_path):
    config = small_config()
    rows = run_sweep(config)
    path = tmp_path / "out.csv"
    emit_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(rows) + 1
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "linear"
    assert first[3] == "warmup"
    assert all(field.lstrip("-").isdigit() for field in first[2:3] + first[4:])


def test_emit_plotdata(tmp_path):
    config = small_config()
    rows = run_sweep(config)
    path = tmp_path / "plot.json"
    emit_plotdata(rows, path)
    doc = json.loads(path.read_text())
    assert doc["x_axis"] == "log2_chunk_kb"
    assert len(doc["series"]) == 3  # (1, linear), (2, linear), (2, random)
    series = doc["series"][0]
    assert series["config_id"] == 1 and series["pattern"] == "linear"
    assert series["x"] == [math.log2(c / 1024) for c in (4096, 8192, 16384)]
    assert len(series["l2_misses"]) == 3
    # warm-up rows stay out of the plot data
    assert all(len(s["walks"]) == 3 for s in doc["series"])


def test_parse_size():
    assert parse_size("4096") == 4096
    assert parse_size("4K") == 4096
    assert parse_size("4k") == 4096
    assert parse_size("64KB") == 65536
    assert parse_size("256M") == 256 << 20
    assert parse_size("1G") == 1 << 30
    assert parse_size("0x1000") == 4096
    with pytest.raises(ConfigError):
        parse_size("ten")


def test_load_config_full(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        """
[sweep]
chunk_min = 8K
chunk_max = 1M
measured_accesses = 5000
seed = 7
replacement = random
l1_entries = 16
l2_entries = 512
ptw_cache_entries = 4
base_va = 0x80000000
base_ppn = 0x200000
include_warmup = true
out = custom.csv

[latency]
l1_hit_cycles = 2
l2_lookup_cycles = 4
mem_read_cycles = 50

[configs]
1 = ways=16, page=4K, patterns=linear
2 = ways=4, page=64K, patterns=linear+random
"""
    )
    config = load_config(path)
    assert config.chunk_min_bytes == 8 << 10
    assert config.chunk_max_bytes == 1 << 20
    assert config.measured_accesses == 5000
    assert config.seed == 7
    assert config.replacement == "random"
    assert config.l1_entries == 16
    assert config.l2_entries == 512
    assert config.ptw_cache_entries == 4
    assert config.base_va == 0x8000_0000
    assert config.base_ppn == 0x20_0000
    assert config.include_warmup is True
    assert config.out_path == "custom.csv"
    assert config.latency == LatencyModel(2, 4, 50)
    assert config.configs == (
        TlbConfig(1, 16, PageSize.PAGE_4K, ("linear",)),
        TlbConfig(2, 4, PageSize.PAGE_64K, ("linear", "random")),
    )


def test_load_config_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("")
    assert load_config(path) == ExperimentConfig()


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="missing.ini"):
        load_config(tmp_path / "missing.ini")
    with pytest.raises(ConfigError, match="Is a directory"):
        load_config(tmp_path)
    bad = tmp_path / "bad.ini"
    for text, message in (
        ("[sweep]\nchunk_min = ten\n", r"\[sweep\] chunk_min: .*'ten'"),
        ("[sweep]\nwhatever = 1\n", r"\[sweep\] unknown keys \['whatever'\]"),
        ("[mystery]\nx = 1\n", r"unknown sections \['mystery'\]"),
        ("[latency]\nl4_cycles = 1\n", r"\[latency\] unknown keys \['l4_cycles'\]"),
        ("[configs]\none = ways=4, page=4K\n", r"\[configs\] one: .*not an int"),
        ("[configs]\n1 = ways=4, page=2M\n", r"\[configs\] 1: unknown page size"),
        ("[configs]\n1 = ways=4\n", r"\[configs\] 1: missing field 'page'"),
        ("[configs]\n1 = ways=4, page=4K, bogus=1\n", r"\[configs\] 1: .*bogus"),
        ("[configs]\n1 = ways=5, page=4K\n", "config 1: ways must be 4 or 16"),
        ("[sweep]\nseed = x\n", r"\[sweep\] seed: .*'x'"),
        ("[sweep]\ninclude_warmup = maybe\n", r"\[sweep\] include_warmup: .*'maybe'"),
    ):
        bad.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_config(bad)


def test_readme_example_config_loads_to_defaults(tmp_path):
    # guards that every documented key is one load_config accepts
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    path = tmp_path / "example.ini"
    path.write_text(example)
    assert load_config(path) == ExperimentConfig()


def test_results_identical_across_trace_sharing():
    # a cell run standalone matches the same cell inside a sweep
    config = small_config()
    rows = run_sweep(config)
    chunk = 16 << 10
    spec = WorkloadSpec(
        chunk,
        "random",
        seed=cell_seed(config.seed, "random", chunk),
        measured_accesses=config.measured_accesses,
    )
    solo = run_cell(config, config.configs[1], "random", chunk,
                    gen_trace(spec, config.base_va))
    matching = [
        r for r in rows
        if r.config_id == 2 and r.pattern == "random" and r.chunk_bytes == chunk
    ]
    assert matching == solo
