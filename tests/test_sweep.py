"""Sweep grid mechanics: config parsing, row layout, determinism."""

import concurrent.futures
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import astuple, fields, replace
from pathlib import Path

import pytest

import napotsim
from napotsim import sweep
from napotsim.engine import PHASES, Hierarchy, LatencyModel, Simulation
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
from napotsim.workloads import WorkloadSpec, gen_trace, make_regions

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
    (dict(l2_entries=0),
     "l2_entries with config 1's 4 ways: 0 entries do not divide into 4 ways"),
    (dict(l2_entries=1000),
     "l2_entries with config 1's 4 ways: set count 250 is not a power of two"),
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


def test_every_hierarchy_setting_reaches_the_cell():
    settings = dict(l2_entries=64, replacement="random", seed=7, l1_entries=4,
                    ptw_cache_entries=2, latency=LatencyModel(2, 5, 7),
                    flush_ptw_between_phases=True)
    tlb = TlbConfig(1, 16, PageSize.PAGE_4K, ("random",))
    config = ExperimentConfig(configs=(tlb,), **settings).validate()
    spec = WorkloadSpec(16 << 20, "random", seed=3, measured_accesses=3000)
    trace = gen_trace(spec, config.base_va)
    regions = make_regions(spec, config.base_va, config.base_ppn)
    sim = Simulation(regions, Hierarchy(ways=16), **settings)
    for f in fields(Hierarchy):
        assert getattr(sim.hierarchy, f.name) != f.default, f.name
    with pytest.raises(TypeError):
        Simulation(regions, l3_entries=64)
    stats = sim.run_trace(trace)
    assert stats.measurement.walks > 0
    rows = run_cell(config, tlb, "random", spec.chunk_bytes, trace)
    assert [row[4:] for row in rows] == [astuple(stats.phase(p)) for p in PHASES]
    for row in DEFAULT_CONFIGS:
        assert ExperimentConfig().hierarchy(row) == Hierarchy(ways=row.ways)


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

    # run_sweep imports the pool class from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    config = small_config()
    rows = run_sweep(config, jobs=5000)
    # 2 patterns x 3 chunk sizes
    assert asked == [6]
    assert rows == run_sweep(config, jobs=1)


def test_serial_sweep_loads_no_process_pool():
    # a serial run starts no worker, so it need not pay for loading the pool
    src = str(Path(napotsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys\n"
        "from napotsim import ExperimentConfig, TlbConfig, run_sweep\n"
        "tlb = TlbConfig(1, 4, 4096, ('linear', 'random'))\n"
        "run_sweep(ExperimentConfig(configs=(tlb,), chunk_max_bytes=8192,\n"
        "                           measured_accesses=100))\n"
        "print([m for m in ('concurrent.futures.process', 'multiprocessing')\n"
        "       if m in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout == "[]\n"


def test_run_sweep_rejects_bad_jobs(monkeypatch):
    # the rule is run_sweep's own, checked before any grid point runs
    monkeypatch.setattr(sweep, "_run_point", None)
    for jobs in (0, -2):
        with pytest.raises(ValueError, match=f"jobs must be at least 1, not {jobs}"):
            run_sweep(small_config(), jobs=jobs)


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
    assert set(series) == {
        "config_id", "pattern", "x", "chunk_bytes", "accesses", "l1_hits",
        "l1_misses", "l2_hits", "l2_misses", "walks", "walk_memory_reads",
        "total_cycles",
    }
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
1 = ways=0x10, page=4K, patterns=linear
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


def test_load_config_number_spellings(tmp_path):
    # the row's key, ways and page are read like every other int and size;
    # an empty field between commas is skipped
    path = tmp_path / "exp.ini"
    path.write_text(
        "[configs]\n"
        "0x2 = ways=0x10, page=0x10000, patterns=random\n"
        "3 = ways=4, page=64KB\n"
        "4 = ways=4, page=65536\n"
        "5 = ways=4, page=64K\n"
        "6 = ways=4,, page=4K,\n"
    )
    assert load_config(path).configs == (
        TlbConfig(2, 16, PageSize.PAGE_64K, ("random",)),
        TlbConfig(3, 4, PageSize.PAGE_64K, ("linear",)),
        TlbConfig(4, 4, PageSize.PAGE_64K, ("linear",)),
        TlbConfig(5, 4, PageSize.PAGE_64K, ("linear",)),
        TlbConfig(6, 4, PageSize.PAGE_4K, ("linear",)),
    )


def test_load_config_reads_values_verbatim(tmp_path):
    # no % interpolation: a % is part of the value
    path = tmp_path / "exp.ini"
    path.write_text("[sweep]\nout = run_%d.csv\n")
    assert load_config(path).out_path == "run_%d.csv"
    path.write_text("[sweep]\nout = run_%%d.csv\n")
    assert load_config(path).out_path == "run_%%d.csv"


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
        ("[latency]\nmem_read_cycles = -1\n",
         r"\[latency\] mem_read_cycles must be non-negative"),
        ("[configs]\none = ways=4, page=4K\n", r"\[configs\] one: config_id: .*'one'"),
        ("[configs]\n1 = ways=4, page=2M\n", "config 1: unsupported page size 2097152"),
        ("[configs]\n1 = ways=4, page=4Q\n",
         r"\[configs\] 1: page: cannot parse size '4Q'"),
        ("[configs]\n1 = ways=4, page=4K%\n",
         r"\[configs\] 1: page: cannot parse size '4K%'"),
        ("[configs]\n1 = ways=4, page=4K, config_id=3\n",
         r"\[configs\] 1: field 'config_id' given twice"),
        ("[configs]\n1 = ways=4\n", r"\[configs\] 1: missing field 'page'"),
        ("[configs]\n1 = ways=4, page=4K, bogus=1\n", r"\[configs\] 1: .*bogus"),
        ("[configs]\n1 = ways=4, ways=16, page=4K\n",
         r"\[configs\] 1: field 'ways' given twice"),
        ("[configs]\n1 = ways=5, page=4K\n", "config 1: ways must be 4 or 16"),
        ("[configs]\n1 = ways=016, page=4K\n", r"\[configs\] 1: .*'016'"),
        ("[configs]\n2 = ways=16, page=4K, patterns=linear,random\n",
         r"\[configs\] 2: cannot parse 'random': .*patterns are joined with '\+'"),
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


def test_readme_example_python_runs(capsys):
    # guards that the library example only names what napotsim exports
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("PhaseStats(")


def test_readme_names_only_attributes_that_exist():
    # every backticked Class.attr whose Class napotsim exports; an instance
    # attribute shows on the component a default Simulation builds
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    named = [
        (getattr(napotsim, cls), attr)
        for cls, attr in re.findall(r"`([A-Z]\w*)\.(\w+)", readme)
        if isinstance(getattr(napotsim, cls, None), type)
    ]
    assert len(named) >= 6
    built = {type(part): part for part in vars(Simulation([])).values()}
    missing = [f"{cls.__name__}.{attr}" for cls, attr in named
               if not (hasattr(cls, attr) or hasattr(built.get(cls), attr))]
    assert missing == []


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


def test_validate_builds_no_l2_sets():
    # the largest probe L2 of a 64K-entry L2 has 65,536 sets, about 9 MB if
    # each set were built up front
    config = ExperimentConfig(l2_entries=0x10000)
    ExperimentConfig().validate()  # imports and caches outside the trace
    tracemalloc.start()
    try:
        config.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


def test_a_large_l2_gives_the_default_rows_on_chunks_up_to_1m():
    # a 1MB chunk spans 16 64KB groups, and the default L2's 64 or 256 sets
    # give each its own set, as a 1M-entry L2 does, so each set sees the
    # same traffic under either size
    config = ExperimentConfig(chunk_max_bytes=1 << 20, measured_accesses=1000)
    rows = run_sweep(replace(config, l2_entries=0x100000))
    assert len(rows) == 2 * 54  # both phases of 54 cells
    assert rows == run_sweep(config)
