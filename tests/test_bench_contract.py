"""The benchmark's tracer still finds every name it wraps.

napotbench/inproc.py wraps engine.walk, pagetable.decode_pte, the PtwCache,
L1Dtlb and L2Tlb methods, and reads memory_reads, cache_hits and faulted off
walk's result. A renamed or removed name makes its traced sweep fail, and a
change in what the hot path calls makes its call counts disagree with the
CSV, which it reports as problems. The setup probe builds every cell's
Simulation through the public names, and the paths probe times the five
translation paths and reports a path its inputs did not take.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from napotsim import load_config

ROOT = Path(__file__).resolve().parents[1]

TINY_INI = """
[sweep]
chunk_min = 4K
chunk_max = 4M
measured_accesses = 2000
include_warmup = true

[configs]
1 = ways=4, page=4K, patterns=random
2 = ways=16, page=64K, patterns=random
"""


def _probe(*args):
    """Run one napotbench/inproc.py probe; returns the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "napotbench" / "inproc.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture
def tiny_ini(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_INI)
    return ini


def test_traced_sweep_matches_csv(tmp_path, tiny_ini):
    doc = _probe("sweep", "--config", str(tiny_ini), "--seed", "0",
                 "--csv", str(tmp_path / "t.csv"),
                 "--spans", str(tmp_path / "spans.json"))
    assert doc["problems"] == []
    assert doc["aggregates"]["walk"][0] > 0


def test_setup_probe_builds_every_cell(tiny_ini):
    doc = _probe("setup", "--config", str(tiny_ini), "--seed", "0")
    assert doc["simulations"] == len(load_config(tiny_ini).cells())
    assert doc["setup_s"] > 0


def test_paths_probe_takes_every_path():
    doc = _probe("paths")
    assert doc["problems"] == []
