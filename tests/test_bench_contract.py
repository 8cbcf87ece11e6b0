"""The benchmark's tracer still finds every name it wraps.

napotbench/inproc.py wraps engine.walk, pagetable.decode_pte, the PtwCache,
L1Dtlb and L2Tlb methods, and reads memory_reads, cache_hits and faulted off
walk's result. A renamed or removed name makes its traced sweep fail, and a
change in what the hot path calls makes its call counts disagree with the
CSV, which it reports as problems.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_traced_sweep_matches_csv(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_INI)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "napotbench" / "inproc.py"), "sweep",
         "--config", str(ini), "--seed", "0", "--csv", str(tmp_path / "t.csv"),
         "--spans", str(tmp_path / "spans.json")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["problems"] == []
    assert doc["aggregates"]["walk"][0] > 0
