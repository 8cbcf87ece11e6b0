"""Self-test of the benchmark harness at a tiny access count (~1 minute).

    python3 napotbench/selftest.py

Checks that run.py prints every metric BENCHMARK.json names, by name and
with its unit, in both modes; that it passes against a correct expected
CSV, at seed 0 and (linear rows only) at another seed; that a corrupted
expected CSV makes failed_frac non-zero and the exit code non-zero; and
that without the program's sources it fails without printing a result.
Exits non-zero on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

WORKLOAD = "l1-resident"
ACCESSES = 300
SCRATCH = run.OUT_ROOT / "selftest"


def bench(*args, cwd=run.ROOT, script=run.BENCH_DIR / "run.py"):
    cmd = [sys.executable, str(script), "--workload", WORKLOAD,
           "--seconds", "1", "--accesses", str(ACCESSES)] + list(args)
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def result_of(lines):
    return json.loads(lines[-1])


def expect(condition, what):
    if not condition:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if SCRATCH.exists():
        shutil.rmtree(SCRATCH)
    expected_dir = SCRATCH / "expected"
    expected_dir.mkdir(parents=True)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = bench("--seed", "0", "--trace", str(trace))
        result = result_of(lines)
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(code == 0 and result["correct"], f"--trace {trace} passes")
        expect(printed == declared, f"--trace {trace} prints every {key} metric "
               "with its unit")
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"--trace {trace} result has exactly the four result keys")

    good = run.out_dir(WORKLOAD, 0, 0) / "cli.csv"
    target = run.expected_path(expected_dir, WORKLOAD, ACCESSES, 0)
    shutil.copy(good, target)
    code, lines = bench("--seed", "0", "--trace", "0",
                        "--expected-dir", str(expected_dir))
    expect(code == 0 and result_of(lines)["failed"] == 0
           and "at this seed" in lines[0], "matches a correct expected CSV")
    code, lines = bench("--seed", "5", "--trace", "0",
                        "--expected-dir", str(expected_dir))
    expect(code == 0 and result_of(lines)["failed"] == 0,
           "another seed passes on linear rows and identities")

    rows = target.read_text().splitlines()
    fields = rows[3].split(",")
    fields[-1] = str(int(fields[-1]) + 1)
    rows[3] = ",".join(fields)
    target.write_text("\n".join(rows) + "\n")
    for trace in (0, 1):
        code, lines = bench("--seed", "0", "--trace", str(trace),
                            "--expected-dir", str(expected_dir))
        result = result_of(lines)
        frac = [line for line in lines if line.startswith("failed_frac ")]
        expect(code != 0 and result["failed"] > 0 and not result["correct"]
               and frac and float(frac[0].split()[1]) > 0,
               f"--trace {trace}: a corrupted expected CSV fails the run")

    bare = SCRATCH / "bare"
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    code, lines = bench("--seed", "0", "--trace", "0", cwd=bare,
                        script=bare / run.BENCH_DIR.name / "run.py")
    expect(code != 0 and not any(line.startswith("{") for line in lines),
           "without the sources it fails and prints no result")
    shutil.rmtree(SCRATCH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
