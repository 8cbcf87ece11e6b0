"""napotsim benchmark: sub-grids through the real CLI, checked cell by cell.

    python3 napotbench/run.py --workload l1-resident --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's src/ and nothing is installed. Every time is host time; the
simulated counters are checked, never timed. See napotbench/NOTES.md.

--trace 0 repeats `napotsim run --config <workload>.ini` in fresh processes
for --seconds (at least MIN_REPS times), interleaved with set-up probes, and
reports the median of each end-to-end metric.
--trace 1 runs the CLI once, then the same sub-grid serially in-process,
untraced and traced, plus the path microbenchmarks, and reports the
per-layer metrics. Either mode checks every CSV it gets and exits non-zero,
after printing its result line, when any cell is wrong.
"""

import argparse
import configparser
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".napotbench_out"
EXPECTED_DIR = BENCH_DIR / "expected"

MIN_REPS = 3
SETUP_EVERY = 3
PAGE_BYTES = 4096
PROCESS_TIMEOUT_S = 150

CSV_HEADER = (
    "config_id,pattern,chunk_bytes,phase,accesses,l1_hits,l1_misses,"
    "l2_hits,l2_misses,walks,walk_memory_reads,total_cycles"
)
PHASES = ("warmup", "measurement")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "accesses_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "engine.self_ns_per_access": "ns",
    "tlb.l2_lookup_calls": "count",
    "tlb.l2_lookup_ns": "ns",
    "tlb.l2_hit_frac": "ratio",
    "tlb.l2_hits_4k": "count",
    "tlb.l2_hits_napot": "count",
    "tlb.l1_insert_calls": "count",
    "tlb.l1_insert_ns": "ns",
    "tlb.l2_insert_calls": "count",
    "tlb.l2_insert_ns": "ns",
    "pagetable.walk_calls": "count",
    "pagetable.walk_ns": "ns",
    "pagetable.walk_self_ns": "ns",
    "pagetable.reads_per_walk": "ratio",
    "pagetable.walks_1read": "count",
    "pagetable.walks_2read": "count",
    "pagetable.walks_3read": "count",
    "pagetable.walk_1read_ns": "ns",
    "pagetable.walk_2read_ns": "ns",
    "pagetable.walk_3read_ns": "ns",
    "pagetable.ptw_cache_hit_frac": "ratio",
    "pagetable.ptw_cache_get_calls": "count",
    "pagetable.ptw_cache_get_ns": "ns",
    "pagetable.ptw_cache_put_calls": "count",
    "pagetable.ptw_cache_put_ns": "ns",
    "pagetable.walk_faults": "count",
    "sv39.decode_pte_calls": "count",
    "sv39.decode_pte_ns": "ns",
    "workloads.gen_trace_s": "s",
    "pagetable.build_s": "s",
    "pagetable.ptes_written": "count",
    "sweep.cell_s_p50": "s",
    "sweep.cell_s_max": "s",
    "sweep.worker_busy_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "path.l1_hit_ns": "ns",
    "path.l2_hit_4k_ns": "ns",
    "path.l2_hit_napot_ns": "ns",
    "path.walk_cold_ns": "ns",
    "path.walk_warm_ns": "ns",
}


# Each check sees one measurement row as a dict of ints and states what the
# workload was built to make every cell do; see the INI files for why.
def _all_l1_hits(row):
    return row["l1_hits"] == row["accesses"]


def _no_walks(row):
    return row["walks"] == 0


def _walk_heavy(row):
    return 4 * row["walks"] >= row["accesses"]


WORKLOADS = {
    "l1-resident": {"jobs": 1, "invariant": _all_l1_hits},
    "l2-resident": {"jobs": 1, "invariant": _no_walks},
    "walk-bound": {"jobs": 1, "invariant": _walk_heavy},
    "grid-jobs2": {"jobs": 2, "invariant": None},
}


def out_dir(workload, seed, trace):
    return OUT_ROOT / f"{workload}-s{seed}-t{trace}"


def expected_path(expected_dir, workload, accesses, seed):
    return Path(expected_dir) / f"{workload}-a{accesses}-s{seed}.csv"


def _env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _fail(message):
    print(f"napotbench: {message}", file=sys.stderr)
    sys.exit(2)


def timed_process(cmd, log_path):
    """Run cmd to completion; returns (exit code, wall s, cpu s, peak RSS MB).

    os.wait4 reports the child's rusage including every descendant it
    reaped, so pool workers count in cpu and in the peak RSS.
    """
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_env(), stdout=log, stderr=subprocess.STDOUT
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024


def probe(args, log_path):
    """Run an inproc.py subcommand; returns its JSON result line."""
    cmd = [sys.executable, str(BENCH_DIR / "inproc.py")] + args
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
        timeout=PROCESS_TIMEOUT_S,
    )
    Path(log_path).write_text(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        _fail(f"inproc.py {args[0]} exited {proc.returncode}; see {log_path}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Grid:
    """The workload's cells and the counter identities every row obeys."""

    def __init__(self, ini_path, seed):
        sys.path.insert(0, str(SRC))
        from napotsim import load_config

        self.config = replace(load_config(str(ini_path)), seed=seed).validate()
        if not self.config.include_warmup:
            _fail(f"{ini_path} must set include_warmup = true")
        self.cells = [
            (tlb.config_id, pattern, chunk)
            for tlb, pattern, chunk in self.config.cells()
        ]
        self.accesses = sum(
            chunk // PAGE_BYTES + self.config.measured_accesses
            for _, _, chunk in self.cells
        )

    def row_ok(self, row, chunk):
        lat = self.config.latency
        want = {
            "warmup": chunk // PAGE_BYTES,
            "measurement": self.config.measured_accesses,
        }[row["phase"]]
        return (
            row["accesses"] == want
            and row["l1_hits"] + row["l1_misses"] == row["accesses"]
            and row["l2_hits"] + row["l2_misses"] == row["l1_misses"]
            and row["walks"] == row["l2_misses"]
            and row["walks"] <= row["walk_memory_reads"] <= 3 * row["walks"]
            and row["total_cycles"]
            == row["accesses"] * lat.l1_hit_cycles
            + row["l1_misses"] * lat.l2_lookup_cycles
            + row["walk_memory_reads"] * lat.mem_read_cycles
        )


def parse_rows(text):
    """CSV text -> {(config_id, pattern, chunk, phase): line}, or None."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return None
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        try:
            key = (int(fields[0]), fields[1], int(fields[2]), fields[3])
        except (IndexError, ValueError):
            return None
        if key in rows:
            return None
        rows[key] = line
    return rows


def _row_dict(line):
    names = CSV_HEADER.split(",")
    fields = line.split(",")
    if len(fields) != len(names):
        return None
    row = dict(zip(names, fields))
    try:
        for name in names[4:]:
            row[name] = int(row[name])
    except ValueError:
        return None
    return row


def failed_cells(text, grid, invariant, expected, linear_expected):
    """Cells whose rows are missing, differ from the expected ones, or break
    a counter identity or the workload's invariant.

    `expected` holds rows at this seed; `linear_expected` rows at seed 0,
    which linear cells must match at any seed since their traces ignore it.
    """
    rows = parse_rows(text)
    if (
        rows is None
        or set(rows) - {c + (p,) for c in grid.cells for p in PHASES}
        or (expected is not None and list(rows) != list(expected))
    ):
        return set(grid.cells)
    failed = set()
    for cell in grid.cells:
        for phase in PHASES:
            key = cell + (phase,)
            line = rows.get(key)
            row = _row_dict(line) if line is not None else None
            reference = expected
            if reference is None and cell[1] == "linear":
                reference = linear_expected
            if (
                row is None
                or (reference is not None and reference.get(key) != line)
                or not grid.row_ok(row, cell[2])
                or (phase == "measurement" and invariant and not invariant(row))
            ):
                failed.add(cell)
    return failed


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _load_expected(expected_dir, workload, accesses, seed):
    path = expected_path(expected_dir, workload, accesses, seed)
    if not path.is_file():
        return None
    return parse_rows(path.read_text())


def _ini_for(workload, accesses, work):
    """The workload's INI, rewritten with another access count if asked."""
    ini = BENCH_DIR / "workloads" / f"{workload}.ini"
    if accesses is None:
        return ini
    parser = configparser.ConfigParser()
    parser.read(ini)
    parser["sweep"]["measured_accesses"] = str(accesses)
    copy = work / f"{workload}.ini"
    with open(copy, "w") as f:
        parser.write(f)
    return copy


def cli_command(ini, csv_path, seed, jobs):
    cmd = [sys.executable, "-m", "napotsim.cli", "run", "--config", str(ini),
           "--out", str(csv_path), "--seed", str(seed)]
    if jobs > 1:
        cmd += ["--jobs", str(jobs)]
    return cmd


def run_cli(ini, work, seed, jobs, grid, check):
    csv_path = work / "cli.csv"
    if csv_path.exists():
        csv_path.unlink()
    code, wall, cpu, rss = timed_process(
        cli_command(ini, csv_path, seed, jobs), work / "cli.log"
    )
    text = csv_path.read_text() if code == 0 and csv_path.exists() else ""
    failed = check(text) if code == 0 else set(grid.cells)
    return {"wall": wall, "cpu": cpu, "rss": rss, "text": text, "failed": failed}


def measure_end_to_end(args, ini, work, grid, check):
    """CLI reps until --seconds have passed, with a set-up probe after every
    SETUP_EVERY-th rep (and after each of the first MIN_REPS), so that both
    sample the host's speed over the same stretch of time."""
    jobs = WORKLOADS[args.workload]["jobs"]
    setup_cmd = ["setup", "--config", str(ini), "--seed", str(args.seed)]
    setups = []
    reps = []
    deadline = time.perf_counter() + args.seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        reps.append(run_cli(ini, work, args.seed, jobs, grid, check))
        if len(setups) < MIN_REPS or len(reps) % SETUP_EVERY == 0:
            setups.append(probe(setup_cmd, work / "setup.log")["setup_s"])
    samples = {
        "wall_s": [r["wall"] for r in reps],
        "cpu_s": [r["cpu"] for r in reps],
        "accesses_per_s": [grid.accesses / r["wall"] for r in reps],
        "peak_rss_mb": [r["rss"] for r in reps],
        "setup_s": setups,
    }
    failed = sum(len(r["failed"]) for r in reps)
    attempted = len(grid.cells) * len(reps)
    return samples, attempted, failed


def _ns(agg):
    return agg[1] / agg[0] if agg and agg[0] else 0.0


def measure_layers(args, ini, work, grid, check):
    jobs = WORKLOADS[args.workload]["jobs"]
    untraced = run_cli(ini, work, args.seed, jobs, grid, check)
    common = ["--config", str(ini), "--seed", str(args.seed)]
    plain = probe(["sweep"] + common + ["--csv", str(work / "plain.csv")],
                  work / "plain.log")
    traced = probe(
        ["sweep"] + common
        + ["--csv", str(work / "traced.csv"), "--spans", str(work / "spans.json")],
        work / "traced.log",
    )
    paths = probe(["paths"], work / "paths.log")

    failed = set(untraced["failed"])
    cli_rows = parse_rows(untraced["text"]) or {}
    for name in ("plain.csv", "traced.csv"):
        rows = parse_rows((work / name).read_text()) or {}
        for cell in grid.cells:
            for phase in PHASES:
                key = cell + (phase,)
                if key not in cli_rows or rows.get(key) != cli_rows[key]:
                    failed.add(cell)
    problems = traced["problems"] + paths["problems"]
    for problem in problems:
        print(f"check failed: {problem}")

    aggs = traced["aggregates"]
    counts = traced["counts"]
    walks = aggs["walk"][0]
    lookups = aggs["l2_lookup"][0]
    cells = sorted(traced["cell_s"])
    metrics = {
        "engine.self_ns_per_access": aggs["run_trace"][2] / counts["accesses"],
        "tlb.l2_lookup_calls": lookups,
        "tlb.l2_lookup_ns": _ns(aggs["l2_lookup"]),
        "tlb.l2_hit_frac": (
            (counts.get("l2_hits_4k", 0) + counts.get("l2_hits_napot", 0)) / lookups
            if lookups else 0.0
        ),
        "tlb.l2_hits_4k": counts.get("l2_hits_4k", 0),
        "tlb.l2_hits_napot": counts.get("l2_hits_napot", 0),
        "tlb.l1_insert_calls": aggs["l1_insert"][0],
        "tlb.l1_insert_ns": _ns(aggs["l1_insert"]),
        "tlb.l2_insert_calls": aggs["l2_insert"][0],
        "tlb.l2_insert_ns": _ns(aggs["l2_insert"]),
        "pagetable.walk_calls": walks,
        "pagetable.walk_ns": _ns(aggs["walk"]),
        "pagetable.walk_self_ns": aggs["walk"][2] / walks if walks else 0.0,
        "pagetable.reads_per_walk": (
            counts.get("walk_reads", 0) / walks if walks else 0.0
        ),
        "pagetable.ptw_cache_hit_frac": (
            counts.get("walk_cache_hit", 0) / walks if walks else 0.0
        ),
        "pagetable.ptw_cache_get_calls": aggs["ptw_cache_get"][0],
        "pagetable.ptw_cache_get_ns": _ns(aggs["ptw_cache_get"]),
        "pagetable.ptw_cache_put_calls": aggs["ptw_cache_put"][0],
        "pagetable.ptw_cache_put_ns": _ns(aggs["ptw_cache_put"]),
        "pagetable.walk_faults": counts.get("walk_faults", 0),
        "sv39.decode_pte_calls": aggs["decode_pte"][0],
        "sv39.decode_pte_ns": _ns(aggs["decode_pte"]),
        "workloads.gen_trace_s": traced["gen_trace_s"],
        "pagetable.build_s": traced["build_s"],
        "pagetable.ptes_written": counts.get("ptes_written", 0),
        "sweep.cell_s_p50": statistics.median(cells),
        "sweep.cell_s_max": cells[-1],
        "sweep.worker_busy_frac": untraced["cpu"] / (jobs * untraced["wall"]),
        "trace.overhead_frac": traced["sweep_s"] / plain["sweep_s"] - 1,
    }
    for reads in (1, 2, 3):
        agg = aggs.get(f"walk_{reads}read")
        metrics[f"pagetable.walks_{reads}read"] = agg[0] if agg else 0
        metrics[f"pagetable.walk_{reads}read_ns"] = _ns(agg)
    for name in PER_LAYER:
        if name.startswith("path."):
            metrics[name] = paths[name]
    return metrics, len(grid.cells), len(failed), not problems


def main(argv=None):
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--accesses", type=int,
                        help="override the workload's measured accesses per cell")
    parser.add_argument("--expected-dir", default=str(EXPECTED_DIR),
                        help="where <workload>-a<accesses>-s<seed>.csv files live")
    args = parser.parse_args(argv)

    if not (SRC / "napotsim" / "__init__.py").is_file():
        _fail(f"no napotsim sources under {SRC}; run from a full checkout")
    work = out_dir(args.workload, args.seed, args.trace)
    work.mkdir(parents=True, exist_ok=True)
    ini = _ini_for(args.workload, args.accesses, work)
    grid = Grid(ini, args.seed)
    accesses = grid.config.measured_accesses
    expected = _load_expected(args.expected_dir, args.workload, accesses, args.seed)
    linear_expected = _load_expected(args.expected_dir, args.workload, accesses, 0)
    invariant = WORKLOADS[args.workload]["invariant"]
    print(f"workload {args.workload}: {len(grid.cells)} cells, {accesses} measured "
          f"accesses each, seed {args.seed}, expected CSV "
          f"{'at this seed' if expected else 'absent: identities only'}")

    def check(text):
        return failed_cells(text, grid, invariant, expected, linear_expected)

    if args.trace:
        metrics, attempted, failed, consistent = measure_layers(
            args, ini, work, grid, check
        )
        units = PER_LAYER
        for name, value in metrics.items():
            print(f"{name:32s} {value:16.6g} {units[name]}")
    else:
        samples, attempted, failed = measure_end_to_end(args, ini, work, grid, check)
        consistent = True
        units = END_TO_END
        metrics = {}
        for name, values in samples.items():
            metrics[name] = statistics.median(values)
            q1, q3 = _quartiles(values)
            print(f"{name:16s} median {metrics[name]:.6g} {units[name]} "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} cells)")
    correct = failed == 0 and consistent
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
