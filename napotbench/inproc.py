"""In-process probes that run.py starts, each in a fresh interpreter.

    python3 napotbench/inproc.py setup --config W.ini --seed N
    python3 napotbench/inproc.py sweep --config W.ini --seed N --csv OUT [--spans OUT]
    python3 napotbench/inproc.py paths

Each prints one JSON object on its last stdout line. `setup` times
everything a sweep does before its first translation. `sweep` runs the
sub-grid serially through napotsim.run_sweep; with --spans it first wraps
the public functions of every layer and records per-call aggregates and
one span per cell stage. `paths` times the five translation paths on fixed
inputs. The caller puts the checkout's src/ on PYTHONPATH.
"""

import argparse
import json
import os
import statistics
import sys
import time
from dataclasses import replace

clock_ns = time.perf_counter_ns
PATH_REPEATS = 5


def _load(config_path, seed):
    from napotsim import load_config

    config = load_config(config_path)
    return replace(config, seed=seed).validate()


def _emit(doc):
    print(json.dumps(doc), flush=True)


def cmd_setup(args):
    """Mirror of run_sweep's serial path up to, not including, run_trace."""
    started = time.perf_counter()
    import napotsim
    from napotsim.sweep import cell_seed

    config = _load(args.config, args.seed)
    by_point = {}
    for tlb, pattern, chunk in config.cells():
        by_point.setdefault((pattern, chunk), []).append(tlb)
    sims = 0
    for (pattern, chunk), tlbs in by_point.items():
        seed = cell_seed(config.seed, pattern, chunk)
        spec = napotsim.WorkloadSpec(
            chunk, pattern, seed=seed, measured_accesses=config.measured_accesses
        )
        trace = napotsim.gen_trace(spec, config.base_va)
        for tlb in tlbs:
            cell_spec = replace(spec, page_size=tlb.page_size)
            regions = napotsim.make_regions(cell_spec, config.base_va, config.base_ppn)
            napotsim.Simulation(
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
            sims += 1
        del trace
    _emit({"setup_s": time.perf_counter() - started, "simulations": sims})
    # skip interpreter teardown, which is not part of set-up
    os._exit(0)


class Tracer:
    """Wraps functions, keeping per-name aggregates and cell-stage spans.

    Aggregates are [calls, total ns, self ns]; self ns is total ns minus the
    time spent in wrapped callees, so a parent's self time still includes the
    tracer's own bookkeeping around each wrapped child call.
    """

    def __init__(self):
        self.aggs = {}
        self.counts = {}
        self.spans = []
        self._child_ns = [0]
        self._open_spans = []
        self.cell = None
        self.page_kind = None

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, span=False, before=None, after=None):
        agg = self.aggs.setdefault(name, [0, 0, 0])
        child_ns = self._child_ns
        spans = self.spans
        open_spans = self._open_spans

        def wrapped(*args, **kwargs):
            if before is not None:
                before(args)
            if span:
                parent = open_spans[-1] if open_spans else None
                index = len(spans)
                spans.append([name, 0, 0, parent, self.cell])
                open_spans.append(index)
            child_ns.append(0)
            start = clock_ns()
            result = fn(*args, **kwargs)
            end = clock_ns()
            elapsed = end - start
            inner = child_ns.pop()
            child_ns[-1] += elapsed
            agg[0] += 1
            agg[1] += elapsed
            agg[2] += elapsed - inner
            if span:
                open_spans.pop()
                spans[index][1] = start
                spans[index][2] = end
            if after is not None:
                after(args, result, elapsed)
            return result

        return wrapped


def install(tracer):
    """Wrap each layer's public calls where its callers look them up.

    Must run before any Simulation exists: the engine binds the TLB methods
    when a phase starts and looks up walk/build_page_tables as module
    globals, and the walker looks up decode_pte the same way.
    """
    from napotsim import engine, pagetable, sweep, tlb
    from napotsim.sv39 import PageSize

    page_kind = {PageSize.PAGE_4K: "4k", PageSize.PAGE_64K: "napot"}

    def enter_cell(args):
        _, tlb_cfg, pattern, chunk = args[:4]
        tracer.cell = [tlb_cfg.config_id, pattern, chunk]
        tracer.page_kind = page_kind[tlb_cfg.page_size]

    def leave_cell(args, result, elapsed):
        tracer.cell = None

    def after_lookup(args, result, elapsed):
        if result is not None:
            tracer.count("l2_hits_" + tracer.page_kind)

    def after_walk(args, result, elapsed):
        reads = result.memory_reads
        agg = tracer.aggs.setdefault(f"walk_{reads}read", [0, 0, 0])
        agg[0] += 1
        agg[1] += elapsed
        tracer.count("walk_reads", reads)
        if result.cache_hits > 0:
            tracer.count("walk_cache_hit")
        if result.faulted:
            tracer.count("walk_faults")

    def after_build(args, result, elapsed):
        tracer.count("ptes_written", len(result[0]))

    def after_run_trace(args, result, elapsed):
        trace = args[1]
        tracer.count("accesses", len(trace.warmup) + len(trace.measurement))

    w = tracer.wrap
    sweep.run_sweep = w("run_sweep", sweep.run_sweep, span=True)
    sweep.run_cell = w(
        "run_cell", sweep.run_cell, span=True, before=enter_cell, after=leave_cell
    )
    sweep.gen_trace = w("gen_trace", sweep.gen_trace, span=True)
    engine.build_page_tables = w(
        "build_page_tables", engine.build_page_tables, span=True, after=after_build
    )
    engine.Simulation.run_trace = w(
        "run_trace", engine.Simulation.run_trace, span=True, after=after_run_trace
    )
    tlb.L1Dtlb.insert = w("l1_insert", tlb.L1Dtlb.insert)
    tlb.L2Tlb.lookup = w("l2_lookup", tlb.L2Tlb.lookup, after=after_lookup)
    tlb.L2Tlb.insert = w("l2_insert", tlb.L2Tlb.insert)
    engine.walk = w("walk", engine.walk, after=after_walk)
    pagetable.decode_pte = w("decode_pte", pagetable.decode_pte)
    pagetable.PtwCache.get = w("ptw_cache_get", pagetable.PtwCache.get)
    pagetable.PtwCache.put = w("ptw_cache_put", pagetable.PtwCache.put)
    return sweep.run_sweep


def _csv_sums(rows):
    columns = ("accesses", "l1_misses", "l2_hits", "walks", "walk_memory_reads")
    return {c: sum(getattr(r, c) for r in rows) for c in columns}


def _consistency(tracer, sums):
    """Traced call counts that must equal the CSV's own counters."""
    calls = {name: agg[0] for name, agg in tracer.aggs.items()}
    counts = tracer.counts
    pairs = [
        ("run_trace accesses", counts.get("accesses", 0), sums["accesses"]),
        ("L2 lookups", calls["l2_lookup"], sums["l1_misses"]),
        ("L1 inserts", calls["l1_insert"], sums["l1_misses"]),
        ("L2 hits", counts.get("l2_hits_4k", 0) + counts.get("l2_hits_napot", 0),
         sums["l2_hits"]),
        ("walks", calls["walk"], sums["walks"]),
        ("L2 inserts", calls["l2_insert"], sums["walks"]),
        ("walk reads", counts.get("walk_reads", 0), sums["walk_memory_reads"]),
    ]
    return [
        f"{what}: traced {got} != csv {want}" for what, got, want in pairs
        if got != want
    ]


def cmd_sweep(args):
    tracer = None
    if args.spans:
        tracer = Tracer()
        run_sweep = install(tracer)
    else:
        from napotsim import run_sweep
    from napotsim import MEASUREMENT, emit_csv

    config = _load(args.config, args.seed)
    started = time.perf_counter()
    rows = run_sweep(config, jobs=1)
    sweep_s = time.perf_counter() - started
    if not config.include_warmup:
        rows = [row for row in rows if row.phase == MEASUREMENT]
    emit_csv(rows, args.csv)
    doc = {"sweep_s": sweep_s}
    if tracer is not None:
        doc["aggregates"] = tracer.aggs
        doc["counts"] = tracer.counts
        doc["problems"] = _consistency(tracer, _csv_sums(rows))
        cells = [s for s in tracer.spans if s[0] == "run_cell"]
        doc["cell_s"] = [(s[2] - s[1]) / 1e9 for s in cells]
        doc["gen_trace_s"] = tracer.aggs["gen_trace"][1] / 1e9
        doc["build_s"] = tracer.aggs["build_page_tables"][1] / 1e9
        with open(args.spans, "w") as f:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "cell"],
                 "spans": tracer.spans},
                f,
            )
    _emit(doc)


def _median_ns(fn, n):
    return statistics.median(fn(n) / n for _ in range(PATH_REPEATS))


def cmd_paths(args):
    """ns per access on each translation path, through public calls only."""
    from napotsim import (
        AccessTrace,
        PageSize,
        PtwCache,
        RegionSpec,
        Simulation,
        build_page_tables,
        walk,
    )

    base_va = 0x4000_0000
    base_ppn = 0x10_0000
    problems = []

    def region(pages, page_size):
        return [RegionSpec(base_va, pages << 12, page_size, base_ppn)]

    def engine_path(pages, page_size, counter):
        """Warm a 16-way hierarchy, then time only cyclic passes over pages.

        Up to 32 pages stay in the L1. With more, cyclic LRU order makes
        every access miss L1; up to 1024 fit in L2, so each one hits there.
        """
        vas = [base_va + (i << 12) for i in range(pages)]

        def run(n):
            sim = Simulation(region(pages, page_size), ways=16)
            sim.run_trace(AccessTrace(vas, []))
            before = getattr(sim.stats.measurement, counter)
            trace = AccessTrace([], [vas[i % pages] for i in range(n)])
            start = clock_ns()
            sim.run_trace(trace)
            elapsed = clock_ns() - start
            if getattr(sim.stats.measurement, counter) - before != n:
                problems.append(f"{counter} path: not every access took it")
            return elapsed

        return run

    mem, root = build_page_tables(region(64, PageSize.PAGE_4K))
    va = base_va + (5 << 12)

    def walk_cold(n):
        caches = [PtwCache() for _ in range(n)]
        start = clock_ns()
        for cache in caches:
            result = walk(root, mem, cache, va)
        elapsed = clock_ns() - start
        if result.memory_reads != 3:
            problems.append("cold walk did not take 3 reads")
        return elapsed

    def walk_warm(n):
        cache = PtwCache()
        walk(root, mem, cache, va)
        start = clock_ns()
        for _ in range(n):
            result = walk(root, mem, cache, va)
        elapsed = clock_ns() - start
        if result.memory_reads != 1:
            problems.append("warm walk did not take 1 read")
        return elapsed

    doc = {
        "path.l1_hit_ns": _median_ns(
            engine_path(16, PageSize.PAGE_4K, "l1_hits"), 400_000
        ),
        "path.l2_hit_4k_ns": _median_ns(
            engine_path(64, PageSize.PAGE_4K, "l2_hits"), 60_000
        ),
        "path.l2_hit_napot_ns": _median_ns(
            engine_path(64, PageSize.PAGE_64K, "l2_hits"), 60_000
        ),
        "path.walk_cold_ns": _median_ns(walk_cold, 30_000),
        "path.walk_warm_ns": _median_ns(walk_warm, 30_000),
        "problems": problems,
    }
    _emit(doc)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="inproc.py")
    sub = parser.add_subparsers(dest="command", required=True)
    setup_p = sub.add_parser("setup")
    sweep_p = sub.add_parser("sweep")
    for p in (setup_p, sweep_p):
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, required=True)
    sweep_p.add_argument("--csv", required=True)
    sweep_p.add_argument("--spans", help="trace the run and write spans here")
    sub.add_parser("paths")
    args = parser.parse_args(argv)
    {"setup": cmd_setup, "sweep": cmd_sweep, "paths": cmd_paths}[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
