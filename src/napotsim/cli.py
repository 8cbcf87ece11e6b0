"""Command-line front end: run sweeps, export traces, validate configs."""

import argparse
import os
import sys
import time
from dataclasses import replace

from .engine import MEASUREMENT
from .errors import ConfigError
from .sweep import (
    DEFAULT_BASE_VA,
    ExperimentConfig,
    emit_csv,
    emit_plotdata,
    load_config,
    parse_int,
    parse_size,
    run_sweep,
)
from .workloads import (
    DEFAULT_MEASURED_ACCESSES,
    PATTERNS,
    WorkloadSpec,
    gen_trace,
    make_regions,
    write_trace,
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="napotsim",
        description="sv39 TLB hierarchy simulator with SVNAPOT 64KB pages",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment sweep and emit CSV")
    run_p.add_argument("--config", metavar="PATH",
                       help="INI experiment description (default: built-in grid)")
    run_p.add_argument("--out", metavar="PATH",
                       help="CSV output path (default from config)")
    run_p.add_argument("--plotdata", metavar="PATH",
                       help="also write per-series plot data as JSON")
    run_p.add_argument("--jobs", type=parse_int, default=1, metavar="N",
                       help="worker processes (default 1)")
    run_p.add_argument("--seed", type=parse_int, metavar="N",
                       help="override the sweep seed")
    run_p.add_argument("--include-warmup", action="store_true",
                       help="keep warm-up rows in the CSV")

    gen_p = sub.add_parser("gen-trace", help="write one workload trace to a file")
    gen_p.add_argument("--pattern", choices=PATTERNS, required=True)
    gen_p.add_argument("--chunk-bytes", required=True, metavar="SIZE",
                       help="chunk size, e.g. 4096, 64K, 8M")
    gen_p.add_argument("--accesses", type=parse_int, default=DEFAULT_MEASURED_ACCESSES,
                       metavar="N", help="measured accesses (default %(default)s)")
    gen_p.add_argument("--seed", type=parse_int, default=0, metavar="N")
    gen_p.add_argument("--base-va", default=hex(DEFAULT_BASE_VA), metavar="ADDR",
                       help="chunk base address (default %(default)s)")
    gen_p.add_argument("--out", required=True, metavar="PATH")

    val_p = sub.add_parser("validate", help="check an experiment config file")
    val_p.add_argument("--config", required=True, metavar="PATH")
    return parser


def _check_out_path(path):
    """Reject an output path that cannot be written, before any work starts."""
    if not path:
        raise ConfigError("output path is empty")
    if os.path.isdir(path):
        raise ConfigError(f"output path {path} is a directory")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"output path {path}: no directory {directory}")


def _cmd_run(args):
    if args.config:
        config = load_config(args.config)
    else:
        config = ExperimentConfig().validate()
    if args.seed is not None:
        config = replace(config, seed=args.seed).validate()
    if args.include_warmup:
        config = replace(config, include_warmup=True)
    out_path = args.out if args.out else config.out_path
    _check_out_path(out_path)
    if args.plotdata:
        _check_out_path(args.plotdata)
        if os.path.realpath(args.plotdata) == os.path.realpath(out_path):
            raise ConfigError(f"--plotdata {args.plotdata} is also the CSV output")
    started = time.monotonic()
    rows = run_sweep(config, jobs=args.jobs)
    elapsed = time.monotonic() - started
    if not config.include_warmup:
        out_rows = [row for row in rows if row.phase == MEASUREMENT]
    else:
        out_rows = rows
    emit_csv(out_rows, out_path)
    print(f"wrote {len(out_rows)} rows to {out_path} ({elapsed:.1f}s)")
    if args.plotdata:
        emit_plotdata(rows, args.plotdata)
        print(f"wrote plot data to {args.plotdata}")
    return 0


def _flag_value(flag, parse, text):
    """Parse one flag's text, naming the flag if the value is bad."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _cmd_gen_trace(args):
    spec = _flag_value(
        "--chunk-bytes",
        lambda text: WorkloadSpec(parse_size(text), args.pattern),
        args.chunk_bytes,
    )
    base_va = _flag_value("--base-va", parse_int, args.base_va)
    spec = _flag_value("--seed", lambda seed: replace(spec, seed=seed), args.seed)
    spec = _flag_value(
        "--accesses",
        lambda count: replace(spec, measured_accesses=count),
        args.accesses,
    )
    # the chunk must fit in a region run would map: canonical and aligned
    make_regions(spec, base_va, 0)
    _check_out_path(args.out)
    trace = gen_trace(spec, base_va)
    write_trace(trace, args.out)
    total = len(trace.warmup) + len(trace.measurement)
    print(f"wrote {total} accesses to {args.out}")
    return 0


def _cmd_validate(args):
    config = load_config(args.config)
    cells = config.cells()
    print(
        f"{args.config}: ok ({len(config.configs)} configs, "
        f"{len(config.chunk_sizes())} chunk sizes, {len(cells)} cells)"
    )
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "gen-trace": _cmd_gen_trace,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
