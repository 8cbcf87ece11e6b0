"""Linear rows against their closed form, at an odd access count.

The acceptance grid checks every linear row at 1M measured accesses, which
is a whole number of periods for every chunk up to 256KB. Here the count
is odd, so no phase of two or more pages ends on a period boundary, and
at 256MB the phase is shorter than one period.
"""

from dataclasses import replace

from linear_oracle import count_pages, linear_counters
from napotsim.sv39 import PageSize
from napotsim.sweep import DEFAULT_CONFIGS, ExperimentConfig, run_sweep

ODD_ACCESSES = 40_009


def test_count_pages_counts_remainders():
    for n in (0, 1, 15, 16, 17, 100, 1000, 1025):
        for pages in (1, 16, 32, 64, 1024):
            for every in (1, 16, 512):
                want = sum((i % pages) % every == 0 for i in range(n))
                assert count_pages(n, pages, every) == want, (n, pages, every)


def test_linear_rows_at_an_odd_access_count():
    config = ExperimentConfig(
        configs=tuple(replace(c, patterns=("linear",)) for c in DEFAULT_CONFIGS),
        measured_accesses=ODD_ACCESSES,
    )
    by_id = {c.config_id: c for c in config.configs}
    rows = run_sweep(config)
    assert len(rows) == 2 * len(config.cells()) == 136
    for row in rows:
        tlb = by_id[row.config_id]
        want = linear_counters(
            row.chunk_bytes, tlb.page_size == PageSize.PAGE_64K, tlb.ways,
            ODD_ACCESSES,
        )[row.phase]
        got = {name: getattr(row, name) for name in want}
        assert got == want, (row.config_id, row.chunk_bytes, row.phase)
