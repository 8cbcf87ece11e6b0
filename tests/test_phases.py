"""The compact phase forms gen_trace hands the engine, against the naive
reference translator.

test_reference's compact cases: one region of either page size, odd L1
sizes, and a measurement phase that is a CyclicPhase, run through run_trace
as a list, as the CyclicPhase, as a uint64 memoryview, as a RandomPhase
over the period (the form gen_trace gives a random phase) and as a
RandomPhase over the whole region, which no L1 holds. Each run must give
reference_run's counters and final L1, L2 and walk-cache order. Floors:
bulk >= 30 (a phase past one period, all L1 hits: the bulk L1 step's scan
of the last period), random_bulk >= 45 (a non-empty phase whose period the
warm-up left in the L1, so that its RandomPhase takes the bulk step) and
partial_warmup >= 60 (a phase whose first page the warm-up left resident,
but which misses too).
"""

from test_reference import check_trials

COMPACT_TRIALS = 300


def test_compact_phases_run_as_their_lists():
    seen, _ = check_trials(2406, COMPACT_TRIALS, compact=True)
    assert seen["bulk"] >= 30, seen["bulk"]
    assert seen["random_bulk"] >= 45, seen["random_bulk"]
    assert seen["partial_warmup"] >= 60, seen["partial_warmup"]
