"""Trace-driven simulator of an sv39 TLB hierarchy with SVNAPOT 64KB pages."""

from .engine import (
    L1_HIT,
    L2_HIT,
    MEASUREMENT,
    WALK,
    WARMUP,
    CyclicPhase,
    Hierarchy,
    LatencyModel,
    PhaseStats,
    RandomPhase,
    Simulation,
    SimStats,
    TranslationOutcome,
)
from .errors import (
    AlignmentError,
    CanonicalityError,
    ConfigError,
    InvariantError,
    MalformedNapotError,
    RegionOverlapError,
    SuperpageError,
    UnmappedAccessError,
)
from .pagetable import (
    PtwCache,
    RegionSpec,
    WalkResult,
    build_page_tables,
    walk,
)
from .sv39 import PageSize, napot_translate
from .sweep import (
    ExperimentConfig,
    ResultRow,
    TlbConfig,
    emit_csv,
    emit_plotdata,
    load_config,
    run_cell,
    run_sweep,
)
from .tlb import L1Dtlb, L2Tlb, LruCache
from .workloads import (
    AccessTrace,
    WorkloadSpec,
    gen_trace,
    make_regions,
    read_trace,
    write_trace,
)

__version__ = "0.1.0"
