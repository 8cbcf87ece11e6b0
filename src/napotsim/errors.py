"""Exception types shared across the simulator."""


class CanonicalityError(ValueError):
    """Virtual address is not a sign-extended sv39 address."""


class MalformedNapotError(ValueError):
    """NAPOT-marked PTE whose shape does not encode a 64KB group."""


class SuperpageError(ValueError):
    """Leaf PTE above level 0; 2MB and 1GB pages are out of scope."""


class AlignmentError(ValueError):
    """Address or length violates the alignment its page size requires."""


class RegionOverlapError(ValueError):
    """Two mapped regions overlap in virtual address space."""


class UnmappedAccessError(RuntimeError):
    """A trace touched a virtual address with no mapping behind it."""


class InvariantError(RuntimeError):
    """Simulation counters broke one of their accounting identities."""


class ConfigError(ValueError):
    """Experiment configuration failed validation."""
