"""Exception types shared across the simulator."""

from contextlib import contextmanager


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
    """A config value or a command-line flag was rejected; the message names it."""


@contextmanager
def labelled(label):
    """Re-raise a ValueError from the block as a ConfigError that starts with
    label, the key, row or flag the block reads.

    A ConfigError is a ValueError too, so blocks must not nest: the outer
    label would be added a second time.
    """
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{label} {exc}") from None
