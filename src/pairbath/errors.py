"""Shared error types, mapped to CLI exit codes by cli_runner, and the
memory check every engine runs before it allocates.

An extinct run is not an error: every engine stops before the first round
whose conditional probability is below the extinction floor, and reports
the rounds it kept; cmd_run exits 3 when they are fewer than it asked for.
"""

import os


class ConfigError(ValueError):
    """Invalid configuration or parameter set. Exit code 2."""


class CapacityError(RuntimeError):
    """Memory estimate exceeded before a run. Exit code 4."""


def require_memory(need: int, what: str, remedy: str) -> None:
    """Raise CapacityError if need bytes exceed the machine's physical memory.

    The message reads "<what> need about X GiB, more than the Y GiB of
    physical memory; <remedy>".
    """
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        from decimal import Decimal   # need can exceed the float range
        raise CapacityError(
            f"{what} need about {Decimal(need) / 2**30:.3g} GiB, more than the "
            f"{have / 2**30:.3g} GiB of physical memory; {remedy}")
