"""Shared error types, mapped to CLI exit codes by cli_runner, and the
memory check every engine runs before it allocates."""

import os


class ConfigError(ValueError):
    """Invalid configuration or parameter set. Exit code 2."""


class ExtinctionError(RuntimeError):
    """A dense conditional round's probability fell below the extinction floor.

    apply_projection raises it; run_protocol ends the trajectory before such
    a round with status "extinct", and the CLI exits 3 on it, whatever the engine.
    final_state_by_squaring raises it when the cumulative probability of
    all rounds is below the floor, which leaves open whether a single
    round was.
    """

    def __init__(self, probability: float):
        self.probability = probability
        super().__init__(f"trajectory extinct: probability "
                         f"{probability:.3e} below floor")


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
