"""Shared error types, mapped to CLI exit codes by cli_runner."""


class ConfigError(ValueError):
    """Invalid configuration or parameter set. Exit code 2."""


class ExtinctionError(RuntimeError):
    """A dense conditional round's probability fell below the extinction floor.

    run_protocol catches it and ends the trajectory with status "extinct";
    the CLI exits 3 on that status, whatever the engine.
    """

    def __init__(self, probability: float):
        self.probability = probability
        super().__init__(f"trajectory extinct: conditional probability "
                         f"{probability:.3e} below floor")


class CapacityError(RuntimeError):
    """Branch cap or memory estimate exceeded before a run. Exit code 4."""
