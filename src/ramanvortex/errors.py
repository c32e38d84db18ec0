"""Exception hierarchy for the simulator.

Three families matter to callers: configuration problems (bad schema,
unknown keys), numerical guard trips (truncation, step size, convergence,
grid overflow, unusable diagnostics input), and plain I/O failures.  The
command line maps them to exit codes 2, 3 and 4 respectively.
"""


class SimulationError(Exception):
    """Base class for the package's errors, but for the ValueError that
    Grid2D, Grid2D.padded, LadderState and PhysicalParams raise."""


class ConfigError(SimulationError):
    """Invalid configuration. Carries every problem found, not just the first.

    Attributes:
        problems: list of human-readable strings, each prefixed with the
            dotted key path it refers to.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class GuardError(SimulationError):
    """Base class for numerical guard trips (CLI exit code 3)."""


class TruncationError(GuardError):
    """Population reached the edge of the momentum ladder.

    Raised after a pulse when the population of the +n_max or the -n_max
    order exceeds dynamics.EDGE_POPULATION_LIMIT. Raise n_max and rerun.
    """


class StepSizeError(GuardError):
    """Requested time step violates the per-substep phase budget."""


class ConvergenceError(GuardError):
    """Iterative relaxation failed to reach tolerance within its budget."""


class GridOverflowError(GuardError):
    """Expanded cloud reached the padded grid boundary.

    The message reports the padding factor that would have contained it.
    """


class DensityFloorError(GuardError):
    """A phase loop crossed a region with too little density to trust."""


class ContrastError(GuardError):
    """Angular contrast too low for a meaningful hole angle."""


class AmbiguousHoleError(GuardError):
    """No unique angular minimum (e.g. two symmetric minima)."""


class CalibrationError(GuardError):
    """Pulse calibration scan found no interior maximum in its range."""
