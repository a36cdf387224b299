"""Exception types shared across the package."""


class PosinvError(Exception):
    """Base class for all package errors."""


class ModelError(PosinvError):
    """Invalid model input: bad file syntax, dimension mismatch, contract violation."""


class NumericsError(PosinvError):
    """A numerical routine failed: non-convergence, overflow, degenerate system."""


class SolverError(NumericsError):
    """Scalar solver failed; ``bracket`` is an interval (lo, hi) that holds the root."""

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class IntegrationError(NumericsError):
    """A trajectory step failed; carries the partial trajectory, the step's error as ``__cause__``."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory
