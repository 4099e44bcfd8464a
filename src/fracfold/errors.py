"""Exception types shared across the package."""


class GridError(ValueError):
    """Invalid grid construction parameters."""


class AssemblyError(RuntimeError):
    """Assembled operator violates a structural invariant."""


class ConvergenceError(RuntimeError):
    """An iterative solve did not reach its tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class BracketViolation(RuntimeError):
    """A solve left the order bounds it must keep, such as its subsolution."""
