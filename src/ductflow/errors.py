"""Exception types shared across the package."""


class ScenarioError(ValueError):
    """Invalid scenario file or configuration value."""


class RegimeError(ValueError):
    """Requested parameters fall outside the admissible cutoff regime."""


class SolvabilityError(ValueError):
    """Neumann problem data violates the zero-mean solvability condition."""


class AliasingError(ValueError):
    """Requested modes exceed the quadrature grid's dealiased band."""


class NumericalAbort(RuntimeError):
    """Time integration produced non-finite state; carries diagnostics: the
    time t and the coefficient blocks c and dcoef of the last sample kept."""

    def __init__(self, message, t=None, c=None, dcoef=None):
        super().__init__(message)
        self.t, self.c, self.dcoef = t, c, dcoef
