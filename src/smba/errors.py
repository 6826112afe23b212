"""Exception types shared across the solver stack."""


class UnsupportedFamilyError(ValueError):
    """Requested a cone family or parameterization that is not implemented."""


class InfeasibleStartError(ValueError):
    """A starting point (or trial state) violates strict feasibility."""


class NumericError(RuntimeError):
    """A numeric procedure failed (bracketing cap, eigensolver, divergence)."""
