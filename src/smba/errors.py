"""Exception types shared across the solver stack."""


class UnsupportedFamilyError(ValueError):
    """A ``DCProblem``'s P1 is none of the regularizers with an exact ball-prox
    solver (``REGULARIZERS`` in ``smba.problems``)."""


class InfeasibleStartError(ValueError):
    """A starting point (or trial state) violates strict feasibility."""


class NumericError(RuntimeError):
    """A numeric procedure failed (bracketing cap, eigensolver, divergence)."""
