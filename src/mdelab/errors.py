"""Exception hierarchy shared by all modules.

ValidationError maps to CLI exit code 2, NumericalError to exit code 3.
"""

from __future__ import annotations


class MdeLabError(Exception):
    pass


class ValidationError(MdeLabError):
    """Bad input: malformed file, violated precondition, infeasible config."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class NumericalError(MdeLabError):
    """Run-time numerical failure (overflow, infeasible LP, violated bound)."""


class BoxOverflowError(NumericalError):
    """Lattice support left the [-N, N]^n box during evolution."""


class SupportBoundError(NumericalError):
    """A step left its a-priori support envelope: C was misdeclared."""


class SublinearityError(NumericalError):
    """Velocity bound |v| <= C*(1+|x|) violated by the declared constant."""
