"""Exception types shared across the package.

Two failure families map onto the CLI exit codes: bad input (exit 2)
and numerical failure (exit 3).
"""


class KronredError(Exception):
    """Base class for all package errors."""


class InputError(KronredError):
    """Invalid input: schema violations, broken invariants, bad parameters."""


class HomogeneityError(InputError):
    """The closed form needs one damping ratio d/m over the slow buses; simulation does not."""


class NumericsError(KronredError):
    """Numerical failure: divergence, singular/indefinite matrices, instability."""
