"""Exception hierarchy shared by all arnagg modules.

Two families matter to callers: :class:`InputError` covers anything wrong
with data handed to the library (bad matrices, shape mismatches, unparsable
files) and maps to CLI exit code 2, while :class:`NumericalError` covers
failures of the numerics themselves (an eigenvalue iteration that does
not converge, a stationary vector that refuses to be real) and maps to
exit code 3.
"""


class ArnaggError(Exception):
    """Base class for all arnagg errors."""


class InputError(ArnaggError):
    """Invalid input data or configuration."""


class NumericalError(ArnaggError):
    """A numerical procedure failed to produce a usable result."""


class RowSumViolation(InputError):
    def __init__(self, row, row_sum):
        self.row = row
        self.row_sum = row_sum
        super().__init__(f"row {row} sums to {row_sum!r}, expected 1 within tolerance")


class GeneratorRowSumViolation(InputError):
    def __init__(self, row, row_sum):
        self.row = row
        self.row_sum = row_sum
        super().__init__(f"row {row} of generator sums to {row_sum!r}, expected 0 within tolerance")


class NegativeEntry(InputError):
    def __init__(self, row, col, value=None):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(f"entry ({row}, {col}) is negative beyond tolerance")


class GammaTooSmall(InputError):
    def __init__(self, gamma, required):
        self.gamma = gamma
        self.required = required
        super().__init__(f"gamma={gamma!r} is below the largest diagonal magnitude {required!r}")


class DimensionMismatch(InputError):
    pass


class EmptyInput(InputError):
    pass


class ParseError(InputError):
    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ShapeError(InputError):
    pass


class ZeroInitialVector(InputError):
    pass


class ZeroVector(InputError):
    pass


class EpsilonOutOfRange(InputError):
    pass


class InvalidCoupling(InputError):
    pass


class MissingStationary(InputError):
    pass


class NoConvergence(NumericalError):
    """LAPACK's eigenvalue or Schur iteration failed to converge."""

    def __init__(self, detail):
        super().__init__(f"eigenvalue computation did not converge ({detail})")


class ComplexStationary(NumericalError):
    """The eigenvalue selected for the stationary vector is complex."""

    def __init__(self, imag_magnitude):
        self.imag_magnitude = imag_magnitude
        super().__init__(
            f"selected stationary eigenvalue has imaginary part of magnitude {imag_magnitude:.3e}"
        )
