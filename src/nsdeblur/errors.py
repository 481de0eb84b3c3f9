"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes: input problems -> 2,
consistency problems -> 3, numerical failures -> 4.
"""


class DeblurError(Exception):
    """Base class for all package errors."""

    exit_code = 4


class InputError(DeblurError, ValueError):
    """Unreadable file, unsupported format or malformed configuration
    (also a ValueError, as a rejected argument value)."""

    exit_code = 2


class DimensionError(DeblurError):
    """Shape or sizing constraint violated (kernel vs image, window bounds,
    model order vs kernel size)."""

    exit_code = 3


class InsufficientDataError(DeblurError):
    """Fit region provides fewer equations than unknowns."""

    exit_code = 3


class DegenerateOperatorError(DeblurError):
    """Model fit or operator is degenerate: a singular fit, or a flat
    operator spectrum with no eigen/null split."""

    exit_code = 4


class DegenerateKernelError(DeblurError):
    """Kernel estimate cannot be normalized or the inversion system has
    no usable rank."""

    exit_code = 4
