"""Exception hierarchy shared across the package."""


class SpecScaleError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SpecScaleError):
    """Operator data does not conform to the algebra's block structure."""


class HermitianError(SpecScaleError):
    """Input matrix is not finite or deviates from self-adjointness."""


class MembershipError(SpecScaleError):
    """Operator asserted to lie in the positive unit ball but does not."""


class IngestError(SpecScaleError):
    """Malformed JSON input; carries a field-path diagnostic."""

    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class ZeroDirectionError(SpecScaleError):
    """A spectral pair needs a nonzero direction vector."""


class NumericalError(SpecScaleError):
    """Dense eigensolver failure; carries the offending block index."""

    def __init__(self, message, block=None):
        self.block = block
        super().__init__(message if block is None else f"block {block}: {message}")


class DegenerateFaceError(SpecScaleError):
    """Face operation applied to a degenerate or non-proper face."""


class FaceChainError(SpecScaleError):
    """Minimal exposed chain failed to converge to the target face."""


class MinimalFaceError(SpecScaleError):
    """Summed normal-cone sample has a zero direction part; caller should
    retry with a refined direction sample."""


class InvariantViolation(SpecScaleError):
    """A runtime consistency check that should hold mathematically failed."""
