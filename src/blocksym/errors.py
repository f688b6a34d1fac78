"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are inconsistent (dimension or length mismatch)."""


class RangeError(IndexError):
    """A multi-index or block index lies outside its index box."""


class ModeError(IndexError):
    """A mode number is not a valid mode of the tensor."""


class SymmetryError(ValueError):
    """Required symmetry does not hold within the given tolerance."""


class ParameterError(ValueError):
    """A parameter combination violates a routine's preconditions."""


class BlockDivisibilityError(ParameterError):
    """A block dimension is below 1 or does not divide the tensor dimension."""


class FormatError(ValueError):
    """A file is not a well-formed blocksym file (header or payload length)."""
