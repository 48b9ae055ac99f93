"""Exception types shared across the library."""


def node_name(path) -> str:
    """A recursion node's path as messages print it: steps joined by '/',
    '<root>' for the empty path."""
    return "/".join(path) or "<root>"


class BlocklinError(Exception):
    """Base class for all errors raised by this package."""


class ZeroDenominator(BlocklinError):
    """A fraction or rational function was built with a zero denominator."""


class DepthMismatch(BlocklinError):
    """Two block matrices of different recursive depth were combined."""


class NonPowerOfTwo(BlocklinError):
    """A dense matrix of non power-of-two dimension where one is required."""


class MatrixFormatError(BlocklinError):
    """A matrix file or scalar token failed to parse."""


class PivotBlockSingular(BlocklinError):
    """The leading block or its Schur complement failed to invert.

    ``path`` locates the recursion node: a tuple of 'A' / 'S' steps from the
    root ('A' descends into the leading block, 'S' into the complement).
    """

    def __init__(self, path=()):
        self.path = tuple(path)
        super().__init__(f"pivot block singular at node {node_name(self.path)}")


class SingularMatrix(BlocklinError):
    """The input matrix has no inverse."""


class GramSingular(SingularMatrix):
    """A self-adjoint matrix handed to the symmetric inverter is singular.

    A Gram driver raises it for singular input: the Gram matrix of M is
    singular exactly when M is.
    """


class NonConstantResidue(BlocklinError):
    """An entry that must project to a base-field constant did not.

    This signals an internal fault, never a property of valid input; the
    offending entry is reported instead of being truncated.
    """

    def __init__(self, row, col):
        self.row = row
        self.col = col
        super().__init__(f"entry ({row}, {col}) is not a constant rational function")


class SingularDiagonal(BlocklinError):
    """A triangular matrix has a non-invertible diagonal entry."""

    def __init__(self, path=()):
        self.path = tuple(path)
        super().__init__(f"singular diagonal at node {node_name(self.path)}")


class AllBlocksSingular(BlocklinError):
    """All four half-size blocks are singular; block pivoting cannot help."""


class RandomnessExhausted(BlocklinError):
    """An invertible node whose four half-size blocks are all singular.

    No block swap gives such a node an invertible leading block, so block
    pivoting cannot factor it.  ``path`` locates the node as in
    :class:`PivotBlockSingular`.  The name dates from a randomized fallback
    once tried at such nodes; it could never succeed there and is gone.
    """

    def __init__(self, path=()):
        self.path = tuple(path)
        super().__init__(
            f"invertible, but no block swap factors node {node_name(self.path)}"
        )
