"""Exact linear algebra on recursive 2x2 block matrices over pluggable rings."""

from .blockmat import (
    BlockMatrix,
    OpCounter,
    add,
    adjoint,
    circ_conjugate,
    embed,
    from_dense,
    identity,
    map_leaves,
    mul,
    negate,
    sub,
    to_dense,
    transpose,
    zero_matrix,
)
from .dense import DenseMatrix, dense_determinant, dense_identity, dense_mul
from .errors import (
    AllBlocksSingular,
    BlocklinError,
    DepthMismatch,
    GramSingular,
    MatrixFormatError,
    NonConstantResidue,
    NonPowerOfTwo,
    PivotBlockSingular,
    RandomnessExhausted,
    SingularDiagonal,
    SingularMatrix,
    ZeroDenominator,
)
from .inversion import (
    ConjugationKind,
    GramMatrix,
    auto_invert,
    hermitian_invert,
    invert_gram_gv,
    invert_gram_star,
    invert_gram_transpose,
    is_invertible,
    lift_to_ratfun,
    project_to_base,
    schur_invert,
)
from .lu import (
    LOWER,
    UPPER,
    LUResult,
    TriangularMatrix,
    apply_permutation,
    block_pivot,
    ldu,
    lu_decompose,
    randomized_lu,
    tri_invert,
    tri_mul,
)
from .rings import (
    GF,
    QQ,
    QQ_I,
    QUAT,
    GaussianRational,
    PrimeFieldElement,
    Quaternion,
    RatFun,
    Rational,
    RationalFunction,
    RingElement,
    ratfun_reduce,
    ring_from_spec,
)

__version__ = "0.1.0"
