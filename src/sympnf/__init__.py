"""Exact symplectic normal forms: for a self-adjoint operator on (K^{2n},
sigma) over the rationals or an odd-characteristic finite field, compute a
symplectic change of basis C with C^-1 A C = diag(B, B^T) -- B in Jordan
normal form when the spectrum lies in the base field -- and emit an
independently checkable certificate.
"""

from .errors import *  # noqa: F401,F403
from .fields import (
    ExtensionField,
    PrimeField,
    QQ,
    RationalField,
    frobenius,
    make_field,
    pth_root,
)
from .linalg import (
    Mat,
    Subspace,
    charpoly,
    extend_scalars,
    kernel,
    mat_poly_eval,
    restrict_operator,
    restrict_scalars,
    rref,
    solve,
)
from .normalform import (
    CyclicPair,
    NormalFormCertificate,
    PrimaryComponent,
    VerificationReport,
    cyclic_pair,
    descent_normal_form,
    polarize,
    primary_decomposition,
    random_self_adjoint,
    self_adjoint_projections,
    split_normal_form,
    symplectic_normal_form,
    verify_certificate,
)
from .poly import (
    Factorization,
    Poly,
    factor,
    is_irreducible,
    multi_bezout,
    poly_gcd,
    poly_xgcd,
    squarefree_decomposition,
)
from .symplectic import (
    SymplecticSpace,
    adjoint,
    classify_subspace,
    darboux_from_lagrangian_pair,
    form_eval,
    is_self_adjoint,
    is_symplectic_matrix,
    random_symplectic,
    symplectic_complement,
)

__version__ = "0.1.0"
