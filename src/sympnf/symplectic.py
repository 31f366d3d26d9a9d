"""The symplectic structure on K^{2n}: the fixed block form, adjoints,
self-adjointness and symplecticity predicates, sigma-complements, subspace
classification, the dual-basis construction from a lagrangian pair, and a
seeded generator of symplectic matrices for building test corpora.

Convention (fixed once, everything sign-sensitive points here): the form is
sigma(x, y) = x^T O y with O = [[0, I], [-I, 0]], so the standard basis
(e_1..e_n, e_{n+1}..e_{2n}) is a Darboux basis with sigma(e_i, e_{n+i}) = 1
and a basis matrix C = [u | w] is Darboux exactly when C^T O C = O, i.e.
when sigma(u_i, w_j) = delta_ij.

Only this module knows the layout of O: O m is a signed swap of the halves
of m (``_omega_times``), never a product, every sigma-value comes from
``gram``, and ``SymplecticSpace.omega`` builds the dense O on read.
"""

from __future__ import annotations

import random

from .errors import DimensionMismatchError, NotComplementaryError, NotLagrangianError, SingularMatrixError
from .linalg import Mat, Subspace, inverse, kernel, restrict_operator, rref

__all__ = [
    "SymplecticSpace",
    "form_eval",
    "adjoint",
    "is_self_adjoint",
    "is_symplectic_matrix",
    "symplectic_complement",
    "classify_subspace",
    "darboux_from_lagrangian_pair",
    "random_symplectic",
]


class SymplecticSpace:
    """Dimension 2n with the standard block form."""

    __slots__ = ("field", "n")

    def __init__(self, field, n: int):
        if n < 1:
            raise DimensionMismatchError("n must be positive")
        self.field = field
        self.n = n

    @property
    def dim(self):
        return 2 * self.n

    @property
    def omega(self) -> Mat:
        return _omega_times(Mat.identity(self.field, self.dim))

    def __repr__(self):
        return f"SymplecticSpace(n={self.n}, field={self.field!r})"


def _omega_times(m: Mat) -> Mat:
    """O m: the bottom half of the rows of m over the negated top half."""
    n = m.nrows // 2
    return Mat.from_raw(m.field, m.raw[n:] + (-m.submatrix(0, n, 0, m.ncols)).raw, m.ncols)


def gram(x: Mat, y: Mat) -> Mat:
    """X O Y^T, the matrix of sigma(x_i, y_j) over the rows of x and y."""
    return x * _omega_times(y.transpose())


def form_eval(space: SymplecticSpace, x, y):
    """sigma(x, y) = x^T O y, exact."""
    if len(x) != space.dim or len(y) != space.dim:
        raise DimensionMismatchError("vectors must have length 2n")
    return gram(Mat(space.field, [x]), Mat(space.field, [y])).rows[0][0]


def _check_square(space, a):
    if a.nrows != space.dim or a.ncols != space.dim:
        raise DimensionMismatchError("matrix must be 2n x 2n")


def adjoint(space: SymplecticSpace, a: Mat) -> Mat:
    """The unique g with sigma(g x, y) = sigma(x, a y): -O A^T O = O (O A)^T."""
    _check_square(space, a)
    return _omega_times(_omega_times(a).transpose())


def is_self_adjoint(space: SymplecticSpace, a: Mat) -> bool:
    """Exact predicate A^T O = O A, i.e. O A is skew-symmetric."""
    _check_square(space, a)
    oa = _omega_times(a)
    return oa.transpose() == -oa


def is_symplectic_matrix(space: SymplecticSpace, c: Mat) -> bool:
    """Exact predicate C^T O C = O."""
    _check_square(space, c)
    return c.transpose() * _omega_times(c) == space.omega


def symplectic_complement(space: SymplecticSpace, s: Subspace) -> Subspace:
    """All x with sigma(x, w) = 0 for w in s."""
    if s.ambient_dim != space.dim:
        raise DimensionMismatchError("subspace ambient dimension must be 2n")
    # sigma(x, w) = (O w)^T x, so the constraint rows are the columns of O S^T
    return kernel(_omega_times(s.basis_matrix().transpose()).transpose())


def classify_subspace(space: SymplecticSpace, s: Subspace) -> str:
    """One of 'lagrangian', 'isotropic', 'symplectic', 'generic', by gram(s, s)."""
    if s.ambient_dim != space.dim:
        raise DimensionMismatchError("subspace ambient dimension must be 2n")
    g = gram(s.basis_matrix(), s.basis_matrix())
    if g.is_zero():
        return "lagrangian" if s.dim == space.n else "isotropic"
    return "symplectic" if rref(g).rank == s.dim else "generic"


def darboux_from_lagrangian_pair(space: SymplecticSpace, a: Mat, u: Subspace, w: Subspace) -> Mat:
    """Darboux basis matrix C = [u | w] from complementary a-invariant
    lagrangians; the matrix of a in this basis is exactly diag(B, B^T).

    The u-columns are the canonical RREF basis of u; the w-columns are its
    dual basis in w (``_darboux_columns``).  Invariance is tested by
    ``restrict_operator``, whose result is B.
    """
    _check_square(space, a)
    for s, name in ((u, "u"), (w, "w")):
        if classify_subspace(space, s) != "lagrangian":
            raise NotLagrangianError(f"{name}-subspace is not lagrangian")
    if u.sum(w).dim != space.dim:
        raise NotComplementaryError("subspaces are not complementary")
    for s in (u, w):
        restrict_operator(a, s)
    return _darboux_columns(u.basis_matrix(), w.basis_matrix())


def _darboux_columns(um: Mat, wm: Mat) -> Mat:
    """Symplectic C = [u | w'] from a lagrangian basis um and any n rows wm
    spanning a complementary lagrangian: w' = inverse(gram(um, wm))^T wm is
    the one basis of that span with sigma(u_i, w'_j) = delta_ij."""
    dual = inverse(gram(um, wm)).transpose() * wm
    return Mat.from_raw(um.field, tuple(zip(*(um.raw + dual.raw))))


def random_symplectic(space: SymplecticSpace, rng: random.Random) -> Mat:
    """Product of a seeded random word in the standard symplectic generators:
    diag(S, S^-T), upper and lower unipotent blocks with symmetric off-block,
    and the form matrix itself.  Always passes is_symplectic_matrix."""
    c = None
    for _ in range(rng.randint(2, 5)):
        c = _times_random_generator(space, c, rng)
    return c


def _random_symmetric(field, n, rng):
    vals = [[field.from_int(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
    return Mat(field, [[vals[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])


def _times_random_generator(space: SymplecticSpace, c: Mat | None, rng: random.Random) -> Mat:
    """c times a random generator of random_symplectic's word; the generator
    itself when c is None, so that the word starts at its first letter."""
    field = space.field
    n = space.n
    kind = rng.randrange(4)
    z = Mat.zeros(field, n, n)
    ident = Mat.identity(field, n)
    if kind == 0:
        while True:
            s = Mat(field, [[field.from_int(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
            try:
                s_inv_t = inverse(s).transpose()
                break
            except SingularMatrixError:
                continue
        gen = _blocks(field, s, z, z, s_inv_t)
    elif kind in (1, 2):
        m = _random_symmetric(field, n, rng)
        gen = _blocks(field, ident, m, z, ident) if kind == 1 else _blocks(field, ident, z, m, ident)
    elif c is None:
        return space.omega
    else:
        # c O = [-c_R | c_L], a signed swap of the column halves
        neg = field.ops.neg
        return Mat.from_raw(field, tuple(tuple(map(neg, r[n:])) + r[:n] for r in c.raw), c.ncols)
    return gen if c is None else c * gen


def _blocks(field, a, b, c, d):
    top = tuple(ra + rb for ra, rb in zip(a.raw, b.raw))
    return Mat.from_raw(field, top + tuple(rc + rd for rc, rd in zip(c.raw, d.raw)))
