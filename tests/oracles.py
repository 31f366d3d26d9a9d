"""Independent references that tests check the library against.

Each is written from its definition, not from the library's code: a product
and the form are element loops, membership compares dimensions of spans, and
an intersection goes through annihilators, where the library splits a pair
off by one sigma-projection (``normalform._split_off``).
"""

from sympnf.errors import DimensionMismatchError
from sympnf.linalg import Mat, Subspace, kernel


def whole_space(field, dim) -> Subspace:
    """K^dim, spanned by the standard basis."""
    return Subspace.from_vectors(field, dim, Mat.identity(field, dim).rows)


def contains(s: Subspace, v) -> bool:
    """v lies in s exactly when adding it does not raise the span's dimension."""
    return Subspace.from_vectors(s.field, s.ambient_dim, s.basis + (tuple(v),)).dim == s.dim


def matvec(a: Mat, v) -> tuple:
    """a v, one element dot product per row."""
    if len(v) != a.ncols:
        raise DimensionMismatchError("vector length differs from the column count")
    return tuple(sum((x * y for x, y in zip(row, v)), a.field.zero) for row in a.rows)


def sigma(x, y):
    """sigma(x, y) = sum over i of x_i y_{n+i} - x_{n+i} y_i, for vectors of
    length 2n."""
    if len(x) != len(y) or len(x) % 2:
        raise DimensionMismatchError("vectors must have the same even length")
    n = len(x) // 2
    acc = x[0] * y[n] - x[n] * y[0]
    for i in range(1, n):
        acc = acc + x[i] * y[n + i] - x[n + i] * y[i]
    return acc


def annihilator(s: Subspace) -> Mat:
    """Rows N with N x = 0 exactly for x in s: a basis of the vectors
    orthogonal to s under the dot product."""
    return kernel(s.basis_matrix()).basis_matrix()


def intersection(s1: Subspace, s2: Subspace) -> Subspace:
    """The vectors that both annihilators send to zero."""
    rows = annihilator(s1).raw + annihilator(s2).raw
    return kernel(Mat.from_raw(s1.field, rows, s1.ambient_dim))


def span_sum(s1: Subspace, s2: Subspace) -> Subspace:
    return Subspace.from_vectors(s1.field, s1.ambient_dim, s1.basis + s2.basis)
