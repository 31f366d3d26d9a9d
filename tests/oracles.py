"""Independent references that tests check the library against.

Each is written from its definition, not from the library's code: a product
and the form are element loops, membership compares dimensions of spans, and
an intersection goes through annihilators, where the library splits a pair
off by one sigma-projection (``normalform._split_off``).
"""

import re
from fractions import Fraction

from sympnf.errors import DimensionMismatchError, InstanceParseError
from sympnf.fields import ExtElement
from sympnf.linalg import Mat, Subspace, kernel

_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def decode_element(field, s):
    """The element of field that the JSON scalar s stands for, from the file
    grammar: p/q or an integer (as a string or a JSON integer) over QQ, an
    integer over F_p, and the list of base-field coefficients over an
    extension.  Anything else raises InstanceParseError."""
    try:
        if field.kind == "rational":
            m = _RATIONAL.fullmatch(str(s))
            if m is None:
                raise InstanceParseError(f"bad rational {s!r}")
            return Fraction(int(m[1]), int(m[2] or 1))
        if field.kind == "prime":
            if type(s) is str and _INTEGER.fullmatch(s) or type(s) is int:
                return field.from_int(int(s))
            raise InstanceParseError(f"bad integer {s!r}")
        if not isinstance(s, list):
            raise InstanceParseError(f"bad coefficient list {s!r}")
        coeffs = tuple(decode_element(field.base, c) for c in s)
        if len(coeffs) != field.degree:
            raise InstanceParseError(f"expected {field.degree} coefficients")
        return ExtElement(field, coeffs)
    except (ValueError, ZeroDivisionError) as exc:  # past the digit limit, or q = 0
        raise InstanceParseError(f"bad scalar {s!r}") from exc


def decode_element_matrix(field, rows) -> Mat:
    """A JSON matrix read one element at a time, then encoded by ``Mat``."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InstanceParseError("matrix must be a list of rows")
    return Mat(field, [[decode_element(field, x) for x in r] for r in rows])


class ElementOps:
    """The primitives ``linalg._reduce`` runs its field loop on, as the
    elements' own arithmetic."""

    def __init__(self, field):
        self.one = field.one

    def neg(self, a):
        return -a

    def inv(self, a):
        return self.one / a

    def scale(self, c, xs):
        return [c * x for x in xs]

    def axpy(self, c, xs, ys):
        return [c * x + y for x, y in zip(xs, ys)]


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
