"""Exact dense linear algebra: ``Mat`` and ``Subspace``, row reduction
(``rref``), ``kernel``, ``solve`` and ``inverse``, the Berkowitz ``charpoly``,
``mat_poly_eval``, ``restrict_operator``, and the scalar extension /
restriction used by Galois descent (``extend_scalars``, ``restrict_scalars``).

Matrices are immutable row-major tuples over a single field context.
Subspaces are always stored with a reduced-row-echelon basis, so subspace
equality is tuple equality and every downstream basis choice is canonical.

The kernels compute on the field's raw values (``field.ops``: residues for
F_p, Zech logarithms for small extension fields, base-field coefficient
codes for larger ones, over QQ the ``int`` of an integral value and the
reduced ``Fraction`` of any other).  Scalar extension and restriction map
raw values to raw values: ``ops.embed`` and ``ops.coeffs``.  Matrices and
subspaces hold raw values, encoded when they are built from elements (which
checks that every entry lies in the field); ``Mat.rows`` and
``Subspace.basis`` are the elements, decoded on first read.  A matrix
product is one call of ``ops.matmul``; over QQ it, the characteristic
polynomial and row reduction (fraction-free) compute on integers over
common denominators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd
from operator import mul, neg

from .errors import (
    DimensionMismatchError,
    IncompatibleFieldsError,
    InconsistentSystemError,
    MixedFieldsError,
    NotInvariantError,
    SingularMatrixError,
)
from .fields import ExtensionField, RationalOps, rational
from .poly import Poly, power

__all__ = [
    "Mat",
    "Subspace",
    "rref",
    "kernel",
    "solve",
    "inverse",
    "charpoly",
    "mat_poly_eval",
    "restrict_operator",
    "extend_scalars",
    "restrict_scalars",
]


def _identity_raw(ops, n):
    z, o = ops.zero, ops.one
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


class Mat:
    """Immutable dense matrix over one field, held as raw values."""

    __slots__ = ("field", "raw", "ncols", "_rows")

    def __init__(self, field, rows):
        self.field = field
        self.raw = field.ops.encode_rows(rows)
        self.ncols = len(self.raw[0]) if self.raw else 0
        if any(len(r) != self.ncols for r in self.raw):
            raise DimensionMismatchError("matrix rows differ in length")
        self._rows = None

    @classmethod
    def from_raw(cls, field, raw, ncols=0):
        """Matrix of a tuple of tuples of raw values of field.ops; ncols is
        the width of a matrix with no rows."""
        m = cls.__new__(cls)
        m.field = field
        m.raw = raw
        m.ncols = len(raw[0]) if raw else ncols
        m._rows = None
        return m

    @property
    def rows(self):
        if self._rows is None:
            self._rows = self.field.ops.decode_rows(self.raw)
        return self._rows

    # -- constructors

    @classmethod
    def identity(cls, field, n):
        return cls.from_raw(field, _identity_raw(field.ops, n))

    @classmethod
    def zeros(cls, field, r, c):
        return cls.from_raw(field, ((field.ops.zero,) * c,) * r, c)

    @classmethod
    def block_diag(cls, field, blocks):
        m = sum(b.ncols for b in blocks)
        z = field.ops.zero
        out = []
        j = 0
        for b in blocks:
            left, right = (z,) * j, (z,) * (m - j - b.ncols)
            out.extend(left + r + right for r in b.raw)
            j += b.ncols
        return cls.from_raw(field, tuple(out), m)

    # -- structure

    @property
    def nrows(self):
        return len(self.raw)

    def transpose(self):
        cols = tuple(zip(*self.raw)) if self.raw else ((),) * self.ncols
        return Mat.from_raw(self.field, cols, self.nrows)

    def submatrix(self, r0, r1, c0, c1):
        width = len(range(self.ncols)[c0:c1])
        return Mat.from_raw(self.field, tuple(r[c0:c1] for r in self.raw[r0:r1]), width)

    def _check(self, other):
        if not isinstance(other, Mat):
            raise MixedFieldsError(f"cannot combine Mat with {type(other).__name__}")
        if other.field != self.field:
            raise MixedFieldsError("matrices over different fields")
        return other

    # -- arithmetic

    def _combine(self, c, other):
        """self + c * other for the raw scalar c."""
        axpy = self.field.ops.axpy
        return Mat.from_raw(
            self.field, tuple(tuple(axpy(c, rb, ra)) for ra, rb in zip(self.raw, other.raw)), self.ncols
        )

    def __add__(self, other):
        return self._combine(self.field.ops.one, self._check(other))

    def __sub__(self, other):
        ops = self.field.ops
        return self._combine(ops.neg(ops.one), self._check(other))

    def __neg__(self):
        ops = self.field.ops
        c = ops.neg(ops.one)
        return Mat.from_raw(self.field, tuple(tuple(ops.scale(c, r)) for r in self.raw), self.ncols)

    def __mul__(self, other):
        ops = self.field.ops
        if isinstance(other, Mat):
            o = self._check(other)
            if self.ncols != o.nrows:
                raise DimensionMismatchError("matrix product shape mismatch")
            cols = tuple(zip(*o.raw)) if o.raw else ((),) * o.ncols
            return Mat.from_raw(self.field, ops.matmul(self.raw, cols), o.ncols)
        c = ops.encode(other)
        return Mat.from_raw(self.field, tuple(tuple(ops.scale(c, r)) for r in self.raw), self.ncols)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if self.nrows != self.ncols:
            raise DimensionMismatchError("matrix power needs a square matrix")
        return power(self, e, Mat.identity(self.field, self.nrows))

    def is_zero(self):
        return not any(any(r) for r in self.raw)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.field == other.field and self.ncols == other.ncols and self.raw == other.raw

    def __hash__(self):
        return hash(self.raw)

    def __repr__(self):
        return "Mat(" + "; ".join(" ".join(repr(a) for a in r) for r in self.rows) + ")"


# --- row reduction ---------------------------------------------------------


def _reduce(ops, rows, width):
    """Bring the list of raw rows to reduced row echelon form in place, with
    pivots only in the first ``width`` columns; return the pivot columns.

    Exact arithmetic: the pivot is simply the first nonzero entry in scan
    order, no magnitude strategy is needed.

    Over QQ the elimination is fraction-free: each row is cleared to integers,
    which scales it and leaves the RREF alone.  With p the pivot, each other
    row r with c = r[col] != 0 becomes p*r - c*prow over the gcd of its
    entries, a primitive integer multiple of the row the field loop holds; at
    the end each pivot row is read off over its pivot entry, one raw value
    per entry (``fields.rational``).  Rows below the rank stay nonzero
    multiples of the field loop's.  Bareiss's exact division by the previous
    pivot instead (SymPy's ``ddm_irref_den``) keeps whole minors of the
    cleared rows: on a - lambda for a self-adjoint 48 x 48 a with 126-bit
    entries they reach 4,807 bits, where the primitive rows stay below 660.
    """
    n = len(rows)
    pivots = []
    rank = 0
    if isinstance(ops, RationalOps):
        rows[:] = [ops.clear(r)[0] for r in rows]
        for col in range(width):
            for piv in range(rank, n):
                if rows[piv][col]:
                    break
            else:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            prow = rows[rank]
            p = prow[col]
            for i in range(n):
                if i == rank:
                    continue
                r = rows[i]
                c = r[col]
                if c:
                    r = [p * x - c * y for x, y in zip(r, prow)]
                    g = gcd(*r)
                    rows[i] = [x // g for x in r] if g > 1 else r
            pivots.append(col)
            rank += 1
            if rank == n:
                break
        dens = [r[col] for r, col in zip(rows, pivots)] + [1] * (n - rank)
        rows[:] = [[rational(x, d) for x in r] for r, d in zip(rows, dens)]
        return pivots
    scale, axpy, neg, inv = ops.scale, ops.axpy, ops.neg, ops.inv
    for col in range(width):
        for piv in range(rank, n):
            if rows[piv][col]:
                break
        else:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank] = scale(inv(rows[rank][col]), rows[rank])
        for i in range(n):
            c = rows[i][col]
            if c and i != rank:
                rows[i] = axpy(neg(c), prow, rows[i])
        pivots.append(col)
        rank += 1
        if rank == n:
            break
    return pivots


@dataclass(frozen=True)
class RrefResult:
    rref: Mat
    rank: int
    pivots: tuple[int, ...]
    source: Mat

    @functools.cached_property
    def transform(self) -> Mat:
        """Invertible T with T * source == rref; reduces [source | I] with
        pivots in source's columns, on first read.

        Its rows below the rank are some basis of the left kernel of source,
        not a canonical one: over QQ they are nonzero multiples of those the
        field loop would give.  Nothing in the library reads them."""
        a = self.source
        ops = a.field.ops
        m = a.ncols
        rows = [r + e for r, e in zip(a.raw, _identity_raw(ops, a.nrows))]
        _reduce(ops, rows, m)
        return Mat.from_raw(a.field, tuple(tuple(r[m:]) for r in rows))


def rref(a: Mat) -> RrefResult:
    """Reduced row echelon form; the recording transform is built only when
    read."""
    rows = list(a.raw)
    pivots = _reduce(a.field.ops, rows, a.ncols)
    return RrefResult(Mat.from_raw(a.field, tuple(map(tuple, rows)), a.ncols), len(pivots), tuple(pivots), a)


def _augmented(a: Mat, extra) -> Mat:
    return Mat.from_raw(a.field, tuple(r + tuple(e) for r, e in zip(a.raw, extra)))


def solve(a: Mat, b) -> tuple:
    """Canonical solution of a x = b with free variables pinned to zero.

    Reduces [a | b]: a pivot in the last column means no solution.
    """
    if len(b) != a.nrows:
        raise DimensionMismatchError("right-hand side length differs from the row count")
    ops = a.field.ops
    m = a.ncols
    res = rref(_augmented(a, ((ops.encode(y),) for y in b)))
    if res.pivots and res.pivots[-1] == m:
        raise InconsistentSystemError("linear system has no solution")
    x = [ops.zero] * m
    for row, col in zip(res.rref.raw, res.pivots):
        x[col] = row[m]
    return tuple(map(ops.decode, x))


def inverse(a: Mat) -> Mat:
    """Reduces [a | I], which has rank n; a is invertible exactly when every
    pivot lies in a."""
    n = a.nrows
    if n != a.ncols:
        raise DimensionMismatchError("inverse needs a square matrix")
    res = rref(_augmented(a, _identity_raw(a.field.ops, n)))
    if n and res.pivots[-1] >= n:
        raise SingularMatrixError("matrix is singular")
    return Mat.from_raw(a.field, tuple(r[n:] for r in res.rref.raw))


# --- subspaces -------------------------------------------------------------


class Subspace:
    """Subspace held by its canonical RREF row basis."""

    __slots__ = ("field", "ambient_dim", "raw", "_basis", "_pivots")

    @classmethod
    def from_raw(cls, field, ambient_dim, raw, pivots):
        """Subspace with the RREF basis rows raw and their pivot columns
        pivots, both as the reduction that found them gives them."""
        s = cls.__new__(cls)
        s.field = field
        s.ambient_dim = ambient_dim
        s.raw = raw
        s._basis = None
        s._pivots = pivots
        return s

    @property
    def basis(self):
        if self._basis is None:
            self._basis = self.field.ops.decode_rows(self.raw)
        return self._basis

    @classmethod
    def from_vectors(cls, field, ambient_dim, vectors) -> "Subspace":
        vectors = [tuple(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatchError("vector length differs from ambient dimension")
        return cls._span(field, ambient_dim, field.ops.encode_rows(vectors))

    @classmethod
    def _span(cls, field, ambient_dim, raw_vectors) -> "Subspace":
        if not raw_vectors:
            return cls.from_raw(field, ambient_dim, (), ())
        res = rref(Mat.from_raw(field, tuple(raw_vectors)))
        return cls.from_raw(field, ambient_dim, res.rref.raw[: res.rank], res.pivots)

    @property
    def dim(self):
        return len(self.raw)

    def is_zero(self):
        return not self.dim

    def basis_matrix(self) -> Mat:
        return Mat.from_raw(self.field, self.raw, self.ambient_dim)

    def _contains_raw(self, v) -> bool:
        ops = self.field.ops
        axpy, neg = ops.axpy, ops.neg
        for row, piv in zip(self.raw, self._pivots):
            c = v[piv]
            if c:
                v = axpy(neg(c), row, v)
        return not any(v)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.raw == other.raw
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.raw))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def kernel(a: Mat) -> Subspace:
    """Canonical basis of the right null space of a."""
    field = a.field
    ops = field.ops
    res = rref(a)
    m = a.ncols
    pivots = set(res.pivots)
    vectors = []
    for fc in range(m):
        if fc in pivots:
            continue
        v = [ops.zero] * m
        v[fc] = ops.one
        for row, pc in zip(res.rref.raw, res.pivots):
            v[pc] = ops.neg(row[fc])
        vectors.append(tuple(v))
    return Subspace._span(field, m, vectors)


# --- polynomial-operator plumbing ------------------------------------------


def charpoly(a: Mat) -> Poly:
    """det(tI - a), monic, via the division-free Berkowitz recursion.

    One loop serves every field and every characteristic.  Over QQ it runs on
    integers: with a = M / D for the integer matrix M and the lcm D of the
    denominators of a, coefficient k of det(tI - M) (highest degree first)
    is D^k times that of det(tI - a).
    """
    if a.nrows != a.ncols:
        raise DimensionMismatchError("characteristic polynomial needs a square matrix")
    field = a.field
    n = a.nrows
    if n == 0:
        return Poly.one(field)
    ops = field.ops
    if not isinstance(ops, RationalOps):
        return Poly.from_raw(field, _berkowitz(a.raw, ops.one, ops.neg, ops.dot)[::-1])
    ints, den = ops.clear([x for r in a.raw for x in r])
    coeffs = _berkowitz([ints[i : i + n] for i in range(0, n * n, n)], 1, neg, _int_dot)
    return Poly.from_raw(field, [rational(c, den**k) for k, c in enumerate(coeffs)][::-1])


def _int_dot(xs, ys):
    return sum(map(mul, xs, ys))


def _berkowitz(rows, one, neg, dot):
    """Coefficients of det(tI - rows), highest degree first, for a square
    n x n matrix with n >= 1, in the arithmetic of one, neg and dot."""
    n = len(rows)
    prev = [one, neg(rows[0][0])]
    for i in range(1, n):
        top = [r[:i] for r in rows[:i]]
        left = rows[i][:i]
        v = [r[i] for r in rows[:i]]
        col = [one, neg(rows[i][i])]
        for k in range(i):
            col.append(neg(dot(left, v)))
            if k + 1 < i:
                v = [dot(r, v) for r in top]
        # first i+2 coefficients of conv(col, prev), where len(prev) = i + 1
        rev = prev[::-1]
        prev = [dot(col[max(0, s - i) : s + 1], rev[max(i - s, 0) :]) for s in range(i + 2)]
    return prev


def mat_poly_eval(p: Poly, a: Mat) -> Mat:
    """Horner evaluation P(a): acc = acc * a + c * I over the coefficients c
    of P below the leading one, highest first, from acc = lc(P) * I, so a
    degree-d P costs d products."""
    if a.nrows != a.ncols:
        raise DimensionMismatchError("polynomial evaluation needs a square matrix")
    if p.field != a.field:
        raise MixedFieldsError("polynomial and matrix over different fields")
    acc = Mat.zeros(a.field, a.nrows, a.ncols)
    if p.raw:
        acc = _plus_diagonal(acc, p.raw[-1])
    for c in reversed(p.raw[:-1]):
        acc = acc * a
        if c:
            acc = _plus_diagonal(acc, c)
    return acc


def _plus_diagonal(m: Mat, c) -> Mat:
    """m + c I for a square m and the raw scalar c: only the diagonal changes."""
    add = m.field.ops.add
    return Mat.from_raw(m.field, tuple(r[:i] + (add(r[i], c),) + r[i + 1 :] for i, r in enumerate(m.raw)), m.ncols)


def restrict_operator(a: Mat, s: Subspace) -> Mat:
    """Matrix of a restricted to the invariant subspace s, in s's RREF basis.

    The rows of S A^T are the images of the basis of s; a vector of s has
    its coordinates in that basis at the pivot columns."""
    if not s.ambient_dim == a.nrows == a.ncols:
        raise DimensionMismatchError("subspace ambient dimension differs from matrix size")
    images = (s.basis_matrix() * a.transpose()).raw
    if not all(s._contains_raw(r) for r in images):
        raise NotInvariantError("subspace is not invariant under the operator")
    return Mat.from_raw(a.field, tuple(tuple(r[p] for r in images) for p in s._pivots), s.dim)


# --- scalar extension and restriction --------------------------------------


def extend_scalars(a: Mat, ext: ExtensionField) -> Mat:
    """Entrywise canonical embedding of a base-field matrix."""
    if ext.base != a.field:
        raise IncompatibleFieldsError("extension does not contain the matrix field")
    embed = ext.ops.embed
    return Mat.from_raw(ext, tuple(tuple(map(embed, r)) for r in a.raw), a.ncols)


def restrict_scalars(m: Mat) -> Mat:
    """Base-field coefficient rows of a matrix over F_{q^e}: a row sum t^i r_i
    in the power basis becomes the e rows r_0 .. r_{e-1}.

    Its kernel is the base-field solution space of m x = 0; its row span is
    the set of base-field points of the smallest Galois-stable subspace that
    holds the rows of m.
    """
    ext = m.field
    if not isinstance(ext, ExtensionField):
        raise IncompatibleFieldsError("matrix must be over an extension field")
    coeffs = ext.ops.coeffs
    rows = []
    for r in m.raw:
        rows.extend(zip(*map(coeffs, r)) if r else [()] * ext.degree)
    return Mat.from_raw(ext.base, tuple(rows), m.ncols)
