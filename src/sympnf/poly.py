"""Dense univariate polynomials over any supported field, with exact
division, extended gcd, squarefree decomposition and factorization.

A polynomial holds and computes on raw values of its field's ``ops``, as a
matrix does; ``coeffs`` are the elements, decoded on first read.

Over finite fields the factorization is complete (squarefree split,
distinct-degree split, then the odd-characteristic randomized equal-degree
split with a caller-supplied seed).  Over the rationals only rational roots
are extracted, by Newton lifting of the roots modulo a prime, with no search
of divisors; remaining nonlinear factors come back in the ``unresolved`` slot
of the Factorization rather than as an error.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass

from .errors import (
    DivisionByZeroError,
    InternalDescentFailureError,
    MixedFieldsError,
    NotCoprimeError,
    RationalFieldError,
)

__all__ = [
    "Poly",
    "Factorization",
    "poly_gcd",
    "poly_xgcd",
    "multi_bezout",
    "squarefree_decomposition",
    "is_irreducible",
    "factor",
]


def power(x, e: int, one, mul=operator.mul):
    """x ** e for an integer e >= 0 by square-and-multiply under mul.

    e = 0 gives one; one is never multiplied, and x is squared only while
    bits of e remain, so x ** 1 costs no product and x ** 2 one.
    """
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    result = None
    while True:
        if e & 1:
            result = x if result is None else mul(result, x)
        e >>= 1
        if not e:
            return one if result is None else result
        x = mul(x, x)


class Poly:
    """Dense polynomial over one field, held as raw values; coefficients
    low-to-high, trailing zeros trimmed."""

    __slots__ = ("field", "raw", "_coeffs")

    def __init__(self, field, coeffs):
        raw = list(map(field.ops.encode, coeffs))
        while raw and not raw[-1]:
            raw.pop()
        self.field, self.raw, self._coeffs = field, tuple(raw), None

    @classmethod
    def from_raw(cls, field, raw):
        """Polynomial of a sequence of raw values of field.ops, low-to-high."""
        raw = list(raw)
        while raw and not raw[-1]:
            raw.pop()
        p = cls.__new__(cls)
        p.field, p.raw, p._coeffs = field, tuple(raw), None
        return p

    @property
    def coeffs(self):
        if self._coeffs is None:
            self._coeffs = tuple(map(self.field.ops.decode, self.raw))
        return self._coeffs

    # -- constructors

    @classmethod
    def zero(cls, field):
        return cls.from_raw(field, ())

    @classmethod
    def one(cls, field):
        return cls.from_raw(field, (field.ops.one,))

    @classmethod
    def x(cls, field):
        return cls.from_raw(field, (field.ops.zero, field.ops.one))

    # -- structure

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.raw) - 1

    def is_zero(self) -> bool:
        return not self.raw

    def lc(self):
        if not self.raw:
            raise DivisionByZeroError("zero polynomial has no leading coefficient")
        return self.field.ops.decode(self.raw[-1])

    def __getitem__(self, i):
        return self.coeffs[i] if i < len(self.raw) else self.field.zero

    def _check(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.field != self.field:
                raise MixedFieldsError("polynomials over different fields")
            return other
        raise MixedFieldsError(f"cannot combine Poly with {type(other).__name__}")

    # -- arithmetic

    def __add__(self, other):
        a, b = self.raw, self._check(other).raw
        if len(a) < len(b):
            a, b = b, a
        ops = self.field.ops
        return Poly.from_raw(self.field, [*ops.axpy(ops.one, b, a), *a[len(b) :]])

    def __sub__(self, other):
        return self + -self._check(other)

    def __neg__(self):
        return Poly.from_raw(self.field, map(self.field.ops.neg, self.raw))

    def __mul__(self, other):
        ops = self.field.ops
        if not isinstance(other, Poly):
            return Poly.from_raw(self.field, ops.scale(ops.encode(other), self.raw))
        b = self._check(other).raw
        if not self.raw or not b:
            return Poly.zero(self.field)
        k = len(b)
        out = [ops.zero] * (len(self.raw) + k - 1)
        for i, c in enumerate(self.raw):
            if c:
                out[i : i + k] = ops.axpy(c, b, out[i : i + k])
        return Poly.from_raw(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        return power(self, e, Poly.one(self.field))

    def divmod(self, other) -> tuple["Poly", "Poly"]:
        """Euclidean division: self = q * other + r with deg r < deg other."""
        b = self._check(other).raw
        if not b:
            raise DivisionByZeroError("polynomial division by zero")
        ops = self.field.ops
        db = len(b) - 1
        inv_lc = ops.inv(b[-1])
        low = ops.scale(ops.neg(inv_lc), b[:db])  # -b / lc(b) below the leading term
        rem = list(self.raw)
        q = [ops.zero] * max(0, len(rem) - db)
        for i in range(len(rem) - db - 1, -1, -1):
            top = rem[i + db]
            if top:
                q[i] = ops.mul(top, inv_lc)
                rem[i : i + db] = ops.axpy(top, low, rem[i : i + db])
        return Poly.from_raw(self.field, q), Poly.from_raw(self.field, rem[:db])

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        ops = self.field.ops
        return Poly.from_raw(self.field, ops.scale(ops.inv(self.raw[-1]), self.raw))

    def derivative(self) -> "Poly":
        ops = self.field.ops
        return Poly.from_raw(self.field, [ops.mul(ops.encode(i), c) for i, c in enumerate(self.raw) if i])

    def evaluate(self, x):
        """Horner evaluation at a scalar."""
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def pow_mod(self, e: int, m: "Poly") -> "Poly":
        return power(self % m, e, Poly.one(self.field) % m, lambda a, b: a * b % m)

    def sort_key(self):
        return (self.degree, tuple(self.field.sort_key(c) for c in self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.raw == other.raw

    def __hash__(self):
        return hash(self.raw)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{c!r}*t^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(terms) + ")"


# --- gcds ------------------------------------------------------------------


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(a, 0) = monic(a)."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_xgcd(a: Poly, b: Poly):
    """Returns (g, s, u) with g monic and s*a + u*b = g."""
    field = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(field), Poly.zero(field)
    t0, t1 = Poly.zero(field), Poly.one(field)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = field.one / r0.lc()
    return r0 * inv, s0 * inv, t0 * inv


def multi_bezout(rs: list[Poly]) -> list[Poly]:
    """Cofactors Q_i with sum(Q_i * R_i) = 1, by folding xgcd left to right.

    Raises NotCoprimeError when gcd(R_1, ..., R_k) != 1.
    """
    if not rs:
        raise NotCoprimeError("empty polynomial list")
    field = rs[0].field
    one = Poly.one(field)
    g = rs[0]
    coeffs = [one]
    for r in rs[1:]:
        g2, s, u = poly_xgcd(g, r)
        coeffs = [c * s for c in coeffs]
        coeffs.append(u)
        g = g2
    if g != one:
        raise NotCoprimeError("polynomials are not coprime")
    acc = Poly.zero(field)
    for q, r in zip(coeffs, rs):
        acc = acc + q * r
    if acc != one:  # exact identity is part of the contract
        raise NotCoprimeError("Bezout identity failed to close")
    return coeffs


def monic_square_root(f: Poly) -> Poly | None:
    """The monic g with g * g = f, for a monic f of even degree 2n, or None
    when there is none.

    Coefficient 2n - k of g * g is 2 g_(n-k) plus products of the k - 1
    coefficients of g above it, so g is read off from the top in O(n^2)
    (the characteristic is not 2); squaring it checks the answer."""
    ops = f.field.ops
    n, odd = divmod(f.degree, 2)
    if odd or f.raw[-1] != ops.one:
        return None
    half = ops.inv(ops.add(ops.one, ops.one))
    top = f.raw[::-1]
    g = [ops.one]  # g[i] is the coefficient of t^(n-i)
    for k in range(1, n + 1):
        rest = ops.dot(g[1:k], g[k - 1 : 0 : -1])
        g.append(ops.mul(ops.add(top[k], ops.neg(rest)), half))
    root = Poly.from_raw(f.field, g[::-1])
    return root if root * root == f else None


# --- squarefree decomposition ----------------------------------------------


def _poly_pth_root(f: Poly) -> Poly:
    """For f = h(t)^p over a finite field of order q = p^k, return h; the
    p-th root of a coefficient y is y^(q/p)."""
    ops = f.field.ops
    p = f.field.char
    e = f.field.order // p
    return Poly.from_raw(f.field, [power(c, e, ops.one, ops.mul) for c in f.raw[::p]])


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Monic squarefree parts with multiplicities: f = lc * prod g_j^j.

    In characteristic p the part left once the loop ends (all of f when
    f' = 0) is a p-th power: its p-th root is decomposed with multiplicities
    scaled by p.
    """
    if f.is_zero():
        raise DivisionByZeroError("cannot decompose the zero polynomial")
    f = f.monic()
    if f.degree == 0:
        return []
    p = f.field.char
    out = []
    c = poly_gcd(f, f.derivative())
    w = f // c
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        z = w // y
        if z.degree > 0:
            out.append((z.monic(), i))
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        # remaining part has all multiplicities divisible by p
        for g, m in squarefree_decomposition(_poly_pth_root(c)):
            out.append((g, m * p))
    out.sort(key=lambda gm: (gm[1], gm[0].sort_key()))
    return out


# --- factorization over finite fields --------------------------------------


def is_irreducible(f: Poly) -> bool:
    """Irreducibility over a finite field: f is squarefree and the
    distinct-degree split of factor() finds one factor, of degree deg f."""
    if f.field.order is None:
        raise RationalFieldError("irreducibility is only decided over finite fields")
    if f.degree < 1:
        return False
    g = f.monic()
    return poly_gcd(g, g.derivative()).degree == 0 and _distinct_degree(g) == [(g, g.degree)]


def _distinct_degree(f: Poly) -> list[tuple[Poly, int]]:
    """Split a monic squarefree f into products of irreducibles of equal degree."""
    q = f.field.order
    out = []
    x = Poly.x(f.field)
    h = x
    d = 0
    while f.degree > 0:
        d += 1
        if 2 * d > f.degree:
            out.append((f, f.degree))
            break
        h = h.pow_mod(q, f)
        g = poly_gcd(h - x, f)
        if g.degree > 0:
            out.append((g, d))
            f = f // g
            h = h % f
    return out


def _equal_degree(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus split in odd characteristic; f a product of
    irreducibles all of degree d."""
    if f.degree == d:
        return [f.monic()]
    field = f.field
    q = field.order
    exp = (q ** d - 1) // 2
    while True:
        # the trial element must range over the full field: sub-field-valued
        # polynomials act identically on Frobenius-conjugate factors and
        # would never separate them
        a = Poly(field, [field.random_element(rng) for _ in range(f.degree)])
        if a.degree < 1:
            continue
        g = poly_gcd(a, f)
        if 0 < g.degree < f.degree:
            left, right = g, f // g
        else:
            b = a.pow_mod(exp, f) - Poly.one(field)
            g = poly_gcd(b, f)
            if g.degree == 0 or g.degree == f.degree:
                continue
            left, right = g, f // g
        return _equal_degree(left, d, rng) + _equal_degree(right, d, rng)


# --- rational root extraction ----------------------------------------------


def _eval_mod(ints, x: int, m: int) -> int:
    """The integer polynomial with coefficients ints (low-to-high) at x, mod m."""
    acc = 0
    for c in reversed(ints):
        acc = (acc * x + c) % m
    return acc


def _rational_roots(f: Poly) -> list:
    """All rational roots of a squarefree f over QQ (each simple), by Newton
    lifting of its roots modulo a prime.

    Let f, with the zero roots taken out, be primitive in Z[t] with leading
    coefficient lc and constant term c0, and let p be the first odd prime
    with p ∤ lc for which f mod p is squarefree.  A rational root a/b in
    lowest terms has a | c0 and b | lc, so y = lc*a/b is an integer with
    |y| <= |c0*lc|.  As p ∤ b, a/b is a root of f mod p, simple there, and
    Newton's iteration lifts it uniquely to a root r mod M = p^(2^k); once
    M > 2|c0*lc| the symmetric residue of lc*r mod M is y itself.  So every
    rational root is some y/lc, and y/lc is kept when it is a root of f.
    A prime is passed over only when it divides lc*disc(f), which is
    nonzero because f is squarefree, so the search for p ends.
    """
    from fractions import Fraction

    from .fields import PrimeField, is_prime

    field = f.field
    roots = []
    while f.degree > 0 and not f[0]:
        roots.append(Fraction(0))
        f = f // Poly.x(field)
    if f.degree < 1:
        return roots
    # primitive integer form
    ints, _ = field.ops.clear(f.raw)
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    c0, lc = ints[0], ints[-1]
    p = 3
    while True:
        if lc % p and is_prime(p):
            fp = Poly(PrimeField(p), ints).monic()
            if poly_gcd(fp, fp.derivative()).degree == 0:
                break
        p += 2
    deriv = [i * c for i, c in enumerate(ints)][1:]
    bound = 2 * abs(c0 * lc)
    rng = random.Random(p)
    for part, d in _distinct_degree(fp):
        if d != 1:
            continue
        for lin in _equal_degree(part, 1, rng):
            r, m = -lin.raw[0] % p, p
            while m <= bound:
                m *= m
                r = (r - _eval_mod(ints, r, m) * pow(_eval_mod(deriv, r, m), -1, m)) % m
            y = lc * r % m
            cand = Fraction(y - m if 2 * y > m else y, lc)
            if f.evaluate(cand) == 0:
                roots.append(cand)
    return roots


# --- full factorization ----------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """unit * prod(factors) * prod(unresolved), all monic, exact."""

    unit: object
    factors: tuple[tuple[Poly, int], ...]
    unresolved: tuple[tuple[Poly, int], ...] = ()

    def product(self) -> Poly:
        field = self.factors[0][0].field if self.factors else self.unresolved[0][0].field
        acc = Poly(field, (self.unit,))
        for g, m in self.factors + self.unresolved:
            acc = acc * g ** m
        return acc


def factor(f: Poly, seed: int = 0) -> Factorization:
    """Factor a nonconstant polynomial.

    Finite fields: complete factorization into monic irreducibles.  The
    rationals: squarefree split plus rational-root extraction; leftover
    nonlinear parts are reported as unresolved data.
    """
    if f.degree < 1:
        raise DivisionByZeroError("cannot factor a constant polynomial")
    field = f.field
    unit = f.lc()
    factors: list[tuple[Poly, int]] = []
    unresolved: list[tuple[Poly, int]] = []
    if field.kind == "rational":
        for g, m in squarefree_decomposition(f):
            rest = g
            for root in sorted(_rational_roots(g)):
                lin = Poly(field, [-root, field.one])
                factors.append((lin, m))
                rest = rest // lin
            if rest.degree > 0:
                unresolved.append((rest.monic(), m))
    else:
        rng = random.Random((seed, field.order, tuple(field.sort_key(c) for c in f.coeffs)).__hash__())
        for g, m in squarefree_decomposition(f):
            for part, d in _distinct_degree(g):
                for irr in _equal_degree(part, d, rng):
                    factors.append((irr, m))
    factors.sort(key=lambda fm: fm[0].sort_key())
    unresolved.sort(key=lambda fm: fm[0].sort_key())
    result = Factorization(unit, tuple(factors), tuple(unresolved))
    if result.product() != f:  # re-multiplication check is part of the contract
        raise InternalDescentFailureError("factorization failed to reproduce its input")
    return result
