"""Exact arithmetic over the three supported fields of characteristic != 2:
the rationals, prime fields F_p, and extensions F_q[x]/(m) presented by a
monic irreducible modulus.  Extension contexts may be stacked, so the
splitting field of a polynomial over F_{p^k} is again an ExtensionField.
``make_field`` builds a field from descriptor data; ``frobenius`` is the
Frobenius map of a finite field.

Rational scalars are plain ``fractions.Fraction`` values; finite-field
scalars are immutable wrapper objects carrying their field context.  All
values are canonical at construction, so equality is structural.

Each field also has ``ops``: the raw values that matrices and polynomials
compute on, the codec between them and the elements, and the few scalar and
row primitives both are written in.  F_p values are residues in [0, p).  An
extension element starts from its code sum(b_i Q^i) over its base-field raw
coefficients b_i, Q the order of the base: up to ZECH_MAX_ORDER the raw value
is the Zech logarithm of the code, from tables built with polynomial products
modulo the modulus on the first use of the field's ``ops``; above it the raw
value is the code itself, and the kernels run the base field's kernels on
whole digit planes.  So every finite field's raw values are ints in
[0, order).  A QQ raw value is the ``int`` of an integral rational and the
``Fraction`` in lowest terms of any other (``rational``); the matrix product
(``matmul``), row scalings and updates (``scale``/``axpy``), the
characteristic polynomial (``linalg.charpoly``) and row reduction
(``linalg._reduce``, fraction-free) compute on integer numerators over a
common denominator and build a ``Fraction`` only for a result that is not
an integer.  Only ``ExtensionField.ops`` reads ZECH_MAX_ORDER.

Extension-field elements never touch their field's ``ops``: at every order a
product is a polynomial product reduced modulo the modulus and an inverse an
extended gcd with it, so the elements are an independent reference for the
tables and the coefficient kernels.  (``CoeffOps.inv`` is the one primitive
that goes through the elements.)
"""

from __future__ import annotations

import functools
from array import array
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import (
    DivisionByZeroError,
    FieldTooLargeError,
    MixedFieldsError,
    NonPrimeModulusError,
    RationalFieldError,
    ReducibleModulusError,
)
from .poly import Poly, is_irreducible, poly_xgcd, power

__all__ = [
    "RationalField",
    "PrimeField",
    "ExtensionField",
    "FpElement",
    "ExtElement",
    "QQ",
    "make_field",
    "frobenius",
]


# --- primality -------------------------------------------------------------

# The first thirteen primes.  The first twelve alone are passed by the
# composite 318665857834031151167461 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to every base in _MR_BASES
# (= 1287836182261 * 2575672364521; Sorenson and Webster, 2015).
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3317044064679887385961981.

    From that bound on, a composite n can pass every base, so the answer is
    only probable there.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# --- raw values ------------------------------------------------------------
#
# What every ``ops`` guarantees: ``encode`` takes an element of the field (or
# an int, lifted like the element types lift it) and raises MixedFieldsError
# on anything else; the raw zero is the only falsy raw value, so ``not v`` is
# the zero test; two raw values are equal exactly when their elements are;
# ``scale(c, xs)`` is c*xs, ``axpy(c, xs, ys)`` is c*xs + ys and ``dot(xs, ys)``
# the inner product, on equal-length sequences; ``matmul(rows, cols)`` is the
# tuple of row tuples of the dots of each row with each column, the one
# kernel of a matrix product.

# Building the Zech tables of a field takes time linear in its order (thread
# time, one build each): F_{3^3} 0.13 ms, F_{9^2} 0.29 ms, F_{5^3} 0.33 ms,
# F_{9^3} 2.46 ms, F_{101^2} 13.9 ms.  Descent builds a new field for every
# nonlinear factor of every instance, so above this order the coefficient
# codes of CoeffOps, which need no tables, are cheaper over a whole instance.
ZECH_MAX_ORDER = 1 << 10


class _Ops:
    def _lift(self, x):
        """Raw value of an x that is not an element of the field: an int is
        lifted into it, anything else is refused."""
        if isinstance(x, int):
            return self.encode(self.field.from_int(x))
        raise MixedFieldsError(f"{x!r} is not an element of {self.field!r}")

    def encode_rows(self, rows):
        enc = self.encode
        return tuple(tuple(map(enc, r)) for r in rows)

    def decode_rows(self, raw):
        dec = self.decode
        return tuple(tuple(map(dec, r)) for r in raw)

    def matmul(self, rows, cols):
        dot = self.dot
        return tuple(tuple([dot(r, c) for c in cols]) for r in rows)


def rational(n: int, d: int):
    """The QQ raw value of n/d, for ints n and d != 0: the int when d divides
    n, else the ``Fraction`` in lowest terms."""
    if d == 1:
        return n
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


class RationalOps(_Ops):
    """QQ: an integral raw value is a Python ``int`` and any other one the
    ``Fraction`` in lowest terms, so an integral entry builds no
    ``Fraction``; ints and Fractions compare and hash equal, and both have
    ``numerator`` and ``denominator``.  ``decode`` always gives the
    ``Fraction`` element.  Products, scalings and row updates compute on
    integer numerators and denominators and give one raw value per result
    through ``rational``."""

    zero = 0
    one = 1

    def __init__(self, field):
        self.field = field

    def encode(self, x):
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        return self._lift(x)

    @staticmethod
    def decode(v):
        return v if type(v) is Fraction else Fraction(v)

    @staticmethod
    def add(a, b):
        s = a + b
        return s.numerator if s.denominator == 1 else s

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def mul(a, b):
        return rational(a.numerator * b.numerator, a.denominator * b.denominator)

    @staticmethod
    def inv(a):
        return rational(a.denominator, a.numerator)

    @staticmethod
    def clear(xs):
        """(ints, den) with xs = ints / den and den the lcm of the
        denominators of xs."""
        dens = [x.denominator for x in xs]
        den = lcm(*dens)
        if den == 1:
            return [x.numerator for x in xs], 1
        return [x.numerator * (den // d) for x, d in zip(xs, dens)], den

    def scale(self, c, xs):
        n, d = c.numerator, c.denominator
        if d == 1 and n in (1, -1):  # a unit: no gcd at all
            return list(xs) if n == 1 else [-x for x in xs]
        return [rational(x.numerator * n, x.denominator * d) for x in xs]

    def axpy(self, c, xs, ys):
        cn, cd = c.numerator, c.denominator
        out = []
        for x, y in zip(xs, ys):
            n = x.numerator
            if n:
                n *= cn
                d = x.denominator * cd
                yn = y.numerator
                if yn:
                    yd = y.denominator
                    if yd == d:
                        n += yn
                    else:
                        g = gcd(d, yd)
                        n = n * (yd // g) + yn * (d // g)
                        d = d // g * yd
                y = rational(n, d)
            out.append(y)
        return out

    def dot(self, xs, ys):
        return self.matmul((xs,), (ys,))[0][0]

    def matmul(self, rows, cols):
        clear = self.clear
        cols = [clear(c) for c in cols]
        out = []
        for r in rows:
            r, dr = clear(r)
            out.append(tuple([rational(sum(map(mul, r, c)), dr * dc) for c, dc in cols]))
        return tuple(out)


class ResidueOps(_Ops):
    """F_p: raw values are the residues in [0, p)."""

    zero = 0
    one = 1

    def __init__(self, field):
        self.field = field
        self.p = field.p
        self.decode = functools.partial(FpElement, field)

    def encode(self, x):
        if isinstance(x, FpElement) and x.field.p == self.p:
            return x.value
        return self._lift(x)

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def scale(self, c, xs):
        p = self.p
        return [x * c % p for x in xs]

    def axpy(self, c, xs, ys):
        p = self.p
        return [(c * x + y) % p for x, y in zip(xs, ys)]

    def dot(self, xs, ys):
        return sum(map(mul, xs, ys)) % self.p


class _ExtOps(_Ops):
    """Extension field F_Q[x]/(m) of degree k.  Both representations start
    from the code sum(b_i Q^i) of an element's base-field raw coefficients
    b_i in [0, Q); zero has code 0.  A subclass maps a code to its raw value
    (``_of_code``) and back (``_code``)."""

    zero = 0
    one = 1

    def __init__(self, field):
        self.field = field
        self.base_ops = field.base.ops
        self.base_order = field.base.order
        self.weights = tuple(self.base_order ** i for i in range(field.degree))

    def encode(self, x):
        if not (isinstance(x, ExtElement) and (x.field is self.field or x.field == self.field)):
            return self._lift(x)
        enc = self.base_ops.encode
        return self._of_code(sum([enc(c) * w for c, w in zip(x.coeffs, self.weights)]))

    def decode(self, v):
        return ExtElement(self.field, tuple(map(self.base_ops.decode, self.coeffs(v))))

    def coeffs(self, v):
        """Base-field raw coefficients of the raw value v."""
        code = self._code(v)
        q = self.base_order
        return [code // w % q for w in self.weights]


class ZechOps(_ExtOps):
    """Extension field of order q <= ZECH_MAX_ORDER, in Zech logarithms.

    For a fixed primitive element g, the nonzero element g^k has raw value
    k + 1 and zero has raw value 0.  A product adds logarithms; a sum is
    g^a + g^b = g^b (1 + g^(a-b)), one lookup in the table of 1 + g^d; an
    inverse negates the logarithm.
    """

    def __init__(self, field):
        super().__init__(field)
        self.m = field.order - 1
        self.exp, self.log, self.zech, self.mn = _zech_tables(field._mod)
        self.minus_one = self.m // 2 + 1  # -1 = g^(m/2)

    def _of_code(self, code):
        return self.log[code]

    def _code(self, v):
        return self.exp[v - 1] if v else 0

    def embed(self, b):
        """Raw value of the base-field raw value b."""
        return self.log[b]

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        z = self.zech[a - b]
        return self.mn[b + z] if z else 0

    def neg(self, a):
        return self.mn[a + self.minus_one] if a else 0

    def mul(self, a, b):
        return self.mn[a + b] if a and b else 0

    def inv(self, a):
        return self.m + 2 - a if a > 1 else 1

    def scale(self, c, xs):
        if not c:
            return [0] * len(xs)
        mn = self.mn
        return [mn[x + c] if x else 0 for x in xs]

    def axpy(self, c, xs, ys):
        if not c:
            return list(ys)
        mn, zech = self.mn, self.zech
        out = []
        for x, y in zip(xs, ys):
            if x:
                x = mn[x + c]
                if y:
                    z = zech[x - y]
                    y = mn[y + z] if z else 0
                else:
                    y = x
            out.append(y)
        return out

    def dot(self, xs, ys):
        mn, zech = self.mn, self.zech
        acc = 0
        for x, y in zip(xs, ys):
            if x and y:
                x = mn[x + y]
                if acc:
                    z = zech[x - acc]
                    acc = mn[acc + z] if z else 0
                else:
                    acc = x
        return acc


class CoeffOps(_ExtOps):
    """Extension field of order above ZECH_MAX_ORDER: the raw value is the
    code sum(b_i Q^i) itself, so equality is structural and no table is
    built.  The kernels split a row into its k digit planes, the lists of its
    entries' b_i, once per call and run the base field's own kernels on whole
    planes: with c x^j = sum_s M[j][s] x^s modulo m, plane s of c * xs is the
    sum over j of M[j][s] times plane j of xs, and a dot is the product of
    the digit vectors sum_(i+j=s) dot(plane i, plane j), reduced modulo m.
    Towers recurse through the base field's ``ops``."""

    def __init__(self, field):
        super().__init__(field)
        # x^k = -(m_0 + ... + m_{k-1} x^{k-1}) modulo m
        self.low = list(map(self.base_ops.neg, field._mod.raw[:-1]))

    def _of_code(self, code):
        return code

    def _code(self, v):
        return v

    def embed(self, b):
        """Raw value of the base-field raw value b."""
        return b

    def _join(self, digits):
        """Code of a digit list of length k, or of 2k - 1 product digits,
        which it reduces modulo m in place."""
        k, axpy = len(self.weights), self.base_ops.axpy
        for s in range(len(digits) - 1, k - 1, -1):
            if digits[s]:
                digits[s - k : s] = axpy(digits[s], self.low, digits[s - k : s])
        return sum([d * w for d, w in zip(digits, self.weights)])

    def _planes(self, xs):
        q = self.base_order
        return [[x // w % q for x in xs] for w in self.weights]

    def _join_planes(self, planes):
        q = self.base_order
        acc = planes[-1]
        for plane in planes[-2::-1]:
            acc = [a * q + b for a, b in zip(acc, plane)]
        return acc

    def _times(self, c):
        """Digit lists of c * x^j modulo m, j < k."""
        axpy = self.base_ops.axpy
        col = self.coeffs(c)
        cols = [col]
        for _ in range(len(self.weights) - 1):
            top, col = col[-1], [0] + col[:-1]
            if top:
                col = axpy(top, self.low, col)
            cols.append(col)
        return cols

    def _dot_planes(self, xs, ys):
        dot, add = self.base_ops.dot, self.base_ops.add
        digits = [0] * (2 * len(xs) - 1)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                d = dot(x, y)
                if d:
                    digits[i + j] = add(digits[i + j], d)
        return self._join(digits)

    def add(self, a, b):
        add = self.base_ops.add
        return self._join(list(map(add, self.coeffs(a), self.coeffs(b))))

    def neg(self, a):
        return self._join(list(map(self.base_ops.neg, self.coeffs(a))))

    def mul(self, a, b):
        return self.dot((a,), (b,))

    def inv(self, a):
        return self.encode(self.field._inv(self.decode(a)))

    def axpy(self, c, xs, ys):
        if not c:
            return list(ys)
        axpy = self.base_ops.axpy
        out = self._planes(ys)
        for plane, col in zip(self._planes(xs), self._times(c)):
            for s, m in enumerate(col):
                if m:
                    out[s] = axpy(m, plane, out[s])
        return self._join_planes(out)

    def scale(self, c, xs):
        return self.axpy(c, xs, [0] * len(xs))

    def dot(self, xs, ys):
        return self._dot_planes(self._planes(xs), self._planes(ys))

    def matmul(self, rows, cols):
        cols = [self._planes(c) for c in cols]
        dot = self._dot_planes
        return tuple(tuple([dot(r, c) for c in cols]) for r in map(self._planes, rows))


def _zech_tables(mod):
    """(exp, log, zech, mn) of base[x]/(mod), for mod a Poly over the base
    field, of order q = Q^k <= ZECH_MAX_ORDER.

    An element is coded as sum(c_i Q^i) over its base-field raw coefficients
    c_i in [0, Q).  exp[k] is the code of g^k; log[code] the raw value; zech[d]
    the raw value of 1 + g^d (a negative d reads as d + q - 1); mn[a + b] the
    raw value of the product of the nonzero raw values a and b.  g is the
    first primitive element in code order, so raw values depend only on
    (base, modulus) and compare equal across equal field objects.  Each field
    builds its tables once, on first use of its ``ops``.
    """
    base = mod.field
    bops = base.ops
    k = mod.degree
    q0 = base.order
    m = q0 ** k - 1
    weights = [q0 ** i for i in range(k)]
    one = Poly.one(base)

    primes = [r for r in range(2, m + 1) if m % r == 0 and is_prime(r)]
    # codes below q0 are base-field constants, of order dividing q0 - 1 < m
    for code in range(q0, m + 1):
        g = Poly.from_raw(base, [code // w % q0 for w in weights])
        if all(g.pow_mod(m // r, mod) != one for r in primes):
            break
    # multiplication by g as a k x k matrix over the base field: column j is x^j g
    cols = [(Poly.from_raw(base, [bops.zero] * j + [bops.one]) * g % mod).raw for j in range(k)]
    by_g = list(zip(*(c + (bops.zero,) * (k - len(c)) for c in cols)))
    exp = array("H", bytes(2 * m))
    dot = bops.dot
    x = (bops.one,) + (bops.zero,) * (k - 1)
    for i in range(m):
        exp[i] = sum(map(mul, x, weights))
        x = tuple([dot(r, x) for r in by_g])
    log = array("H", bytes(2 * (m + 1)))
    for i, code in enumerate(exp):
        log[code] = i + 1
    # adding 1 changes the constant coefficient c0 = code % q0 only
    succ = [bops.add(c0, bops.one) - c0 for c0 in range(q0)]
    zech = array("H", (log[code + succ[code % q0]] for code in exp))
    mn = array("H", [0, 0])  # mn[s] = (s - 2) % m + 1 for s = 2 .. 2m
    mn.extend(range(1, m + 1))
    mn.extend(range(1, m))
    return exp, log, zech, mn


# --- rationals -------------------------------------------------------------


class RationalField:
    """The field of rational numbers; elements are ``Fraction`` values."""

    kind = "rational"
    char = 0
    order = None

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def from_int(self, m: int) -> Fraction:
        return Fraction(m)

    def random_element(self, rng) -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def sort_key(self, x):
        return x

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


QQ = RationalField()
RationalField.ops = RationalOps(QQ)


# --- prime fields ----------------------------------------------------------


class FpElement:
    """Residue in [0, p); immutable."""

    __slots__ = ("field", "value")

    def __init__(self, field, value: int):
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.field.p != self.field.p:
                raise MixedFieldsError("operands lie in different prime fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        raise MixedFieldsError(f"cannot combine F_{self.field.p} element with {type(other).__name__}")

    def __add__(self, other):
        o = self._coerce(other)
        return FpElement(self.field, (self.value + o.value) % self.field.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return FpElement(self.field, (self.value - o.value) % self.field.p)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return FpElement(self.field, (self.value * o.value) % self.field.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.value == 0:
            raise DivisionByZeroError("division by zero in F_p")
        return FpElement(self.field, (self.value * pow(o.value, -1, self.field.p)) % self.field.p)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return FpElement(self.field, (-self.value) % self.field.p)

    def __pow__(self, e: int):
        if e < 0 and self.value == 0:
            raise DivisionByZeroError("inversion of zero in F_p")
        return FpElement(self.field, pow(self.value, e, self.field.p))

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.field.p == other.field.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value}"


class PrimeField:
    """F_p for an odd prime p."""

    kind = "prime"

    def __init__(self, p: int):
        if p >= _MR_EXACT_BELOW:
            raise NonPrimeModulusError(
                f"characteristic must be below {_MR_EXACT_BELOW}, where primality is exact; got {p}"
            )
        if p == 2 or not is_prime(p):
            raise NonPrimeModulusError(f"characteristic must be an odd prime, got {p}")
        self.p = p
        self.char = p
        self.order = p
        self.zero = FpElement(self, 0)
        self.one = FpElement(self, 1)
        self.ops = ResidueOps(self)

    def from_int(self, m: int) -> FpElement:
        return FpElement(self, m % self.p)

    def random_element(self, rng) -> FpElement:
        return FpElement(self, rng.randrange(self.p))

    def sort_key(self, x: FpElement):
        return x.value

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"GF({self.p})"


# --- extension fields ------------------------------------------------------


class ExtElement:
    """Coefficient vector of fixed length k over the base field; immutable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, ExtElement):
            if other.field != self.field:
                raise MixedFieldsError("operands lie in different extension fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        raise MixedFieldsError(f"cannot combine extension element with {type(other).__name__}")

    def __add__(self, other):
        o = self._coerce(other)
        return ExtElement(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return ExtElement(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return self.field._mul(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return self.field._mul(self, self.field._inv(o))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return ExtElement(self.field, tuple(-a for a in self.coeffs))

    def __pow__(self, e: int):
        if e < 0:
            return self.field._inv(self) ** (-e)
        return power(self, e, self.field.one)

    def __eq__(self, other):
        if isinstance(other, ExtElement):
            return self.field == other.field and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == self.field.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.degree, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return "[" + ",".join(repr(c) for c in self.coeffs) + "]"


class ExtensionField:
    """F_q[x]/(m) for a monic irreducible modulus m of degree k >= 2.

    The base may itself be an extension, giving towers; ``order`` is always
    the absolute size q^k.
    """

    kind = "extension"

    def __init__(self, base, modulus):
        modulus = tuple(modulus)
        k = len(modulus) - 1
        if k < 2:
            raise ReducibleModulusError("extension modulus must have degree >= 2")
        if modulus[-1] != base.one:
            raise ReducibleModulusError("extension modulus must be monic")
        if base.order is None:
            raise RationalFieldError("extension fields are only built over finite fields")
        mod = Poly(base, modulus)
        if not is_irreducible(mod):
            raise ReducibleModulusError("extension modulus is reducible over the base field")
        self.base = base
        self.modulus = modulus
        self._mod = mod
        self.degree = k
        self.char = base.char
        self.order = base.order ** k
        self._ops = None
        self.zero = ExtElement(self, (base.zero,) * k)
        self.one = ExtElement(self, (base.one,) + (base.zero,) * (k - 1))
        self.gen = ExtElement(self, (base.zero, base.one) + (base.zero,) * (k - 2))

    def from_int(self, m: int) -> ExtElement:
        return self.embed(self.base.from_int(m))

    def random_element(self, rng) -> ExtElement:
        return ExtElement(self, tuple(self.base.random_element(rng) for _ in range(self.degree)))

    def embed(self, c) -> ExtElement:
        """Canonical embedding of a base-field element."""
        return ExtElement(self, (c,) + (self.base.zero,) * (self.degree - 1))

    @property
    def ops(self):
        if self._ops is None:
            self._ops = ZechOps(self) if self.order <= ZECH_MAX_ORDER else CoeffOps(self)
        return self._ops

    def _mul(self, a: ExtElement, b: ExtElement) -> ExtElement:
        base = self.base
        prod = Poly(base, a.coeffs) * Poly(base, b.coeffs) % self._mod
        return ExtElement(self, prod.coeffs + (base.zero,) * (self.degree - len(prod.raw)))

    def _inv(self, a: ExtElement) -> ExtElement:
        if not a:
            raise DivisionByZeroError("inversion of zero in extension field")
        # modulus first: dividing it by a is the first step, not a swap
        _, _, t = poly_xgcd(self._mod, Poly(self.base, a.coeffs))
        return ExtElement(self, t.coeffs + (self.base.zero,) * (self.degree - len(t.coeffs)))

    def sort_key(self, x: ExtElement):
        return tuple(self.base.sort_key(c) for c in x.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("extension", self.base, self.degree))

    def __repr__(self):
        return f"GF({self.order})"


# --- descriptor factory and Galois maps ------------------------------------


def make_field(kind: str, p: int | None = None, modulus=None):
    """Build a field context from descriptor data.

    ``modulus`` is a list of integer coefficients low-to-high including the
    leading 1 (extension kind only).  An extension of order 2^64 or more is
    refused: the irreducibility test on a degree-k modulus takes up to k/2
    modular powers.
    """
    if kind == "rational":
        return QQ
    if kind == "prime":
        return PrimeField(p)
    if kind == "extension":
        modulus = tuple(modulus)
        # any valid p is at least 3, so a degree above 64 fails without computing p^k
        if len(modulus) > 65 or p ** (len(modulus) - 1) >= 2**64:
            raise FieldTooLargeError(f"extension field order must be below 2^64, got {p}^{len(modulus) - 1}")
        return _extension_field(p, modulus)
    raise NonPrimeModulusError(f"unknown field kind {kind!r}")


@functools.lru_cache(maxsize=16)
def _extension_field(p: int, modulus: tuple) -> ExtensionField:
    """One field object, and so one set of Zech tables, per descriptor."""
    base = PrimeField(p)
    return ExtensionField(base, [base.from_int(c) for c in modulus])


def frobenius(x, iterate: int = 1, base_order: int | None = None):
    """Apply y -> y^(q0^iterate); q0 defaults to the characteristic.

    Fixes the field of size q0 pointwise.
    """
    field = getattr(x, "field", None)
    if field is None or field.kind == "rational":
        raise RationalFieldError("Frobenius is undefined over the rationals")
    q0 = field.char if base_order is None else base_order
    return x ** (q0 ** iterate)
