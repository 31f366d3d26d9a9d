"""Exact arithmetic over the three supported fields of characteristic != 2:
the rationals, prime fields F_p, and extensions F_q[x]/(m) presented by a
monic irreducible modulus.  Extension contexts may be stacked, so the
splitting field of a polynomial over F_{p^k} is again an ExtensionField.

Rational scalars are plain ``fractions.Fraction`` values; finite-field
scalars are immutable wrapper objects carrying their field context.  All
values are canonical at construction, so equality is structural.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DivisionByZeroError,
    MixedFieldsError,
    NonPrimeModulusError,
    RationalFieldError,
    ReducibleModulusError,
)
from .poly import Poly, is_irreducible, poly_xgcd

__all__ = [
    "RationalField",
    "PrimeField",
    "ExtensionField",
    "FpElement",
    "ExtElement",
    "QQ",
    "make_field",
    "frobenius",
    "pth_root",
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
        result = self.field.one
        a = self
        while e:
            if e & 1:
                result = result * a
            a = a * a
            e >>= 1
        return result

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

    def __init__(self, base, modulus, check_irreducible: bool = True):
        modulus = tuple(modulus)
        k = len(modulus) - 1
        if k < 2:
            raise ReducibleModulusError("extension modulus must have degree >= 2")
        if modulus[-1] != base.one:
            raise ReducibleModulusError("extension modulus must be monic")
        if check_irreducible and not is_irreducible(Poly(base, modulus)):
            raise ReducibleModulusError("extension modulus is reducible over the base field")
        self.base = base
        self.modulus = modulus
        self.degree = k
        self.char = base.char
        self.order = base.order ** k
        # x^k .. x^(2k-2) reduced mod m, for schoolbook reduction
        xk = tuple(-c for c in modulus[:k])
        pows = [xk]
        for _ in range(k - 2):
            prev = pows[-1]
            shifted = [base.zero] + list(prev[: k - 1])
            top = prev[k - 1]
            pows.append(tuple(s + top * x for s, x in zip(shifted, xk)))
        self._xk_pows = pows
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

    def lower(self, x: ExtElement):
        """Section of the embedding; raises if x is not base-rational."""
        if any(x.coeffs[1:]):
            raise MixedFieldsError("element does not lie in the base field")
        return x.coeffs[0]

    def _mul(self, a: ExtElement, b: ExtElement) -> ExtElement:
        k = self.degree
        base = self.base
        prod = [base.zero] * (2 * k - 1)
        for i, ai in enumerate(a.coeffs):
            if not ai:
                continue
            for j, bj in enumerate(b.coeffs):
                prod[i + j] = prod[i + j] + ai * bj
        out = prod[:k]
        for idx in range(k, 2 * k - 1):
            c = prod[idx]
            if c:
                red = self._xk_pows[idx - k]
                for j in range(k):
                    out[j] = out[j] + c * red[j]
        return ExtElement(self, tuple(out))

    def _inv(self, a: ExtElement) -> ExtElement:
        if not a:
            raise DivisionByZeroError("inversion of zero in extension field")
        # modulus first: dividing it by a is the first step, not a swap
        _, _, t = poly_xgcd(Poly(self.base, self.modulus), Poly(self.base, a.coeffs))
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
    leading 1 (extension kind only).
    """
    if kind == "rational":
        return QQ
    if kind == "prime":
        return PrimeField(p)
    if kind == "extension":
        base = PrimeField(p)
        return ExtensionField(base, [base.from_int(c) for c in modulus])
    raise NonPrimeModulusError(f"unknown field kind {kind!r}")


def frobenius(x, iterate: int = 1, base_order: int | None = None):
    """Apply y -> y^(q0^iterate); q0 defaults to the characteristic.

    Fixes the field of size q0 pointwise.
    """
    field = getattr(x, "field", None)
    if field is None or field.kind == "rational":
        raise RationalFieldError("Frobenius is undefined over the rationals")
    q0 = field.char if base_order is None else base_order
    return x ** (q0 ** iterate)


def pth_root(x):
    """The unique y with y^p = x in a finite field of size p^k."""
    field = getattr(x, "field", None)
    if field is None or field.kind == "rational":
        raise RationalFieldError("p-th roots are only taken in finite fields")
    p = field.char
    k = 0
    q = field.order
    while q > 1:
        q //= p
        k += 1
    return x ** (p ** (k - 1))
