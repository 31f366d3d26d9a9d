import math
import random
from fractions import Fraction
from functools import reduce
from itertools import permutations, product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympnf.errors import DivisionByZeroError, NotCoprimeError, RationalFieldError
from sympnf.fields import ExtensionField, PrimeField, QQ, make_field
from sympnf.linalg import Mat
from sympnf.poly import (
    Poly,
    factor,
    is_irreducible,
    monic_square_root,
    multi_bezout,
    poly_gcd,
    poly_xgcd,
    power,
    squarefree_decomposition,
)

from test_raw_values import F101_3, elements

F3 = PrimeField(3)
F5 = PrimeField(5)
F9 = make_field("extension", p=3, modulus=[1, 0, 1])
F101 = PrimeField(101)
ALL_FIELDS = [QQ, F3, F5, F9]
FIELD_IDS = ["QQ", "F3", "F5", "F9"]


def _random_scalar(field, rng):
    if field is QQ:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    if field.kind == "extension":
        from sympnf.fields import ExtElement

        return ExtElement(
            field,
            tuple(field.base.from_int(rng.randrange(field.base.order)) for _ in range(field.degree)),
        )
    return field.from_int(rng.randrange(field.order))


def _random_poly(field, rng, max_deg=5, monic=False):
    deg = rng.randint(0, max_deg)
    coeffs = [_random_scalar(field, rng) for _ in range(deg + 1)]
    if not coeffs[-1]:
        coeffs[-1] = field.one
    if monic:
        coeffs[-1] = field.one
    return Poly(field, coeffs)


class TestDivision:
    def test_divmod_over_f3(self):
        f = Poly(F3, [0, 0, 1])  # t^2
        g = Poly(F3, [1, 1])  # t + 1
        q, r = f.divmod(g)
        assert q == Poly(F3, [2, 1])  # t + 2
        assert r == Poly(F3, [1])
        assert q * g + r == f  # oracle: remultiply

    def test_divmod_by_zero(self):
        with pytest.raises(DivisionByZeroError):
            Poly.x(F3).divmod(Poly.zero(F3))

    def test_evaluate_horner(self):
        f = Poly(QQ, [Fraction(1), Fraction(-3), Fraction(1)])  # t^2 - 3t + 1
        assert f.evaluate(Fraction(2)) == Fraction(-1)

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=FIELD_IDS)
    def test_divmod_roundtrip(self, field):
        rng = random.Random(101)
        for _ in range(40):
            a = _random_poly(field, rng)
            b = _random_poly(field, rng)
            if b.is_zero():
                continue
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.degree < b.degree


class TestGcd:
    def test_gcd_of_shifted_products(self):
        t = Poly.x(QQ)
        one = Poly.one(QQ)
        a = (t - one) * (t - one * 2)
        b = (t - one) * (t - one * 3)
        assert poly_gcd(a, b) == t - one

    def test_xgcd_identity_frozen(self):
        t = Poly.x(F5)
        g, s, u = poly_xgcd(t ** 2 + Poly.one(F5), t)
        assert g == Poly.one(F5)
        assert s * (t ** 2 + Poly.one(F5)) + u * t == g

    def test_multi_bezout_two_linear(self):
        t = Poly.x(QQ)
        one = Poly.one(QQ)
        qs = multi_bezout([t - one, t - one * 2])
        # 1*(t-1) + (-1)*(t-2) = 1 is the unique degree-0 cofactor pair
        assert qs == [one, -one]
        assert qs[0] * (t - one) + qs[1] * (t - one * 2) == one

    def test_multi_bezout_singleton(self):
        assert multi_bezout([Poly.one(F3)]) == [Poly.one(F3)]

    def test_multi_bezout_three_over_f5(self):
        t = Poly.x(F5)
        rs = [t, t + Poly.one(F5), t + Poly.one(F5) * 2]
        qs = multi_bezout(rs)
        acc = Poly.zero(F5)
        for q, r in zip(qs, rs):
            acc = acc + q * r
        assert acc == Poly.one(F5)

    def test_multi_bezout_rejects_common_factor(self):
        t = Poly.x(F3)
        with pytest.raises(NotCoprimeError):
            multi_bezout([t, t * (t + Poly.one(F3))])

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=FIELD_IDS)
    def test_xgcd_closes_on_random_pairs(self, field):
        rng = random.Random(17)
        for _ in range(30):
            a = _random_poly(field, rng)
            b = _random_poly(field, rng)
            g, s, u = poly_xgcd(a, b)
            assert s * a + u * b == g
            if not g.is_zero():
                assert g.lc() == field.one
                assert (a % g).is_zero() and (b % g).is_zero()


class TestSquarefree:
    def test_separable_example(self):
        t = Poly.x(QQ)
        one = Poly.one(QQ)
        f = (t - one) ** 2 * (t + one)
        assert squarefree_decomposition(f) == [(t + one, 1), (t - one, 2)]

    def test_char_p_cube(self):
        # derivative of t^3 vanishes mod 3; the p-th-root branch must fire
        t = Poly.x(F3)
        assert squarefree_decomposition(t ** 3) == [(t, 3)]

    def test_extension_field_frobenius_branch(self):
        # (t - a)^3 over F_9 also has zero derivative; coefficients need cube roots
        t = Poly.x(F9)
        g = t - Poly(F9, [F9.gen])
        assert squarefree_decomposition(g ** 3) == [(g, 3)]

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=FIELD_IDS)
    def test_squarefree_remultiplies(self, field):
        rng = random.Random(23)
        for _ in range(25):
            f = _random_poly(field, rng, max_deg=4, monic=True)
            if f.degree < 1:
                continue
            parts = squarefree_decomposition(f)
            acc = Poly.one(field)
            for g, m in parts:
                acc = acc * g ** m
                assert poly_gcd(g, g.derivative()).degree == 0  # each part separable
            assert acc == f


class TestIrreducibility:
    def test_known_irreducibles(self):
        assert is_irreducible(Poly(F3, [1, 0, 1]))  # t^2 + 1
        assert is_irreducible(Poly(F3, [1, 2, 0, 1]))  # t^3 + 2t + 1
        assert not is_irreducible(Poly(F5, [1, 0, 1]))  # splits mod 5
        assert not is_irreducible(Poly(F3, [0, 0, 1]))

    def test_against_exhaustive_oracle_deg2_f3(self):
        # oracle: a monic quadratic over F_3 is irreducible iff it has no root
        for c0 in range(3):
            for c1 in range(3):
                f = Poly(F3, [c0, c1, 1])
                has_root = any(not f.evaluate(F3.from_int(x)) for x in range(3))
                assert is_irreducible(f) == (not has_root)

    def test_refused_over_the_rationals(self):
        with pytest.raises(RationalFieldError):
            is_irreducible(Poly(QQ, [1, 0, 1]))
        with pytest.raises(RationalFieldError):
            ExtensionField(QQ, [1, 0, 1])


class TestFactor:
    def test_splits_over_f5(self):
        # t^2 + 1 = (t+2)(t+3) mod 5; oracle: 2^2 = 3^2 = -1 mod 5
        f = Poly(F5, [1, 0, 1])
        fac = factor(f)
        assert fac.unit == F5.one
        assert fac.factors == (
            (Poly(F5, [2, 1]), 1),
            (Poly(F5, [3, 1]), 1),
        )
        assert not fac.unresolved

    def test_rational_roots(self):
        t = Poly.x(QQ)
        one = Poly.one(QQ)
        f = t ** 2 - one * 5 * t + one * 6
        fac = factor(f)
        # canonical order: (degree, coefficient key), so t-3 precedes t-2
        assert fac.factors == ((t - one * 3, 1), (t - one * 2, 1))
        assert not fac.unresolved

    def test_rational_unresolved(self):
        f = Poly(QQ, [1, 0, 1])  # no rational roots
        fac = factor(f)
        assert fac.factors == ()
        assert fac.unresolved == ((f, 1),)
        assert fac.unresolved

    def test_non_monic_unit(self):
        f = Poly(QQ, [Fraction(-2), Fraction(0), Fraction(2)])  # 2(t-1)(t+1)
        fac = factor(f)
        assert fac.unit == Fraction(2)
        assert fac.product() == f

    def test_multiplicity_over_f3(self):
        t = Poly.x(F3)
        p = t ** 2 + Poly.one(F3)
        fac = factor(p ** 2 * t)
        assert fac.factors == ((t, 1), (p, 2))

    def test_seed_determinism(self):
        f = Poly(F101, [7, 0, 0, 0, 1])
        assert factor(f, seed=5) == factor(f, seed=5)

    @pytest.mark.parametrize("field", [F3, F5, F9, F101], ids=["F3", "F5", "F9", "F101"])
    def test_random_finite_field_factorizations(self, field):
        rng = random.Random(31)
        for trial in range(20):
            f = _random_poly(field, rng, max_deg=5)
            if f.degree < 1:
                continue
            fac = factor(f, seed=trial)
            assert not fac.unresolved
            assert fac.product() == f  # exact remultiplication
            for g, _ in fac.factors:
                assert g.lc() == field.one
                assert is_irreducible(g)

    def test_rational_random_products_of_linears(self):
        rng = random.Random(37)
        t = Poly.x(QQ)
        for _ in range(20):
            roots = sorted(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
            f = Poly.one(QQ)
            for r in roots:
                f = f * (t - Poly(QQ, [r]))
            fac = factor(f)
            recovered = sorted(
                -g.coeffs[0] for g, m in fac.factors for _ in range(m)
            )
            assert recovered == roots
            assert not fac.unresolved


def test_factor_order_is_canonical():
    # sorted by (degree, coefficient key), independent of discovery order
    t = Poly.x(F5)
    one = Poly.one(F5)
    for parts in permutations([t, t + one, t + one * 4]):
        f = parts[0] * parts[1] * parts[2]
        fac = factor(f)
        assert [g for g, _ in fac.factors] == [t, t + one, t + one * 4]


# --- rational roots ----------------------------------------------------------


def _linear(r):
    return Poly(QQ, [-r, Fraction(1)])


@st.composite
def _rational_root_cases(draw):
    """(f, its roots with multiplicities, its unit, its unresolved part): roots
    with numerators to 10^30 and denominators to 10^6, some repeated, maybe
    zero, times a rational scale and maybe a power of t^2 + c, c > 0."""
    roots = {}
    fractions = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**6))
    for r in draw(st.lists(fractions, max_size=4)) + [Fraction(0)] * draw(st.booleans()):
        roots[r] = roots.get(r, 0) + draw(st.integers(1, 3))
    unresolved = ()
    if draw(st.booleans()) or not roots:
        c = draw(st.builds(Fraction, st.integers(1, 10**12), st.integers(1, 10**6)))
        unresolved = ((Poly(QQ, [c, Fraction(0), Fraction(1)]), draw(st.integers(1, 2))),)
    unit = draw(st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))) * draw(st.sampled_from((1, -1)))
    f = Poly(QQ, [unit])
    for g, m in [(_linear(r), m) for r, m in roots.items()] + list(unresolved):
        f = f * g ** m
    return f, roots, unit, unresolved


@settings(max_examples=100, deadline=None)
@given(case=_rational_root_cases())
def test_factor_returns_exactly_the_rational_roots(case):
    f, roots, unit, unresolved = case
    fac = factor(f)
    assert fac.unit == unit
    assert fac.factors == tuple(sorted(((_linear(r), m) for r, m in roots.items()), key=lambda fm: fm[0].sort_key()))
    assert fac.unresolved == unresolved


def _divisors_by_trial_division(n):
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small]


def _rational_roots_by_trial_division(f):
    """Oracle: every a/b with a | c0 and b | lc of the primitive integer form
    of f, tried one by one, with multiplicity by repeated division."""
    scale = math.lcm(*[c.denominator for c in f.coeffs])
    ints = [int(c * scale) for c in f.coeffs]
    roots = {}
    while not ints[0]:
        roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
        ints = ints[1:]
    candidates = {
        Fraction(s * a, b)
        for a in _divisors_by_trial_division(ints[0])
        for b in _divisors_by_trial_division(ints[-1])
        for s in (1, -1)
    }
    for r in candidates:
        g = f
        while g.evaluate(r) == 0:
            roots[r] = roots.get(r, 0) + 1
            g = g // _linear(r)
    return roots


@settings(max_examples=100, deadline=None)
@given(
    roots=st.lists(st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50)), max_size=3),
    cofactor=st.lists(st.integers(-50, 50), min_size=1, max_size=4).filter(any),
)
def test_factor_matches_a_trial_division_oracle_at_small_height(roots, cofactor):
    """Roots and an arbitrary integer cofactor of height at most 50."""
    f = Poly(QQ, cofactor)
    for r in roots:
        f = f * _linear(r)
    if f.degree < 1:
        return
    fac = factor(f)
    assert {-g.coeffs[0]: m for g, m in fac.factors if g.degree == 1} == _rational_roots_by_trial_division(f)


@pytest.mark.parametrize(
    "ints,primes,roots",
    [
        ([-1, 15], [7], [Fraction(1, 15)]),  # 3 and 5 divide the leading coefficient
        ([4, -5, 1], [3, 5], [Fraction(4), Fraction(1)]),  # (t - 1)(t - 4) has a double root mod 3
    ],
    ids=["15t-1", "(t-1)(t-4)"],
)
def test_the_root_search_passes_over_unfit_primes(monkeypatch, ints, primes, roots):
    """The primes tried are exactly those up to the first odd one that does not
    divide the leading coefficient and keeps f squarefree."""
    import sympnf.fields

    tried = []

    class Spy(PrimeField):
        def __init__(self, p):
            tried.append(p)
            super().__init__(p)

    monkeypatch.setattr(sympnf.fields, "PrimeField", Spy)
    fac = factor(Poly(QQ, ints))
    assert tried == primes
    assert [-g.coeffs[0] for g, _ in fac.factors] == roots


# --- one square-and-multiply -------------------------------------------------


def _squares(field, n):
    return st.lists(st.lists(elements(field), min_size=n, max_size=n), min_size=n, max_size=n).map(
        lambda rows: Mat(field, rows)
    )


def _polys(field):
    return st.lists(elements(field), min_size=1, max_size=4).map(lambda c: Poly(field, c))


POWER_CASES = {
    "Mat/QQ": (_squares(QQ, 2), lambda x: Mat.identity(QQ, 2)),
    "Mat/F101": (_squares(F101, 3), lambda x: Mat.identity(F101, 3)),
    "Poly/F101": (_polys(F101), lambda x: Poly.one(F101)),
    "ExtElement/F9": (elements(F9), lambda x: F9.one),
    "ExtElement/F101^3": (elements(F101_3), lambda x: F101_3.one),
}


@pytest.mark.parametrize("case", list(POWER_CASES))
@settings(max_examples=20, deadline=None)
@given(data=st.data(), e=st.integers(0, 40))
def test_power_is_the_e_fold_product(case, data, e):
    values, one = POWER_CASES[case]
    x = data.draw(values)
    expected = reduce(mul, [x] * e, one(x))
    assert x ** e == expected
    assert power(x, e, one(x)) == expected


@settings(max_examples=40, deadline=None)
@given(x=_polys(F101), m=_polys(F101).filter(lambda m: not m.is_zero()), e=st.integers(0, 40))
def test_pow_mod_is_the_power_reduced(x, m, e):
    assert x.pow_mod(e, m) == (x ** e) % m


def test_power_refuses_a_negative_exponent():
    with pytest.raises(ValueError):
        power(Poly.x(F5), -1, Poly.one(F5))


def _poly_of_degree(field, deg):
    """Polynomials of exact degree deg (not necessarily monic)."""
    nonzero = elements(field).filter(bool)
    return st.tuples(st.lists(elements(field), min_size=deg, max_size=deg), nonzero).map(
        lambda cl: Poly(field, cl[0] + [cl[1]])
    )


@st.composite
def _irreducibility_cases(draw):
    """A polynomial of degree 1-8: random, a product of two, or a p-th power."""
    field = draw(st.sampled_from([F3, F5, F101, F9]))
    shape = draw(st.sampled_from(["random", "product", "power"]))
    p = field.char
    if shape == "power" and p <= 8:
        return field, draw(_poly_of_degree(field, draw(st.integers(1, 8 // p)))) ** p
    if shape == "product":
        d1 = draw(st.integers(1, 7))
        return field, draw(_poly_of_degree(field, d1)) * draw(_poly_of_degree(field, draw(st.integers(1, 8 - d1))))
    return field, draw(_poly_of_degree(field, draw(st.integers(1, 8))))


def _has_monic_divisor(f, max_deg):
    """Trial division by every monic polynomial of degree 1..max_deg."""
    field = f.field
    for d in range(1, max_deg + 1):
        for low in product(range(field.order), repeat=d):
            g = Poly(field, list(low) + [1])
            if (f % g).is_zero():
                return True
    return False


@settings(max_examples=150, deadline=None)
@given(case=_irreducibility_cases())
def test_is_irreducible_is_a_single_factor_of_factor(case):
    """is_irreducible(f) exactly when factor(f) finds one factor, of
    multiplicity 1 and degree deg f; over F_3 and F_5 in degree <= 6 also
    exactly when no monic polynomial of degree <= deg f / 2 divides f."""
    field, f = case
    fac = factor(f)
    single = len(fac.factors) == 1 and fac.factors[0][1] == 1 and fac.factors[0][0].degree == f.degree
    assert is_irreducible(f) == single
    if field in (F3, F5) and f.degree <= 6:
        assert is_irreducible(f) == (not _has_monic_divisor(f, f.degree // 2))


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from([QQ, F5, F101, F9, F101_3]), data=st.data())
def test_monic_square_root(field, data):
    """The monic root of g * g is g for monic g.  g * g + r for a nonzero r
    of degree below deg g has none: h * h - g * g = (h - g)(h + g) has
    degree at least deg g for any monic h != g of degree deg g."""
    deg = data.draw(st.integers(0, 5), label="deg")
    g = data.draw(_poly_of_degree(field, deg), label="g").monic()
    assert monic_square_root(g * g) == g
    if deg:
        low = data.draw(_poly_of_degree(field, data.draw(st.integers(0, deg - 1), label="low")), label="term")
        assert monic_square_root(g * g + low) is None
    assert monic_square_root(g * g * Poly.x(field)) is None  # odd degree
