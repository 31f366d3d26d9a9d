import random

import pytest

from sympnf.errors import (
    DivisionByZeroError,
    MixedFieldsError,
    NonPrimeModulusError,
    RationalFieldError,
    ReducibleModulusError,
)
from sympnf.fields import (
    ExtElement,
    ExtensionField,
    PrimeField,
    QQ,
    frobenius,
    is_prime,
    make_field,
)
from sympnf.poly import Poly, _poly_pth_root
from fractions import Fraction


F3 = PrimeField(3)
F5 = PrimeField(5)
F9 = make_field("extension", p=3, modulus=[1, 0, 1])
F101 = PrimeField(101)


def pth_root(x):
    """The p-th root of x that squarefree decomposition takes, as the one
    coefficient of the root of a constant polynomial."""
    return _poly_pth_root(Poly(x.field, [x]))[0]


class TestConstruction:
    def test_prime_context(self):
        f = make_field("prime", p=5)
        assert f.order == 5

    def test_char_two_rejected(self):
        with pytest.raises(NonPrimeModulusError):
            make_field("prime", p=2)

    def test_composite_rejected(self):
        with pytest.raises(NonPrimeModulusError):
            make_field("prime", p=9)
        # strong pseudoprimes to the first twelve and first thirteen prime bases
        for p, q in ((399165290221, 798330580441), (1287836182261, 2575672364521)):
            with pytest.raises(NonPrimeModulusError):
                PrimeField(p * q)

    def test_characteristic_beyond_exact_primality_rejected(self):
        # 2^89 - 1 is prime, but above the bound where is_prime is exact
        assert PrimeField(2**61 - 1).order == 2**61 - 1
        with pytest.raises(NonPrimeModulusError):
            PrimeField(2**89 - 1)

    def test_extension_context(self):
        # oracle: x^2+1 has no root mod 3, checked exhaustively
        assert all((x * x + 1) % 3 != 0 for x in range(3))
        assert F9.order == 9

    def test_reducible_modulus_rejected(self):
        # x^2 - 1 = (x-1)(x+1) over F_3
        with pytest.raises(ReducibleModulusError):
            make_field("extension", p=3, modulus=[-1, 0, 1])

    def test_non_monic_modulus_rejected(self):
        with pytest.raises(ReducibleModulusError):
            make_field("extension", p=3, modulus=[1, 0, 2])

    def test_is_prime_small(self):
        # oracle: trial division
        for n in range(2, 200):
            assert is_prime(n) == all(n % d for d in range(2, n))


class TestArithmetic:
    def test_rational_add(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_prime_inverse(self):
        inv = F5.one / F5.from_int(2)
        assert inv == F5.from_int(3)
        assert F5.from_int(2) * inv == F5.one  # oracle: multiply back

    def test_extension_square_of_generator(self):
        # forced by the modulus x^2 = -1
        assert F9.gen * F9.gen == F9.from_int(-1)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroError):
            F5.one / F5.zero
        with pytest.raises(DivisionByZeroError):
            F9.one / F9.zero

    def test_mixed_fields_rejected(self):
        with pytest.raises(MixedFieldsError):
            F5.one + F3.one
        with pytest.raises(MixedFieldsError):
            F9.one + Fraction(1)

    def test_int_lifting(self):
        assert F5.from_int(4) + 3 == F5.from_int(2)
        assert 2 * F9.gen == F9.gen + F9.gen


class TestGaloisMaps:
    def test_frobenius_on_generator(self):
        # a^3 = a * a^2 = a * (-1) = -a = 2a
        assert frobenius(F9.gen) == F9.from_int(2) * F9.gen

    def test_frobenius_fixes_base(self):
        assert frobenius(F9.from_int(2)) == F9.from_int(2)

    def test_frobenius_identity_on_prime_field(self):
        assert frobenius(F5.from_int(4), base_order=5) == F5.from_int(4)

    def test_frobenius_undefined_over_rationals(self):
        with pytest.raises(RationalFieldError):
            frobenius(Fraction(2))

    def test_pth_root_prime_field(self):
        y = pth_root(F3.from_int(2))
        assert y ** 3 == F3.from_int(2)  # oracle: cube it

    def test_pth_root_extension(self):
        x = F9.gen * F9.gen
        y = pth_root(x)
        assert y ** 3 == x

    def test_pth_root_identity(self):
        assert pth_root(F9.one) == F9.one


def _random_element(field, rng):
    if field is QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if isinstance(field, ExtensionField):
        from sympnf.fields import ExtElement

        return ExtElement(
            field, tuple(field.base.from_int(rng.randrange(field.base.order)) for _ in range(field.degree))
        )
    return field.from_int(rng.randrange(field.order))


@pytest.mark.parametrize("field", [QQ, F3, F5, F101, F9], ids=["QQ", "F3", "F5", "F101", "F9"])
def test_field_axioms_on_seeded_triples(field):
    rng = random.Random(20240601)
    for _ in range(60):
        a, b, c = (_random_element(field, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == field.zero
        if bool(a):
            assert a * (field.one / a) == field.one


@pytest.mark.parametrize("field", [F3, F5, F101, F9], ids=["F3", "F5", "F101", "F9"])
def test_pth_root_section_of_frobenius(field):
    rng = random.Random(7)
    p = field.char
    for _ in range(40):
        x = _random_element(field, rng)
        assert pth_root(x) ** p == x


def test_frobenius_is_an_automorphism():
    rng = random.Random(11)
    for _ in range(40):
        a = _random_element(F9, rng)
        b = _random_element(F9, rng)
        assert frobenius(a * b) == frobenius(a) * frobenius(b)
        assert frobenius(a + b) == frobenius(a) + frobenius(b)


def test_frobenius_order_equals_extension_degree():
    rng = random.Random(13)
    for _ in range(20):
        x = _random_element(F9, rng)
        assert frobenius(frobenius(x)) == x  # k = 2 for F_9


def test_tower_extension():
    # degree-2 extension of F_9, absolute order 81
    from sympnf.poly import is_irreducible

    for c0 in range(9):
        lo = F9.base.from_int(c0 % 3), F9.base.from_int(c0 // 3)
        from sympnf.fields import ExtElement

        cand = Poly(F9, [ExtElement(F9, lo), F9.one, F9.one])
        if is_irreducible(cand):
            break
    tower = ExtensionField(F9, cand.coeffs)
    assert tower.order == 81
    x = tower.gen
    assert x ** 81 == x  # absolute Frobenius closes
    assert (tower.one / (x + tower.one)) * (x + tower.one) == tower.one


def test_elements_of_a_small_extension_compute_without_zech_tables():
    # F_3[x]/(x^3 + 2x + 2): x^3 + 2x + 2 takes the value 2 at 0, 1 and 2, so it is irreducible
    field = ExtensionField(F3, [F3.from_int(c) for c in (2, 2, 0, 1)])
    def ref_mul(x, y):
        # schoolbook on ints, then x^3 = x + 1
        prod = [0] * 5
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                prod[i + j] += xi * yj
        for d in (4, 3):
            prod[d - 3] += prod[d]
            prod[d - 2] += prod[d]
        return tuple(c % 3 for c in prod[:3])

    codes = [(a, b, c) for c in range(3) for b in range(3) for a in range(3)]
    elems = {t: ExtElement(field, tuple(map(F3.from_int, t))) for t in codes}
    value = {e: t for t, e in elems.items()}
    one = (1, 0, 0)
    for s, x in elems.items():
        for t, y in elems.items():
            assert value[x * y] == ref_mul(s, t)
            if any(t):
                assert value[(x / y) * y] == s
        if any(s):
            inv = next(t for t in codes if ref_mul(s, t) == one)
            assert value[x ** -1] == inv
            assert value[x ** -2] == ref_mul(inv, inv)
            assert field.one / x == x ** -1
        cube = ref_mul(s, ref_mul(s, s))
        assert value[frobenius(x)] == cube
        assert frobenius(x, 3) == x
        assert value[elems[cube] ** (field.order // 3)] == s  # y^(q/p) undoes the cube
    assert field._ops is None
