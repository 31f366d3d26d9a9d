"""Property tests for the raw-value layer under the linalg kernels: the
codecs and scalar primitives of every kind of ``field.ops``, the Zech tables,
and the kernels' defining identities on random matrices of every shape."""

import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sympnf.errors import MixedFieldsError, SingularMatrixError
from sympnf.fields import (
    ZECH_MAX_ORDER,
    CoeffOps,
    ExtElement,
    ExtensionField,
    PrimeField,
    QQ,
    RationalOps,
    ResidueOps,
    ZechOps,
    make_field,
)
from sympnf.linalg import (
    Mat,
    _berkowitz,
    _reduce,
    charpoly,
    extend_scalars,
    inverse,
    kernel,
    Subspace,
    mat_poly_eval,
    restrict_scalars,
    rref,
    solve,
)
from sympnf.poly import Poly, _poly_pth_root, is_irreducible

from oracles import ElementOps, matvec

F3 = PrimeField(3)
F101 = PrimeField(101)
F9 = make_field("extension", p=3, modulus=[1, 0, 1])


def _first_irreducible(base, degree):
    """The first monic irreducible t^degree + t + c over base, c in base order."""
    for c in range(base.order):
        low = [_element_of_code(base, c), base.one] + [base.zero] * (degree - 2)
        p = Poly(base, low + [base.one])
        if is_irreducible(p):
            return p.coeffs
    raise AssertionError("no irreducible t^d + t + c")


def _element_of_code(field, code):
    if isinstance(field, ExtensionField):
        q = field.base.order
        return ExtElement(field, tuple(_element_of_code(field.base, code // q**i % q) for i in range(field.degree)))
    return field.from_int(code)


F81 = ExtensionField(F9, _first_irreducible(F9, 2))
F729 = ExtensionField(F9, _first_irreducible(F9, 3))
F101_2 = make_field("extension", p=101, modulus=[-2, 0, 1])  # 2 is not a square mod 101
F101_3 = ExtensionField(F101, _first_irreducible(F101, 3))
# towers above ZECH_MAX_ORDER: coefficient codes over a Zech base and over a coefficient-code base
F9_4 = ExtensionField(F9, _first_irreducible(F9, 4))
F101_2_2 = ExtensionField(F101_2, _first_irreducible(F101_2, 2))

FIELDS = [QQ, F3, F101, F9, F81, F101_2, F101_3, F9_4, F101_2_2]
IDS = ["QQ", "F3", "F101", "F9", "F81", "F101^2", "F101^3", "F9^4", "F101^2^2"]


def test_representation_follows_the_order():
    assert type(QQ.ops) is RationalOps
    assert type(F3.ops) is ResidueOps and type(F101.ops) is ResidueOps
    assert all(type(f.ops) is ZechOps for f in (F9, F81, F729))
    assert F729.order <= ZECH_MAX_ORDER < F101_2.order
    assert all(type(f.ops) is CoeffOps for f in (F101_2, F101_3, F9_4, F101_2_2))
    assert type(F9_4.base.ops) is ZechOps and type(F101_2_2.base.ops) is CoeffOps


def elements(field):
    if field is QQ:
        return st.fractions(min_value=-20, max_value=20, max_denominator=12)
    return st.integers(0, field.order - 1).map(lambda c: _element_of_code(field, c))


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_raw_scalars_agree_with_the_elements(field, data):
    a = data.draw(elements(field))
    b = data.draw(elements(field))
    ops = field.ops
    ra, rb = ops.encode(a), ops.encode(b)
    assert ops.decode(ra) == a
    assert bool(ra) == bool(a)  # the raw zero is the only falsy raw value
    if field is QQ:
        assert _canonical(ra) and type(ops.decode(ra)) is Fraction
    else:
        assert type(ra) is int and 0 <= ra < field.order
    assert ops.decode(ops.add(ra, rb)) == a + b  # coefficient-wise, independent of the tables
    assert ops.decode(ops.neg(ra)) == -a
    def mul(x, y):
        return ops.scale(x, [y])[0]

    assert ops.decode(mul(ra, rb)) == a * b
    assert ops.mul(ra, rb) == mul(ra, rb)
    if a:
        assert ops.decode(ops.inv(ra)) * a == field.one
    xs, ys = [ra, rb, ops.zero], [rb, ops.zero, ra]
    for c in (ra, rb, ops.zero):
        assert ops.axpy(c, xs, ys) == [ops.add(mul(c, x), y) for x, y in zip(xs, ys)]
        assert ops.scale(c, xs) == [mul(c, x) for x in xs]
    products = [mul(x, y) for x, y in zip(xs + [ra], ys + [rb])]
    assert ops.dot(xs + [ra], ys + [rb]) == ops.add(ops.add(products[0], products[3]), products[1])


# --- the rational kernels against plain Fraction arithmetic --------------------

# denominators that are equal to, divide, share a factor with or are coprime to
# one another, with small, 30-digit and zero numerators, so that the draws take
# every branch of RationalOps.axpy
_DENOMINATORS = (1, 2, 3, 4, 6, 12, 7, 10**20 + 39)


def rationals():
    numerators = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(10**30), 10**30))
    return st.builds(Fraction, numerators, st.sampled_from(_DENOMINATORS))


def _fraction_dot(xs, ys):
    return sum((x * y for x, y in zip(xs, ys)), Fraction(0))


def _canonical(v):
    """v is a QQ raw value in canonical form: an int exactly when it is
    integral, else a Fraction (which is always in lowest terms)."""
    return type(v) is (int if v.denominator == 1 else Fraction)


# every branch of RationalOps.axpy in one row: an integer, a coprime
# denominator, an equal one, a divisor, one sharing a factor, a zero on either
# side, a 30-digit numerator
_EVERY_BRANCH = [
    (Fraction(3), Fraction(-2)),
    (Fraction(5, 4), Fraction(1, 3)),
    (Fraction(1, 6), Fraction(1, 2)),
    (Fraction(7, 2), Fraction(1, 2)),
    (Fraction(1, 10), Fraction(1)),
    (Fraction(0), Fraction(5, 7)),
    (Fraction(2, 9), Fraction(0)),
    (Fraction(10**30 + 1, 7), Fraction(-1, 3)),
]


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(rationals(), rationals()), max_size=7), c=rationals())
@example(pairs=_EVERY_BRANCH, c=Fraction(-1))
@example(pairs=_EVERY_BRANCH, c=Fraction(1))
@example(pairs=_EVERY_BRANCH, c=Fraction(-10**30, 7))
def test_rational_kernels_agree_with_fraction_arithmetic(pairs, c):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    ops = QQ.ops
    rx, ry = [ops.encode(x) for x in xs], [ops.encode(y) for y in ys]
    got = [ops.dot(rx, ry), *ops.scale(ops.encode(c), rx), *ops.axpy(ops.encode(c), rx, ry)]
    assert got == [_fraction_dot(xs, ys), *(c * x for x in xs), *(c * x + y for x, y in zip(xs, ys))]
    assert all(map(_canonical, got))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rational_matmul_agrees_with_fraction_arithmetic(data):
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    rows = [data.draw(st.lists(rationals(), min_size=k, max_size=k)) for _ in range(r)]
    cols = [data.draw(st.lists(rationals(), min_size=k, max_size=k)) for _ in range(c)]
    got = QQ.ops.matmul(QQ.ops.encode_rows(rows), QQ.ops.encode_rows(cols))
    assert got == tuple(tuple(_fraction_dot(x, y) for y in cols) for x in rows)
    assert all(_canonical(v) for row in got for v in row)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rational_charpoly_is_the_fraction_berkowitz(data):
    n = data.draw(st.integers(1, 5))
    a = Mat(QQ, [data.draw(st.lists(rationals(), min_size=n, max_size=n)) for _ in range(n)])
    got = charpoly(a).raw
    assert list(got) == _berkowitz(a.rows, Fraction(1), operator.neg, _fraction_dot)[::-1]
    assert all(map(_canonical, got))


@st.composite
def rational_blocks(draw):
    """(rows, width) for ``_reduce``: rows of rationals(), half of them
    rank-deficient products, with zero rows and all-integer rows mixed in,
    and pivots allowed in the first ``width`` of the columns only."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 6))

    def vectors(count, length):
        return [tuple(draw(st.lists(rationals(), min_size=length, max_size=length))) for _ in range(count)]

    if n > 1 and m and draw(st.booleans()):
        k = draw(st.integers(1, n - 1))
        rows = list(QQ.ops.matmul(vectors(n, k), vectors(m, k)))
    else:
        rows = vectors(n, m)
    for i in range(n):
        kind = draw(st.sampled_from(("as drawn", "zero", "integers")))
        if kind == "zero":
            rows[i] = (QQ.zero,) * m
        elif kind == "integers":
            rows[i] = tuple(Fraction(x.numerator) for x in rows[i])
    return rows, draw(st.integers(0, m))


@settings(max_examples=150, deadline=None)
@given(block=rational_blocks())
@example(block=([], 3))  # no rows
@example(block=([(Fraction(0),)], 1))  # a 1x1 zero
@example(block=([(Fraction(0), Fraction(1, 3)), (Fraction(2, 7), Fraction(5))], 2))  # a swap at column 0
def test_rational_reduce_is_the_element_loop(block):
    """The fraction-free elimination over QQ against the field loop on the
    same rows: the same pivots and RREF, and below the rank nonzero multiples
    of the same rows."""
    rows, width = block
    got, want = list(rows), list(rows)
    pivots = _reduce(QQ.ops, got, width)
    assert pivots == _reduce(ElementOps(QQ), want, width)
    rk = len(pivots)
    assert list(map(tuple, got[:rk])) == list(map(tuple, want[:rk]))
    for f, e in zip(got[rk:], want[rk:]):
        k = next((j for j, x in enumerate(e) if x), None)
        if k is None:
            assert not any(f)
        else:
            assert f[k] and [x * f[k] for x in e] == [y * e[k] for y in f]
    assert all(_canonical(v) for r in got for v in r)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_matmul_is_the_entrywise_dot(field, data):
    ops = field.ops
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))

    def vector():
        return tuple(ops.encode(data.draw(elements(field))) for _ in range(k))

    rows, cols = [vector() for _ in range(r)], [vector() for _ in range(c)]
    assert ops.matmul(rows, cols) == tuple(tuple(ops.dot(x, y) for y in cols) for x in rows)
    # through a 0-wide inner dimension every entry is the raw zero
    assert ops.matmul([()] * 2, [()] * 3) == ((ops.zero,) * 3,) * 2
    assert Mat.zeros(field, 2, 0) * Mat.zeros(field, 0, 3) == Mat.zeros(field, 2, 3)


@pytest.mark.parametrize("field", [F9, F81, F729], ids=["F9", "F81", "F729"])
def test_zech_tables_round_trip(field):
    ops = field.ops
    m = field.order - 1
    assert sorted(ops.exp) == list(range(1, m + 1))  # g is primitive: its powers are every nonzero code
    assert all(ops.log[code] == k + 1 for k, code in enumerate(ops.exp))
    assert ops.log[0] == 0
    for d in range(0, m, max(1, m // 200)):
        one_plus = ops.decode(ops.one) + ops.decode(d + 1)
        assert ops.zech[d] == ops.encode(one_plus)
    g = ops.encode(field.gen)
    assert ops.decode(ops.mul(g, g)) == field.gen * field.gen


F27 = make_field("extension", p=3, modulus=[1, 2, 0, 1])  # t^3 + 2t + 1
F625 = make_field("extension", p=5, modulus=[2, 0, 0, 0, 1])  # t^4 + 2


@pytest.mark.parametrize("field", [F27, F81, F625, F729], ids=["F27", "F81", "F625", "F729"])
def test_zech_generator_is_the_first_primitive_element_in_code_order(field, monkeypatch):
    """The tables are built on base-field digits, with no polynomial
    arithmetic, and their generator is the first element of code Q or more
    whose order, computed with element powers, is q - 1: that choice fixes
    every Zech raw value, and so every certificate byte."""

    def refuse(*args):
        raise AssertionError("polynomial arithmetic while building Zech tables")

    with monkeypatch.context() as patch:
        for name in ("__mul__", "divmod", "pow_mod"):
            patch.setattr(Poly, name, refuse)
        ops = ZechOps(field)
    m = field.order - 1
    primes = [r for r in range(2, m + 1) if m % r == 0 and all(r % d for d in range(2, r))]
    for code in range(field.base.order, m + 1):
        g = _element_of_code(field, code)
        if all(g ** (m // r) != field.one for r in primes):
            break
    x = field.one
    for k in range(m):
        assert ops.decode(k + 1) == x  # x = g ** k
        x = x * g
    assert x == field.one


def test_equal_extensions_have_equal_raw_values():
    for field in (F729, F101_2):  # in Zech logarithms and in coefficient codes
        twin = ExtensionField(field.base, field.modulus)
        x = field.gen * 3 + 7
        y = twin.gen * 3 + 7
        assert twin.ops.encode(x) == field.ops.encode(y) == field.ops.encode(x)
        assert Mat(twin, [[y, twin.one]]) == Mat(field, [[x, field.one]])


@st.composite
def matrices(draw, field, square=False):
    """Random n x m matrices, about a third of them rank-deficient products."""
    n = draw(st.integers(1, 5))
    m = n if square else draw(st.integers(1, 5))
    entry = elements(field)
    if draw(st.booleans()) and min(n, m) > 1:
        r = draw(st.integers(0, min(n, m) - 1))
        if not r:
            return Mat.zeros(field, n, m)
        left = Mat(field, [[draw(entry) for _ in range(r)] for _ in range(n)])
        return left * Mat(field, [[draw(entry) for _ in range(m)] for _ in range(r)])
    return Mat(field, [[draw(entry) for _ in range(m)] for _ in range(n)])


def _is_rref(r, pivots):
    rows = r.rows
    for i, row in enumerate(rows):
        if i >= len(pivots):
            assert not any(row)
            continue
        pc = pivots[i]
        assert not any(row[:pc]) and row[pc] == r.field.one
        assert all(not other[pc] for k, other in enumerate(rows) if k != i)
    assert list(pivots) == sorted(set(pivots))
    return True


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rref_transform_and_kernel(field, data):
    a = data.draw(matrices(field))
    res = rref(a)
    assert res.transform * a == res.rref
    assert rref(res.transform).rank == a.nrows  # zero rows below the rank would pass the line above
    assert _is_rref(res.rref, res.pivots) and res.rank == len(res.pivots)
    k = kernel(a)
    assert k.dim == a.ncols - res.rank
    for v in k.basis:
        assert not any(matvec(a, v))


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_inverse_and_cayley_hamilton(field, data):
    a = data.draw(matrices(field, square=True))
    n = a.nrows
    if rref(a).rank == n:
        assert inverse(a) * a == Mat.identity(field, n)
    else:
        with pytest.raises(SingularMatrixError):
            inverse(a)
    assert mat_poly_eval(charpoly(a), a).is_zero()


@pytest.mark.parametrize("ext", FIELDS[3:], ids=IDS[3:])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_descent_of_an_extended_kernel_is_the_kernel(ext, data):
    a = data.draw(matrices(ext.base))
    e = extend_scalars(a, ext)
    # each embedded row r has the coefficient rows r, 0, ..., 0
    zeros = [(0,) * a.ncols] * (ext.degree - 1)
    assert restrict_scalars(e) == Mat(ext.base, [row for r in a.rows for row in [r] + zeros])
    assert kernel(restrict_scalars(e)) == kernel(a)


def test_scaling_by_zero_and_by_an_int():
    a = Mat(F9, [[F9.gen, F9.one], [F9.zero, F9.gen]])
    assert (a * F9.zero).is_zero()
    assert a * 2 == a + a
    assert Mat.identity(QQ, 2) * Fraction(1, 2) == Mat(QQ, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]])


F5, F7 = PrimeField(5), PrimeField(7)
F25 = make_field("extension", p=5, modulus=[2, 0, 1])  # 2 is not a square mod 5


@pytest.mark.parametrize(
    "field, stranger",
    [(F5, F7.from_int(6)), (F5, F25.gen), (F5, Fraction(1, 2)), (F25, F5.one), (F25, F9.gen),
     (F101_3, F101.one), (QQ, F5.one), (QQ, 0.5)],
    ids=["F5-F7", "F5-F25", "F5-QQ", "F25-F5", "F25-F9", "F101^3-F101", "QQ-F5", "QQ-float"],
)
def test_an_element_of_another_field_is_refused(field, stranger):
    one = field.one
    with pytest.raises(MixedFieldsError):
        Mat(field, [[one, stranger]])
    with pytest.raises(MixedFieldsError):
        solve(Mat.identity(field, 2), (one, stranger))
    with pytest.raises(MixedFieldsError):
        Mat.identity(field, 2) * stranger
    with pytest.raises(MixedFieldsError):
        Subspace.from_vectors(field, 2, [(one, stranger)])
    with pytest.raises(MixedFieldsError):
        Poly(field, [one, stranger])
    with pytest.raises(MixedFieldsError):
        Poly.x(field) * stranger


def test_ints_are_lifted_into_the_field():
    a = Mat(F5, [[6, 2], [3, -1]])
    assert a == Mat(F5, [[F5.one, F5.from_int(2)], [F5.from_int(3), F5.from_int(4)]])
    assert solve(a, (1, 3)) == (F5.one, F5.zero)
    assert Subspace.from_vectors(F25, 2, [(1, 7)]).basis == ((F25.one, F25.from_int(2)),)
    assert Mat(QQ, [[1, 2]]).rows == ((Fraction(1), Fraction(2)),)
    assert Poly(F5, [6, 0]) == Poly(F5, [F5.one])


# --- polynomials on raw values against element loops --------------------------


def _trimmed(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _ref_add(field, a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [field.zero] * (n - len(a)), list(b) + [field.zero] * (n - len(b))
    return _trimmed(x + y for x, y in zip(a, b))


def _ref_mul(field, a, b):
    out = [field.zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trimmed(out)


def polys(field, max_degree=4):
    return st.lists(elements(field), max_size=max_degree + 1).map(lambda cs: Poly(field, cs))


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_raw_polynomials_agree_with_element_loops(field, data):
    f, g = data.draw(polys(field)), data.draw(polys(field))
    a, b = f.coeffs, g.coeffs
    assert f.raw == tuple(map(field.ops.encode, a)) and (not a or a[-1])
    assert (f + g).coeffs == _ref_add(field, a, b)
    assert (f - g).coeffs == _ref_add(field, a, [-y for y in b])
    assert (-f).coeffs == _trimmed(-x for x in a)
    assert (f * g).coeffs == _ref_mul(field, a, b)
    c = data.draw(elements(field))
    assert (f * c).coeffs == _trimmed(x * c for x in a)
    if not g.is_zero():
        q, r = f.divmod(g)
        assert _ref_add(field, _ref_mul(field, q.coeffs, b), r.coeffs) == a
        assert r.degree < g.degree
    if not f.is_zero():
        m = f.monic()
        assert m.lc() == field.one
        assert _trimmed(f.lc() * x for x in m.coeffs) == a
    assert f.derivative().coeffs == _trimmed(x * field.from_int(i) for i, x in enumerate(a))[1:]
    e = data.draw(st.integers(0, 5))
    if g.degree > 0:
        acc = Poly.one(field) % g
        for _ in range(e):
            acc = Poly(field, _ref_mul(field, acc.coeffs, a)) % g
        assert f.pow_mod(e, g) == acc


@pytest.mark.parametrize("field", FIELDS[1:], ids=IDS[1:])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_the_pth_root_undoes_the_pth_power(field, data):
    f = data.draw(polys(field, max_degree=2))
    assert _poly_pth_root(f ** field.char) == f
