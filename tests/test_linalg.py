import random
from fractions import Fraction
from itertools import permutations

import pytest

from sympnf.errors import (
    DimensionMismatchError,
    IncompatibleFieldsError,
    InconsistentSystemError,
    NotInvariantError,
    SingularMatrixError,
)
from sympnf.fields import PrimeField, QQ, make_field
from sympnf.linalg import (
    Mat,
    Subspace,
    charpoly,
    extend_scalars,
    inverse,
    kernel,
    mat_poly_eval,
    rank,
    restrict_operator,
    restrict_scalars,
    rref,
    solve,
)
from sympnf.poly import Poly

F3 = PrimeField(3)
F5 = PrimeField(5)
F9 = make_field("extension", p=3, modulus=[1, 0, 1])
ALL_FIELDS = [QQ, F3, F5, F9]
FIELD_IDS = ["QQ", "F3", "F5", "F9"]


def _random_mat(field, rng, n, m=None):
    m = n if m is None else m
    return Mat(field, [[field.random_element(rng) for _ in range(m)] for _ in range(n)])


def _sign(perm):
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


def _charpoly_leibniz(a):
    """Independent oracle: expand det(tI - a) over all permutations."""
    field = a.field
    n = a.nrows
    t = Poly.x(field)
    entries = [
        [
            (t if i == j else Poly.zero(field)) - Poly.constant(field, a.rows[i][j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    acc = Poly.zero(field)
    for perm in permutations(range(n)):
        term = Poly.one(field)
        for i in range(n):
            term = term * entries[i][perm[i]]
        if _sign(perm) < 0:
            term = -term
        acc = acc + term
    return acc


class TestRowReduction:
    def test_rref_swaps_to_identity(self):
        res = rref(Mat.from_ints(F3, [[0, 2], [1, 0]]))
        assert res.rref == Mat.identity(F3, 2)
        assert res.rank == 2
        assert res.transform * Mat.from_ints(F3, [[0, 2], [1, 0]]) == res.rref

    def test_rref_rank_deficient(self):
        a = Mat.from_ints(QQ, [[1, 2], [2, 4]])
        res = rref(a)
        assert res.rank == 1
        assert res.pivots == (0,)
        assert res.transform * a == res.rref

    def test_solve_pins_free_variables(self):
        x = solve(Mat.from_ints(QQ, [[1, 1]]), (Fraction(2),))
        assert x == (Fraction(2), Fraction(0))

    def test_solve_inconsistent(self):
        a = Mat.from_ints(QQ, [[1, 1], [1, 1]])
        with pytest.raises(InconsistentSystemError):
            solve(a, (Fraction(1), Fraction(2)))

    def test_inverse(self):
        a = Mat.from_ints(F5, [[1, 2], [3, 4]])
        assert a * inverse(a) == Mat.identity(F5, 2)
        with pytest.raises(SingularMatrixError):
            inverse(Mat.from_ints(F5, [[1, 2], [2, 4]]))

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=FIELD_IDS)
    def test_solve_reproduces_rhs(self, field):
        rng = random.Random(41)
        for _ in range(25):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            a = _random_mat(field, rng, n, m)
            x0 = tuple(field.random_element(rng) for _ in range(m))
            b = a.matvec(x0)
            x = solve(a, b)  # some solution must come back
            assert a.matvec(x) == b


class TestSubspaces:
    def test_canonical_basis_is_representation_independent(self):
        v1 = Subspace.from_vectors(QQ, 3, [(Fraction(1), Fraction(1), Fraction(0))])
        v2 = Subspace.from_vectors(QQ, 3, [(Fraction(2), Fraction(2), Fraction(0))])
        assert v1 == v2 and v1.basis == v2.basis

    def test_membership(self):
        s = Subspace.from_vectors(F3, 3, [(F3.one, F3.zero, F3.one)])
        assert s.contains((F3.from_int(2), F3.zero, F3.from_int(2)))
        assert not s.contains((F3.one, F3.one, F3.one))

    def test_kernel_example(self):
        # x + y = 0 in F_5^2
        k = kernel(Mat.from_ints(F5, [[1, 1]]))
        assert k.dim == 1
        assert k.contains((F5.one, F5.from_int(-1)))

    def test_kernel_of_invertible_is_zero(self):
        assert kernel(Mat.from_ints(QQ, [[2, 1], [1, 1]])).is_zero()

    def test_annihilator_rows_characterize_membership(self):
        rng = random.Random(43)
        for _ in range(20):
            s = Subspace.from_vectors(F5, 4, [[F5.random_element(rng) for _ in range(4)] for _ in range(2)])
            ann = s.annihilator_rows()
            for row in s.basis:
                assert not any(ann.matvec(row))
            v = tuple(F5.random_element(rng) for _ in range(4))
            assert s.contains(v) == (not any(ann.matvec(v)))

    def test_intersection_and_sum_dims(self):
        rng = random.Random(47)
        for _ in range(20):
            s1 = Subspace.from_vectors(F3, 4, [[F3.random_element(rng) for _ in range(4)] for _ in range(rng.randint(0, 3))])
            s2 = Subspace.from_vectors(F3, 4, [[F3.random_element(rng) for _ in range(4)] for _ in range(rng.randint(0, 3))])
            inter = s1.intersection(s2)
            assert all(s1.contains(v) and s2.contains(v) for v in inter.basis)
            # dim(U+V) + dim(U cap V) = dim U + dim V
            assert s1.sum(s2).dim + inter.dim == s1.dim + s2.dim

    def test_a_matrix_without_rows_keeps_its_width(self):
        empty = Mat.zeros(F5, 0, 3)
        assert (empty.nrows, empty.ncols) == (0, 3)
        assert (empty.transpose().nrows, empty.transpose().ncols) == (3, 0)
        assert kernel(empty) == Subspace.full(F5, 3)
        assert Subspace.zero(F5, 3).annihilator_rows() == Mat.identity(F5, 3)
        full = Subspace.full(F5, 3)
        assert full.intersection(full) == full
        # the annihilator of the whole space has no rows
        assert kernel(restrict_scalars(Subspace.full(F9, 3).annihilator_rows())) == Subspace.full(F3, 3)

    def test_a_product_through_width_zero_is_the_zero_matrix(self):
        prod = Mat.zeros(F5, 2, 0) * Mat.zeros(F5, 0, 3)
        assert (prod.nrows, prod.ncols) == (2, 3)
        assert prod == Mat.zeros(F5, 2, 3)

    def test_matrices_without_rows_of_different_widths_differ(self):
        empty = Mat.zeros(F5, 0, 3)
        assert empty != Mat.zeros(F5, 0, 0)
        # arithmetic keeps the width, so equal results compare equal
        assert -empty == empty + empty == empty * 2 == rref(empty).rref == empty

    def test_a_submatrix_without_rows_keeps_its_width(self):
        top = Mat.identity(F5, 3).submatrix(0, 0, 0, 3)
        assert (top.nrows, top.ncols) == (0, 3)
        assert kernel(top) == Subspace.full(F5, 3)
        assert Mat.identity(F5, 3).submatrix(0, 0, 1, 3).ncols == 2


def test_matrix_power_multiplies_only_while_bits_remain(monkeypatch):
    """No product by the identity and no square after the last bit."""
    a = Mat.from_ints(F5, [[1, 2], [3, 4]])
    product = Mat.__mul__
    calls = []

    def counted(x, y):
        calls.append(1)
        return product(x, y)

    monkeypatch.setattr(Mat, "__mul__", counted)
    counts = []
    for e in range(6):
        calls.clear()
        a ** e
        counts.append(len(calls))
    assert counts == [0, 0, 1, 2, 2, 3]


@pytest.mark.parametrize("field", [QQ, F5, F9], ids=["QQ", "F5", "F9"])
def test_mat_poly_eval_is_the_sum_of_powers(field):
    rng = random.Random(89)
    a = _random_mat(field, rng, 3)
    for d in range(7):
        coeffs = [field.random_element(rng) for _ in range(d)] + [field.from_int(2)]
        expected = Mat.zeros(field, 3, 3)
        for i, c in enumerate(coeffs):
            expected = expected + a ** i * c
        assert mat_poly_eval(Poly(field, coeffs), a) == expected


class TestCharpoly:
    def test_nilpotent_block(self):
        assert charpoly(Mat.from_ints(QQ, [[0, 1], [0, 0]])) == Poly.from_ints(QQ, [0, 0, 1])

    def test_identity(self):
        t = Poly.x(F5)
        assert charpoly(Mat.identity(F5, 2)) == (t - Poly.one(F5)) ** 2

    def test_trace_det_example(self):
        # oracle: t^2 - (tr)t + det for 2x2 = t^2 - 5t - 2
        assert charpoly(Mat.from_ints(QQ, [[1, 2], [3, 4]])) == Poly.from_ints(QQ, [-2, -5, 1])

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=FIELD_IDS)
    def test_against_leibniz_expansion_oracle(self, field):
        rng = random.Random(53)
        for n in (1, 2, 3, 4):
            for _ in range(6):
                a = _random_mat(field, rng, n)
                assert charpoly(a) == _charpoly_leibniz(a)

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=FIELD_IDS)
    def test_cayley_hamilton(self, field):
        rng = random.Random(59)
        for n in range(1, 9):
            a = _random_mat(field, rng, n)
            assert mat_poly_eval(charpoly(a), a).is_zero()

    def test_monic_and_degree(self):
        rng = random.Random(61)
        a = _random_mat(F5, rng, 5)
        p = charpoly(a)
        assert p.degree == 5 and p.lc() == F5.one

    def test_conjugation_invariance(self):
        rng = random.Random(67)
        for _ in range(10):
            a = _random_mat(QQ, rng, 3)
            while True:
                c = _random_mat(QQ, rng, 3)
                if rank(c) == 3:
                    break
            assert charpoly(inverse(c) * a * c) == charpoly(a)


class TestOperatorPlumbing:
    def test_mat_poly_eval_horner(self):
        a = Mat.from_ints(QQ, [[1, 1], [0, 1]])
        p = Poly.from_ints(QQ, [1, -2, 1])  # (t-1)^2
        # direct oracle: (a - I)^2
        ident = Mat.identity(QQ, 2)
        assert mat_poly_eval(p, a) == (a - ident) * (a - ident)

    def test_restrict_operator(self):
        # a = diag(1, 2); span{e_1} is invariant with restricted matrix [1]
        a = Mat.from_ints(QQ, [[1, 0], [0, 2]])
        s = Subspace.from_vectors(QQ, 2, [(Fraction(1), Fraction(0))])
        assert restrict_operator(a, s) == Mat.from_ints(QQ, [[1]])

    def test_restrict_non_invariant_raises(self):
        a = Mat.from_ints(QQ, [[0, 1], [1, 0]])
        s = Subspace.from_vectors(QQ, 2, [(Fraction(1), Fraction(0))])
        with pytest.raises(NotInvariantError):
            restrict_operator(a, s)

    def test_restriction_charpoly_divides(self):
        from sympnf.poly import factor

        rng = random.Random(71)
        for trial in range(10):
            a = _random_mat(F5, rng, 4)
            p1, m1 = factor(charpoly(a), seed=trial).factors[0]
            # the kernel of P_1(a)^{m_1} is an invariant subspace
            s = kernel(mat_poly_eval(p1 ** m1, a))
            if s.is_zero():
                continue
            r = restrict_operator(a, s)
            assert (charpoly(a) % charpoly(r)).is_zero()


class TestScalarExtension:
    def test_embed_roundtrip(self):
        a = Mat.from_ints(F3, [[1, 2], [0, 1]])
        ae = extend_scalars(a, F9)
        assert ae.field is F9
        # each embedded row r has the coefficient rows r and 0
        assert restrict_scalars(ae) == Mat(F3, [row for r in a.rows for row in (r, (0, 0))])

    def test_extend_wrong_base_rejected(self):
        with pytest.raises(IncompatibleFieldsError):
            extend_scalars(Mat.from_ints(F5, [[1]]), F9)

    def test_extend_vector(self):
        (v,) = extend_scalars(Mat(F3, [(F3.one, F3.from_int(2))]), F9).rows
        assert v == (F9.one, F9.from_int(2))
        assert all(x.field is F9 for x in v)

    def test_extension_preserves_charpoly(self):
        rng = random.Random(73)
        a = _random_mat(F3, rng, 3)
        pe = charpoly(extend_scalars(a, F9))
        p = charpoly(a)
        assert pe == Poly(F9, [F9.embed(c) for c in p.coeffs])

    def test_restrict_scalars_shape_and_field(self):
        with pytest.raises(IncompatibleFieldsError):
            restrict_scalars(Mat.identity(F5, 2))
        assert restrict_scalars(Mat.zeros(F9, 0, 3)) == Mat.zeros(F3, 0, 3)
        # each row over F_9 becomes two rows, also when it is empty
        assert restrict_scalars(Mat.zeros(F9, 3, 0)) == Mat.zeros(F3, 6, 0)
        assert restrict_scalars(Mat.zeros(F9, 3, 2)) == Mat.zeros(F3, 6, 2)

    def test_restrict_scalars_single_equation(self):
        # a*x1 + a*x2 = 0 over F_9 splits into x1 + x2 = 0 (twice), solved over F_3
        eqns = Mat(F9, [[F9.gen, F9.gen]])
        down = kernel(restrict_scalars(eqns))
        assert down.field == F3
        assert down.dim == 1
        assert down.contains((F3.one, F3.from_int(-1)))

    def test_restrict_scalars_zero_system_is_full(self):
        eqns = Mat(F9, [[F9.zero, F9.zero]])
        assert kernel(restrict_scalars(eqns)).dim == 2

    def test_restrict_scalars_identity_is_zero(self):
        eqns = extend_scalars(Mat.identity(F3, 3), F9)
        assert kernel(restrict_scalars(eqns)).is_zero()

    def test_restrict_scalars_membership_agrees(self):
        rng = random.Random(79)
        for _ in range(15):
            eqns = _random_mat(F9, rng, 2, 4)
            down = kernel(restrict_scalars(eqns))
            ext_kernel = kernel(eqns)
            for row in down.basis:
                assert ext_kernel.contains(extend_scalars(Mat(F3, [row]), F9).rows[0])


def test_rows_of_unequal_length_are_refused():
    with pytest.raises(DimensionMismatchError):
        Mat(F5, [[1, 2], [3]])
    with pytest.raises(DimensionMismatchError):
        Mat(F5, [[1], [2, 3]])
    with pytest.raises(DimensionMismatchError):
        Mat(QQ, [[], [1]])
    assert Mat(F5, [[1, 2], [3, 4]]) * Mat(F5, [[1], [1]]) == Mat(F5, [[3], [2]])
