import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympnf.symplectic as symplectic
from sympnf.errors import (
    NotComplementaryError,
    NotInvariantError,
    NotLagrangianError,
    SingularMatrixError,
)
from sympnf.fields import PrimeField, QQ, make_field
from sympnf.linalg import Mat, Subspace, inverse, kernel
from sympnf.symplectic import (
    SymplecticSpace,
    _omega_times,
    adjoint,
    classify_subspace,
    darboux_from_lagrangian_pair,
    form_eval,
    gram,
    is_self_adjoint,
    is_symplectic_matrix,
    random_symplectic,
    symplectic_complement,
)

F3 = PrimeField(3)
F5 = PrimeField(5)
F9 = make_field("extension", p=3, modulus=[1, 0, 1])


def _e(space, i):
    """Standard basis vector (0-indexed)."""
    v = [space.field.zero] * space.dim
    v[i] = space.field.one
    return tuple(v)


def _random_vec(space, rng):
    return tuple(space.field.random_element(rng) for _ in range(space.dim))


def _random_mat(field, rng, n):
    return Mat(field, [[field.random_element(rng) for _ in range(n)] for _ in range(n)])


class TestForm:
    def test_darboux_pairing(self):
        sp = SymplecticSpace(QQ, 1)
        assert form_eval(sp, _e(sp, 0), _e(sp, 1)) == Fraction(1)

    def test_antisymmetry_on_basis(self):
        sp = SymplecticSpace(F5, 2)
        assert form_eval(sp, _e(sp, 2), _e(sp, 0)) == F5.from_int(-1)

    def test_alternating(self):
        sp = SymplecticSpace(F3, 2)
        rng = random.Random(83)
        for _ in range(20):
            x = _random_vec(sp, rng)
            y = _random_vec(sp, rng)
            assert form_eval(sp, x, x) == F3.zero
            assert form_eval(sp, x, y) == -form_eval(sp, y, x)

    def test_matches_matrix_form(self):
        sp = SymplecticSpace(QQ, 2)
        rng = random.Random(89)
        for _ in range(10):
            x = _random_vec(sp, rng)
            y = _random_vec(sp, rng)
            assert form_eval(sp, x, y) == sum(
                a * b for a, b in zip(x, sp.omega.matvec(y))
            )

    def test_nondegenerate(self):
        # sigma(x, -) = 0 forces x = 0: the kernel of Omega is trivial
        from sympnf.linalg import kernel

        sp = SymplecticSpace(F5, 3)
        assert kernel(sp.omega).is_zero()


class TestAdjoint:
    def test_frozen_2x2(self):
        sp = SymplecticSpace(QQ, 1)
        a = Mat.from_ints(QQ, [[1, 2], [3, 4]])
        assert adjoint(sp, a) == Mat.from_ints(QQ, [[4, -2], [-3, 1]])

    def test_omega_is_antiselfadjoint(self):
        sp = SymplecticSpace(F5, 2)
        assert adjoint(sp, sp.omega) == -sp.omega

    def test_defining_identity(self):
        sp = SymplecticSpace(F3, 2)
        rng = random.Random(97)
        for _ in range(10):
            a = _random_mat(F3, rng, sp.dim)
            g = adjoint(sp, a)
            x = _random_vec(sp, rng)
            y = _random_vec(sp, rng)
            assert form_eval(sp, g.matvec(x), y) == form_eval(sp, x, a.matvec(y))

    def test_involution(self):
        sp = SymplecticSpace(QQ, 2)
        rng = random.Random(101)
        for _ in range(10):
            a = _random_mat(QQ, rng, sp.dim)
            assert adjoint(sp, adjoint(sp, a)) == a

    def test_self_adjoint_predicate(self):
        sp = SymplecticSpace(F5, 2)
        b = Mat.from_ints(F5, [[1, 2], [0, 3]])
        assert is_self_adjoint(sp, Mat.block_diag(F5, [b, b.transpose()]))
        assert not is_self_adjoint(sp, sp.omega)

    def test_self_adjoint_closed_under_polynomials(self):
        sp = SymplecticSpace(F3, 2)
        rng = random.Random(103)
        b = _random_mat(F3, rng, 2)
        a = Mat.block_diag(F3, [b, b.transpose()])
        assert is_self_adjoint(sp, a * a + a * F3.from_int(2))


class TestComplement:
    def test_line_complement_example(self):
        sp = SymplecticSpace(QQ, 2)
        s = Subspace.from_vectors(QQ, 4, [_e(sp, 0)])
        comp = symplectic_complement(sp, s)
        expected = Subspace.from_vectors(QQ, 4, [_e(sp, 0), _e(sp, 1), _e(sp, 3)])
        assert comp == expected

    def test_extremes(self):
        sp = SymplecticSpace(F3, 2)
        assert symplectic_complement(sp, Subspace.full(F3, 4)).is_zero()
        assert symplectic_complement(sp, Subspace.zero(F3, 4)) == Subspace.full(F3, 4)

    def test_dimension_and_involution(self):
        sp = SymplecticSpace(F5, 2)
        rng = random.Random(107)
        for _ in range(25):
            vecs = [_random_vec(sp, rng) for _ in range(rng.randint(0, 4))]
            s = Subspace.from_vectors(F5, sp.dim, vecs)
            comp = symplectic_complement(sp, s)
            assert s.dim + comp.dim == sp.dim
            assert symplectic_complement(sp, comp) == s


class TestClassify:
    def test_coordinate_lagrangian(self):
        sp = SymplecticSpace(QQ, 2)
        s = Subspace.from_vectors(QQ, 4, [_e(sp, 0), _e(sp, 1)])
        assert classify_subspace(sp, s) == "lagrangian"

    def test_darboux_plane_is_symplectic(self):
        sp = SymplecticSpace(F3, 2)
        s = Subspace.from_vectors(F3, 4, [_e(sp, 0), _e(sp, 2)])
        assert classify_subspace(sp, s) == "symplectic"

    def test_generic_example(self):
        sp = SymplecticSpace(F5, 2)
        s = Subspace.from_vectors(F5, 4, [_e(sp, 0), _e(sp, 1), _e(sp, 3)])
        assert classify_subspace(sp, s) == "generic"

    def test_line_is_isotropic(self):
        sp = SymplecticSpace(QQ, 2)
        s = Subspace.from_vectors(QQ, 4, [_e(sp, 0)])
        assert classify_subspace(sp, s) == "isotropic"

    def test_symplectic_iff_complement_symplectic(self):
        sp = SymplecticSpace(F3, 2)
        rng = random.Random(109)
        for _ in range(30):
            vecs = [_random_vec(sp, rng) for _ in range(rng.randint(1, 3))]
            s = Subspace.from_vectors(F3, sp.dim, vecs)
            comp = symplectic_complement(sp, s)
            if classify_subspace(sp, s) == "symplectic":
                assert classify_subspace(sp, comp) == "symplectic"

    def test_symplectic_iff_it_meets_its_complement_in_zero(self):
        sp = SymplecticSpace(F3, 3)
        rng = random.Random(131)
        for _ in range(40):
            s = Subspace.from_vectors(F3, sp.dim, [_random_vec(sp, rng) for _ in range(rng.randint(0, 6))])
            kind = classify_subspace(sp, s)
            if kind not in ("lagrangian", "isotropic"):
                assert (kind == "symplectic") == s.intersection(symplectic_complement(sp, s)).is_zero()


class TestSymplecticMatrices:
    def test_identity_and_omega(self):
        sp = SymplecticSpace(F5, 2)
        assert is_symplectic_matrix(sp, Mat.identity(F5, 4))
        assert is_symplectic_matrix(sp, sp.omega)

    def test_nonexample(self):
        sp = SymplecticSpace(QQ, 2)
        d = Mat.from_ints(QQ, [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        assert not is_symplectic_matrix(sp, d)

    @pytest.mark.parametrize("field", [QQ, F3, F5, F9], ids=["QQ", "F3", "F5", "F9"])
    def test_random_generator_words(self, field):
        rng = random.Random(113)
        for n in (1, 2, 3):
            sp = SymplecticSpace(field, n)
            for _ in range(8):
                c = random_symplectic(sp, rng)
                assert is_symplectic_matrix(sp, c)
                # group closure: products and inverses stay symplectic
                assert is_symplectic_matrix(sp, inverse(c))

    def test_symplectic_preserves_form(self):
        sp = SymplecticSpace(F5, 2)
        rng = random.Random(127)
        c = random_symplectic(sp, rng)
        for _ in range(10):
            x = _random_vec(sp, rng)
            y = _random_vec(sp, rng)
            assert form_eval(sp, c.matvec(x), c.matvec(y)) == form_eval(sp, x, y)

    def test_seed_determinism(self):
        sp = SymplecticSpace(F3, 2)
        assert random_symplectic(sp, random.Random(5)) == random_symplectic(sp, random.Random(5))

    def test_only_a_singular_draw_is_redrawn(self, monkeypatch):
        # over F_3 with seed 1 the word starts with diag(S, S^-T), and the first S drawn is singular
        sp = SymplecticSpace(F3, 1)
        outcomes = []

        def recording(s):
            try:
                s_inv = inverse(s)
            except SingularMatrixError:
                outcomes.append("singular")
                raise
            outcomes.append("inverted")
            return s_inv

        monkeypatch.setattr(symplectic, "inverse", recording)
        assert is_symplectic_matrix(sp, random_symplectic(sp, random.Random(1)))
        assert outcomes == ["singular", "inverted"]

        def failing(s):
            outcomes.append("failed")
            raise RuntimeError("not a singular draw")

        outcomes.clear()
        monkeypatch.setattr(symplectic, "inverse", failing)
        with pytest.raises(RuntimeError, match="not a singular draw"):
            random_symplectic(sp, random.Random(1))
        assert outcomes == ["failed"]


class TestDarbouxFromPair:
    def test_coordinate_pair_gives_identity(self):
        sp = SymplecticSpace(QQ, 2)
        a = Mat.from_ints(QQ, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
        u = Subspace.from_vectors(QQ, 4, [_e(sp, 0), _e(sp, 1)])
        w = Subspace.from_vectors(QQ, 4, [_e(sp, 2), _e(sp, 3)])
        c = darboux_from_lagrangian_pair(sp, a, u, w)
        assert c == Mat.identity(QQ, 4)

    def test_swapped_pair_is_symplectic(self):
        sp = SymplecticSpace(F5, 1)
        a = Mat.identity(F5, 2)
        u = Subspace.from_vectors(F5, 2, [_e(sp, 1)])
        w = Subspace.from_vectors(F5, 2, [_e(sp, 0)])
        c = darboux_from_lagrangian_pair(sp, a, u, w)
        assert is_symplectic_matrix(sp, c)

    def test_block_diagonalizes(self):
        sp = SymplecticSpace(F5, 2)
        rng = random.Random(131)
        b = _random_mat(F5, rng, 2)
        a0 = Mat.block_diag(F5, [b, b.transpose()])
        g = random_symplectic(sp, rng)
        a = g * a0 * inverse(g)
        cols = g.transpose().rows
        u = Subspace.from_vectors(F5, 4, cols[:2])
        w = Subspace.from_vectors(F5, 4, cols[2:])
        c = darboux_from_lagrangian_pair(sp, a, u, w)
        assert is_symplectic_matrix(sp, c)
        m = inverse(c) * a * c
        top = m.submatrix(0, 2, 0, 2)
        assert m == Mat.block_diag(F5, [top, top.transpose()])

    def test_rejects_non_lagrangian(self):
        sp = SymplecticSpace(QQ, 2)
        a = Mat.identity(QQ, 4)
        u = Subspace.from_vectors(QQ, 4, [_e(sp, 0), _e(sp, 2)])  # symplectic plane
        w = Subspace.from_vectors(QQ, 4, [_e(sp, 1), _e(sp, 3)])
        with pytest.raises(NotLagrangianError):
            darboux_from_lagrangian_pair(sp, a, u, w)

    def test_rejects_non_complementary(self):
        sp = SymplecticSpace(QQ, 2)
        a = Mat.identity(QQ, 4)
        u = Subspace.from_vectors(QQ, 4, [_e(sp, 0), _e(sp, 1)])
        with pytest.raises(NotComplementaryError):
            darboux_from_lagrangian_pair(sp, a, u, u)

    def test_rejects_non_invariant(self):
        sp = SymplecticSpace(QQ, 1)
        # the coordinate axes are swapped, so neither line is invariant
        a = Mat.from_ints(QQ, [[0, 1], [1, 0]])
        u = Subspace.from_vectors(QQ, 2, [_e(sp, 0)])
        w = Subspace.from_vectors(QQ, 2, [_e(sp, 1)])
        with pytest.raises(NotInvariantError):
            darboux_from_lagrangian_pair(sp, a, u, w)


def _dense_omega(field, n):
    """[[0, I], [-I, 0]], written out from its definition."""
    rows = [[field.zero] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][n + i] = field.one
        rows[n + i][i] = -field.one
    return Mat(field, rows)


def _dense_class(s, comp, dim):
    if s == comp:
        return "lagrangian"
    if all(comp.contains(v) for v in s.basis):
        return "isotropic"
    return "symplectic" if s.sum(comp).dim == dim else "generic"


def _expected_class(picked, n):
    """Class of the span of the columns `picked` of a Darboux basis, where
    sigma(c_i, c_{n+j}) = delta_ij pairs column i with column n + i."""
    us = {j for j in picked if j < n}
    ws = {j - n for j in picked if j >= n}
    if not us & ws:
        return "lagrangian" if len(picked) == n else "isotropic"
    return "symplectic" if us == ws else "generic"


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([QQ, F5, F9]), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_the_form_as_a_swap_agrees_with_dense_products(field, n, seed):
    rng = random.Random(seed)
    sp = SymplecticSpace(field, n)
    dim = 2 * n
    o = _dense_omega(field, n)
    assert sp.omega == o
    a = _random_mat(field, rng, dim)
    x, y = (Mat(field, [_random_vec(sp, rng) for _ in range(rng.randint(1, dim))]) for _ in range(2))
    assert _omega_times(a) == o * a
    assert gram(x, y) == x * o * y.transpose()
    assert adjoint(sp, a) == -(o * a.transpose() * o)
    c = random_symplectic(sp, rng)
    for m in (a, a + adjoint(sp, a), c):
        assert is_self_adjoint(sp, m) == (m.transpose() * o == o * m)
        assert is_symplectic_matrix(sp, m) == (m.transpose() * o * m == o)
    assert is_self_adjoint(sp, a + adjoint(sp, a)) and is_symplectic_matrix(sp, c)
    # spans of Darboux columns, one of each class, and a span of random vectors
    picks = [[j for j in range(dim) if rng.random() < 0.5], range(n), range(n - 1), (0, n)]
    if n > 1:
        picks.append((0, 1, n))
    cols = c.transpose().rows
    spans = [(Subspace.from_vectors(field, dim, [cols[j] for j in p]), _expected_class(p, n)) for p in picks]
    spans.append((Subspace.from_vectors(field, dim, [_random_vec(sp, rng) for _ in range(rng.randint(0, dim))]), None))
    for s, expected in spans:
        comp = kernel(s.basis_matrix() * o.transpose())
        assert symplectic_complement(sp, s) == comp
        kind = classify_subspace(sp, s)
        assert kind == _dense_class(s, comp, dim)
        assert expected in (None, kind)
