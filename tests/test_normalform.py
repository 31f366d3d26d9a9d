import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympnf.linalg as linalg
import sympnf.normalform as nf
from sympnf.errors import (
    BadSpecError,
    DimensionMismatchError,
    EigenvaluesNotInFieldError,
    InvalidCertificateError,
    NotNilpotentError,
    NotSelfAdjointError,
    RationalFieldError,
    UnsupportedFieldPathError,
)
from sympnf.fields import PrimeField, QQ, ZechOps, make_field
from sympnf.linalg import Mat, Subspace, charpoly, inverse, kernel, mat_poly_eval, restrict_operator, rref, solve
from sympnf.normalform import (
    NormalFormCertificate,
    block_spec_dimension,
    build_block_matrix,
    companion_matrix,
    cyclic_pair,
    descent_normal_form,
    jordan_block,
    normalize_block_spec,
    polarize,
    primary_decomposition,
    random_self_adjoint,
    self_adjoint_projections,
    split_normal_form,
    symplectic_normal_form,
    verify_certificate,
)
from sympnf.poly import Poly, factor
from sympnf.symplectic import (
    SymplecticSpace,
    classify_subspace,
    is_self_adjoint,
    is_symplectic_matrix,
    random_symplectic,
)

from oracles import contains, intersection, matvec, sigma, whole_space

F3 = PrimeField(3)
F5 = PrimeField(5)
F9 = make_field("extension", p=3, modulus=[1, 0, 1])


def _e(space, i):
    v = [space.field.zero] * space.dim
    v[i] = space.field.one
    return tuple(v)


def _scrambled(space, rng, spec):
    """Instance with known block data and the conjugating matrix."""
    b = build_block_matrix(space.field, normalize_block_spec(space.field, spec))
    a0 = Mat.block_diag(space.field, [b, b.transpose()])
    g = random_symplectic(space, rng)
    return g * a0 * inverse(g)


def _jordan_sizes_from_ranks(b, lam):
    """Independent oracle: block sizes of eigenvalue lam from the rank
    sequence of (b - lam I)^k."""
    n = b.nrows
    g = b - Mat.identity(b.field, n) * lam
    ranks = [n]
    p = Mat.identity(b.field, n)
    for _ in range(n):
        p = p * g
        ranks.append(rref(p).rank)
    sizes = []
    for k in range(1, n + 1):
        # number of blocks of size >= k
        count = ranks[k - 1] - ranks[k]
        sizes.append(count)
    out = []
    for k in range(n, 0, -1):
        blocks_of_size_k = sizes[k - 1] - (sizes[k] if k < n else 0)
        out.extend([k] * blocks_of_size_k)
    return tuple(sorted(out, reverse=True))


# irreducible quadratics: -2 is not a square mod 5, and 1 + i has order 8 in F_9^*
QUADRATICS = {F5: Poly(F5, [2, 0, 1]), F9: Poly(F9, [-(F9.one + F9.gen), F9.zero, F9.one])}


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_half_the_multiplicity_kills_every_primary_component(data):
    """Each elementary divisor p^h of a self-adjoint A occurs twice, so for a
    factor (p, m) of charpoly(A), ker p(A)^(m/2) = ker p(A)^m, of dimension
    deg p * m, and primary_decomposition returns exactly these kernels."""
    field = data.draw(st.sampled_from([QQ, F5, F9]), label="field")
    lam = data.draw(st.sampled_from([field.zero, field.one, field.from_int(-2)]), label="lam")
    mu = lam + field.one
    specs = [
        [("jordan", lam, (2, 2))],
        [("jordan", lam, (3, 1))],
        [("jordan", lam, (2, 2)), ("jordan", mu, (1,))],
        [("jordan", lam, (3, 1)), ("jordan", mu, (1, 1))],
    ]
    if field is not QQ:
        p = QUADRATICS[field]
        specs += [
            [("companion", p, (2,))],
            [("companion", p, (2,)), ("jordan", lam, (1, 1))],
            [("companion", p, (1, 1)), ("jordan", lam, (2,))],
        ]
    spec = data.draw(st.sampled_from(specs), label="spec")
    n = sum(sum(e[2]) * (e[1].degree if e[0] == "companion" else 1) for e in spec)
    sp = SymplecticSpace(field, n)
    a = random_self_adjoint(sp, random.Random(data.draw(st.integers(0, 2**16), label="seed")), spec)
    fac = factor(charpoly(a))
    comps = primary_decomposition(sp, a)
    assert [(c.factor, c.multiplicity) for c in comps] == list(fac.factors)
    for comp, (p, m) in zip(comps, fac.factors):
        g = mat_poly_eval(p, a)
        assert m % 2 == 0
        assert comp.basis == kernel(g ** (m // 2)) == kernel(g ** m)
        assert comp.basis.dim == p.degree * m


F101 = PrimeField(101)
# an irreducible quadratic over each field: 2 is not a square in QQ or mod 101
HALF_QUADRATICS = {QQ: Poly(QQ, [-2, 0, 1]), F101: Poly(F101, [-2, 0, 1]), **QUADRATICS}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_the_factorization_of_the_half_is_that_of_charpoly(data):
    """charpoly(A) = charpoly(B)^2 for self-adjoint A: its monic square root,
    factored with every multiplicity doubled, is factor(charpoly(A))."""
    field = data.draw(st.sampled_from([QQ, F5, F101, F9]), label="field")
    spec = []
    for _ in range(data.draw(st.integers(1, 3), label="blocks")):
        sizes = tuple(data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=2), label="sizes"))
        if data.draw(st.booleans(), label="companion"):
            spec.append(("companion", HALF_QUADRATICS[field], sizes))
        else:
            spec.append(("jordan", field.from_int(data.draw(st.integers(-3, 3), label="lam")), sizes))
    spec = normalize_block_spec(field, spec)
    sp = SymplecticSpace(field, block_spec_dimension(spec))
    a = random_self_adjoint(sp, random.Random(data.draw(st.integers(0, 2**16), label="seed")), spec)
    seed = data.draw(st.integers(0, 9), label="factor seed")
    assert nf._self_adjoint_factorization(sp, a, seed) == factor(charpoly(a), seed)


@pytest.mark.parametrize("field", [QQ, F5, F9], ids=["QQ", "F5", "F9"])
def test_restrict_operator_reads_coordinates_at_the_pivots(field, monkeypatch):
    """On every primary component s, restrict_operator(a, s) is the matrix
    whose columns are solve(B^T, a b) over the RREF basis rows b of s; it
    reads those coordinates at the pivot columns and calls no solve."""
    spec = [("jordan", field.from_int(2), (2, 1)), ("jordan", field.one, (1,))]
    if field is not QQ:
        spec.append(("companion", QUADRATICS[field], (1,)))
    sp = SymplecticSpace(field, 4 if field is QQ else 6)
    rng = random.Random(233)
    for _ in range(3):
        a = random_self_adjoint(sp, rng, spec)
        comps = [c.basis for c in primary_decomposition(sp, a)]
        expected = []
        for s in comps:
            bt = s.basis_matrix().transpose()
            expected.append(Mat(field, zip(*[solve(bt, matvec(a, b)) for b in s.basis])))
        calls = []
        monkeypatch.setattr(linalg, "solve", lambda *args: calls.append(args))
        got = [restrict_operator(a, s) for s in comps]
        monkeypatch.undo()
        assert got == expected and not calls


def test_certify_raises_each_eigenvalue_to_half_its_multiplicity(monkeypatch):
    """Spec 1:[2,2]; 2:[1] over F_5 has multiplicities 8 and 2 in charpoly(A):
    the chains run on ker (A - 1)^4 and ker (A - 2)^1."""
    sp = SymplecticSpace(F5, 5)
    a = random_self_adjoint(sp, random.Random(7), [("jordan", F5.one, (2, 2)), ("jordan", F5.from_int(2), (1,))])
    power = Mat.__pow__
    exponents = []

    def recorded(m, e):
        exponents.append(e)
        return power(m, e)

    monkeypatch.setattr(Mat, "__pow__", recorded)
    cert = symplectic_normal_form(sp, a)
    assert cert.jordan_spec == ((F5.one, (2, 2)), (F5.from_int(2), (1,)))
    assert exponents == [4, 1]


@pytest.mark.parametrize(
    "certify", [symplectic_normal_form, split_normal_form, descent_normal_form, primary_decomposition]
)
def test_every_entry_point_refuses_an_operator_that_is_not_self_adjoint_alike(certify):
    sp = SymplecticSpace(F5, 1)
    with pytest.raises(NotSelfAdjointError, match="^operator is not self-adjoint$"):
        certify(sp, Mat(F5, [[1, 2], [3, 4]]))


class TestPrimaryDecomposition:
    def test_two_eigenvalues(self):
        sp = SymplecticSpace(QQ, 2)
        a = Mat(QQ, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
        comps = primary_decomposition(sp, a)
        assert len(comps) == 2
        # canonical factor order puts t-2 before t-1
        assert comps[0].basis == Subspace.from_vectors(QQ, 4, [_e(sp, 1), _e(sp, 3)])
        assert comps[1].basis == Subspace.from_vectors(QQ, 4, [_e(sp, 0), _e(sp, 2)])
        for comp in comps:
            assert classify_subspace(sp, comp.basis) == "symplectic"

    def test_single_component(self):
        sp = SymplecticSpace(F3, 2)
        n2 = Mat(F3, [[0, 1], [0, 0]])
        a = Mat.block_diag(F3, [n2, n2.transpose()])  # nilpotent, factor t
        comps = primary_decomposition(sp, a)
        assert len(comps) == 1
        assert comps[0].basis == whole_space(F3, 4)
        assert comps[0].multiplicity == 4

    def test_rejects_non_self_adjoint(self):
        sp = SymplecticSpace(QQ, 1)
        with pytest.raises(NotSelfAdjointError):
            primary_decomposition(sp, Mat(QQ, [[1, 2], [3, 4]]))

    def test_components_sigma_orthogonal(self):
        rng = random.Random(211)
        sp = SymplecticSpace(F5, 3)
        for trial in range(10):
            a = _scrambled(sp, rng, [("jordan", F5.from_int(1), (2,)), ("jordan", F5.from_int(2), (1,))])
            comps = primary_decomposition(sp, a, seed=trial)
            assert sum(c.basis.dim for c in comps) == sp.dim
            for i, ci in enumerate(comps):
                assert charpoly(restrict_operator(a, ci.basis)) == ci.factor ** ci.multiplicity
                for cj in comps[i + 1 :]:
                    for x in ci.basis.basis:
                        for y in cj.basis.basis:
                            assert sigma(x, y) == sp.field.zero


class TestProjections:
    def test_diagonal_example(self):
        sp = SymplecticSpace(QQ, 2)
        a = Mat(QQ, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
        fac = factor(charpoly(a))
        ps = self_adjoint_projections(sp, a, fac)
        # factor order: t-2 first, so the eigenvalue-2 projection leads
        assert ps[0] == Mat(QQ, [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])
        assert ps[1] == Mat(QQ, [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])

    def test_single_factor_is_identity(self):
        sp = SymplecticSpace(F3, 1)
        a = Mat(F3, [[1, 1], [0, 1]])
        ps = self_adjoint_projections(sp, a, factor(charpoly(a)))
        assert ps == [Mat.identity(F3, 2)]

    def test_projection_identities(self):
        rng = random.Random(223)
        sp = SymplecticSpace(F5, 2)
        for trial in range(10):
            a = _scrambled(sp, rng, [("jordan", F5.zero, (1,)), ("jordan", F5.from_int(3), (1,))])
            ps = self_adjoint_projections(sp, a, factor(charpoly(a), seed=trial))
            acc = Mat.zeros(F5, 4, 4)
            for i, p in enumerate(ps):
                assert p * p == p
                assert is_self_adjoint(sp, p)
                assert p * a == a * p
                for q in ps[i + 1 :]:
                    assert (p * q).is_zero()
                acc = acc + p
            assert acc == Mat.identity(F5, 4)


class TestCyclicPair:
    def test_frozen_shift_example(self):
        # g = diag(N, N^T) with N the 2x2 nilpotent shift
        sp = SymplecticSpace(QQ, 2)
        n2 = Mat(QQ, [[0, 1], [0, 0]])
        g = Mat.block_diag(QQ, [n2, n2.transpose()])
        pair = cyclic_pair(sp, g, whole_space(QQ, 4))
        assert pair.d == 2
        assert pair.u.rows == (_e(sp, 0), _e(sp, 1))
        minus_e3 = tuple(-x for x in _e(sp, 2))
        minus_e4 = tuple(-x for x in _e(sp, 3))
        assert pair.w.rows == (minus_e3, minus_e4)

    def test_zero_operator(self):
        sp = SymplecticSpace(F5, 1)
        pair = cyclic_pair(sp, Mat.zeros(F5, 2, 2), whole_space(F5, 2))
        assert pair.d == 1
        assert sigma(pair.w.rows[0], pair.u.rows[0]) == F5.one

    def test_rejects_non_nilpotent(self):
        sp = SymplecticSpace(QQ, 1)
        with pytest.raises(NotNilpotentError):
            cyclic_pair(sp, Mat.identity(QQ, 2), whole_space(QQ, 2))

    def test_rejects_the_zero_subspace(self):
        sp = SymplecticSpace(F5, 1)
        with pytest.raises(DimensionMismatchError):
            cyclic_pair(sp, Mat.zeros(F5, 2, 2), Subspace.from_vectors(F5, 2, []))

    @pytest.mark.parametrize("use_recursion", [False, True], ids=["solve", "recursion"])
    def test_chain_invariants_on_scrambled_instances(self, use_recursion):
        rng = random.Random(227)
        sp = SymplecticSpace(F3, 3)
        zero, one = F3.zero, F3.one
        for _ in range(15):
            a = _scrambled(sp, rng, [("jordan", zero, (2, 1))])
            pair = cyclic_pair(sp, a, whole_space(F3, 6), use_recursion)
            d = pair.d
            assert d == 2  # maximal chain height
            for i in range(d):
                for j in range(d):
                    want = one if i == j else zero
                    assert sigma(pair.w.rows[i], pair.u.rows[j]) == want
                    assert sigma(pair.u.rows[i], pair.u.rows[j]) == zero
                    assert sigma(pair.w.rows[i], pair.w.rows[j]) == zero
            # chain structure: u_i = g(u_{i+1}), w_{i+1} = g(w_i)
            for i in range(d - 1):
                assert matvec(a, pair.u.rows[i + 1]) == pair.u.rows[i]
                assert matvec(a, pair.w.rows[i]) == pair.w.rows[i + 1]

    def test_chains_stay_raw_until_read(self, monkeypatch):
        """The chains are Mats, one vector per row.  Over F_9 the only decodes
        are the dim(s) entries of the one solution of the dual seed's system."""
        sp = SymplecticSpace(F9, 3)
        a = _scrambled(sp, random.Random(239), [("jordan", F9.zero, (2, 1))])
        s = whole_space(F9, sp.dim)
        decode = ZechOps.decode
        calls = []
        monkeypatch.setattr(ZechOps, "decode", lambda ops, v: calls.append(v) or decode(ops, v))
        pair = cyclic_pair(sp, a, s)
        assert len(calls) <= s.dim
        monkeypatch.undo()
        assert isinstance(pair.u, Mat) and isinstance(pair.w, Mat) and pair.u.nrows == pair.w.nrows == pair.d == 2

    def test_both_variants_agree_exactly(self):
        # with the canonical solve pinning free variables, both seed choices
        # satisfy the same defining system, and here they coincide
        rng = random.Random(229)
        sp = SymplecticSpace(F5, 2)
        for _ in range(10):
            a = _scrambled(sp, rng, [("jordan", F5.zero, (2,))])
            p1 = cyclic_pair(sp, a, whole_space(F5, 4), use_recursion=False)
            p2 = cyclic_pair(sp, a, whole_space(F5, 4), use_recursion=True)
            assert p1.u.rows == p2.u.rows
            assert p1.d == p2.d


class TestNilpotentNormalForm:
    """A nilpotent operator through split_normal_form: one eigenvalue, 0."""

    def test_zero_operator(self):
        sp = SymplecticSpace(QQ, 2)
        c, b, spec = split_normal_form(sp, Mat.zeros(QQ, 4, 4))
        assert c == Mat.identity(QQ, 4)
        assert b == Mat.zeros(QQ, 2, 2)
        assert spec == ((QQ.zero, (1, 1)),)

    def test_already_in_normal_form(self):
        sp = SymplecticSpace(F3, 2)
        n2 = Mat(F3, [[0, 1], [0, 0]])
        a = Mat.block_diag(F3, [n2, n2.transpose()])
        c, b, spec = split_normal_form(sp, a)
        assert c == Mat.identity(F3, 4)
        assert b == n2
        assert spec == ((F3.zero, (2,)),)

    @pytest.mark.parametrize("sizes", [(1,), (2,), (2, 1), (3, 1), (2, 2)], ids=str)
    def test_scrambled_recovery(self, sizes):
        rng = random.Random(233)
        n = sum(sizes)
        sp = SymplecticSpace(F5, n)
        for _ in range(5):
            a = _scrambled(sp, rng, [("jordan", F5.zero, sizes)])
            c, b, spec = split_normal_form(sp, a)
            assert spec == ((F5.zero, tuple(sorted(sizes, reverse=True))),)
            assert is_symplectic_matrix(sp, c)
            assert inverse(c) * a * c == Mat.block_diag(F5, [b, b.transpose()])
            assert _jordan_sizes_from_ranks(b, F5.zero) == tuple(sorted(sizes, reverse=True))


class TestSplitNormalForm:
    def test_scalar_operator_is_fixed_point(self):
        sp = SymplecticSpace(QQ, 1)
        a = Mat.identity(QQ, 2) * Fraction(3)
        c, b, spec = split_normal_form(sp, a)
        assert c == Mat.identity(QQ, 2)
        assert b == Mat(QQ, [[Fraction(3)]])
        assert spec == ((Fraction(3), (1,)),)

    def test_diagonal_two_eigenvalues(self):
        sp = SymplecticSpace(QQ, 2)
        a = Mat(QQ, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
        c, b, spec = split_normal_form(sp, a)
        assert c == Mat.identity(QQ, 4)
        assert b == Mat(QQ, [[1, 0], [0, 2]])
        assert spec == ((Fraction(1), (1,)), (Fraction(2), (1,)))

    def test_rejects_irrational_spectrum(self):
        sp = SymplecticSpace(QQ, 2)
        # eigenvalues +-sqrt(2), each twice
        b = Mat(QQ, [[0, 1], [2, 0]])
        a = Mat.block_diag(QQ, [b, b.transpose()])
        assert is_self_adjoint(sp, a)
        with pytest.raises(EigenvaluesNotInFieldError):
            split_normal_form(sp, a)

    def test_eigenvalue_order_and_size_order(self):
        rng = random.Random(239)
        sp = SymplecticSpace(F5, 4)
        spec = [("jordan", F5.from_int(4), (1,)), ("jordan", F5.from_int(1), (2, 1))]
        for _ in range(5):
            a = _scrambled(sp, rng, spec)
            c, b, out = split_normal_form(sp, a)
            assert out == ((F5.from_int(1), (2, 1)), (F5.from_int(4), (1,)))
            assert is_symplectic_matrix(sp, c)
            assert inverse(c) * a * c == Mat.block_diag(F5, [b, b.transpose()])

    def test_rank_profile_matches_oracle(self):
        rng = random.Random(241)
        sp = SymplecticSpace(QQ, 3)
        spec = [("jordan", Fraction(-1), (2,)), ("jordan", Fraction(5), (1,))]
        a = _scrambled(sp, rng, spec)
        _, b, out = split_normal_form(sp, a)
        for lam, sizes in out:
            assert _jordan_sizes_from_ranks(b, lam) == sizes


class TestDescentNormalForm:
    def test_identity_certificate_is_accepted(self):
        # diag(companion, companion^T) is already in target form; the
        # verifier accepts the trivial basis
        p = Poly(F3, [1, 0, 1])
        b = companion_matrix(p)
        sp = SymplecticSpace(F3, 2)
        a = Mat.block_diag(F3, [b, b.transpose()])
        cert = NormalFormCertificate(sp, a, Mat.identity(F3, 4), b, "descent", None)
        assert verify_certificate(cert).ok

    def test_scrambled_quadratic_factor(self):
        rng = random.Random(251)
        sp = SymplecticSpace(F3, 2)
        for trial in range(8):
            a = _scrambled(sp, rng, [("companion", Poly(F3, [1, 0, 1]), (1,))])
            c, b = descent_normal_form(sp, a, seed=trial)
            assert is_symplectic_matrix(sp, c)
            assert inverse(c) * a * c == Mat.block_diag(F3, [b, b.transpose()])
            assert charpoly(a) == charpoly(b) ** 2

    def test_mixed_linear_and_quadratic(self):
        rng = random.Random(257)
        sp = SymplecticSpace(F5, 3)
        spec = [("companion", Poly(F5, [2, 0, 1]), (1,)), ("jordan", F5.one, (1,))]
        a = _scrambled(sp, rng, spec)
        c, b = descent_normal_form(sp, a)
        assert is_symplectic_matrix(sp, c)
        assert inverse(c) * a * c == Mat.block_diag(F5, [b, b.transpose()])

    def test_all_linear_spectrum_also_works(self):
        # degree-1 factors take the chain path inside the same routine
        rng = random.Random(263)
        sp = SymplecticSpace(F3, 2)
        a = _scrambled(sp, rng, [("jordan", F3.one, (2,))])
        c, b = descent_normal_form(sp, a)
        assert inverse(c) * a * c == Mat.block_diag(F3, [b, b.transpose()])

    def test_extension_base_field(self):
        rng = random.Random(269)
        sp = SymplecticSpace(F9, 2)
        # an irreducible quadratic over F_9: t^2 + t + gen works iff no root
        t = Poly.x(F9)
        cand = t ** 2 + t + Poly(F9, [F9.gen])
        from sympnf.poly import is_irreducible

        if not is_irreducible(cand):
            cand = t ** 2 + t + Poly(F9, [F9.gen + F9.one])
        assert is_irreducible(cand)
        a = _scrambled(sp, rng, [("companion", cand, (1,))])
        c, b = descent_normal_form(sp, a)
        assert is_symplectic_matrix(sp, c)
        assert inverse(c) * a * c == Mat.block_diag(F9, [b, b.transpose()])

    def test_rejects_rationals(self):
        sp = SymplecticSpace(QQ, 1)
        with pytest.raises(RationalFieldError):
            descent_normal_form(sp, Mat.identity(QQ, 2))


class TestOrchestration:
    def test_jordan_case_end_to_end(self):
        rng = random.Random(271)
        sp = SymplecticSpace(QQ, 3)
        spec = [("jordan", Fraction(1), (2, 1))]
        a = _scrambled(sp, rng, spec)
        cert = symplectic_normal_form(sp, a)
        assert cert.case == "jordan"
        assert cert.jordan_spec == ((Fraction(1), (2, 1)),)
        assert cert.checks and all(cert.checks.values())

    def test_descent_case_end_to_end(self):
        rng = random.Random(277)
        sp = SymplecticSpace(F3, 2)
        a = _scrambled(sp, rng, [("companion", Poly(F3, [1, 0, 1]), (1,))])
        cert = symplectic_normal_form(sp, a)
        assert cert.case == "descent"
        assert cert.jordan_spec is None
        assert verify_certificate(cert).ok

    def test_rational_nonlinear_unsupported(self):
        """An irreducible quadratic factor over QQ stops symplectic_normal_form
        and primary_decomposition with one class and one message."""
        for n, quadratic in [(2, [1, 0, 1]), (3, [-2, 0, 1])]:
            sp = SymplecticSpace(QQ, n)
            blocks = [companion_matrix(Poly(QQ, quadratic))] + [jordan_block(QQ, Fraction(3), 1)] * (n - 2)
            b = Mat.block_diag(QQ, blocks)
            a = Mat.block_diag(QQ, [b, b.transpose()])
            with pytest.raises(UnsupportedFieldPathError) as certified:
                symplectic_normal_form(sp, a)
            with pytest.raises(UnsupportedFieldPathError) as decomposed:
                primary_decomposition(sp, a)
            assert str(decomposed.value) == str(certified.value)

    def test_rejects_non_self_adjoint(self):
        sp = SymplecticSpace(F5, 1)
        with pytest.raises(NotSelfAdjointError):
            symplectic_normal_form(sp, Mat(F5, [[1, 2], [3, 4]]))

    def test_finite_field_linear_spectrum_uses_jordan_case(self):
        rng = random.Random(281)
        sp = SymplecticSpace(F5, 2)
        a = _scrambled(sp, rng, [("jordan", F5.from_int(2), (2,))])
        cert = symplectic_normal_form(sp, a)
        assert cert.case == "jordan"

    @pytest.mark.parametrize(
        "spec,case",
        [
            ([("jordan", F5.from_int(2), (2,)), ("jordan", F5.one, (1,))], "jordan"),
            ([("companion", Poly(F5, [2, 0, 1]), (1,)), ("jordan", F5.one, (1,))], "descent"),
        ],
        ids=["jordan", "descent"],
    )
    def test_validates_and_factors_once(self, monkeypatch, spec, case):
        a = _scrambled(SymplecticSpace(F5, 3), random.Random(283), spec)
        calls = {"factor": 0, "charpoly": 0, "is_self_adjoint": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(nf, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(nf, name, counted)
        cert = symplectic_normal_form(SymplecticSpace(F5, 3), a)
        assert cert.case == case
        # the pipeline runs charpoly once; the verifier reads charpoly_square
        # off the conjugation and runs none
        assert calls == {"factor": 1, "charpoly": 1, "is_self_adjoint": 1}


class TestVerifier:
    def _sample_cert(self, seed=283):
        rng = random.Random(seed)
        sp = SymplecticSpace(F5, 2)
        a = _scrambled(sp, rng, [("jordan", F5.one, (1,)), ("jordan", F5.from_int(3), (1,))])
        return symplectic_normal_form(sp, a)

    def test_accepts_pipeline_output(self):
        cert = self._sample_cert()
        report = verify_certificate(cert)
        assert report.ok
        assert set(report.checks) == {"symplectic_basis", "conjugation", "jordan_form", "charpoly_square"}

    def test_tampered_basis_fails(self):
        cert = self._sample_cert()
        bad = Mat(F5, [[x * F5.from_int(2) for x in r] for r in cert.basis.rows])
        report = verify_certificate(
            NormalFormCertificate(cert.space, cert.matrix, bad, cert.block, cert.case, cert.jordan_spec)
        )
        assert not report.checks["symplectic_basis"]
        assert not report.ok

    def test_tampered_block_fails_conjugation(self):
        cert = self._sample_cert()
        bad = cert.block + Mat.identity(F5, 2)
        report = verify_certificate(
            NormalFormCertificate(cert.space, cert.matrix, cert.basis, bad, cert.case, cert.jordan_spec)
        )
        assert not report.checks["conjugation"]
        assert not report.checks["charpoly_square"]

    def test_unsorted_spec_fails_jordan_check(self):
        rng = random.Random(293)
        sp = SymplecticSpace(F5, 2)
        a = _scrambled(sp, rng, [("jordan", F5.one, (1,)), ("jordan", F5.from_int(3), (1,))])
        cert = symplectic_normal_form(sp, a)
        flipped = tuple(reversed(cert.jordan_spec))
        # the block order no longer matches the claimed spec, and the spec
        # itself violates the ascending-eigenvalue contract
        report = verify_certificate(
            NormalFormCertificate(cert.space, cert.matrix, cert.basis, cert.block, "jordan", flipped)
        )
        assert not report.checks["jordan_form"]

    def test_failure_is_reported_not_raised(self):
        sp = SymplecticSpace(F3, 1)
        garbage = NormalFormCertificate(
            sp, Mat.zeros(F3, 2, 2), Mat.zeros(F3, 2, 2), Mat.zeros(F3, 1, 1), "descent", None
        )
        report = verify_certificate(garbage)  # singular C must not raise
        assert not report.ok


class TestPolarize:
    def test_identity_case(self):
        sp = SymplecticSpace(F3, 2)
        p = Poly(F3, [1, 0, 1])
        b = companion_matrix(p)
        a = Mat.block_diag(F3, [b, b.transpose()])
        cert = NormalFormCertificate(sp, a, Mat.identity(F3, 4), b, "descent", None)
        u, w, l = polarize(cert)
        assert u == Subspace.from_vectors(F3, 4, [_e(sp, 0), _e(sp, 1)])
        assert w == Subspace.from_vectors(F3, 4, [_e(sp, 2), _e(sp, 3)])
        assert l == b

    def test_lagrangian_invariant_pair(self):
        rng = random.Random(307)
        sp = SymplecticSpace(F5, 2)
        a = _scrambled(sp, rng, [("companion", Poly(F5, [2, 0, 1]), (1,))])
        cert = symplectic_normal_form(sp, a)
        u, w, _ = polarize(cert)
        for s in (u, w):
            assert classify_subspace(sp, s) == "lagrangian"
            for v in s.basis:
                assert contains(s, matvec(a, v))
        assert intersection(u, w).is_zero()

    def test_rejects_invalid_certificate(self):
        sp = SymplecticSpace(F3, 1)
        # B claims eigenvalue 2 but A is the identity
        bad = NormalFormCertificate(
            sp, Mat.identity(F3, 2), Mat.identity(F3, 2), Mat.identity(F3, 1) * F3.from_int(2), "descent", None
        )
        with pytest.raises(InvalidCertificateError):
            polarize(bad)


class TestInstanceGeneration:
    def test_normalize_sorts_eigenvalues_and_sizes(self):
        spec = [("jordan", F5.from_int(3), (1, 2)), ("jordan", F5.one, (1,))]
        out = normalize_block_spec(F5, spec)
        assert out == [("jordan", F5.one, (1,)), ("jordan", F5.from_int(3), (2, 1))]

    def test_build_block_matrix(self):
        spec = normalize_block_spec(QQ, [("jordan", Fraction(2), (2,))])
        assert build_block_matrix(QQ, spec) == jordan_block(QQ, Fraction(2), 2)

    def test_generated_instances_are_self_adjoint(self):
        rng = random.Random(311)
        sp = SymplecticSpace(F3, 3)
        for _ in range(10):
            a = random_self_adjoint(sp, rng, [("jordan", F3.one, (2,)), ("jordan", F3.zero, (1,))])
            assert is_self_adjoint(sp, a)
            assert charpoly(a) == (Poly.x(F3) - Poly.one(F3)) ** 4 * Poly.x(F3) ** 2

    def test_spec_dimension_mismatch(self):
        sp = SymplecticSpace(F3, 2)
        with pytest.raises(BadSpecError):
            random_self_adjoint(sp, random.Random(0), [("jordan", F3.one, (1,))])

    def test_a_companion_must_be_monic_of_positive_degree_over_the_field(self):
        sp = SymplecticSpace(F5, 1)
        # 2t + 1 is not monic: its companion block would have charpoly (t + 1)^2, not (t - 2)^2
        for p in (Poly(F5, [1, 2]), Poly(F5, [3]), Poly(F3, [1, 1])):
            with pytest.raises(BadSpecError, match="monic of degree >= 1"):
                random_self_adjoint(sp, random.Random(0), [("companion", p, (1,))])

    @pytest.mark.parametrize(
        "spec",
        [
            [],
            [("jordan", F5.one, ())],
            [("jordan", F5.one, (1, 0))],
            [("jordan", F5.one, (1.0,))],
            [("scalar", F5.one, (1,))],
            [("jordan", Fraction(1, 2), (1,))],
            [("jordan", F3.one, (1,))],
        ],
        ids=["empty", "no-sizes", "zero-size", "float-size", "unknown-kind", "rational-eigenvalue", "F3-eigenvalue"],
    )
    def test_normalize_refuses_a_malformed_spec(self, spec):
        with pytest.raises(BadSpecError):
            normalize_block_spec(F5, spec)

    def test_an_int_eigenvalue_is_lifted_into_the_field(self):
        assert normalize_block_spec(F5, [("jordan", 8, (1,)), ("jordan", 1, (1,))]) == [
            ("jordan", F5.one, (1,)),
            ("jordan", F5.from_int(3), (1,)),
        ]

    def test_the_dimension_is_checked_before_b_is_built(self, monkeypatch):
        def unreachable(field, spec):
            raise AssertionError("build_block_matrix ran on a spec of the wrong dimension")

        monkeypatch.setattr(nf, "build_block_matrix", unreachable)
        sp = SymplecticSpace(F5, 2)
        quadratic = Poly(F5, [2, 0, 1])
        for spec in ([("jordan", F5.one, (1,))], [("jordan", F5.one, (10**8,))], [("companion", quadratic, (2,))]):
            with pytest.raises(BadSpecError, match="total dimension"):
                random_self_adjoint(sp, random.Random(0), spec)
        assert block_spec_dimension(normalize_block_spec(F5, [("companion", quadratic, (2, 1))])) == 6

    def test_kernel_dimension_sanity(self):
        # the generated operator has the prescribed eigenspace dimensions
        rng = random.Random(313)
        sp = SymplecticSpace(F5, 3)
        a = random_self_adjoint(sp, rng, [("jordan", F5.zero, (2, 1))])
        # two chains per half, doubled by the transpose half
        assert kernel(a).dim == 4
