"""Reference tests for the cyclic-chain steps and the Galois descent of
``normalform``: each step is checked against the subspace algebra it replaces
(intersection with a sigma-complement, heights by repeated matvec, and the
Galois closure of a span by Frobenius conjugates)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympnf.fields import ExtElement, PrimeField, QQ, frobenius
from sympnf.linalg import Mat, Subspace, extend_scalars, kernel, restrict_scalars
import sympnf.normalform as nf
from sympnf.normalform import (
    _nilpotent_chains,
    _split_off,
    cyclic_pair,
    random_self_adjoint,
    symplectic_normal_form,
)
from sympnf.poly import Poly
from sympnf.symplectic import SymplecticSpace, symplectic_complement

from test_raw_values import F9, F81, F101_2, F101_3, elements

F5 = PrimeField(5)


def _partition(draw, total):
    sizes = []
    while total:
        sizes.append(draw(st.integers(1, total)))
        total -= sizes[-1]
    return tuple(sizes)


@st.composite
def nilpotent_cases(draw, field):
    """(space, g, s): g self-adjoint, nilpotent on the g-invariant symplectic
    subspace s; s is the whole space or the generalized 0-eigenspace of an
    operator that also has the eigenvalue 1."""
    n0 = draw(st.integers(1, 4))
    n1 = draw(st.integers(0, 5 - n0))
    spec = [("jordan", field.zero, _partition(draw, n0))]
    if n1:
        spec.append(("jordan", field.one, _partition(draw, n1)))
    space = SymplecticSpace(field, n0 + n1)
    g = random_self_adjoint(space, random.Random(draw(st.integers(0, 10**6))), spec)
    s = kernel(g ** space.dim)
    assert s.dim == 2 * n0
    return space, g, s


def _height(g, v):
    h = 0
    while any(v):
        v = g.matvec(v)
        h += 1
    return h


@pytest.mark.parametrize("field", [QQ, F5, F9], ids=["QQ", "F5", "F9"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_each_pair_splits_off_as_the_complement_would(field, data):
    space, g, s = data.draw(nilpotent_cases(field))
    current = s
    pairs = []
    while not current.is_zero():
        pair = cyclic_pair(space, g, current)
        heights = [_height(g, b) for b in current.basis]
        assert pair.d == max(heights)
        assert pair.u_chain[-1] == current.basis[heights.index(pair.d)]
        assert all(g.matvec(hi) == lo for lo, hi in zip(pair.u_chain, pair.u_chain[1:]))
        assert not any(g.matvec(pair.u_chain[0]))
        span = Subspace.from_vectors(field, space.dim, pair.u_chain + pair.w_chain)
        nxt = _split_off(space, current, pair)
        assert nxt == current.intersection(symplectic_complement(space, span))
        assert nxt.dim == current.dim - 2 * pair.d
        pairs.append(pair)
        current = nxt
    assert _nilpotent_chains(space, g, s) == pairs


EXTENSIONS = [F9, F101_2, F81, F101_3]
EXT_IDS = ["F9/F3", "F101^2/F101", "F81/F9", "F101^3/F101"]


def _galois_closure(ext, n, vectors):
    """The extension span of the vectors and all of their Frobenius conjugates."""
    q = ext.base.order
    conjugates = [[frobenius(x, j, q) for x in v] for j in range(ext.degree) for v in vectors]
    return Subspace.from_vectors(ext, n, conjugates)


@pytest.mark.parametrize("ext", EXTENSIONS, ids=EXT_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_descent_reads_the_rref_basis(ext, data):
    """The coefficient rows of any extension vectors span the base-field points
    of the Galois closure of their span: the kernel of its restricted
    annihilator, and the RREF basis of the closure read in the base field."""
    base = ext.base
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(0, n))
    points = [data.draw(st.lists(elements(base), min_size=n, max_size=n)) for _ in range(k)]
    rational = list(extend_scalars(Mat(base, points), ext).rows)
    vectors = list(rational)
    if rational:
        weights = data.draw(st.lists(elements(ext), min_size=k, max_size=k))
        vectors.append(tuple(sum((w * v[j] for w, v in zip(weights, rational)), ext.zero) for j in range(n)))
    extra = data.draw(st.booleans())
    if extra:
        vectors.append(tuple(data.draw(st.lists(elements(ext), min_size=n, max_size=n))))
    closure = _galois_closure(ext, n, vectors)
    points = kernel(restrict_scalars(closure.annihilator_rows()))
    assert Subspace.from_vectors(base, n, restrict_scalars(Mat(ext, vectors)).rows) == points
    # Frobenius maps the RREF basis of the Galois-stable closure to itself
    assert all(not any(x.coeffs[1:]) for r in closure.basis for x in r)
    assert Subspace.from_vectors(base, n, [[x.coeffs[0] for x in r] for r in closure.basis]) == points
    # the extension span of base-field vectors is Galois-stable, and a span's
    # own base-field points span it exactly when it is Galois-stable
    span = Subspace.from_vectors(ext, n, vectors)
    assert extra or span == closure
    span_points = kernel(restrict_scalars(span.annihilator_rows()))
    assert all(span.contains(v) for v in extend_scalars(span_points.basis_matrix(), ext).rows)
    assert (span_points.dim == span.dim) == (span == closure)


@pytest.mark.parametrize(
    "field, spec, n",
    [
        (F5, [("companion", Poly.from_ints(F5, [2, 0, 1]), (2,)), ("jordan", F5.one, (1,))], 5),
        (F9, [("companion", Poly.from_ints(F9, [1, -1, 0, 1]), (1,)), ("jordan", F9.gen, (1,))], 4),
    ],
    ids=["F5", "F9"],
)
def test_descent_raises_no_extension_element_to_a_power(field, spec, n, monkeypatch):
    """(t^2+2)^2 (t-1) over F_5 and (t^3-t+1)(t-gen) over F_9: the
    extension chains are restricted to coefficient rows, never conjugated."""
    space = SymplecticSpace(field, n)
    a = random_self_adjoint(space, random.Random(0), spec)
    calls = []
    power = ExtElement.__pow__

    def counted(x, e):
        calls.append(e)
        return power(x, e)

    monkeypatch.setattr(ExtElement, "__pow__", counted)
    assert symplectic_normal_form(space, a).case == "descent"
    assert calls == []


def test_the_last_pair_of_each_eigenvalue_is_not_split_off(monkeypatch):
    """A pair that fills what is left of its eigenspace needs no
    sigma-projection: 4 pairs over 2 eigenvalues make 2 split-offs."""
    space = SymplecticSpace(F5, 5)
    spec = [("jordan", F5.one, (2, 1)), ("jordan", F5.from_int(3), (1, 1))]
    a = random_self_adjoint(space, random.Random(5), spec)
    split_off = nf._split_off
    calls = []

    def counted(*args):
        calls.append(1)
        return split_off(*args)

    monkeypatch.setattr(nf, "_split_off", counted)
    cert = symplectic_normal_form(space, a)
    assert cert.jordan_spec == ((F5.one, (2, 1)), (F5.from_int(3), (1, 1)))
    assert len(calls) == 4 - 2
