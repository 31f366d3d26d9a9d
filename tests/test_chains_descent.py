"""Reference tests for the cyclic-chain steps and the Galois descent of
``normalform``: each step is checked against the subspace algebra it replaces
(intersection with a sigma-complement, heights by repeated matvec, and the
restriction of scalars of an annihilator)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympnf.errors import InternalDescentFailureError
from sympnf.fields import PrimeField, QQ, frobenius
from sympnf.linalg import Subspace, extend_vector, kernel, restrict_scalars_kernel
from sympnf.normalform import (
    _descend_subspace,
    _nilpotent_chains,
    _split_off,
    cyclic_pair,
    random_self_adjoint,
)
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


def _galois_conjugate(ext, sub):
    q = ext.base.order
    return Subspace.from_vectors(ext, sub.ambient_dim, [[frobenius(x, 1, q) for x in r] for r in sub.basis])


def _restricted(ext, sub):
    """The base-field points of sub by restriction of scalars."""
    return restrict_scalars_kernel(sub.annihilator_rows())


@pytest.mark.parametrize("ext", EXTENSIONS, ids=EXT_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_descent_reads_the_rref_basis(ext, data):
    base = ext.base
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(0, n))
    rational = [extend_vector(data.draw(st.lists(elements(base), min_size=n, max_size=n)), ext) for _ in range(k)]
    mixed = []
    if rational:
        weights = data.draw(st.lists(elements(ext), min_size=k, max_size=k))
        mixed.append(tuple(sum((w * v[j] for w, v in zip(weights, rational)), ext.zero) for j in range(n)))
    # the extension span of base-field vectors is Galois-stable
    stable = Subspace.from_vectors(ext, n, mixed + rational)
    assert _galois_conjugate(ext, stable) == stable
    assert _descend_subspace(ext, stable) == _restricted(ext, stable)
    # one more extension vector: stable or not, as it happens
    extra = tuple(data.draw(st.lists(elements(ext), min_size=n, max_size=n)))
    sub = Subspace.from_vectors(ext, n, mixed + rational + [extra])
    if _galois_conjugate(ext, sub) == sub:
        assert _descend_subspace(ext, sub) == _restricted(ext, sub)
    else:
        with pytest.raises(InternalDescentFailureError):
            _descend_subspace(ext, sub)


@pytest.mark.parametrize("ext", EXTENSIONS, ids=EXT_IDS)
def test_descent_refuses_a_subspace_that_is_not_galois_stable(ext):
    line = Subspace.from_vectors(ext, 2, [(ext.one, ext.gen)])
    assert restrict_scalars_kernel(line.annihilator_rows()).dim < line.dim
    with pytest.raises(InternalDescentFailureError):
        _descend_subspace(ext, line)
    assert _descend_subspace(ext, Subspace.full(ext, 3)) == Subspace.full(ext.base, 3)
    assert _descend_subspace(ext, Subspace.zero(ext, 3)) == Subspace.zero(ext.base, 3)
