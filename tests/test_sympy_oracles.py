"""SymPy as a differential oracle over the acceptance corpus: characteristic
polynomials, and the Jordan block sizes of each certificate read off the
ranks of (A - lambda)^k.  SymPy is a test-only dependency; without it these
tests are skipped."""

from fractions import Fraction

import pytest

from sympnf.fields import QQ
from sympnf.linalg import charpoly

from test_acceptance import CORPUS, _cert

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

# the instances over QQ and the prime fields, whose entries SymPy reads directly
INDICES = [i for i, inst in enumerate(CORPUS) if inst.space.field is QQ or inst.space.field.kind == "prime"]


def _domain(field):
    return sympy.QQ if field is QQ else sympy.GF(field.p)


def _to_sympy(dom, field, x):
    return dom(x.numerator, x.denominator) if field is QQ else dom(x.value)


def _from_sympy(dom, field, x):
    return Fraction(int(x.numerator), int(x.denominator)) if field is QQ else int(x) % field.p


def _from_sympnf(field, x):
    return x if field is QQ else x.value


def _domain_matrix(m, shift=None):
    """m - shift*I as a SymPy DomainMatrix over m's field."""
    field = m.field
    dom = _domain(field)
    rows = [
        [_to_sympy(dom, field, x - shift if shift is not None and i == j else x) for j, x in enumerate(row)]
        for i, row in enumerate(m.rows)
    ]
    return DomainMatrix(rows, (m.nrows, m.ncols), dom)


def test_charpoly_matches_sympy():
    assert len(INDICES) == 400
    for idx in INDICES:
        a = CORPUS[idx].matrix
        field = a.field
        dom = _domain(field)
        expected = [_from_sympy(dom, field, c) for c in reversed(_domain_matrix(a).charpoly())]
        assert [_from_sympnf(field, c) for c in charpoly(a).coeffs] == expected, CORPUS[idx].label


def _block_sizes_from_ranks(a, lam):
    """Sizes of the Jordan blocks of a at lam, largest first: the blocks of
    size >= k number rank (a - lam)^(k-1) - rank (a - lam)^k."""
    g = _domain_matrix(a, lam)
    ranks = [a.nrows]
    power = g
    while True:
        ranks.append(power.rank())
        if ranks[-1] == ranks[-2]:
            break
        power = power * g
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))] + [0]
    sizes = []
    for k in range(len(at_least) - 1, 0, -1):
        sizes += [k] * (at_least[k - 1] - at_least[k])
    return sizes


def test_jordan_blocks_match_sympy_ranks():
    checked = 0
    for idx in INDICES:
        cert = _cert(idx)
        if cert.case != "jordan":
            continue
        checked += 1
        for lam, sizes in cert.jordan_spec:
            # A is similar to diag(B, B^T), and B^T has the Jordan blocks of B
            twice = sorted(sizes + sizes, reverse=True)
            assert _block_sizes_from_ranks(cert.matrix, lam) == twice, CORPUS[idx].label
    assert checked >= 300
