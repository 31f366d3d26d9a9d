"""Differential oracles over the acceptance corpus: characteristic
polynomials, and the Jordan block sizes of each certificate read off the
ranks of (A - lambda)^k.  Over QQ and the prime fields the oracle is SymPy, a
test-only dependency whose tests are skipped without it.  SymPy's GF(9) is
Z/9, so over F_9 the ranks, and the characteristic polynomials by Hessenberg
reduction, are taken on the arithmetic of the independent checker, which
shares no code with sympnf."""

import json
from fractions import Fraction

import pytest

from sympnf.fields import QQ
from sympnf.linalg import charpoly
from sympnf.serialize import certificate_to_json, dumps_canonical, encode_scalar, instance_to_json

from independent_checker import _arithmetic, matrix_product
from test_acceptance import CORPUS, _cert

try:
    import sympy
    from sympy.polys.matrices import DomainMatrix
except ImportError:
    sympy = None
needs_sympy = pytest.mark.skipif(sympy is None, reason="SymPy is not installed")

# the instances over QQ and the prime fields, whose entries SymPy reads directly
INDICES = [i for i, inst in enumerate(CORPUS) if inst.space.field is QQ or inst.space.field.kind == "prime"]
F9_INDICES = [i for i, inst in enumerate(CORPUS) if inst.space.field.kind == "extension"]


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


@needs_sympy
def test_charpoly_matches_sympy():
    assert len(INDICES) == 400
    for idx in INDICES:
        a = CORPUS[idx].matrix
        field = a.field
        dom = _domain(field)
        expected = [_from_sympy(dom, field, c) for c in reversed(_domain_matrix(a).charpoly())]
        assert [_from_sympnf(field, c) for c in charpoly(a).coeffs] == expected, CORPUS[idx].label


def _rank_sequence(dim, rank, g, product):
    """rank g^k for k = 0, 1, ... up to the first repeat, after which it is constant."""
    ranks = [dim]
    power = g
    while True:
        ranks.append(rank(power))
        if ranks[-1] == ranks[-2]:
            return ranks
        power = product(power, g)


def _sizes_from_ranks(ranks):
    """Sizes of the Jordan blocks of a at lam, largest first, from the ranks
    of (a - lam)^k: the blocks of size >= k number rank (a - lam)^(k-1) -
    rank (a - lam)^k."""
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))] + [0]
    sizes = []
    for k in range(len(at_least) - 1, 0, -1):
        sizes += [k] * (at_least[k - 1] - at_least[k])
    return sizes


@needs_sympy
def test_jordan_blocks_match_sympy_ranks():
    checked = 0
    for idx in INDICES:
        cert = _cert(idx)
        if cert.case != "jordan":
            continue
        checked += 1
        a = cert.matrix
        for lam, sizes in cert.jordan_spec:
            # A is similar to diag(B, B^T), and B^T has the Jordan blocks of B
            twice = sorted(sizes + sizes, reverse=True)
            ranks = _rank_sequence(a.nrows, lambda m: m.rank(), _domain_matrix(a, lam), lambda x, y: x * y)
            assert _sizes_from_ranks(ranks) == twice, CORPUS[idx].label
    assert checked >= 300


def _checker_neg_inv(x, mul, minus_one, q):
    """-1/x over F_q, as -x^(q-2)."""
    out = minus_one
    for _ in range(q - 2):
        out = mul(out, x)
    return out


def _checker_rank(rows, arithmetic, q):
    """Rank by elimination on the checker's arithmetic over F_q, each pivot
    inverted as x^(q-2)."""
    _, add, mul, embed = arithmetic
    zero, minus_one = embed(0), embed(-1)
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != zero), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        neg_inv = _checker_neg_inv(rows[rank][col], mul, minus_one, q)
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != zero:
                factor = mul(rows[i][col], neg_inv)
                rows[i] = [add(x, mul(factor, y)) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_f9_jordan_blocks_match_ranks_on_the_checker_arithmetic():
    checked = 0
    for idx in F9_INDICES:
        cert = _cert(idx)
        if cert.case != "jordan":
            continue
        checked += 1
        data = json.loads(dumps_canonical(certificate_to_json(cert)))
        arithmetic = parse, add, mul, embed = _arithmetic(data["field"])
        q = int(data["field"]["p"]) ** (len(data["field"]["modulus"]) - 1)
        assert q == 9
        zero, minus_one = embed(0), embed(-1)
        a = [[parse(x) for x in row] for row in data["A"]]
        dim = len(a)
        multiplicities = 0
        for entry in data["jordan_spec"]:
            minus_lam = mul(minus_one, parse(entry["eigenvalue"]))
            g = [[add(x, minus_lam) if i == j else x for j, x in enumerate(row)] for i, row in enumerate(a)]
            ranks = _rank_sequence(
                dim,
                lambda m: _checker_rank(m, arithmetic, q),
                g,
                lambda x, y: matrix_product(x, y, add, mul, zero),
            )
            twice = sorted(entry["sizes"] * 2, reverse=True)
            assert _sizes_from_ranks(ranks) == twice, CORPUS[idx].label
            # the ranks are constant from the first repeat, so this is 2n - rank (A - lam)^(2n)
            multiplicities += dim - ranks[-1]
        assert multiplicities == dim, CORPUS[idx].label
    assert checked == 67


def _checker_charpoly(a, arithmetic, q):
    """det(tI - a), lowest degree first, on the checker's arithmetic over F_q:
    a is brought to upper Hessenberg form h by similarities, and then
    p_m = (t - h[m-1][m-1]) p_(m-1)
          - sum over i = 1 .. m-1 of h[m-1-i][m-1] h[m-1][m-2] ... h[m-i][m-i-1] p_(m-1-i)."""
    _, add, mul, embed = arithmetic
    zero, one, minus_one = embed(0), embed(1), embed(-1)
    h = [list(r) for r in a]
    n = len(h)
    for k in range(n - 2):
        pivot = next((i for i in range(k + 1, n) if h[i][k] != zero), None)
        if pivot is None:
            continue
        # conjugate by the transposition of k + 1 and pivot
        h[k + 1], h[pivot] = h[pivot], h[k + 1]
        for r in h:
            r[k + 1], r[pivot] = r[pivot], r[k + 1]
        neg_inv = _checker_neg_inv(h[k + 1][k], mul, minus_one, q)
        for i in range(k + 2, n):
            f = mul(h[i][k], neg_inv)
            # row i += f row k+1, then column k+1 -= f column i: a similarity
            h[i] = [add(x, mul(f, y)) for x, y in zip(h[i], h[k + 1])]
            for r in h:
                r[k + 1] = add(r[k + 1], mul(minus_one, mul(f, r[i])))

    def add_scaled(c, p, acc):
        """acc + c p, for len(p) <= len(acc)."""
        return [add(x, mul(c, y)) for x, y in zip(acc, p)] + acc[len(p) :]

    polys = [[one]]
    for m in range(1, n + 1):
        p = add_scaled(mul(minus_one, h[m - 1][m - 1]), polys[m - 1], [zero] + polys[m - 1])
        sub = one
        for i in range(1, m):
            sub = mul(sub, h[m - i][m - i - 1])
            p = add_scaled(mul(minus_one, mul(h[m - 1 - i][m - 1], sub)), polys[m - 1 - i], p)
        polys.append(p)
    return polys[n]


def test_f9_charpoly_matches_hessenberg_on_the_checker_arithmetic():
    assert len(F9_INDICES) == 100
    for idx in F9_INDICES:
        inst = CORPUS[idx]
        data = json.loads(dumps_canonical(instance_to_json(inst.space, inst.matrix)))
        arithmetic = parse, _, _, _ = _arithmetic(data["field"])
        q = int(data["field"]["p"]) ** (len(data["field"]["modulus"]) - 1)
        assert q == 9
        a = [[parse(x) for x in row] for row in data["matrix"]]
        field = inst.space.field
        got = [parse(encode_scalar(field, c)) for c in charpoly(inst.matrix).coeffs]
        assert got == _checker_charpoly(a, arithmetic, q), inst.label
