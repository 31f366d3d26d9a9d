"""Acceptance suite: eight end-to-end criteria, all exact (tolerance zero).

Each test prints a single summary line.  A shared seeded corpus of
instances is built once and the resulting certificates are cached, so the
criteria exercise the same population from several angles.
"""

import hashlib
import random
import time
from fractions import Fraction

from sympnf.fields import PrimeField, QQ, make_field
from sympnf.linalg import Mat, charpoly, inverse, rref
from sympnf.normalform import (
    NormalFormCertificate,
    cyclic_pair,
    normalize_block_spec,
    polarize,
    primary_decomposition,
    random_self_adjoint,
    self_adjoint_projections,
    symplectic_normal_form,
    verify_certificate,
)
from sympnf.poly import Poly, factor, is_irreducible
from sympnf.serialize import certificate_to_json, dumps_canonical
from sympnf.symplectic import (
    SymplecticSpace,
    classify_subspace,
    is_self_adjoint,
    is_symplectic_matrix,
)

from independent_checker import certificate_holds
from oracles import contains, matvec, sigma, whole_space

F3 = PrimeField(3)
F5 = PrimeField(5)
F101 = PrimeField(101)
F9 = make_field("extension", p=3, modulus=[1, 0, 1])
FIELDS = [("QQ", QQ), ("F3", F3), ("F5", F5), ("F101", F101), ("F9", F9)]


# --- corpus ------------------------------------------------------------------


def _eigenvalue_pool(field):
    if field is QQ:
        return [Fraction(x) for x in range(-5, 6)] + [Fraction(1, 2), Fraction(-3, 2), Fraction(7, 3)]
    if field.kind == "extension":
        rng = random.Random(0)
        pool = []
        seen = set()
        while len(pool) < field.order:
            x = field.random_element(rng)
            if x not in seen:
                seen.add(x)
                pool.append(x)
        return pool
    return [field.from_int(i) for i in range(min(field.p, 14))]


def _random_partition(rng, total):
    sizes = []
    while total:
        s = rng.randint(1, total)
        sizes.append(s)
        total -= s
    return tuple(sizes)


def _irreducible_poly(field, rng, deg):
    while True:
        coeffs = [field.random_element(rng) for _ in range(deg)] + [field.one]
        p = Poly(field, coeffs)
        if p.degree == deg and is_irreducible(p):
            return p


def _random_spec(field, rng, n, want_descent):
    entries = []
    remaining = n
    if want_descent:
        deg = rng.choice([d for d in (2, 3) if d <= remaining])
        reps = 1
        if deg * 2 <= remaining and rng.random() < 0.3:
            reps = 2  # companion block of P^2
        entries.append(("companion", _irreducible_poly(field, rng, deg), (reps,)))
        remaining -= deg * reps
    if remaining:
        pool = _eigenvalue_pool(field)
        k = rng.randint(1, min(remaining, len(pool), 3))
        lams = rng.sample(pool, k)
        cut = sorted(rng.sample(range(1, remaining), k - 1)) if k > 1 else []
        bounds = [0] + cut + [remaining]
        for lam, lo, hi in zip(lams, bounds, bounds[1:]):
            entries.append(("jordan", lam, _random_partition(rng, hi - lo)))
    return entries


class _Instance:
    __slots__ = ("label", "space", "spec", "seed", "matrix", "expected_spec", "has_descent")

    def __init__(self, label, space, spec, seed):
        field = space.field
        self.label = label
        self.space = space
        self.spec = spec
        self.seed = seed
        self.matrix = random_self_adjoint(space, random.Random(seed), spec)
        self.has_descent = any(e[0] == "companion" for e in spec)
        if self.has_descent:
            self.expected_spec = None
        else:
            norm = normalize_block_spec(field, spec)
            norm.sort(key=lambda e: field.sort_key(e[1]))
            self.expected_spec = tuple((lam, sizes) for _, lam, sizes in norm)


def _build_corpus():
    corpus = []
    seed = 1000
    for label, field in FIELDS:
        finite = field is not QQ
        for i in range(100):
            n = 1 + i % 6
            rng = random.Random(f"{label}:{i}")
            # i % 3 == 1 implies n in {2, 5}, so a degree-2/3 factor always fits
            want_descent = finite and i % 3 == 1
            spec = _random_spec(field, rng, n, want_descent)
            corpus.append(_Instance(label, SymplecticSpace(field, n), spec, seed))
            seed += 1
    return corpus


CORPUS = _build_corpus()
_CERTS = {}


def _cert(idx):
    if idx not in _CERTS:
        inst = CORPUS[idx]
        _CERTS[idx] = symplectic_normal_form(inst.space, inst.matrix, seed=inst.seed)
    return _CERTS[idx]


# --- criterion 1: roundtrip suite -------------------------------------------


def test_acceptance_1_roundtrip_suite(capsys):
    assert len(CORPUS) >= 500
    start = time.monotonic()
    jordan = descent = 0
    for idx, inst in enumerate(CORPUS):
        cert = _cert(idx)
        space, a, c, b = inst.space, inst.matrix, cert.basis, cert.block
        assert is_symplectic_matrix(space, c)
        assert inverse(c) * a * c == Mat.block_diag(space.field, [b, b.transpose()])
        if cert.case == "jordan":
            jordan += 1
            if inst.expected_spec is not None:
                assert cert.jordan_spec == inst.expected_spec
        else:
            descent += 1
            assert inst.has_descent
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 1 (roundtrip suite): PASS — {len(CORPUS)} instances "
            f"({jordan} jordan, {descent} descent) in {elapsed:.1f}s"
        )


# Canonical certificate text of the whole corpus, in corpus order.  A change
# to this digest changes some certificate; it needs a stated reason.
CORPUS_DIGEST = "1791f614aaf3273248009b0ac6784e741c08387c45ef614878b1fcc381b84f55"


def test_corpus_certificates_are_byte_identical():
    h = hashlib.sha256()
    for idx in range(len(CORPUS)):
        h.update(dumps_canonical(certificate_to_json(_cert(idx))).encode("utf-8"))
    assert h.hexdigest() == CORPUS_DIGEST


def test_corpus_certificates_pass_the_independent_checker():
    for idx in range(len(CORPUS)):
        assert certificate_holds(dumps_canonical(certificate_to_json(_cert(idx)))), CORPUS[idx].label


# --- criterion 2: projection identities -------------------------------------


def test_acceptance_2_projection_identities(capsys):
    checked = 0
    for idx, inst in enumerate(CORPUS):
        space, a = inst.space, inst.matrix
        fac = factor(charpoly(a), seed=inst.seed)
        if len(fac.factors) < 2:
            continue
        checked += 1
        ps = self_adjoint_projections(space, a, fac)
        ident = Mat.identity(space.field, space.dim)
        acc = Mat.zeros(space.field, space.dim, space.dim)
        for i, p in enumerate(ps):
            assert p * p == p
            assert is_self_adjoint(space, p)
            for q in ps[i + 1 :]:
                assert (p * q).is_zero()
            acc = acc + p
        assert acc == ident
        comps = primary_decomposition(space, a, seed=inst.seed)
        for i, ci in enumerate(comps):
            for cj in comps[i + 1 :]:
                for x in ci.basis.basis:
                    for y in cj.basis.basis:
                        assert sigma(x, y) == space.field.zero
    assert checked >= 100
    with capsys.disabled():
        print(f"\nACCEPTANCE 2 (projection identities): PASS — {checked} multi-factor instances")


# --- criterion 3: cyclic chains ---------------------------------------------


def test_acceptance_3_cyclic_chains(capsys):
    count = 0
    for label, field in FIELDS:
        for i in range(21):
            n = 1 + i % 4
            rng = random.Random(f"{label}:nilpotent:{i}")
            sizes = _random_partition(rng, n)
            space = SymplecticSpace(field, n)
            a = random_self_adjoint(space, rng, [("jordan", field.zero, sizes)])
            full = whole_space(field, space.dim)
            pairs = [cyclic_pair(space, a, full, use_recursion=False)]
            pairs.append(cyclic_pair(space, a, full, use_recursion=True))
            one, zero = field.one, field.zero
            for pair in pairs:
                d = pair.d
                assert d == max(sizes)
                for i2 in range(d):
                    for j in range(d):
                        want = one if i2 == j else zero
                        assert sigma(pair.w.rows[i2], pair.u.rows[j]) == want
                        assert sigma(pair.u.rows[i2], pair.u.rows[j]) == zero
                        assert sigma(pair.w.rows[i2], pair.w.rows[j]) == zero
            # both variants satisfy identical post-conditions on the same chain top
            assert pairs[0].u.rows == pairs[1].u.rows
            assert pairs[0].d == pairs[1].d
            count += 1
    assert count >= 100
    with capsys.disabled():
        print(f"\nACCEPTANCE 3 (cyclic chains): PASS — {count} nilpotent instances, both variants")


# --- criterion 4: rank profiles ---------------------------------------------


def test_acceptance_4_rank_profiles(capsys):
    checked = 0
    for idx, inst in enumerate(CORPUS):
        cert = _cert(idx)
        if cert.case != "jordan":
            continue
        checked += 1
        space = inst.space
        field = space.field
        a, b = inst.matrix, cert.block
        for lam, _sizes in cert.jordan_spec:
            ga = a - Mat.identity(field, space.dim) * lam
            gb = b - Mat.identity(field, space.n) * lam
            pa = Mat.identity(field, space.dim)
            pb = Mat.identity(field, space.n)
            for _k in range(2 * space.n + 1):
                assert rref(pa).rank == 2 * rref(pb).rank
                pa = pa * ga
                pb = pb * gb
    assert checked >= 100
    with capsys.disabled():
        print(f"\nACCEPTANCE 4 (rank profiles): PASS — {checked} jordan-case instances, k = 0..2n")


# --- criterion 5: exhaustive n = 1 characterization --------------------------


def test_acceptance_5_exhaustive_n1(capsys):
    total = 0
    for field in (F3, F5):
        space = SymplecticSpace(field, 1)
        p = field.p
        for a00 in range(p):
            for a01 in range(p):
                for a10 in range(p):
                    for a11 in range(p):
                        a = Mat(field, [[a00, a01], [a10, a11]])
                        scalar = a01 == 0 and a10 == 0 and a00 == a11
                        assert is_self_adjoint(space, a) == scalar
                        total += 1
        for v in range(p):
            a = Mat.identity(field, 2) * field.from_int(v)
            cert = symplectic_normal_form(space, a)
            assert cert.basis == Mat.identity(field, 2)
            assert cert.block == Mat(field, [[field.from_int(v)]])
    assert total == 81 + 625
    with capsys.disabled():
        print(f"\nACCEPTANCE 5 (n=1 characterization): PASS — {total} matrices scanned, scalars fixed")


# --- criterion 6: descent suite ---------------------------------------------


def test_acceptance_6_descent_suite(capsys):
    checked = 0
    for idx, inst in enumerate(CORPUS):
        if not inst.has_descent:
            continue
        cert = _cert(idx)
        assert cert.case == "descent"
        assert verify_certificate(cert).ok
        space, a, b = inst.space, inst.matrix, cert.block
        assert charpoly(a) == charpoly(b) ** 2
        u, w, _l = polarize(cert)
        for s in (u, w):
            assert classify_subspace(space, s) == "lagrangian"
            for v in s.basis:
                assert contains(s, matvec(a, v))
        checked += 1
    assert checked >= 100
    with capsys.disabled():
        print(f"\nACCEPTANCE 6 (descent suite): PASS — {checked} instances with degree-2/3 factors")


# --- criterion 7: oracle equivalence on small instances ----------------------


def _symplectic_words(space, max_len):
    """All products of generator words up to max_len, deduplicated."""
    field = space.field
    n = space.n
    ident = Mat.identity(field, n)
    z = Mat.zeros(field, n, n)

    def blocks(a, b, c, d):
        rows = [ra + rb for ra, rb in zip(a.rows, b.rows)]
        rows += [rc + rd for rc, rd in zip(c.rows, d.rows)]
        return Mat(field, rows)

    gens = [space.omega]
    if n == 1:
        for v in (1, 2):
            s = Mat(field, [[v]])
            gens.append(blocks(s, z, z, inverse(s).transpose()))
        for m in (1, 2):
            sym = Mat(field, [[m]])
            gens.append(blocks(ident, sym, z, ident))
            gens.append(blocks(ident, z, sym, ident))
    else:
        for s_rows in ([[0, 1], [1, 0]], [[1, 1], [0, 1]], [[2, 0], [0, 1]]):
            s = Mat(field, s_rows)
            gens.append(blocks(s, z, z, inverse(s).transpose()))
        for m_rows in ([[1, 0], [0, 0]], [[0, 1], [1, 0]], [[1, 1], [1, 2]]):
            sym = Mat(field, m_rows)
            gens.append(blocks(ident, sym, z, ident))
            gens.append(blocks(ident, z, sym, ident))
    words = {Mat.identity(field, 2 * n)}
    frontier = [Mat.identity(field, 2 * n)]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for g in gens:
                c = w * g
                if c not in words:
                    words.add(c)
                    nxt.append(c)
        frontier = nxt
    return sorted(words, key=lambda m: tuple(tuple(field.sort_key(x) for x in r) for r in m.rows))


def test_acceptance_7_oracle_equivalence(capsys):
    rng = random.Random(7001)
    cases = []
    sp1 = SymplecticSpace(F3, 1)
    for v in range(3):
        cases.append((sp1, Mat.identity(F3, 2) * F3.from_int(v)))
    sp2 = SymplecticSpace(F3, 2)
    cases.append((sp2, random_self_adjoint(sp2, rng, [("jordan", F3.zero, (2,))])))
    cases.append((sp2, random_self_adjoint(sp2, rng, [("companion", Poly(F3, [1, 0, 1]), (1,))])))
    cases.append((sp2, random_self_adjoint(sp2, rng, [("jordan", F3.one, (1,)), ("jordan", F3.from_int(2), (1,))])))
    compared = accepted = 0
    for space, a in cases:
        words = _symplectic_words(space, 3 if space.n == 1 else 2)
        for c in words:
            assert is_symplectic_matrix(space, c)
            m = inverse(c) * a * c
            b = m.submatrix(0, space.n, 0, space.n)
            # direct predicate: the conjugate really is diag(B, B^T)
            direct = m == Mat.block_diag(space.field, [b, b.transpose()])
            cert = NormalFormCertificate(space, a, c, b, "descent", None)
            verdict = verify_certificate(cert).ok
            assert verdict == direct
            compared += 1
            accepted += verdict
    assert accepted > 0
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 7 (oracle equivalence): PASS — {compared} (A, C, B) triples, "
            f"{accepted} accepted by both predicates"
        )


# --- criterion 8: determinism -----------------------------------------------


def test_acceptance_8_determinism(capsys):
    checked = 0
    for idx in range(0, len(CORPUS), 9):
        inst = CORPUS[idx]
        outputs = []
        for _run in range(2):
            a = random_self_adjoint(inst.space, random.Random(inst.seed), inst.spec)
            cert = symplectic_normal_form(inst.space, a, seed=inst.seed)
            outputs.append(dumps_canonical(certificate_to_json(cert)).encode("utf-8"))
        assert outputs[0] == outputs[1]
        checked += 1
    assert checked >= 50
    with capsys.disabled():
        print(f"\nACCEPTANCE 8 (determinism): PASS — byte-identical certificates for {checked} seeds")
