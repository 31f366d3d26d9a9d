"""Seeded instance generators for the benchmark workloads.

Each workload is a list of *slots*.  A slot fixes the structure of one
instance (field, n, Jordan/companion block spec, the symplectic word that
hides it, and the seed handed to ``symplectic_normal_form``).  The run seed
only draws a monomial symplectic matrix that conjugates the slot's matrix
further (none at seed 0).  So two seeds pose the same normal-form problems in
other coordinates: a fresh word per seed changed how dense and how tall the
matrices are, and moved a pass's cost by up to a third between seeds.

Slots come in strata: a stratum is the smallest group that covers the
workload's mix once (every field and n for ``corpus``, one grid row for
``sweep``, one height ladder for ``qq_height``).  A pass takes as many whole
strata as fit in the requested seconds of reference cost, and at least one,
so the work done is a pure function of (workload, seed, seconds) and every
count repeats.

This module imports ``sympnf``; the benchmark re-imports both on each set-up
so that import time is part of ``setup_s``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from sympnf.fields import PrimeField, QQ, make_field
from sympnf.linalg import Mat, inverse
from sympnf.normalform import build_block_matrix, normalize_block_spec
from sympnf.poly import Poly, is_irreducible
from sympnf.symplectic import SymplecticSpace, random_symplectic

F3 = PrimeField(3)
F5 = PrimeField(5)
F101 = PrimeField(101)
F9 = make_field("extension", p=3, modulus=[1, 0, 1])
CORPUS_FIELDS = [("QQ", QQ), ("F3", F3), ("F5", F5), ("F101", F101), ("F9", F9)]
WORD_LENGTH = 4  # unipotent factors per conjugation in sweep and qq_height


@dataclass(frozen=True)
class Instance:
    label: str
    space: SymplecticSpace
    seed: int  # passed to symplectic_normal_form (factorization RNG)
    matrix: object
    expected_spec: tuple | None  # Jordan data the certificate must report; None on descent
    has_descent: bool


def make_instance(label, space, spec, seed, c):
    """The instance C diag(B, B^T) C^-1 for the block spec and the symplectic
    matrix ``c``, with the answer the pipeline must give."""
    field = space.field
    norm = normalize_block_spec(field, spec)
    b = build_block_matrix(field, norm)
    matrix = c * Mat.block_diag(field, [b, b.transpose()]) * inverse(c)
    has_descent = any(e[0] == "companion" for e in spec)
    expected = None
    if not has_descent:
        expected = tuple((lam, sizes) for _, lam, sizes in sorted(norm, key=lambda e: field.sort_key(e[1])))
    return Instance(label, space, seed, matrix, expected, has_descent)


def unipotent_word(space, rng):
    """Symplectic [[I, M1], [0, I]] [[I, 0], [M2, I]] ... of WORD_LENGTH
    factors, each M symmetric with entries in -2..2.

    ``random_symplectic`` draws its word length and generator kinds, and a
    block diag(S, S^-T) brings det(S) into the denominators; between slots
    that moves the density and entry size of A, and the cost of one
    certificate, several-fold.  This word is dense after two factors and
    integral, so the cost of a sweep or qq_height slot follows from its n,
    field and spec alone.
    """
    field, n = space.field, space.n
    zero, one = field.zero, field.one
    c = Mat.identity(field, 2 * n)
    for k in range(WORD_LENGTH):
        vals = [[field.from_int(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        m = [[vals[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        ident = [[one if i == j else zero for j in range(n)] for i in range(n)]
        zeros = [[zero] * n for _ in range(n)]
        top, bottom = (ident, m), (zeros, ident)
        if k % 2:
            top, bottom = (ident, zeros), (m, ident)
        c = c * Mat(field, [a + b for a, b in zip(*top)] + [a + b for a, b in zip(*bottom)])
    return c


def monomial_symplectic(space, rng):
    """diag(S, S^-T) for a random monomial matrix S, a permutation with
    entries +-1 and +-2.  Conjugating by it reorders and rescales the
    coordinates."""
    field, n = space.field, space.n
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[field.zero] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[j][i] = field.from_int(rng.choice((1, -1, 2, -2)))
    s = Mat(field, rows)
    return Mat.block_diag(field, [s, inverse(s).transpose()])


def reseeded(space, c, base, seed):
    """The conjugating matrix of slot ``base`` for run seed ``seed``: ``c``
    itself at seed 0, else a seeded monomial symplectic matrix times ``c``."""
    if not seed:
        return c
    return monomial_symplectic(space, random.Random(f"{base}:{seed}")) * c


# --- block specs (same draws as tests/test_acceptance.py) -------------------


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


def random_spec(field, rng, n, want_descent):
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


# --- corpus: the 500-instance acceptance population -------------------------

CORPUS_SIZE = 100  # slots per field
CORPUS_STRATUM = 6  # slot indices i per stratum: n = 1 + i % 6 and descent on i % 3 == 1 repeat every 6
CORPUS_STRATUM_S = 3.6  # reference seconds of set-up, certify, verify and check for one stratum (30 instances)


def corpus_slots():
    """(field index, label, field, i) in stratum order: i-major, then field."""
    return [(fi, label, field, i) for i in range(CORPUS_SIZE) for fi, (label, field) in enumerate(CORPUS_FIELDS)]


def corpus_instance(seed, fi, label, field, i):
    n = 1 + i % 6
    # i % 3 == 1 implies n in {2, 5}, so a degree-2/3 factor always fits
    want_descent = field is not QQ and i % 3 == 1
    spec = random_spec(field, random.Random(f"{label}:{i}"), n, want_descent)
    space = SymplecticSpace(field, n)
    # At seed 0 this is random_self_adjoint(space, random.Random(base), spec),
    # i.e. tests/test_acceptance.CORPUS[fi * 100 + i].
    base = 1000 + CORPUS_SIZE * fi + i
    c = reseeded(space, random_symplectic(space, random.Random(base)), base, seed)
    tag = "descent" if want_descent else "jordan"
    return make_instance(f"{label} n={n} {tag} i={i}", space, spec, base, c)


def strata_for(costs, seconds):
    """How many strata, taken in order, fit in ``seconds`` of reference cost
    (at least one), and their reference cost."""
    total = 0.0
    count = 0
    for cost in costs:
        if count and total + cost > seconds:
            break
        total += cost
        count += 1
    return count, total


def build_corpus(seed, strata):
    slots = corpus_slots()[: strata * CORPUS_STRATUM * len(CORPUS_FIELDS)]
    return [corpus_instance(seed, *slot) for slot in slots]


# --- sweep: larger n, one grid row per stratum ------------------------------

SWEEP_CELLS = [("QQ", QQ, False), ("F101", F101, False), ("F101", F101, True), ("F9", F9, False), ("F9", F9, True)]
# (n, reference seconds of certify + verify for the whole row)
SWEEP_ROWS = [(8, 9.5), (10, 14.5), (12, 25.0), (14, 40.0), (16, 80.0)]


def sweep_spec(field, rng, n, want_descent):
    """Up to three eigenvalues with random partitions; a descent cell also
    holds one degree-2 irreducible companion block, so every row poses the
    same kind of problem and only n grows."""
    entries = []
    if want_descent:
        entries.append(("companion", _irreducible_poly(field, rng, 2), (1,)))
        n -= 2
    return entries + random_spec(field, rng, n, False)


def sweep_instance(seed, row, col, n):
    label, field, want_descent = SWEEP_CELLS[col]
    tag = "descent" if want_descent else "jordan"
    spec = sweep_spec(field, random.Random(f"sweep:{label}:{tag}:{n}"), n, want_descent)
    space = SymplecticSpace(field, n)
    base = 2000 + len(SWEEP_CELLS) * row + col
    c = reseeded(space, unipotent_word(space, random.Random(base)), base, seed)
    return make_instance(f"{label} n={n} {tag}", space, spec, base, c)


def build_sweep(seed, strata):
    rows = SWEEP_ROWS[:strata]
    return [sweep_instance(seed, row, col, n) for row, (n, _) in enumerate(rows) for col in range(len(SWEEP_CELLS))]


# --- qq_height: rational eigenvalues of growing height ----------------------

# (n, digits of the numerator of each "heavy" eigenvalue).  The heavy
# eigenvalues all get one 1x1 Jordan block, so they share one squarefree
# factor of the characteristic polynomial, and poly.factor's rational-root
# search tries every divisor up to the square root of the product of their
# numerators.  The ladder raises that product from 4 to 15 digits, so the
# search grows from about 10^2 to 3*10^7 trial divisions.  It stops there
# because a product of 16 or more digits (one eigenvalue that tall is enough)
# needs 10^8 divisions and more, tenfold per two digits: the search
# effectively hangs (ROADMAP open item 4).  The rung count is odd so that
# the median certificate of a run lies inside one rung, not in the gap
# between two.
QQ_LADDER = [
    (2, (4,)),
    (3, (6,)),
    (4, (7,)),
    (4, (4, 4)),
    (5, (5, 4)),
    (6, (5, 5)),
    (2, (6, 5)),
    (3, (6, 6)),
    (4, (5, 4, 4)),
    (5, (5, 5, 4)),
    (6, (5, 5, 5)),
]
QQ_STRATUM_S = 4.9  # reference seconds of certify + verify for one ladder


def qq_height_spec(rng, n, digits):
    lams = []
    while len(lams) < len(digits):
        d = digits[len(lams)]
        num = rng.randrange(10 ** (d - 1), 10 ** d) * rng.choice((1, -1))
        lam = Fraction(num, rng.choice((1, 2, 3)))
        if lam not in lams:
            lams.append(lam)
    spec = [("jordan", lam, (1,)) for lam in lams]
    rest = n - len(lams)
    if rest:
        spec.append(("jordan", Fraction(rng.randint(-5, 5)), _random_partition(rng, rest)))
    # the small eigenvalue cannot equal a heavy one, which is at least 1000/3 in size
    return spec


def qq_height_instance(seed, j):
    n, digits = QQ_LADDER[j % len(QQ_LADDER)]
    spec = qq_height_spec(random.Random(f"qq_height:{j}"), n, digits)
    space = SymplecticSpace(QQ, n)
    base = 3000 + j
    c = reseeded(space, unipotent_word(space, random.Random(base)), base, seed)
    label = f"QQ n={n} digits={'+'.join(map(str, digits))} j={j}"
    return make_instance(label, space, spec, base, c)


def build_qq_height(seed, strata):
    return [qq_height_instance(seed, j) for j in range(strata * len(QQ_LADDER))]


BUILDERS = {"corpus": build_corpus, "sweep": build_sweep, "qq_height": build_qq_height}


STRATUM_COSTS = {
    "corpus": lambda: [CORPUS_STRATUM_S] * (CORPUS_SIZE // CORPUS_STRATUM),
    "sweep": lambda: [cost for _, cost in SWEEP_ROWS],
    "qq_height": lambda: itertools.repeat(QQ_STRATUM_S),
}


def plan(workload, seconds):
    """(strata, their reference seconds) of one pass sized to ``seconds``."""
    return strata_for(STRATUM_COSTS[workload](), seconds)


def build(workload, seed, seconds):
    """The instances of one pass sized to ``seconds``."""
    return BUILDERS[workload](seed, plan(workload, seconds)[0])
