"""The seed-0 certificates of the benchmark's sweep and qq_height workloads are
byte-identical to the golden digests in ``perfbench/reference.json``, and
descent certificates through splitting fields of order above
``ZECH_MAX_ORDER`` and a QQ certificate with tall eigenvalues are
byte-identical to digests pinned here.

The corpus workload's seed 0 is the acceptance corpus, which
``test_acceptance.test_corpus_certificates_are_byte_identical`` pins.  The
pass sets are the ones ``perfbench/run.py --seconds 30`` certifies, hashed as
its ``Loop.certificates`` hashes them.
"""

import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from sympnf.fields import QQ, ExtElement, PrimeField, make_field  # noqa: E402
from sympnf.normalform import random_self_adjoint, symplectic_normal_form  # noqa: E402
from sympnf.poly import Poly, is_irreducible  # noqa: E402
from sympnf.serialize import certificate_to_json, dumps_canonical  # noqa: E402
from sympnf.symplectic import SymplecticSpace  # noqa: E402

RUN_SECONDS = 30


@pytest.mark.parametrize("workload", ["sweep", "qq_height"])
def test_seed_0_certificates_match_the_golden_digest(workload):
    golden = run.load_reference()["golden_sha256"][workload]["0"]
    instances = workloads.build(workload, 0, RUN_SECONDS / run.MIN_ROUNDS)
    assert len(instances) == golden["instances"]
    loop = run.Loop()
    for i, inst in enumerate(instances):
        cert = symplectic_normal_form(inst.space, inst.matrix, seed=inst.seed)
        loop.texts[i] = dumps_canonical(certificate_to_json(cert))
    assert hashlib.sha256(loop.certificates()).hexdigest() == golden["sha256"]


F101 = PrimeField(101)
F9 = make_field("extension", p=3, modulus=[1, 0, 1])
QUADRATIC = Poly(F101, [-2, 0, 1])  # 2 is not a square mod 101: splits over F_{101^2}
CUBIC = Poly(F101, [1, 1, 0, 1])  # splits over F_{101^3}
QUARTIC = Poly(F9, [ExtElement(F9, (F9.base.one, F9.base.one)), 1, 0, 0, 1])  # splits over F_{9^4}

# (label, field, n, block spec, sha256 of the canonical certificate text)
DESCENTS = [
    ("F101 quadratic n=8", F101, 8, [("companion", QUADRATIC, (1,)), ("jordan", 3, (2, 1)), ("jordan", 5, (3,))],
     "ac3ae0f225ec25648462a2e4b31016f938ec91ba5b52ed2898fac4f1bbe89d57"),
    ("F101 quadratic n=12", F101, 12, [("companion", QUADRATIC, (2, 1)), ("jordan", 7, (4, 2))],
     "fde653c4094a228740db287ddd70cd4fc2ff52d840c09ef59ea9d0b5bc6b0b13"),
    ("F101 cubic n=8", F101, 8, [("companion", CUBIC, (1,)), ("jordan", 1, (3, 2))],
     "782e477199040a14d41605e019d95918807f0850e803c4ec85f96a410d2d909d"),
    ("F101 cubic n=12", F101, 12, [("companion", CUBIC, (2,)), ("jordan", 0, (3,)), ("jordan", 4, (2, 1))],
     "9566362a4576420f47b1fec30b738c36c729ea99256e2f72765d3f293dc0aad3"),
    ("F9 quartic n=6", F9, 6, [("companion", QUARTIC, (1,)), ("jordan", F9.gen, (2,))],
     "37522ac969d30e43d156e10f5e3b452258a7c97789500c524770e23fae644fda"),
]


def descent_certificate(field, n, spec, seed=5):
    space = SymplecticSpace(field, n)
    a = random_self_adjoint(space, random.Random(seed), spec)
    cert = symplectic_normal_form(space, a, seed=seed)
    assert cert.case == "descent"
    return dumps_canonical(certificate_to_json(cert))


@pytest.mark.parametrize("label, field, n, spec, digest", DESCENTS, ids=[d[0] for d in DESCENTS])
def test_descent_certificates_match_the_pinned_digest(label, field, n, spec, digest):
    assert all(is_irreducible(head) for kind, head, _ in spec if kind == "companion")
    assert hashlib.sha256(descent_certificate(field, n, spec).encode()).hexdigest() == digest


# n = 12 over QQ with four eigenvalues of 40-digit numerators and 20-digit
# denominators: A has 333-bit entries, and nearly all of certify is the row
# reduction of the powers of A - lambda in the primary kernels
TALL = [
    ("jordan", Fraction(4969873769721395566327578136623500286570, 17040034410502124773), (2,)),
    ("jordan", Fraction(431407163637366081734118671986254337351, 7123665634883809538), (2,)),
    ("jordan", Fraction(-1286772454997031806567925415856802284931, 27505533132395015659), (4, 1)),
    ("jordan", Fraction(-7145099485209627921509024131950688159659, 13682589569667969572), (3,)),
]


def test_tall_eigenvalue_certificate_matches_the_pinned_digest():
    space = SymplecticSpace(QQ, 12)
    a = random_self_adjoint(space, random.Random(5), TALL)
    cert = symplectic_normal_form(space, a, seed=5)
    assert cert.case == "jordan"
    text = dumps_canonical(certificate_to_json(cert))
    assert hashlib.sha256(text.encode()).hexdigest() == "0a90e8000c0982b2dd74c1993ff902331500b9b0a3c2ea834e2b7d1c3429a463"
