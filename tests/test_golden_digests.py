"""The seed-0 certificates of the benchmark's sweep and qq_height workloads are
byte-identical to the golden digests in ``perfbench/reference.json``.

The corpus workload's seed 0 is the acceptance corpus, which
``test_acceptance.test_corpus_certificates_are_byte_identical`` pins.  The
pass sets are the ones ``perfbench/run.py --seconds 30`` certifies, hashed as
its ``Loop.certificates`` hashes them.
"""

import hashlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from sympnf.normalform import symplectic_normal_form  # noqa: E402
from sympnf.serialize import certificate_to_json, dumps_canonical  # noqa: E402

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
