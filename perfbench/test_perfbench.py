"""Checks on the benchmark itself: its corpus is the acceptance corpus, and the
traced run's counts repeat exactly across processes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (ROOT / "src", ROOT / "tests", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workloads  # noqa: E402


def test_corpus_seed_0_is_the_acceptance_corpus():
    import test_acceptance

    slots = workloads.corpus_slots()
    assert len(slots) == len(test_acceptance.CORPUS)
    for fi, label, field, i in slots:
        ours = workloads.corpus_instance(0, fi, label, field, i)
        ref = test_acceptance.CORPUS[fi * workloads.CORPUS_SIZE + i]
        assert ours.space.field == ref.space.field and ours.space.n == ref.space.n
        assert ours.matrix == ref.matrix, ours.label
        assert ours.seed == ref.seed
        assert ours.has_descent == ref.has_descent
        assert ours.expected_spec == ref.expected_spec


def test_other_seeds_keep_the_structure_and_change_the_matrix():
    a = workloads.build("qq_height", 1, 1)
    b = workloads.build("qq_height", 2, 1)
    assert [x.expected_spec for x in a] == [x.expected_spec for x in b]
    assert all(x.matrix != y.matrix for x, y in zip(a, b))
    assert [x.matrix for x in a] == [x.matrix for x in workloads.build("qq_height", 1, 1)]


def _start_traced_run(hash_seed):
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "corpus", "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _counts(proc):
    out, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, err
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if name.endswith(".calls") or name in ("fields.qq_max_bits", "serialize.cert_bytes")
    }


def test_traced_counts_repeat_across_processes():
    procs = [_start_traced_run(1), _start_traced_run(2)]
    try:
        first, second = (_counts(p) for p in procs)
    finally:
        for p in procs:
            p.kill()
            p.wait()
    assert first == second
    for name in ("linalg.rref.calls", "fields.fp_ops.calls", "fields.ext_eq.calls", "poly.factor.calls",
                 "fields.qq_max_bits", "serialize.cert_bytes"):
        assert first[name] > 0, name


def test_select_refuses_a_name_the_tracer_did_not_install():
    import run

    metrics = {"linalg.rref.calls": 0, "trace.overhead": 1.0}
    listed = [{"name": "linalg.rref.calls", "unit": "count"}]
    assert run.select(metrics, listed) == {"linalg.rref.calls": {"value": 0, "unit": "count"}}
    with pytest.raises(KeyError):
        run.select(metrics, [{"name": "linalg.rreff.calls", "unit": "count"}])
