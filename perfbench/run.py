"""sympnf benchmark: how fast a verified certificate is produced, and how fast
a third party re-checks it.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.  One
process, one thread, a closed loop with one caller: each library call waits
for its certificate before the next starts.  Per instance:

* certify: ``symplectic_normal_form``, ``certificate_to_json``,
  ``dumps_canonical`` -- the matrix becomes canonical certificate text;
* verify: ``json.loads``, ``certificate_from_json``, ``verify_certificate``
  on that text;
* check (untimed): the report is ok, the certificate is for the input matrix,
  its case and ``jordan_spec`` are the ones the instance was built with, and
  its text is the same in every round.

``--trace 0`` sizes one pass over the instances to a MIN_ROUNDS-th of
``--seconds``, then sets up and runs that pass as often as fits in
``--seconds`` and at least MIN_ROUNDS times.  It keeps each instance's
fastest certify and verify time, so a slow spell of a shared host that covers
a few passes does not move the figures (one that covers the whole run still
does).  Times are the thread's CPU time.  It prints every end-to-end figure;
the result object holds the ones BENCHMARK.json lists, which are rates over
all instances, because a median over one pass's few instances moves with the
seed.  ``--trace 1`` runs the instances once, certify untraced and certify
plus verify under ``tracer.Tracer``'s spans in alternating order per
instance, then certify under its scalar operation counters; it prints the
per-layer metrics.  ``--workload all`` runs every workload in its own process
and prints one table.  The last line of standard output is always one JSON
object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("corpus", "sweep", "qq_height")
MIN_ROUNDS = 4
TAIL_SAMPLES = 100  # p90 has ten samples beyond it from here on


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_reference():
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


# CPU time of this thread.  The loop does no I/O and starts no thread, and set-up
# only reads the package's files, so this is their wall time less any time the
# process waits for a core or a disk.
clock = time.thread_time


# --- set-up -------------------------------------------------------------------


def setup(workload, seed, seconds):
    """Import sympnf afresh, build the fields and generate the instances."""
    for name in [m for m in sys.modules if m == "sympnf" or m.startswith("sympnf.") or m == "workloads"]:
        del sys.modules[name]
    start = clock()
    importlib.import_module("sympnf.serialize")  # the package does not import it
    workloads = importlib.import_module("workloads")
    instances = workloads.build(workload, seed, seconds)
    return clock() - start, instances


# --- the closed loop ------------------------------------------------------------

class Loop:
    """Per-instance results of one or more passes over the same instances: the
    fastest certify and verify time, the certificate text, and the failures."""

    def __init__(self):
        self.nf_s = {}  # instance index -> fastest certify seconds
        self.verify_s = {}  # instance index -> fastest verify seconds
        self.texts = {}  # instance index -> canonical certificate text
        self.spans = {}  # instance index -> (first, end) span index of its certify step
        self.failures = []
        self.attempted = 0
        self.qq_max_bits = 0

    def certificates(self):
        return "".join(self.texts[i] for i in sorted(self.texts)).encode("utf-8")

    def rate(self):
        return len(self.nf_s) / sum(self.nf_s.values())


def wrong(inst, cert, report):
    """Why a re-parsed certificate is not the right answer, or None."""
    if not report.ok:
        return f"re-verification failed: {report.checks}"
    if cert.matrix != inst.matrix:
        return "certificate is for another matrix"
    if inst.has_descent:
        return None if cert.case == "descent" else f"case {cert.case!r}, expected 'descent'"
    if cert.case != "jordan":
        return f"case {cert.case!r}, expected 'jordan'"
    if cert.jordan_spec != inst.expected_spec:
        return f"jordan_spec {cert.jordan_spec!r}, expected {inst.expected_spec!r}"
    return None


def qq_bits(cert):
    if cert.space.field.kind != "rational":
        return 0
    return max(
        max(x.numerator.bit_length(), x.denominator.bit_length())
        for m in (cert.basis, cert.block)
        for row in m.rows
        for x in row
    )


def attempt(loop, i, inst, tracer=None, verify=True):
    """Certify instance ``i`` (and verify and check the certificate); record
    its times in ``loop``, or why it failed."""
    # looked up at call time, so a tracer's rebinding takes effect
    normalform = sys.modules["sympnf.normalform"]
    serialize = sys.modules["sympnf.serialize"]
    span = tracer.span if tracer else (lambda _name: nullcontext())
    loop.attempted += 1
    try:
        first = len(tracer.spans) if tracer else 0
        with span("bench.certify"):
            t0 = clock()
            cert = normalform.symplectic_normal_form(inst.space, inst.matrix, seed=inst.seed)
            text = serialize.dumps_canonical(serialize.certificate_to_json(cert))
            t1 = clock()
        end = len(tracer.spans) if tracer else 0
        if verify:
            with span("bench.verify"):
                t2 = clock()
                parsed = serialize.certificate_from_json(json.loads(text))
                report = normalform.verify_certificate(parsed)
                t3 = clock()
    except Exception:  # one failed operation must not end the run
        loop.failures.append((inst.label, traceback.format_exc()))
        return
    why = wrong(inst, parsed, report) if verify else None
    if why is None and loop.texts.setdefault(i, text) != text:
        why = "certificate text differs from an earlier round"
    if why:
        loop.failures.append((inst.label, why))
        return
    loop.nf_s[i] = min(loop.nf_s.get(i, math.inf), t1 - t0)
    if verify:
        loop.verify_s[i] = min(loop.verify_s.get(i, math.inf), t3 - t2)
        loop.spans[i] = (first, end)
        loop.qq_max_bits = max(loop.qq_max_bits, qq_bits(parsed))


def closed_loop(instances, loop, verify=True):
    for i, inst in enumerate(instances):
        attempt(loop, i, inst, verify=verify)


def traced_run(instances):
    """Certify each instance untraced and, under spans, certify and verify it,
    alternating which comes first so both see the same host phases; then count
    scalar operations in a certify-only pass of their own.  Returns the tracer
    and the untraced, spanned and counted loops."""
    from tracer import Tracer

    tracer = Tracer()
    untraced, spanned, counted = Loop(), Loop(), Loop()
    for i, inst in enumerate(instances):
        for with_spans in (i % 2 == 0, i % 2 == 1):
            if not with_spans:
                attempt(untraced, i, inst, verify=False)
                continue
            tracer.install_spans()
            try:
                attempt(spanned, i, inst, tracer)
            finally:
                tracer.uninstall()
    tracer.install_counters()
    try:
        closed_loop(instances, counted, verify=False)
    finally:
        tracer.uninstall()
    return tracer, untraced, spanned, counted


# --- metrics ------------------------------------------------------------------


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


# unit of every end-to-end figure, in print order
UNITS = {
    "setup_s": "s",
    "nf_per_s": "1/s",
    "nf_ms_p50": "ms",
    "nf_ms_p90": "ms",
    "verify_per_s": "1/s",
    "verify_ms_p50": "ms",
    "verify_ms_p90": "ms",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}


def end_to_end(loop, setup_times, failed_frac):
    """Every end-to-end figure; the p90 tails only from TAIL_SAMPLES
    certificates on."""
    nf, verify = list(loop.nf_s.values()), list(loop.verify_s.values())
    out = {
        "setup_s": statistics.median(setup_times),
        "nf_per_s": loop.rate(),
        "nf_ms_p50": 1000 * statistics.median(nf),
        "verify_per_s": len(verify) / sum(verify),
        "verify_ms_p50": 1000 * statistics.median(verify),
        "failed_frac": failed_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if len(nf) >= TAIL_SAMPLES:
        out["nf_ms_p90"] = 1000 * p90(nf)
        out["verify_ms_p90"] = 1000 * p90(verify)
    else:
        print(f"nf_ms_p90, verify_ms_p90 omitted: {len(nf)} certificates, p90 needs {TAIL_SAMPLES}")
    return {name: {"value": out[name], "unit": unit} for name, unit in UNITS.items() if name in out}


def factor_shares(tracer, loop):
    """poly.factor self time over symplectic_normal_form inclusive time, over
    all certificates and over the slowest tenth of them."""
    self_s = tracer.self_times()
    rows = []
    for first, end in loop.spans.values():
        factor = snf = 0.0
        for i in range(first, end):
            name, start, stop, _parent = tracer.spans[i]
            if name == "poly.factor":
                factor += self_s[i]
            elif name == "normalform.symplectic_normal_form":
                snf += stop - start
        rows.append((snf, factor))
    rows.sort(reverse=True)
    slow = rows[: max(1, len(rows) // 10)]
    return (sum(f for _, f in rows) / sum(s for s, _ in rows),
            sum(f for _, f in slow) / sum(s for s, _ in slow))


def per_layer(tracer, untraced, spanned):
    """Every metric the tracer can give, by name: ``<span>.calls``,
    ``<span>.self_s`` and ``<span>.s`` (inclusive) for every function it
    wrapped, and ``<counter>.calls`` for every counter it installed.  A
    wrapped function that never ran reads 0."""
    table = tracer.table()
    share, slow_share = factor_shares(tracer, spanned)
    factor_calls = table.get("poly.factor", [0])[0]
    metrics = {
        "fields.qq_max_bits": spanned.qq_max_bits,
        "serialize.cert_bytes": len(spanned.certificates()),
        "poly.factor.useful_ratio": len(spanned.nf_s) / factor_calls if factor_calls else 0.0,
        "poly.factor.share": share,
        "poly.factor.slowest_decile_share": slow_share,
        "trace.overhead": untraced.rate() / spanned.rate(),
    }
    for name in tracer.span_names:
        calls, incl, self_s = table.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.s"] = incl
        metrics[f"{name}.self_s"] = self_s
    for key in tracer.counter_names:
        metrics[f"{key}.calls"] = tracer.counts[key]
    return metrics, table


def select(metrics, listed):
    """The metrics BENCHMARK.json lists, in its order and units.  A name the
    tracer did not install is an error, so a renamed or removed function can
    not read as 0."""
    unknown = [m["name"] for m in listed if m["name"] not in metrics]
    if unknown:
        raise KeyError(f"benchmark lists unknown metrics {unknown}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}


# --- one workload ---------------------------------------------------------------


def run(workload, seed, seconds, trace):
    spec = load_spec()
    pass_s = seconds / MIN_ROUNDS
    setup_times = []
    if trace:
        elapsed, instances = setup(workload, seed, pass_s)
        setup_times.append(elapsed)
        tracer, untraced, spanned, counted = traced_run(instances)
        loops = (untraced, spanned, counted)
        loop = spanned
    else:
        import workloads

        rounds = max(MIN_ROUNDS, int(seconds // workloads.plan(workload, pass_s)[1]))
        loop = Loop()
        for _ in range(rounds):
            elapsed, instances = setup(workload, seed, pass_s)
            setup_times.append(elapsed)
            closed_loop(instances, loop)
        loops = (loop,)
    print(f"workload {workload}, seed {seed}, {len(instances)} instances; "
          f"setup {', '.join(f'{t:.3f}' for t in setup_times)} s")

    attempted = sum(lp.attempted for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    for label, why in failures:
        print(f"FAILED {label}: {why}", file=sys.stderr)
    failed = len(failures)
    print(f"attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.4f}")
    report_digest(workload, seed, len(instances), loop)
    if not loop.nf_s or (trace and not untraced.nf_s):
        print("no certificate was produced", file=sys.stderr)
        return 1

    if trace:
        metrics, table = per_layer(tracer, untraced, spanned)
        print_table(table, tracer.counts)
        print(f"certificates {len(spanned.nf_s)}; nf_per_s untraced {untraced.rate():.4f}, "
              f"traced {spanned.rate():.4f}")
        listed = spec["per_layer"]
    else:
        figures = end_to_end(loop, setup_times, failed / attempted)
        print("end-to-end " + json.dumps(figures))
        metrics = {name: m["value"] for name, m in figures.items()}
        listed = spec["end_to_end"]
    chosen = select(metrics, listed)
    for name, m in (chosen if trace else figures).items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": chosen}))
    return 0


def report_digest(workload, seed, instances, loop):
    digest = hashlib.sha256(loop.certificates()).hexdigest()
    golden = load_reference()["golden_sha256"].get(workload, {}).get(str(seed))
    if golden is None or golden["instances"] != instances:
        verdict = "no recorded digest for this seed and size"
    else:
        verdict = "matches the seed commit" if golden["sha256"] == digest else "DIFFERS from the seed commit"
    print(f"certificates sha256 {digest} ({verdict})")


def print_table(table, counts):
    print(f"{'span':48s} {'calls':>10s} {'incl_s':>10s} {'self_s':>10s}")
    for name, (calls, incl, self_s) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:48s} {calls:10d} {incl:10.4f} {self_s:10.4f}")
    for key, calls in sorted(counts.items()):
        print(f"{key + ' (counted)':48s} {calls:10d}")


# --- all workloads --------------------------------------------------------------


def run_all(seed, seconds, trace):
    """Each workload in its own process, so peak RSS is its own."""
    results, figures = {}, {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
        figures[workload] = next(
            (json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("end-to-end ")),
            results[workload]["metrics"],
        )
    print(f"{'metric':44s} " + " ".join(f"{w:>14s}" for w in WORKLOADS) + "  unit")
    for name in figures[WORKLOADS[0]]:
        unit = figures[WORKLOADS[0]][name]["unit"]
        cells = " ".join(f"{figures[w][name]['value']:>14.6g}" if name in figures[w] else f"{'-':>14s}"
                         for w in WORKLOADS)
        print(f"{name:44s} {cells}  {unit}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "sympnf" / "__init__.py").is_file():
        print(f"sympnf sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
