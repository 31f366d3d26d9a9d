"""The verifier checks each predicate once: C^-1 comes from the Darboux
identity C^-1 = -O C^T O when C is symplectic, and charpoly_square is read off
the conjugation when it holds.  Every verdict is compared with the verifier
that inverted C by elimination and always computed both characteristic
polynomials, kept here as the reference."""

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympnf.linalg as linalg
import sympnf.normalform as nf
import sympnf.symplectic as symplectic
from sympnf.cli import EXIT_OK, EXIT_PREDICATE_FALSE, main
from sympnf.errors import InstanceParseError, InternalDescentFailureError
from sympnf.fields import ExtensionField, PrimeField, QQ
from sympnf.linalg import Mat, charpoly, inverse
from sympnf.normalform import (
    NormalFormCertificate,
    VerificationReport,
    _self_adjoint_factorization,
    _spec_orderly,
    descent_normal_form,
    jordan_block,
    normalize_block_spec,
    random_self_adjoint,
    symplectic_normal_form,
    verify_certificate,
)
from sympnf.poly import Poly
from sympnf.serialize import (
    certificate_from_json,
    certificate_to_json,
    dumps_canonical,
    encode_matrix,
    encode_scalar,
    field_to_json,
)
from sympnf.symplectic import SymplecticSpace, is_symplectic_matrix

from independent_checker import certificate_holds
from test_raw_values import F9, _first_irreducible, elements

F5 = PrimeField(5)
F7 = PrimeField(7)
QUADRATIC = {F5: Poly(F5, _first_irreducible(F5, 2)), F9: Poly(F9, _first_irreducible(F9, 2))}


def reference_verify(cert: NormalFormCertificate) -> VerificationReport:
    """The verifier as it was before it checked each predicate once."""
    space = cert.space
    field = space.field
    a, c, b = cert.matrix, cert.basis, cert.block
    checks = {}
    try:
        checks["symplectic_basis"] = is_symplectic_matrix(space, c)
    except Exception:
        checks["symplectic_basis"] = False
    try:
        target = Mat.block_diag(field, [b, b.transpose()])
        checks["conjugation"] = inverse(c) * a * c == target
    except Exception:
        checks["conjugation"] = False
    if cert.case == "jordan" or cert.jordan_spec is not None:
        try:
            claimed = [s for _, sizes in cert.jordan_spec for s in sizes]
            if any(s < 1 for s in claimed) or sum(claimed) != space.n:
                checks["jordan_form"] = False
            else:
                expected = Mat.block_diag(
                    field,
                    [jordan_block(field, lam, s) for lam, sizes in cert.jordan_spec for s in sizes],
                )
                checks["jordan_form"] = b == expected and _spec_orderly(field, cert.jordan_spec)
        except Exception:
            checks["jordan_form"] = False
    try:
        checks["charpoly_square"] = charpoly(a) == charpoly(b) ** 2
    except Exception:
        checks["charpoly_square"] = False
    return VerificationReport(checks)


def _partition(draw, total):
    sizes = []
    while total:
        sizes.append(draw(st.integers(1, total)))
        total -= sizes[-1]
    return tuple(sizes)


@st.composite
def pipeline_certificates(draw):
    """A certificate of symplectic_normal_form over F_5, F_9 or QQ, of the
    jordan case or (finite fields) the descent case, whose chains over
    F_q[t]/(p) have height 1 (p) or 2 (p squared)."""
    field = draw(st.sampled_from([F5, F9, QQ]))
    height = draw(st.integers(1, 2)) if field is not QQ and draw(st.booleans()) else 0
    descent = height > 0
    n = draw(st.integers(2 * height, 2 * height + 1) if descent else st.integers(1, 3))
    spec = [("companion", QUADRATIC[field], (height,))] if descent else []
    rest = n - 2 * height
    if rest:
        lam = field.from_int(draw(st.integers(0, 2)))
        spec.append(("jordan", lam, _partition(draw, rest)))
    space = SymplecticSpace(field, n)
    a = random_self_adjoint(space, random.Random(draw(st.integers(0, 10**6))), spec)
    cert = symplectic_normal_form(space, a)
    assert cert.case == ("descent" if descent else "jordan")
    return cert


def _text(cert):
    return dumps_canonical(certificate_to_json(cert))


def _changed_entry(m: Mat, i: int, j: int, delta) -> Mat:
    rows = [list(r) for r in m.rows]
    rows[i % m.nrows][j % m.ncols] += delta
    return Mat(m.field, rows)


def _scalar_with_square_not_one(field):
    """2 over F_5 and QQ; over F_9, where 2^2 = 1, the generator (its square is -1)."""
    return field.gen if field is F9 else field.from_int(2)


def _tamperings(data, cert):
    field = cert.space.field
    name = data.draw(st.sampled_from(["matrix", "block", "basis"]))
    i, j = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    delta = field.from_int(data.draw(st.integers(1, 2)))
    yield replace(cert, **{name: _changed_entry(getattr(cert, name), i, j, delta)})
    # invertible and not symplectic, and still conjugating
    yield replace(cert, basis=cert.basis * _scalar_with_square_not_one(field))
    rows = list(cert.basis.rows)
    rows[i % len(rows)] = (field.zero,) * len(rows)
    yield replace(cert, basis=Mat(field, rows))
    if cert.case == "jordan":
        spec = [list(sizes) for _, sizes in cert.jordan_spec]
        spec[i % len(spec)][0] += 1
        yield replace(cert, jordan_spec=tuple((lam, tuple(s)) for (lam, _), s in zip(cert.jordan_spec, spec)))
        # one eigenvalue moved, B kept: B no longer has the claimed Jordan form
        lams = [lam for lam, _ in cert.jordan_spec]
        lams[i % len(lams)] += delta
        moved = replace(cert, jordan_spec=tuple((lam, sizes) for lam, (_, sizes) in zip(lams, cert.jordan_spec)))
        assert not verify_certificate(moved).checks["jordan_form"]
        yield moved
    else:
        # a descent B has an eigenvalue outside the field, so no Jordan form fits it
        yield replace(cert, jordan_spec=((field.one, (cert.space.n,)),))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_verdicts_match_the_reference(data):
    cert = data.draw(pipeline_certificates())
    report = verify_certificate(cert)
    assert report.ok
    assert report.checks == reference_verify(cert).checks == cert.checks
    assert certificate_holds(_text(cert))
    for tampered in _tamperings(data, cert):
        checks = verify_certificate(tampered).checks
        assert checks == reference_verify(tampered).checks
        held = certificate_holds(_text(tampered))
        assert held == (checks["symplectic_basis"] and checks["conjugation"])
        if tampered.matrix != cert.matrix or tampered.block != cert.block:
            assert not held


def test_a_descent_certificate_with_a_false_jordan_spec_is_refused(tmp_path, capsys):
    """A claimed jordan_spec is checked whatever the case tag says, in
    process and through `sympnf verify`."""
    inst, path = str(tmp_path / "inst.json"), tmp_path / "cert.json"
    spec = "irr(2,0,1):[1];1:[1]"
    assert main(["random", "--field", "prime:5", "--spec", spec, "--seed", "3", "-o", inst]) == EXIT_OK
    assert main(["normal-form", inst, "-o", str(path)]) == EXIT_OK
    obj = json.loads(path.read_text())
    assert obj["case"] == "descent" and obj["jordan_spec"] is None
    obj["jordan_spec"] = [{"eigenvalue": "4", "sizes": [7, 7]}]
    cert = certificate_from_json(obj)
    report = verify_certificate(cert)
    assert report.checks == reference_verify(cert).checks
    assert report.checks["conjugation"] and not report.checks["jordan_form"] and not report.ok
    path.write_text(dumps_canonical(obj))
    capsys.readouterr()
    assert main(["verify", str(path)]) == EXIT_PREDICATE_FALSE
    assert "jordan_form: FAIL" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("field", [F5, F9, QQ], ids=["F5", "F9", "QQ"])
def test_the_independent_checker_refuses_a_changed_block_or_basis(field):
    space = SymplecticSpace(field, 3)
    spec = [("jordan", field.from_int(2), (2, 1))]
    if field is not QQ:
        spec = [("companion", QUADRATIC[field], (1,)), ("jordan", field.one, (1,))]
    cert = symplectic_normal_form(space, random_self_adjoint(space, random.Random(29), spec))
    assert certificate_holds(_text(cert))
    rows = list(cert.basis.rows)
    rows[1] = (field.zero,) * len(rows)
    for tampered in (
        replace(cert, block=_changed_entry(cert.block, 0, 1, field.one)),
        replace(cert, basis=_changed_entry(cert.basis, 2, 0, field.one)),
        replace(cert, basis=cert.basis * _scalar_with_square_not_one(field)),
        replace(cert, basis=Mat(field, rows)),
    ):
        assert not verify_certificate(tampered).ok
        assert not certificate_holds(_text(tampered))


def test_conjugation_with_a_non_square_block_is_not_a_charpoly_square():
    # n = 2 and a 1 x 3 block: diag(B, B^T) is 4 x 4 and C = I conjugates A
    # onto it, yet B has no characteristic polynomial
    space = SymplecticSpace(F5, 2)
    b = Mat(F5, [[1, 2, 3]])
    cert = NormalFormCertificate(
        space, Mat.block_diag(F5, [b, b.transpose()]), Mat.identity(F5, 4), b, "descent", None
    )
    report = verify_certificate(cert)
    assert report.checks == reference_verify(cert).checks
    assert report.checks["conjugation"] and not report.checks["charpoly_square"]
    assert not report.ok


def test_a_block_over_another_field_is_not_a_charpoly_square():
    # F_7 residues below 5 are raw F_5 values as well, so the conjugation
    # comparison holds; the characteristic polynomials lie in different fields
    space = SymplecticSpace(F5, 1)
    a = Mat(F5, [[3, 0], [0, 3]])
    cert = NormalFormCertificate(space, a, Mat.identity(F5, 2), Mat(F7, [[3]]), "descent", None)
    report = verify_certificate(cert)
    assert report.checks == reference_verify(cert).checks
    assert report.checks["conjugation"] and not report.checks["charpoly_square"]


@pytest.mark.parametrize("field", [F5, F9, QQ], ids=["F5", "F9", "QQ"])
def test_pipeline_certificate_is_verified_without_elimination_or_charpoly(monkeypatch, field):
    """Verifying takes three products: C^T (O C), then C^-1 A C.  No product
    in certify or verify has a form matrix O_d as an operand."""
    space = SymplecticSpace(field, 3)
    lam = field.from_int(2)
    spec = [("jordan", lam, (2, 1))]
    if field is not QQ:
        spec = [("companion", QUADRATIC[field], (1,)), ("jordan", lam, (1,))]
    a = random_self_adjoint(space, random.Random(17), spec)
    product = Mat.__mul__
    products = []

    def checked(x, y):
        for m in (x, y):
            if isinstance(m, Mat) and m.nrows == m.ncols and m.nrows % 2 == 0 and m.nrows:
                assert m != SymplecticSpace(m.field, m.nrows // 2).omega
        products.append(1)
        return product(x, y)

    monkeypatch.setattr(Mat, "__mul__", checked)
    cert = symplectic_normal_form(space, a)
    assert products
    products.clear()
    calls = {"_reduce": 0, "charpoly": 0}
    for module, name in ((linalg, "_reduce"), (nf, "charpoly")):
        def counted(*args, _name=name, _fn=getattr(module, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    assert verify_certificate(cert).ok
    assert calls == {"_reduce": 0, "charpoly": 0}
    assert len(products) == 3


def _descent_instance():
    space = SymplecticSpace(F5, 3)
    spec = [("companion", QUADRATIC[F5], (1,)), ("jordan", F5.one, (1,))]
    return space, random_self_adjoint(space, random.Random(23), spec)


def test_descent_core_neither_inverts_nor_compares_blocks(monkeypatch):
    """Nor does it check the lagrangian pair again: C and B alone are verified."""
    space, a = _descent_instance()
    fac = _self_adjoint_factorization(space, a, 0)

    def refused(*args):
        raise AssertionError("called")

    monkeypatch.setattr(nf, "inverse", refused)
    monkeypatch.setattr(nf, "adjoint", refused)
    monkeypatch.setattr(Mat, "block_diag", refused)
    monkeypatch.setattr(symplectic, "classify_subspace", refused)
    monkeypatch.setattr(symplectic, "darboux_from_lagrangian_pair", refused)
    c, b = nf._descent_core(space, a, fac)
    monkeypatch.undo()
    assert verify_certificate(NormalFormCertificate(space, a, c, b, "descent", None)).ok


def test_a_wrong_descent_block_is_refused(monkeypatch):
    space, a = _descent_instance()
    core = nf._descent_core

    def wrong_block(*args):
        c, b = core(*args)
        return c, b + Mat.identity(F5, space.n)

    monkeypatch.setattr(nf, "_descent_core", wrong_block)
    with pytest.raises(InternalDescentFailureError, match="did not block-diagonalize"):
        descent_normal_form(space, a)
    with pytest.raises(InternalDescentFailureError):
        symplectic_normal_form(space, a)


F3, F101 = PrimeField(3), PrimeField(101)
F81 = ExtensionField(F9, _first_irreducible(F9, 2))  # a tower: F_9[x]/(q)
WIDE_FIELDS = [QQ, F3, F5, F101, F9, F81]


@st.composite
def wide_pipeline_instances(draw):
    """(space, A, normalized spec) over QQ, F_3, F_5, F_101, F_9 or the tower
    F_81, n from 1 to 6: one to three distinct eigenvalues, and over finite
    fields optionally the companion block of an irreducible quadratic."""
    field = draw(st.sampled_from(WIDE_FIELDS))
    n = draw(st.integers(1, 6))
    spec = []
    rest = n
    if field is not QQ and n >= 2 and draw(st.booleans()):
        spec.append(("companion", Poly(field, _first_irreducible(field, 2)), (1,)))
        rest -= 2
    if rest:
        k = draw(st.integers(1, min(3, rest)))
        lams = draw(st.lists(elements(field), min_size=k, max_size=k, unique=True))
        cuts = sorted(draw(st.sets(st.integers(1, rest - 1), min_size=k - 1, max_size=k - 1))) if k > 1 else []
        for lam, lo, hi in zip(lams, [0] + cuts, cuts + [rest]):
            spec.append(("jordan", lam, _partition(draw, hi - lo)))
    space = SymplecticSpace(field, n)
    a = random_self_adjoint(space, random.Random(draw(st.integers(0, 10**6))), spec)
    return space, a, normalize_block_spec(field, spec)


def _tower_text(cert):
    """Canonical JSON of a certificate over a tower, its field written as a
    nested descriptor that only the independent checker reads."""
    field = cert.space.field
    desc = {
        "kind": "extension",
        "base": field_to_json(field.base),
        "modulus": [encode_scalar(field.base, c) for c in field.modulus],
    }
    mats = {"A": cert.matrix, "B": cert.block, "C": cert.basis}
    return dumps_canonical({"field": desc, "n": cert.space.n, **{k: encode_matrix(m) for k, m in mats.items()}})


@settings(max_examples=100, deadline=None)
@given(instance=wide_pipeline_instances())
def test_pipeline_certificates_over_wider_fields(instance):
    space, a, spec = instance
    field = space.field
    cert = symplectic_normal_form(space, a)
    assert verify_certificate(cert).ok
    if spec[-1][0] == "companion":
        assert cert.case == "descent" and cert.jordan_spec is None
    else:
        assert cert.case == "jordan"
        assert cert.jordan_spec == tuple((lam, sizes) for _, lam, sizes in spec)
    if isinstance(field, ExtensionField) and isinstance(field.base, ExtensionField):
        with pytest.raises(InstanceParseError, match="only extensions of a prime field"):
            certificate_to_json(cert)
        assert certificate_holds(_tower_text(cert))
        return
    text = _text(cert)
    assert certificate_holds(text)
    assert _text(certificate_from_json(json.loads(text))) == text


def test_the_checker_refuses_a_tower_certificate_with_a_changed_block():
    space = SymplecticSpace(F81, 2)
    a = random_self_adjoint(space, random.Random(5), [("jordan", F81.gen, (2,))])
    cert = symplectic_normal_form(space, a)
    assert certificate_holds(_tower_text(cert))
    for i, j in ((0, 0), (0, 1), (1, 0)):
        assert not certificate_holds(_tower_text(replace(cert, block=_changed_entry(cert.block, i, j, F81.one))))
