import copy
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympnf
from sympnf.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PREDICATE_FALSE,
    EXIT_UNSUPPORTED,
    RANDOM_MAX_N,
    main,
    parse_block_spec,
    parse_field_flag,
)
from sympnf.errors import DimensionMismatchError, ExactAlgebraError, FieldTooLargeError, InstanceParseError
from sympnf.fields import ExtensionField, PrimeField, QQ, make_field
from sympnf.linalg import Mat
from sympnf.normalform import companion_matrix, random_self_adjoint, symplectic_normal_form
from sympnf.poly import Poly
from sympnf.serialize import (
    certificate_from_json,
    certificate_to_json,
    decode_matrix,
    decode_scalar,
    dumps_canonical,
    encode_matrix,
    encode_scalar,
    field_from_json,
    field_to_json,
    instance_from_json,
    instance_to_json,
)
from sympnf.symplectic import SymplecticSpace

from oracles import decode_element_matrix
from test_raw_values import F81, F9_4, F101_2, elements

F3 = PrimeField(3)
F5 = PrimeField(5)
F9 = make_field("extension", p=3, modulus=[1, 0, 1])


class TestSerialization:
    @pytest.mark.parametrize(
        "field,value",
        [
            (QQ, Fraction(-7, 3)),
            (F5, None),
            (F9, None),
        ],
        ids=["QQ", "F5", "F9"],
    )
    def test_scalar_roundtrip(self, field, value):
        if value is None:
            value = field.random_element(random.Random(3))
        enc = encode_scalar(field, value)
        assert decode_scalar(field, enc) == value

    def test_rational_encoding_is_exact_string(self):
        assert encode_scalar(QQ, Fraction(1, 3)) == "1/3"
        assert decode_scalar(QQ, "1/3") == Fraction(1, 3)

    def test_matrix_roundtrip(self):
        rng = random.Random(7)
        m = Mat(F9, [[F9.random_element(rng) for _ in range(3)] for _ in range(2)])
        assert decode_matrix(F9, encode_matrix(m)) == m

    def test_field_descriptor_roundtrip(self):
        for f in (QQ, F5, F9):
            assert field_from_json(field_to_json(f)) == f

    def test_a_tower_has_no_file_format(self):
        # F_9[x]/(x^2 + x + g): certified by the library, refused by the serializer
        f81 = ExtensionField(F9, [F9.gen, F9.one, F9.one])
        sp = SymplecticSpace(f81, 1)
        cert = symplectic_normal_form(sp, random_self_adjoint(sp, random.Random(3), [("jordan", f81.gen, (1,))]))
        assert cert.checks and all(cert.checks.values())
        for encode in (lambda: field_to_json(f81), lambda: certificate_to_json(cert)):
            with pytest.raises(InstanceParseError, match="only extensions of a prime field"):
                encode()

    def test_instance_roundtrip(self):
        rng = random.Random(11)
        sp = SymplecticSpace(F5, 2)
        a = random_self_adjoint(sp, rng, [("jordan", F5.one, (2,))])
        sp2, a2 = instance_from_json(instance_to_json(sp, a))
        assert sp2.n == sp.n and sp2.field == sp.field and a2 == a

    def test_certificate_roundtrip(self):
        rng = random.Random(13)
        sp = SymplecticSpace(F5, 2)
        a = random_self_adjoint(sp, rng, [("jordan", F5.one, (2,))])
        cert = symplectic_normal_form(sp, a)
        cert2 = certificate_from_json(certificate_to_json(cert))
        assert cert2.basis == cert.basis
        assert cert2.block == cert.block
        assert cert2.case == cert.case
        assert cert2.jordan_spec == cert.jordan_spec

    def test_certificates_over_one_modulus_share_one_field(self):
        sp = SymplecticSpace(F9, 1)
        docs = [
            certificate_to_json(symplectic_normal_form(sp, random_self_adjoint(sp, random.Random(s), [("jordan", lam, (1,))])))
            for s, lam in ((1, F9.one), (2, F9.gen))
        ]
        first, second = (certificate_from_json(d).space.field for d in docs)
        assert first is second

    def test_canonical_json_is_stable(self):
        obj = {"b": 1, "a": [2, 3]}
        assert dumps_canonical(obj) == dumps_canonical({"a": [2, 3], "b": 1})
        assert dumps_canonical(obj).endswith("\n")

    @pytest.mark.parametrize(
        "field,value",
        [
            (F5, 1.9), (F5, 2.0), (F5, True), (F5, " 1"), (F5, "+1"), (F5, "1_0"), (F5, "\u0661"),
            (F9, [1.9, 0]), (F9, "10"),
        ],
        ids=[
            "float", "integral-float", "bool", "space", "plus", "underscore", "non-ascii-digit",
            "float-coefficient", "string-vector",
        ],
    )
    def test_finite_field_scalars_take_only_the_encoded_forms(self, field, value):
        with pytest.raises(InstanceParseError):
            decode_scalar(field, value)

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "prime", "p": 5.5},
            {"kind": "extension", "p": "3", "modulus": [True, 0, True]},
            {"kind": "extension", "p": 3.7, "modulus": ["1", "0", "1"]},
            {"kind": "extension", "p": "3", "modulus": ["1", "0", 1.5]},
            {"kind": "extension", "p": "3", "modulus": "101"},
        ],
        ids=["float-p", "bool-modulus", "float-extension-p", "float-modulus", "string-modulus"],
    )
    def test_field_descriptors_take_only_integers(self, obj):
        with pytest.raises(InstanceParseError):
            field_from_json(obj)

    def test_malformed_instances_rejected(self):
        with pytest.raises(InstanceParseError):
            instance_from_json({"field": {"kind": "prime", "p": "5"}, "n": 1, "matrix": [[
                "1", "2"]]})
        with pytest.raises(InstanceParseError):
            instance_from_json({"field": {"kind": "nope"}, "n": 1, "matrix": []})
        with pytest.raises(InstanceParseError):
            decode_scalar(F5, "not-an-int")


class TestFlagParsing:
    def test_field_flags(self):
        assert parse_field_flag("rational") is QQ
        assert parse_field_flag("prime:5") == F5
        assert parse_field_flag("ext:3:1,0,1") == F9

    def test_bad_field_flags(self):
        for flag in ("prime:4", "ext:3:1,1", "floats", "prime:x"):
            with pytest.raises(InstanceParseError):
                parse_field_flag(flag)

    def test_block_spec_jordan(self):
        spec = parse_block_spec(F5, "1:[2,1];2:[1]")
        assert spec == [
            ("jordan", F5.one, (2, 1)),
            ("jordan", F5.from_int(2), (1,)),
        ]

    def test_block_spec_companion(self):
        spec = parse_block_spec(F3, "irr(1,0,1):[1]")
        assert spec == [("companion", Poly(F3, [1, 0, 1]), (1,))]

    def test_block_spec_extension_eigenvalue(self):
        spec = parse_block_spec(F9, "(0,1):[1]")
        assert spec == [("jordan", F9.gen, (1,))]

    def test_bad_specs(self):
        cases = [(F5, text) for text in ("", "1:[0]", "1:[]", "x,y", "(0,1):[1]", "x:[1]", "1.5:[1]")]
        cases += [(QQ, text) for text in ("abc:[1]", "1/0:[1]", "1.5:[1]", "1e3:[1]", "1e10000000:[1]")]
        cases += [(F9, text) for text in ("(a,1):[1]", "(1):[1]", "(0,1,0):[1]", "x:[1]")]
        for field, text in cases:
            with pytest.raises(InstanceParseError):
                parse_block_spec(field, text)

    @pytest.mark.parametrize(
        "field_flag,spec",
        [("rational", "abc:[1]"), ("rational", "1/0:[1]"), ("prime:5", "x:[1]"), ("ext:3:1,0,1", "(a,1):[1]")],
    )
    def test_bad_spec_eigenvalue_is_a_parse_error(self, field_flag, spec):
        assert main(["random", "--field", field_flag, "--spec", spec]) == EXIT_PARSE

    @pytest.mark.parametrize("spec", ["irr(1):[1]", "irr(1):[1];1:[1]", "irr(0):[1];1:[2]", "irr(2,0,2):[1]"])
    def test_companion_polynomials_are_monic_of_positive_degree(self, spec, capsys):
        assert main(["random", "--field", "prime:5", "--spec", spec]) == EXIT_PARSE
        assert "monic of degree >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field_flag,spec",
        [
            ("prime:1_01", "1:[1]"),
            ("prime:5", "1:[+1]"),
            ("prime:5", "1:[1_0]"),
            ("ext:3:1,0,1", "irr(\u0661,0,1):[\u0661]"),
            ("ext:3:1,0,+1", "(0,1):[1]"),
            ("prime:5", "irr(+1,1):[1]"),
        ],
    )
    def test_flag_integers_take_only_the_file_grammar(self, field_flag, spec, capsys):
        assert main(["random", "--field", field_flag, "--spec", spec]) == EXIT_PARSE
        assert "bad integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spaced,plain",
        [("(0, 1):[1]", "(0,1):[1]"), ("irr( 2, 0, 1):[1]", "irr(2,0,1):[1]"), (" (1 ,0) : [ 2 , 1 ] ", "(1,0):[2,1]")],
    )
    def test_spaces_around_items_are_stripped_alike(self, spaced, plain, tmp_path):
        assert parse_block_spec(F9, spaced) == parse_block_spec(F9, plain)
        for name, spec in (("spaced", spaced), ("plain", plain)):
            out = str(tmp_path / name)
            assert main(["random", "--field", " ext : 3 : 1, 0, 1 ", "--spec", spec, "-o", out]) == EXIT_OK
        assert (tmp_path / "spaced").read_bytes() == (tmp_path / "plain").read_bytes()

    def test_rationals_take_only_the_encoded_forms(self):
        assert decode_scalar(QQ, "-12/8") == Fraction(-3, 2)
        assert decode_scalar(QQ, "7") == Fraction(7)
        for text in ("1.5", "1e3", "1e10000000", " 1", "1/-2", "+1", "1_000", "inf", "nan", ""):
            with pytest.raises(InstanceParseError):
                decode_scalar(QQ, text)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def _instance_file(tmp_path, name, sp, a):
    return _write(tmp_path, name, dumps_canonical(instance_to_json(sp, a)))


def _run_cli(*args, timeout=20):
    """The CLI of this checkout in a fresh interpreter, cut off after timeout seconds."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sympnf.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "sympnf.cli", *args], env=env, capture_output=True, timeout=timeout)


class TestCliExitCodes:
    def test_check_true(self, tmp_path, capsys):
        sp = SymplecticSpace(F5, 1)
        path = _instance_file(tmp_path, "a.json", sp, Mat.identity(F5, 2) * F5.from_int(3))
        assert main(["check", path]) == EXIT_OK
        assert "true" in capsys.readouterr().out

    def test_check_false(self, tmp_path, capsys):
        sp = SymplecticSpace(F5, 1)
        path = _instance_file(tmp_path, "a.json", sp, Mat(F5, [[1, 2], [3, 4]]))
        assert main(["check", path]) == EXIT_PREDICATE_FALSE
        assert "false" in capsys.readouterr().out

    def test_parse_error_on_truncated_file(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.json", '{"field": {"kind": "prime"')
        assert main(["check", path]) == EXIT_PARSE

    def test_parse_error_on_missing_file(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json")]) == EXIT_PARSE

    def test_parse_error_on_unknown_flags(self):
        assert main(["frobnicate"]) == EXIT_PARSE

    def test_unsupported_rational_descent(self, tmp_path, capsys):
        sp = SymplecticSpace(QQ, 2)
        b = companion_matrix(Poly(QQ, [1, 0, 1]))
        a = Mat.block_diag(QQ, [b, b.transpose()])
        path = _instance_file(tmp_path, "a.json", sp, a)
        assert main(["normal-form", path]) == EXIT_UNSUPPORTED

    def test_normal_form_of_non_self_adjoint(self, tmp_path, capsys):
        sp = SymplecticSpace(F5, 1)
        path = _instance_file(tmp_path, "a.json", sp, Mat(F5, [[1, 2], [3, 4]]))
        assert main(["normal-form", path]) == EXIT_PREDICATE_FALSE
        assert "operator is not self-adjoint" in capsys.readouterr().err

    def test_parse_error_on_matrix_row_that_is_not_a_list(self, tmp_path):
        text = '{"field": {"kind": "prime", "p": "5"}, "n": 1, "matrix": [1, 2]}'
        assert main(["check", _write(tmp_path, "a.json", text)]) == EXIT_PARSE

    @pytest.mark.parametrize("command", ["check", "normal-form"])
    @pytest.mark.parametrize(
        "n,matrix",
        [(1, [[1.9, 0], [0, True]]), (1.5, [["1", "0"], ["0", "1"]])],
        ids=["float-and-bool-entries", "float-n"],
    )
    def test_parse_error_on_an_instance_number_that_is_not_an_integer(self, tmp_path, command, n, matrix):
        text = json.dumps({"field": {"kind": "prime", "p": "5"}, "n": n, "matrix": matrix})
        assert main([command, _write(tmp_path, "a.json", text)]) == EXIT_PARSE

    @pytest.mark.parametrize("command", ["check", "normal-form", "verify"])
    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{", b"[" * 100_000 + b"]" * 100_000, b'{"n": ' + b"9" * 5000 + b"}"],
        ids=["not-utf-8", "nested-100000-deep", "5000-digit-integer"],
    )
    def test_parse_error_on_a_file_json_cannot_decode(self, tmp_path, command, content):
        path = tmp_path / "a.json"
        path.write_bytes(content)
        assert main([command, str(path)]) == EXIT_PARSE

    def test_parse_error_on_characteristic_beyond_exact_primality(self):
        # a strong pseudoprime to every Miller-Rabin base the library uses
        flag = "prime:3317044064679887385961981"
        assert main(["random", "--field", flag, "--spec", "1:[1]"]) == EXIT_PARSE

    @pytest.mark.parametrize("out", ["missing-dir/c.json", "."], ids=["under-a-missing-dir", "a-directory"])
    def test_an_output_that_cannot_be_written_exits_3(self, tmp_path, capsys, out):
        out = str(tmp_path / out)
        inst = str(tmp_path / "inst.json")
        assert main(["random", "--field", "prime:5", "--spec", "1:[1]", "-o", inst]) == EXIT_OK
        capsys.readouterr()
        for args in (["normal-form", inst], ["random", "--field", "prime:5", "--spec", "1:[1]"]):
            assert main(args + ["-o", out]) == EXIT_PARSE
            err = capsys.readouterr().err
            assert err.startswith("error: cannot write ") and err.count("\n") == 1, err
            assert "Traceback" not in err


class TestFieldOrderBound:
    """An extension descriptor of order 2^64 or more is refused before the
    irreducibility test runs on its modulus."""

    def test_make_field_refuses_an_order_from_2_64(self):
        assert issubclass(FieldTooLargeError, ExactAlgebraError) and issubclass(FieldTooLargeError, ValueError)
        # 3^41 > 2^64 > 3^40; x^40 + x + 2 is irreducible over F_3
        with pytest.raises(FieldTooLargeError):
            make_field("extension", p=3, modulus=[2, 1] + [0] * 39 + [1])
        assert make_field("extension", p=3, modulus=[2, 1] + [0] * 38 + [1]).order == 3**40
        with pytest.raises(InstanceParseError):
            parse_field_flag("ext:3:" + ",".join(["2", "1"] + ["0"] * 39 + ["1"]))

    @staticmethod
    def _degree_240_files(tmp_path):
        """The zero instance over F_3[x]/(x^240 + x + 2) and a certificate
        for it, as (command, path) pairs."""
        field = {"kind": "extension", "p": "3", "modulus": ["2", "1"] + ["0"] * 238 + ["1"]}
        zero = ["0"] * 240
        a = [[zero, zero], [zero, zero]]
        inst = _write(tmp_path, "inst.json", json.dumps({"field": field, "n": 1, "matrix": a}))
        cert = {"field": field, "n": 1, "A": a, "B": [[zero]], "C": a, "case": "jordan",
                "jordan_spec": [{"eigenvalue": zero, "sizes": [1]}]}
        cert_path = _write(tmp_path, "cert.json", json.dumps(cert))
        return (("check", inst), ("normal-form", inst), ("verify", cert_path))

    def test_a_degree_240_descriptor_exits_3_at_once(self, tmp_path):
        """x^240 + x + 2 over F_3: an irreducibility test on it alone runs for minutes."""
        for command, path in self._degree_240_files(tmp_path):
            start = time.perf_counter()
            done = _run_cli(command, path)
            assert done.returncode == EXIT_PARSE, (command, done.stderr)
            assert time.perf_counter() - start < 1.0, command

    def test_the_refusal_names_its_cause_in_a_short_line(self, tmp_path, capsys):
        """The error names the order bound and echoes only the start of the
        descriptor, not its 240 coefficients."""
        for command, path in self._degree_240_files(tmp_path):
            assert main([command, path]) == EXIT_PARSE
            err = capsys.readouterr().err
            assert len(err.encode()) < 300 and "2^64" in err, (command, err)


class TestCliPipeline:
    def _roundtrip(self, tmp_path, capsys, field_flag, spec, seed=1):
        inst = str(tmp_path / "inst.json")
        cert = str(tmp_path / "cert.json")
        assert main(["random", "--field", field_flag, "--spec", spec, "--seed", str(seed), "-o", inst]) == EXIT_OK
        assert main(["normal-form", inst, "-o", cert]) == EXIT_OK
        out = capsys.readouterr().out
        assert main(["verify", cert]) == EXIT_OK
        return inst, cert, out

    def test_jordan_roundtrip(self, tmp_path, capsys):
        _, cert, out = self._roundtrip(tmp_path, capsys, "prime:5", "1:[2,1];2:[1]")
        assert "case: jordan" in out
        assert "jordan_spec: 1:[2, 1]; 2:[1]" in out

    def test_descent_roundtrip(self, tmp_path, capsys):
        _, cert, out = self._roundtrip(tmp_path, capsys, "prime:3", "irr(1,0,1):[1]")
        assert "case: descent" in out

    def test_rational_roundtrip(self, tmp_path, capsys):
        self._roundtrip(tmp_path, capsys, "rational", "0:[1];3:[2]")

    def test_extension_roundtrip(self, tmp_path, capsys):
        self._roundtrip(tmp_path, capsys, "ext:3:1,0,1", "(0,1):[1];(1,0):[1]")

    def test_a_21_digit_rational_eigenvalue_does_not_hang(self, tmp_path):
        """λ·I on QQ^2 with λ of 21 digits: a search of λ's divisors up to √λ
        takes some 10^10 steps, so it would run into the timeout."""
        lam = Fraction(123456789012345678901)
        inst = _instance_file(tmp_path, "inst.json", SymplecticSpace(QQ, 1), Mat(QQ, [[lam, 0], [0, lam]]))
        cert = str(tmp_path / "cert.json")
        for args in (("normal-form", inst, "-o", cert), ("verify", cert)):
            done = _run_cli(*args)
            assert done.returncode == EXIT_OK, (args, done.stderr)

    def test_tampered_certificate_fails_verify(self, tmp_path, capsys):
        _, cert, _ = self._roundtrip(tmp_path, capsys, "prime:5", "2:[1]")
        data = json.loads(open(cert, encoding="utf-8").read())
        data["B"][0][0] = "4"
        bad = _write(tmp_path, "bad.json", dumps_canonical(data))
        assert main(["verify", bad]) == EXIT_PREDICATE_FALSE
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "sizes",
        [["100000000"], ["100000000", "-99999998"], ["0", "2"], ["1"]],
        ids=["huge", "huge-cancelling", "zero", "short"],
    )
    def test_jordan_spec_sizes_are_bounded_before_blocks_are_built(self, tmp_path, capsys, sizes):
        _, cert, _ = self._roundtrip(tmp_path, capsys, "prime:5", "2:[2]")
        data = json.loads(open(cert, encoding="utf-8").read())
        data["jordan_spec"][0]["sizes"] = sizes
        bad = _write(tmp_path, "bad.json", dumps_canonical(data))
        start = time.monotonic()
        assert main(["verify", bad]) == EXIT_PREDICATE_FALSE
        assert time.monotonic() - start < 5.0
        assert "FAIL" in capsys.readouterr().out

    def test_huge_exponent_is_refused_quickly(self, tmp_path, capsys):
        _, cert, _ = self._roundtrip(tmp_path, capsys, "rational", "0:[1];3:[2]")
        data = json.loads(open(cert, encoding="utf-8").read())
        data["A"][0][0] = "1e10000000"
        bad = _write(tmp_path, "bad.json", dumps_canonical(data))
        start = time.monotonic()
        assert main(["verify", bad]) == EXIT_PARSE
        assert main(["random", "--field", "rational", "--spec", "1e10000000:[1]"]) == EXIT_PARSE
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d["C"][1].append("0"),
            lambda d: d["B"][0].append("0"),
            lambda d: d["jordan_spec"][0].pop("sizes"),
            lambda d: d.update(jordan_spec=5),
            lambda d: d.update(n="1000000000"),
            # each would read as the certificate itself if truncated by int()
            lambda d: d["A"][0].__setitem__(slice(None), [int(x) + 0.7 for x in d["A"][0]]),
            lambda d: d.update(n=d["n"] + 0.9),
            lambda d: d["jordan_spec"][0].update(sizes=[s + 0.4 for s in d["jordan_spec"][0]["sizes"]]),
            lambda d: d["jordan_spec"][0].update(sizes=[True]),
            lambda d: d["jordan_spec"][0].update(sizes="1"),
        ],
        ids=[
            "ragged-C", "ragged-B", "spec-without-sizes", "spec-not-a-list", "huge-n",
            "float-A-row", "float-n", "float-size", "bool-size", "string-sizes",
        ],
    )
    def test_malformed_certificate_is_a_parse_error(self, tmp_path, capsys, mutate):
        _, cert, _ = self._roundtrip(tmp_path, capsys, "prime:5", "2:[1];1:[1]")
        data = json.loads(open(cert, encoding="utf-8").read())
        mutate(data)
        bad = _write(tmp_path, "bad.json", dumps_canonical(data))
        assert main(["verify", bad]) == EXIT_PARSE

    def test_the_n_flag_is_refused(self, capsys):
        """n is read off the spec alone: there is no --n to disagree with it."""
        assert main(["random", "--field", "prime:5", "--spec", "1:[2]", "--n", "2"]) == EXIT_PARSE
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field_flag,spec",
        [("prime:5", "1:[2,1];2:[1]"), ("rational", "1/2:[2,1];-3:[1]"), ("ext:3:1,0,1", "(0,1):[1];(1,0):[2]")],
    )
    def test_the_printed_jordan_spec_is_accepted_by_spec(self, tmp_path, capsys, field_flag, spec):
        inst, _, out = self._roundtrip(tmp_path, capsys, field_flag, spec)
        printed = next(line for line in out.splitlines() if line.startswith("jordan_spec: "))
        again = str(tmp_path / "again.json")
        args = ["random", "--field", field_flag, "--spec", printed[len("jordan_spec: "):], "--seed", "1", "-o", again]
        assert main(args) == EXIT_OK
        assert open(again, "rb").read() == open(inst, "rb").read()

    def test_random_refuses_a_spec_above_the_size_limit(self, tmp_path, capsys):
        out = str(tmp_path / "limit.json")
        assert main(["random", "--field", "prime:5", "--spec", f"0:[{RANDOM_MAX_N}]", "-o", out]) == EXIT_OK
        assert main(["random", "--field", "rational", "--spec", f"0:[{RANDOM_MAX_N + 1}]"]) == EXIT_PARSE
        assert f"n <= {RANDOM_MAX_N}" in capsys.readouterr().err
        # a block of (t^2 + 1)^33 has dimension 66
        assert main(["random", "--field", "prime:3", "--spec", "irr(1,0,1):[33]"]) == EXIT_PARSE

    def test_random_refuses_a_large_spec_before_building_it(self):
        """n = 500 over F_5 runs for minutes once any matrix is built."""
        done = _run_cli("random", "--field", "prime:5", "--spec", "0:[500]", timeout=10)
        assert done.returncode == EXIT_PARSE, done.stderr

    def test_byte_identical_reruns(self, tmp_path, capsys):
        for name in ("one", "two"):
            inst = str(tmp_path / f"{name}.json")
            cert = str(tmp_path / f"{name}.cert.json")
            assert main(["random", "--field", "prime:3", "--spec", "irr(1,0,1):[1]", "--seed", "9", "-o", inst]) == EXIT_OK
            assert main(["normal-form", inst, "--seed", "4", "-o", cert]) == EXIT_OK
        capsys.readouterr()
        one = open(tmp_path / "one.cert.json", "rb").read()
        two = open(tmp_path / "two.cert.json", "rb").read()
        assert one == two

    def test_stdout_emission(self, tmp_path, capsys):
        sp = SymplecticSpace(F3, 1)
        path = _instance_file(tmp_path, "a.json", sp, Mat.identity(F3, 2))
        assert main(["normal-form", path]) == EXIT_OK
        out = capsys.readouterr().out
        # last line is the canonical certificate JSON
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["case"] == "jordan"


# --- fuzzing check and verify --------------------------------------------------

_FUZZ_VALUES = [
    1.5, -0.0, 1e308, float("nan"), True, False, None,
    10**40, -(10**40), str(10**40), "-0", "1/2", "1/0", "x", "", [], {}, [[]], ["1"],
    "jordan", "descent",
    # bad field descriptors
    {"kind": "prime", "p": "4"},
    {"kind": "prime", "p": str(2**61 - 1)},
    {"kind": "extension", "p": "3", "modulus": ["2", "0", "1"]},
    {"kind": "extension", "p": "3", "modulus": ["2", "1"] + ["0"] * 38 + ["1"]},
    {"kind": "extension", "p": "3", "modulus": ["2", "1"] + ["0"] * 39 + ["1"]},
    {"kind": "extension", "p": "5", "modulus": ["1", "1"]},
    {"kind": "nope"},
    # bad jordan_spec entries
    {"eigenvalue": "1", "sizes": [0]},
    {"eigenvalue": "1", "sizes": [10**9]},
    {"eigenvalue": [], "sizes": "2"},
    {"sizes": [1]},
]
_FUZZ_KEYS = ["field", "kind", "p", "modulus", "n", "matrix", "A", "B", "C", "case", "jordan_spec",
              "eigenvalue", "sizes", "checks"]


@pytest.fixture(scope="module")
def fuzz_documents():
    """A valid instance and certificate over QQ, F_5 and F_9 (one of them descent), as plain JSON."""
    docs = []
    for field, spec in ((QQ, [("jordan", Fraction(2), (1,))]),
                        (F5, [("jordan", F5.from_int(2), (1,)), ("jordan", F5.one, (1,))]),
                        (F9, [("companion", Poly(F9, [-(F9.one + F9.gen), F9.zero, F9.one]), (1,))])):
        sp = SymplecticSpace(field, 2 if field is not QQ else 1)
        a = random_self_adjoint(sp, random.Random(5), spec)
        docs.append(json.loads(dumps_canonical(instance_to_json(sp, a))))
        docs.append(json.loads(dumps_canonical(certificate_to_json(symplectic_normal_form(sp, a)))))
    return docs


def _containers(obj):
    if isinstance(obj, (list, dict)):
        yield obj
        for child in obj.values() if isinstance(obj, dict) else obj:
            yield from _containers(child)


def _fuzz_value(doc):
    fragments = [x for c in _containers(doc) for x in (c.values() if isinstance(c, dict) else c)]
    # copies, so that no later mutation reaches _FUZZ_VALUES or a second place in doc
    return (
        (st.sampled_from(_FUZZ_VALUES) | st.sampled_from(fragments)).map(copy.deepcopy)
        | st.integers(-(10**30), 10**30)
        | st.integers(-(10**30), 10**30).map(str)
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_check_and_verify_exit_0_to_3_on_mutated_files(fuzz_documents, tmp_path_factory, data):
    """Replace, delete or append values anywhere in a valid instance or
    certificate; check, verify and normal-form end in exit 0-3, and no
    exception escapes main."""
    doc = copy.deepcopy(data.draw(st.sampled_from(fuzz_documents), label="document"))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        target = data.draw(st.sampled_from(list(_containers(doc))), label="container")
        op = data.draw(st.sampled_from(["replace", "delete", "append"]), label="op")
        value = data.draw(_fuzz_value(doc), label="value")
        if isinstance(target, dict):
            keys = sorted(target) if op != "append" and target else _FUZZ_KEYS
            key = data.draw(st.sampled_from(keys), label="key")
            if op == "delete":
                target.pop(key, None)
            else:
                target[key] = value
        elif op == "append" or not target:
            target.append(value)
        else:
            i = data.draw(st.integers(0, len(target) - 1), label="index")
            if op == "delete":
                del target[i]
            else:
                target[i] = value
    path = str(tmp_path_factory.getbasetemp() / "fuzz.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out = str(tmp_path_factory.getbasetemp() / "fuzz-cert.json")
    for args in (["check", path], ["verify", path], ["normal-form", path, "-o", out]):
        assert main(args) in (EXIT_OK, EXIT_PREDICATE_FALSE, EXIT_UNSUPPORTED, EXIT_PARSE)


# --- the raw-value codec against an element decoder ---------------------------

CODEC_FIELDS = [QQ, F5, PrimeField(101), F9, F81, F101_2, F9_4]
CODEC_IDS = ["QQ", "F5", "F101", "F9", "F81-tower", "F101^2", "F9^4-tower"]

_MALFORMED_SCALARS = _FUZZ_VALUES + [
    "1.5", "1e3", " 1", "1/-2", "+1", "1_000", "\u0661", "5/0", "-", "9" * 5000, "1/" + "9" * 5000,
    [1.9, 0], ["1"] * 5, [["1", "0"]] * 2, "10",
]


def _outcome(decode, field, rows):
    """The raw values and their types that decode reads, or the class of
    what it raises."""
    try:
        m = decode(field, rows)
    except Exception as exc:
        return type(exc)
    return m.raw, [type(x) for r in m.raw for x in r]


@pytest.mark.parametrize("field", CODEC_FIELDS, ids=CODEC_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_matrix_codec_round_trips_raw_values(field, data):
    """encode_matrix and decode_matrix read and write raw values: the round
    trip through JSON text gives the same raw values, of the same types, as
    the matrix and as the element decoder."""
    r, c = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3))
    m = Mat(field, [[data.draw(elements(field)) for _ in range(c)] for _ in range(r)])
    rows = json.loads(json.dumps(encode_matrix(m)))
    expected = (m.raw, [type(x) for row in m.raw for x in row])
    assert _outcome(decode_matrix, field, rows) == expected == _outcome(decode_element_matrix, field, rows)


@pytest.mark.parametrize("field", CODEC_FIELDS, ids=CODEC_IDS)
def test_matrix_codec_refuses_what_the_element_decoder_refuses(field):
    """Each malformed scalar, in place of an entry or of one of its
    coefficients, and a ragged row raise the class the element decoder does."""
    rng = random.Random(5)
    good = encode_matrix(Mat(field, [[field.random_element(rng) for _ in range(2)] for _ in range(2)]))
    cases = [[good[0], good[1][:1]]]  # ragged
    for bad in _MALFORMED_SCALARS:
        rows = copy.deepcopy(good)
        rows[1][0] = copy.deepcopy(bad)
        cases.append(rows)
        if isinstance(field, ExtensionField):
            rows = copy.deepcopy(good)
            rows[0][1][-1] = copy.deepcopy(bad)
            cases.append(rows)
    for rows in cases:
        want = _outcome(decode_element_matrix, field, rows)
        assert _outcome(decode_matrix, field, rows) == want, rows
    assert _outcome(decode_matrix, field, cases[0]) is DimensionMismatchError


@pytest.mark.parametrize("field", [QQ, F5, F9], ids=["QQ", "F5", "F9"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_matrix_codec_agrees_with_the_element_decoder_on_mutated_rows(field, data):
    """The fuzz of the CLI on a matrix alone: replace, delete or append
    values anywhere in it; both decoders read the same raw values or raise
    the same class."""
    rng = random.Random(data.draw(st.integers(0, 99), label="seed"))
    rows = encode_matrix(Mat(field, [[field.random_element(rng) for _ in range(2)] for _ in range(2)]))
    values = _fuzz_value(rows)  # fragments of the matrix before any mutation
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        target = data.draw(st.sampled_from([c for c in _containers(rows) if isinstance(c, list)]), label="list")
        op = data.draw(st.sampled_from(["replace", "delete", "append"]), label="op")
        value = data.draw(values, label="value")
        if op == "append" or not target:
            target.append(value)
        else:
            i = data.draw(st.integers(0, len(target) - 1), label="index")
            if op == "delete":
                del target[i]
            else:
                target[i] = value
    assert _outcome(decode_matrix, field, rows) == _outcome(decode_element_matrix, field, rows)
