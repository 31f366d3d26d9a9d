"""JSON encoding of fields, scalars, matrices, instance files and
certificates.  All numbers are strings so no consumer can lose precision;
output is canonical (sorted keys, fixed separators) so identical inputs
yield byte-identical files.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import InstanceParseError
from .fields import ExtElement, ExtensionField, PrimeField, QQ, RationalField, make_field
from .linalg import Mat
from .normalform import NormalFormCertificate
from .symplectic import SymplecticSpace

__all__ = [
    "encode_scalar",
    "decode_scalar",
    "encode_matrix",
    "decode_matrix",
    "field_to_json",
    "field_from_json",
    "instance_to_json",
    "instance_from_json",
    "certificate_to_json",
    "certificate_from_json",
    "dumps_canonical",
]


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# --- scalars ----------------------------------------------------------------


def encode_scalar(field, x):
    if isinstance(field, RationalField):
        return str(x)
    if isinstance(field, PrimeField):
        return str(x.value)
    return [encode_scalar(field.base, c) for c in x.coeffs]


# the forms encode_scalar writes; Fraction(str) also parses decimals and
# exponents, and spends seconds on one like "1e10000000"
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _decode_int(s) -> int:
    """An integer written as encode_scalar writes it, -?[0-9]+, or as a JSON
    integer.  int() would also truncate floats, read booleans as 0 and 1, and
    take spaces, '+', '_' and non-ASCII digits."""
    if type(s) is str and s.isascii() and (s.isdigit() or s[:1] == "-" and s[1:].isdigit()):
        try:
            return int(s)
        except ValueError as exc:  # past Python's digit limit
            raise InstanceParseError(f"bad integer: {exc}") from exc
    if type(s) is int:  # not a bool
        return s
    raise InstanceParseError(f"bad integer {s!r}")


def _decode_ints(s) -> list[int]:
    if not isinstance(s, list):
        raise InstanceParseError(f"expected a list of integers, got {s!r}")
    return [_decode_int(x) for x in s]


def decode_scalar(field, s):
    try:
        if isinstance(field, RationalField):
            m = _RATIONAL.fullmatch(str(s))
            if m is None:
                raise InstanceParseError(f"bad rational {s!r}: expected an integer or p/q")
            num, den = m.groups()
            return Fraction(int(num), int(den or 1))
        if isinstance(field, PrimeField):
            return field.from_int(_decode_int(s))
        if isinstance(field, ExtensionField):
            if not isinstance(s, list):
                raise InstanceParseError(f"bad scalar encoding {s!r}: expected a coefficient list")
            coeffs = [decode_scalar(field.base, c) for c in s]
            if len(coeffs) != field.degree:
                raise InstanceParseError(f"expected {field.degree} coefficients, got {len(coeffs)}")
            return ExtElement(field, tuple(coeffs))
    except InstanceParseError:
        raise
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InstanceParseError(f"bad scalar encoding {s!r}") from exc
    raise InstanceParseError(f"unknown field {field!r}")


# --- matrices ---------------------------------------------------------------


def encode_matrix(m: Mat):
    return [[encode_scalar(m.field, x) for x in row] for row in m.rows]


def decode_matrix(field, rows) -> Mat:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InstanceParseError("matrix must be a list of rows")
    return Mat(field, [[decode_scalar(field, x) for x in r] for r in rows])


def _decode_shaped(field, rows, nrows: int, ncols: int, name: str) -> Mat:
    """decode_matrix, rejecting any shape but nrows x ncols."""
    if not isinstance(rows, list) or len(rows) != nrows or any(
        not isinstance(r, list) or len(r) != ncols for r in rows
    ):
        raise InstanceParseError(f"{name} must be {nrows} x {ncols}")
    return decode_matrix(field, rows)


# --- field descriptors ------------------------------------------------------


def field_to_json(field):
    if isinstance(field, RationalField):
        return {"kind": "rational"}
    if isinstance(field, PrimeField):
        return {"kind": "prime", "p": str(field.p)}
    if isinstance(field, ExtensionField):
        if not isinstance(field.base, PrimeField):
            raise InstanceParseError(f"{field!r} is a tower: only extensions of a prime field have a file format")
        return {
            "kind": "extension",
            "p": str(field.base.p),
            "modulus": [str(c.value) for c in field.modulus],
        }
    raise InstanceParseError(f"unknown field {field!r}")


def field_from_json(obj):
    try:
        kind = obj["kind"]
        if kind == "rational":
            return QQ
        if kind == "prime":
            return make_field("prime", p=_decode_int(obj["p"]))
        if kind == "extension":
            return make_field("extension", p=_decode_int(obj["p"]), modulus=_decode_ints(obj["modulus"]))
    except InstanceParseError:
        raise
    except Exception as exc:
        # name the cause; echo only the start of a descriptor, which may hold hundreds of coefficients
        raise InstanceParseError(f"bad field descriptor {obj!r:.60}: {exc}") from exc
    raise InstanceParseError(f"unknown field kind {obj!r:.60}")


# --- instance files ---------------------------------------------------------


def instance_to_json(space: SymplecticSpace, a: Mat) -> dict:
    return {
        "field": field_to_json(space.field),
        "n": space.n,
        "matrix": encode_matrix(a),
    }


def instance_from_json(obj) -> tuple[SymplecticSpace, Mat]:
    try:
        field = field_from_json(obj["field"])
        n = _decode_int(obj["n"])
        rows = obj["matrix"]
    except InstanceParseError:
        raise
    except Exception as exc:
        raise InstanceParseError("malformed instance file") from exc
    if n < 1:
        raise InstanceParseError("n must be positive")
    # the shape check comes first: it bounds n by the size of the input
    a = _decode_shaped(field, rows, 2 * n, 2 * n, "matrix")
    return SymplecticSpace(field, n), a


# --- certificates -----------------------------------------------------------


def certificate_to_json(cert: NormalFormCertificate) -> dict:
    field = cert.space.field
    spec = None
    if cert.jordan_spec is not None:
        spec = [
            {"eigenvalue": encode_scalar(field, lam), "sizes": list(sizes)}
            for lam, sizes in cert.jordan_spec
        ]
    return {
        "field": field_to_json(field),
        "n": cert.space.n,
        "A": encode_matrix(cert.matrix),
        "C": encode_matrix(cert.basis),
        "B": encode_matrix(cert.block),
        "case": cert.case,
        "jordan_spec": spec,
        "checks": cert.checks,
    }


def certificate_from_json(obj) -> NormalFormCertificate:
    try:
        field = field_from_json(obj["field"])
        n = _decode_int(obj["n"])
        a = _decode_shaped(field, obj["A"], 2 * n, 2 * n, "A")
        c = _decode_shaped(field, obj["C"], 2 * n, 2 * n, "C")
        b = _decode_shaped(field, obj["B"], n, n, "B")
        space = SymplecticSpace(field, n)
        case = obj["case"]
        spec = obj.get("jordan_spec")
        if spec is not None:
            spec = tuple(
                (decode_scalar(field, e["eigenvalue"]), tuple(_decode_ints(e["sizes"])))
                for e in spec
            )
    except InstanceParseError:
        raise
    except Exception as exc:
        raise InstanceParseError("malformed certificate file") from exc
    if case not in ("jordan", "descent"):
        raise InstanceParseError(f"unknown case tag {case!r}")
    return NormalFormCertificate(space, a, c, b, case, spec, obj.get("checks"))
