"""JSON encoding of fields, scalars, matrices, instance files and
certificates.  All numbers are strings so no consumer can lose precision;
output is canonical (sorted keys, fixed separators) so identical inputs
yield byte-identical files.

Each field has one codec (``_codec``) between its JSON scalars and the raw
values of its ``ops``: matrices are read into and written from raw values
directly, with no element built per entry, and ``encode_scalar`` /
``decode_scalar`` are the same codec composed with ``ops.encode`` /
``ops.decode``.
"""

from __future__ import annotations

import json
import re
from operator import mul

from .errors import DimensionMismatchError, InstanceParseError
from .fields import ExtensionField, PrimeField, QQ, RationalField, make_field, rational
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


def _decode_rational(s):
    m = _RATIONAL.fullmatch(str(s))
    if m is None:
        raise InstanceParseError(f"bad rational {s!r}: expected an integer or p/q")
    num, den = m.groups()
    try:
        return int(num) if den is None else rational(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceParseError(f"bad scalar encoding {s!r}") from exc


def _codec(field):
    """(decode, encode) between the JSON scalars of field and the raw values
    of field.ops.  A scalar of QQ is "p/q" or an integer, one of F_p an
    integer, and one of an extension the list of its coefficients in the
    base field's own form."""
    if isinstance(field, RationalField):
        return _decode_rational, str
    if isinstance(field, PrimeField):
        p = field.p
        return (lambda s: _decode_int(s) % p), str
    if not isinstance(field, ExtensionField):
        raise InstanceParseError(f"unknown field {field!r}")
    ops = field.ops
    base_decode, base_encode = _codec(field.base)
    k, weights, of_code, coeffs = field.degree, ops.weights, ops._of_code, ops.coeffs

    def decode(s):
        if not isinstance(s, list):
            raise InstanceParseError(f"bad scalar encoding {s!r}: expected a coefficient list")
        digits = [base_decode(c) for c in s]
        if len(digits) != k:
            raise InstanceParseError(f"expected {k} coefficients, got {len(digits)}")
        return of_code(sum(map(mul, digits, weights)))

    def encode(v):
        return [base_encode(c) for c in coeffs(v)]

    return decode, encode


def encode_scalar(field, x):
    encode = _codec(field)[1]
    return encode(field.ops.encode(x))


def decode_scalar(field, s):
    decode = _codec(field)[0]
    return field.ops.decode(decode(s))


# --- matrices ---------------------------------------------------------------


def encode_matrix(m: Mat):
    encode = _codec(m.field)[1]
    return [list(map(encode, r)) for r in m.raw]


def decode_matrix(field, rows) -> Mat:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InstanceParseError("matrix must be a list of rows")
    decode = _codec(field)[0]
    raw = tuple(tuple(map(decode, r)) for r in rows)
    if any(len(r) != len(raw[0]) for r in raw):
        raise DimensionMismatchError("matrix rows differ in length")
    return Mat.from_raw(field, raw)


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
