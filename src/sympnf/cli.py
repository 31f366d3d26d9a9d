"""Command-line front end.

Subcommands: check, normal-form, verify, random.  Exit codes are a stable
contract: 0 success, 1 predicate false, 2 unsupported field path, 3 parse
or flag error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .errors import (
    ExactAlgebraError,
    InstanceParseError,
    UnsupportedFieldPathError,
)
from .normalform import (
    block_spec_dimension,
    normalize_block_spec,
    random_self_adjoint,
    symplectic_normal_form,
    verify_certificate,
)
from .poly import Poly
from .serialize import (
    _decode_int,
    certificate_from_json,
    certificate_to_json,
    decode_scalar,
    dumps_canonical,
    encode_scalar,
    field_from_json,
    instance_from_json,
    instance_to_json,
)
from .symplectic import SymplecticSpace, is_self_adjoint

EXIT_OK = 0
EXIT_PREDICATE_FALSE = 1
EXIT_UNSUPPORTED = 2
EXIT_PARSE = 3

# the largest n that `random` builds: over QQ n = 64 takes about 2 s, n = 128 took 242 s
RANDOM_MAX_N = 64


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bad UTF-8 and integers past the digit limit
        raise InstanceParseError(f"cannot read {path}: {exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _items(text: str, sep: str) -> list[str]:
    return [item.strip() for item in text.split(sep)]


def parse_field_flag(flag: str):
    """rational | prime:p | ext:p:c0,c1,...,1 (modulus low-to-high), read as
    the field descriptor of an instance file."""
    parts = _items(flag, ":")
    if parts == ["rational"]:
        return field_from_json({"kind": "rational"})
    if parts[0] == "prime" and len(parts) == 2:
        return field_from_json({"kind": "prime", "p": parts[1]})
    if parts[0] == "ext" and len(parts) == 3:
        return field_from_json({"kind": "extension", "p": parts[1], "modulus": _items(parts[2], ",")})
    raise InstanceParseError(f"bad --field value {flag!r}")


def _parse_spec_scalar(field, text: str):
    """An eigenvalue in the scalar encoding of instance files; a coefficient
    vector is written '(c0,c1,...)'."""
    if text.startswith("(") and text.endswith(")"):
        return decode_scalar(field, _items(text[1:-1], ","))
    if field.kind == "extension":
        return field.embed(decode_scalar(field.base, text))
    return decode_scalar(field, text)


def parse_block_spec(field, text: str):
    """Entries separated by ';'.  Jordan blocks: '<eigenvalue>:[s1,s2]';
    companion blocks of P^m: 'irr(c0,...,1):[m1,m2]'.  Each item is read as
    instance files read it, and the spec is checked and ordered by
    normalize_block_spec."""
    entries = []
    for raw in _items(text, ";"):
        if not raw:
            continue
        head, _, tail = (part.strip() for part in raw.rpartition(":"))
        if not head or not (tail.startswith("[") and tail.endswith("]")):
            raise InstanceParseError(f"bad spec entry {raw!r}")
        sizes = tuple(_decode_int(s) for s in _items(tail[1:-1], ","))
        if head.startswith("irr(") and head.endswith(")"):
            coeffs = [field.from_int(_decode_int(c)) for c in _items(head[4:-1], ",")]
            entries.append(("companion", Poly(field, coeffs), sizes))
        else:
            entries.append(("jordan", _parse_spec_scalar(field, head), sizes))
    return normalize_block_spec(field, entries)


# --- subcommands ------------------------------------------------------------


def cmd_check(args) -> int:
    space, a = instance_from_json(_load_json(args.path))
    ok = is_self_adjoint(space, a)
    print(f"self-adjoint: {'true' if ok else 'false'}")
    return EXIT_OK if ok else EXIT_PREDICATE_FALSE


def cmd_normal_form(args) -> int:
    space, a = instance_from_json(_load_json(args.path))
    cert = symplectic_normal_form(space, a, seed=args.seed)
    print(f"case: {cert.case}")
    if cert.jordan_spec is not None:
        parts = []
        for lam, sizes in cert.jordan_spec:
            enc = encode_scalar(space.field, lam)
            if isinstance(enc, list):
                enc = "(" + ",".join(enc) + ")"
            parts.append(f"{enc}:{list(sizes)}")
        print("jordan_spec: " + "; ".join(parts))
    _emit(dumps_canonical(certificate_to_json(cert)), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    cert = certificate_from_json(_load_json(args.path))
    report = verify_certificate(cert)
    for name, passed in report.checks.items():
        print(f"{name}: {'pass' if passed else 'FAIL'}")
    return EXIT_OK if report.ok else EXIT_PREDICATE_FALSE


def cmd_random(args) -> int:
    field = parse_field_flag(args.field)
    spec = parse_block_spec(field, args.spec)
    n = block_spec_dimension(spec)
    if n > RANDOM_MAX_N:
        raise InstanceParseError(f"--spec dimensions sum to {n}; random builds n <= {RANDOM_MAX_N}")
    space = SymplecticSpace(field, n)
    a = random_self_adjoint(space, random.Random(args.seed), spec)
    _emit(dumps_canonical(instance_to_json(space, a)), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympnf",
        description="Symplectic normal forms of self-adjoint operators over exact fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test an instance for self-adjointness")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("normal-form", help="compute a normal-form certificate")
    p.add_argument("path")
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_normal_form)

    p = sub.add_parser("verify", help="independently verify a certificate")
    p.add_argument("path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("random", help="generate a seeded self-adjoint instance")
    p.add_argument("--field", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_random)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InstanceParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedFieldPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ExactAlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PREDICATE_FALSE


if __name__ == "__main__":
    sys.exit(main())
