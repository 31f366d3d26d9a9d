"""A certificate checker that shares no code with sympnf: it reads the
canonical JSON text of a certificate and computes on plain lists of
Fractions, of ints mod p, or of coefficient tuples mod (p, modulus).

A tower's descriptor is {"kind": "extension", "base": <descriptor>,
"modulus": [<base scalars>]}; sympnf writes no such file, so only tests
build one.

It decides the two properties that define a normal form, C^T O C = O with
O = [[0, I], [-I, 0]], and A C = C diag(B, B^T); together they give
C^-1 A C = diag(B, B^T)."""

import json
from fractions import Fraction


def _arithmetic(desc):
    """(parse, add, mul, embed) of a field descriptor; embed maps an int
    into the field.  An extension's coefficients lie in the prime field of
    "p", or, in a tower, in the field of the descriptor "base"."""
    if desc["kind"] == "rational":
        return Fraction, lambda x, y: x + y, lambda x, y: x * y, Fraction
    if desc["kind"] == "prime":
        p = int(desc["p"])
        return lambda s: int(s) % p, lambda x, y: (x + y) % p, lambda x, y: x * y % p, lambda i: i % p
    base_parse, base_add, base_mul, base_embed = _arithmetic(desc.get("base") or {"kind": "prime", "p": desc["p"]})
    modulus = [base_parse(c) for c in desc["modulus"]]  # monic, lowest degree first
    k = len(modulus) - 1
    zero, minus_one = base_embed(0), base_embed(-1)

    def parse(s):
        assert len(s) == k, "wrong number of coefficients"
        return tuple(base_parse(c) for c in s)

    def mul(x, y):
        prod = [zero] * (2 * k - 1)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                prod[i + j] = base_add(prod[i + j], base_mul(xi, yj))
        # t^d = t^(d-k) t^k and t^k = -(modulus[0] + ... + modulus[k-1] t^(k-1))
        for d in range(2 * k - 2, k - 1, -1):
            lead = base_mul(minus_one, prod[d])
            for i in range(k):
                prod[d - k + i] = base_add(prod[d - k + i], base_mul(lead, modulus[i]))
        return tuple(prod[:k])

    def add(x, y):
        return tuple(base_add(a, b) for a, b in zip(x, y))

    return parse, add, mul, lambda i: (base_embed(i),) + (zero,) * (k - 1)


def matrix_product(x, y, add, mul, zero):
    """x y for matrices held as lists of rows."""
    out = []
    for r in x:
        row = []
        for col in zip(*y):
            total = zero
            for xi, yj in zip(r, col):
                total = add(total, mul(xi, yj))
            row.append(total)
        out.append(row)
    return out


def certificate_holds(text: str) -> bool:
    """C^T O C = O and A C = C diag(B, B^T) for the certificate in text."""
    cert = json.loads(text)
    parse, add, mul, embed = _arithmetic(cert["field"])
    n = int(cert["n"])
    a, b, c = ([[parse(x) for x in row] for row in cert[key]] for key in ("A", "B", "C"))
    if [len(r) for r in a + c] != [2 * n] * (4 * n) or [len(r) for r in b] != [n] * n:
        return False
    zero, one, minus_one = embed(0), embed(1), embed(-1)

    def product(x, y):
        return matrix_product(x, y, add, mul, zero)

    omega = [[one if j == i + n else minus_one if i == j + n else zero for j in range(2 * n)] for i in range(2 * n)]
    pad = [zero] * n
    diag = [r + pad for r in b] + [pad + list(r) for r in zip(*b)]
    return product([list(r) for r in zip(*c)], product(omega, c)) == omega and product(a, c) == product(c, diag)
