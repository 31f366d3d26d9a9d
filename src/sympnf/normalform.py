"""The normal-form pipeline: primary decomposition of a self-adjoint
operator, the cyclic-chain construction on each generalized eigenspace, the
splitting (Jordan) case, finite-field Galois descent, certification, and
seeded instance generation.

Every primary component, in the decomposition and in both chain builders,
is ker p(A)^(m/2) for a factor p of multiplicity m in charpoly(A): A is
similar to diag(B, B^T), so each elementary divisor p^h occurs twice.  It is
read off the row spaces of the powers of p(A), with no power formed.

A cyclic pair (u, w) is split off as a Gram kernel: the vectors of the
current subspace sigma-orthogonal to both chains, in the coordinates of its
RREF basis, as symplectic_complement cuts a sigma-complement.  Descent
restricts scalars: over F_q[t]/(p), the coefficient rows of the chains in the
power basis span the base-field points of the Galois closure of their span.

Sign bookkeeping: cyclic chains are built with sigma(w_i, u_j) = delta_ij;
when chains are assembled into a basis matrix C = [u-columns | w-columns]
the w-columns are negated, which is exactly the normalization making
C^T O C = O under the package convention (see symplectic.py).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from .errors import (
    BadSpecError,
    DimensionMismatchError,
    EigenvaluesNotInFieldError,
    InternalDescentFailureError,
    InvalidCertificateError,
    MixedFieldsError,
    NotNilpotentError,
    NotSelfAdjointError,
    RationalFieldError,
    UnsupportedFieldPathError,
)
from .fields import ExtensionField
from .linalg import (
    Mat,
    Subspace,
    charpoly,
    extend_scalars,
    inverse,
    kernel,
    mat_poly_eval,
    restrict_operator,
    restrict_scalars,
    rref,
    solve,
    _kernel_of,
    _plus_diagonal,
)
from .poly import Factorization, Poly, factor, monic_square_root, multi_bezout
from .symplectic import (
    SymplecticSpace,
    _darboux_columns,
    adjoint,
    gram,
    is_self_adjoint,
    is_symplectic_matrix,
    random_symplectic,
)

__all__ = [
    "PrimaryComponent",
    "CyclicPair",
    "NormalFormCertificate",
    "VerificationReport",
    "primary_decomposition",
    "self_adjoint_projections",
    "cyclic_pair",
    "split_normal_form",
    "descent_normal_form",
    "symplectic_normal_form",
    "verify_certificate",
    "polarize",
    "random_self_adjoint",
    "jordan_block",
    "companion_matrix",
    "build_block_matrix",
    "normalize_block_spec",
    "block_spec_dimension",
]


# --- data types ------------------------------------------------------------


@dataclass(frozen=True)
class PrimaryComponent:
    """Invariant symplectic subspace for one irreducible factor."""

    factor: Poly
    multiplicity: int
    basis: Subspace


@dataclass(frozen=True)
class CyclicPair:
    """Chains u_1..u_d, w_1..w_d with u_i = g^{d-i}(u_d), w_i = g^{i-1}(w_1)
    and sigma(w_i, u_j) = delta_ij; both chains isotropic.  The matrices u
    and w hold one chain vector per row."""

    u: Mat
    w: Mat

    @property
    def d(self) -> int:
        return self.u.nrows


@dataclass(frozen=True)
class NormalFormCertificate:
    """Verifiable output: C symplectic, C^-1 A C = diag(B, B^T)."""

    space: SymplecticSpace
    matrix: Mat
    basis: Mat
    block: Mat
    case: str  # "jordan" | "descent"
    jordan_spec: tuple | None
    checks: dict | None = None


@dataclass(frozen=True)
class VerificationReport:
    checks: dict

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


# --- primary decomposition --------------------------------------------------

_OUT_OF_SCOPE = "rational input with a nonlinear irreducible factor is out of scope"


def _self_adjoint_factorization(space: SymplecticSpace, a: Mat, seed: int) -> Factorization:
    """factor(charpoly(a)), after refusing a that is not self-adjoint.

    O a is skew-symmetric, so charpoly(a) = det(tO - Oa) is the square of a
    Pfaffian, charpoly(B) for a = diag(B, B^T): only its monic square root
    is factored, and every multiplicity doubled.  A factorization is unique
    and sorted, so this is factor(charpoly(a)) itself."""
    if not is_self_adjoint(space, a):
        raise NotSelfAdjointError("operator is not self-adjoint")
    half = monic_square_root(charpoly(a))
    if half is None:
        raise InternalDescentFailureError("characteristic polynomial of a self-adjoint operator is not a square")
    fac = factor(half, seed)
    return Factorization(
        fac.unit,
        tuple((p, 2 * m) for p, m in fac.factors),
        tuple((p, 2 * m) for p, m in fac.unresolved),
    )


def _roots(fac: Factorization):
    """[(eigenvalue, multiplicity)] when every factor is linear, else None."""
    if fac.unresolved or any(p.degree != 1 for p, _ in fac.factors):
        return None
    return [(-p.coeffs[0], m) for p, m in fac.factors]


def _primary_kernel(g: Mat, m: int) -> Subspace:
    """The primary component ker g^(m/2) of g = p(a), for a self-adjoint and
    p irreducible of multiplicity m in charpoly(a).  a is similar to
    diag(B, B^T), and B and B^T share their elementary divisors, so each
    p^h of a occurs twice and h <= m/2: the full power m only costs more.

    No power of g is formed.  The nonzero rows N_j of the RREF of g^j span
    the annihilator of ker g^j, and N_(j+1) is the RREF of N_j g, so each
    step reduces a matrix of the height of a subspace, not of a power of g.
    Once the rank stops falling, ker g^j is ker g^(m/2).  When m is the
    whole dimension 2n, so is the component: its RREF basis is the
    identity, and nothing is reduced."""
    if m == g.nrows:
        return Subspace.from_raw(g.field, m, Mat.identity(g.field, m).raw, range(m))
    res = rref(g)
    for _ in range(m // 2 - 1):
        nxt = rref(Mat.from_raw(g.field, res.rref.raw[: res.rank], g.ncols) * g)
        if nxt.rank == res.rank:
            break
        res = nxt
    return _kernel_of(res)


def primary_decomposition(space: SymplecticSpace, a: Mat, seed: int = 0) -> list[PrimaryComponent]:
    """Split the space into invariant symplectic kernels of P_i(a)^{m_i/2},
    ordered by the canonical factor key."""
    fac = _self_adjoint_factorization(space, a, seed)
    if fac.unresolved:
        raise UnsupportedFieldPathError(_OUT_OF_SCOPE)
    comps = []
    total = 0
    for p, m in fac.factors:
        sub = _primary_kernel(mat_poly_eval(p, a), m)
        comps.append(PrimaryComponent(p, m, sub))
        total += sub.dim
    if total != space.dim:
        raise InternalDescentFailureError("primary components do not fill the space")
    return comps


def self_adjoint_projections(space: SymplecticSpace, a: Mat, fac: Factorization) -> list[Mat]:
    """The projections p_i = Q_i(a) R_i(a) of the Bezout identity; each is a
    self-adjoint projection and they resolve the identity."""
    factors = fac.factors
    rs = []
    for i in range(len(factors)):
        r = Poly.one(a.field)
        for j, (p, m) in enumerate(factors):
            if j != i:
                r = r * p ** m
        rs.append(r)
    qs = multi_bezout(rs)
    return [mat_poly_eval(q * r, a) for q, r in zip(qs, rs)]


# --- cyclic chains ----------------------------------------------------------


def _solve_in_subspace(space: SymplecticSpace, s: Subspace, targets: Mat, rhs) -> Mat:
    """Canonical w in s, as one row, with sigma(w, targets row i) = rhs[i]."""
    basis = s.basis_matrix()
    return Mat(space.field, [solve(gram(basis, targets).transpose(), rhs)]) * basis


def cyclic_pair(space: SymplecticSpace, g: Mat, s: Subspace, use_recursion: bool = False) -> CyclicPair:
    """Maximal-height cyclic chain of g inside s and its sigma-dual chain.

    g must be self-adjoint and nilpotent on s, s symplectic.  The chain top
    is the first canonical basis vector of s attaining maximal height; the
    dual seed w_1 comes from a direct linear solve of sigma(w_1, u_i) =
    delta_{i1} inside s, or (behind the flag) from the pointwise correction
    recursion, both verified against the same postconditions.
    """
    field = space.field
    if s.is_zero():
        raise DimensionMismatchError("a cyclic pair needs a nonzero subspace")
    # images[k] holds g^k of every basis vector of s; the height d is the
    # first k where all of them vanish, and the chain of the top is read off
    gt = g.transpose()
    images = [s.basis_matrix()]
    while not images[-1].is_zero():
        if len(images) > s.dim:
            raise NotNilpotentError("operator is not nilpotent on the subspace")
        images.append(images[-1] * gt)
    d = len(images) - 1
    top = next(i for i, row in enumerate(images[d - 1].raw) if any(row))
    u = Mat.from_raw(field, tuple(images[d - 1 - k].raw[top] for k in range(d)), space.dim)
    if use_recursion:
        w = _solve_in_subspace(space, s, u.submatrix(0, 1, 0, space.dim), (field.one,))
        for k in range(1, d):
            c = gram(w, u.submatrix(k, k + 1, 0, space.dim))  # sigma(w, u_k), 1 x 1
            if not c.is_zero():
                gk_w = w
                for _ in range(k):
                    gk_w = gk_w * gt
                w = w - c * gk_w
    else:
        w = _solve_in_subspace(space, s, u, (field.one,) + (field.zero,) * (d - 1))
    ws = [w]
    for _ in range(d - 1):
        ws.append(ws[-1] * gt)
    pair = CyclicPair(u, Mat.from_raw(field, tuple(r.raw[0] for r in ws), space.dim))
    _check_pair(space, pair)
    return pair


def _check_pair(space: SymplecticSpace, pair: CyclicPair) -> None:
    """gram(P, P) = -O_d for P = [u-chain; w-chain]: sigma-dual, both isotropic.
    Compared as gram(P, P)^T = O_d, which holds exactly then and negates nothing."""
    p = Mat.from_raw(space.field, pair.u.raw + pair.w.raw)
    if gram(p, p).transpose() != SymplecticSpace(space.field, pair.d).omega:
        raise InternalDescentFailureError("chain pair is not sigma-dual with isotropic chains")


def _split_off(space: SymplecticSpace, current: Subspace, pair: CyclicPair) -> Subspace:
    """current intersected with the sigma-complement of the pair: the vectors
    c X, for X current's RREF basis, with c gram(X, P) = 0 for P the u-chain
    over the w-chain.  c runs over the RREF basis of that kernel, and an RREF
    coordinate row times X is an RREF row with its pivot at X's pivot for the
    coordinate's pivot: a vector of current starts at a pivot column of X,
    where X is a unit vector.  So nothing is reduced again."""
    x = current.basis_matrix()
    p = Mat.from_raw(space.field, pair.u.raw + pair.w.raw)
    coords = kernel(gram(x, p).transpose())
    rows = (coords.basis_matrix() * x).raw
    return Subspace.from_raw(space.field, space.dim, rows, tuple(current._pivots[j] for j in coords._pivots))


def _nilpotent_chains(space: SymplecticSpace, g: Mat, s: Subspace) -> list[CyclicPair]:
    """Exhaust s by cyclic pairs, splitting each off as a Gram kernel."""
    chains = []
    current = s
    while not current.is_zero():
        pair = cyclic_pair(space, g, current)
        chains.append(pair)
        if 2 * pair.d == current.dim:
            break  # the pair's 2d independent vectors span current
        current = _split_off(space, current, pair)
    return chains


def _eigen_chains(space: SymplecticSpace, a: Mat, lam, m: int) -> list[CyclicPair]:
    """Cyclic pairs of g = a - lam on the generalized eigenspace of an
    eigenvalue lam of multiplicity m in charpoly(a), a self-adjoint."""
    ops = space.field.ops
    g = _plus_diagonal(a, ops.neg(ops.encode(lam)))
    return _nilpotent_chains(space, g, _primary_kernel(g, m))


# --- block builders ---------------------------------------------------------


def jordan_block(field, lam, d: int) -> Mat:
    rows = [[field.zero] * d for _ in range(d)]
    for i in range(d):
        rows[i][i] = lam
        if i + 1 < d:
            rows[i][i + 1] = field.one
    return Mat(field, rows)


def companion_matrix(p: Poly) -> Mat:
    field = p.field
    d = p.degree
    rows = [[field.zero] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = field.one
    for i in range(d):
        rows[i][d - 1] = -p.coeffs[i]
    return Mat(field, rows)


def _assemble(space: SymplecticSpace, per_eigenvalue) -> tuple[Mat, Mat, tuple]:
    """Build (C, B, jordan_spec) from [(lam, chains)] in eigenvalue order."""
    field = space.field
    u_cols, w_cols = [], []
    for _, chains in per_eigenvalue:
        for pair in chains:
            u_cols.extend(pair.u.raw)
            w_cols.extend((-pair.w).raw)
    spec = tuple((lam, tuple(pair.d for pair in chains)) for lam, chains in per_eigenvalue)
    c = Mat.from_raw(field, tuple(zip(*(u_cols + w_cols))))
    return c, _jordan_matrix(field, spec), spec


def _jordan_matrix(field, jordan_spec) -> Mat:
    """diag(J(lam, s)) over the (lam, sizes) entries of a jordan_spec."""
    return build_block_matrix(field, [("jordan", lam, sizes) for lam, sizes in jordan_spec])


# --- the two constructive cases ---------------------------------------------


def split_normal_form(space: SymplecticSpace, a: Mat, seed: int = 0) -> tuple[Mat, Mat, tuple]:
    """Jordan case: all eigenvalues in the base field.

    Returns (C, B, jordan_spec) with eigenvalues in ascending canonical order
    and block sizes weakly decreasing within each eigenvalue.
    """
    roots = _roots(_self_adjoint_factorization(space, a, seed))
    if roots is None:
        raise EigenvaluesNotInFieldError("eigenvalues do not all lie in the base field")
    return _split_core(space, a, roots)


def _split_core(space: SymplecticSpace, a: Mat, roots) -> tuple[Mat, Mat, tuple]:
    """split_normal_form once a is known self-adjoint and roots factor charpoly(a)."""
    roots = sorted(roots, key=lambda rm: space.field.sort_key(rm[0]))
    return _assemble(space, [(lam, _eigen_chains(space, a, lam, m)) for lam, m in roots])


def _component_lagrangians(space: SymplecticSpace, a: Mat, p: Poly, m: int):
    """Base-field raw rows spanning an a-invariant lagrangian pair (U, W)
    inside the primary component of the irreducible factor p of multiplicity
    m in charpoly(a).

    A factor of degree d > 1 splits over F_{q^d} = F_q[t]/(p).  The chains of
    its root t there, with their Frobenius conjugates, span (U, W) over the
    extension, a Galois-stable pair; the coefficient rows of the chains span
    its base-field points.
    """
    field = space.field
    if p.degree == 1:
        ext, ext_space, op, root = field, space, a, -p.coeffs[0]
    else:
        ext = ExtensionField(field, p.coeffs)
        ext_space, op, root = SymplecticSpace(ext, space.n), extend_scalars(a, ext), ext.gen
    chains = _eigen_chains(ext_space, op, root, m)
    if 2 * sum(pair.d for pair in chains) != m:
        raise InternalDescentFailureError("eigencomponent has the wrong dimension")
    us = Mat.from_raw(ext, tuple(r for pair in chains for r in pair.u.raw), space.dim)
    ws = Mat.from_raw(ext, tuple(r for pair in chains for r in pair.w.raw), space.dim)
    if ext is not field:
        us, ws = restrict_scalars(us), restrict_scalars(ws)
    return us.raw, ws.raw


def descent_normal_form(space: SymplecticSpace, a: Mat, seed: int = 0) -> tuple[Mat, Mat]:
    """Galois-descent case over a finite field; B carries no canonical-form
    claim beyond C^-1 A C = diag(B, B^T)."""
    if space.field.kind == "rational":
        raise RationalFieldError("descent requires a finite base field")
    # factor() is complete over a finite field, so nothing is left unresolved
    fac = _self_adjoint_factorization(space, a, seed)
    c, b = _descent_core(space, a, fac)
    if not verify_certificate(NormalFormCertificate(space, a, c, b, "descent", None)).ok:
        raise InternalDescentFailureError("descent basis did not block-diagonalize the operator")
    return c, b


def _descent_core(space: SymplecticSpace, a: Mat, fac: Factorization) -> tuple[Mat, Mat]:
    """descent_normal_form once a is known self-adjoint and fac factors
    charpoly(a); the caller verifies the result, which implies every other
    property of the pair.  C is U's RREF basis and its dual basis in W,
    whose rows go in as they come; B is a restricted to U."""
    lagrangians = [_component_lagrangians(space, a, p, m) for p, m in fac.factors]
    u = Subspace._span(space.field, space.dim, [r for us, _ in lagrangians for r in us])
    # n rows in all, so the span has dimension n exactly when they are independent
    if u.dim != space.n:
        raise InternalDescentFailureError("lagrangian span has the wrong dimension")
    ws = Mat.from_raw(space.field, tuple(r for _, w in lagrangians for r in w), space.dim)
    return _darboux_columns(u.basis_matrix(), ws), restrict_operator(a, u)


# --- orchestration ----------------------------------------------------------


def symplectic_normal_form(space: SymplecticSpace, a: Mat, seed: int = 0) -> NormalFormCertificate:
    """Dispatch to the splitting or descent case and certify the result."""
    fac = _self_adjoint_factorization(space, a, seed)
    roots = _roots(fac)
    if roots is not None:
        c, b, spec = _split_core(space, a, roots)
        cert = NormalFormCertificate(space, a, c, b, "jordan", spec)
    elif space.field.kind == "rational":
        raise UnsupportedFieldPathError(_OUT_OF_SCOPE)
    else:
        c, b = _descent_core(space, a, fac)
        cert = NormalFormCertificate(space, a, c, b, "descent", None)
    report = verify_certificate(cert)
    if not report.ok:
        raise InternalDescentFailureError(f"pipeline produced an invalid certificate: {report.checks}")
    return dataclasses.replace(cert, checks=dict(report.checks))


def _spec_orderly(field, spec) -> bool:
    keys = [field.sort_key(lam) for lam, _ in spec]
    if any(k2 <= k1 for k1, k2 in zip(keys, keys[1:])):
        return False
    return all(
        all(s2 <= s1 for s1, s2 in zip(sizes, sizes[1:])) and all(s > 0 for s in sizes)
        for _, sizes in spec
    )


def verify_certificate(cert: NormalFormCertificate) -> VerificationReport:
    """Independent checker; recomputes every predicate without trusting the
    pipeline.  Failures are report entries, never exceptions.

    Conjugation is checked as C^-1 A C = diag(B, B^T); a symplectic C has
    C^-1 = -O C^T O, so only a C that fails symplectic_basis is inverted by
    elimination.  Similar matrices share a characteristic polynomial, so
    charpoly_square is computed only when conjugation fails or B is not an
    n x n matrix over the certificate's field.  A jordan_spec is checked
    whenever one is claimed, whatever the case tag says.
    """
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
        c_inv = adjoint(space, c) if checks["symplectic_basis"] else inverse(c)
        checks["conjugation"] = c_inv * a * c == target
    except Exception:
        checks["conjugation"] = False
    if cert.case == "jordan" or cert.jordan_spec is not None:
        try:
            claimed = [s for _, sizes in cert.jordan_spec for s in sizes]
            # bounded before any block is built: a claimed size is not trusted
            if any(s < 1 for s in claimed) or sum(claimed) != space.n:
                checks["jordan_form"] = False
            else:
                expected = _jordan_matrix(field, cert.jordan_spec)
                checks["jordan_form"] = b == expected and _spec_orderly(field, cert.jordan_spec)
        except Exception:
            checks["jordan_form"] = False
    try:
        checks["charpoly_square"] = (
            checks["conjugation"] and b.field == field and b.nrows == b.ncols == space.n
        ) or charpoly(a) == charpoly(b) ** 2
    except Exception:
        checks["charpoly_square"] = False
    return VerificationReport(checks)


def polarize(cert: NormalFormCertificate):
    """Lagrangian pair (U, W) spanned by the basis columns and the operator
    on U; reconstructing diag(l, l-dual) through C reproduces the input."""
    if not verify_certificate(cert).ok:
        raise InvalidCertificateError("certificate fails verification")
    space = cert.space
    cols = cert.basis.transpose().raw
    u = Subspace._span(space.field, space.dim, cols[: space.n])
    w = Subspace._span(space.field, space.dim, cols[space.n :])
    return u, w, cert.block


# --- instance generation ----------------------------------------------------


def normalize_block_spec(field, spec) -> list:
    """The one check of a block spec, and its canonical order: entries sorted
    by kind key, sizes weakly decreasing.  An entry is ("jordan", lam, sizes)
    with lam in field (an int is lifted into it), or ("companion", P, sizes)
    with P monic of degree >= 1 over field; sizes are positive ints, and the
    spec holds at least one block.  Else BadSpecError."""
    out = []
    for kind, head, sizes in spec:
        if kind == "jordan":
            try:
                head = field.ops.decode(field.ops.encode(head))
            except MixedFieldsError as exc:
                raise BadSpecError(f"eigenvalue {head!r} is not an element of {field!r}") from exc
        elif kind != "companion":
            raise BadSpecError(f"unknown block kind {kind!r}")
        elif not (isinstance(head, Poly) and head.field == field and head.degree >= 1 and head.lc() == field.one):
            raise BadSpecError(f"companion polynomial must be monic of degree >= 1 over {field!r}, got {head!r}")
        if not sizes or any(type(s) is not int or s < 1 for s in sizes):
            raise BadSpecError(f"sizes must be positive integers, got {sizes!r}")
        out.append((kind, head, tuple(sorted(sizes, reverse=True))))
    if not out:
        raise BadSpecError("empty block specification")

    def key(e):
        if e[0] == "jordan":
            return (0, (1,), field.sort_key(e[1]))
        return (1, e[1].sort_key(), None)
    out.sort(key=key)
    return out


def block_spec_dimension(spec) -> int:
    """The size of B built from a normalized spec."""
    return sum((1 if kind == "jordan" else head.degree) * sum(sizes) for kind, head, sizes in spec)


def build_block_matrix(field, spec) -> Mat:
    """B from a normalized spec: Jordan blocks and companion(P^s) blocks."""
    blocks = []
    for kind, head, sizes in spec:
        if kind == "jordan":
            blocks.extend(jordan_block(field, head, s) for s in sizes)
        else:
            blocks.extend(companion_matrix(head ** s) for s in sizes)
    return Mat.block_diag(field, blocks)


def random_self_adjoint(space: SymplecticSpace, rng: random.Random, spec) -> Mat:
    """Seeded self-adjoint instance: diag(B, B^T) scrambled by a random
    symplectic conjugation.  The spec passes normalize_block_spec, and its
    dimension must be n before B is built; else BadSpecError."""
    field = space.field
    spec = normalize_block_spec(field, spec)
    dim = block_spec_dimension(spec)
    if dim != space.n:
        raise BadSpecError(f"block spec has total dimension {dim}, expected n={space.n}")
    b = build_block_matrix(field, spec)
    a0 = Mat.block_diag(field, [b, b.transpose()])
    c = random_symplectic(space, rng)
    return c * a0 * adjoint(space, c)
