"""Output checks made apart from the program.

Every check evaluates a defining identity with its own loops, or compares
against a value derived here from first principles (inversion counts,
binomial coefficients).  The only things taken from the program are the
structure constants it was given to work with: the product table
``{(p, q): {blade: coeff}}`` and the coproduct table
``{c: {(a, b): coeff}}``.  No check compares against a stored copy of an
earlier output.

Each check returns ``None`` when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def tables(structure) -> tuple[dict, dict]:
    """Plain-dict copies of a structure's product and coproduct tables."""
    prod = {k: dict(v) for k, v in structure.product_table.items()}
    cop = {c: dict(t.terms) for c, t in structure.coproduct_table.items()}
    return prod, cop


def _nonzero(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


def _add(d: dict, k, v) -> None:
    d[k] = d.get(k, 0) + v


# -- antipode -----------------------------------------------------------------

def antipode_defect(prod: dict, cop: dict, dim: int, s: list, homogeneous: bool = False):
    """First blade where ``S * id = u.counit = id * S`` fails, or None.

    ``s[p][a]`` is the coefficient of output blade p in S(e_a).  With
    ``homogeneous`` the right-hand side is zero: the identity a nullspace
    vector of the antipode system must satisfy.
    """
    for c in range(dim):
        left: dict = {}
        right: dict = {}
        for (a, b), w in cop[c].items():
            for p in range(dim):
                sa = s[p][a]
                if sa:
                    for d, pc in prod[(p, b)].items():
                        _add(left, d, w * sa * pc)
                sb = s[p][b]
                if sb:
                    for d, pc in prod[(a, p)].items():
                        _add(right, d, w * sb * pc)
        target = {} if homogeneous or c else {0: Fraction(1)}
        if _nonzero(left) != target:
            return f"S*id != u.counit on blade {c}"
        if _nonzero(right) != target:
            return f"id*S != u.counit on blade {c}"
    return None


def flat_to_endo(flat, dim: int) -> list:
    """Unknown p * dim + a of the antipode system -> s[p][a]."""
    return [[Fraction(flat[p * dim + a]) for a in range(dim)] for p in range(dim)]


def check_antipode_solutions(structure, sol) -> str | None:
    """Substitute the particular solution and every nullspace vector."""
    if sol.particular is None:
        return None
    prod, cop = tables(structure)
    dim = 1 << structure.n
    err = antipode_defect(prod, cop, dim, flat_to_endo(sol.particular, dim))
    if err:
        return f"particular solution: {err}"
    for i, v in enumerate(sol.nullspace_basis):
        err = antipode_defect(prod, cop, dim, flat_to_endo(v, dim), homogeneous=True)
        if err:
            return f"nullspace vector {i}: {err}"
    return None


# -- scattering ---------------------------------------------------------------

def sigma_columns(flat, n: int) -> dict:
    """Unknown ((u << n) | v) * 4^n + ((p << n) | q) -> {(p, q): {(u, v): c}}."""
    dim2 = 1 << (2 * n)
    mask = (1 << n) - 1
    cols: dict = {}
    for idx, c in enumerate(flat):
        if c:
            out, inp = divmod(idx, dim2)
            cols.setdefault((inp >> n, inp & mask), {})[(out >> n, out & mask)] = Fraction(c)
    return cols


def compatibility_failure(prod: dict, cop: dict, n: int, cols: dict,
                          homogeneous: bool = False):
    """First blade pair (s, t) where the compatibility square fails, or None:
    coproduct(e_s e_t) = (product (x) product)(id (x) sigma (x) id)
    (coproduct e_s (x) coproduct e_t).  With ``homogeneous`` the left side
    is zero."""
    dim = 1 << n
    for s in range(dim):
        for t in range(dim):
            direct: dict = {}
            if not homogeneous:
                for c, pc in prod[(s, t)].items():
                    for k, w in cop[c].items():
                        _add(direct, k, pc * w)
            routed: dict = {}
            for (x1, x2), c1 in cop[s].items():
                for (y1, y2), c2 in cop[t].items():
                    for (u, v), cs in cols.get((x2, y1), {}).items():
                        w = c1 * c2 * cs
                        for a, pa in prod[(x1, u)].items():
                            for b, pb in prod[(v, y2)].items():
                                _add(routed, (a, b), w * pa * pb)
            if _nonzero(direct) != _nonzero(routed):
                return (s, t)
    return None


def check_sigma_solutions(structure, sol) -> str | None:
    if sol.particular is None:
        return None
    prod, cop = tables(structure)
    n = structure.n
    bad = compatibility_failure(prod, cop, n, sigma_columns(sol.particular, n))
    if bad:
        return f"particular solution breaks the compatibility square at {bad}"
    for i, v in enumerate(sol.nullspace_basis):
        bad = compatibility_failure(prod, cop, n, sigma_columns(v, n), homogeneous=True)
        if bad:
            return f"nullspace vector {i} breaks the homogeneous square at {bad}"
    return None


# -- verify reports -------------------------------------------------------------

def indices(bits: int) -> list[int]:
    return [i for i in range(bits.bit_length()) if (bits >> i) & 1]


def blade_key(bits: int) -> str:
    return ",".join(str(i) for i in indices(bits))


def inversions(left: int, right: int) -> int:
    """Pairs (i in left, j in right) with i > j."""
    return sum(1 for i in indices(left) for j in indices(right) if i > j)


def signed_unshuffle(n: int) -> dict:
    """coproduct(e_C)[(A, B)] = (-1)^inversions(B, A) over the splittings of C,
    keyed as in the report: {key(C): {(key(A), key(B)): sign}}."""
    out = {}
    for c in range(1 << n):
        terms = {}
        for a in range(1 << n):
            if a & ~c:
                continue
            b = c ^ a
            terms[(blade_key(a), blade_key(b))] = -1 if inversions(b, a) & 1 else 1
        out[blade_key(c)] = terms
    return out


def zero_xi_grade2_images(eta: list) -> dict:
    """The xi = 0 antipode on 2-blades, built from eta alone:
    S(e_ij) = -3 e_ij - (eta_ij - eta_ji) 1, keyed {blade: {blade: coeff}}."""
    n = len(eta)
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            bits = (1 << i) | (1 << j)
            out[bits] = _nonzero({bits: Fraction(-3), 0: -(eta[i][j] - eta[j][i])})
    return out


def check_verify_report(code: int, report: dict, spec: dict, structure) -> str | None:
    """``spec`` holds the config as Fractions: {"n", "eta", "xi"}."""
    if code != 0:
        return f"exit code {code}"
    if report.get("hard_pass") is not True:
        failed = sorted(k for k, v in report.get("hard_checks", {}).items() if not v)
        return f"hard_pass is not true (failed: {failed})"
    n = spec["n"]
    dim = 1 << n
    ant = report["antipode"]
    xi_zero = not any(any(r) for r in spec["xi"])
    if xi_zero and not ant["exists"]:
        return "no antipode reported at xi = 0"
    if ant["exists"]:
        s = [[Fraction(v) for v in row] for row in ant["matrix"]]
        prod, cop = tables(structure)
        err = antipode_defect(prod, cop, dim, s)
        if err:
            return f"reported antipode: {err}"
        if xi_zero:
            for a, image in zero_xi_grade2_images(spec["eta"]).items():
                got = _nonzero({p: s[p][a] for p in range(dim)})
                if got != image:
                    return f"xi = 0 antipode on blade {a} is {got}, expected {image}"
    if xi_zero:
        want = signed_unshuffle(n)
        got = {c: {(a, b): Fraction(v) for a, b, v in terms}
               for c, terms in report["coproduct_table"].items()}
        if got != want:
            return "xi = 0 coproduct table is not the signed unshuffle"
    return None


# -- sweep rows -----------------------------------------------------------------

def check_sweep_row(row: dict, i2: str, j2: str) -> str | None:
    a = Fraction(i2) * Fraction(j2)
    expect = {"antipode_exists": a != 1, "sigma_dim": 12 if a == 1 else 0, "hard_ok": True}
    if a != 1:
        expect["braid_eq"] = a == 0
        expect["invertible"] = a != -1
    for key, want in expect.items():
        if row.get(key) != want:
            return f"a = {a}: {key} is {row.get(key)!r}, expected {want!r}"
    return None


# -- symmetrizer ranks ------------------------------------------------------------

def symmetrizer_ranks(sign: int, n: int, up_to: int) -> list[int]:
    """Exterior powers for the sign switch, symmetric powers for the plain one."""
    if sign < 0:
        return [comb(n, k) for k in range(up_to + 1)]
    return [comb(n + k - 1, k) for k in range(up_to + 1)]


def check_ranks(ranks, sign: int, n: int, up_to: int) -> str | None:
    want = symmetrizer_ranks(sign, n, up_to)
    if list(ranks) != want:
        return f"sign {sign}, n = {n}: ranks {list(ranks)}, expected {want}"
    return None
