"""Convolution algebra on endomorphisms and the antipode solver.

Endomorphisms of the multivector space are dense matrices over the blade
basis in ascending bitmask order: column j holds the image of blade j.  The
convolution of f and g sends x to product(f (x) g)(coproduct x); an antipode
is a two-sided convolution inverse of the identity against unit * counit,
solved here as an exact linear system in the matrix entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .clifford import CliffordStructure
from .exterior import Multivector, blades
from .scalars import AffineSolutionSet, Matrix, format_scalar, solve_sparse_system

EndoMap = Matrix  # 2^n x 2^n over the blade basis


def identity_endo(structure: CliffordStructure) -> Matrix:
    return Matrix.identity(1 << structure.n)


def unit_counit_endo(structure: CliffordStructure) -> Matrix:
    """u . counit: kills positive grades, fixes the scalar blade."""
    dim = 1 << structure.n
    m = Matrix.zeros(dim, dim)
    rows = [list(r) for r in m.rows]
    rows[0][0] = Fraction(1)
    return Matrix(rows)


def apply_endo(f: Matrix, x: Multivector) -> Multivector:
    dim = 1 << x.dim
    if f.ncols != dim:
        raise ValueError("endomorphism shape does not match rank")
    out: dict = {}
    for bits, c in x.terms.items():
        for i in range(dim):
            v = f[(i, bits)]
            if v:
                out[i] = out.get(i, Fraction(0)) + c * v
    return Multivector(x.dim, out)


def endo_from_images(structure: CliffordStructure, images: list[Multivector]) -> Matrix:
    """Matrix of the endomorphism sending blade j to images[j]."""
    dim = 1 << structure.n
    if len(images) != dim:
        raise ValueError("need one image per blade")
    entries = {}
    for j, img in enumerate(images):
        structure._check(img)
        for bits, c in img.terms.items():
            entries[(bits, j)] = c
    return Matrix.from_entries(dim, dim, entries)


def convolution(f: Matrix, g: Matrix, structure: CliffordStructure) -> Matrix:
    """(f * g)(x) = product . (f (x) g) . coproduct, extended bilinearly."""
    dim = 1 << structure.n
    if f.nrows != dim or f.ncols != dim or g.nrows != dim or g.ncols != dim:
        raise ValueError("endomorphism shape does not match rank")
    entries: dict = {}
    for c_bits in blades(structure.n):
        for (a, b), coeff in structure.coproduct_table[c_bits].terms.items():
            fa = f.column(a)
            gb = g.column(b)
            for p in range(dim):
                if not fa[p]:
                    continue
                for q in range(dim):
                    if not gb[q]:
                        continue
                    w = coeff * fa[p] * gb[q]
                    for out_bits, pc in structure.product_table[(p, q)].items():
                        k = (out_bits, c_bits)
                        entries[k] = entries.get(k, Fraction(0)) + w * pc
    return Matrix.from_entries(dim, dim, entries)


def solve_antipode(structure: CliffordStructure) -> AffineSolutionSet:
    """Exact solution set of the two-sided antipode axiom.

    Unknowns are the 4^n entries s[p, a] of S (p output blade, a input
    blade), flattened as p * 2^n + a.  For each input blade c and output
    blade d there are two equations, one per side of
    S * id = u . counit = id * S.
    """
    n = structure.n
    dim = 1 << n
    unknown = lambda p, a: p * dim + a
    rows: list[dict] = []
    rhs: list[Fraction] = []
    for c_bits in blades(n):
        cop = structure.coproduct_table[c_bits].terms
        left_rows: list[dict] = [dict() for _ in range(dim)]
        right_rows: list[dict] = [dict() for _ in range(dim)]
        for (a, b), coeff in cop.items():
            for p in range(dim):
                # S * id: S(e_a) *_eta e_b
                for d_bits, pc in structure.product_table[(p, b)].items():
                    k = unknown(p, a)
                    row = left_rows[d_bits]
                    row[k] = row.get(k, Fraction(0)) + coeff * pc
                # id * S: e_a *_eta S(e_b)
                for d_bits, pc in structure.product_table[(a, p)].items():
                    k = unknown(p, b)
                    row = right_rows[d_bits]
                    row[k] = row.get(k, Fraction(0)) + coeff * pc
        target = Fraction(1) if c_bits == 0 else Fraction(0)
        for d_bits in range(dim):
            t = target if d_bits == 0 else Fraction(0)
            rows.append(left_rows[d_bits])
            rhs.append(t)
            rows.append(right_rows[d_bits])
            rhs.append(t)
    return solve_sparse_system(rows, rhs, dim * dim)


def solution_to_endo(structure: CliffordStructure, flat: tuple) -> Matrix:
    dim = 1 << structure.n
    return Matrix([[flat[p * dim + a] for a in range(dim)] for p in range(dim)])


def complex_antipode_closed_form(a) -> Matrix:
    """Rank-1 antipode in closed form: fixes the scalar blade up to 1/(1-a),
    negates the vector the same way.  Domain error at a = 1, mirroring
    nonexistence."""
    a = Fraction(a)
    if a == 1:
        raise ValueError("no antipode exists when the composite form is the identity (a = 1)")
    s = 1 / (1 - a)
    return Matrix([[s, 0], [0, -s]])


@dataclass
class ConjectureRecord:
    """Evidence row for the antipode-existence criterion; never an assertion."""

    xi_eta_is_identity: bool
    antipode_exists: bool
    conjecture_consistent: bool

    def to_json(self) -> dict:
        return {
            "xi_eta_is_identity": self.xi_eta_is_identity,
            "antipode_exists": self.antipode_exists,
            "conjecture_consistent": self.conjecture_consistent,
        }


def conjecture_record(structure: CliffordStructure,
                      sol: AffineSolutionSet) -> ConjectureRecord:
    """Compare 'composite of the two forms is the identity' with antipode
    nonexistence on this instance and record whether the biconditional held;
    ``sol`` is the instance's antipode solution set."""
    composite = structure.eta @ structure.xi  # = id iff xi . eta = id (square factors)
    is_id = composite == Matrix.identity(structure.n)
    exists = sol.is_consistent
    return ConjectureRecord(
        xi_eta_is_identity=is_id,
        antipode_exists=exists,
        conjecture_consistent=(exists == (not is_id)),
    )


def test_conjecture_antipode(structure: CliffordStructure) -> ConjectureRecord:
    """The conjecture record with the antipode solved here."""
    return conjecture_record(structure, solve_antipode(structure))


def antipode_report_json(structure: CliffordStructure, a=None) -> dict:
    """Per-instance report: closed-form parameter when given, the solved
    antipode matrix or null, and the conjecture consistency flag."""
    sol = solve_antipode(structure)
    rec = conjecture_record(structure, sol)
    report = {
        "antipode": (solution_to_endo(structure, sol.particular).to_json()
                     if sol.is_consistent else None),
        "conjecture_consistent": rec.conjecture_consistent,
    }
    if a is not None:
        report["a"] = format_scalar(Fraction(a))
    return report
