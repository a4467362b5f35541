"""Convolution algebra on endomorphisms and the antipode solver.

The convolution of f and g is the composite product . (f (x) g) .
coproduct, written once as a step list over the sparse maps of
:mod:`linmap`.  An antipode is a two-sided convolution inverse of the
identity against unit . counit; its linear system is the linearization of
the same two composites, S * id and id * S, in the entries of S.

A solution of that system is read back as the sparse map S by the same
Unknown that numbered its entries (:func:`antipode_map`), and the axiom is
checked on S with the same two composites (:func:`is_antipode`).  Dense
matrices over the blade basis in ascending bitmask order (column j holds the
image of blade j) remain only where a public function takes or returns one:
``convolution``, ``apply_endo``, ``endo_from_images``, ``identity_endo``,
``unit_counit_endo``, ``solution_to_endo`` and the closed forms.

The bigebra laws the antipode argument rests on (associativity, the unit
law, coassociativity and the counit law) are step-list identities here too,
shared by the ``verify`` hard checks and the scattering's closed form.  The
antipode is solved once per structure and kept on it
(:func:`antipode_solution`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .clifford import CliffordStructure
from .exterior import Multivector
from .linmap import LinearMap, Unknown, agree, chain, keys, linearize
from .scalars import AffineSolutionSet, Matrix, format_scalar, solve_sparse_system


def identity_endo(structure: CliffordStructure) -> Matrix:
    return Matrix.identity(1 << structure.n)


def apply_endo(f: Matrix, x: Multivector) -> Multivector:
    basis = keys(x.dim, 1)
    if f.ncols != len(basis):
        raise ValueError("endomorphism shape does not match rank")
    image = chain({(b,): c for b, c in x.terms.items()}, LinearMap.from_matrix(f, basis).at(0))
    return Multivector(x.dim, {b: c for (b,), c in image.items()})


def endo_from_images(structure: CliffordStructure, images: list[Multivector]) -> Matrix:
    """Matrix of the endomorphism sending blade j to images[j]."""
    basis = keys(structure.n, 1)
    if len(images) != len(basis):
        raise ValueError("need one image per blade")
    for img in images:
        structure._check(img)
    return LinearMap(1, {(j,): {(b,): c for b, c in img.terms.items()}
                         for j, img in enumerate(images)}).to_matrix(basis)


def _convolution(maps, f, g) -> list:
    """f * g = product . (f (x) g) . coproduct."""
    return [maps.cop.at(0), f.at(0), g.at(1), maps.m.at(0)]


def _unit_counit(maps) -> list:
    return [maps.counit.at(0), maps.unit.at(0)]


def unit_counit_endo(structure: CliffordStructure) -> Matrix:
    """u . counit: kills positive grades, fixes the scalar blade."""
    basis = keys(structure.n, 1)
    return LinearMap.of(basis, _unit_counit(structure.maps)).to_matrix(basis)


def convolution(f: Matrix, g: Matrix, structure: CliffordStructure) -> Matrix:
    """(f * g)(x) = product . (f (x) g) . coproduct, extended bilinearly."""
    dim = 1 << structure.n
    if f.nrows != dim or f.ncols != dim or g.nrows != dim or g.ncols != dim:
        raise ValueError("endomorphism shape does not match rank")
    basis = keys(structure.n, 1)
    steps = _convolution(structure.maps, LinearMap.from_matrix(f, basis),
                         LinearMap.from_matrix(g, basis))
    return LinearMap.of(basis, steps).to_matrix(basis)


def associative(m: LinearMap, n: int) -> bool:
    """m . (m (x) id) = m . (id (x) m) on every rank-n blade triple."""
    return agree(keys(n, 3), [m.at(0), m.at(0)], [m.at(1), m.at(0)])


def product_associative(structure: CliffordStructure) -> bool:
    return associative(structure.maps.m, structure.n)


def unital(structure: CliffordStructure) -> bool:
    """product . (unit (x) id) = id = product . (id (x) unit)."""
    unit, m = structure.maps.unit, structure.maps.m
    return all(agree(keys(structure.n, 1), [unit.at(side), m.at(0)], []) for side in (0, 1))


def coassociative(structure: CliffordStructure) -> bool:
    """(coproduct (x) id) . coproduct = (id (x) coproduct) . coproduct."""
    cop = structure.maps.cop
    return agree(keys(structure.n, 1), [cop.at(0), cop.at(0)], [cop.at(0), cop.at(1)])


def counital(structure: CliffordStructure) -> bool:
    """(counit (x) id) . coproduct = id = (id (x) counit) . coproduct."""
    cop, counit = structure.maps.cop, structure.maps.counit
    return all(agree(keys(structure.n, 1), [cop.at(0), counit.at(side)], [])
               for side in (0, 1))


def bigebra_laws(structure: CliffordStructure) -> bool:
    """Associativity, the unit law, coassociativity and the counit law."""
    return (product_associative(structure) and unital(structure)
            and coassociative(structure) and counital(structure))


def _antipode_axiom(maps, s) -> list[tuple[list, list]]:
    """The two sides of S * id = u . counit and of id * S = u . counit."""
    return [(_convolution(maps, f, g), _unit_counit(maps))
            for f, g in ((s, maps.id), (maps.id, s))]


def _antipode_unknown(n: int) -> Unknown:
    """S solved for: its entry s[p, a] (p output blade, a input blade) is
    unknown number p * 2^n + a."""
    return Unknown(1, keys(n, 1), lambda a, p: (p[0] << n) + a[0])


def antipode_systems(structure: CliffordStructure) -> list[tuple[dict, dict]]:
    """The rows and right-hand sides (see linmap.linearize) of the two sides
    of the antipode axiom, in the unknown entries of S."""
    basis, s = keys(structure.n, 1), _antipode_unknown(structure.n)
    return [linearize(basis, lhs, rhs) for lhs, rhs in _antipode_axiom(structure.maps, s)]


def solve_antipode(structure: CliffordStructure) -> AffineSolutionSet:
    """Exact solution set of the two-sided antipode axiom, the unknowns
    flattened as in antipode_systems."""
    rows, rhs = [], []
    for eq_rows, eq_rhs in antipode_systems(structure):
        rows += eq_rows.values()
        rhs += eq_rhs.values()
    return solve_sparse_system(rows, rhs, 1 << (2 * structure.n))


def antipode_solution(structure: CliffordStructure) -> AffineSolutionSet:
    """solve_antipode(structure), solved on first use and kept on the
    structure (``structure.antipode``), so that every caller shares it."""
    if structure.antipode is None:
        structure.antipode = solve_antipode(structure)
    return structure.antipode


def antipode_map(structure: CliffordStructure, flat: tuple) -> LinearMap:
    """The map S of a solution of antipode_systems."""
    return _antipode_unknown(structure.n).read(flat, keys(structure.n, 1))


def is_antipode(structure: CliffordStructure, s: LinearMap) -> bool:
    """Both sides of the antipode axiom hold for the map s."""
    return all(agree(keys(structure.n, 1), lhs, rhs)
               for lhs, rhs in _antipode_axiom(structure.maps, s))


def solution_to_endo(structure: CliffordStructure, flat: tuple) -> Matrix:
    return antipode_map(structure, flat).to_matrix(keys(structure.n, 1))


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


def antipode_report_json(structure: CliffordStructure, a=None) -> dict:
    """Per-instance report: closed-form parameter when given, the solved
    antipode matrix or null, and the conjecture consistency flag."""
    sol = antipode_solution(structure)
    rec = conjecture_record(structure, sol)
    report = {
        "antipode": (solution_to_endo(structure, sol.particular).to_json()
                     if sol.is_consistent else None),
        "conjecture_consistent": rec.conjecture_consistent,
    }
    if a is not None:
        report["a"] = format_scalar(Fraction(a))
    return report
