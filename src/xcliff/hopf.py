"""Convolution algebra on endomorphisms and the antipode solver.

The convolution of f and g is the composite product . (f (x) g) .
coproduct, written once as a step list over the sparse maps of
:mod:`linmap`.  An antipode is a two-sided convolution inverse of the
identity against unit . counit.

The bigebra laws (associativity, the unit law, coassociativity and the
counit law) are step-list identities here too.  Each is evaluated once per
structure and kept on it (``structure.laws``), shared by the ``verify`` hard
checks, the antipode solver and the scattering's closed form.  When they
hold, the convolution algebra is associative with unit u . counit, so an
antipode is unique and exists iff the constant term c_0 of the minimal
polynomial of id is nonzero.  :func:`solve_antipode` finds that polynomial
as a Krylov sequence: the powers P_0 = u . counit, P_1 = id,
P_k = P_(k-1) * id until the first P_k = sum_(j<k) c_j P_j, each test one
small solve in the coefficients c_j (:func:`id_powers`).  Then
S = (P_(k-1) - sum_(j>=1) c_j P_(j-1)) / c_0 is substituted back into the
axiom as a certificate, or there is no antipode when c_0 = 0.  Where a law
fails, the antipode is solved instead from the linearization of the two
composites S * id and id * S in the 4^n entries of S
(:func:`solve_antipode_system`), which the tests also use as the oracle.

A solution is read back as the sparse map S by an Unknown over the blades,
which numbers the entries alike (:func:`antipode_map`), and the axiom is
checked on S with the same two composites (:func:`is_antipode`).  Every endomorphism,
the closed form included, is a LinearMap of arity 1 over the blades.
The antipode is solved once per structure and kept on it
(:func:`antipode_solution`).

This module returns mathematical values only.  The reports, the
existence-conjecture record and the dense JSON matrix of S among them, are
built by :mod:`xcliff.cli`.
"""
from __future__ import annotations

from fractions import Fraction
from functools import wraps

from .clifford import CliffordStructure
from .linmap import LinearMap, Unknown, add, agree, keys, linearize
from .scalars import AffineSolutionSet, solve_sparse_system


def _check_endo(f: LinearMap, n: int) -> None:
    if not f.fits(1, 1 << n):
        raise ValueError("endomorphism shape does not match rank")


def _convolution(maps, f, g) -> list:
    """f * g = product . (f (x) g) . coproduct."""
    return [maps.cop.at(0), f.at(0), g.at(1), maps.m.at(0)]


def _unit_counit(maps) -> list:
    return [maps.counit.at(0), maps.unit.at(0)]


def unit_counit_endo(structure: CliffordStructure) -> LinearMap:
    """u . counit: kills positive grades, fixes the scalar blade."""
    return LinearMap.of(keys(structure.n, 1), _unit_counit(structure.maps))


def convolution(f: LinearMap, g: LinearMap, structure: CliffordStructure) -> LinearMap:
    """(f * g)(x) = product . (f (x) g) . coproduct, extended bilinearly."""
    _check_endo(f, structure.n)
    _check_endo(g, structure.n)
    return LinearMap.of(keys(structure.n, 1), _convolution(structure.maps, f, g))


def associative(m: LinearMap, n: int) -> bool:
    """m . (m (x) id) = m . (id (x) m) on every rank-n blade triple."""
    return agree(keys(n, 3), [m.at(0), m.at(0)], [m.at(1), m.at(0)])


def _kept(law):
    """A law of a structure, evaluated on first use and kept in
    ``structure.laws`` under its name, so that every caller shares it."""
    @wraps(law)
    def kept(structure: CliffordStructure) -> bool:
        verdicts = structure.laws
        if law.__name__ not in verdicts:
            verdicts[law.__name__] = law(structure)
        return verdicts[law.__name__]
    return kept


@_kept
def product_associative(structure: CliffordStructure) -> bool:
    return associative(structure.maps.m, structure.n)


@_kept
def unital(structure: CliffordStructure) -> bool:
    """product . (unit (x) id) = id = product . (id (x) unit)."""
    unit, m = structure.maps.unit, structure.maps.m
    return all(agree(keys(structure.n, 1), [unit.at(side), m.at(0)], []) for side in (0, 1))


@_kept
def coassociative(structure: CliffordStructure) -> bool:
    """(coproduct (x) id) . coproduct = (id (x) coproduct) . coproduct."""
    cop = structure.maps.cop
    return agree(keys(structure.n, 1), [cop.at(0), cop.at(0)], [cop.at(0), cop.at(1)])


@_kept
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


def antipode_systems(structure: CliffordStructure) -> list[tuple[dict, dict]]:
    """The rows and right-hand sides (see linmap.linearize) of the two sides
    of the antipode axiom, in the unknown entries of S."""
    basis = keys(structure.n, 1)
    return [linearize(basis, lhs, rhs)
            for lhs, rhs in _antipode_axiom(structure.maps, Unknown(basis))]


def solve_antipode_system(structure: CliffordStructure) -> AffineSolutionSet:
    """Exact solution set of the two-sided antipode axiom, solved from
    antipode_systems: 2 * 4^n rows in the 4^n entries of S."""
    rows, rhs = [], []
    for eq_rows, eq_rhs in antipode_systems(structure):
        rows += eq_rows.values()
        rhs += eq_rhs.values()
    return solve_sparse_system(rows, rhs, Unknown(keys(structure.n, 1)).size)


def id_powers(structure: CliffordStructure) -> tuple[list[LinearMap], tuple]:
    """The convolution powers P_0 = unit . counit, P_1 = id and
    P_k = P_(k-1) * id, up to the first P_k that is a combination
    sum_(j<k) c_j P_j; returns [P_0, ..., P_(k-1)] and (c_0, ..., c_(k-1)).
    When the bigebra laws hold, P_k = id^k and x^k - sum c_j x^j is the
    minimal polynomial of id in the convolution algebra."""
    powers: list[LinearMap] = []
    rows: dict = {}  # entry (input, output) -> {j: entry of P_j}
    p = unit_counit_endo(structure)
    while True:
        target = p.entries()
        # P_k is independent of the earlier powers if it has an entry none of
        # them has; else it is solved for on the entries they have
        if powers and target.keys() <= rows.keys():
            sol = solve_sparse_system(list(rows.values()),
                                      [target.get(e, 0) for e in rows], len(powers))
            if sol.is_consistent:
                return powers, sol.particular
        for e, c in target.items():
            rows.setdefault(e, {})[len(powers)] = c
        powers.append(p)
        p = structure.maps.id if len(powers) == 1 else convolution(p, structure.maps.id, structure)


def solve_antipode(structure: CliffordStructure) -> AffineSolutionSet:
    """Exact solution set of the two-sided antipode axiom, the unknowns
    flattened as in antipode_systems.

    When the bigebra laws hold, the convolution algebra is associative and
    unital, so S is the inverse of id: from the minimal polynomial of id
    (id_powers), S = (P_(k-1) - sum_(j>=1) c_j P_(j-1)) / c_0 when c_0 != 0,
    checked on the axiom by substitution, and there is no antipode when
    c_0 = 0.  When a law fails, solve_antipode_system decides instead."""
    if not bigebra_laws(structure):
        return solve_antipode_system(structure)
    powers, c = id_powers(structure)
    if not c[0]:
        return AffineSolutionSet(particular=None)
    entries = powers[-1].entries()
    for j in range(1, len(powers)):
        entries = add(entries, powers[j - 1].entries(), -c[j])
    cols: dict = {}
    for (x, y), v in entries.items():
        cols.setdefault(x, {})[y] = v / c[0]
    s = LinearMap(1, cols)
    if not is_antipode(structure, s):
        raise ArithmeticError("the inverse of id does not satisfy the antipode axiom")
    return AffineSolutionSet(particular=Unknown(keys(structure.n, 1)).flatten(s))


def antipode_solution(structure: CliffordStructure) -> AffineSolutionSet:
    """solve_antipode(structure), solved on first use and kept on the
    structure (``structure.antipode``), so that every caller shares it."""
    if structure.antipode is None:
        structure.antipode = solve_antipode(structure)
    return structure.antipode


def antipode_map(structure: CliffordStructure, flat: tuple) -> LinearMap:
    """The map S of a solution of antipode_systems."""
    return Unknown(keys(structure.n, 1)).read(flat)


def is_antipode(structure: CliffordStructure, s: LinearMap) -> bool:
    """Both sides of the antipode axiom hold for the map s."""
    return all(agree(keys(structure.n, 1), lhs, rhs)
               for lhs, rhs in _antipode_axiom(structure.maps, s))


def complex_antipode_closed_form(a) -> LinearMap:
    """Rank-1 antipode in closed form: fixes the scalar blade up to 1/(1-a),
    negates the vector the same way.  Domain error at a = 1, mirroring
    nonexistence."""
    a = Fraction(a)
    if a == 1:
        raise ValueError("no antipode exists when the composite form is the identity (a = 1)")
    s = 1 / (1 - a)
    return LinearMap(1, {(0,): {(0,): s}, (1,): {(1,): -s}})
