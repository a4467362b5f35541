"""Scattering operators: the middle crossing of the product/coproduct
compatibility square, solved exactly, plus the braid-equation, minimal
polynomial, naturality and module-action checks.

Each identity is written once as step lists over the sparse maps of
:mod:`linmap`: the compatibility square, the braid relation and the two
naturality hexagons.

The scattering sigma solves the compatibility square
coproduct . product = (product (x) product) . (id (x) sigma (x) id)
. (coproduct (x) coproduct).  When the structure has a two-sided antipode S
and the bigebra laws hold (associativity, the unit law, coassociativity, the
counit law; see :mod:`hopf`), the square has at most one solution, in closed
form:

    sigma(a (x) b) = S(a1) (a2 b1)_(1) (x) (a2 b1)_(2) S(b2),

that is sigma = (product (x) product) . (S (x) coproduct . product (x) S)
. (coproduct (x) coproduct).  S is folded into the two outer coproducts:
the maps a -> S(a1) (x) a2 and b -> b1 (x) S(b2) are built once over the
blades, and the route applies them, then the middle product, the middle
coproduct and the two outer products, so S never acts on the four-factor
intermediate.  Any solution equals it: put the square's
routed side in for coproduct(a2 b1) and contract S(a1) a2 and b2 S(b3) to
counits by S * id = unit . counit = id * S.  So the closed form is certified
by substitution: if it solves the square it is the unique solution, and if
it does not, the square has none.  Where there is no antipode, or a law
fails, the scattering is solved instead from the linearization of the
square's routed side in its 16^n entries (:func:`scattering_system`).

A solution is read back as the sparse map it solves for by an Unknown over
the blade pairs, which numbers the entries alike (:func:`scattering_map`),
and :func:`braided_flags` checks such a map directly, returning a
:class:`BraidedReport` of four flags and their verdict.  Every scattering,
solved, closed-form or switch, is a LinearMap on blade pairs, which the
public checks use as it is once its keys are checked against the rank; its
dense 4^n x 4^n matrix over the pair basis (pair (a, b) flattened as
a * 2^n + b) is ``to_matrix(keys(n, 2))``.

This module returns mathematical values only; the reports, with their JSON
key names, are built by :mod:`xcliff.cli`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import hopf
from .clifford import CliffordStructure, Tensor2
from .exterior import Multivector, grade
from .linmap import LinearMap, Unknown, add, agree, chain, differences, keys, linearize
from .scalars import AffineSolutionSet, solve_sparse_system


def _check_scattering(sigma: LinearMap, n: int) -> None:
    if not sigma.fits(2, 1 << n):
        raise ValueError(f"scattering must be a map on pairs of rank-{n} blades")


def switch_map(n: int, graded: bool = True) -> LinearMap:
    """The transposition on the tensor square; with graded=True odd-odd
    pairs pick up a minus sign."""
    return LinearMap(2, {(a, b): {(b, a): Fraction(-1 if graded and grade(a) & grade(b) & 1
                                                   else 1)} for a, b in keys(n, 2)})


def _direct(maps) -> list:
    """coproduct . product on x (x) y."""
    return [maps.m.at(0), maps.cop.at(0)]


def _action(maps, sigma) -> list:
    """x (x) t1 (x) t2 -> (product (x) product) . (id (x) sigma (x) id)
    . (coproduct (x) id (x) id)."""
    return [maps.cop.at(0), sigma.at(1), maps.m.at(2), maps.m.at(0)]


def _routed(maps, sigma) -> list:
    """(product (x) product) . (id (x) sigma (x) id) . (coproduct (x) coproduct)."""
    return [maps.cop.at(1), *_action(maps, sigma)]


def square_defects(maps, sigma, inputs: list[tuple]):
    """(x (x) y, direct minus routed side) for each input pair on which the
    compatibility square of the maps with the crossing sigma fails, lazily."""
    return differences(inputs, _direct(maps), _routed(maps, sigma))


def compatibility_defect(structure: CliffordStructure, sigma: LinearMap) -> dict:
    """Defect of the compatibility square per input blade pair.

    For blades (x, y) the defect is coproduct(x *_eta y) minus the route
    through (product (x) product) . (id (x) sigma (x) id) . (coproduct x (x)
    coproduct y).  Returns only the nonzero defects, keyed by (x, y) bits;
    empty dict means the triple (product, coproduct, sigma) is compatible.
    """
    n = structure.n
    _check_scattering(sigma, n)
    return {x: Tensor2(n, d) for x, d in square_defects(structure.maps, sigma, keys(n, 2))}


def scattering_system(structure: CliffordStructure) -> tuple[dict, dict]:
    """The rows and right-hand sides (see linmap.linearize) of the
    compatibility square, linear in the 16^n scattering entries."""
    pairs = keys(structure.n, 2)
    return linearize(pairs, _routed(structure.maps, Unknown(pairs)), _direct(structure.maps))


def _antipode_route(maps, s, n: int) -> list:
    """(product (x) product) . (S (x) coproduct . product (x) S)
    . (coproduct (x) coproduct) on a blade pair, with S applied before the
    middle product: a -> S(a1) (x) a2 and b -> b1 (x) S(b2) are built once
    over the blades, so S never acts on the four-factor intermediate."""
    blades = keys(n, 1)
    left = LinearMap.of(blades, [maps.cop.at(0), s.at(0)])
    right = LinearMap.of(blades, [maps.cop.at(0), s.at(1)])
    return [right.at(1), left.at(0), maps.m.at(1), maps.cop.at(1), maps.m.at(0), maps.m.at(1)]


def antipode_scattering(structure: CliffordStructure) -> LinearMap | None:
    """The only possible solution of the compatibility square, built from
    the antipode S (see the module docstring); None when a bigebra law fails
    or the structure has no antipode.  The law verdicts are the structure's
    shared ones, and under them hopf.solve_antipode has already checked S on
    the antipode axiom."""
    if not hopf.bigebra_laws(structure):
        return None
    sol = hopf.antipode_solution(structure)
    if not sol.is_unique:
        return None
    s = hopf.antipode_map(structure, sol.particular)
    return LinearMap.of(keys(structure.n, 2), _antipode_route(structure.maps, s, structure.n))


def solve_sigma(structure: CliffordStructure) -> AffineSolutionSet:
    """Exact affine solution set of the compatibility square, the unknowns
    flattened as in scattering_system: the antipode's closed form when it
    applies (unique, or no solution when it fails the square), else the
    solve of scattering_system."""
    pairs = keys(structure.n, 2)
    unknown, sigma = Unknown(pairs), antipode_scattering(structure)
    if sigma is None:
        rows, rhs = scattering_system(structure)
        return solve_sparse_system(list(rows.values()), list(rhs.values()), unknown.size)
    if next(square_defects(structure.maps, sigma, pairs), None):
        return AffineSolutionSet(particular=None)
    return AffineSolutionSet(particular=unknown.flatten(sigma))


def scattering_map(structure: CliffordStructure, flat: tuple) -> LinearMap:
    """The scattering of a solution of scattering_system, as a map."""
    return Unknown(keys(structure.n, 2)).read(flat)


def closed_form_sigma(i2, j2) -> LinearMap:
    """The unique rank-1 scattering when the parameter product is not 1.

    The blade pairs (0, 0), (0, 1), (1, 0), (1, 1) stand for 1(x)1, 1(x)i,
    i(x)1, i(x)i.
    """
    i2, j2 = Fraction(i2), Fraction(j2)
    a = i2 * j2
    if a == 1:
        raise ValueError("no unique scattering when the parameter product is 1")
    s = 1 / (1 - a)
    images = {
        (0, 0): {(0, 0): 1 - a * a * s, (1, 1): -j2 * s},
        (1, 1): {(1, 1): -s, (0, 0): -i2 * s},
        (0, 1): {(1, 0): s, (0, 1): a * s},
        (1, 0): {(0, 1): s, (1, 0): a * s},
    }
    return LinearMap(2, images)


def twelve_param_family_member(p, q, r, i2) -> LinearMap:
    """A member of the compatible-scattering family at parameter product 1,
    defined for p + q + r = 0."""
    p, q, r, i2 = Fraction(p), Fraction(q), Fraction(r), Fraction(i2)
    if p + q + r != 0:
        raise ValueError("family members require p + q + r = 0")
    images = {
        (0, 0): {(0, 0): Fraction(1)},
        (0, 1): {(1, 0): Fraction(1), (0, 1): p},
        (1, 0): {(0, 1): Fraction(1), (1, 0): q},
        (1, 1): {(1, 1): r, (0, 0): -i2},
    }
    return LinearMap(2, images)


def check_min_polynomial(sigma: LinearMap, a) -> bool:
    """Evaluate the quartic (x + 1)(x - b)(x^2 + a b x - b) with
    b = (1 + a)/(1 - a) at the rank-1 scattering sigma, on the span of every
    rank-1 blade pair (a pair without a column goes to zero); true iff it
    vanishes exactly.  The three factors are applied in turn by Horner's rule
    to every pair at once, each tagged by a copy of itself in the factors
    after it."""
    a = Fraction(a)
    if a == 1:
        raise ValueError("quartic undefined at parameter product 1")
    _check_scattering(sigma, 1)
    b = (1 + a) / (1 - a)
    v = {x + x: 1 for x in keys(1, 2)}
    for coeffs in ([1, 1], [1, -b], [1, a * b, -b]):  # descending coefficients
        out: dict = {}
        for c in coeffs:
            out = add(chain(out, sigma.at(0)), v, c)
        v = out
    return not v


def braid_relation(s) -> tuple[list, list]:
    """The two sides (s (x) id)(id (x) s)(s (x) id) and (id (x) s)(s (x) id)
    (id (x) s) of the braid relation of a crossing s, as step lists."""
    return [s.at(0), s.at(1), s.at(0)], [s.at(1), s.at(0), s.at(1)]


def check_braid_equation(sigma: LinearMap, n: int) -> tuple[bool, tuple | None]:
    """True iff both braid-relation composites agree on the tensor cube,
    exactly; returns (flag, first blade triple where they differ or None)."""
    _check_scattering(sigma, n)
    for triple, _ in differences(keys(n, 3), *braid_relation(sigma)):
        return False, triple
    return True, None


@dataclass
class BraidedReport:
    """Four exact flags; the verdict is their conjunction."""

    invertible: bool
    braid_equation_holds: bool
    product_naturality_holds: bool
    coproduct_naturality_holds: bool

    @property
    def verdict_braided(self) -> bool:
        return (self.invertible and self.braid_equation_holds
                and self.product_naturality_holds and self.coproduct_naturality_holds)


def check_braided(structure: CliffordStructure, sigma: LinearMap) -> BraidedReport:
    """Braidedness of a compatible scattering: invertibility, the braid
    equation, and both naturality hexagons, all exact.  Raises if sigma does
    not solve the compatibility square in the first place."""
    if compatibility_defect(structure, sigma):
        raise ValueError("scattering does not solve the compatibility square")
    return braided_flags(structure, sigma)


def braided_flags(structure: CliffordStructure, s: LinearMap) -> BraidedReport:
    """The four flags of check_braided for the scattering map s, without
    checking that s solves the compatibility square."""
    n, maps = structure.n, structure.maps
    braid_ok, _ = check_braid_equation(s, n)
    return BraidedReport(
        invertible=s.rank() == 1 << (2 * n),
        braid_equation_holds=braid_ok,
        # sigma . (product (x) id) = (id (x) product) . (sigma (x) id) . (id (x) sigma)
        product_naturality_holds=agree(keys(n, 3), [maps.m.at(0), s.at(0)],
                                       [s.at(1), s.at(0), maps.m.at(1)]),
        # (coproduct (x) id) . sigma = (id (x) sigma) . (sigma (x) id) . (id (x) coproduct)
        coproduct_naturality_holds=agree(keys(n, 2), [s.at(0), maps.cop.at(0)],
                                         [maps.cop.at(1), s.at(0), s.at(1)]),
    )


def module_action(structure: CliffordStructure, sigma: LinearMap,
                  x: Multivector, t: Tensor2) -> Tensor2:
    """Action of x on a tensor pair: coproduct on the acting element, middle
    crossing by sigma, then pairwise products."""
    structure._check(x)
    if t.dim != structure.n:
        raise ValueError("rank mismatch")
    _check_scattering(sigma, structure.n)
    vector = {(c, *k): cx * ct for c, cx in x.terms.items() for k, ct in t.terms.items()}
    return Tensor2(structure.n, chain(vector, *_action(structure.maps, sigma)))
