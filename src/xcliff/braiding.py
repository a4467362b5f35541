"""Scattering operators: the middle crossing of the product/coproduct
compatibility square, solved exactly, plus the braid-equation,
minimal-polynomial and naturality checks.

Each identity is written once as step lists over the sparse maps of
:mod:`linmap`: the compatibility square, the braid relation and the two
naturality hexagons.  The square's certificate (:func:`square_defects`)
brackets its routed side by functoriality of (x) as (product (x) id)
. (id (x) K) . (coproduct (x) id), where the half map K = (id (x) product)
. (sigma (x) id) . (id (x) coproduct) is built once per call: sigma then
acts once per pair x2 (x) y, not once per term x1 (x) x2 (x) y1 (x) y2, and
the check stays independent of the factors lambda and rho below.

The scattering sigma solves the compatibility square
coproduct . product = (product (x) product) . (id (x) sigma (x) id)
. (coproduct (x) coproduct).  Its routed side L is linear in sigma and, with
no bigebra law, sends phi (x) psi to a (x) b -> a1 phi(a2) (x) psi(b1) b2:
L = lambda (x) rho, where lambda(phi) = id * phi and rho(psi) = psi * id act
on the 4^n entries of an endomorphism (the systems of hopf.antipode_systems).
With sigma and coproduct . product as 4^n x 4^n arrays Sigma and T over
(phi entry, psi entry), the square reads lambda Sigma rho^T = T:
:func:`solve_sigma` solves lambda Y = T, then rho Sigma^T = Y^T, each one
elimination with 4^n right-hand sides, and substitutes the particular
solution into the square.  The family sigma_0 + ker(lambda (x) rho), of
dimension 16^n - rank lambda * rank rho, is read as one elimination in all
16^n entries would give it: sigma_0 on pairs of pivot columns, and for each
pair (i, j) of columns not both pivots the kernel vector
e_i (x) e_j - P_i (x) P_j, where P_c = e_c at a pivot column c and
e_c - k_c at a free one with kernel vector k_c.

A solution is read back as the sparse map it solves for by the Unknown over
the blade pairs (:func:`scattering_map`), and :func:`braided_flags` checks
such a map directly, returning a :class:`BraidedReport` of four flags and
their verdict.  Every scattering is a LinearMap on blade pairs, which the
public checks use as it is once its keys are checked against the rank; its
dense 4^n x 4^n matrix is ``to_matrix(keys(n, 2))``.

This module returns mathematical values only; the reports, with their JSON
key names, are built by :mod:`xcliff.cli`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import hopf
from .clifford import CliffordStructure, Tensor2
from .linmap import ONE, LinearMap, Unknown, add, agree, differences, keys
from .scalars import AffineSolutionSet, solve_sparse_system


def _check_scattering(sigma: LinearMap, n: int) -> None:
    if not sigma.fits(2, 1 << n):
        raise ValueError(f"scattering must be a map on pairs of rank-{n} blades")


def _direct(maps) -> list:
    """coproduct . product on x (x) y."""
    return [maps.m.at(0), maps.cop.at(0)]


def square_defects(maps, sigma, inputs: list[tuple]):
    """(x (x) y, direct minus routed side) for each input pair on which the
    compatibility square of the maps with the crossing sigma fails, lazily.
    The routed side runs as (product (x) id) . (id (x) K) . (coproduct (x) id)
    with the half map K = (id (x) product) . (sigma (x) id) . (id (x)
    coproduct), built once on the pairs (x2, y) that the inputs reach."""
    halves = dict.fromkeys((a, y) for x, y in inputs for _, a in maps.cop.cols.get((x,), {}))
    half = LinearMap.of(list(halves), [maps.cop.at(1), sigma.at(0), maps.m.at(1)])
    return differences(inputs, _direct(maps), [maps.cop.at(0), half.at(1), maps.m.at(0)])


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


def _projections(sol: AffineSolutionSet) -> dict:
    """{f: e_f - k_f} for a factor's kernel vectors k_f, 1 at f, their last nonzero entry."""
    return {(f := max(i for i, v in enumerate(k) if v)):
            {i: -v for i, v in enumerate(k) if v and i != f} for k in sol.nullspace_basis}


def solve_sigma(structure: CliffordStructure) -> AffineSolutionSet:
    """Exact affine solution set of the compatibility square, its unknowns
    numbered by Unknown over the blade pairs, from the two factors lambda
    and rho of its routed side (see the module docstring)."""
    n, maps = structure.n, structure.maps
    blades = keys(n, 1)
    entry, pair, size = Unknown(blades), Unknown(keys(n, 2)), 1 << (2 * n)
    # each factor's rows keyed (x, u), listed by entry.column(x, u)
    rho, lam = ([rows.get((x, u), {}) for u in blades for x in blades]
                for rows, _ in hopf.antipode_systems(structure))
    t: list[dict] = [{} for _ in range(size)]
    for (x, y), col in LinearMap.of(pair.outputs, _direct(maps)).cols.items():
        for (u, v), c in col.items():
            t[entry.column((x,), (u,))][entry.column((y,), (v,))] = c
    left = solve_sparse_system(lam, t, size, size)
    if not left.is_consistent:
        return left
    y = left.particular  # y[i * size + j] is Y[i][j]
    right = solve_sparse_system(rho, [{i: c for i in range(size) if (c := y[i * size + j])}
                                      for j in range(size)], size, size)
    if not right.is_consistent:
        return right

    def column(i: int, j: int) -> int:
        """The pair unknown of phi entry i = (a -> c), psi entry j = (b -> d)."""
        (c, a), (d, b) = divmod(i, 1 << n), divmod(j, 1 << n)
        return pair.column((a, b), (c, d))

    zero = Fraction(0)
    particular = [zero] * pair.size
    for k, v in enumerate(right.particular):  # Sigma^T, so k = j * size + i
        particular[column(k % size, k // size)] = v
    if next(square_defects(maps, pair.read(particular), pair.outputs), None):
        raise ArithmeticError("the factors' solution does not solve the compatibility square")
    lp, rp = _projections(left), _projections(right)
    basis = []
    for i, j in sorted(((i, j) for i in range(size) for j in range(size) if i in lp or j in rp),
                       key=lambda ij: column(*ij)):
        v = [zero] * pair.size
        v[column(i, j)] = ONE
        for p, x in lp.get(i, {i: ONE}).items():
            for q, w in rp.get(j, {j: ONE}).items():
                v[column(p, q)] = -x * w
        basis.append(tuple(v))
    return AffineSolutionSet(particular=tuple(particular), nullspace_basis=tuple(basis))


def scattering_map(structure: CliffordStructure, flat: tuple) -> LinearMap:
    """The scattering of a solution of solve_sigma, as a map."""
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


def check_min_polynomial(sigma: LinearMap, a) -> bool:
    """Evaluate the quartic (x + 1)(x - b)(x^2 + a b x - b) with
    b = (1 + a)/(1 - a) at the rank-1 scattering sigma, on the span of every
    rank-1 blade pair (a pair without a column goes to zero); true iff it
    vanishes exactly.  The three factors, each times a nonzero integer that
    clears its denominators, are applied in turn by Horner's rule in integers
    to every pair at once, each tagged by a copy of itself in the factors
    after it; sigma acts as d sigma, so x^j of a degree-m factor has d^(m-j)."""
    a = Fraction(a)
    if a == 1:
        raise ValueError("quartic undefined at parameter product 1")
    _check_scattering(sigma, 1)
    p, q = a.numerator, a.denominator
    v = {x + x: 1 for x in keys(1, 2)}
    # descending coefficients of x + 1, (q - p)(x - b) and q (q - p)(x^2 + a b x - b)
    for coeffs in ([1, 1], [q - p, -(q + p)], [q * (q - p), p * (q + p), -q * (q + p)]):
        out: dict = {}
        for k, c in enumerate(coeffs):
            [out], d = sigma.act([out], 0)
            out = add(out, v, c * d ** k)
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
