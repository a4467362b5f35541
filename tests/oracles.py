"""Test-side oracles: code the tests compare the program against, which no
command runs.

Dense linear algebra over ``scalars.Matrix`` (solve, rank, invertibility and
the minimal polynomial), grade projections, the pairing of a dual tensor
square, the closed-form unshuffle coproduct, endomorphisms from blade
images, the graded switch, the 12-parameter scattering family at parameter
product 1, the module action and the braid lifts of a letter crossing.
Each is built on the program's own types and sparse maps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from xcliff.braiding import _action, _check_scattering
from xcliff.clifford import CliffordStructure, Tensor2
from xcliff.exterior import Multivector, blade_indices, blades, grade, wedge_sign
from xcliff.hopf import _check_endo
from xcliff.linmap import LinearMap, chain, keys
from xcliff.scalars import AffineSolutionSet, Matrix, solve_sparse_system, sparse_rank
from xcliff.tensor_shuffle import WordOperator, _check_crossing


# -- dense linear algebra ----------------------------------------------------

def solve_linear_system(a: Matrix, b: Sequence) -> AffineSolutionSet:
    """Exact affine solution set of A x = b."""
    rows = [{j: v for j, v in enumerate(row) if v} for row in a.rows]
    return solve_sparse_system(rows, list(b), a.ncols)


def rank(a: Matrix) -> int:
    return sparse_rank(({j: v for j, v in enumerate(row) if v} for row in a.rows), a.ncols)


def is_invertible(a: Matrix) -> bool:
    return a.is_square() and rank(a) == a.nrows


def minimal_polynomial(a: Matrix) -> list[Fraction]:
    """Monic minimal polynomial of a square matrix, as ascending coefficients.

    Finds the first linear dependency among I, A, A^2, ... so no lower-degree
    monic polynomial can annihilate A.  Returns [c0, c1, ..., 1] meaning
    c0 + c1 x + ... + x^d.
    """
    if not a.is_square():
        raise ValueError("minimal_polynomial requires a square matrix")
    n = a.nrows
    if n == 0:
        return [Fraction(1)]

    def vec(m: Matrix) -> tuple:
        return tuple(x for row in m.rows for x in row)

    powers = [Matrix.identity(n)]
    while True:
        nxt = powers[-1] @ a
        cols = [vec(p) for p in powers]
        rows = []
        for i in range(n * n):
            d = {j: cols[j][i] for j in range(len(cols)) if cols[j][i]}
            rows.append(d)
        sol = solve_sparse_system(rows, list(vec(nxt)), len(cols))
        if sol.is_consistent:
            coeffs = [-c for c in sol.particular]
            coeffs.append(Fraction(1))
            return coeffs
        powers.append(nxt)


def poly_eval_matrix(coeffs: Sequence, a: Matrix) -> Matrix:
    """Evaluate a polynomial (ascending coefficients) at a square matrix."""
    if not a.is_square():
        raise ValueError("square matrix required")
    out = Matrix.zeros(a.nrows, a.nrows)
    power = Matrix.identity(a.nrows)
    for i, c in enumerate(coeffs):
        c = Fraction(c)
        if c:
            out = out + power.scale(c)
        if i + 1 < len(coeffs):
            power = power @ a
    return out


# -- exterior ----------------------------------------------------------------

def grade_project(x: Multivector, k: int) -> Multivector:
    if not 0 <= k <= x.dim:
        raise ValueError(f"grade {k} out of range for rank {x.dim}")
    return Multivector(x.dim, {b: c for b, c in x.terms.items() if grade(b) == k})


def basis_blades_of_grade(dim: int, k: int) -> list[int]:
    return [b for b in blades(dim) if grade(b) == k]


# -- the coproduct and its pairing -------------------------------------------

def pair_tensor2(alpha: Multivector, beta: Multivector, t: Tensor2) -> Fraction:
    """Pair a dual tensor square against a Tensor2: inner factors first,
    <a (x) b, x (x) y> = <b, x> <a, y>, the pairing dual to the default
    ("inner") coproduct table."""
    total = Fraction(0)
    for (a, b), c in t.terms.items():
        cb = beta.terms.get(a)
        if not cb:
            continue
        ca = alpha.terms.get(b)
        if ca:
            total += cb * ca * c
    return total


def dkp_coproduct(x: Multivector) -> Tensor2:
    """Closed-form unshuffle coproduct (the zero-form case under the default
    inner pairing): a blade splits over all ordered subset pairs with the
    sign of re-wedging the right part past the left,
    coproduct(e_C)[(A, B)] = wedge_sign(B, A)."""
    out: dict = {}
    for c_bits, coeff in x.terms.items():
        idx = blade_indices(c_bits)
        k = len(idx)
        for mask in range(1 << k):
            a = 0
            for i in range(k):
                if (mask >> i) & 1:
                    a |= 1 << idx[i]
            b = c_bits ^ a
            out[(a, b)] = out.get((a, b), Fraction(0)) + coeff * wedge_sign(b, a)
    return Tensor2(x.dim, out)


# -- endomorphisms -----------------------------------------------------------

def apply_endo(f: LinearMap, x: Multivector) -> Multivector:
    _check_endo(f, x.dim)
    image = chain({(b,): c for b, c in x.terms.items()}, f.at(0))
    return Multivector(x.dim, {b: c for (b,), c in image.items()})


def endo_from_images(structure: CliffordStructure, images: list[Multivector]) -> LinearMap:
    """The endomorphism sending blade j to images[j]."""
    if len(images) != 1 << structure.n:
        raise ValueError("need one image per blade")
    for img in images:
        structure._check(img)
    return LinearMap(1, {(j,): {(b,): c for b, c in img.terms.items()}
                         for j, img in enumerate(images)})


# -- scatterings -------------------------------------------------------------

def switch_map(n: int, graded: bool = True) -> LinearMap:
    """The transposition on the tensor square; with graded=True odd-odd
    pairs pick up a minus sign."""
    return LinearMap(2, {(a, b): {(b, a): Fraction(-1 if graded and grade(a) & grade(b) & 1
                                                   else 1)} for a, b in keys(n, 2)})


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


# -- braid lifts -------------------------------------------------------------

def braid_lift(sigma: LinearMap, k: int, n: int) -> list[WordOperator]:
    """Operators acting with the letter crossing on adjacent positions
    (i, i+1), identity elsewhere; returned for i = 1 .. k-1."""
    _check_crossing(sigma, n)
    return [WordOperator.of_steps(n, k, [sigma.at(i)]) for i in range(k - 1)]
