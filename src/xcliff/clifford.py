"""Deformed exterior (Clifford) algebra pair and the duality coproduct.

A structure holds two bilinear forms: eta on vectors deforms the wedge into
the Clifford product on multivectors, xi on co-vectors deforms the dual wedge
the same way.  The coproduct on multivectors is obtained by transposing the
dual product's structure constants through the determinant pairing.  So a
structure is two cliffordizations and one transpose, built once as sparse
maps; its tables are views read off them (see CliffordStructure), and
only the verdicts of the bigebra laws are kept on it besides.  A coproduct
lands in Tensor2, the sparse tensor square: a :class:`linmap.SparseVector`
keyed by blade pairs, written as the report's coproduct table and never
read back.  A structure is built from its rank and forms; cli alone reads
and writes the config format.

Conventions (each is load-bearing; tests pin all of them):

* Product: the cliffordization of the wedge by eta,
  product = wedge . (id (x) B (x) id) . (split (x) split), where split is the
  exterior unshuffle coproduct and B contracts a blade pair of grade k to
  (-1)^floor(k/2) det[eta(s_i, t_j)].  On blades
  e_S *_eta e_T = sum wedge_sign(S1, S2) wedge_sign(T1, T2) wedge_sign(S1, T2)
  (-1)^floor(k/2) det[eta(s2_i, t1_j)] e_(S1+T2) over the splits S = S1+S2,
  T = T1+T2 with |S2| = |T1| = k.  It equals the recursion the tests check
  it against: v *_eta x = v ^ x + contract(eta(v, .), x), left slot of eta
  feeding the contraction, with blades peeling their vectors left to right
  via (v ^ x) *_eta y = v *_eta (x *_eta y) - (eta(v).x) *_eta y, the unique
  extension making the product associative and unital.
* The dual product is the same composite with xi in the place of eta.
* The tensor-square pairing is a convention, chosen per structure with
  pairing=.  The default "inner" pairs inner factors first,
  <a (x) b, x (x) y> = <b, x> <a, y>, and gives the coproduct constants
  coproduct(e_C)[(A, B)] = (eps_B *_xi eps_A)[C]; at zero xi that is the
  ungraded flip of the standard unshuffle, with sign wedge_sign(B, A).
  "straight" pairs <a (x) b, x (x) y> = <a, x> <b, y> and gives
  coproduct(e_C)[(A, B)] = (eps_A *_xi eps_B)[C]; at zero xi that is the
  standard super-Hopf unshuffle of the exterior algebra, with sign
  wedge_sign(A, B).  At zero xi both are signed unshuffles with grade-(1,1)
  antisymmetry, so neither is singled out by those signs.  The two tables
  are each other's (A, B) -> (B, A) transpose and coincide at rank 1.
  This module alone knows that transpose: the structure's coproduct map and
  the unit-sign check (:func:`coproduct_unit_signs_ok`, coproduct(1)
  against the signed Gram determinants) both key through it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .exterior import (
    Multivector,
    blade_indices,
    blade_key,
    blade_name,
    blades,
    grade,
    wedge_sign,
)
from .linmap import LinearMap, SparseVector, chain, differences, keys, structure_maps
from .scalars import Matrix, echo, format_scalar

PAIRINGS = ("inner", "straight")


class Tensor2(SparseVector):
    """Sparse element of (multivector space) tensor (multivector space):
    {(blade, blade): Fraction}."""

    __slots__ = ()

    def __init__(self, dim: int, terms: dict | None = None):
        terms = terms or {}
        top = 1 << dim
        for a, b in terms:
            if not (0 <= a < top and 0 <= b < top):
                raise ValueError("blade pair out of range")
        super().__init__(dim, terms)

    @classmethod
    def outer(cls, x: Multivector, y: Multivector) -> "Tensor2":
        x._check(y)
        return cls(x.dim, {(a, b): ca * cb
                           for a, ca in x.terms.items()
                           for b, cb in y.terms.items()})

    @staticmethod
    def _term(pair: tuple, c: Fraction) -> str:
        a, b = pair
        return f"{format_scalar(c)}*{blade_name(a)}(x){blade_name(b)}"

    def to_json(self) -> list:
        return [[blade_key(a), blade_key(b), format_scalar(c)]
                for (a, b), c in sorted(self.terms.items())]


def _transposed(pairing: str, p: int, q: int) -> tuple[int, int]:
    """The coproduct key of the dual product's constant (eps_p *_xi eps_q)[C]:
    (q, p) under the inner pairing, (p, q) under the straight one."""
    return (q, p) if pairing == "inner" else (p, q)


def _signed_gram(form: Matrix, s: int, t: int) -> Fraction:
    """(-1)^floor(k/2) det[form(s_i, t_j)] for a grade-k blade pair."""
    g = xi_gram_determinant(form, s, t)
    return -g if grade(s) % 4 > 1 else g


def cliffordization(form: Matrix) -> LinearMap:
    """The product deformed by the bilinear form B, as a map on blade pairs
    (S, T): the composite that splits both blades, contracts the inner pair
    (S2, T1) and wedges the outer pair (S1, T2).  split is the exterior
    unshuffle coproduct e_S -> sum of wedge_sign(S1, S2) e_S1 (x) e_S2 over
    the splits S = S1 + S2, gram contracts a grade-k pair (S2, T1) to
    (-1)^floor(k/2) det[B(s2_i, t1_j)], and wedge is
    e_S (x) e_T -> wedge_sign(S, T) e_(S+T)."""
    n = form.nrows
    every = blades(n)
    split = LinearMap(1, {(c,): {(a, c ^ a): wedge_sign(a, c ^ a) for a in every if a & c == a}
                          for c in every})
    gram = LinearMap(2, {(s, t): {(): g} for s in every for t in every
                         if grade(s) == grade(t) and (g := _signed_gram(form, s, t))})
    wedge = LinearMap(2, {(s, t): {(s | t,): wedge_sign(s, t)}
                          for s in every for t in every if not s & t})
    return LinearMap.of(keys(n, 2), [split.at(0), split.at(2), gram.at(1), wedge.at(0)])


class CliffordStructure:
    """A rank, a form on vectors and a form on co-vectors.  On construction
    ``maps.m`` is built as the cliffordization by eta, and ``maps.cop`` as
    the cliffordization by xi (the dual product) transposed: the one stored
    copy of the structure constants.  The dual product is the product of
    the structure with xi in the place of eta.  The two tables are read-only
    views of these maps, read off on first use; the verdicts of the bigebra
    laws are kept in ``laws`` on first use.  pairing ("inner" or
    "straight", see the module docstring) fixes how the coproduct is
    transposed from the dual product."""

    def __init__(self, n: int, eta: Matrix, xi: Matrix, pairing: str = "inner"):
        if pairing not in PAIRINGS:
            raise ValueError(f"pairing must be one of {', '.join(PAIRINGS)}, "
                             f"got {echo(pairing)}")
        if eta.nrows != n or eta.ncols != n:
            raise ValueError("eta must be n x n")
        if xi.nrows != n or xi.ncols != n:
            raise ValueError("xi must be n x n")
        self.n = n
        self.eta = eta
        self.xi = xi
        self.pairing = pairing
        dual = cliffordization(xi)
        # the columns come out in blade order, as 1 *_xi eps_c = eps_c comes first
        cop = {c: {_transposed(pairing, p, q): v for (p, q), v in col.items()}
               for c, col in dual.transpose().cols.items()}
        self.maps = structure_maps(cliffordization(eta), LinearMap(1, cop))
        # the bigebra law verdicts {law: bool}, filled on first use by hopf
        self.laws: dict = {}

    @cached_property
    def product_table(self) -> dict:
        """{(s, t): e_s *_eta e_t as a sparse {blade: coeff} dict}."""
        return {st: {c: v for (c,), v in col.items()} for st, col in self.maps.m.cols.items()}

    @cached_property
    def coproduct_table(self) -> dict:
        """{c: coproduct(e_c) as a Tensor2}."""
        return {c: Tensor2(self.n, col) for (c,), col in self.maps.cop.cols.items()}

    # -- algebra ----------------------------------------------------------

    def clifford_product(self, x: Multivector, y: Multivector) -> Multivector:
        self._check(x)
        self._check(y)
        pairs = {(s, t): a * b for s, a in x.terms.items() for t, b in y.terms.items()}
        return Multivector(self.n, {c: v for (c,), v in chain(pairs, self.maps.m.at(0)).items()})

    # -- cogebra ----------------------------------------------------------

    def coproduct(self, x: Multivector) -> Tensor2:
        self._check(x)
        return Tensor2(self.n, chain({(c,): v for c, v in x.terms.items()}, self.maps.cop.at(0)))

    def unit(self, c) -> Multivector:
        return Multivector.scalar(self.n, c)

    def _check(self, x):
        if x.dim != self.n:
            raise ValueError(f"rank mismatch: structure has {self.n}, value has {x.dim}")


def check_counit_is_algebra_map(structure: CliffordStructure):
    """True iff counit . product = counit (x) counit on all blade pairs;
    returns (flag, first failing pair of blades or None)."""
    maps, n = structure.maps, structure.n
    for (s, t), _ in differences(keys(n, 2), [maps.m.at(0), maps.counit.at(0)],
                                 [maps.counit.at(0), maps.counit.at(0)]):
        return False, (Multivector.blade(n, s), Multivector.blade(n, t))
    return True, None


def check_unit_is_cogebra_map(structure: CliffordStructure):
    """True iff coproduct . unit = unit (x) unit; returns (flag, the defect
    coproduct(1) - 1 (x) 1 as a Tensor2, or None)."""
    maps = structure.maps
    for _, defect in differences(keys(structure.n, 0), [maps.unit.at(0), maps.cop.at(0)],
                                 [maps.unit.at(0), maps.unit.at(1)]):
        return False, Tensor2(structure.n, defect)
    return True, None


def coproduct_grades_ok(structure: CliffordStructure) -> bool:
    """Every term e_A (x) e_B of coproduct(e_C) has |A|+|B| in
    {|C|, |C|+2, ...}: the dual product only drops grade in even steps."""
    for c_bits in blades(structure.n):
        gc = grade(c_bits)
        for (a, b) in structure.coproduct_table[c_bits].terms:
            ga = grade(a) + grade(b)
            if ga < gc or (ga - gc) % 2:
                return False
    return True


def coproduct_unit_signs_ok(structure: CliffordStructure) -> bool:
    """coproduct(1) holds exactly the scalar parts of the dual products,
    (eps_p *_xi eps_q)[1] = (-1)^floor(k/2) det[xi(p_i, q_j)] over the
    grade-k blade pairs, keyed as the pairing transposes them."""
    every = blades(structure.n)
    expected = {_transposed(structure.pairing, p, q): g for p in every for q in every
                if grade(p) == grade(q) and (g := _signed_gram(structure.xi, p, q))}
    return structure.coproduct_table[0].terms == expected


def xi_gram_determinant(form: Matrix, b_bits: int, a_bits: int) -> Fraction:
    """det [ form(e_{b_i}, e_{a_j}) ] over the ascending indices of the two
    blades, for any bilinear form (zero when the grades differ).  For the
    product deformed by that form, the scalar part of e_B * e_A equals
    (-1)^floor(k/2) times this (grade-k blades)."""
    bi = blade_indices(b_bits)
    aj = blade_indices(a_bits)
    if len(bi) != len(aj):
        return Fraction(0)
    return _det([[form[(r, c)] for c in aj] for r in bi])


def _det(rows: list) -> Fraction:
    # cofactor expansion along the first row; only used on tiny Gram blocks
    if not rows:
        return Fraction(1)
    total = Fraction(0)
    for j, v in enumerate(rows[0]):
        if v:
            term = v * _det([row[:j] + row[j + 1:] for row in rows[1:]])
            total += term if j % 2 == 0 else -term
    return total
