"""Deformed exterior (Clifford) algebra pair and the duality coproduct.

A structure holds two bilinear forms: eta on vectors deforms the wedge into
the Clifford product on multivectors, xi on co-vectors deforms the dual wedge
the same way.  The coproduct on multivectors is obtained by transposing the
dual product's structure constants through the determinant pairing.

Conventions (each is load-bearing; tests pin all of them):

* Vector product: v *_eta x = v ^ x + contract(eta(v, .), x), left slot of
  eta feeding the contraction; blades peel their vectors left to right via
  (v ^ x) *_eta y = v *_eta (x *_eta y) - (eta(v).x) *_eta y, which is the
  unique extension making the product associative and unital.
* The dual product mirrors this with xi in the vector role on co-vectors.
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
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .exterior import (
    DualMultivector,
    Multivector,
    blade_indices,
    blade_key,
    blade_name,
    blades,
    check_dim,
    contract_sign,
    grade,
    parse_blade_key,
    wedge_sign,
)
from .linmap import StructureMaps, add, chain, differences, keys, structure_maps
from .scalars import Matrix, format_scalar, parse_scalar

PAIRINGS = ("inner", "straight")


class Tensor2:
    """Sparse element of (multivector space) tensor (multivector space)."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict | None = None):
        top = 1 << dim
        clean = {}
        for (a, b), c in (terms or {}).items():
            if not (0 <= a < top and 0 <= b < top):
                raise ValueError("blade pair out of range")
            c = Fraction(c)
            if c:
                clean[(a, b)] = c
        self.dim = dim
        self.terms = clean

    @classmethod
    def outer(cls, x: Multivector, y: Multivector) -> "Tensor2":
        x._check(y)
        return cls(x.dim, {(a, b): ca * cb
                           for a, ca in x.terms.items()
                           for b, cb in y.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, Tensor2) and self.dim == other.dim
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "Tensor2") -> "Tensor2":
        self._check(other)
        return Tensor2(self.dim, add(self.terms, other.terms))

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        return self + -other

    def __neg__(self):
        return Tensor2(self.dim, {k: -c for k, c in self.terms.items()})

    def __rmul__(self, c) -> "Tensor2":
        return Tensor2(self.dim, add({}, self.terms, Fraction(c)))

    __mul__ = __rmul__

    def coefficient(self, a: int, b: int) -> Fraction:
        return self.terms.get((a, b), Fraction(0))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{format_scalar(c)}*{blade_name(a)}(x){blade_name(b)}"
                          for (a, b), c in sorted(self.terms.items()))

    def to_json(self) -> list:
        return [[blade_key(a), blade_key(b), format_scalar(c)]
                for (a, b), c in sorted(self.terms.items())]

    @classmethod
    def from_json(cls, dim: int, data: list) -> "Tensor2":
        return cls(dim, {(parse_blade_key(a), parse_blade_key(b)): parse_scalar(c)
                         for a, b, c in data})

    def _check(self, other: "Tensor2"):
        if self.dim != other.dim:
            raise ValueError("rank mismatch")


def pair_tensor2(alpha: DualMultivector, beta: DualMultivector, t: Tensor2) -> Fraction:
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


def _form_rows(form: Matrix) -> list[list[tuple[int, Fraction]]]:
    return [[(j, v) for j, v in enumerate(row) if v] for row in form.rows]


def _vector_product(rows, v: int, x: dict) -> dict:
    # v *_B x = v ^ x + B(v, .) . x on sparse {blade: coeff} dicts
    out: dict = {}
    vbit = 1 << v
    for bits, c in x.items():
        if not bits & vbit:
            sg = wedge_sign(vbit, bits)
            k = bits | vbit
            out[k] = out.get(k, Fraction(0)) + sg * c
        for mu, bvm in rows[v]:
            if (bits >> mu) & 1:
                k = bits ^ (1 << mu)
                out[k] = out.get(k, Fraction(0)) + contract_sign(mu, bits) * bvm * c
    return {k: c for k, c in out.items() if c}


def deformed_blade_product(form: Matrix, s_bits: int, t_bits: int,
                           _cache: dict | None = None) -> dict:
    """Product e_S *_B e_T in the algebra deformed by the bilinear form B,
    as a sparse {blade: coeff} dict.  Standalone so tests can recompute
    structure constants independently of any cached table."""
    rows = _form_rows(form)
    cache = _cache if _cache is not None else {}
    return _blade_product(rows, s_bits, t_bits, cache)


def _blade_product(rows, s_bits: int, t_bits: int, cache: dict) -> dict:
    key = (s_bits, t_bits)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if s_bits == 0:
        out = {t_bits: Fraction(1)}
        cache[key] = out
        return out
    v = (s_bits & -s_bits).bit_length() - 1
    rest = s_bits ^ (1 << v)
    # (v ^ e_rest) *_B y = v *_B (e_rest *_B y) - (B(v).e_rest) *_B y
    main = _vector_product(rows, v, _blade_product(rows, rest, t_bits, cache))
    out = dict(main)
    for mu, bvm in rows[v]:
        if (rest >> mu) & 1:
            corr_bits = rest ^ (1 << mu)
            coeff = bvm * contract_sign(mu, rest)
            for k, c in _blade_product(rows, corr_bits, t_bits, cache).items():
                nv = out.get(k, Fraction(0)) - coeff * c
                if nv:
                    out[k] = nv
                else:
                    out.pop(k, None)
    cache[key] = out
    return out


class CliffordStructure:
    """A rank, a form on vectors and a form on co-vectors, with the product,
    dual-product and coproduct structure constants cached eagerly so the
    instance is immutable after construction.  pairing ("inner" or
    "straight", see the module docstring) fixes how the coproduct table is
    transposed from the dual product; it leaves the product tables alone."""

    def __init__(self, n: int, eta: Matrix, xi: Matrix, pairing: str = "inner"):
        if pairing not in PAIRINGS:
            raise ValueError(f"pairing must be one of {', '.join(PAIRINGS)}, got {pairing!r}")
        if eta.nrows != n or eta.ncols != n:
            raise ValueError("eta must be n x n")
        if xi.nrows != n or xi.ncols != n:
            raise ValueError("xi must be n x n")
        self.n = n
        self.eta = eta
        self.xi = xi
        self.pairing = pairing
        cache_eta: dict = {}
        cache_xi: dict = {}
        eta_rows = _form_rows(eta)
        xi_rows = _form_rows(xi)
        for s in blades(n):
            for t in blades(n):
                _blade_product(eta_rows, s, t, cache_eta)
                _blade_product(xi_rows, s, t, cache_xi)
        self.product_table = cache_eta
        self.dual_product_table = cache_xi
        coprod: dict[int, dict] = {c: {} for c in blades(n)}
        for (p, q), prod in cache_xi.items():
            # (eps_p *_xi eps_q)[C] lands on (q, p) inner, on (p, q) straight
            key = (q, p) if pairing == "inner" else (p, q)
            for c_bits, coeff in prod.items():
                coprod[c_bits][key] = coeff
        self.coproduct_table = {c: Tensor2(n, t) for c, t in coprod.items()}

    @cached_property
    def maps(self) -> StructureMaps:
        """The tables as sparse maps (linmap), built on first use."""
        return structure_maps(self.product_table,
                              {c: t.terms for c, t in self.coproduct_table.items()})

    # -- algebra ----------------------------------------------------------

    def clifford_product(self, x: Multivector, y: Multivector) -> Multivector:
        self._check(x)
        self._check(y)
        return self._bilinear(self.product_table, x, y)

    def dual_clifford_product(self, alpha: DualMultivector, beta: DualMultivector) -> DualMultivector:
        self._check(alpha)
        self._check(beta)
        return self._bilinear(self.dual_product_table, alpha, beta)

    def _bilinear(self, table, x, y) -> Multivector:
        out: dict = {}
        for s, a in x.terms.items():
            for t, b in y.terms.items():
                ab = a * b
                for k, c in table[(s, t)].items():
                    out[k] = out.get(k, Fraction(0)) + ab * c
        return Multivector(self.n, out)

    # -- cogebra ----------------------------------------------------------

    def coproduct(self, x: Multivector) -> Tensor2:
        self._check(x)
        return Tensor2(self.n, chain({(c,): v for c, v in x.terms.items()}, self.maps.cop.at(0)))

    def unit(self, c) -> Multivector:
        return Multivector.scalar(self.n, c)

    def _check(self, x):
        if x.dim != self.n:
            raise ValueError(f"rank mismatch: structure has {self.n}, value has {x.dim}")

    # -- serialization ----------------------------------------------------

    def to_config(self) -> dict:
        cfg = {"n": self.n, "eta": self.eta.to_json(), "xi": self.xi.to_json()}
        if self.pairing != "inner":
            cfg["pairing"] = self.pairing
        return cfg

    @classmethod
    def from_config(cls, data: dict) -> "CliffordStructure":
        n = data["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"rank must be a JSON integer, got {n!r}")
        check_dim(n)
        return cls(n, Matrix.from_json(data["eta"]), Matrix.from_json(data["xi"]),
                   pairing=data.get("pairing", "inner"))


def counit(x: Multivector) -> Fraction:
    """Grade projection onto scalars."""
    return x.scalar_part()


def unit(dim: int, c) -> Multivector:
    return Multivector.scalar(dim, c)


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


def xi_gram_determinant(xi: Matrix, b_bits: int, a_bits: int) -> Fraction:
    """det [ xi(eps_{b_i}, eps_{a_j}) ] over the ascending indices of the two
    blades; the scalar part of eps_B *_xi eps_A equals
    (-1)^floor(k/2) times this (grade-k blades)."""
    bi = blade_indices(b_bits)
    aj = blade_indices(a_bits)
    if len(bi) != len(aj):
        return Fraction(0)
    k = len(bi)
    if k == 0:
        return Fraction(1)
    sub = Matrix([[xi[(r, c)] for c in aj] for r in bi])
    return _det(sub)


def _det(m: Matrix) -> Fraction:
    # cofactor expansion; only used on tiny Gram blocks
    n = m.nrows
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m[(0, 0)]
    total = Fraction(0)
    rows = m.rows
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = Matrix([[rows[i][c] for c in range(n) if c != j] for i in range(1, n)])
        term = rows[0][j] * _det(minor)
        total += term if j % 2 == 0 else -term
    return total
