"""Exterior algebra of a free rank-n module over exact rationals.

Blades are bitmasks over {0, ..., n-1}; the blade e_S means the wedge of the
basis vectors of S in strictly ascending index order, and every sign in the
module flows from the inversion count of that orientation.  Multivectors are
grade-sparse maps from blade to coefficient, a :class:`linmap.SparseVector`
whose keys are the blades of the rank; dual multivectors (coefficients on
the dual basis) use the same container.
"""

from __future__ import annotations

from fractions import Fraction

from .linmap import SparseVector, dot
from .scalars import echo, format_scalar

MAX_DIM = 16  # bitmask blades cap the rank at the word width we allow


def grade(bits: int) -> int:
    return bits.bit_count()


def blades(dim: int) -> range:
    return range(1 << dim)


def check_dim(dim: int):
    if not 0 <= dim <= MAX_DIM:
        raise ValueError(f"rank must be between 0 and {MAX_DIM}, got {echo(dim)}")


def wedge_sign(s: int, t: int) -> int:
    """Sign of e_S ^ e_T: 0 on overlap, else parity of inversions (s in S,
    t in T, s > t)."""
    if s & t:
        return 0
    inv = 0
    tt = t
    while tt:
        low = tt & -tt
        inv += (s >> low.bit_length()).bit_count()
        tt ^= low
    return -1 if inv & 1 else 1


def contract_sign(mu: int, bits: int) -> int:
    """Sign picked up deleting index mu from blade bits (count of smaller
    indices crossed)."""
    return -1 if (bits & ((1 << mu) - 1)).bit_count() & 1 else 1


def blade_indices(bits: int) -> list[int]:
    """Ascending list of the indices in a blade bitmask."""
    out = []
    i = 0
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return out


def blade_key(bits: int) -> str:
    """JSON key for a blade: ascending comma-joined indices, "" for the unit."""
    return ",".join(map(str, blade_indices(bits)))


def blade_name(bits: int) -> str:
    """Display name of a blade: "1" for the unit, else "e" and its indices."""
    return "1" if bits == 0 else "e" + blade_key(bits).replace(",", "")


class Multivector(SparseVector):
    """Grade-sparse element of the exterior algebra: {blade bits: Fraction}."""

    __slots__ = ()

    def __init__(self, dim: int, terms: dict | None = None):
        check_dim(dim)
        terms = terms or {}
        top = 1 << dim
        for bits in terms:
            if not 0 <= bits < top:
                raise ValueError(f"blade {bits} out of range for rank {dim}")
        super().__init__(dim, terms)

    @classmethod
    def scalar(cls, dim: int, c) -> "Multivector":
        return cls(dim, {0: Fraction(c)})

    @classmethod
    def basis_vector(cls, dim: int, i: int) -> "Multivector":
        return cls(dim, {1 << i: Fraction(1)})

    @classmethod
    def blade(cls, dim: int, bits: int, c=1) -> "Multivector":
        return cls(dim, {bits: Fraction(c)})

    def scalar_part(self) -> Fraction:
        return self.terms.get(0, Fraction(0))

    def is_homogeneous(self, k: int) -> bool:
        return all(grade(b) == k for b in self.terms)

    @staticmethod
    def _term(bits: int, c: Fraction) -> str:
        """One term as c*e12; the unit blade's coefficient stands bare."""
        return f"{format_scalar(c)}*{blade_name(bits)}" if bits else format_scalar(c)


def wedge(x: Multivector, y: Multivector) -> Multivector:
    x._check(y)
    out: dict = {}
    for s, a in x.terms.items():
        for t, b in y.terms.items():
            sg = wedge_sign(s, t)
            if sg:
                k = s | t
                out[k] = out.get(k, Fraction(0)) + sg * a * b
    return Multivector(x.dim, out)


def contract(alpha: Multivector, x: Multivector) -> Multivector:
    """Contraction of a grade-1 dual element into a multivector.

    The unique antiderivation with contract(eps_mu, e_nu) = delta_mu_nu.
    """
    alpha._check(x)
    if not alpha.is_homogeneous(1):
        raise ValueError("contract expects a grade-1 dual element")
    out: dict = {}
    for abits, c in alpha.terms.items():
        mu = abits.bit_length() - 1
        for bits, v in x.terms.items():
            if (bits >> mu) & 1:
                k = bits ^ (1 << mu)
                out[k] = out.get(k, Fraction(0)) + contract_sign(mu, bits) * c * v
    return Multivector(x.dim, out)


def det_pairing(alpha: Multivector, x: Multivector) -> Fraction:
    """Determinant pairing of a dual multivector with a multivector.

    On canonically ordered blades the Gram matrix is the identity, so the
    pairing is the coefficient-wise dot product; blades of different grade
    pair to zero automatically (distinct keys).
    """
    alpha._check(x)
    return dot(alpha.terms, x.terms)
