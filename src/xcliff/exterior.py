"""Exterior algebra of a free rank-n module over exact rationals.

Blades are bitmasks over {0, ..., n-1}; the blade e_S means the wedge of the
basis vectors of S in strictly ascending index order, and every sign in the
module flows from the inversion count of that orientation.  Multivectors are
grade-sparse maps from blade to coefficient.  Dual multivectors (coefficients
on the dual basis) use the same container.
"""

from __future__ import annotations

from fractions import Fraction

from .linmap import add, dot
from .scalars import format_scalar, parse_scalar

MAX_DIM = 16  # bitmask blades cap the rank at the word width we allow


def grade(bits: int) -> int:
    return bits.bit_count()


def blades(dim: int) -> range:
    return range(1 << dim)


def check_dim(dim: int):
    if not 0 <= dim <= MAX_DIM:
        raise ValueError(f"rank must be between 0 and {MAX_DIM}, got {dim}")


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


def blade_key(bits: int) -> str:
    """JSON key for a blade: ascending comma-joined indices, "" for the unit."""
    out = []
    i = 0
    while bits:
        if bits & 1:
            out.append(str(i))
        bits >>= 1
        i += 1
    return ",".join(out)


def blade_name(bits: int) -> str:
    """Display name of a blade: "1" for the unit, else "e" and its indices."""
    return "1" if bits == 0 else "e" + blade_key(bits).replace(",", "")


def parse_blade_key(key: str) -> int:
    if not key:
        return 0
    bits = 0
    for part in key.split(","):
        i = int(part)
        if i < 0 or (bits >> i) & 1:
            raise ValueError(f"bad blade key {key!r}")
        bits |= 1 << i
    return bits


class Multivector:
    """Grade-sparse element of the exterior algebra: {blade bits: Fraction}.

    Values are immutable by convention; all operations return new instances.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict | None = None):
        check_dim(dim)
        top = 1 << dim
        clean = {}
        for bits, c in (terms or {}).items():
            if not 0 <= bits < top:
                raise ValueError(f"blade {bits} out of range for rank {dim}")
            c = Fraction(c)
            if c:
                clean[bits] = c
        self.dim = dim
        self.terms = clean

    @classmethod
    def zero(cls, dim: int) -> "Multivector":
        return cls(dim, {})

    @classmethod
    def scalar(cls, dim: int, c) -> "Multivector":
        return cls(dim, {0: Fraction(c)})

    @classmethod
    def basis_vector(cls, dim: int, i: int) -> "Multivector":
        return cls(dim, {1 << i: Fraction(1)})

    @classmethod
    def blade(cls, dim: int, bits: int, c=1) -> "Multivector":
        return cls(dim, {bits: Fraction(c)})

    def __eq__(self, other):
        return (isinstance(other, Multivector) and self.dim == other.dim
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        return Multivector(self.dim, add(self.terms, other.terms))

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + -other

    def __neg__(self) -> "Multivector":
        return Multivector(self.dim, {b: -c for b, c in self.terms.items()})

    def __rmul__(self, c) -> "Multivector":
        return Multivector(self.dim, add({}, self.terms, Fraction(c)))

    __mul__ = __rmul__

    def scalar_part(self) -> Fraction:
        return self.terms.get(0, Fraction(0))

    def is_homogeneous(self, k: int) -> bool:
        return all(grade(b) == k for b in self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{format_scalar(c)}*{blade_name(b)}"
                          for b, c in sorted(self.terms.items()))

    def to_json(self) -> dict:
        return {blade_key(b): format_scalar(c) for b, c in sorted(self.terms.items())}

    @classmethod
    def from_json(cls, dim: int, data: dict) -> "Multivector":
        return cls(dim, {parse_blade_key(k): parse_scalar(v) for k, v in data.items()})

    def _check(self, other: "Multivector"):
        if self.dim != other.dim:
            raise ValueError(f"rank mismatch {self.dim} vs {other.dim}")


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
