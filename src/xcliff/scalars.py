"""Exact rational scalars, small dense matrices and the exact sparse solver.

Everything downstream works over arbitrary-precision rationals
(``fractions.Fraction``, which already keeps numerator/denominator coprime
with a positive denominator); there is no floating point anywhere.  Matrices
are small and dense: the forms eta and xi, and dense views of sparse maps.
``invert`` is the one dense solver kept here (the benchmark's tracer times
it); the dense solve, rank and minimal polynomial that the tests use as
oracles are in ``tests/oracles.py``.  The solvers share one elimination
routine: each sparse row is scaled to coprime integers and reduced by
fraction-free Gauss-Jordan with first-nonzero pivoting (deterministic, no
stability concerns), so Fractions appear only when the reduced rows are
read off.  The reduced echelon form is unique, so the answers are those of
Gauss-Jordan over the rationals.  Every solution ``solve_sparse_system``
returns is substituted back into its integer rows as a certificate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


def parse_scalar(s: str) -> Fraction:
    """Parse a "p/q" or "p" string (an optional sign, ASCII digits, and an
    optional "/" with ASCII digits, around which blanks are stripped) into
    an exact rational.  Anything else, a zero denominator, a decimal point,
    an underscore or an exponent included, raises a one-line ValueError."""
    if not isinstance(s, str) or not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", s.strip()):
        raise ValueError(f'scalar must be a "p/q" string, got {s!r}')
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"scalar {s!r} has a zero denominator") from None


def format_scalar(x: Fraction) -> str:
    """Canonical "p/q" form, plain "p" when the denominator is 1."""
    return str(Fraction(x))


class SingularMatrixError(ArithmeticError):
    """Raised when inverting a singular matrix; carries the exact rank."""

    def __init__(self, rank: int):
        super().__init__(f"matrix is singular (rank {rank})")
        self.rank = rank


class Matrix:
    """Dense row-major matrix of exact rationals."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(tuple(Fraction(x) for x in r) for r in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged rows")
        else:
            w = 0
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = w

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, r: int, c: int) -> "Matrix":
        zero = Fraction(0)
        return cls([[zero] * c for _ in range(r)])

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries: dict) -> "Matrix":
        """Build from a sparse {(i, j): value} dict."""
        rows = [[Fraction(0)] * ncols for _ in range(nrows)]
        for (i, j), v in entries.items():
            rows[i][j] = Fraction(v)
        return cls(rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Matrix({[list(map(str, r)) for r in self.rows]})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix([[c * a for a in r] for r in self.rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        cols = list(zip(*other.rows)) if other.rows else []
        return Matrix([[sum(a * b for a, b in zip(row, col) if a and b) for col in cols]
                       for row in self.rows])

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * Fraction(x) for a, x in zip(row, vec) if a) for row in self.rows)

    def is_zero(self) -> bool:
        return all(not a for r in self.rows for a in r)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def to_json(self) -> list:
        return [[format_scalar(a) for a in r] for r in self.rows]

    @classmethod
    def from_json(cls, data: list) -> "Matrix":
        """A matrix from a JSON array of row arrays of "p/q" strings; any
        other shape raises a one-line ValueError."""
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise ValueError("a matrix must be a JSON array of row arrays")
        return cls([[parse_scalar(x) for x in r] for r in data])

    def _same_shape(self, other: "Matrix"):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")


@dataclass
class AffineSolutionSet:
    """Exact solution set of a linear system: particular + span(nullspace).

    ``particular`` is None iff the system is inconsistent.  Nullspace vectors
    come from the reduced echelon form (one per free column) and are linearly
    independent.
    """

    particular: tuple | None
    nullspace_basis: tuple = field(default_factory=tuple)

    @property
    def is_consistent(self) -> bool:
        return self.particular is not None

    @property
    def dimension(self) -> int:
        return len(self.nullspace_basis)

    @property
    def is_unique(self) -> bool:
        return self.is_consistent and not self.nullspace_basis

    def members(self):
        """The particular solution and its shifts by each basis vector."""
        if self.particular is None:
            return
        yield self.particular
        for v in self.nullspace_basis:
            yield tuple(p + d for p, d in zip(self.particular, v))


def _in_range(row: dict, ncols: int) -> dict:
    """The row itself, once its columns are checked to lie in range(ncols)."""
    for col in (min(row), max(row)) if row else ():
        if not 0 <= col < ncols:
            raise ValueError(f"row column {col} outside range({ncols})")
    return row


def _integer_row(row: dict) -> dict[int, int]:
    """Row {col: value} of ints or Fractions scaled to coprime integers,
    zeros dropped; the scaled row has the same solutions."""
    den = lcm(*(v.denominator for v in row.values()))
    out = {k: v.numerator * (den // v.denominator) for k, v in row.items() if v}
    g = gcd(*out.values())
    if g > 1:
        for k in out:
            out[k] //= g
    return out


def _rref_in_place(rows: list[dict], ncols: int) -> dict[int, int]:
    """Fraction-free Gauss-Jordan on sparse {col: int} rows holding no zeros;
    columns >= ncols ride along (augmented part) and are never chosen as
    pivots.  Returns {pivot col: row}.

    The pivot of column c is the first row from the current one on with an
    entry there.  Every other row with an entry f there becomes the primitive
    part of (pv/g) row - (f/g) pivot row, g = gcd(pv, f), which clears the
    column.  Pivot rows are never normalized: in the end the row of pivot
    column c says row[c] x_c + (its free-column terms) = row[ncols].
    """
    pivot_rows: dict[int, int] = {}
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if c in rows[i]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r]
        pv = piv[c]
        for i in range(nrows):
            ri = rows[i]
            f = ri.get(c)
            if f is None or i == r:
                continue
            g = gcd(pv, f)
            a, b = pv // g, f // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                for k in ri:
                    ri[k] *= a
            for k, v in piv.items():
                nv = ri.get(k, 0) - b * v
                if nv:
                    ri[k] = nv
                else:
                    del ri[k]
            g = gcd(*ri.values())
            if g > 1:
                for k in ri:
                    ri[k] //= g
        pivot_rows[c] = r
        r += 1
        if r == nrows:
            break
    return pivot_rows


def _substitutes(rows: list[dict], xs: list, rhs_scale: int) -> bool:
    """Whether A x = rhs_scale * b for every augmented integer row [A | b]
    (b in column len(xs)), checked in integers at a common denominator."""
    d = lcm(*(x.denominator for x in xs))
    vec = [x.numerator * (d // x.denominator) for x in xs]
    vec.append(-d * rhs_scale)
    return all(sum(v * vec[k] for k, v in row.items()) == 0 for row in rows)


def solve_sparse_system(rows: list[dict], rhs: list, ncols: int) -> AffineSolutionSet:
    """Solve the system given as sparse rows {col: value} with right-hand
    sides rhs, entries ints or Fractions (shared backend for all solvers).

    The particular solution (free variables 0) and each nullspace vector
    (one per free column) are substituted back into the rows before they
    are returned; a mismatch raises ArithmeticError.
    """
    if len(rows) != len(rhs):
        raise ValueError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    aug = [_integer_row({**_in_range(row, ncols), ncols: b}) for row, b in zip(rows, rhs)]
    work = [dict(row) for row in aug]
    pivots = _rref_in_place(work, ncols)
    if any(len(row) == 1 and ncols in row for row in work):
        return AffineSolutionSet(particular=None)
    particular = [Fraction(0)] * ncols
    for c, r in pivots.items():
        p = work[r]
        particular[c] = Fraction(p.get(ncols, 0), p[c])
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for c, r in pivots.items():
            p = work[r]
            if f in p:
                v[c] = -Fraction(p[f], p[c])
        basis.append(v)
    if not (_substitutes(aug, particular, 1)
            and all(_substitutes(aug, v, 0) for v in basis)):
        raise ArithmeticError("solution does not substitute back into the system")
    return AffineSolutionSet(particular=tuple(particular),
                             nullspace_basis=tuple(map(tuple, basis)))


def sparse_rank(rows: Iterable[dict], ncols: int) -> int:
    """Exact rank of a matrix given as sparse {col: value} rows."""
    work = [_integer_row(_in_range(row, ncols)) for row in rows]
    return len(_rref_in_place(work, ncols))


def invert(a: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrixError (with rank) when singular."""
    if not a.is_square():
        raise ValueError("invert requires a square matrix")
    n = a.nrows
    rows = [_integer_row({**dict(enumerate(row)), n + i: 1})
            for i, row in enumerate(a.rows)]
    pivots = _rref_in_place(rows, n)
    if len(pivots) < n:
        raise SingularMatrixError(len(pivots))
    inv_rows = []
    for c in range(n):
        p = rows[pivots[c]]
        inv_rows.append([Fraction(p.get(n + j, 0), p[c]) for j in range(n)])
    return Matrix(inv_rows)
