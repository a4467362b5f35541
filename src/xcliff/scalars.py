"""Exact rational scalars, small dense matrices and the exact sparse solver.

Everything downstream works over arbitrary-precision rationals
(``fractions.Fraction``, which already keeps numerator/denominator coprime
with a positive denominator); there is no floating point anywhere.  Matrices
are small and dense: the forms eta and xi, and dense views of sparse maps.
``invert`` is the one dense solver kept here (the benchmark's tracer times
it); the dense solve, rank and minimal polynomial that the tests use as
oracles are in ``tests/oracles.py``.  Every exact elimination runs through
one fraction-free :class:`Echelon` of integer rows, so Fractions appear
only when rows are read off: ``sparse_rank`` counts its pivots,
``solve_sparse_system`` (and ``invert``) reads its reduced form, which is
unique, so the answers are those of Gauss-Jordan over the rationals, and
``hopf.id_powers`` reads its ride-along columns.  Every solution
``solve_sparse_system`` returns is substituted back as a certificate.
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable


# the digit budget of a scalar's numerator and of its denominator, CPython's
# default int-from-str limit, which cli.main lifts to print exact reports:
# reading an int is quadratic in its digits (0.1 ms at 4300, 6.8 s at a
# million).  It bounds the parse, not the solves: a rank-2 verify of generic
# 1000-digit forms took 126 s (CPython 3.11, a shared 2-vCPU host)
MAX_SCALAR_DIGITS = 4300


def echo(value) -> str:
    """A value read from a config as an error message shows it: its repr
    abbreviated by reprlib (a deep list as [[[[[[[...]]]]]]], a long string
    cut in its middle), non-ASCII escaped as by ascii(), and cut to 60
    characters, all ASCII: the message stays one short line whatever the value."""
    text = reprlib.repr(value).encode("ascii", "backslashreplace").decode()
    return text if len(text) <= 60 else text[:57] + "..."


def parse_scalar(s: str) -> Fraction:
    """Parse a "p/q" or "p" string (an optional sign, ASCII digits, and an
    optional "/" with ASCII digits, at most MAX_SCALAR_DIGITS each, blanks
    stripped around them) into an exact rational.  Anything else, a zero
    denominator, a decimal point, an underscore or an exponent included,
    raises a one-line ValueError."""
    if not isinstance(s, str) or not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", s.strip()):
        raise ValueError(f'scalar must be a "p/q" string, got {echo(s)}')
    if any(len(part) > MAX_SCALAR_DIGITS for part in s.strip().lstrip("+-").split("/")):
        raise ValueError(f"scalar {echo(s)} is over the digit budget of {MAX_SCALAR_DIGITS}")
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"scalar {echo(s)} has a zero denominator") from None


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

    def __repr__(self):
        return f"Matrix({[list(map(str, r)) for r in self.rows]})"

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        cols = list(zip(*other.rows)) if other.rows else []
        return Matrix([[sum(a * b for a, b in zip(row, col) if a and b) for col in cols]
                       for row in self.rows])

    def is_zero(self) -> bool:
        return all(not a for r in self.rows for a in r)

    def to_json(self) -> list:
        return [[format_scalar(a) for a in r] for r in self.rows]


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


def _eliminate(row: dict, pivot_row: dict, col: int) -> None:
    """Clear column col of the integer row in place: with pv and f the two
    rows' entries there and g = gcd(pv, f) signed as pv, the row becomes
    the primitive part of (pv/g) row - (f/g) pivot_row."""
    pv, f = pivot_row[col], row[col]
    g = gcd(pv, f) if pv > 0 else -gcd(pv, f)
    a, b = pv // g, f // g
    if a != 1:
        for k in row:
            row[k] *= a
    for k, v in pivot_row.items():
        nv = row.get(k, 0) - b * v
        if nv:
            row[k] = nv
        else:
            del row[k]
    g = gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g


@dataclass
class Echelon:
    """Sparse integer rows {col: int} in fraction-free echelon form, inserted
    one at a time; columns >= ncols ride along and are never pivots.
    ``pivots`` maps each pivot column to its row, in insertion order: no
    pivot row has an entry in an earlier pivot column, so the pivot columns
    are those of the reduced echelon form, which :meth:`reduce` reaches."""

    ncols: int
    pivots: dict = field(default_factory=dict)

    def insert(self, row: dict) -> dict:
        """The row reduced in place by the pivot rows, in their order, and
        kept as a pivot row at its first entry below ncols if one is left."""
        for c, p in self.pivots.items():
            if c in row:
                _eliminate(row, p, c)
        if row and (c := min(row)) < self.ncols:
            self.pivots[c] = row
        return row

    def reduce(self) -> None:
        """The back pass: each pivot column, latest first, is cleared from the
        other rows; then row[c] x_c + (free-column terms) = row[ncols]."""
        for c, p in reversed(self.pivots.items()):
            for q in self.pivots.values():
                if q is not p and c in q:
                    _eliminate(q, p, c)


def solve_sparse_system(rows: list[dict], rhs: list, ncols: int,
                        nrhs: int | None = None) -> AffineSolutionSet:
    """Solve the system given as sparse rows {col: value} with right-hand
    sides rhs, entries ints or Fractions (shared backend for all solvers).

    With ``nrhs``, each rhs entry is a sparse {j: value} over nrhs
    right-hand sides, solved in one elimination; the particular solution is
    then the ncols x nrhs matrix solving them, row-major (entry c * nrhs + j),
    and the system is consistent iff every right-hand side is.

    The particular solution X (free variables 0) and the nullspace vectors K
    (one per free column) are substituted back into the rows [A | B] as
    [A | B] [X K; -I 0] = 0, in integers; a mismatch raises ArithmeticError.
    """
    if len(rows) != len(rhs):
        raise ValueError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    width, sides = (1, [{0: b} for b in rhs]) if nrhs is None else (nrhs, rhs)
    aug = [_integer_row({**_in_range(row, ncols), **{ncols + j: b for j, b in side.items()}})
           for row, side in zip(rows, sides)]
    echelon = Echelon(ncols)
    # a row left with right-hand-side entries only says 0 = b != 0
    if any((left := echelon.insert(dict(row))) and min(left) >= ncols for row in aug):
        return AffineSolutionSet(particular=None)
    echelon.reduce()
    pivots = echelon.pivots
    # [X K; -I 0] times d, sparse rows {column: int}: X in columns j < width,
    # the nullspace vector of free column f in column width + f
    d = lcm(*(p[c] for c, p in pivots.items()))
    m: list[dict] = [{width + f: d} if f not in pivots else {} for f in range(ncols)]
    m += [{j: -d} for j in range(width)]
    for c, p in pivots.items():
        scale = d // p[c]
        for k, v in p.items():
            if k >= ncols:
                m[c][k - ncols] = v * scale
            elif k != c:
                m[c][width + k] = -v * scale
    for row in aug:
        acc: dict = {}
        for k, v in row.items():
            for j, x in m[k].items():
                acc[j] = acc.get(j, 0) + v * x
        if any(acc.values()):
            raise ArithmeticError("solution does not substitute back into the system")
    zero = Fraction(0)
    return AffineSolutionSet(
        particular=tuple(Fraction(x, d) if (x := row.get(j)) else zero
                         for row in m[:ncols] for j in range(width)),
        nullspace_basis=tuple(tuple(Fraction(x, d) if (x := row.get(width + f)) else zero
                                    for row in m[:ncols]) for f in range(ncols)
                              if f not in pivots))


def sparse_rank(rows: Iterable[dict], ncols: int) -> int:
    """Exact rank of sparse {col: value} rows: their echelon's pivot count."""
    echelon = Echelon(ncols)
    for row in rows:
        echelon.insert(_integer_row(_in_range(row, ncols)))
    return len(echelon.pivots)


def invert(a: Matrix) -> Matrix:
    """Exact inverse, the solution X of A X = I; raises SingularMatrixError
    (with rank) when singular, where A X = I has no solution."""
    if a.nrows != a.ncols:
        raise ValueError("invert requires a square matrix")
    n, rows = a.nrows, [dict(enumerate(row)) for row in a.rows]
    sol = solve_sparse_system(rows, [{i: 1} for i in range(n)], n, n)
    if not sol.is_consistent:
        raise SingularMatrixError(sparse_rank(rows, n))
    return Matrix([sol.particular[c * n:(c + 1) * n] for c in range(n)])
